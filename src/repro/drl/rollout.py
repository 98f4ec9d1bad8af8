"""Rollout collection: running the recurrent policy in the environment.

The trainer and the QBN/FSM extraction stages both need trajectories of
``<h_t, h_{t+1}, o_t, a_t, r_t>`` tuples (the dataset of paper Section
3.2.1).  Rollouts are collected in inference mode (no autograd graph);
the A2C trainer later re-runs the recurrent forward pass over the stored
observations with gradients enabled.

There is one collector, :class:`BatchedRolloutCollector`: it runs N
episodes in lockstep on a
:class:`~repro.env.vector_env.VectorStorageAllocationEnv` so one batched
GRU forward pass serves every environment per interval.  An episode's
trajectory depends on its own rng streams (see
:func:`derive_episode_streams`) and never on the batch it ran in, so the
sequential view is the B = 1 call and any chunking of an episode list —
one at a time, one lockstep batch, or slices collected separately —
returns the same bits.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro import telemetry
from repro.drl.policy import GeneratorList, RecurrentPolicyValueNet
from repro.env.vector_env import VectorStorageAllocationEnv
from repro.errors import TrainingError
from repro.storage.workload import WorkloadTrace
from repro.utils.rng import SeedLike, new_rng


class Trajectory:
    """One episode: its time-major ``(T, ...)`` step columns plus outcomes.

    ``hidden_before[t]`` / ``hidden_after[t]`` are h_t and h_{t+1};
    ``valid_action_masks[t]`` records which actions were legal
    migrations when ``actions[t]`` was chosen.  The columns are handed
    over as built (the collector passes slices of its step buffers);
    the accessors (:meth:`observations`, :meth:`rewards`, …) always
    return fresh arrays the caller may mutate freely.
    """

    __slots__ = (
        "trace_name", "makespan", "truncated", "_observations",
        "_raw_observations", "_hidden_before", "_hidden_after", "_actions",
        "_rewards", "_value_estimates", "_valid_action_masks",
    )

    def __init__(
        self,
        trace_name: str,
        observations: np.ndarray,        # (T, obs_dim), normalised
        raw_observations: np.ndarray,    # (T, obs_dim)
        hidden_before: np.ndarray,       # (T, hidden_dim)
        hidden_after: np.ndarray,        # (T, hidden_dim)
        actions: np.ndarray,             # (T,) int
        rewards: np.ndarray,             # (T,)
        value_estimates: np.ndarray,     # (T,)
        valid_action_masks: np.ndarray,  # (T, num_actions) bool
        makespan: int = 0,
        truncated: bool = False,
    ) -> None:
        self.trace_name = trace_name
        self.makespan = makespan
        self.truncated = truncated
        self._observations = observations
        self._raw_observations = raw_observations
        self._hidden_before = hidden_before
        self._hidden_after = hidden_after
        self._actions = actions
        self._rewards = rewards
        self._value_estimates = value_estimates
        self._valid_action_masks = valid_action_masks

    def __len__(self) -> int:
        return int(self._actions.shape[0])

    @property
    def total_reward(self) -> float:
        return float(self.rewards().sum())

    def observations(self) -> np.ndarray:
        """Normalised observations, (T, obs_dim)."""
        return np.array(self._observations)

    def raw_observations(self) -> np.ndarray:
        return np.array(self._raw_observations)

    def hidden_states_before(self) -> np.ndarray:
        return np.array(self._hidden_before)

    def hidden_states_after(self) -> np.ndarray:
        return np.array(self._hidden_after)

    def actions(self) -> np.ndarray:
        return np.array(self._actions, dtype=int)

    def rewards(self) -> np.ndarray:
        return np.array(self._rewards, dtype=float)

    def value_estimates(self) -> np.ndarray:
        return np.array(self._value_estimates, dtype=float)

    def valid_action_masks(self) -> np.ndarray:
        """(T, num_actions) legality masks at decision time."""
        return np.array(self._valid_action_masks)

    def discounted_returns(self, gamma: float) -> np.ndarray:
        """Monte-Carlo discounted returns G_t for every step.

        Computed with a vectorized doubling scan: after the pass with
        offset ``o`` each entry holds the discounted sum of the next
        ``2 o`` rewards, so ``log2(T)`` elementwise passes replace the
        reverse Python loop.
        """
        if not 0.0 <= gamma <= 1.0:
            raise TrainingError(f"gamma must be in [0, 1], got {gamma}")
        returns = self.rewards()
        offset = 1
        factor = gamma
        while offset < returns.size:
            returns[:-offset] += factor * returns[offset:]
            offset *= 2
            factor *= factor
        return returns


@dataclass
class TrajectoryBatch:
    """Padded, masked view of several trajectories for batched training.

    All arrays are time-major with shape ``(T_max, B, ...)``; ``mask`` is
    True where a trajectory actually has a step.  Rows beyond a
    trajectory's length are zero-padded and masked out.
    """

    trajectories: List[Trajectory]
    observations: np.ndarray       # (T, B, obs_dim)
    actions: np.ndarray            # (T, B) int
    rewards: np.ndarray            # (T, B)
    mask: np.ndarray               # (T, B) bool

    @staticmethod
    def from_trajectories(trajectories: Sequence[Trajectory]) -> "TrajectoryBatch":
        trajectories = list(trajectories)
        if not trajectories:
            raise TrainingError("cannot build a TrajectoryBatch from no trajectories")
        if any(len(t) == 0 for t in trajectories):
            raise TrainingError("cannot build a TrajectoryBatch from an empty trajectory")
        horizon = max(len(t) for t in trajectories)
        batch = len(trajectories)
        obs_dim = trajectories[0].observations().shape[1]
        observations = np.zeros((horizon, batch, obs_dim))
        actions = np.zeros((horizon, batch), dtype=int)
        rewards = np.zeros((horizon, batch))
        mask = np.zeros((horizon, batch), dtype=bool)
        for b, trajectory in enumerate(trajectories):
            steps = len(trajectory)
            observations[:steps, b] = trajectory.observations()
            actions[:steps, b] = trajectory.actions()
            rewards[:steps, b] = trajectory.rewards()
            mask[:steps, b] = True
        return TrajectoryBatch(
            trajectories=trajectories,
            observations=observations,
            actions=actions,
            rewards=rewards,
            mask=mask,
        )

    @property
    def max_steps(self) -> int:
        return int(self.observations.shape[0])

    @property
    def batch_size(self) -> int:
        return int(self.observations.shape[1])

    @property
    def total_steps(self) -> int:
        return int(self.mask.sum())

    def valid_positions(self) -> Tuple[np.ndarray, np.ndarray]:
        """(time_idx, batch_idx) arrays of the unpadded positions (time-major)."""
        return np.nonzero(self.mask)

    def padded_returns(self, gamma: float) -> np.ndarray:
        """(T, B) discounted returns, zero in the padded region."""
        returns = np.zeros_like(self.rewards)
        for b, trajectory in enumerate(self.trajectories):
            returns[: len(trajectory), b] = trajectory.discounted_returns(gamma)
        return returns


def derive_episode_streams(
    base_seed: int, count: int
) -> Tuple[List[np.random.Generator], List[np.random.Generator]]:
    """Per-episode (environment, action) rng stream pairs from one seed.

    Episode ``i`` gets ``SeedSequence(base_seed).spawn(count)[i]``, split
    once more into the simulator stream and the action-sampling stream.
    The streams belong to the episode, not to the batch it runs in,
    which is what makes any chunking of a collection reproducible.
    """
    if count <= 0:
        raise TrainingError(f"count must be positive, got {count}")
    episode_rngs: List[np.random.Generator] = []
    action_rngs: List[np.random.Generator] = []
    for child in np.random.SeedSequence(base_seed).spawn(count):
        env_seq, action_seq = child.spawn(2)
        episode_rngs.append(np.random.default_rng(env_seq))
        action_rngs.append(np.random.default_rng(action_seq))
    return episode_rngs, action_rngs


class BatchedRolloutCollector:
    """Collects N trajectories in lockstep with batched policy inference.

    Each :meth:`collect_batch` call runs one episode per trace on the
    vectorized environment.  Finished episodes are auto-masked: they stop
    consuming actions and randomness while the rest of the batch drains.
    """

    def __init__(self, vector_env: VectorStorageAllocationEnv, rng: SeedLike = None) -> None:
        self.vector_env = vector_env
        self._rng = new_rng(rng)
        self._tracer = telemetry.tracer()
        metrics = telemetry.registry()
        self._m_batches = metrics.counter(
            "rollout_batches_total", help="Lockstep collect_batch calls"
        )
        self._m_steps = metrics.counter(
            "rollout_steps_total", help="Lockstep env intervals stepped during rollout"
        )
        self._m_episodes = metrics.counter(
            "rollout_episodes_total", help="Trajectories collected"
        )

    def collect_batch(
        self,
        policy: RecurrentPolicyValueNet,
        traces: Sequence[WorkloadTrace],
        epsilon: float = 0.0,
        greedy: bool = False,
        episode_rngs: Optional[Sequence[SeedLike]] = None,
        action_rngs: Optional[Sequence[SeedLike]] = None,
    ) -> List[Trajectory]:
        """Run one lockstep episode per trace and return the trajectories.

        When the rng streams are not supplied they are derived from this
        collector's generator via :func:`derive_episode_streams`; a
        one-trace call with slot ``i``'s streams reproduces that slot
        bit-for-bit.
        """
        traces = list(traces)
        if not traces:
            raise TrainingError("collect_batch() needs at least one trace")
        batch = len(traces)
        if episode_rngs is None or action_rngs is None:
            # Derive whichever stream set was not supplied from this
            # collector's generator so a seeded collector stays
            # deterministic even with partially supplied streams.
            base_seed = int(self._rng.integers(np.iinfo(np.int64).max))
            derived_episode, derived_action = derive_episode_streams(base_seed, batch)
            episode_rngs = derived_episode if episode_rngs is None else episode_rngs
            action_rngs = derived_action if action_rngs is None else action_rngs
        episode_rngs = list(episode_rngs)
        if len(episode_rngs) != batch or len(action_rngs) != batch:
            raise TrainingError(
                f"need one episode/action rng per trace, got {len(episode_rngs)}/"
                f"{len(action_rngs)} for {batch} traces"
            )
        action_rngs = GeneratorList(new_rng(r) for r in action_rngs)

        venv = self.vector_env
        normalized = venv.reset(traces, rngs=episode_rngs)
        raw = venv.raw_observations()
        hidden = policy.initial_state(batch).numpy()
        active = ~venv.dones

        # Struct-of-arrays accumulation into preallocated (cap, B, ...)
        # buffers: per interval the fresh (B, ...) step arrays are copied
        # into row ``t``; no per-slot python, no per-step objects, no
        # end-of-episode re-stacking.  Episodes can outlive their traces
        # (the backlog drains after the last interval), so the buffers
        # grow by doubling on the rare overflow.  Slot ``b`` is active on
        # a contiguous step prefix, so its episode is the column slice
        # ``[:length[b], b]``.
        cap = 2 * max(len(trace) for trace in traces) + 16
        counts0 = venv.core_counts()
        observations_buf = np.empty((cap,) + normalized.shape)
        raw_buf = np.empty((cap,) + raw.shape)
        # Hidden states are stored once per boundary, not twice per step:
        # a slot's hidden_after at step t is its hidden_before at t+1
        # (act_batch freezes finished slots' rows, and only the active
        # prefix of each slot is sliced out below).
        hidden_buf = np.empty((cap + 1,) + hidden.shape)
        actions_buf = np.empty((cap, batch), dtype=np.int64)
        rewards_buf = np.empty((cap, batch))
        values_buf = np.empty((cap, batch))
        # Valid-action masks are a pure function of the pre-step core
        # counts for every *stored* row (a slot's rows only cover steps
        # where it was still active, so the finished-slot override of
        # ``valid_action_masks`` never reaches a trajectory), so the hot
        # loop stores one cheap counts snapshot per interval and the
        # masks are materialised in a single vectorized call afterwards.
        counts_buf = np.empty((cap,) + counts0.shape, dtype=counts0.dtype)
        makespans = np.zeros(batch, dtype=np.int64)
        truncated = np.zeros(batch, dtype=bool)

        if active.all():
            # ``active=None`` takes act_batch's mask-free whole-batch
            # path; the mask is only materialised once slots finish.
            active = None
        t = 0
        with self._tracer.span("rollout.collect_batch", traces=batch) as rollout_span:
            while active is None or active.any():
                if t == cap:
                    cap *= 2
                    grown = []
                    for buf in (
                        observations_buf, raw_buf, hidden_buf, actions_buf,
                        rewards_buf, values_buf, counts_buf,
                    ):
                        rows = cap + 1 if buf is hidden_buf else cap
                        wide = np.empty((rows,) + buf.shape[1:], dtype=buf.dtype)
                        wide[: buf.shape[0]] = buf
                        grown.append(wide)
                    (observations_buf, raw_buf, hidden_buf, actions_buf,
                     rewards_buf, values_buf, counts_buf) = grown
                counts_buf[t] = counts0 if t == 0 else venv.core_counts()
                output = policy.act_batch(
                    normalized,
                    hidden,
                    rngs=action_rngs,
                    epsilon=epsilon,
                    greedy=greedy,
                    active=active,
                )
                result = venv.step(output.actions)
                observations_buf[t] = normalized
                raw_buf[t] = raw
                hidden_buf[t] = hidden
                actions_buf[t] = output.actions
                rewards_buf[t] = result.rewards
                values_buf[t] = output.values
                if result.newly_done.any():
                    finished = np.nonzero(result.newly_done)[0]
                    makespans[finished] = result.makespans[finished]
                    truncated[finished] = result.truncated[finished]
                # act_batch already freezes finished slots' hidden rows (they
                # keep the input hidden state), so the output advances active
                # slots and preserves the rest.
                hidden = output.hidden_states
                normalized = result.observations
                raw = result.raw_observations
                dones = result.dones
                active = None if not dones.any() else ~dones
                t += 1
            rollout_span.set("steps", t)
        self._m_batches.inc()
        self._m_steps.inc(t)
        self._m_episodes.inc(batch)

        hidden_buf[t] = hidden
        masks = venv.action_space.valid_mask_batch_from_counts(
            counts_buf[:t].reshape(t * batch, -1),
            venv.system_config.min_cores_per_level,
        ).reshape(t, batch, -1)
        # A slot's stored-row count equals its makespan: steps_taken
        # advances exactly once per stored interval.
        trajectories = []
        for b, trace in enumerate(traces):
            steps = int(makespans[b])
            trajectories.append(
                Trajectory(
                    trace.name,
                    observations=observations_buf[:steps, b],
                    raw_observations=raw_buf[:steps, b],
                    hidden_before=hidden_buf[:steps, b],
                    hidden_after=hidden_buf[1 : steps + 1, b],
                    actions=actions_buf[:steps, b],
                    rewards=rewards_buf[:steps, b],
                    value_estimates=values_buf[:steps, b],
                    valid_action_masks=masks[:steps, b],
                    makespan=steps,
                    truncated=bool(truncated[b]),
                )
            )
        return trajectories

    def collect_many(
        self,
        policy: RecurrentPolicyValueNet,
        traces: Sequence[WorkloadTrace],
        epsilon: float = 0.0,
        greedy: bool = False,
        batch_size: Optional[int] = None,
        base_seed: Optional[int] = None,
    ) -> List[Trajectory]:
        """Collect one trajectory per trace, ``batch_size`` episodes at a time.

        With ``batch_size=None`` the whole trace list runs as one batch;
        ``batch_size=1`` is the sequential view, and a final partial
        chunk (episode count not a multiple of the batch) runs through
        the same lockstep path.

        With ``base_seed`` set, per-episode streams are derived once for
        the *full* episode list and sliced per chunk, so the trajectories
        are bit-identical for every ``batch_size``.  Without it each
        chunk draws its own base seed from this collector's generator, so
        results then depend on the chunking.
        """
        traces = list(traces)
        if not traces:
            return []
        chunk = len(traces) if batch_size is None else int(batch_size)
        if chunk <= 0:
            raise TrainingError(f"batch_size must be positive, got {batch_size}")
        if base_seed is not None:
            episode_rngs, action_rngs = derive_episode_streams(base_seed, len(traces))
        trajectories: List[Trajectory] = []
        for start in range(0, len(traces), chunk):
            stop = start + chunk
            trajectories.extend(
                self.collect_batch(
                    policy,
                    traces[start:stop],
                    epsilon=epsilon,
                    greedy=greedy,
                    episode_rngs=None if base_seed is None else episode_rngs[start:stop],
                    action_rngs=None if base_seed is None else action_rngs[start:stop],
                )
            )
        return trajectories
