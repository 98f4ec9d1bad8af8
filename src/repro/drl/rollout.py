"""Rollout collection: running the recurrent policy in the environment.

The trainer and the QBN/FSM extraction stages both need trajectories of
``<h_t, h_{t+1}, o_t, a_t, r_t>`` tuples (the dataset of paper Section
3.2.1).  Rollouts are collected in inference mode (no autograd graph);
the A2C trainer later re-runs the recurrent forward pass over the stored
observations with gradients enabled.

There is one collector, :class:`BatchedRolloutCollector`: it runs N
episodes in lockstep on a
:class:`~repro.env.vector_env.VectorStorageAllocationEnv` so one batched
GRU forward pass serves every environment per interval.  The loop is the
evaluation engine's (:func:`~repro.engine.evaluation.run_lockstep`); the
collector only decides through a backend that records what the policy
saw and did, and cuts the trajectories from those records.  A
collector runs its episodes on consecutive episode seeds from the one
its ``rng`` names, and a trajectory depends on its seed's Philox lanes
(:func:`~repro.utils.rng.episode_lanes`), never on its batch: one
episode per call, one lockstep batch or any slices return the same bits.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from repro import telemetry
from repro.drl.policy import RecurrentPolicyValueNet
from repro.engine.backends import GRUPolicyBackend
from repro.engine.evaluation import run_lockstep
from repro.engine.sessions import SessionTable
from repro.env.vector_env import VectorStorageAllocationEnv
from repro.errors import TrainingError
from repro.storage.workload import WorkloadTrace
from repro.utils.rng import ACTION_DOMAIN, PhiloxStreams, SeedLike, episode_lanes, episode_seed


class Trajectory:
    """One episode: its time-major ``(T, ...)`` step columns plus outcomes.

    ``hidden_before[t]`` / ``hidden_after[t]`` are h_t and h_{t+1}.
    The columns are handed over as built (the collector passes slices
    of its step buffers);
    the accessors (:meth:`observations`, :meth:`rewards`, …) always
    return fresh arrays the caller may mutate freely.
    """

    __slots__ = (
        "trace_name", "makespan", "truncated", "_observations",
        "_raw_observations", "_hidden_before", "_hidden_after", "_actions",
        "_rewards", "_value_estimates",
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


class _RecordingBackend(GRUPolicyBackend):
    """The collector's policy: ``act_batch`` on each episode's own action
    lane, keeping the rows, hidden-before and output of every call."""

    def __init__(
        self,
        policy: RecurrentPolicyValueNet,
        streams: PhiloxStreams,
        epsilon: float,
        greedy: bool,
    ) -> None:
        super().__init__(policy)
        self.streams = streams
        self.epsilon = epsilon
        self.greedy = greedy
        # One (episode rows, normalised, raw, hidden before, output) per call.
        self.calls: List[tuple] = []

    def begin_sessions(self, table: SessionTable, slots: np.ndarray) -> None:
        super().begin_sessions(table, slots)
        self.episode_of = np.empty(table.capacity, dtype=np.int64)
        self.episode_of[slots] = np.arange(slots.shape[0])

    def decide(
        self,
        table: SessionTable,
        slots: np.ndarray,
        raw: np.ndarray,
        normalized: np.ndarray,
    ) -> np.ndarray:
        rows = self.episode_of[slots]
        hidden = table.hidden[slots]
        output = self.policy.act_batch(
            normalized,
            hidden,
            lambda: self.streams.uniforms(rows),
            epsilon=self.epsilon,
            greedy=self.greedy,
        )
        table.hidden[slots] = output.hidden_states
        self.calls.append((rows, normalized, raw, hidden, output))
        return np.asarray(output.actions, dtype=np.int64)


class BatchedRolloutCollector:
    """Collects N trajectories in lockstep with batched policy inference.

    Each :meth:`collect_batch` call runs one episode per trace through
    :func:`~repro.engine.evaluation.run_lockstep`, the evaluation
    engine's loop, on this collector's vector env.  Finished episodes
    are auto-masked: they stop consuming actions and randomness while
    the rest of the batch drains.
    """

    def __init__(self, vector_env: VectorStorageAllocationEnv, rng: SeedLike = None) -> None:
        self.vector_env = vector_env
        self._next_seed = episode_seed(rng)
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
    ) -> List[Trajectory]:
        """Run one lockstep episode per trace and return the trajectories.

        The episodes take this collector's next ``len(traces)`` episode
        seeds, so ``k`` one-trace calls reproduce one ``k``-trace call
        bit for bit, and so do its slices collected in order.
        """
        traces = list(traces)
        if not traces:
            raise TrainingError("collect_batch() needs at least one trace")
        batch = len(traces)
        seeds = range(self._next_seed, self._next_seed + batch)
        self._next_seed += batch
        recorder = _RecordingBackend(
            policy, episode_lanes(seeds, ACTION_DOMAIN), epsilon, greedy
        )
        with self._tracer.span("rollout.collect_batch", traces=batch) as rollout_span:
            rewards, makespans, truncated = run_lockstep(
                self.vector_env, [recorder], traces, seeds
            )
            steps = rewards.shape[0]
            rollout_span.set("steps", steps)
        self._m_batches.inc()
        self._m_steps.inc(steps)
        self._m_episodes.inc(batch)

        # Episode ``b`` is decided on a contiguous step prefix, call ``t``
        # being step ``t``, so its trajectory is the column slice
        # ``[:makespan[b], b]`` of time-major buffers.  Hidden states are
        # stored once per boundary: an episode's hidden-after at step t is
        # its hidden-before at t + 1.
        obs_dim = policy.config.observation_dim
        observations = np.empty((steps, batch, obs_dim))
        raw_observations = np.empty((steps, batch, obs_dim))
        hidden = np.empty((steps + 1, batch, policy.hidden_dim()))
        actions = np.empty((steps, batch), dtype=np.int64)
        values = np.empty((steps, batch))
        for t, (rows, normalized, raw, hidden_before, output) in enumerate(recorder.calls):
            observations[t, rows] = normalized
            raw_observations[t, rows] = raw
            hidden[t, rows] = hidden_before
            hidden[t + 1, rows] = output.hidden_states
            actions[t, rows] = output.actions
            values[t, rows] = output.values
        return [
            Trajectory(
                trace.name,
                observations=observations[:steps_b, b],
                raw_observations=raw_observations[:steps_b, b],
                hidden_before=hidden[:steps_b, b],
                hidden_after=hidden[1 : steps_b + 1, b],
                actions=actions[:steps_b, b],
                rewards=rewards[:steps_b, b],
                value_estimates=values[:steps_b, b],
                makespan=steps_b,
                truncated=bool(truncated[b]),
            )
            for b, (trace, steps_b) in enumerate(zip(traces, makespans.tolist()))
        ]
