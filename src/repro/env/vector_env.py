"""Vectorized lockstep execution of N independent storage-allocation episodes.

:class:`VectorStorageAllocationEnv` owns one shared
:class:`~repro.storage.vector_state.VectorSimulatorState` — the
struct-of-arrays simulator core that holds all B environments' level
backlogs, core residency/cooldowns and interval accumulators as
``(B, ...)`` arrays — and advances every unfinished episode by one
interval per :meth:`step` call with array kernels, exposing batched
``(B, obs_dim)`` observation matrices so that one batched policy forward
pass can serve every environment.

Design contract (relied on by the lockstep loop that evaluation and
rollout collection share, and by their equivalence tests): slot ``i``
of a vector episode is **bit-identical**
to a sequential :class:`~repro.env.environment.StorageAllocationEnv`
episode on the same trace with the same Philox lane.  The scalar
environment's simulator is the B=1 view of the same simulator core, and
every batched assembly step (observation rows, normalisation, rewards)
is restricted to elementwise operations whose rows cannot depend on the
batch size.

Finished episodes are auto-masked: their slots stop consuming actions
and randomness, report zero reward, and keep returning their final
observation row so the batch keeps a stable shape until every episode
is done.

The environment keeps one observation matrix, the **raw** one, and
refreshes the stepped rows' counts, utilisation and workload columns in
it every interval.  Normalised observations are never stored: a step
result normalises its own raw snapshot on first read and
:meth:`VectorStorageAllocationEnv.observations` normalises the current
matrix, both with ``ObservationEncoder.normalize_batch`` — the fleet
loop, which hands raw rows to the broker, pays for neither.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import List, Optional, Sequence

import numpy as np

from repro.env.action import ActionSpace
from repro.env.observation import OBSERVATION_DIM, ObservationEncoder
from repro.env.reward import (
    RewardConfig,
    compute_step_rewards_batch,
    compute_terminal_rewards_batch,
)
from repro.errors import EnvironmentError_, SimulationError
from repro.storage.iorequest import NUM_IO_TYPES
from repro.storage.levels import LEVELS
from repro.storage.metrics import EpisodeMetrics
from repro.storage.simulator import StorageSystemConfig
from repro.storage.vector_state import VectorSimulatorState
from repro.storage.workload import WorkloadInterval, WorkloadTrace
from repro.utils.rng import PhiloxStreams

_NUM_LEVELS = len(LEVELS)
# Raw-row layout: [counts (3), utilisation (3), S (14), I (14), Q (1)].
_IQ_START = 2 * _NUM_LEVELS + NUM_IO_TYPES


@dataclass(frozen=True)
class VectorStepResult:
    """Outcome of one lockstep interval over the whole batch.

    ``stepped`` marks slots that actually advanced this call (episodes
    that were already finished are skipped and keep ``rewards`` of 0);
    ``newly_done`` marks slots that finished during this call.
    ``raw_observations`` is this step's own snapshot and keeps the final
    row frozen for finished slots; ``observations`` is its normalisation,
    computed on first read — the fleet driver never reads it (the broker
    normalises the raw rows itself), collectors and evaluators do.
    """

    raw_observations: np.ndarray   # (B, obs_dim)
    rewards: np.ndarray            # (B,)
    dones: np.ndarray              # (B,) bool
    stepped: np.ndarray            # (B,) bool
    newly_done: np.ndarray         # (B,) bool
    makespans: np.ndarray          # (B,) int, meaningful once done
    truncated: np.ndarray          # (B,) bool
    encoder: ObservationEncoder = field(repr=False, compare=False)

    @cached_property
    def observations(self) -> np.ndarray:
        """(B, obs_dim) normalised observations of this step."""
        return self.encoder.normalize_batch(self.raw_observations)


class VectorStorageAllocationEnv:
    """N storage-allocation MDPs advanced in lockstep with batched outputs.

    Typical usage::

        venv = VectorStorageAllocationEnv(config)
        observations = venv.reset(traces, rngs=episode_lanes(seeds, IDLE_DOMAIN))
        while not venv.all_done:
            result = venv.step(actions)          # (B,) ints
            observations = result.observations   # (B, obs_dim)
    """

    def __init__(
        self,
        system_config: Optional[StorageSystemConfig] = None,
        reward_config: Optional[RewardConfig] = None,
        record_metrics: bool = False,
    ) -> None:
        """``record_metrics`` keeps per-interval measurements for every
        slot (one column snapshot per step; ``EpisodeMetrics.intervals``
        builds the records on first read), as evaluation needs; rollout
        collection leaves it off — rewards are
        computed from the simulator core's per-step arrays either way,
        with identical values."""
        self.system_config = system_config or StorageSystemConfig()
        self.system_config.validate()
        self.reward_config = reward_config or RewardConfig()
        self.record_metrics = bool(record_metrics)
        self.action_space = ActionSpace()
        self.observation_encoder = ObservationEncoder(self.system_config)
        self._state = VectorSimulatorState(
            self.system_config, record_metrics=self.record_metrics
        )
        self._batch = 0
        self._makespans = np.zeros(0, dtype=int)
        self._raw = np.zeros((0, OBSERVATION_DIM))
        self._workload_features = np.zeros((0, 1, NUM_IO_TYPES + 1))

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def num_envs(self) -> int:
        return self._batch

    @property
    def all_done(self) -> bool:
        return bool(self._state.done.all()) if self._batch else False

    @property
    def dones(self) -> np.ndarray:
        return np.array(self._state.done)

    @property
    def simulator_state(self) -> VectorSimulatorState:
        """The underlying struct-of-arrays simulator core (read-only use)."""
        return self._state

    def episode_metrics(self) -> List[EpisodeMetrics]:
        """Per-slot episode metrics (complete once the slot is done)."""
        return list(self._state.episodes)

    # ------------------------------------------------------------------
    # Episode API
    # ------------------------------------------------------------------
    def reset(
        self,
        traces: Sequence[WorkloadTrace],
        rngs: Optional[PhiloxStreams] = None,
    ) -> np.ndarray:
        """Start one episode per trace; returns (B, obs_dim) normalised obs.

        ``rngs`` optionally supplies one Philox lane per slot; with
        ``episode_lanes(seeds, IDLE_DOMAIN)`` slot ``i`` reproduces a
        sequential ``env.reset(trace, rng=seeds[i])`` episode exactly.
        """
        if not traces:
            raise EnvironmentError_("reset() needs at least one trace")
        if rngs is not None and len(rngs) != len(traces):
            raise EnvironmentError_(
                f"got {len(rngs)} rng streams for {len(traces)} traces"
            )
        self._state.reset(traces, rngs=rngs)
        batch = len(traces)
        self._batch = batch
        self._makespans = np.zeros(batch, dtype=int)

        # Workload features per distinct trace and interval: [I (14), Q]
        # with one trailing "empty interval" row shared by the drain
        # phase, so the per-step observation update is a single clipped
        # gather through the state's slot -> trace index.
        state = self._state
        t_max = int(state.trace_len.max())
        features = np.zeros(
            (len(state.distinct_traces), t_max + 1, NUM_IO_TYPES + 1)
        )
        empty = WorkloadInterval.empty()
        features[:, :, :NUM_IO_TYPES] = empty.ratios
        features[:, :, NUM_IO_TYPES] = empty.total_requests
        for row, trace in enumerate(state.distinct_traces):
            for t, interval in enumerate(trace):
                features[row, t, :NUM_IO_TYPES] = interval.ratios
                features[row, t, NUM_IO_TYPES] = interval.total_requests
        self._workload_features = features

        raw = np.empty((batch, OBSERVATION_DIM))
        raw[:, :_NUM_LEVELS] = state.counts
        raw[:, _NUM_LEVELS : 2 * _NUM_LEVELS] = state.utilization
        raw[:, 2 * _NUM_LEVELS : _IQ_START] = empty.size_vector()
        raw[:, _IQ_START:] = features[state.trace_index, 0]
        self._raw = raw
        return self.observation_encoder.normalize_batch(raw)

    def step(self, actions: Sequence[int]) -> VectorStepResult:
        """Advance every unfinished episode by one interval under ``actions``."""
        if not self._batch:
            raise EnvironmentError_("step() called before reset()")
        state = self._state
        # Shape/range validation happens in state.step (shared with the
        # scalar simulator view); it surfaces as an environment error.
        try:
            stepped = state.step(actions)
        except SimulationError as exc:
            raise EnvironmentError_(str(exc)) from exc
        all_stepped = state.last_step_all_active
        ix = slice(None) if all_stepped else np.nonzero(stepped)[0]

        step_rewards = compute_step_rewards_batch(
            self.reward_config, state.capacity[ix], state.backlog[ix]
        )
        if all_stepped:
            rewards = step_rewards
        else:
            rewards = np.zeros(self._batch)
            rewards[ix] = step_rewards
        newly_done = stepped & state.done
        finished = np.nonzero(newly_done)[0]
        if finished.size:
            self._makespans[finished] = state.steps_taken[finished]
            rewards[finished] += compute_terminal_rewards_batch(
                self.reward_config, state.steps_taken[finished]
            )

        # Refresh the observation rows of the slots that moved; finished
        # slots keep their frozen rows.
        raw = self._raw
        raw[ix, :_NUM_LEVELS] = state.counts[ix]
        raw[ix, _NUM_LEVELS : 2 * _NUM_LEVELS] = state.utilization[ix]
        t = np.minimum(state.interval_index[ix], state.trace_len[ix])
        raw[ix, _IQ_START:] = self._workload_features[state.trace_index[ix], t]

        # The snapshot is freshly allocated this step and never mutated
        # afterwards, so it is handed out directly (and the result
        # normalises it on demand, whatever the environment does next).
        return VectorStepResult(
            raw_observations=np.array(raw),
            rewards=rewards,
            dones=np.array(state.done),
            stepped=stepped,
            newly_done=newly_done,
            makespans=np.array(self._makespans),
            truncated=np.array(state.truncated),
            encoder=self.observation_encoder,
        )

    # ------------------------------------------------------------------
    # Batched views
    # ------------------------------------------------------------------
    def observations(self) -> np.ndarray:
        """Current (B, obs_dim) normalised observation matrix."""
        self._require_reset()
        return self.observation_encoder.normalize_batch(self._raw)

    def raw_observations(self) -> np.ndarray:
        """Current (B, obs_dim) raw observation matrix."""
        self._require_reset()
        return np.array(self._raw)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _require_reset(self) -> None:
        if not self._batch:
            raise EnvironmentError_("vector environment has not been reset")
