"""The storage-system simulator: core migration, IO processing and makespan.

One :class:`StorageSimulator` instance simulates a single episode: a
workload trace of ``T`` intervals is injected interval by interval, a
controller chooses one of the seven migration actions per interval, and
the episode ends once every injected kilobyte of IO work has been
processed.  The number of elapsed intervals is the makespan ``K``
(``K >= T``), the quantity all of the paper's experiments compare.

Work model
----------
For an interval's workload ``w(t)`` the demand placed on each level is

* NORMAL: every IO request's payload must be read from / written to the
  shared cache, so NORMAL receives the full ``total_kb`` of the interval.
* KV / RV: write requests always require key-value and resource-volume
  work (``kv_write_factor`` / ``rv_write_factor`` kilobytes of work per
  kilobyte of write payload); read requests only require KV/RV work when
  they miss the cache (probability ``cache_miss_rate``), weighted by
  ``kv_read_miss_factor`` / ``rv_read_miss_factor``.

Each level keeps a backlog of unfinished work; unfinished requests are
postponed to later intervals (paper Section 2, property 2).  Work inside
a level is assigned to cores by polling, which does not redistribute
work away from slow (penalised or idle) cores (the "Dispatch rule" of
:mod:`repro.storage.vector_state`).

Implementation note: the scalar simulator is the ``B=1`` view of the
struct-of-arrays :class:`~repro.storage.vector_state.VectorSimulatorState`
core — the same array kernels advance one episode here and a whole batch
inside the vectorized environment, which is what keeps sequential and
batched execution bit-identical by construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro.errors import ConfigurationError, SimulationError
from repro.storage.levels import LEVELS, Level
from repro.storage.metrics import EpisodeMetrics, IntervalMetrics
from repro.storage.migration import MigrationAction
from repro.storage.workload import WorkloadInterval, WorkloadTrace
from repro.utils.rng import IDLE_DOMAIN, SeedLike, episode_lanes, episode_seed


@dataclass
class StorageSystemConfig:
    """Static parameters of the simulated storage array.

    Defaults are chosen so that the standard workload profiles load the
    array to roughly 70–120 % of its aggregate capability, which is the
    regime in which core placement matters.
    """

    total_cores: int = 12
    initial_allocation: Dict[str, int] = field(
        default_factory=lambda: {"NORMAL": 6, "KV": 3, "RV": 3}
    )
    core_capability_kb: float = 40_000.0
    cache_miss_rate: float = 0.3
    migration_penalty: float = 0.2
    migration_cooldown_intervals: int = 1
    min_cores_per_level: int = 1
    idle_rate: float = 0.04
    kv_write_factor: float = 0.9
    rv_write_factor: float = 0.7
    kv_read_miss_factor: float = 0.5
    rv_read_miss_factor: float = 0.35
    max_intervals_factor: float = 12.0
    max_intervals_slack: int = 50

    def initial_counts(self) -> List[int]:
        """Per-level core counts of ``initial_allocation``, ``LEVELS`` order.

        Keys are :class:`Level` members or their names in any case; a
        level the allocation leaves out gets no cores.
        """
        counts = dict.fromkeys(LEVELS, 0)
        for key, count in self.initial_allocation.items():
            try:
                level = key if isinstance(key, Level) else Level(str(key).upper())
            except ValueError:
                raise ConfigurationError(
                    f"initial allocation names an unknown level {key!r}"
                ) from None
            counts[level] += int(count)
        return [counts[level] for level in LEVELS]

    def validate(self) -> None:
        if self.min_cores_per_level < 1:
            raise ConfigurationError(
                "min_cores_per_level must be >= 1: polling dispatch needs a core "
                "at every level"
            )
        counts = self.initial_counts()
        if sum(counts) != self.total_cores:
            raise ConfigurationError(
                f"initial allocation sums to {sum(counts)} but total_cores={self.total_cores}"
            )
        for level, count in zip(LEVELS, counts):
            if count < self.min_cores_per_level:
                raise ConfigurationError(
                    f"initial allocation gives {count} cores to {level.value}, "
                    f"but at least {self.min_cores_per_level} are required"
                )
        if self.core_capability_kb <= 0:
            raise ConfigurationError("core_capability_kb must be positive")
        if not 0.0 <= self.cache_miss_rate <= 1.0:
            raise ConfigurationError("cache_miss_rate must be in [0, 1]")
        if not 0.0 <= self.migration_penalty < 1.0:
            raise ConfigurationError("migration_penalty must be in [0, 1)")
        if self.migration_cooldown_intervals < 0:
            raise ConfigurationError("migration_cooldown_intervals must be >= 0")
        if self.idle_rate < 0:
            raise ConfigurationError("idle_rate must be non-negative")
        for name in (
            "kv_write_factor",
            "rv_write_factor",
            "kv_read_miss_factor",
            "rv_read_miss_factor",
        ):
            if getattr(self, name) < 0:
                raise ConfigurationError(f"{name} must be non-negative")
        if self.max_intervals_factor < 1.0:
            raise ConfigurationError("max_intervals_factor must be >= 1")
        if self.max_intervals_slack < 0:
            raise ConfigurationError("max_intervals_slack must be >= 0")

    def total_capability_kb(self) -> float:
        """Ideal maximum processing capability per interval (Definition 2)."""
        return self.total_cores * self.core_capability_kb


class StorageSimulator:
    """Simulates CPU-core migration in the multi-level storage system.

    This is the B=1 view over :class:`VectorSimulatorState`: all episode
    state lives in the shared array core, and ``step()`` advances it
    through the same kernels the vectorized environment uses.  ``reset``
    and ``step`` are the whole driving interface; its one driver is
    ``StorageAllocationEnv``.  Idle cores come from the Philox lane of
    the episode seed ``rng`` names (:func:`~repro.utils.rng.episode_seed`),
    the lane a lockstep slot with that seed draws from; a reset without
    ``rng`` continues it.
    """

    def __init__(self, config: Optional[StorageSystemConfig] = None, rng: SeedLike = None) -> None:
        from repro.storage.vector_state import VectorSimulatorState

        self.config = config or StorageSystemConfig()
        self.config.validate()
        self._streams = episode_lanes([episode_seed(rng)], IDLE_DOMAIN)
        self._state = VectorSimulatorState(self.config, record_metrics=True)
        self._trace: Optional[WorkloadTrace] = None

    # ------------------------------------------------------------------
    # Episode control
    # ------------------------------------------------------------------
    def reset(self, trace: WorkloadTrace, rng: SeedLike = None) -> None:
        """Start a new episode over ``trace``."""
        if rng is not None:
            self._streams = episode_lanes([episode_seed(rng)], IDLE_DOMAIN)
        self._state.reset([trace], rngs=self._streams)
        self._trace = trace

    @property
    def is_done(self) -> bool:
        """True once all injected work is processed (or the safety cap hit)."""
        if self._trace is None:
            return False
        return bool(self._state.done[0])

    @property
    def episode_metrics(self) -> EpisodeMetrics:
        self._require_episode()
        return self._state.episodes[0]

    @property
    def makespan(self) -> int:
        """Makespan so far (final value once :attr:`is_done`)."""
        self._require_episode()
        return int(self._state.steps_taken[0])

    def backlog_kb(self) -> Dict[Level, float]:
        self._require_episode()
        return dict(zip(LEVELS, self._state.backlog[0].tolist()))

    def utilization(self) -> Dict[Level, float]:
        self._require_episode()
        return dict(zip(LEVELS, self._state.utilization[0].tolist()))

    def core_counts(self) -> Dict[Level, int]:
        self._require_episode()
        return dict(zip(LEVELS, (int(c) for c in self._state.counts[0])))

    def core_counts_vector(self) -> np.ndarray:
        """Counts in canonical order (NORMAL, KV, RV) as an int array."""
        self._require_episode()
        return self._state.counts[0]

    def current_workload(self) -> WorkloadInterval:
        """The workload interval that will be injected by the next step."""
        self._require_episode()
        assert self._trace is not None
        index = int(self._state.interval_index[0])
        if index < len(self._trace):
            return self._trace[index]
        return WorkloadInterval.empty()

    def _require_episode(self) -> None:
        if self._trace is None:
            raise SimulationError("simulator has not been reset with a trace")

    # ------------------------------------------------------------------
    # Stepping
    # ------------------------------------------------------------------
    def step(self, action: MigrationAction | int) -> IntervalMetrics:
        """Advance the simulation by one time interval under ``action`` and
        return the interval's metrics record."""
        self._require_episode()
        if self.is_done:
            raise SimulationError("step() called on a finished episode")
        self._state.step(np.array([int(action)], dtype=np.int64))
        return self._state.episodes[0].intervals[-1]
