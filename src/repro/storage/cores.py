"""CPU cores and the pool that manages their residency and migrations."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.errors import SimulationError
from repro.storage.levels import LEVELS, Level


@dataclass
class Core:
    """One CPU core.

    Attributes
    ----------
    core_id:
        Stable identifier within the pool.
    level:
        Current residency level.
    migration_cooldown:
        Number of upcoming intervals in which this core still pays the
        migration performance penalty (paper Section 2, property 3).
    """

    core_id: int
    level: Level
    migration_cooldown: int = 0

    def tick(self) -> None:
        """Advance one interval: decay any remaining migration penalty."""
        if self.migration_cooldown > 0:
            self.migration_cooldown -= 1

    def migrate(self, destination: Level, cooldown_intervals: int = 1) -> None:
        """Move this core to ``destination`` and start the penalty window."""
        if destination is self.level:
            raise SimulationError(
                f"core {self.core_id} is already at level {self.level.value}"
            )
        self.level = destination
        self.migration_cooldown = max(self.migration_cooldown, cooldown_intervals)

    @property
    def is_penalized(self) -> bool:
        return self.migration_cooldown > 0


@dataclass
class CorePool:
    """The fixed set of ``N`` cores distributed over the three levels."""

    cores: List[Core] = field(default_factory=list)
    min_cores_per_level: int = 1

    def __post_init__(self) -> None:
        # Residency counts and the number of penalty-paying cores are
        # maintained incrementally (updated by migrate_one and tick, the
        # only pool-level mutations) — these queries sit on the
        # simulator's per-interval hot path.
        self._counts: Dict[Level, int] = {
            level: sum(1 for core in self.cores if core.level is level)
            for level in LEVELS
        }
        self._penalized_total = sum(1 for core in self.cores if core.is_penalized)

    @staticmethod
    def create(
        allocation: Dict[Level, int] | Dict[str, int],
        min_cores_per_level: int = 1,
    ) -> "CorePool":
        """Build a pool from an initial ``{level: count}`` allocation."""
        normalised: Dict[Level, int] = {}
        for key, count in allocation.items():
            level = key if isinstance(key, Level) else Level(str(key).upper())
            normalised[level] = int(count)
        for level in LEVELS:
            normalised.setdefault(level, 0)
            if normalised[level] < min_cores_per_level:
                raise SimulationError(
                    f"initial allocation gives {normalised[level]} cores to {level.value}, "
                    f"but at least {min_cores_per_level} are required"
                )
        cores: List[Core] = []
        core_id = 0
        for level in LEVELS:
            for _ in range(normalised[level]):
                cores.append(Core(core_id=core_id, level=level))
                core_id += 1
        return CorePool(cores=cores, min_cores_per_level=min_cores_per_level)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def total_cores(self) -> int:
        return len(self.cores)

    def cores_at(self, level: Level) -> List[Core]:
        return [core for core in self.cores if core.level is level]

    def count(self, level: Level) -> int:
        return self._counts[level]

    def counts(self) -> Dict[Level, int]:
        return dict(self._counts)

    def counts_vector(self) -> List[int]:
        """Counts in canonical order (NORMAL, KV, RV)."""
        return [self.count(level) for level in LEVELS]

    # ------------------------------------------------------------------
    # Mutations
    # ------------------------------------------------------------------
    def can_migrate(self, source: Level, destination: Level) -> bool:
        """Whether moving one core from ``source`` to ``destination`` is legal."""
        if source is destination:
            return False
        return self.count(source) > self.min_cores_per_level

    def migrate_one(
        self,
        source: Level,
        destination: Level,
        cooldown_intervals: int = 1,
    ) -> Optional[Core]:
        """Move one core from ``source`` to ``destination``.

        Returns the migrated core, or ``None`` when the migration is not
        legal (the simulator treats an illegal migration as a no-op, which
        matches how the production controller guards its actions).
        """
        if not self.can_migrate(source, destination):
            return None
        candidates = self.cores_at(source)
        # Prefer migrating a core that is not already paying a penalty so
        # repeated migrations do not stack on the same core.
        candidates.sort(key=lambda core: (core.is_penalized, core.core_id))
        core = candidates[0]
        was_penalized = core.is_penalized
        core.migrate(destination, cooldown_intervals)
        self._counts[source] -= 1
        self._counts[destination] += 1
        if not was_penalized and core.is_penalized:
            self._penalized_total += 1
        return core

    def tick(self) -> None:
        """Advance all cores by one interval (decays migration penalties)."""
        if self._penalized_total == 0:
            return
        for core in self.cores:
            if core.migration_cooldown > 0:
                core.migration_cooldown -= 1
                if core.migration_cooldown == 0:
                    self._penalized_total -= 1

    def clone(self) -> "CorePool":
        """Deep copy of the pool (used by environment reset snapshots)."""
        return CorePool(
            cores=[
                Core(core_id=c.core_id, level=c.level, migration_cooldown=c.migration_cooldown)
                for c in self.cores
            ],
            min_cores_per_level=self.min_cores_per_level,
        )

    # ------------------------------------------------------------------
    # Level-major form (fixed layout of the vectorized simulator core)
    # ------------------------------------------------------------------
    def to_level_major(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Export as ``(core_ids, cooldowns, counts)`` in level-major order.

        The level-major layout is the vectorized simulator's per-slot row
        format: positions ``[starts[l], starts[l] + counts[l])`` hold the
        cores at level ``l`` in ascending core-id order (``starts`` being
        the exclusive prefix sums of ``counts``).  Keeping cores grouped
        by level makes "the capacities of level ``l``'s cores, in
        :meth:`cores_at` order" a plain slice — no per-interval argsort —
        while the ascending-id invariant preserves the scalar pool's
        migration tie-breaking and idle-ranking order exactly.
        """
        core_ids: List[int] = []
        cooldowns: List[int] = []
        counts: List[int] = []
        for level in LEVELS:
            members = self.cores_at(level)
            counts.append(len(members))
            core_ids.extend(core.core_id for core in members)
            cooldowns.extend(core.migration_cooldown for core in members)
        return (
            np.array(core_ids, dtype=np.int64),
            np.array(cooldowns, dtype=np.int64),
            np.array(counts, dtype=np.int64),
        )

    @staticmethod
    def from_level_major(
        core_ids: np.ndarray,
        cooldowns: np.ndarray,
        counts: np.ndarray,
        min_cores_per_level: int = 1,
    ) -> "CorePool":
        """Materialise a pool from one slot of the level-major core state."""
        total = int(np.sum(counts))
        if total != len(core_ids) or total != len(cooldowns):
            raise SimulationError(
                f"level-major arrays disagree: counts sum to {total} but "
                f"{len(core_ids)} ids / {len(cooldowns)} cooldowns given"
            )
        levels_by_position = np.repeat(np.arange(len(LEVELS)), np.asarray(counts))
        cores: List[Optional[Core]] = [None] * total
        for position in range(total):
            core_id = int(core_ids[position])
            cores[core_id] = Core(
                core_id=core_id,
                level=LEVELS[int(levels_by_position[position])],
                migration_cooldown=int(cooldowns[position]),
            )
        if any(core is None for core in cores):
            raise SimulationError("level-major core ids are not a permutation")
        return CorePool(cores=cores, min_cores_per_level=min_cores_per_level)
