"""The domain experts' handcrafted FSM baseline.

Paper Section 4.3.2: "the principle of handcrafted FSM is migrating CPU
cores from the level with the lowest CPU utilization rate to the one
with the highest CPU utilization rate."  The expert controller also has
guard rails a production strategy needs: it only migrates when the
utilisation gap is meaningful, it respects the minimum core count per
level, and it enforces a hold-off after each migration so it does not
thrash (these correspond to the "sanity checks" the paper says white-box
strategies must pass).
"""

from __future__ import annotations

import numpy as np

from repro.agents.base import Agent
from repro.env.observation import Observation
from repro.errors import ConfigurationError
from repro.storage.levels import LEVELS
from repro.storage.migration import MigrationAction, action_from_levels


class HandcraftedFSMPolicy(Agent):
    """Two-state expert FSM: Stable <-> Rebalance.

    * **Stable** — utilisation is balanced (max-min gap below
      ``gap_threshold``) or a recent migration is still settling; emit
      no-op.
    * **Rebalance** — the gap is large; migrate one core from the
      lowest-utilisation level to the highest-utilisation level, then
      hold off for ``cooldown`` intervals.
    """

    name = "handcrafted_fsm"

    def __init__(
        self,
        gap_threshold: float = 0.15,
        cooldown: int = 2,
        min_cores_per_level: int = 1,
    ) -> None:
        if not 0.0 <= gap_threshold <= 1.0:
            raise ConfigurationError(
                f"gap_threshold must be in [0, 1], got {gap_threshold}"
            )
        if cooldown < 0:
            raise ConfigurationError(f"cooldown must be non-negative, got {cooldown}")
        if min_cores_per_level < 0:
            raise ConfigurationError(
                f"min_cores_per_level must be non-negative, got {min_cores_per_level}"
            )
        self.gap_threshold = gap_threshold
        self.cooldown = cooldown
        self.min_cores_per_level = min_cores_per_level
        self._remaining_cooldown = 0

    def reset(self) -> None:
        self._remaining_cooldown = 0

    def act(self, observation: Observation) -> MigrationAction:
        if self._remaining_cooldown > 0:
            self._remaining_cooldown -= 1
            return MigrationAction.NOOP

        utilization = np.asarray(observation.utilization, dtype=float)
        counts = np.asarray(observation.core_counts, dtype=float)
        order = np.argsort(utilization, kind="stable")
        lowest, highest = int(order[0]), int(order[-1])
        gap = float(utilization[highest] - utilization[lowest])
        if lowest == highest or gap < self.gap_threshold:
            return MigrationAction.NOOP
        # Respect the minimum-cores constraint: find the least-utilised
        # level that can still give up a core.
        source_index = None
        for candidate in order:
            if int(counts[candidate]) > self.min_cores_per_level and int(candidate) != highest:
                source_index = int(candidate)
                break
        if source_index is None:
            return MigrationAction.NOOP
        if utilization[highest] - utilization[source_index] < self.gap_threshold:
            return MigrationAction.NOOP

        self._remaining_cooldown = self.cooldown
        return action_from_levels(LEVELS[source_index], LEVELS[highest])
