"""Greedy utilisation-gap controller (no cooldown, no threshold).

An aggressive variant of the handcrafted strategy used as an additional
baseline and in ablations: it migrates every interval towards the level
with the highest utilisation, which demonstrates why the experts added
a threshold and cooldown (migration penalties make unconditional
rebalancing counter-productive).
"""

from __future__ import annotations

import numpy as np

from repro.agents.base import Agent
from repro.env.observation import Observation
from repro.storage.levels import LEVELS
from repro.storage.migration import MigrationAction, action_from_levels


class GreedyUtilizationPolicy(Agent):
    """Always move a core from the least to the most utilised level."""

    name = "greedy_utilization"

    def __init__(self, min_cores_per_level: int = 1) -> None:
        self.min_cores_per_level = min_cores_per_level

    def act(self, observation: Observation) -> MigrationAction:
        utilization = np.asarray(observation.utilization, dtype=float)
        counts = np.asarray(observation.core_counts, dtype=float)
        order = np.argsort(utilization, kind="stable")
        highest = int(order[-1])
        for candidate in order:
            candidate = int(candidate)
            if candidate == highest:
                continue
            if counts[candidate] > self.min_cores_per_level:
                if utilization[highest] > utilization[candidate]:
                    return action_from_levels(LEVELS[candidate], LEVELS[highest])
                break
        return MigrationAction.NOOP
