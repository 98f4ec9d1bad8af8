"""Discrete action space of the environment (the 7 migration actions)."""

from __future__ import annotations

from typing import List

import numpy as np

from repro.storage.migration import NUM_ACTIONS, MigrationAction, all_actions


class ActionSpace:
    """The seven-action migration space with validity masking.

    The paper's action space A = {a_1, ..., a_7}: no-op plus the six
    directed single-core migrations.  ``valid_mask_from_counts`` marks
    actions that would violate the minimum-cores-per-level constraint;
    the simulator treats such actions as no-ops, but agents can use the
    mask to avoid wasting decisions on them.
    """

    def __init__(self) -> None:
        self.actions: List[MigrationAction] = all_actions()
        # Action index -> source level for the six migrations (mask
        # legality only depends on whether the source can spare a core).
        self._migration_actions = [a for a in self.actions if not a.is_noop]
        self._migration_indices = np.array([int(a) for a in self._migration_actions])
        self._migration_sources = [a.source for a in self._migration_actions]
        self._source_level_columns = np.array([s.index for s in self._migration_sources])

    def valid_mask_from_counts(self, counts, min_cores_per_level: int) -> np.ndarray:
        """Legality mask from a 3-vector of per-level core counts.

        ``counts`` is one row of the simulator's ``counts`` array; a
        migration is legal iff its source level can spare a core.
        """
        mask = np.ones(NUM_ACTIONS, dtype=bool)
        counts = np.asarray(counts)
        mask[self._migration_indices] = (
            counts[self._source_level_columns] > min_cores_per_level
        )
        return mask
