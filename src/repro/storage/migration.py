"""The seven-action migration space (paper Section 3.1).

Action ``a1`` is "no migration"; the remaining six actions move one core
between an ordered pair of distinct levels.
"""

from __future__ import annotations

import enum
from typing import List, Optional, Tuple

from repro.errors import ConfigurationError
from repro.storage.levels import Level


class MigrationAction(enum.IntEnum):
    """Discrete action identifiers in canonical order."""

    NOOP = 0
    NORMAL_TO_KV = 1
    NORMAL_TO_RV = 2
    KV_TO_NORMAL = 3
    KV_TO_RV = 4
    RV_TO_NORMAL = 5
    RV_TO_KV = 6

    @property
    def source(self) -> Optional[Level]:
        return _ACTION_PAIRS[self][0]

    @property
    def destination(self) -> Optional[Level]:
        return _ACTION_PAIRS[self][1]

    @property
    def is_noop(self) -> bool:
        return self is MigrationAction.NOOP

    @property
    def short_name(self) -> str:
        """Compact label matching the paper's figure notation (e.g. ``"N=>R"``)."""
        if self.is_noop:
            return "Noop"
        abbrev = {Level.NORMAL: "N", Level.KV: "K", Level.RV: "R"}
        return f"{abbrev[self.source]}=>{abbrev[self.destination]}"


_ACTION_PAIRS = {
    MigrationAction.NOOP: (None, None),
    MigrationAction.NORMAL_TO_KV: (Level.NORMAL, Level.KV),
    MigrationAction.NORMAL_TO_RV: (Level.NORMAL, Level.RV),
    MigrationAction.KV_TO_NORMAL: (Level.KV, Level.NORMAL),
    MigrationAction.KV_TO_RV: (Level.KV, Level.RV),
    MigrationAction.RV_TO_NORMAL: (Level.RV, Level.NORMAL),
    MigrationAction.RV_TO_KV: (Level.RV, Level.KV),
}

ACTION_NOOP = MigrationAction.NOOP
NUM_ACTIONS = len(MigrationAction)


def _level_index_table(position: int):
    import numpy as np

    from repro.storage.levels import LEVELS

    table = np.full(NUM_ACTIONS, -1, dtype=np.int64)
    for action, pair in _ACTION_PAIRS.items():
        level = pair[position]
        if level is not None:
            table[int(action)] = LEVELS.index(level)
    table.setflags(write=False)
    return table


#: Action index -> source/destination level index (-1 for the no-op).
#: Array form of :attr:`MigrationAction.source` / ``.destination`` used by
#: the vectorized simulator kernels to resolve whole action batches with
#: one fancy-indexing lookup instead of per-slot enum property access.
ACTION_SOURCE_INDICES = _level_index_table(0)
ACTION_DEST_INDICES = _level_index_table(1)


_ACTIONS_BY_INDEX: Tuple[MigrationAction, ...] = tuple(MigrationAction)


def all_actions() -> List[MigrationAction]:
    """All seven actions in canonical order."""
    return list(MigrationAction)


def action_from_index(value: int | MigrationAction) -> MigrationAction:
    """Index -> action lookup avoiding the enum-call overhead (hot path)."""
    if type(value) is int and 0 <= value < NUM_ACTIONS:
        return _ACTIONS_BY_INDEX[value]
    return MigrationAction(int(value))


def action_name(action: int | MigrationAction) -> str:
    """Short human-readable name of an action index."""
    return MigrationAction(int(action)).short_name


def action_from_levels(source: Optional[Level], destination: Optional[Level]) -> MigrationAction:
    """Map a (source, destination) level pair back to its action."""
    if source is None and destination is None:
        return MigrationAction.NOOP
    for action, (src, dst) in _ACTION_PAIRS.items():
        if src is source and dst is destination:
            return action
    raise ConfigurationError(f"no action migrates {source} -> {destination}")
