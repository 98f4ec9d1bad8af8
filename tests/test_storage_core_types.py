"""Tests for IO types, levels, cores and migration actions."""

import numpy as np
import pytest

from repro.env.action import ActionSpace
from repro.errors import ConfigurationError, WorkloadError
from repro.storage.iorequest import NUM_IO_TYPES, IOKind, IORequestType, standard_io_types
from repro.storage.levels import LEVELS, Level
from repro.storage.migration import (
    NUM_ACTIONS,
    MigrationAction,
    action_from_levels,
    action_name,
    all_actions,
)
from repro.storage.simulator import StorageSystemConfig
from repro.storage.vector_state import VectorSimulatorState
from repro.storage.workload import WorkloadInterval, WorkloadTrace


class TestIORequestTypes:
    def test_there_are_fourteen(self):
        types = standard_io_types()
        assert len(types) == NUM_IO_TYPES == 14

    def test_half_reads_half_writes(self):
        types = standard_io_types()
        assert sum(t.is_read for t in types) == 7
        assert sum(t.is_write for t in types) == 7

    def test_indices_are_contiguous(self):
        assert [t.index for t in standard_io_types()] == list(range(14))

    def test_signed_size(self):
        read = IORequestType(0, 8.0, IOKind.READ)
        write = IORequestType(1, 8.0, IOKind.WRITE)
        assert read.signed_size == 8.0
        assert write.signed_size == -8.0

    def test_label(self):
        assert IORequestType(0, 64.0, IOKind.READ).label == "64K-read"

    def test_invalid_size(self):
        with pytest.raises(WorkloadError):
            IORequestType(0, 0.0, IOKind.READ)


class TestLevels:
    def test_canonical_order(self):
        assert LEVELS == (Level.NORMAL, Level.KV, Level.RV)

    def test_index(self):
        assert Level.NORMAL.index == 0
        assert Level.RV.index == 2


def _array_cores(allocation, cooldown_intervals=1, batch=1):
    """A ``VectorSimulatorState`` reset on a long uniform trace, no idling."""
    config = StorageSystemConfig(
        total_cores=sum(allocation.values()),
        initial_allocation=allocation,
        migration_cooldown_intervals=cooldown_intervals,
        idle_rate=0.0,
    )
    interval = WorkloadInterval(np.full(NUM_IO_TYPES, 1.0 / NUM_IO_TYPES), 5000.0)
    state = VectorSimulatorState(config)
    state.reset([WorkloadTrace("uniform", [interval] * 20)] * batch)
    return state


def _level_row(state, level, plane="ids", slot=0):
    """The ids (or cooldowns) of the cores at ``level``, in row order."""
    rows = state.pos_ids if plane == "ids" else state.pos_cooldown
    return rows[slot, level.index, : state.counts[slot, level.index]].tolist()


class TestCoreAndPool:
    """The simulator's cores as it holds them: per level, a row of core
    ids and a row of migration cooldowns in ``VectorSimulatorState``."""

    def test_create_counts(self):
        state = _array_cores({"NORMAL": 6, "KV": 3, "RV": 3})
        assert state.num_cores == 12
        assert state.counts.tolist() == [[6, 3, 3]]
        # Ids 0..N-1 ascending, level by level; no cooldowns; the rest of
        # every row is sentinel padding.
        assert _level_row(state, Level.NORMAL) == [0, 1, 2, 3, 4, 5]
        assert _level_row(state, Level.KV) == [6, 7, 8]
        assert _level_row(state, Level.RV) == [9, 10, 11]
        assert not state.pos_cooldown.any()
        assert (state.pos_ids[0, 1:, 3:] == state._id_sentinel).all()

    def test_create_rejects_below_minimum(self):
        config = StorageSystemConfig(
            total_cores=6, initial_allocation={"NORMAL": 5, "KV": 0, "RV": 1}
        )
        with pytest.raises(ConfigurationError, match="0 cores to KV"):
            VectorSimulatorState(config)

    def test_migrate_moves_one_core(self):
        state = _array_cores({"NORMAL": 4, "KV": 2, "RV": 2})
        state.step([int(MigrationAction.NORMAL_TO_KV)])
        assert state.counts.tolist() == [[3, 3, 2]]
        # The lowest-id core left NORMAL; the destination row stays
        # id-sorted with it inserted at the front.
        assert _level_row(state, Level.NORMAL) == [1, 2, 3]
        assert _level_row(state, Level.KV) == [0, 4, 5]
        state.step([int(MigrationAction.RV_TO_KV)])
        assert _level_row(state, Level.KV) == [0, 4, 5, 6]
        assert _level_row(state, Level.RV) == [7]

    def test_migrate_respects_minimum(self):
        state = _array_cores({"NORMAL": 2, "KV": 1, "RV": 1})
        before = state._pos_state.copy()
        state.step([int(MigrationAction.KV_TO_NORMAL)])
        assert state.counts.tolist() == [[2, 1, 1]]
        np.testing.assert_array_equal(state._pos_state, before)

    def test_migration_penalty_decays(self):
        # A migrated core is penalised in the interval it moves and for
        # ``migration_cooldown_intervals`` intervals after.
        full, penalised = 40_000.0, 40_000.0 * (1 - 0.2)
        for cooldown_intervals in (1, 2):
            state = _array_cores(
                {"NORMAL": 6, "KV": 3, "RV": 3}, cooldown_intervals=cooldown_intervals
            )
            kv_capacity = []
            for action in [int(MigrationAction.NORMAL_TO_KV)] + [0] * 3:
                state.step([action])
                kv_capacity.append(state.capacity[0, Level.KV.index])
            slow = 3 * full + penalised
            assert kv_capacity == [slow] * (cooldown_intervals + 1) + [4 * full] * (
                3 - cooldown_intervals
            )
            assert not state.pos_cooldown.any()

    def test_migrate_prefers_unpenalized_core(self):
        state = _array_cores({"NORMAL": 3, "KV": 1, "RV": 1}, cooldown_intervals=3)
        for action in (MigrationAction.NORMAL_TO_KV, MigrationAction.NORMAL_TO_KV):
            state.step([int(action)])
        assert _level_row(state, Level.KV) == [0, 1, 3]
        # Only core 3 is unpenalised at KV: it moves, although 0 and 1
        # have lower ids.
        state.step([int(MigrationAction.KV_TO_RV)])
        assert _level_row(state, Level.RV) == [3, 4]
        # Every core left at KV is penalised: the lowest id moves, and its
        # window restarts at the full length.
        assert _level_row(state, Level.KV, "cooldowns") == [1, 2]
        state.step([int(MigrationAction.KV_TO_NORMAL)])
        assert _level_row(state, Level.NORMAL) == [0, 2]
        assert _level_row(state, Level.NORMAL, "cooldowns") == [3, 0]
        assert _level_row(state, Level.KV) == [1]

    def test_clone_is_independent(self):
        # Each slot of a batch owns its rows, and a reset restores the
        # initial layout whatever the last episode did to it.
        state = _array_cores({"NORMAL": 3, "KV": 2, "RV": 2}, batch=2)
        initial = state._pos_state[:, 1].copy()
        state.step([int(MigrationAction.NORMAL_TO_KV), 0])
        assert state.counts.tolist() == [[2, 3, 2], [3, 2, 2]]
        np.testing.assert_array_equal(state._pos_state[:, 1], initial)
        state.reset(state.distinct_traces * 2)
        np.testing.assert_array_equal(state._pos_state[:, 0], initial)

    def test_can_migrate(self):
        # The action mask and the simulator agree on which migrations
        # happen: exactly those whose source level can spare a core.
        mask = ActionSpace().valid_mask_from_counts([3, 1, 2], 1)
        assert mask.tolist() == [True, True, True, False, False, True, True]
        for action in range(NUM_ACTIONS):
            state = _array_cores({"NORMAL": 3, "KV": 1, "RV": 2})
            state.step([action])
            assert (state.counts.tolist() != [[3, 1, 2]]) == (
                mask[action] and action != 0
            )


class TestMigrationActions:
    def test_seven_actions(self):
        assert NUM_ACTIONS == 7
        assert len(all_actions()) == 7

    def test_noop(self):
        assert MigrationAction.NOOP.is_noop
        assert MigrationAction.NOOP.source is None
        assert action_name(0) == "Noop"

    def test_source_destination_pairs_unique(self):
        pairs = {(a.source, a.destination) for a in all_actions() if not a.is_noop}
        assert len(pairs) == 6

    def test_short_names(self):
        assert MigrationAction.NORMAL_TO_RV.short_name == "N=>R"
        assert MigrationAction.KV_TO_NORMAL.short_name == "K=>N"

    def test_action_from_levels_roundtrip(self):
        for action in all_actions():
            assert action_from_levels(action.source, action.destination) is action

    def test_action_from_levels_invalid(self):
        with pytest.raises(ConfigurationError):
            action_from_levels(Level.KV, Level.KV)
