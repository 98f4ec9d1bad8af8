"""Tests for IO types, levels, cores and migration actions."""

import pytest

from repro.errors import ConfigurationError, SimulationError, WorkloadError
from repro.storage.cores import Core, CorePool
from repro.storage.iorequest import NUM_IO_TYPES, IOKind, IORequestType, standard_io_types
from repro.storage.levels import LEVELS, Level
from repro.storage.migration import (
    NUM_ACTIONS,
    MigrationAction,
    action_from_levels,
    action_name,
    all_actions,
    parse_action,
)


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


class TestCoreAndPool:
    def test_create_counts(self):
        pool = CorePool.create({"NORMAL": 6, "KV": 3, "RV": 3})
        assert pool.total_cores == 12
        assert pool.counts_vector() == [6, 3, 3]

    def test_create_rejects_below_minimum(self):
        with pytest.raises(SimulationError):
            CorePool.create({"NORMAL": 5, "KV": 0, "RV": 1}, min_cores_per_level=1)

    def test_migrate_moves_one_core(self):
        pool = CorePool.create({"NORMAL": 4, "KV": 2, "RV": 2})
        core = pool.migrate_one(Level.NORMAL, Level.KV)
        assert core is not None and core.level is Level.KV
        assert pool.counts_vector() == [3, 3, 2]

    def test_migrate_respects_minimum(self):
        pool = CorePool.create({"NORMAL": 2, "KV": 1, "RV": 1}, min_cores_per_level=1)
        assert pool.migrate_one(Level.KV, Level.NORMAL) is None
        assert pool.counts_vector() == [2, 1, 1]

    def test_migration_penalty_decays(self):
        pool = CorePool.create({"NORMAL": 3, "KV": 2, "RV": 2})
        core = pool.migrate_one(Level.NORMAL, Level.RV, cooldown_intervals=2)
        assert core.is_penalized
        pool.tick()
        assert core.migration_cooldown == 1
        pool.tick()
        assert not core.is_penalized

    def test_migrate_prefers_unpenalized_core(self):
        pool = CorePool.create({"NORMAL": 3, "KV": 2, "RV": 2})
        first = pool.migrate_one(Level.NORMAL, Level.KV, cooldown_intervals=3)
        second = pool.migrate_one(Level.KV, Level.NORMAL, cooldown_intervals=3)
        assert second.core_id != first.core_id

    def test_core_migrate_to_same_level_raises(self):
        core = Core(core_id=0, level=Level.KV)
        with pytest.raises(SimulationError):
            core.migrate(Level.KV)

    def test_clone_is_independent(self):
        pool = CorePool.create({"NORMAL": 3, "KV": 2, "RV": 2})
        clone = pool.clone()
        pool.migrate_one(Level.NORMAL, Level.KV)
        assert clone.counts_vector() == [3, 2, 2]

    def test_can_migrate(self):
        pool = CorePool.create({"NORMAL": 3, "KV": 1, "RV": 2})
        assert pool.can_migrate(Level.NORMAL, Level.KV)
        assert not pool.can_migrate(Level.KV, Level.NORMAL)
        assert not pool.can_migrate(Level.KV, Level.KV)


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

    def test_parse_action(self):
        assert parse_action("N=>K") is MigrationAction.NORMAL_TO_KV
        assert parse_action(3) is MigrationAction.KV_TO_NORMAL
        assert parse_action("noop") is MigrationAction.NOOP
        with pytest.raises(ConfigurationError):
            parse_action("X=>Y")
