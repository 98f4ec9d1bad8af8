"""Tests for the storage simulator: polling dispatch, stepping, invariants, makespan."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ConfigurationError, SimulationError
from repro.storage.levels import LEVELS, Level
from repro.storage.migration import MigrationAction
from repro.storage.simulator import StorageSimulator, StorageSystemConfig
from repro.storage.vector_state import VectorSimulatorState
from repro.storage.workload import WorkloadInterval, WorkloadTrace
from repro.storage.iorequest import NUM_IO_TYPES
from repro.utils.rng import IDLE_DOMAIN, episode_lanes


def _trace(intervals=5, requests=5000.0, write_heavy=False, name="test-trace"):
    ratios = np.zeros(NUM_IO_TYPES)
    if write_heavy:
        ratios[7:] = 1.0 / 7
    else:
        ratios[:] = 1.0 / NUM_IO_TYPES
    return WorkloadTrace(name, [WorkloadInterval(ratios, requests) for _ in range(intervals)])


def _run(sim, trace, policy, rng):
    """One episode from ``reset``, stepping ``policy(sim)``: its metrics."""
    sim.reset(trace, rng=rng)
    while not sim.is_done:
        sim.step(policy(sim))
    return sim.episode_metrics


def _dispatch_normal(pending_kb, cooldowns=(0, 0), idle=0, cores=2):
    """One interval of polling dispatch on a NORMAL level of ``cores``
    cores (40 000 kB each, 32 000 while penalised), through the reference
    dispatch loop: ``(processed, backlog, capacity, utilization)``."""
    config = StorageSystemConfig(
        total_cores=4, initial_allocation={"NORMAL": 2, "KV": 1, "RV": 1}
    )
    state = VectorSimulatorState(config)
    state.reset([_trace(intervals=1)], rngs=episode_lanes([0], IDLE_DOMAIN))
    state.counts[0, 0] = cores
    state.backlog[0, 0] = pending_kb
    state.pos_cooldown[0, 0, :cores] = cooldowns
    state.idle[0, 0] = idle
    state._process_intervals_reference(np.arange(1))
    return tuple(
        float(column[0, 0])
        for column in (state.processed, state.backlog, state.capacity, state.utilization)
    )


class TestDispatchers:
    """The paper's polling rule: an even split, no work stealing."""

    def test_polling_even_split(self):
        processed, backlog, _capacity, _ = _dispatch_normal(80_000.0)
        assert processed == 80_000.0
        assert backlog == 0.0

    def test_polling_no_work_stealing(self):
        # The penalised core keeps its 35 000 kB share though the fast
        # core has 5 000 kB spare and the level could process it all.
        processed, backlog, capacity, _ = _dispatch_normal(70_000.0, cooldowns=(1, 0))
        assert capacity == 72_000.0
        assert processed == pytest.approx(67_000.0)
        assert backlog == pytest.approx(3_000.0)

    def test_utilization_bounds(self):
        processed, _backlog, capacity, utilization = _dispatch_normal(1e9)
        assert processed == capacity
        assert utilization == 1.0

    def test_zero_capacity_core(self):
        # An idle core's share waits for the next interval.
        processed, backlog, capacity, utilization = _dispatch_normal(10.0, idle=1)
        assert capacity == 40_000.0
        assert processed == backlog == 5.0
        assert 0.0 < utilization < 1.0

    def test_validation(self):
        with pytest.raises(SimulationError, match="at least one core"):
            _dispatch_normal(1.0, cooldowns=(), cores=0)


class TestConfigValidation:
    def test_default_is_valid(self):
        StorageSystemConfig().validate()

    def test_allocation_must_sum(self):
        cfg = StorageSystemConfig(total_cores=10)
        with pytest.raises(ConfigurationError):
            cfg.validate()

    def test_invalid_miss_rate(self):
        cfg = StorageSystemConfig(cache_miss_rate=1.5)
        with pytest.raises(ConfigurationError):
            cfg.validate()

    def test_invalid_penalty(self):
        with pytest.raises(ConfigurationError):
            StorageSystemConfig(migration_penalty=1.0).validate()

    def test_allocation_keys_are_levels_or_names_in_any_case(self):
        cfg = StorageSystemConfig(initial_allocation={"kv": 3, Level.NORMAL: 6, "Rv": 3})
        cfg.validate()
        assert cfg.initial_counts() == [6, 3, 3]

    def test_unknown_level_refused(self):
        cfg = StorageSystemConfig(initial_allocation={"NORMAL": 6, "KV": 3, "SSD": 3})
        with pytest.raises(ConfigurationError, match="unknown level 'SSD'"):
            cfg.validate()

    def test_allocation_below_minimum_refused(self):
        cfg = StorageSystemConfig(
            initial_allocation={"NORMAL": 8, "KV": 3, "RV": 1}, min_cores_per_level=2
        )
        with pytest.raises(ConfigurationError, match="1 cores to RV"):
            cfg.validate()

    @pytest.mark.parametrize(
        "allocation", [{"NORMAL": 10, "KV": 1, "RV": 1}, {"NORMAL": 12, "KV": 0, "RV": 0}]
    )
    def test_min_cores_per_level_below_one_refused(self, allocation):
        # Polling dispatch cannot run a level without cores.
        cfg = StorageSystemConfig(initial_allocation=allocation, min_cores_per_level=0)
        with pytest.raises(ConfigurationError, match="min_cores_per_level"):
            cfg.validate()

    def test_negative_max_intervals_slack_refused(self):
        # -1000 made max_intervals negative: every episode truncated at once.
        with pytest.raises(ConfigurationError, match="max_intervals_slack"):
            StorageSystemConfig(max_intervals_slack=-1000).validate()

    def test_total_capability(self):
        cfg = StorageSystemConfig()
        assert cfg.total_capability_kb() == cfg.total_cores * cfg.core_capability_kb


class TestSimulatorLifecycle:
    def test_requires_reset(self):
        sim = StorageSimulator(rng=0)
        with pytest.raises(SimulationError):
            sim.step(0)
        with pytest.raises(SimulationError):
            sim.core_counts()

    def test_empty_trace_rejected(self):
        sim = StorageSimulator(rng=0)
        with pytest.raises(SimulationError):
            sim.reset(WorkloadTrace("empty", []))

    def test_step_after_done_raises(self):
        sim = StorageSimulator(rng=0)
        sim.reset(_trace(1, requests=1.0), rng=0)
        while not sim.is_done:
            sim.step(0)
        with pytest.raises(SimulationError):
            sim.step(0)

    def test_reset_restores_state(self):
        sim = StorageSimulator(rng=0)
        trace = _trace(3)
        _run(sim, trace, lambda s: MigrationAction.NOOP, rng=1)
        first = sim.makespan
        sim.reset(trace, rng=1)
        assert sim.makespan == 0
        assert all(v == 0.0 for v in sim.backlog_kb().values())
        sim2 = StorageSimulator(rng=0)
        _run(sim2, trace, lambda s: MigrationAction.NOOP, rng=1)
        assert sim2.makespan == first


class TestSimulatorInvariants:
    def test_makespan_at_least_trace_length(self):
        sim = StorageSimulator(rng=0)
        metrics = _run(sim, _trace(6), lambda s: MigrationAction.NOOP, rng=0)
        assert metrics.makespan >= 6

    def test_core_count_conserved(self):
        cfg = StorageSystemConfig()
        sim = StorageSimulator(cfg, rng=0)
        sim.reset(_trace(10), rng=0)
        actions = [1, 2, 3, 4, 5, 6, 0, 1, 2, 3]
        for action in actions:
            if sim.is_done:
                break
            metrics = sim.step(action)
            assert sum(metrics.core_counts.values()) == cfg.total_cores
            assert all(
                count >= cfg.min_cores_per_level for count in metrics.core_counts.values()
            )

    def test_all_work_processed_when_done(self):
        sim = StorageSimulator(rng=0)
        trace = _trace(5)
        metrics = _run(sim, trace, lambda s: MigrationAction.NOOP, rng=0)
        assert not metrics.truncated
        assert sim.is_done
        assert all(v <= 1e-9 for v in sim.backlog_kb().values())
        # NORMAL processes exactly the injected payload.
        processed_normal = sum(m.processed_kb[Level.NORMAL] for m in metrics.intervals)
        assert processed_normal == pytest.approx(trace.total_kb(), rel=1e-9)

    def test_utilization_bounds(self):
        sim = StorageSimulator(rng=0)
        metrics = _run(sim, _trace(5), lambda s: MigrationAction.NOOP, rng=0)
        for interval in metrics.intervals:
            for level in LEVELS:
                assert 0.0 <= interval.utilization[level] <= 1.0

    def test_write_heavy_loads_kv_rv(self):
        incoming = {}
        for write_heavy in (True, False):
            sim = StorageSimulator(rng=0)
            sim.reset(_trace(1, write_heavy=write_heavy), rng=0)
            incoming[write_heavy] = sim.step(MigrationAction.NOOP).incoming_kb
        assert incoming[True][Level.KV] > incoming[False][Level.KV]
        assert incoming[True][Level.RV] > incoming[False][Level.RV]

    def test_migration_action_changes_counts(self):
        sim = StorageSimulator(rng=0)
        sim.reset(_trace(5), rng=0)
        before = sim.core_counts()
        metrics = sim.step(MigrationAction.NORMAL_TO_KV)
        assert metrics.migration_applied
        assert metrics.core_counts[Level.NORMAL] == before[Level.NORMAL] - 1
        assert metrics.core_counts[Level.KV] == before[Level.KV] + 1

    def test_illegal_migration_is_noop(self):
        cfg = StorageSystemConfig(
            total_cores=4, initial_allocation={"NORMAL": 2, "KV": 1, "RV": 1}
        )
        sim = StorageSimulator(cfg, rng=0)
        sim.reset(_trace(3, requests=10.0), rng=0)
        metrics = sim.step(MigrationAction.KV_TO_NORMAL)
        assert not metrics.migration_applied
        assert metrics.core_counts[Level.KV] == 1

    def test_migration_penalty_reduces_capacity(self):
        cfg = StorageSystemConfig(idle_rate=0.0, migration_penalty=0.5)
        sim = StorageSimulator(cfg, rng=0)
        sim.reset(_trace(3), rng=0)
        noop_metrics = sim.step(MigrationAction.NOOP)
        migrate_metrics = sim.step(MigrationAction.RV_TO_KV)
        # The KV level now holds a penalised core, so its capacity is lower
        # than (count * capability).
        expected_full = migrate_metrics.core_counts[Level.KV] * cfg.core_capability_kb
        assert migrate_metrics.capacity_kb[Level.KV] < expected_full
        assert noop_metrics.capacity_kb[Level.NORMAL] == pytest.approx(
            noop_metrics.core_counts[Level.NORMAL] * cfg.core_capability_kb
        )

    def test_overload_truncates(self):
        cfg = StorageSystemConfig(max_intervals_factor=2.0, max_intervals_slack=0)
        sim = StorageSimulator(cfg, rng=0)
        metrics = _run(sim, _trace(3, requests=1e7), lambda s: MigrationAction.NOOP, rng=0)
        assert metrics.truncated
        assert sim.is_done

    def test_deterministic_given_seed(self):
        trace = _trace(6)
        results = []
        for _ in range(2):
            sim = StorageSimulator(rng=5)
            metrics = _run(sim, trace, lambda s: MigrationAction.NOOP, rng=5)
            results.append([sum(m.processed_kb.values()) for m in metrics.intervals])
        np.testing.assert_allclose(results[0], results[1])

    def test_zero_idle_rate_removes_idling(self):
        cfg = StorageSystemConfig(idle_rate=0.0)
        sim = StorageSimulator(cfg, rng=0)
        metrics = _run(sim, _trace(4), lambda s: MigrationAction.NOOP, rng=0)
        for interval in metrics.intervals:
            assert all(v == 0 for v in interval.idle_cores.values())

    @given(st.integers(1, 8), st.floats(100.0, 20000.0))
    @settings(max_examples=15, deadline=None)
    def test_property_makespan_bounds(self, intervals, requests):
        sim = StorageSimulator(StorageSystemConfig(idle_rate=0.0), rng=0)
        metrics = _run(sim, _trace(intervals, requests=requests), lambda s: 0, rng=0)
        assert metrics.makespan >= intervals
        assert not metrics.truncated

    @given(st.lists(st.integers(0, 6), min_size=3, max_size=12))
    @settings(max_examples=15, deadline=None)
    def test_property_any_action_sequence_conserves_cores(self, actions):
        cfg = StorageSystemConfig()
        sim = StorageSimulator(cfg, rng=1)
        sim.reset(_trace(len(actions)), rng=1)
        for action in actions:
            if sim.is_done:
                break
            metrics = sim.step(action)
            assert sum(metrics.core_counts.values()) == cfg.total_cores


class TestEpisodeMetrics:
    def test_summary_and_histogram(self):
        sim = StorageSimulator(rng=0)
        metrics = _run(
            sim, _trace(4), lambda s: MigrationAction.NORMAL_TO_KV if s.makespan == 0 else 0, rng=0
        )
        histogram = metrics.action_histogram()
        assert histogram.get("N=>K", 0) == 1
        assert len(metrics.intervals) == metrics.makespan
        assert 0.0 <= metrics.mean_utilization()[Level.NORMAL] <= 1.0
        assert metrics.migrations == 1
