"""Telemetry must be provably inert.

The instrumentation added in PR 10 (metrics registry + span tracing
through the evaluation engine, rollout collector, serving broker and
fleet driver) observes the hot paths — it may never *perturb* them.
These differential tests run the same seeded workload twice, once with
telemetry fully enabled (default) and once with it disabled via
``telemetry.configure(enabled=False)``, and pin bit-identical outputs:

* the golden-trace ``compare_agents`` evaluation (makespans, rewards,
  migrations — the same numbers ``test_golden_traces.py`` pins),
* a tiny ``SweepRunner`` sweep's per-job content digests,
* a small fleet run's ``LoadReport.deterministic_json()``.

Each stack is constructed *inside* its mode, because components resolve
their instruments at construction time.  The enabled leg additionally
asserts that instrumentation actually fired (non-empty registry), so a
regression that silently disables telemetry cannot pass as "inert".
"""

from __future__ import annotations

import pytest

from repro import telemetry
from repro.agents.default import DefaultPolicy
from repro.agents.greedy import GreedyUtilizationPolicy
from repro.pipeline.evaluation import compare_agents
from repro.pipeline.sweep import SweepRunner, SweepSpec
from repro.utils.serialization import load_json


@pytest.fixture(autouse=True)
def restore_telemetry_defaults():
    """Every test here flips the process defaults; always restore them."""
    yield
    telemetry.configure(enabled=True)


def _set_mode(enabled: bool) -> None:
    telemetry.configure(enabled=enabled)
    assert telemetry.registry().enabled is enabled


# ----------------------------------------------------------------------
# Golden-trace evaluation
# ----------------------------------------------------------------------
def _evaluation_fingerprint(system_config, real_traces):
    agents = [DefaultPolicy(), GreedyUtilizationPolicy()]
    comparison = compare_agents(
        agents, real_traces, system_config=system_config, episode_seed=0
    )
    return {
        name: {
            "makespans": result.makespans,
            "total_rewards": result.total_rewards,
            "migrations": [e.migrations for e in result.episodes],
        }
        for name, result in comparison.items()
    }


class TestEvaluationInertness:
    def test_golden_evaluation_identical_with_and_without_telemetry(
        self, system_config, real_traces
    ):
        _set_mode(True)
        enabled = _evaluation_fingerprint(system_config, real_traces)
        # The enabled leg must have actually exercised the instruments,
        # otherwise this differential proves nothing.
        registry = telemetry.registry()
        assert registry.value("engine_eval_runs_total") >= 2
        assert registry.value("engine_eval_steps_total") > 0
        assert any(
            record["name"] == "engine.evaluate"
            for record in telemetry.tracer().records()
        )

        _set_mode(False)
        disabled = _evaluation_fingerprint(system_config, real_traces)
        # Disabled mode records nothing at all.
        assert telemetry.registry().names() == []
        assert telemetry.tracer().records() == []

        assert enabled == disabled
        # Anchor to the repo-wide golden pins: inert under BOTH modes.
        assert enabled["default"]["makespans"] == [35, 32, 27, 27]


# ----------------------------------------------------------------------
# Sweep digests
# ----------------------------------------------------------------------
def _sweep_digests(output_dir, base):
    spec = SweepSpec(name="inertness", base=base, seeds=[0])
    result = SweepRunner(spec, output_dir=output_dir, num_workers=1).run()
    assert not result.failures
    return {record["name"]: record["digest"] for record in result.records}


class TestSweepInertness:
    def test_sweep_digests_identical_with_and_without_telemetry(
        self, tmp_path, tiny_sweep_base
    ):
        _set_mode(True)
        enabled = _sweep_digests(tmp_path / "enabled", tiny_sweep_base)
        _set_mode(False)
        disabled = _sweep_digests(tmp_path / "disabled", tiny_sweep_base)

        assert enabled == disabled
        # Beyond the digest map: the result payloads on disk only differ
        # in wall-clock timing fields, never in measured metrics.
        enabled_jobs = sorted((tmp_path / "enabled" / "jobs").glob("*.json"))
        disabled_jobs = sorted((tmp_path / "disabled" / "jobs").glob("*.json"))
        assert [f.name for f in enabled_jobs] == [f.name for f in disabled_jobs]
        for file_a, file_b in zip(enabled_jobs, disabled_jobs):
            record_a, record_b = load_json(file_a), load_json(file_b)
            assert record_a["digest"] == record_b["digest"], file_a.name


# ----------------------------------------------------------------------
# Fleet load report
# ----------------------------------------------------------------------
def _fleet_deterministic_json():
    # Imported lazily so the serving/loadgen stack is built strictly
    # inside the telemetry mode under test.
    import numpy as np

    from repro.env.environment import StorageAllocationEnv
    from repro.env.reward import RewardConfig
    from repro.loadgen import FleetDriver, FleetSchedule, InProcessTransport, LoadPhase
    from repro.engine import CompiledFSMBackend
    from repro.serving import PolicyServer
    from repro.storage.migration import NUM_ACTIONS, MigrationAction
    from repro.storage.simulator import StorageSystemConfig
    from repro.workloads.generator import GeneratorConfig, StandardWorkloadGenerator

    from conftest import random_compiled_fsm

    env = StorageAllocationEnv(
        StorageSystemConfig(), reward_config=RewardConfig(mode="per_step_penalty"), rng=0
    )
    generator = StandardWorkloadGenerator(env.system_config, GeneratorConfig(), rng=0)
    trace = generator.generate("web_server", duration=16)
    rng = np.random.default_rng(9)
    observation = env.reset(trace)
    rows = []
    while True:
        rows.append(observation.raw())
        result = env.step(MigrationAction(int(rng.integers(NUM_ACTIONS))))
        observation = result.observation
        if result.done:
            break
    compiled = random_compiled_fsm(env.observation_encoder, np.array(rows))

    server = PolicyServer(
        CompiledFSMBackend(compiled),
        env.observation_encoder,
        initial_capacity=128,
        max_batch_size=64,
    )
    schedule = FleetSchedule(
        sessions=32,
        shard_size=16,
        trace_duration=8,
        trace_variants=2,
        phases=[
            LoadPhase(name="warmup", steps=1),
            LoadPhase(name="churn", steps=2, churn_rate=0.2, stale_probes_per_step=2),
        ],
    )
    report = FleetDriver(schedule, InProcessTransport(server), base_seed=42).run()
    return report.deterministic_json()


class TestFleetInertness:
    def test_fleet_report_identical_with_and_without_telemetry(self):
        _set_mode(True)
        enabled = _fleet_deterministic_json()
        assert telemetry.registry().value(
            "serving_decisions_total"
        ) > 0
        assert any(
            record["name"] == "fleet.phase"
            for record in telemetry.tracer().records()
        )

        _set_mode(False)
        disabled = _fleet_deterministic_json()
        assert telemetry.registry().names() == []

        assert enabled == disabled
