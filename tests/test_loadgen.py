"""Tests for the fleet-scale sim-to-serve load harness."""

from __future__ import annotations

import asyncio
import contextlib
import json
import os
import shutil
import tempfile

import numpy as np
import pytest

from repro.agents import HandcraftedFSMPolicy
from repro.env.environment import StorageAllocationEnv
from repro.env.reward import RewardConfig
from repro.errors import ConfigurationError, ServingError
from repro.loadgen import (
    FleetDriver,
    FleetSchedule,
    InProcessTransport,
    LoadPhase,
    SocketTransport,
)
from repro.engine import AgentBatchBackend, CompiledFSMBackend
from repro.serving import PolicyClient, PolicyNetServer, PolicyServer
from repro.storage.migration import NUM_ACTIONS, MigrationAction
from repro.storage.simulator import StorageSystemConfig
from repro.utils.rng import PhiloxStreams
from repro.workloads import ZipfianTenantMix
from repro.workloads.generator import GeneratorConfig, StandardWorkloadGenerator
from conftest import kernels_off, random_compiled_fsm


# ----------------------------------------------------------------------
# Shared small artefacts (mirrors test_netserver.py's handmade machine)
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def serving_env():
    return StorageAllocationEnv(
        StorageSystemConfig(), reward_config=RewardConfig(mode="per_step_penalty"), rng=0
    )


@pytest.fixture(scope="module")
def observation_stream(serving_env):
    generator = StandardWorkloadGenerator(
        serving_env.system_config, GeneratorConfig(), rng=0
    )
    trace = generator.generate("web_server", duration=24)
    rng = np.random.default_rng(9)
    observation = serving_env.reset(trace)
    rows = []
    while True:
        rows.append(observation.raw())
        result = serving_env.step(MigrationAction(int(rng.integers(NUM_ACTIONS))))
        observation = result.observation
        if result.done:
            break
    return np.array(rows)


@pytest.fixture(scope="module")
def compiled_policy(serving_env, observation_stream):
    return random_compiled_fsm(serving_env.observation_encoder, observation_stream)


def _make_server(compiled_policy, serving_env, capacity: int = 256) -> PolicyServer:
    return PolicyServer(
        CompiledFSMBackend(compiled_policy),
        serving_env.observation_encoder,
        initial_capacity=capacity,
        max_batch_size=128,
    )


def _small_schedule(**overrides) -> FleetSchedule:
    base = dict(
        sessions=48,
        shard_size=16,
        trace_duration=8,
        trace_variants=2,
        phases=[
            LoadPhase(name="warmup", steps=1),
            LoadPhase(name="churn", steps=2, churn_rate=0.2, stale_probes_per_step=2),
            LoadPhase(
                name="flash_crowd",
                steps=2,
                burst_multiplier=2,
                burst_tenant_fraction=0.25,
            ),
        ],
    )
    base.update(overrides)
    return FleetSchedule(**base)


# ----------------------------------------------------------------------
# Tenant mix
# ----------------------------------------------------------------------
class TestZipfianTenantMix:
    @staticmethod
    def _shares(mix, count=100_000):
        """Share of each profile index over an even grid of draws in [0, 1)."""
        grid = (np.arange(count) + 0.5) / count
        return np.bincount(mix.assign_indices(grid), minlength=len(mix.profiles)) / count

    def test_weights_are_normalised_and_rank_ordered(self):
        mix = ZipfianTenantMix(["a", "b", "c", "d"], skew=1.2)
        weights = np.arange(1, 5, dtype=float) ** -1.2
        shares = self._shares(mix)
        np.testing.assert_allclose(shares, weights / weights.sum(), atol=1e-4)
        assert shares[0] > shares[1] > shares[2] > shares[3]

    def test_zero_skew_is_uniform(self):
        mix = ZipfianTenantMix(["a", "b", "c"], skew=0.0)
        np.testing.assert_allclose(self._shares(mix), [1 / 3] * 3, atol=1e-4)

    def test_assignment_is_inverse_cdf(self):
        mix = ZipfianTenantMix(["a", "b"], skew=0.0)  # cdf = [0.5, 1.0]
        assert mix.assign_indices(np.array([0.0, 0.49, 0.5, 0.999])).tolist() == [0, 0, 1, 1]

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            ZipfianTenantMix([])
        with pytest.raises(ConfigurationError):
            ZipfianTenantMix(["a", "a"])
        with pytest.raises(ConfigurationError):
            ZipfianTenantMix(["a"], skew=-1.0)
        with pytest.raises(ConfigurationError):
            ZipfianTenantMix(["a", "b"]).assign_indices(np.array([1.0]))


# ----------------------------------------------------------------------
# Schedule
# ----------------------------------------------------------------------
class TestFleetSchedule:
    def test_roundtrip_and_digest(self):
        schedule = _small_schedule()
        payload = schedule.as_dict()
        clone = FleetSchedule(
            **{**payload, "phases": [LoadPhase(**phase) for phase in payload["phases"]]}
        )
        assert clone.as_dict() == schedule.as_dict()
        assert clone.digest() == schedule.digest()
        different = _small_schedule(sessions=49)
        assert different.digest() != schedule.digest()

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            _small_schedule(sessions=0).validate()
        with pytest.raises(ConfigurationError):
            _small_schedule(phases=[]).validate()
        with pytest.raises(ConfigurationError):
            _small_schedule(
                phases=[LoadPhase(name="x", steps=1), LoadPhase(name="x", steps=1)]
            ).validate()
        with pytest.raises(ConfigurationError):
            LoadPhase(name="bad", steps=1, churn_rate=1.5).validate()
        with pytest.raises(ConfigurationError):
            LoadPhase(name="bad", steps=1, burst_multiplier=0).validate()

    def test_totals(self):
        schedule = _small_schedule()
        assert schedule.total_steps == 5
        assert schedule.num_shards() == 3


def _socket_run(schedule, compiled_policy, serving_env, clients, window, base_seed):
    """One fleet run over ``clients`` unix-socket connections; (report, drain summary)."""

    async def run():
        netserver = PolicyNetServer(
            _make_server(compiled_policy, serving_env),
            flush_interval=0.001,
            max_inflight=64,
        )
        socket_root = tempfile.mkdtemp(prefix="rfleet", dir="/tmp")
        socket_path = os.path.join(socket_root, "s.sock")
        try:
            await netserver.start(unix_path=socket_path)
            connections = [
                await PolicyClient.connect_unix(socket_path) for _ in range(clients)
            ]
            driver = FleetDriver(
                schedule,
                SocketTransport(connections, per_connection_window=window),
                base_seed=base_seed,
            )
            report = await driver.run_async()
            for connection in connections:
                await connection.close()
            return report, await netserver.drain()
        finally:
            shutil.rmtree(socket_root, ignore_errors=True)

    return asyncio.run(run())


# ----------------------------------------------------------------------
# Driver
# ----------------------------------------------------------------------
class TestFleetDriver:
    def test_deterministic_report_for_fixed_seed(
        self, compiled_policy, serving_env
    ):
        """The pin: same (base_seed, schedule) → identical report bytes."""
        reports = []
        for _ in range(2):
            server = _make_server(compiled_policy, serving_env)
            driver = FleetDriver(
                _small_schedule(), InProcessTransport(server), base_seed=42
            )
            reports.append(driver.run())
        assert reports[0].deterministic_json() == reports[1].deterministic_json()
        assert reports[0].digest == reports[1].digest

    def test_different_seed_changes_the_run(self, compiled_policy, serving_env):
        digests = []
        for seed in (0, 1):
            server = _make_server(compiled_policy, serving_env)
            driver = FleetDriver(
                _small_schedule(), InProcessTransport(server), base_seed=seed
            )
            digests.append(driver.run().deterministic_json())
        assert digests[0] != digests[1]

    def test_schedule_knobs_show_up_in_counters(
        self, compiled_policy, serving_env
    ):
        server = _make_server(compiled_policy, serving_env)
        schedule = _small_schedule()
        report = FleetDriver(
            schedule, InProcessTransport(server), base_seed=7
        ).run()
        det = report.deterministic_dict()
        by_name = {p["name"]: p for p in det["phases"]}
        # Every session decides once per step; warmup has no churn.
        assert by_name["warmup"]["decisions"] == 48
        assert by_name["warmup"]["churn_cycles"] == 0
        assert by_name["churn"]["churn_cycles"] > 0
        assert by_name["churn"]["stale_rejections"] > 0
        assert by_name["flash_crowd"]["probe_decisions"] > 0
        # Stale probes are rejections, never request errors.
        assert all(phase["errors"] == 0 for phase in det["phases"])
        # No tenant ever lost its session: occupancy is flat at the
        # fleet size and the server saw no deeper peak.
        assert det["occupancy_timeline"] == [48] * schedule.total_steps
        assert server.table.peak_active == 48
        assert server.table.num_active == 48
        # Churn really recycled slots: generations moved.
        assert server.table.generation.max() >= 1

    def test_report_json_is_loadable_and_structured(
        self, compiled_policy, serving_env, tmp_path
    ):
        server = _make_server(compiled_policy, serving_env)
        report = FleetDriver(
            _small_schedule(), InProcessTransport(server), base_seed=3
        ).run()
        path = tmp_path / "fleet.json"
        report.save(path)
        payload = json.loads(path.read_text())
        assert set(payload) == {
            "config", "deterministic", "timing", "telemetry", "server"
        }
        assert payload["config"]["schedule_digest"] == _small_schedule().digest()
        assert payload["deterministic"]["digest"] == report.digest
        assert payload["timing"]["latency"]["count"] > 0
        assert payload["timing"]["latency"]["p99_ms"] > 0
        assert payload["timing"]["decisions_per_sec"] > 0
        assert payload["server"]["transport"] == "inprocess"

    def test_socket_transport_matches_inprocess_byte_for_byte(
        self, compiled_policy, serving_env
    ):
        """Same fleet through real sockets → identical deterministic section."""
        schedule = _small_schedule()
        server = _make_server(compiled_policy, serving_env)
        inproc = FleetDriver(
            schedule, InProcessTransport(server), base_seed=11
        ).run()
        socket_report, summary = _socket_run(
            schedule, compiled_policy, serving_env, clients=3, window=16, base_seed=11
        )
        assert socket_report.deterministic_json() == inproc.deterministic_json()
        assert socket_report.digest == inproc.digest
        # The deterministic run never trips back-pressure or drops replies.
        assert summary["busy_rejections"] == 0
        assert summary["replies_dropped"] == 0
        assert summary["flush_loop_errors"] == 0

    @pytest.mark.parametrize("window", [1, 7, 64])
    @pytest.mark.parametrize("clients", [1, 2, 3])
    def test_socket_matches_inprocess_over_the_partition_space(
        self, compiled_policy, serving_env, clients, window
    ):
        """However a wave is cut into blocks, the run is the same run.

        Waves of 16 rows (and odd-sized flash-crowd waves) over 1-3
        connections cover waves not divisible by the connection count,
        windows smaller than a wave, and last windows in which a
        connection gets no row at all.
        """
        schedule = _small_schedule()
        inproc = FleetDriver(
            schedule,
            InProcessTransport(_make_server(compiled_policy, serving_env)),
            base_seed=13,
        ).run()
        socket_report, summary = _socket_run(
            schedule, compiled_policy, serving_env, clients, window, base_seed=13
        )
        assert socket_report.deterministic_json() == inproc.deterministic_json()
        assert summary["busy_rejections"] == 0
        assert summary["pending"] == 0 and summary["parked_replies"] == 0
        decisions = inproc.deterministic_dict()
        assert summary["latency"]["count"] == (
            decisions["decisions_total"] + decisions["probe_decisions_total"]
        )

    def test_socket_waves_batch_like_the_inprocess_twin(
        self, compiled_policy, serving_env
    ):
        """Every wave's blocks share one backend call, as the wave does in process.

        The ledger's socket shape at smoke size: two connections, one
        block each per wave, a window as wide as the block.  The idle
        flush waits for both blocks, so the socket run makes exactly
        the in-process run's batches.
        """
        schedule = _small_schedule(sessions=128, shard_size=32)
        server = _make_server(compiled_policy, serving_env)
        inproc = FleetDriver(schedule, InProcessTransport(server), base_seed=42).run()
        socket_report, summary = _socket_run(
            schedule, compiled_policy, serving_env, clients=2, window=16, base_seed=42
        )
        assert socket_report.digest == inproc.digest
        assert summary["decisions"] == server.stats().decisions
        assert summary["batches"] == server.stats().batches
        assert summary["pending"] == 0 and summary["parked_replies"] == 0

    def test_recycle_restarts_finished_shards(self, compiled_policy, serving_env):
        server = _make_server(compiled_policy, serving_env)
        # Traces last 4 intervals but the phase runs 10 steps: every
        # shard must recycle onto its next trace variant at least once.
        schedule = _small_schedule(
            sessions=32,
            shard_size=16,
            trace_duration=4,
            phases=[LoadPhase(name="long_haul", steps=10)],
        )
        report = FleetDriver(
            schedule, InProcessTransport(server), base_seed=5
        ).run()
        assert report.recycles >= 2
        assert report.deterministic_dict()["decisions_total"] == 32 * 10

    @pytest.mark.parametrize("max_batch_size", [16, 128])
    def test_backend_fault_surfaces_as_a_serving_error(
        self, compiled_policy, serving_env, max_batch_size
    ):
        """A failed wave raises at the wave, chained to the backend's fault.

        ``max_batch_size=16`` is the shard size, so the fault strikes the
        auto-flush inside ``submit_many``; at 128 it strikes the
        transport's own ``flush``.  Either way no ``-1`` placeholder
        action reaches a simulator and no row stays queued.
        """

        class _FailsSecondWave(CompiledFSMBackend):
            calls = 0

            def decide(self, table, slots, raw, normalized):
                self.calls += 1
                if self.calls == 2:
                    raise RuntimeError("injected backend fault")
                return super().decide(table, slots, raw, normalized)

        server = PolicyServer(
            _FailsSecondWave(compiled_policy),
            serving_env.observation_encoder,
            initial_capacity=64,
            max_batch_size=max_batch_size,
        )
        schedule = _small_schedule(
            sessions=32, shard_size=16, phases=[LoadPhase(name="steady", steps=2)]
        )
        driver = FleetDriver(schedule, InProcessTransport(server), base_seed=5)
        with pytest.raises(ServingError, match="16 rows failed") as raised:
            driver.run()
        assert isinstance(raised.value.__cause__, RuntimeError)
        assert server.pending == 0
        assert server.stats().failed == 16 and server.stats().decisions == 16


# ----------------------------------------------------------------------
# Pins: what the fleet decides, and how many draws it pays for
# ----------------------------------------------------------------------
# Computed at the parent of the PR that made ``PhiloxStreams`` draw on
# demand and ``reset`` build rows per distinct trace.  The backend is the
# handcrafted heuristic lifted per session — no BLAS anywhere in the
# loop — so the literals hold on any runner; they move only when a
# stream, a reset, the simulator or the driver changes a decision.
FLEET_DIGEST_PINS = {
    42: "17e02b3957a27cd6b38b70f0262985ddca93c298b81b62505cad8348f817002c",
    7: "39741ac550196d58f4bf3709498e699e05a9bfe57aff0089768dd4463a08eb90",
}


def _pinned_schedule() -> FleetSchedule:
    return FleetSchedule(
        sessions=256,
        shard_size=128,
        trace_duration=8,
        trace_variants=2,
        phases=[
            LoadPhase(name="steady", steps=4),
            LoadPhase(
                name="churn_storm", steps=6, churn_rate=0.05, stale_probes_per_step=2
            ),
            LoadPhase(
                name="flash_crowd",
                steps=6,
                burst_multiplier=2,
                burst_tenant_fraction=0.25,
            ),
        ],
    )


def _heuristic_server(serving_env) -> PolicyServer:
    encoder = serving_env.observation_encoder
    return PolicyServer(
        AgentBatchBackend(HandcraftedFSMPolicy, encoder),
        encoder,
        initial_capacity=256,
        max_batch_size=128,
    )


class TestFleetPins:
    @pytest.mark.parametrize("base_seed", sorted(FLEET_DIGEST_PINS))
    def test_fleet_digest_is_pinned(self, sampler_path, serving_env, base_seed):
        report = FleetDriver(
            _pinned_schedule(),
            InProcessTransport(_heuristic_server(serving_env)),
            base_seed=base_seed,
        ).run()
        # The run exercises what the pin is for: shards recycled onto
        # fresh streams and traces, sessions churned, a crowd surged.
        deterministic = report.deterministic_dict()
        assert report.recycles == 2
        assert deterministic["decisions_total"] == 256 * 16
        assert deterministic["probe_decisions_total"] > 0
        assert deterministic["stale_rejections_total"] > 0
        assert report.digest == FLEET_DIGEST_PINS[base_seed]

    def test_fleet_digest_is_pinned_on_the_reference_loop(self, serving_env):
        """With the native simulator step forced off the reference dispatch
        loop steps every interval; the handcrafted policy migrates, so it
        dispatches penalised cores, and the digest is still the pin."""
        base_seed = min(FLEET_DIGEST_PINS)
        with kernels_off("simulator"):
            report = FleetDriver(
                _pinned_schedule(),
                InProcessTransport(_heuristic_server(serving_env)),
                base_seed=base_seed,
            ).run()
        assert report.digest == FLEET_DIGEST_PINS[base_seed]

    def test_driver_streams_compute_only_the_draws_they_serve(self, serving_env):
        """Draws served, per driver stream: a count, not a time.

        Every tenant draws its profile once, a churn uniform per step
        and a burst uniform per flash-crowd phase.  (The block prefetch
        this replaced computed 64 draws per lane per refill.)  Counted at
        ``uniforms``, the one door to both keystream implementations,
        with the native kernel as probed and forced off.
        """
        schedule = _pinned_schedule()
        burst_phases = sum(1 for phase in schedule.phases if phase.burst_multiplier > 1)
        uniforms = PhiloxStreams.uniforms
        for forced_off in (False, True):
            produced = {
                tuple(PhiloxStreams(3, 1, f"fleet/{name}")._round_keys): 0
                for name in ("mix", "churn", "burst")
            }

            def counting(self, rows=None):
                draws = uniforms(self, rows)
                if tuple(self._round_keys) in produced:
                    produced[tuple(self._round_keys)] += draws.size
                return draws

            with pytest.MonkeyPatch.context() as patch, (
                kernels_off("philox") if forced_off else contextlib.nullcontext()
            ):
                patch.setattr(PhiloxStreams, "uniforms", counting)
                FleetDriver(
                    schedule, InProcessTransport(_heuristic_server(serving_env)), base_seed=3
                ).run()
            assert list(produced.values()) == [
                schedule.sessions,
                schedule.sessions * schedule.total_steps,
                schedule.sessions * burst_phases,
            ]
