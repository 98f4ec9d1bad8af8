"""Benchmark: fleet-scale sim-to-serve load through the decision broker.

Closes the simulator→server loop at fleet scale: ``FLEET_BENCH_SESSIONS``
simulated storage nodes (B-major vector-simulator shards) hold
``(slot, generation)`` sessions on one micro-batching
:class:`PolicyServer` and submit a decision request per simulated
interval through a fixed three-phase schedule (steady, churn storm with
stale probes, correlated flash crowd).  Reports sustained end-to-end
decisions/s and per-phase latency percentiles, runs the whole fleet
**twice** and asserts the two reports' deterministic sections are
byte-identical, and measures a smaller fleet through the socket front
door for the networked rate.

The JSON is stamped with ``kernel`` / ``rng_family`` / ``sessions`` /
``schedule_digest`` so runs with mismatched configurations are never
compared, and carries a ``calibration_decisions_per_s`` (raw
``decide_now`` rate on this machine) for cross-machine reading.
Regressions are judged by ``benchmarks/ledger/compare.py``.

Knobs (environment variables):

* ``FLEET_BENCH_SESSIONS`` — fleet size for the in-process run
  (default 4096, the tier-1 / CI size; the committed baseline in
  ``benchmarks/results`` ran 100000).
* ``FLEET_BENCH_SHARD`` — sessions per simulator shard (default 1024;
  the 100k baseline used 8192).
* ``FLEET_BENCH_SOCKET_SESSIONS`` — fleet size for the socket run
  (default 512; 0 skips the socket section).
* ``FLEET_BENCH_CLIENTS`` — socket client connections (default 4).
* ``BENCH_OUTPUT_DIR`` — also write ``BENCH_fleet_load.json`` there.
"""

from __future__ import annotations

import asyncio
import json
import os
import shutil
import tempfile
import time
from pathlib import Path

import numpy as np

from repro.drl.policy import PolicyConfig, RecurrentPolicyValueNet
from repro.env.environment import StorageAllocationEnv
from repro.env.reward import RewardConfig
from repro.fsm.machine import FiniteStateMachine
from repro.loadgen import (
    FleetDriver,
    FleetSchedule,
    InProcessTransport,
    LoadPhase,
    SocketTransport,
)
from repro.qbn.autoencoder import build_observation_qbn
from repro.qbn.quantize import code_key
from repro.engine import CompiledFSMBackend, CompiledFSMPolicy
from repro.serving import PolicyClient, PolicyNetServer, PolicyServer
from repro.storage.migration import NUM_ACTIONS, MigrationAction
from repro.storage.simulator import StorageSystemConfig
from repro.workloads.generator import GeneratorConfig, StandardWorkloadGenerator

SESSIONS = int(os.environ.get("FLEET_BENCH_SESSIONS", "4096"))
SHARD = int(os.environ.get("FLEET_BENCH_SHARD", "1024"))
SOCKET_SESSIONS = int(os.environ.get("FLEET_BENCH_SOCKET_SESSIONS", "512"))
CLIENTS = int(os.environ.get("FLEET_BENCH_CLIENTS", "4"))
SEED = 42


def bench_schedule(sessions: int, shard_size: int) -> FleetSchedule:
    """The fixed bench schedule; its digest stamps the JSON."""
    return FleetSchedule(
        sessions=sessions,
        shard_size=shard_size,
        trace_duration=10,
        trace_variants=2,
        phases=[
            LoadPhase(name="steady", steps=2),
            LoadPhase(
                name="churn_storm", steps=2, churn_rate=0.01, stale_probes_per_step=4
            ),
            LoadPhase(
                name="flash_crowd",
                steps=2,
                burst_multiplier=2,
                burst_tenant_fraction=0.2,
            ),
        ],
    )


def _build_compiled():
    """Handmade compiled FSM over the real observation space (fast build)."""
    env = StorageAllocationEnv(
        StorageSystemConfig(),
        reward_config=RewardConfig(mode="per_step_penalty"),
        rng=SEED,
    )
    generator = StandardWorkloadGenerator(
        env.system_config, GeneratorConfig(), rng=SEED
    )
    trace = generator.generate("web_server", duration=24)
    rng = np.random.default_rng(SEED + 9)
    observation = env.reset(trace)
    rows = []
    while True:
        rows.append(observation.raw())
        result = env.step(MigrationAction(int(rng.integers(NUM_ACTIONS))))
        observation = result.observation
        if result.done:
            break
    stream = np.array(rows)
    qbn = build_observation_qbn(
        stream.shape[1], latent_dim=6, hidden_dim=16, rng=SEED + 4
    )
    fsm = FiniteStateMachine()
    codes = []
    while len(codes) < 4:
        code = tuple(int(c) for c in rng.integers(0, 3, size=5))
        if code not in fsm.states:
            state = fsm.add_state(code, MigrationAction(int(rng.integers(NUM_ACTIONS))))
            state.visit_count = int(rng.integers(20))
            codes.append(code)
    normalized = env.observation_encoder.normalize_batch(stream)
    for vector in normalized[:5]:
        key = code_key(qbn.discrete_code(vector))
        if key not in fsm.observation_prototypes:
            fsm.observation_prototypes[key] = np.asarray(vector, float)
    # Every (state, prototype code) cell gets a random successor.
    for code in codes:
        for key in fsm.observation_prototypes:
            fsm.add_transition(code, key, codes[int(rng.integers(len(codes)))])
    fsm.initial_state = codes[1]
    fsm.validate()
    compiled = CompiledFSMPolicy.compile(fsm, qbn, encoder=env.observation_encoder)
    return compiled, env.observation_encoder, stream


def _make_server(compiled, encoder, capacity: int) -> PolicyServer:
    return PolicyServer(
        CompiledFSMBackend(compiled),
        encoder,
        initial_capacity=capacity,
        max_batch_size=4096,
    )


def _calibrate(compiled, encoder, stream) -> float:
    """Raw broker decide_now rate — the machine-normalisation anchor."""
    server = _make_server(compiled, encoder, 512)
    ids = server.open_sessions(512)
    batch = np.ascontiguousarray(stream[np.arange(512) % len(stream)])
    server.decide_now(ids, batch)  # warm-up
    rounds, decisions = 5, 0
    start = time.perf_counter()
    for _ in range(rounds):
        server.decide_now(ids, batch)
        decisions += 512
    return decisions / (time.perf_counter() - start)


def _run_fleet(compiled, encoder):
    schedule = bench_schedule(SESSIONS, SHARD)
    server = _make_server(compiled, encoder, SESSIONS)
    driver = FleetDriver(schedule, InProcessTransport(server), base_seed=SEED)
    return driver.run(), schedule


def _run_socket_fleet(compiled, encoder):
    async def scenario():
        schedule = bench_schedule(SOCKET_SESSIONS, min(SOCKET_SESSIONS, SHARD))
        server = _make_server(compiled, encoder, SOCKET_SESSIONS)
        netserver = PolicyNetServer(server, flush_interval=0.001, max_inflight=64)
        socket_dir = tempfile.mkdtemp(prefix="rfbench", dir="/tmp")
        socket_path = os.path.join(socket_dir, "fleet.sock")
        try:
            await netserver.start(unix_path=socket_path)
            clients = [
                await PolicyClient.connect_unix(socket_path) for _ in range(CLIENTS)
            ]
            driver = FleetDriver(
                schedule,
                SocketTransport(clients, per_connection_window=32),
                base_seed=SEED,
            )
            report = await driver.run_async()
            for client in clients:
                await client.close()
            summary = await netserver.drain()
            assert summary["pending"] == 0 and summary["parked_replies"] == 0
            assert summary["busy_rejections"] == 0
            return report
        finally:
            shutil.rmtree(socket_dir, ignore_errors=True)

    return asyncio.run(scenario())


def test_bench_fleet_load(tmp_path):
    compiled, encoder, stream = _build_compiled()
    calibration = _calibrate(compiled, encoder, stream)

    first, schedule = _run_fleet(compiled, encoder)
    second, _ = _run_fleet(compiled, encoder)
    # The headline guarantee: the whole fleet run is byte-deterministic.
    assert first.deterministic_json() == second.deterministic_json()
    assert first.digest == second.digest

    payload = first.as_dict()
    det, timing = payload["deterministic"], payload["timing"]
    assert det["occupancy_timeline"][-1] == SESSIONS  # fleet held end to end
    errors = sum(int(p["errors"]) for p in det["phases"])
    assert errors == 0

    summary = {
        "benchmark": "fleet_load",
        "kernel": "numpy",
        "rng_family": "philox",
        "sessions": SESSIONS,
        "shard_size": SHARD,
        "schedule_digest": schedule.digest(),
        "base_seed": SEED,
        "calibration_decisions_per_s": round(calibration, 1),
        "decisions_total": det["decisions_total"],
        "probe_decisions_total": det["probe_decisions_total"],
        "churn_cycles_total": det["churn_cycles_total"],
        "stale_rejections_total": det["stale_rejections_total"],
        "decisions_per_s": timing["decisions_per_sec"],
        "latency_p50_ms": timing["latency"]["p50_ms"],
        "latency_p95_ms": timing["latency"]["p95_ms"],
        "latency_p99_ms": timing["latency"]["p99_ms"],
        "elapsed_seconds": timing["elapsed_seconds"],
        "deterministic_digest": det["digest"],
    }
    if SOCKET_SESSIONS > 0:
        socket_report = _run_socket_fleet(compiled, encoder)
        socket_payload = socket_report.as_dict()
        summary["socket_sessions"] = SOCKET_SESSIONS
        summary["socket_decisions_per_s"] = socket_payload["timing"][
            "decisions_per_sec"
        ]
        summary["socket_latency_p99_ms"] = socket_payload["timing"]["latency"][
            "p99_ms"
        ]
        summary["socket_deterministic_digest"] = socket_payload["deterministic"][
            "digest"
        ]

    print()
    print(json.dumps(summary, indent=2))
    (tmp_path / "fleet_load.json").write_text(json.dumps(summary, indent=2))
    output_dir = os.environ.get("BENCH_OUTPUT_DIR")
    if output_dir:
        target = Path(output_dir)
        target.mkdir(parents=True, exist_ok=True)
        (target / "BENCH_fleet_load.json").write_text(
            json.dumps(summary, indent=2) + "\n"
        )

    assert summary["decisions_per_s"] and summary["decisions_per_s"] > 0
    assert summary["latency_p99_ms"] > 0
