"""Micro-benchmark: decision throughput + latency through the network front door.

Drives a fixed number of concurrent sessions through the asyncio
:class:`PolicyNetServer` over a unix socket with real framed
:class:`PolicyClient` connections, and reports end-to-end decisions per
second plus the per-row latency percentiles (p50/p95/p99) from the
server-side :class:`LatencyHistogram` — the cost of the socket hop, the
framing, and the time-and-size-triggered micro-batching loop on top of
the in-process broker the other serving benchmark measures.

The same volume is driven twice, each time against a fresh server: a
*per-request* round (one ``n = 1`` decide frame per session per step,
all in flight together) and a *block* round (``decide_many``: one frame
per client per step carrying all of that client's sessions).

Also serves one round through an in-process :class:`PolicyServer` on
the same artifact and records the socket/in-process throughput ratio,
so the front-door overhead is one number in the JSON.

Knobs (environment variables):

* ``NET_BENCH_SESSIONS`` — concurrent sessions (default 512).
* ``NET_BENCH_CLIENTS`` — client connections they spread over (default 8).
* ``NET_BENCH_STEPS`` — decisions per session per round (default 6).
* ``NET_BENCH_ROUNDS`` — measurement rounds, best-of (default 3).
* ``BENCH_OUTPUT_DIR`` — also write the JSON summary to
  ``$BENCH_OUTPUT_DIR/BENCH_net_serving.json`` for artifact upload /
  the ``benchmarks/results/`` perf trajectory.
"""

from __future__ import annotations

import asyncio
import json
import os
import tempfile
import time
from pathlib import Path

import numpy as np

from repro.drl.policy import PolicyConfig, RecurrentPolicyValueNet
from repro.drl.rollout import BatchedRolloutCollector
from repro.env.environment import StorageAllocationEnv
from repro.env.reward import RewardConfig
from repro.env.vector_env import VectorStorageAllocationEnv
from repro.fsm.extraction import FSMExtractor
from repro.qbn.autoencoder import build_hidden_qbn, build_observation_qbn
from repro.qbn.dataset import TransitionDataset
from repro.engine import CompiledFSMBackend, CompiledFSMPolicy
from repro.serving import PolicyClient, PolicyNetServer, PolicyServer
from repro.storage.simulator import StorageSystemConfig
from repro.workloads.generator import GeneratorConfig, StandardWorkloadGenerator
from repro.workloads.sampler import RealTraceSampler

SESSIONS = int(os.environ.get("NET_BENCH_SESSIONS", "512"))
CLIENTS = int(os.environ.get("NET_BENCH_CLIENTS", "8"))
STEPS = int(os.environ.get("NET_BENCH_STEPS", "6"))
ROUNDS = int(os.environ.get("NET_BENCH_ROUNDS", "3"))
HIDDEN_SIZE = 64


def _build_compiled():
    """A realistically-sized compiled FSM from an extraction pass."""
    system_config = StorageSystemConfig()
    generator = StandardWorkloadGenerator(system_config, GeneratorConfig(), rng=0)
    suite = generator.generate_suite(duration=48)
    traces = RealTraceSampler(suite, rng=1).sample_many(3)
    policy = RecurrentPolicyValueNet(PolicyConfig(hidden_size=HIDDEN_SIZE), rng=5)
    collector = BatchedRolloutCollector(
        VectorStorageAllocationEnv(
            system_config, RewardConfig(mode="per_step_penalty")
        ),
        rng=0,
    )
    trajectories = collector.collect_batch(policy, traces, greedy=True)
    dataset = TransitionDataset.from_trajectories(trajectories)
    observation_qbn = build_observation_qbn(35, latent_dim=12, rng=7)
    hidden_qbn = build_hidden_qbn(HIDDEN_SIZE, latent_dim=16, rng=8)
    extraction = FSMExtractor(
        observation_qbn, hidden_qbn
    ).extract(dataset)
    encoder = StorageAllocationEnv(system_config).observation_encoder
    compiled = CompiledFSMPolicy.compile(
        extraction.fsm, observation_qbn, encoder=encoder
    )
    return compiled, encoder, np.asarray(dataset.raw_observations, dtype=float)


async def _measure_round(clients, handles, raw_pool, step_offset, block):
    """One round: every session decides STEPS times; returns elapsed seconds."""
    per_client = len(handles[0])
    columns = [np.array(client_handles) for client_handles in handles]
    start = time.perf_counter()
    for step in range(STEPS):
        if block:
            await asyncio.gather(*[
                client.decide_many(
                    columns[c][:, 0],
                    columns[c][:, 1],
                    raw_pool[
                        (c * per_client + np.arange(per_client)) * 13
                        + (step_offset + step) * 7
                    ],
                )
                for c, client in enumerate(clients)
            ])
        else:
            await asyncio.gather(*[
                client.decide(
                    handle,
                    raw_pool[
                        (c * per_client + s) * 13 + (step_offset + step) * 7
                    ],
                )
                for c, client in enumerate(clients)
                for s, handle in enumerate(handles[c])
            ])
    return time.perf_counter() - start


async def _drive(compiled, encoder, raw_pool, block):
    server = PolicyServer(
        CompiledFSMBackend(compiled),
        encoder,
        initial_capacity=SESSIONS,
        max_batch_size=1024,
    )
    netserver = PolicyNetServer(server, flush_interval=0.001)
    socket_dir = tempfile.mkdtemp(prefix="rbench", dir="/tmp")
    socket_path = os.path.join(socket_dir, "bench.sock")
    await netserver.start(unix_path=socket_path)
    clients = [await PolicyClient.connect_unix(socket_path) for _ in range(CLIENTS)]
    per_client = SESSIONS // CLIENTS
    handles = [await client.open(per_client) for client in clients]
    total = per_client * CLIENTS

    # Pre-wrap the index space so round bodies don't modulo per request.
    raw_pool = raw_pool[np.arange(total * 13 + (ROUNDS + 2) * STEPS * 7 + 1)
                        % len(raw_pool)]

    await _measure_round(clients, handles, raw_pool, 0, block)  # warm-up
    rates = []
    for round_index in range(ROUNDS):
        elapsed = await _measure_round(
            clients, handles, raw_pool, (round_index + 1) * STEPS, block
        )
        rates.append(total * STEPS / elapsed)

    stats = await clients[0].stats()
    for client in clients:
        await client.close()
    summary = await netserver.drain()
    assert summary["parked_replies"] == 0 and summary["pending"] == 0
    return rates, stats


def test_bench_net_serving(tmp_path):
    compiled, encoder, raw_pool = _build_compiled()

    socket_rates, stats = asyncio.run(_drive(compiled, encoder, raw_pool, block=False))
    block_rates, block_stats = asyncio.run(
        _drive(compiled, encoder, raw_pool, block=True)
    )

    # In-process reference on the same artifact: one decide_now batch per
    # step, same request volume, no socket / framing / event loop.
    reference = PolicyServer(
        CompiledFSMBackend(compiled), encoder, initial_capacity=SESSIONS
    )
    session_ids = reference.open_sessions(SESSIONS)
    batches = [
        np.ascontiguousarray(
            raw_pool[(np.arange(SESSIONS) * 13 + step * 7) % len(raw_pool)]
        )
        for step in range(STEPS)
    ]
    reference.decide_now(session_ids, batches[0])  # warm-up
    inprocess_rates = []
    for _ in range(ROUNDS):
        start = time.perf_counter()
        for batch in batches:
            reference.decide_now(session_ids, batch)
        inprocess_rates.append(
            SESSIONS * STEPS / (time.perf_counter() - start)
        )

    best_socket = max(socket_rates)
    best_block = max(block_rates)
    best_inprocess = max(inprocess_rates)
    latency = stats["latency"]
    block_latency = block_stats["latency"]
    summary = {
        "benchmark": "net_serving",
        "sessions": SESSIONS,
        "clients": CLIENTS,
        "steps_per_round": STEPS,
        "rounds": ROUNDS,
        "fsm_states": compiled.num_states,
        "socket_decisions_per_s": round(best_socket, 1),
        "inprocess_decisions_per_s": round(best_inprocess, 1),
        "socket_overhead_factor": round(best_inprocess / best_socket, 2),
        "socket_rates": [round(r, 1) for r in socket_rates],
        "latency_p50_ms": latency["p50_ms"],
        "latency_p95_ms": latency["p95_ms"],
        "latency_p99_ms": latency["p99_ms"],
        "latency_max_ms": latency["max_ms"],
        "batches": stats["batches"],
        "mean_batch_size": stats["mean_batch_size"],
        "block_decisions_per_s": round(best_block, 1),
        "block_overhead_factor": round(best_inprocess / best_block, 2),
        "block_rates": [round(r, 1) for r in block_rates],
        "block_rows_per_frame": SESSIONS // CLIENTS,
        "block_latency_p50_ms": block_latency["p50_ms"],
        "block_latency_p95_ms": block_latency["p95_ms"],
        "block_batches": block_stats["batches"],
        "block_mean_batch_size": block_stats["mean_batch_size"],
    }
    print()
    print(json.dumps(summary, indent=2))
    (tmp_path / "net_serving.json").write_text(json.dumps(summary, indent=2))
    output_dir = os.environ.get("BENCH_OUTPUT_DIR")
    if output_dir:
        target = Path(output_dir)
        target.mkdir(parents=True, exist_ok=True)
        (target / "BENCH_net_serving.json").write_text(
            json.dumps(summary, indent=2) + "\n"
        )

    for served in (stats, block_stats):
        assert served["decisions"] == SESSIONS * STEPS * (ROUNDS + 1)
        assert served["failed"] == 0
        assert served["latency"]["count"] == served["decisions"]
    assert latency["p99_ms"] > 0
