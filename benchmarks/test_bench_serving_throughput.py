"""Micro-benchmark: online decision throughput of the serving backends.

Drives the same synthetic request stream at a fixed number of concurrent
sessions through (a) the compiled-FSM fast path and (b) the full GRU
policy backend, and reports decisions/second for both — the deployment
claim of the paper in one artefact: the extracted machine serves an
order of magnitude faster than the network it explains, and (via a
short shadow-mode pass) this is how closely it tracks it.

The headline rates compare the **decision backends** on identical
pre-assembled (raw, normalised) batches with per-session state resident
in their session tables — engine vs engine, nothing else differing.
The JSON also records ``server_*`` rates for the same streams served
through the full micro-batching :class:`PolicyServer` (request
validation, shared normalisation, stats), which adds the same fixed
cost to both backends and therefore compresses the ratio slightly.

Knobs (environment variables):

* ``SERVING_BENCH_SESSIONS`` — concurrent sessions (default 1000, the
  number the acceptance target tracks; CI smoke runs fewer).
* ``SERVING_BENCH_STEPS`` — decisions per session per round (default 8).
* ``SERVING_BENCH_ROUNDS`` — measurement rounds, best-of (default 5).
* ``SERVING_BENCH_MIN_SPEEDUP`` — hard assertion floor for
  compiled/GRU throughput (default 2.0; the headline number lives in
  the JSON, shared CI workers are too noisy for it).
* ``BENCH_OUTPUT_DIR`` — also write the JSON summary to
  ``$BENCH_OUTPUT_DIR/BENCH_serving_throughput.json`` for artifact
  upload / the ``benchmarks/results/`` perf trajectory.
"""

from __future__ import annotations

import json
import os
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
from repro.engine import CompiledFSMBackend, CompiledFSMPolicy, GRUPolicyBackend
from repro.serving import PolicyServer, ShadowEvaluator
from repro.storage.simulator import StorageSystemConfig
from repro.workloads.generator import GeneratorConfig, StandardWorkloadGenerator
from repro.workloads.sampler import RealTraceSampler

SESSIONS = int(os.environ.get("SERVING_BENCH_SESSIONS", "1000"))
STEPS = int(os.environ.get("SERVING_BENCH_STEPS", "8"))
ROUNDS = int(os.environ.get("SERVING_BENCH_ROUNDS", "5"))
MIN_ASSERTED_SPEEDUP = float(os.environ.get("SERVING_BENCH_MIN_SPEEDUP", "2.0"))
HIDDEN_SIZE = 128


def _measure_backend(backend, table, slots, request_rounds) -> float:
    """Backend decisions per second over one pass of ``request_rounds``."""
    start = time.perf_counter()
    served = 0
    for raw, normalized in request_rounds:
        served += backend.decide(table, slots, raw, normalized).shape[0]
    return served / (time.perf_counter() - start)


def _measure_server(server: PolicyServer, session_ids, request_rounds) -> float:
    """End-to-end server decisions per second (validation + normalise + stats)."""
    start = time.perf_counter()
    served = 0
    for raw, _normalized in request_rounds:
        served += server.decide_now(session_ids, raw).shape[0]
    return served / (time.perf_counter() - start)


def test_bench_serving_throughput(tmp_path):
    system_config = StorageSystemConfig()
    generator = StandardWorkloadGenerator(system_config, GeneratorConfig(), rng=0)
    suite = generator.generate_suite(duration=48)
    traces = RealTraceSampler(suite, rng=1).sample_many(4)
    policy = RecurrentPolicyValueNet(PolicyConfig(hidden_size=HIDDEN_SIZE), rng=5)

    # Transition dataset from greedy batched rollouts -> extracted FSM.
    reward_config = RewardConfig(mode="per_step_penalty")
    collector = BatchedRolloutCollector(
        VectorStorageAllocationEnv(system_config, reward_config), rng=0
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

    # Synthetic request stream: every session replays dataset observations
    # from its own offset, STEPS decisions per session per round.  The
    # normalised form is precomputed once for the GRU, which the server
    # normalises each micro-batch for; the compiled FSM reads the raw rows
    # and normalises their distinct rows itself.
    raw_pool = np.asarray(dataset.raw_observations, dtype=float)
    request_rounds = []
    for step in range(STEPS):
        raw = np.ascontiguousarray(
            raw_pool[(np.arange(SESSIONS) * 13 + step * 7) % len(raw_pool)]
        )
        request_rounds.append((raw, encoder.normalize_batch(raw)))

    def fresh_backend(backend) -> tuple:
        table = backend.session_table(SESSIONS)
        slots = table.open(SESSIONS)
        backend.begin_sessions(table, slots)
        return backend, table, slots

    compiled_backend = CompiledFSMBackend(compiled)
    compiled_backend.check_encoder(encoder)  # the encoder it normalises with
    compiled_backend, compiled_table, compiled_slots = fresh_backend(compiled_backend)
    gru_backend, gru_table, gru_slots = fresh_backend(GRUPolicyBackend(policy))

    # Warm-up both paths (BLAS init, lazy buffers), then measure best-of.
    compiled_rates, gru_rates = [], []
    _measure_backend(compiled_backend, compiled_table, compiled_slots, request_rounds[:1])
    _measure_backend(gru_backend, gru_table, gru_slots, request_rounds[:1])
    for _ in range(ROUNDS):
        compiled_rates.append(
            _measure_backend(compiled_backend, compiled_table, compiled_slots, request_rounds)
        )
        gru_rates.append(
            _measure_backend(gru_backend, gru_table, gru_slots, request_rounds)
        )

    # The same comparison through the full PolicyServer front door.
    server_compiled = PolicyServer(
        CompiledFSMBackend(compiled), encoder, initial_capacity=SESSIONS
    )
    compiled_ids = server_compiled.open_sessions(SESSIONS)
    server_gru = PolicyServer(
        GRUPolicyBackend(policy), encoder, initial_capacity=SESSIONS
    )
    gru_ids = server_gru.open_sessions(SESSIONS)
    _measure_server(server_compiled, compiled_ids, request_rounds[:1])
    _measure_server(server_gru, gru_ids, request_rounds[:1])
    server_compiled_rates, server_gru_rates = [], []
    for _ in range(max(2, ROUNDS // 2)):
        server_compiled_rates.append(
            _measure_server(server_compiled, compiled_ids, request_rounds)
        )
        server_gru_rates.append(_measure_server(server_gru, gru_ids, request_rounds))

    # Shadow pass: serve from the compiled tables, audit with the GRU.
    shadow = ShadowEvaluator(CompiledFSMBackend(compiled), GRUPolicyBackend(policy))
    shadow_server = PolicyServer(shadow, encoder, initial_capacity=SESSIONS)
    shadow_ids = shadow_server.open_sessions(SESSIONS)
    for raw, _normalized in request_rounds:
        shadow_server.decide_now(shadow_ids, raw)

    best_compiled = max(compiled_rates)
    best_gru = max(gru_rates)
    summary = {
        "benchmark": "serving_throughput",
        "sessions": SESSIONS,
        "steps_per_round": STEPS,
        "rounds": ROUNDS,
        "hidden_size": HIDDEN_SIZE,
        "fsm_states": compiled.num_states,
        "fsm_observations": compiled.num_observations,
        "compiled_decisions_per_s": round(best_compiled, 1),
        "gru_decisions_per_s": round(best_gru, 1),
        "speedup": round(best_compiled / best_gru, 2),
        "compiled_rates": [round(r, 1) for r in compiled_rates],
        "gru_rates": [round(r, 1) for r in gru_rates],
        "server_compiled_decisions_per_s": round(max(server_compiled_rates), 1),
        "server_gru_decisions_per_s": round(max(server_gru_rates), 1),
        "server_speedup": round(max(server_compiled_rates) / max(server_gru_rates), 2),
        "fallback_fraction": round(
            compiled.fallback_count / max(compiled.decision_count, 1), 4
        ),
        "shadow_fidelity": round(shadow.fidelity, 4),
        "shadow_decisions": shadow.decisions,
        "shadow_divergences": shadow.divergences,
    }
    print()
    print(json.dumps(summary, indent=2))
    (tmp_path / "serving_throughput.json").write_text(json.dumps(summary, indent=2))
    output_dir = os.environ.get("BENCH_OUTPUT_DIR")
    if output_dir:
        target = Path(output_dir)
        target.mkdir(parents=True, exist_ok=True)
        (target / "BENCH_serving_throughput.json").write_text(
            json.dumps(summary, indent=2) + "\n"
        )

    assert 0.0 <= shadow.fidelity <= 1.0
    assert best_compiled / best_gru >= MIN_ASSERTED_SPEEDUP, summary
