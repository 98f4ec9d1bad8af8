"""Micro-benchmark: sequential vs batched rollout collection.

Measures steps/second of the rollout collector one episode at a time
(one-trace ``collect_batch`` calls, the sequential view) against one
lockstep batch on the same sampled traces with the paper-scale GRU-128
policy, prints a JSON summary, and asserts the batched call keeps a
clear lead.  The hard assertion defaults to a regression floor so a
noisy CI worker does not flake the suite, and can be tightened via
ROLLOUT_BENCH_MIN_SPEEDUP.

Knobs (environment variables):

* ``ROLLOUT_BENCH_BATCH`` — batch size B (default 16, the number the
  perf trajectory tracks); the CI benchmark-smoke job runs a small B.
* ``ROLLOUT_BENCH_ROUNDS`` — measurement rounds, best-of (default 5).
* ``BENCH_OUTPUT_DIR`` — when set, the JSON summary is also written to
  ``$BENCH_OUTPUT_DIR/BENCH_rollout_throughput.json`` so CI can upload
  it as an artifact and the repo can accumulate perf evidence under
  ``benchmarks/results/``.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

from repro.drl.policy import PolicyConfig, RecurrentPolicyValueNet
from repro.drl.rollout import BatchedRolloutCollector
from repro.env.reward import RewardConfig
from repro.env.vector_env import VectorStorageAllocationEnv
from repro.storage.simulator import StorageSystemConfig
from repro.workloads.generator import GeneratorConfig, StandardWorkloadGenerator
from repro.workloads.sampler import RealTraceSampler

BATCH_SIZE = int(os.environ.get("ROLLOUT_BENCH_BATCH", "16"))
ROUNDS = int(os.environ.get("ROLLOUT_BENCH_ROUNDS", "5"))
# Hard floor: batched collection slower than sequential is a real
# regression even on a loaded machine.  Shared CI runners are too noisy
# for the headline number (the JSON records the measured value); tighten
# locally with e.g. ROLLOUT_BENCH_MIN_SPEEDUP=3.
MIN_ASSERTED_SPEEDUP = float(os.environ.get("ROLLOUT_BENCH_MIN_SPEEDUP", "1.0"))


def _steps_per_second(collect, traces) -> float:
    start = time.perf_counter()
    trajectories = collect(traces)
    elapsed = time.perf_counter() - start
    return sum(len(t) for t in trajectories) / elapsed


def test_bench_rollout_throughput(tmp_path):
    system_config = StorageSystemConfig()
    generator = StandardWorkloadGenerator(system_config, GeneratorConfig(), rng=0)
    suite = generator.generate_suite(duration=48)
    traces = RealTraceSampler(suite, rng=1).sample_many(BATCH_SIZE)
    reward_config = RewardConfig(mode="per_step_penalty")
    policy = RecurrentPolicyValueNet(PolicyConfig(hidden_size=128), rng=5)

    collector = BatchedRolloutCollector(
        VectorStorageAllocationEnv(system_config, reward_config), rng=0
    )

    def one_at_a_time(traces):
        return [
            trajectory
            for trace in traces
            for trajectory in collector.collect_batch(policy, [trace], greedy=False)
        ]

    def lockstep(traces):
        return collector.collect_batch(policy, traces, greedy=False)

    # Warm-up: first calls pay one-time costs (interval caches, BLAS init).
    one_at_a_time(traces[:4])
    lockstep(traces[:4])

    sequential_rates = []
    batched_rates = []
    for _ in range(ROUNDS):
        sequential_rates.append(_steps_per_second(one_at_a_time, traces))
        batched_rates.append(_steps_per_second(lockstep, traces))

    best_sequential = max(sequential_rates)
    best_batched = max(batched_rates)
    summary = {
        "benchmark": "rollout_throughput",
        "batch_size": BATCH_SIZE,
        "hidden_size": 128,
        "rounds": ROUNDS,
        "kernel": "numpy",
        "rng_family": "philox",
        "sequential_steps_per_s": round(best_sequential, 1),
        "batched_steps_per_s": round(best_batched, 1),
        "speedup": round(best_batched / best_sequential, 2),
        "sequential_rates": [round(r, 1) for r in sequential_rates],
        "batched_rates": [round(r, 1) for r in batched_rates],
    }
    print()
    print(json.dumps(summary, indent=2))
    (tmp_path / "rollout_throughput.json").write_text(json.dumps(summary, indent=2))
    output_dir = os.environ.get("BENCH_OUTPUT_DIR")
    if output_dir:
        target = Path(output_dir)
        target.mkdir(parents=True, exist_ok=True)
        (target / "BENCH_rollout_throughput.json").write_text(
            json.dumps(summary, indent=2) + "\n"
        )

    assert best_batched / best_sequential >= MIN_ASSERTED_SPEEDUP, summary
