"""Collect policy rollouts with multi-process sharding and verify determinism.

Run with::

    PYTHONPATH=src python examples/parallel_rollout.py --workers 2 --episodes 8

Collects the same seeded episode set twice — once in a single lockstep
batch, once sharded across a pool of worker processes — verifies the
trajectories are bit-identical, and prints per-path wall-clock times.
"""

from __future__ import annotations

import argparse
import time

import numpy as np

from repro.drl.policy import PolicyConfig, RecurrentPolicyValueNet
from repro.drl.rollout import BatchedRolloutCollector, derive_episode_streams
from repro.drl.worker_pool import PersistentWorkerPool
from repro.env.vector_env import VectorStorageAllocationEnv
from repro.storage.simulator import StorageSystemConfig
from repro.workloads.generator import StandardWorkloadGenerator
from repro.workloads.sampler import RealTraceSampler


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workers", type=int, default=2)
    parser.add_argument("--episodes", type=int, default=8)
    parser.add_argument("--duration", type=int, default=32)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--epochs", type=int, default=1,
        help="number of collection epochs (the pool amortises its spawn "
             "cost across epochs)",
    )
    args = parser.parse_args()

    system = StorageSystemConfig()
    generator = StandardWorkloadGenerator(system, rng=args.seed)
    standard = generator.generate_suite(duration=args.duration, rng=args.seed + 1)
    sampler = RealTraceSampler(standard, rng=args.seed + 2)
    traces = sampler.sample_many(args.episodes, rng=args.seed + 3)
    policy = RecurrentPolicyValueNet(PolicyConfig(hidden_size=32), rng=args.seed)
    base_seed = 1234

    start = time.perf_counter()
    episode_rngs, action_rngs = derive_episode_streams(base_seed, len(traces))
    batched = BatchedRolloutCollector(VectorStorageAllocationEnv(system)).collect_batch(
        policy, traces, episode_rngs=episode_rngs, action_rngs=action_rngs
    )
    batched_s = time.perf_counter() - start

    start = time.perf_counter()
    with PersistentWorkerPool(system, num_workers=args.workers) as pool:
        for _ in range(max(0, args.epochs - 1)):
            pool.collect(policy, traces, base_seed=base_seed)
        parallel = pool.collect(policy, traces, base_seed=base_seed)
    parallel_s = (time.perf_counter() - start) / max(1, args.epochs)

    for reference, sharded in zip(batched, parallel):
        assert reference.trace_name == sharded.trace_name
        assert reference.makespan == sharded.makespan
        np.testing.assert_array_equal(reference.observations(), sharded.observations())
        np.testing.assert_array_equal(reference.actions(), sharded.actions())
        np.testing.assert_array_equal(reference.rewards(), sharded.rewards())

    steps = sum(len(t) for t in batched)
    print(f"{len(traces)} episodes, {steps} environment steps")
    print(f"lockstep batch (1 process):   {batched_s:.2f}s "
          f"({steps / batched_s:.0f} steps/s)")
    print(f"worker pool ({args.workers} workers): {parallel_s:.2f}s/epoch "
          f"({steps / parallel_s:.0f} steps/s)")
    print("trajectories bit-identical: True")


if __name__ == "__main__":
    main()
