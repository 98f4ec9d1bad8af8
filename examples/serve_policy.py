"""Train, extract, compile and serve a migration policy end to end.

Run with::

    python examples/serve_policy.py [--sessions 200] [--rounds 20]

Runs the scaled-down learning-aided pipeline, compiles the extracted
FSM into the dense serving artifact, then stands up a micro-batching
:class:`PolicyServer` on the compiled fast path with the GRU policy in
shadow mode and drives a synthetic request stream of concurrent
sessions through it — printing decision throughput, the backend
comparison and the serving-time fidelity counters at the end.
"""

from __future__ import annotations

import argparse
import time

import numpy as np

from repro.drl.rollout import BatchedRolloutCollector
from repro.engine import (
    AgentBatchBackend,
    CompiledFSMBackend,
    EvaluationEngine,
    GRUPolicyBackend,
)
from repro.env.vector_env import VectorStorageAllocationEnv
from repro.pipeline.experiments import small_pipeline_config
from repro.pipeline.learning_aided import LearningAidedPipeline
from repro.serving import PolicyServer, ShadowEvaluator
from repro.storage.migration import MigrationAction


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--sessions", type=int, default=200,
                        help="concurrent serving sessions (default 200)")
    parser.add_argument("--rounds", type=int, default=20,
                        help="decision rounds to serve (default 20)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--artifact", type=str, default=None,
                        help="also save the compiled artifact to this path")
    parser.add_argument(
        "--engine-backend", choices=("interpreted", "compiled", "gru"),
        default=None,
        help="also run a closed-loop evaluation of the policy on the "
             "held-out traces through the unified inference engine with "
             "this backend (the exact decision backend mounted in the "
             "server above, driven in simulator lockstep)",
    )
    args = parser.parse_args()

    print("1/4  training + extracting (scaled-down pipeline)...")
    config = small_pipeline_config(
        seed=args.seed, num_real_traces=12, num_eval_traces=6
    )
    pipeline = LearningAidedPipeline(config)
    result = pipeline.run()
    env = pipeline.make_env()

    print("2/4  compiling the FSM into the serving fast path...")
    compiled = result.compiled_fsm_policy(env)
    print(f"     {compiled.num_states} states x {compiled.num_observations} "
          f"observation codes, every cell filled")
    if args.artifact:
        compiled.save(args.artifact)
        print(f"     artifact saved to {args.artifact}")

    gru_backend = GRUPolicyBackend(result.policy)

    print(f"3/4  serving {args.sessions} concurrent sessions, "
          f"{args.rounds} rounds (GRU in shadow mode)...")
    shadow = ShadowEvaluator(CompiledFSMBackend(compiled), gru_backend)
    server = PolicyServer(
        shadow, env.observation_encoder, initial_capacity=args.sessions
    )
    sessions = server.open_sessions(args.sessions)

    # Synthetic request stream: each session replays the pipeline's
    # transition-dataset observations from its own offset.
    pool = np.asarray(result.transition_dataset.raw_observations, dtype=float)
    offsets = np.arange(args.sessions) * 17
    start = time.perf_counter()
    for round_index in range(args.rounds):
        raw = pool[(offsets + round_index) % len(pool)]
        server.decide_now(sessions, raw)
    elapsed = time.perf_counter() - start

    stats = server.stats()
    print(f"\nserved {stats.decisions} decisions in {elapsed:.3f}s "
          f"({stats.decisions / elapsed:,.0f} decisions/s, "
          f"mean batch {stats.mean_batch_size:.0f})")
    named = {
        MigrationAction(i).short_name: int(count)
        for i, count in enumerate(stats.action_counts)
        if count
    }
    print(f"actions served: {named}")
    fidelity = shadow.summary()
    print(f"shadow fidelity vs GRU: {fidelity['fidelity']:.4f} "
          f"({fidelity['divergences']}/{fidelity['decisions']} divergences)")
    if fidelity["divergence_pairs"]:
        print(f"divergence pairs: {fidelity['divergence_pairs']}")

    # The batched collector runs the exact policy instance the GRU
    # backend serves with, so rollout collection and online serving
    # share one forward.
    print("\n4/4  batched rollout with the served policy...")
    collector = BatchedRolloutCollector(
        VectorStorageAllocationEnv(config.system, config.reward), rng=args.seed
    )
    start = time.perf_counter()
    trajectories = collector.collect_batch(gru_backend.policy, result.eval_traces)
    elapsed = time.perf_counter() - start
    steps = sum(len(t) for t in trajectories)
    print(f"collected {len(trajectories)} episodes, {steps} steps in "
          f"{elapsed:.3f}s ({steps / elapsed:,.0f} steps/s)")

    if args.engine_backend:
        # Same DecisionBackend objects the server mounts, now driven in
        # simulator lockstep by the evaluation engine: one decision
        # contract across serving, rollouts and evaluation.
        engine = EvaluationEngine(config.system, config.reward)
        if args.engine_backend == "gru":
            backend, label = gru_backend, "gru_drl"
        elif args.engine_backend == "compiled":
            backend, label = CompiledFSMBackend(compiled), "extracted_fsm[compiled]"
        else:
            backend = AgentBatchBackend.from_agent(
                result.fsm_agent(env), engine.encoder
            )
            label = "extracted_fsm[interpreted]"
        print(f"\n+    closed-loop engine evaluation "
              f"[{label}] over {len(result.eval_traces)} held-out traces...")
        start = time.perf_counter()
        evaluation = engine.evaluate(
            backend, result.eval_traces, episode_seed=args.seed, agent_name=label
        )
        elapsed = time.perf_counter() - start
        decisions = sum(evaluation.makespans)
        print(f"mean makespan {evaluation.mean_makespan():.2f} over "
              f"{len(evaluation.makespans)} traces ({decisions} decisions in "
              f"{elapsed:.3f}s, {decisions / elapsed:,.0f} decisions/s)")


if __name__ == "__main__":
    main()
