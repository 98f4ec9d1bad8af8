"""Figure-4-style comparison of all controllers on sampled real workloads.

Run with::

    python examples/compare_policies.py [--traces N] [--epochs E]

Trains the scaled-down pipeline, then evaluates the production default,
the handcrafted expert FSM, the greedy and proportional heuristics, the
GRU DRL policy and the extracted FSM on the held-out "real" traces with
matched simulator seeds, printing the per-trace makespan table and the
relative reductions.
"""

from __future__ import annotations

import argparse

from repro.agents import DefaultPolicy, GreedyUtilizationPolicy, HandcraftedFSMPolicy
from repro.agents.proportional import ProportionalAllocationPolicy
from repro.pipeline.evaluation import compare_agents, comparison_table, relative_reduction
from repro.pipeline.experiments import small_pipeline_config
from repro.pipeline.learning_aided import LearningAidedPipeline


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--traces", type=int, default=16, help="number of real traces to sample")
    parser.add_argument("--epochs", type=int, default=20, help="A2C epochs per curriculum phase")
    args = parser.parse_args()

    config = small_pipeline_config(
        seed=0,
        standard_epochs=args.epochs,
        real_epochs=args.epochs,
        num_real_traces=args.traces,
        num_eval_traces=min(10, max(1, args.traces // 2)),
    )
    pipeline = LearningAidedPipeline(config)
    result = pipeline.run()

    env = pipeline.make_env()
    agents = [
        DefaultPolicy(),
        HandcraftedFSMPolicy(),
        GreedyUtilizationPolicy(),
        ProportionalAllocationPolicy(config.system),
        result.drl_agent(env),
        result.fsm_agent(env),
    ]
    results = compare_agents(
        agents, result.eval_traces, system_config=config.system, episode_seed=0
    )

    print(comparison_table(results))
    default = results["default"]
    print("\nRelative makespan reduction vs the default setting:")
    for name, evaluation in results.items():
        if name == "default":
            continue
        print(f"  {name:26s} {100 * relative_reduction(default, evaluation):6.1f}%")


if __name__ == "__main__":
    main()
