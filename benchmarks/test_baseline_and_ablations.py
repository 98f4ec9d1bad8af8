"""Design-choice ablations of the simulator.

The ablations quantify the simulator's design choices:
migration penalty, cache-miss rate, and the polling (no work stealing)
dispatcher vs an idealised proportional dispatcher.  The handcrafted
FSM's makespan against the no-migration default (the paper's §4.3.2
text claim, ~20% in its UAT environment) is a claim row of the
scorecard (``benchmarks/scorecard.json``, ``EXPERIMENTS.md``).
"""

from __future__ import annotations

from repro.agents import DefaultPolicy, GreedyUtilizationPolicy, HandcraftedFSMPolicy
from repro.agents.proportional import ProportionalAllocationPolicy
from repro.pipeline.evaluation import compare_agents, comparison_table, relative_reduction
from repro.storage.simulator import StorageSystemConfig
from repro.utils.tables import format_table
from repro.workloads import GeneratorConfig, RealTraceSampler, StandardWorkloadGenerator


def _real_traces(config, count=8, seed=0):
    generator = StandardWorkloadGenerator(config, GeneratorConfig(), rng=seed)
    suite = generator.generate_suite(duration=48, rng=seed + 1)
    return RealTraceSampler(suite, rng=seed + 2).sample_many(count, rng=seed + 3)


def test_ablation_expert_baselines():
    config = StorageSystemConfig()
    traces = _real_traces(config, count=8, seed=1)
    agents = [
        DefaultPolicy(),
        HandcraftedFSMPolicy(),
        GreedyUtilizationPolicy(),
        ProportionalAllocationPolicy(config),
    ]
    results = compare_agents(agents, traces, system_config=config, episode_seed=1)
    print()
    print(comparison_table(results))
    default = results["default"]
    for name, evaluation in results.items():
        if name != "default":
            print(f"{name}: {100 * relative_reduction(default, evaluation):.1f}% vs default")
    assert results["greedy_utilization"].mean_makespan() <= default.mean_makespan()


def test_ablation_migration_penalty():
    """Higher migration penalties erode the benefit of reactive rebalancing."""
    rows = []
    for penalty in (0.0, 0.2, 0.5):
        config = StorageSystemConfig(migration_penalty=penalty)
        traces = _real_traces(config, count=5, seed=2)
        results = compare_agents(
            [DefaultPolicy(), GreedyUtilizationPolicy()],
            traces,
            system_config=config,
            episode_seed=2,
        )
        reduction = relative_reduction(results["default"], results["greedy_utilization"])
        rows.append([penalty, results["default"].mean_makespan(),
                     results["greedy_utilization"].mean_makespan(), 100 * reduction])
    print()
    print(format_table(["penalty", "default", "greedy", "reduction_%"], rows,
                       title="Migration-penalty ablation"))
    assert rows[0][3] >= rows[-1][3] - 5.0  # benefit should not grow with penalty


def test_ablation_cache_miss_rate():
    """Higher cache-miss rates push more work to KV/RV and change the optimum split."""
    rows = []
    for miss in (0.1, 0.3, 0.6):
        config = StorageSystemConfig(cache_miss_rate=miss)
        traces = _real_traces(config, count=5, seed=3)
        results = compare_agents(
            [DefaultPolicy(), GreedyUtilizationPolicy()],
            traces,
            system_config=config,
            episode_seed=3,
        )
        rows.append(
            [miss, results["default"].mean_makespan(), results["greedy_utilization"].mean_makespan()]
        )
    print()
    print(format_table(["miss_rate", "default", "greedy"], rows, title="Cache-miss ablation"))
    assert len(rows) == 3


def test_ablation_dispatcher():
    """Polling (no work stealing) vs an idealised proportional dispatcher."""
    rows = []
    for dispatcher in ("polling", "proportional"):
        config = StorageSystemConfig(dispatcher=dispatcher)
        traces = _real_traces(config, count=5, seed=4)
        results = compare_agents(
            [DefaultPolicy(), GreedyUtilizationPolicy()],
            traces,
            system_config=config,
            episode_seed=4,
        )
        rows.append(
            [dispatcher, results["default"].mean_makespan(),
             results["greedy_utilization"].mean_makespan()]
        )
    print()
    print(format_table(["dispatcher", "default", "greedy"], rows, title="Dispatcher ablation"))
    # The idealised dispatcher can only help (lower or equal makespan).
    assert rows[1][1] <= rows[0][1] + 1e-9
