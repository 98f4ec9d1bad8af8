"""Golden-trace regression pins for the seeded evaluation harness.

These tests pin the exact seeded ``compare_agents`` outputs (makespans,
total rewards, migration counts, utilisation statistics) of the three
no-training baselines on the shared fixture workload.  They exist so
simulator/environment hot-path refactors cannot silently change
semantics: any drift in the numbers below is a behaviour change, not a
cleanup, and must be explained (and the goldens deliberately re-pinned)
in the PR that causes it.

The fixture workload is fully seeded (generator rng=123, suite rng=7,
duration 24, sampler rng=11, sample rng=13 — see ``conftest.py``) and
every episode runs with ``episode_seed=0``, so all values are exact
across runs, platforms and worker layouts.
"""

import numpy as np
import pytest

from repro.agents.default import DefaultPolicy
from repro.agents.greedy import GreedyUtilizationPolicy
from repro.agents.proportional import ProportionalAllocationPolicy
from repro.drl.a2c import A2CConfig, A2CTrainer
from repro.drl.policy import PolicyConfig, RecurrentPolicyValueNet
from repro.drl.rollout import BatchedRolloutCollector, derive_episode_streams
from repro.env.reward import RewardConfig
from repro.env.vector_env import VectorStorageAllocationEnv
from repro.pipeline.evaluation import compare_agents
from repro.storage.levels import Level

# Exact integer pins.
GOLDEN_MAKESPANS = {
    "default": [36, 32, 27, 27],
    "greedy_utilization": [27, 33, 27, 26],
    "proportional_allocation": [31, 33, 26, 26],
}
GOLDEN_MIGRATIONS = {
    "default": [0, 0, 0, 0],
    "greedy_utilization": [6, 17, 17, 22],
    "proportional_allocation": [1, 1, 3, 4],
}
# Float pins, asserted to 1e-12 relative tolerance.
GOLDEN_TOTAL_REWARDS = {
    "default": [2.7777777777777777, 3.125, 3.7037037037037037, 3.7037037037037037],
    "greedy_utilization": [3.7037037037037037, 3.0303030303030303,
                           3.7037037037037037, 3.8461538461538463],
    "proportional_allocation": [3.225806451612903, 3.0303030303030303,
                                3.8461538461538463, 3.8461538461538463],
}
GOLDEN_FIRST_EPISODE_MEAN_UTILIZATION = {
    "default": {Level.NORMAL: 0.9573858234920478, Level.KV: 0.5198134160816055,
                Level.RV: 0.4105258674055475},
    "greedy_utilization": {Level.NORMAL: 0.9330449967130808, Level.KV: 0.9032902108503514,
                           Level.RV: 0.94050417340286},
    "proportional_allocation": {Level.NORMAL: 0.9554759915325451, Level.KV: 0.6036542896431548,
                                Level.RV: 0.6921267529323167},
}


@pytest.fixture(scope="module")
def golden_comparison(system_config, real_traces):
    agents = [
        DefaultPolicy(),
        GreedyUtilizationPolicy(),
        ProportionalAllocationPolicy(system_config),
    ]
    return compare_agents(agents, real_traces, system_config=system_config, episode_seed=0)


class TestGoldenTraces:
    def test_trace_identity(self, golden_comparison, real_traces):
        assert [trace.name for trace in real_traces] == [
            "real/000", "real/001", "real/002", "real/003",
        ]
        assert set(golden_comparison) == set(GOLDEN_MAKESPANS)

    @pytest.mark.parametrize("agent_name", sorted(GOLDEN_MAKESPANS))
    def test_makespans_pinned(self, golden_comparison, agent_name):
        assert golden_comparison[agent_name].makespans == GOLDEN_MAKESPANS[agent_name]

    @pytest.mark.parametrize("agent_name", sorted(GOLDEN_MIGRATIONS))
    def test_migration_counts_pinned(self, golden_comparison, agent_name):
        migrations = [e.migrations for e in golden_comparison[agent_name].episodes]
        assert migrations == GOLDEN_MIGRATIONS[agent_name]

    @pytest.mark.parametrize("agent_name", sorted(GOLDEN_TOTAL_REWARDS))
    def test_total_rewards_pinned(self, golden_comparison, agent_name):
        assert golden_comparison[agent_name].total_rewards == pytest.approx(
            GOLDEN_TOTAL_REWARDS[agent_name], rel=1e-12, abs=1e-12
        )

    @pytest.mark.parametrize("agent_name", sorted(GOLDEN_FIRST_EPISODE_MEAN_UTILIZATION))
    def test_mean_utilization_pinned(self, golden_comparison, agent_name):
        golden = GOLDEN_FIRST_EPISODE_MEAN_UTILIZATION[agent_name]
        measured = golden_comparison[agent_name].episodes[0].mean_utilization()
        for level, value in golden.items():
            assert measured[level] == pytest.approx(value, rel=1e-12, abs=1e-12), level

    def test_summary_dict_exposes_reward(self, golden_comparison):
        summary = golden_comparison["default"].as_dict()
        assert summary["mean_total_reward"] == pytest.approx(
            sum(GOLDEN_TOTAL_REWARDS["default"]) / 4, rel=1e-12
        )
        assert summary["total_makespan"] == sum(GOLDEN_MAKESPANS["default"])


# ----------------------------------------------------------------------
# Trained-policy golden trace
# ----------------------------------------------------------------------
# A small fixed-seed A2C training run (hidden 12, 3 epochs of 2 episodes,
# n-step 4) followed by one greedy and one sampled batched rollout of the
# trained weights.  This pins the *policy path* — GRU forward, batched
# CDF sampling, epsilon exploration, value head — which the baseline-
# agent goldens above never touch, so refactors of the inference kernels
# (buffered GRU, batched draws) cannot silently change behaviour.
TRAINED_HISTORY_MAKESPANS = [35.5, 61.5, 56.0]
TRAINED_POLICY_LOSSES = [0.11600420420845989, 0.07990632470201373,
                         -0.03679128108503107]
TRAINED_VALUE_LOSSES = [14.859691079452048, 15.127238496554613,
                        15.101128196643531]
TRAINED_GREEDY_MAKESPANS = [41, 67, 51, 33]
TRAINED_GREEDY_ACTIONS_0 = [6] + [5] * 40
TRAINED_GREEDY_ACTIONS_3 = [6, 3, 3, 3, 3, 3, 3, 3] + [5] * 20 + [3] * 5
TRAINED_GREEDY_VALUE_ENDPOINTS = {
    0: (-0.08024745720139852, 0.5227890452199159),
    1: (-0.025602535082521454, 0.46882226571077457),
    2: (-0.12342895345617998, 0.474428983849165),
    3: (0.04931406490979116, 0.21805272853996802),
}
TRAINED_GREEDY_HIDDEN_MEANS = [0.3127292731069296, 0.25236881864643307,
                               0.25994973490609724, 0.25426312649831284]
TRAINED_GREEDY_OBS_SUMS = [171.57247926074325, 276.7373860843072,
                           204.02452282909883, 149.5404898961558]
TRAINED_SAMPLED_MAKESPANS = [52, 54]
TRAINED_SAMPLED_ACTIONS_0 = [
    4, 3, 5, 5, 5, 4, 6, 2, 6, 4, 2, 0, 5, 5, 5, 4, 6, 4, 3, 3, 5, 0, 4, 0,
    5, 1, 5, 5, 3, 6, 5, 6, 6, 3, 5, 3, 5, 2, 5, 0, 4, 3, 0, 4, 2, 1, 4, 0,
    2, 5, 5, 5,
]
TRAINED_SAMPLED_VALUE_SUMS = [19.836697835814213, 17.085671931136222]
TRAINED_SAMPLED_HIDDEN_MEANS = [0.2676449506426933, 0.259245691016871]
TRAINED_SAMPLED_OBS_SUMS = [216.22897507516288, 242.64199498671888]


@pytest.fixture(scope="module")
def trained_policy_rollouts(system_config, real_traces):
    reward_config = RewardConfig(mode="per_step_penalty")
    policy = RecurrentPolicyValueNet(PolicyConfig(hidden_size=12), rng=21)
    trainer = A2CTrainer(
        policy, system_config, reward_config, A2CConfig(episodes_per_epoch=2, n_step=4), rng=9
    )
    history = trainer.train(real_traces[:2], epochs=3)
    collector = BatchedRolloutCollector(
        VectorStorageAllocationEnv(system_config, reward_config)
    )
    greedy_rngs = derive_episode_streams(2024, len(real_traces))
    greedy = collector.collect_batch(
        policy, real_traces, greedy=True,
        episode_rngs=greedy_rngs[0], action_rngs=greedy_rngs[1],
    )
    sampled_rngs = derive_episode_streams(777, 2)
    sampled = collector.collect_batch(
        policy, real_traces[:2], greedy=False, epsilon=0.1,
        episode_rngs=sampled_rngs[0], action_rngs=sampled_rngs[1],
    )
    return history, greedy, sampled


class TestTrainedPolicyGoldenTrace:
    def test_training_history_pinned(self, trained_policy_rollouts):
        history, _, _ = trained_policy_rollouts
        assert history.makespans().tolist() == TRAINED_HISTORY_MAKESPANS
        assert [r.policy_loss for r in history.records] == pytest.approx(
            TRAINED_POLICY_LOSSES, rel=1e-10, abs=1e-12
        )
        assert [r.value_loss for r in history.records] == pytest.approx(
            TRAINED_VALUE_LOSSES, rel=1e-10, abs=1e-12
        )

    def test_greedy_rollout_pinned(self, trained_policy_rollouts):
        _, greedy, _ = trained_policy_rollouts
        assert [t.makespan for t in greedy] == TRAINED_GREEDY_MAKESPANS
        assert greedy[0].actions().tolist() == TRAINED_GREEDY_ACTIONS_0
        assert greedy[3].actions().tolist() == TRAINED_GREEDY_ACTIONS_3
        for i, trajectory in enumerate(greedy):
            assert not trajectory.truncated
            values = trajectory.value_estimates()
            first, last = TRAINED_GREEDY_VALUE_ENDPOINTS[i]
            assert float(values[0]) == pytest.approx(first, rel=1e-10, abs=1e-12), i
            assert float(values[-1]) == pytest.approx(last, rel=1e-10, abs=1e-12), i
            assert float(trajectory.hidden_states_after().mean()) == pytest.approx(
                TRAINED_GREEDY_HIDDEN_MEANS[i], rel=1e-10, abs=1e-12
            ), i
            assert float(trajectory.observations().sum()) == pytest.approx(
                TRAINED_GREEDY_OBS_SUMS[i], rel=1e-10, abs=1e-12
            ), i
            # per_step_penalty: total reward is exactly -makespan.
            assert trajectory.total_reward == -float(trajectory.makespan)

    def test_sampled_rollout_pinned(self, trained_policy_rollouts):
        _, _, sampled = trained_policy_rollouts
        assert [t.makespan for t in sampled] == TRAINED_SAMPLED_MAKESPANS
        assert sampled[0].actions().tolist() == TRAINED_SAMPLED_ACTIONS_0
        for i, trajectory in enumerate(sampled):
            assert float(trajectory.value_estimates().sum()) == pytest.approx(
                TRAINED_SAMPLED_VALUE_SUMS[i], rel=1e-10, abs=1e-12
            ), i
            assert float(trajectory.hidden_states_after().mean()) == pytest.approx(
                TRAINED_SAMPLED_HIDDEN_MEANS[i], rel=1e-10, abs=1e-12
            ), i
            assert float(trajectory.observations().sum()) == pytest.approx(
                TRAINED_SAMPLED_OBS_SUMS[i], rel=1e-10, abs=1e-12
            ), i
