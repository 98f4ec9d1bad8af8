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

Re-pinned once when every episode's randomness moved onto Philox lanes
(idle cores and the policy's sampling and exploration draw from
``episode_lanes``, not per-episode ``np.random.Generator`` streams).
The draws changed, not the model: over 32 episode seeds on 8 fixture
traces, each baseline's mean makespan and migration count under the
lanes lies inside the range the generator streams gave across those
seeds (CHANGES.md has the table).
"""

import numpy as np
import pytest

from repro.agents.default import DefaultPolicy
from repro.agents.greedy import GreedyUtilizationPolicy
from repro.agents.proportional import ProportionalAllocationPolicy
from repro.drl.a2c import A2CConfig, A2CTrainer
from repro.drl.policy import PolicyConfig, RecurrentPolicyValueNet
from repro.drl.rollout import BatchedRolloutCollector
from repro.env.reward import RewardConfig
from repro.env.vector_env import VectorStorageAllocationEnv
from repro.pipeline.evaluation import compare_agents
from repro.storage.levels import Level

# Exact integer pins.
GOLDEN_MAKESPANS = {
    "default": [35, 32, 27, 27],
    "greedy_utilization": [26, 32, 28, 24],
    "proportional_allocation": [29, 33, 27, 24],
}
GOLDEN_MIGRATIONS = {
    "default": [0, 0, 0, 0],
    "greedy_utilization": [5, 17, 21, 20],
    "proportional_allocation": [1, 1, 2, 4],
}
# Float pins, asserted to 1e-12 relative tolerance.
GOLDEN_TOTAL_REWARDS = {
    "default": [2.857142857142857, 3.125, 3.7037037037037037, 3.7037037037037037],
    "greedy_utilization": [3.8461538461538463, 3.125,
                           3.5714285714285716, 4.166666666666667],
    "proportional_allocation": [3.4482758620689653, 3.0303030303030303,
                                3.7037037037037037, 4.166666666666667],
}
GOLDEN_FIRST_EPISODE_MEAN_UTILIZATION = {
    "default": {Level.NORMAL: 0.9561682755918207, Level.KV: 0.5420154965702949,
                Level.RV: 0.4071809470177732},
    "greedy_utilization": {Level.NORMAL: 0.9576730956357788, Level.KV: 0.962846992963169,
                           Level.RV: 0.9631397805113485},
    "proportional_allocation": {Level.NORMAL: 0.9940689846908474, Level.KV: 0.6541566337917352,
                                Level.RV: 0.7324644801598986},
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
TRAINED_HISTORY_MAKESPANS = [69.0, 38.0, 49.0]
TRAINED_POLICY_LOSSES = [0.06474296150572471, 0.0972084432615059,
                         0.0767767682140574]
TRAINED_VALUE_LOSSES = [15.184444728534658, 14.940882694843298,
                        15.073443129233357]
TRAINED_GREEDY_MAKESPANS = [41, 67, 51, 33]
TRAINED_GREEDY_ACTIONS_0 = [6] + [5] * 40
TRAINED_GREEDY_ACTIONS_3 = [6, 3, 3, 3, 3, 3, 3, 3] + [5] * 20 + [3] * 5
TRAINED_GREEDY_VALUE_ENDPOINTS = {
    0: (-0.08071659006978125, 0.5205494928771295),
    1: (-0.02607869509208257, 0.46846157308275466),
    2: (-0.12387574541664044, 0.47470679796414034),
    3: (0.049124021878081625, 0.21815830820689955),
}
TRAINED_GREEDY_HIDDEN_MEANS = [0.31186387873436805, 0.25133212725827686,
                               0.261293900708115, 0.25330406930740446]
TRAINED_GREEDY_OBS_SUMS = [171.4917711312114, 277.3314545843069,
                           204.82109668085565, 148.38216411491328]
TRAINED_SAMPLED_MAKESPANS = [39, 63]
TRAINED_SAMPLED_ACTIONS_0 = [
    2, 4, 2, 5, 1, 5, 6, 4, 0, 3, 4, 1, 4, 2, 4, 5, 4, 6, 3, 4, 6, 5, 4, 4,
    4, 6, 3, 3, 3, 5, 5, 0, 5, 5, 4, 2, 3, 3, 4,
]
TRAINED_SAMPLED_VALUE_SUMS = [25.352135204153623, 18.922822815320895]
TRAINED_SAMPLED_HIDDEN_MEANS = [0.3160097140870638, 0.25394353168935335]
TRAINED_SAMPLED_OBS_SUMS = [165.24203417997217, 271.30018692891997]


@pytest.fixture(scope="module")
def trained_policy_rollouts(system_config, real_traces):
    reward_config = RewardConfig(mode="per_step_penalty")
    policy = RecurrentPolicyValueNet(PolicyConfig(hidden_size=12), rng=21)
    trainer = A2CTrainer(
        policy, system_config, reward_config, A2CConfig(episodes_per_epoch=2, n_step=4), rng=9
    )
    history = trainer.train(real_traces[:2], epochs=3)
    venv = VectorStorageAllocationEnv(system_config, reward_config)
    greedy = BatchedRolloutCollector(venv, rng=2024).collect_batch(
        policy, real_traces, greedy=True
    )
    sampled = BatchedRolloutCollector(venv, rng=777).collect_batch(
        policy, real_traces[:2], greedy=False, epsilon=0.1
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
