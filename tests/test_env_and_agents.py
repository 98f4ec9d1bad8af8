"""Tests for the MDP environment (observation/action/reward) and baseline agents."""

import numpy as np
import pytest

from repro.agents import DefaultPolicy, GreedyUtilizationPolicy, HandcraftedFSMPolicy
from repro.agents.proportional import ProportionalAllocationPolicy
from repro.env.action import ActionSpace
from repro.env.environment import StorageAllocationEnv
from repro.env.observation import OBSERVATION_DIM, ObservationEncoder
from repro.env.reward import RewardConfig, compute_step_reward, compute_terminal_reward
from repro.errors import ConfigurationError, EnvironmentError_
from repro.storage.levels import Level
from repro.storage.migration import MigrationAction
from repro.storage.simulator import StorageSystemConfig


class TestObservationEncoder:
    def test_dimension_is_35(self, system_config, uniform_interval):
        encoder = ObservationEncoder(system_config)
        assert encoder.dimension == OBSERVATION_DIM == 35

    def test_build_and_raw_roundtrip(self, system_config, uniform_interval):
        encoder = ObservationEncoder(system_config)
        obs = encoder.build(
            {Level.NORMAL: 6, Level.KV: 3, Level.RV: 3},
            {Level.NORMAL: 0.5, Level.KV: 0.2, Level.RV: 0.9},
            uniform_interval,
        )
        raw = obs.raw()
        assert raw.shape == (35,)
        rebuilt = encoder.split_raw(raw)
        np.testing.assert_allclose(rebuilt.core_counts, obs.core_counts)
        np.testing.assert_allclose(rebuilt.ratio_vector, obs.ratio_vector)
        assert rebuilt.total_requests == obs.total_requests

    def test_normalized_range(self, system_config, uniform_interval):
        encoder = ObservationEncoder(system_config)
        obs = encoder.build(
            {Level.NORMAL: 6, Level.KV: 3, Level.RV: 3},
            {Level.NORMAL: 1.0, Level.KV: 0.0, Level.RV: 0.5},
            uniform_interval,
        )
        normalized = encoder.normalize(obs)
        assert normalized.shape == (35,)
        assert np.all(np.abs(normalized) <= 1.5)

    def test_capacity_ratio_and_intensities(self, system_config, uniform_interval):
        encoder = ObservationEncoder(system_config)
        obs = encoder.build(
            {Level.NORMAL: 6, Level.KV: 2, Level.RV: 2},
            {Level.NORMAL: 0.5, Level.KV: 0.5, Level.RV: 0.5},
            uniform_interval,
        )
        assert obs.read_intensity_kb() > 0
        assert obs.write_intensity_kb() > 0
        total = obs.read_intensity_kb() + obs.write_intensity_kb()
        assert total == pytest.approx(uniform_interval.total_kb(), rel=1e-9)

    def test_split_raw_validation(self, system_config):
        encoder = ObservationEncoder(system_config)
        with pytest.raises(EnvironmentError_):
            encoder.split_raw(np.zeros(10))

    def test_nominal_requests_none_is_the_default(self, system_config):
        default = ObservationEncoder(system_config).constants()["nominal_requests"]
        assert ObservationEncoder(system_config, nominal_requests=None).constants() == (
            ObservationEncoder(system_config).constants()
        )
        assert np.isfinite(default) and default > 0
        assert ObservationEncoder(system_config, nominal_requests=123.0).constants()[
            "nominal_requests"
        ] == 123.0

    @pytest.mark.parametrize(
        "value", [0.0, -5.0, float("nan"), float("inf")], ids=["zero", "negative", "nan", "inf"]
    )
    def test_nominal_requests_must_be_finite_and_positive(self, system_config, value):
        """``0.0`` used to become the default and NaN/inf were accepted."""
        with pytest.raises(EnvironmentError_, match="nominal_requests"):
            ObservationEncoder(system_config, nominal_requests=value)


class TestActionSpaceAndReward:
    def test_valid_mask(self):
        space = ActionSpace()
        mask = space.valid_mask_from_counts([2, 1, 1], min_cores_per_level=1)
        assert mask[int(MigrationAction.NOOP)]
        assert mask[int(MigrationAction.NORMAL_TO_KV)]
        assert not mask[int(MigrationAction.KV_TO_NORMAL)]

    def test_reward_modes(self):
        from repro.storage.metrics import IntervalMetrics

        metrics = IntervalMetrics(
            interval=0,
            action=MigrationAction.NOOP,
            migration_applied=False,
            core_counts={Level.NORMAL: 6, Level.KV: 3, Level.RV: 3},
            utilization={Level.NORMAL: 1.0, Level.KV: 0.4, Level.RV: 0.6},
            incoming_kb={Level.NORMAL: 100.0, Level.KV: 50.0, Level.RV: 30.0},
            processed_kb={Level.NORMAL: 80.0, Level.KV: 50.0, Level.RV: 30.0},
            backlog_kb={Level.NORMAL: 20.0, Level.KV: 0.0, Level.RV: 0.0},
            capacity_kb={Level.NORMAL: 80.0, Level.KV: 120.0, Level.RV: 120.0},
            idle_cores={Level.NORMAL: 0, Level.KV: 0, Level.RV: 0},
        )
        assert compute_step_reward(RewardConfig(mode="inverse_makespan"), metrics) == 0.0
        assert compute_step_reward(
            RewardConfig(mode="per_step_penalty", step_penalty=1.0), metrics
        ) == -1.0
        pressure = compute_step_reward(
            RewardConfig(mode="bottleneck_pressure", step_penalty=0.0, balance_scale=1.0), metrics
        )
        assert pressure == pytest.approx(-(20.0 / 80.0))

    def test_terminal_reward(self):
        config = RewardConfig(mode="inverse_makespan", makespan_scale=100.0)
        assert compute_terminal_reward(config, 50) == pytest.approx(2.0)
        assert compute_terminal_reward(RewardConfig(mode="per_step_penalty"), 50) == 0.0
        with pytest.raises(ConfigurationError):
            compute_terminal_reward(config, 0)

    def test_invalid_mode(self):
        with pytest.raises(ConfigurationError):
            RewardConfig(mode="nope")


class TestEnvironment:
    def test_reset_returns_observation(self, env, short_trace):
        obs = env.reset(short_trace)
        assert obs.raw().shape == (35,)
        assert env.observation_dim == 35

    def test_step_before_reset_raises(self, system_config):
        env = StorageAllocationEnv(system_config)
        with pytest.raises(EnvironmentError_):
            env.step(0)

    def test_episode_terminates_and_reward_signs(self, env, short_trace):
        obs = env.reset(short_trace, rng=0)
        total_reward = 0.0
        steps = 0
        done = False
        while not done:
            result = env.step(MigrationAction.NOOP)
            total_reward += result.reward
            done = result.done
            steps += 1
            assert steps < 10_000
        assert steps == env.simulator.makespan
        assert steps >= len(short_trace)
        assert total_reward < 0  # per-step penalty mode

    def test_step_after_done_raises(self, env, short_trace):
        env.reset(short_trace, rng=0)
        while True:
            if env.step(0).done:
                break
        with pytest.raises(EnvironmentError_):
            env.step(0)

    def test_info_contents(self, env, short_trace):
        env.reset(short_trace, rng=0)
        result = env.step(MigrationAction.NORMAL_TO_KV)
        assert result.info["action_name"] == "N=>K"
        assert "interval_metrics" in result.info
        assert result.normalized_observation.shape == (35,)

    def test_valid_action_mask(self, env, short_trace):
        env.reset(short_trace, rng=0)
        mask = env.valid_action_mask()
        assert mask.shape == (7,)
        assert mask[0]

    def test_matched_seeds_reproducible(self, system_config, short_trace):
        makespans = []
        for _ in range(2):
            env = StorageAllocationEnv(system_config, rng=1)
            env.reset(short_trace, rng=5)
            while True:
                if env.step(0).done:
                    break
            makespans.append(env.simulator.makespan)
        assert makespans[0] == makespans[1]


class TestBaselineAgents:
    def _final_makespan(self, agent, env, trace, seed=0):
        obs = env.reset(trace, rng=seed)
        agent.reset()
        while True:
            result = env.step(agent.act(obs))
            obs = result.observation
            if result.done:
                return env.simulator.makespan

    def test_default_always_noop(self, env, short_trace):
        agent = DefaultPolicy()
        obs = env.reset(short_trace)
        assert agent.act(obs) is MigrationAction.NOOP

    def test_handcrafted_reacts_to_imbalance(self, system_config, uniform_interval):
        encoder = ObservationEncoder(system_config)
        agent = HandcraftedFSMPolicy(gap_threshold=0.1, cooldown=0)
        obs = encoder.build(
            {Level.NORMAL: 6, Level.KV: 3, Level.RV: 3},
            {Level.NORMAL: 0.95, Level.KV: 0.2, Level.RV: 0.5},
            uniform_interval,
        )
        action = agent.act(obs)
        assert action.destination is Level.NORMAL
        assert action.source is Level.KV

    def test_handcrafted_noop_when_balanced(self, system_config, uniform_interval):
        encoder = ObservationEncoder(system_config)
        agent = HandcraftedFSMPolicy(gap_threshold=0.2, cooldown=0)
        obs = encoder.build(
            {Level.NORMAL: 6, Level.KV: 3, Level.RV: 3},
            {Level.NORMAL: 0.5, Level.KV: 0.45, Level.RV: 0.55},
            uniform_interval,
        )
        assert agent.act(obs) is MigrationAction.NOOP

    def test_handcrafted_cooldown(self, system_config, uniform_interval):
        encoder = ObservationEncoder(system_config)
        agent = HandcraftedFSMPolicy(gap_threshold=0.1, cooldown=2)
        obs = encoder.build(
            {Level.NORMAL: 6, Level.KV: 3, Level.RV: 3},
            {Level.NORMAL: 0.95, Level.KV: 0.1, Level.RV: 0.5},
            uniform_interval,
        )
        assert agent.act(obs) is not MigrationAction.NOOP
        assert agent.act(obs) is MigrationAction.NOOP  # cooling down
        assert agent.act(obs) is MigrationAction.NOOP
        assert agent.act(obs) is not MigrationAction.NOOP

    def test_handcrafted_respects_min_cores(self, system_config, uniform_interval):
        encoder = ObservationEncoder(system_config)
        agent = HandcraftedFSMPolicy(gap_threshold=0.1, cooldown=0)
        obs = encoder.build(
            {Level.NORMAL: 10, Level.KV: 1, Level.RV: 1},
            {Level.NORMAL: 0.2, Level.KV: 0.9, Level.RV: 0.3},
            uniform_interval,
        )
        action = agent.act(obs)
        assert action.source is not Level.KV or action is MigrationAction.NOOP

    def test_greedy_moves_toward_hottest(self, system_config, uniform_interval):
        encoder = ObservationEncoder(system_config)
        agent = GreedyUtilizationPolicy()
        obs = encoder.build(
            {Level.NORMAL: 6, Level.KV: 3, Level.RV: 3},
            {Level.NORMAL: 0.3, Level.KV: 0.9, Level.RV: 0.6},
            uniform_interval,
        )
        assert agent.act(obs).destination is Level.KV

    def test_proportional_targets_demand(self, system_config, uniform_interval):
        agent = ProportionalAllocationPolicy(system_config)
        encoder = ObservationEncoder(system_config)
        obs = encoder.build(
            {Level.NORMAL: 4, Level.KV: 4, Level.RV: 4},
            {Level.NORMAL: 0.9, Level.KV: 0.2, Level.RV: 0.2},
            uniform_interval,
        )
        target = agent.target_allocation(obs)
        assert target[0] > target[1] and target[0] > target[2]
        action = agent.act(obs)
        assert action is MigrationAction.NOOP or action.destination is Level.NORMAL

    def test_all_baselines_finish_episode(self, system_config, env, short_trace):
        for agent in [
            DefaultPolicy(),
            HandcraftedFSMPolicy(),
            GreedyUtilizationPolicy(),
            ProportionalAllocationPolicy(system_config),
        ]:
            makespan = self._final_makespan(agent, env, short_trace, seed=2)
            assert makespan >= len(short_trace)

    def test_handcrafted_validation(self):
        with pytest.raises(ConfigurationError):
            HandcraftedFSMPolicy(gap_threshold=2.0)
        with pytest.raises(ConfigurationError):
            HandcraftedFSMPolicy(cooldown=-1)
