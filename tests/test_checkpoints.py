"""Checkpoint roundtrip: a reloaded policy is bit-identical and resumable."""

import numpy as np
import pytest

from repro.drl.a2c import A2CConfig, A2CTrainer
from repro.drl.agent import DRLPolicyAgent
from repro.drl.checkpoints import load_policy, save_policy
from repro.drl.policy import PolicyConfig, RecurrentPolicyValueNet
from repro.env.reward import RewardConfig
from repro.errors import SerializationError
from repro.utils.rng import ACTION_DOMAIN, episode_lanes


@pytest.fixture
def checkpoint_path(tmp_path):
    return tmp_path / "policy.npz"


@pytest.fixture
def trained_ish_policy():
    """A policy with non-initial weights (perturbed, not all-zero biases)."""
    policy = RecurrentPolicyValueNet(PolicyConfig(hidden_size=16), rng=5)
    rng = np.random.default_rng(21)
    for param in policy.parameters():
        param.data += 0.01 * rng.standard_normal(param.data.shape)
    return policy


class TestCheckpointRoundtrip:
    def test_state_dict_roundtrips_exactly(self, checkpoint_path, trained_ish_policy):
        save_policy(checkpoint_path, trained_ish_policy)
        reloaded = load_policy(checkpoint_path)
        assert reloaded.config == trained_ish_policy.config
        original_state = trained_ish_policy.state_dict()
        reloaded_state = reloaded.state_dict()
        assert set(original_state) == set(reloaded_state)
        for name, value in original_state.items():
            np.testing.assert_array_equal(value, reloaded_state[name], err_msg=name)

    def test_act_bit_identical_after_reload(
        self, checkpoint_path, trained_ish_policy, env, short_trace
    ):
        """An exploring agent on the reloaded policy acts, and carries its
        hidden state, exactly like one on the original."""
        save_policy(checkpoint_path, trained_ish_policy)
        reloaded = load_policy(checkpoint_path)
        encoder = env.observation_encoder
        original = DRLPolicyAgent(trained_ish_policy, encoder, epsilon=0.1, rng=9)
        restored = DRLPolicyAgent(reloaded, encoder, epsilon=0.1, rng=9)
        observation = env.reset(short_trace, rng=3)
        for _ in range(len(short_trace)):
            action = original.act(observation)
            assert restored.act(observation) is action
            np.testing.assert_array_equal(original.hidden_state, restored.hidden_state)
            observation = env.step(action).observation

    def test_act_batch_bit_identical_after_reload(
        self, checkpoint_path, trained_ish_policy
    ):
        save_policy(checkpoint_path, trained_ish_policy)
        reloaded = load_policy(checkpoint_path)
        rng = np.random.default_rng(4)
        batch = 5
        observations = rng.random((batch, trained_ish_policy.config.observation_dim))
        hiddens = rng.random((batch, trained_ish_policy.config.hidden_size)) * 0.1
        original = trained_ish_policy.act_batch(
            observations, hiddens, episode_lanes(range(batch), ACTION_DOMAIN).uniforms,
            greedy=False,
        )
        restored = reloaded.act_batch(
            observations, hiddens, episode_lanes(range(batch), ACTION_DOMAIN).uniforms,
            greedy=False,
        )
        np.testing.assert_array_equal(original.actions, restored.actions)
        np.testing.assert_array_equal(original.log_probs, restored.log_probs)
        np.testing.assert_array_equal(original.values, restored.values)
        np.testing.assert_array_equal(original.hidden_states, restored.hidden_states)

    def test_reloaded_policy_resumes_a2c_training(
        self, checkpoint_path, system_config, real_traces
    ):
        """Training continues from a checkpoint exactly as from the live policy."""
        reward_config = RewardConfig(mode="per_step_penalty")
        policy = RecurrentPolicyValueNet(PolicyConfig(hidden_size=12), rng=7)
        A2CTrainer(policy, system_config, reward_config, A2CConfig(), rng=0).train(
            real_traces[:2], epochs=1
        )
        save_policy(checkpoint_path, policy)
        reloaded = load_policy(checkpoint_path)

        resumed_live = A2CTrainer(policy, system_config, reward_config, A2CConfig(), rng=1)
        resumed_ckpt = A2CTrainer(reloaded, system_config, reward_config, A2CConfig(), rng=1)
        history_live = resumed_live.train(real_traces[:2], epochs=1)
        history_ckpt = resumed_ckpt.train(real_traces[:2], epochs=1)

        assert len(history_ckpt) == 1
        assert history_ckpt.records[0].makespan == history_live.records[0].makespan
        assert history_ckpt.records[0].policy_loss == history_live.records[0].policy_loss
        for name, value in policy.state_dict().items():
            np.testing.assert_array_equal(
                value, reloaded.state_dict()[name], err_msg=name
            )

    def test_missing_config_rejected(self, tmp_path):
        from repro.utils.serialization import save_npz

        bogus = tmp_path / "not_a_policy.npz"
        save_npz(bogus, {"weights": np.zeros(3)})
        with pytest.raises(SerializationError):
            load_policy(bogus)
