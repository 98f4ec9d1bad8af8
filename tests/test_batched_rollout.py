"""Seeded equivalence of lockstep batches with the one-episode-at-a-time view.

The contract under test: given the per-episode rng streams from
``derive_episode_streams``, an episode collected in a lockstep batch of
N equals the same episode collected alone (B = 1, the sequential view)
bit for bit — and the batched inference/update/evaluation paths built
on top of it agree with their sequential counterparts.
"""

import pickle

import numpy as np
import pytest

from repro.autograd import functional as F
from repro.autograd.tensor import Tensor
from repro.drl.a2c import A2CConfig, A2CTrainer
from repro.drl.agent import DRLPolicyAgent
from repro.drl.policy import PolicyConfig, RecurrentPolicyValueNet
from repro.drl.rollout import (
    BatchedRolloutCollector,
    Trajectory,
    TrajectoryBatch,
    derive_episode_streams,
)
from repro.engine import EvaluationEngine, GRUPolicyBackend
from repro.env.environment import StorageAllocationEnv
from repro.env.reward import RewardConfig
from repro.env.vector_env import VectorStorageAllocationEnv
from repro.errors import TrainingError
from repro.optim import clip_grad_norm
from repro.pipeline.evaluation import evaluate_agent


@pytest.fixture
def reward_config():
    return RewardConfig(mode="per_step_penalty")


def _one_at_a_time(collector, policy, traces, base_seed, **options):
    """Each episode alone (B = 1) on its ``derive_episode_streams`` pair."""
    episode_rngs, action_rngs = derive_episode_streams(base_seed, len(traces))
    return [
        collector.collect_batch(
            policy, [trace], episode_rngs=[episode_rngs[i]],
            action_rngs=[action_rngs[i]], **options,
        )[0]
        for i, trace in enumerate(traces)
    ]


ACCESSORS = (
    "observations", "raw_observations", "hidden_states_before",
    "hidden_states_after", "actions", "rewards", "value_estimates",
    "valid_action_masks",
)


def _assert_trajectories_identical(seq: Trajectory, batched: Trajectory) -> None:
    assert len(seq) == len(batched)
    assert seq.makespan == batched.makespan
    assert seq.truncated == batched.truncated
    for name in ACCESSORS:
        np.testing.assert_array_equal(
            getattr(seq, name)(), getattr(batched, name)(), err_msg=name
        )


class TestCollectorEquivalence:
    @pytest.mark.parametrize("epsilon,greedy", [(0.0, True), (0.1, False)])
    def test_batched_identical_to_sequential(
        self, collector, real_traces, tiny_policy, epsilon, greedy
    ):
        episode_rngs, action_rngs = derive_episode_streams(1234, len(real_traces))
        batched = collector.collect_batch(
            tiny_policy,
            real_traces,
            epsilon=epsilon,
            greedy=greedy,
            episode_rngs=episode_rngs,
            action_rngs=action_rngs,
        )
        references = _one_at_a_time(
            collector, tiny_policy, real_traces, 1234, epsilon=epsilon, greedy=greedy
        )
        for reference, trajectory in zip(references, batched):
            _assert_trajectories_identical(reference, trajectory)

    def test_standard_profiles_equivalence(
        self, collector, standard_suite, tiny_policy
    ):
        """The paper's standard workload profiles, all in one lockstep batch."""
        traces = list(standard_suite.values())
        episode_rngs, action_rngs = derive_episode_streams(7, len(traces))
        batched = collector.collect_batch(
            tiny_policy, traces, greedy=True,
            episode_rngs=episode_rngs, action_rngs=action_rngs,
        )
        references = _one_at_a_time(collector, tiny_policy, traces, 7, greedy=True)
        for reference, trajectory in zip(references, batched):
            _assert_trajectories_identical(reference, trajectory)

    def test_collect_many_chunks(self, collector, real_traces, tiny_policy):
        trajectories = collector.collect_many(
            tiny_policy, real_traces, greedy=True, batch_size=2
        )
        assert [t.trace_name for t in trajectories] == [t.name for t in real_traces]

    @pytest.mark.parametrize("batch_size", [1, 2, 3, None])
    def test_collect_many_base_seed_independent_of_chunking(
        self, system_config, reward_config, real_traces, tiny_policy, batch_size
    ):
        """With a base seed, chunking (incl. B=1 and partial final chunks)
        never changes the trajectories."""
        collector = BatchedRolloutCollector(
            VectorStorageAllocationEnv(system_config, reward_config)
        )
        reference = collector.collect_many(
            tiny_policy, real_traces, greedy=True, base_seed=5
        )
        chunked = collector.collect_many(
            tiny_policy, real_traces, greedy=True, batch_size=batch_size, base_seed=5
        )
        assert len(chunked) == len(real_traces)
        for ref, got in zip(reference, chunked):
            assert ref.trace_name == got.trace_name
            _assert_trajectories_identical(ref, got)

    def test_collect_batch_validation(self, collector, real_traces, tiny_policy):
        with pytest.raises(TrainingError):
            collector.collect_batch(tiny_policy, [])
        with pytest.raises(TrainingError):
            collector.collect_batch(
                tiny_policy, real_traces, episode_rngs=[0], action_rngs=[0]
            )
        # One stream scheme per path: there is no family selector to pass.
        with pytest.raises(TypeError):
            derive_episode_streams(7, 4, rng_family="philox")


class TestActBatch:
    def test_act_batch_single_row_matches_act(self, tiny_policy):
        obs = np.random.default_rng(0).random((1, tiny_policy.config.observation_dim))
        hidden = np.zeros((1, tiny_policy.config.hidden_size))
        batched = tiny_policy.act_batch(
            obs, hidden, rngs=[np.random.default_rng(3)], greedy=False, epsilon=0.2
        )
        single = tiny_policy.act(
            obs[0], hidden[0], rng=np.random.default_rng(3), greedy=False, epsilon=0.2
        )
        assert single.action == int(batched.actions[0])
        np.testing.assert_array_equal(single.log_probs, batched.log_probs[0])
        np.testing.assert_array_equal(single.probabilities, batched.probabilities[0])
        np.testing.assert_array_equal(single.hidden_state, batched.hidden_states[0])
        assert single.value == float(batched.values[0])

    @pytest.mark.parametrize("hidden_size", [16, 48])
    def test_act_batch_rows_match_act(self, hidden_size):
        policy = RecurrentPolicyValueNet(PolicyConfig(hidden_size=hidden_size), rng=0)
        rng = np.random.default_rng(1)
        batch = 9
        obs = rng.random((batch, policy.config.observation_dim))
        hidden = rng.random((batch, policy.config.hidden_size)) * 0.1
        batched = policy.act_batch(
            obs, hidden, rngs=[np.random.default_rng(i) for i in range(batch)], greedy=False
        )
        for i in range(batch):
            single = policy.act(obs[i], hidden[i], rng=np.random.default_rng(i), greedy=False)
            assert single.action == int(batched.actions[i])
            np.testing.assert_array_equal(single.log_probs, batched.log_probs[i])
            np.testing.assert_array_equal(single.hidden_state, batched.hidden_states[i])
            assert single.value == float(batched.values[i])

    def test_inactive_rows_consume_no_randomness(self, tiny_policy):
        obs = np.random.default_rng(0).random((3, tiny_policy.config.observation_dim))
        hidden = np.zeros((3, tiny_policy.config.hidden_size))
        rngs = [np.random.default_rng(i) for i in range(3)]
        active = np.array([True, False, True])
        out = tiny_policy.act_batch(obs, hidden, rngs=rngs, greedy=False, active=active)
        assert out.actions[1] == 0
        # The inactive row's generator is untouched.
        assert rngs[1].random() == np.random.default_rng(1).random()

    def test_inactive_rows_keep_hidden_and_active_rows_match_full_batch(
        self, tiny_policy
    ):
        """The forward pass skips inactive rows: they keep their input
        hidden state, and — because every inference kernel is row-wise
        batch-size stable — the active rows are bit-identical to a
        full-batch call."""
        rng = np.random.default_rng(4)
        obs = rng.random((4, tiny_policy.config.observation_dim))
        hidden = rng.random((4, tiny_policy.config.hidden_size)) * 0.1
        active = np.array([True, False, True, False])
        masked = tiny_policy.act_batch(
            obs, hidden, rngs=[np.random.default_rng(i) for i in range(4)],
            greedy=False, active=active,
        )
        full = tiny_policy.act_batch(
            obs, hidden, rngs=[np.random.default_rng(i) for i in range(4)],
            greedy=False,
        )
        for i in (1, 3):
            np.testing.assert_array_equal(masked.hidden_states[i], hidden[i])
            assert masked.actions[i] == 0
        for i in (0, 2):
            assert masked.actions[i] == full.actions[i]
            np.testing.assert_array_equal(
                masked.hidden_states[i], full.hidden_states[i]
            )
            np.testing.assert_array_equal(masked.log_probs[i], full.log_probs[i])
            assert masked.values[i] == full.values[i]


class TestVectorizedReturns:
    @pytest.mark.parametrize("gamma", [0.0, 0.5, 0.9, 0.99, 1.0])
    def test_discounted_returns_match_loop(self, make_trajectory, gamma):
        rng = np.random.default_rng(0)
        rewards = rng.normal(size=313).tolist()
        trajectory = make_trajectory(rewards)
        expected = np.zeros(len(rewards))
        running = 0.0
        for t in range(len(rewards) - 1, -1, -1):
            running = rewards[t] + gamma * running
            expected[t] = running
        np.testing.assert_allclose(
            trajectory.discounted_returns(gamma), expected, rtol=1e-12, atol=1e-12
        )

    def test_total_reward(self, make_trajectory):
        trajectory = make_trajectory([1.5, -2.0, 0.25])
        assert trajectory.total_reward == pytest.approx(-0.25, abs=1e-12)

    def test_invalid_gamma(self, make_trajectory):
        with pytest.raises(TrainingError):
            make_trajectory([1.0]).discounted_returns(1.5)


class TestTrajectoryRecord:
    def test_pickle_round_trip_preserves_every_column(
        self, collector, real_traces, tiny_policy
    ):
        """Pickle is the worker pool's transport: nothing may be lost on it."""
        for trajectory in collector.collect_batch(tiny_policy, real_traces, epsilon=0.1):
            restored = pickle.loads(pickle.dumps(trajectory))
            assert restored.trace_name == trajectory.trace_name
            _assert_trajectories_identical(trajectory, restored)

    def test_accessors_return_fresh_copies(self, collector, short_trace, tiny_policy):
        (trajectory,) = collector.collect_batch(tiny_policy, [short_trace], greedy=True)
        for name in ACCESSORS:
            first = getattr(trajectory, name)()
            expected = first.copy()
            first[...] = ~first if first.dtype == bool else first + 1
            np.testing.assert_array_equal(getattr(trajectory, name)(), expected, err_msg=name)


class TestTrajectoryBatch:
    def test_padding_and_masks(self, collector, real_traces, tiny_policy):
        trajectories = collector.collect_batch(tiny_policy, real_traces, greedy=True)
        batch = TrajectoryBatch.from_trajectories(trajectories)
        horizon = max(len(t) for t in trajectories)
        assert batch.max_steps == horizon
        assert batch.batch_size == len(trajectories)
        assert batch.total_steps == sum(len(t) for t in trajectories)
        for b, trajectory in enumerate(trajectories):
            assert batch.mask[: len(trajectory), b].all()
            assert not batch.mask[len(trajectory):, b].any()
            np.testing.assert_array_equal(
                batch.observations[: len(trajectory), b], trajectory.observations()
            )

    def test_padded_returns(self, collector, real_traces, tiny_policy):
        trajectories = collector.collect_batch(tiny_policy, real_traces[:2], greedy=True)
        batch = TrajectoryBatch.from_trajectories(trajectories)
        padded = batch.padded_returns(0.9)
        for b, trajectory in enumerate(trajectories):
            np.testing.assert_array_equal(
                padded[: len(trajectory), b], trajectory.discounted_returns(0.9)
            )
            assert (padded[len(trajectory):, b] == 0).all()

    def test_empty_inputs_rejected(self, make_trajectory):
        with pytest.raises(TrainingError):
            TrajectoryBatch.from_trajectories([])
        with pytest.raises(TrainingError):
            TrajectoryBatch.from_trajectories([make_trajectory([], "empty")])


class TestBatchSizeDegradation:
    """The lockstep path degrades gracefully at B=1 and partial batches."""

    @pytest.mark.parametrize("batch_size", [1, 2, 3, 5, None])
    def test_collect_many_shapes_and_order(
        self, collector, real_traces, tiny_policy, batch_size
    ):
        """Any chunking of the episode count — including B=1 and a final
        partial chunk — yields one well-formed trajectory per trace."""
        trajectories = collector.collect_many(
            tiny_policy, real_traces, greedy=True, batch_size=batch_size
        )
        assert [t.trace_name for t in trajectories] == [t.name for t in real_traces]
        for trajectory in trajectories:
            assert len(trajectory) > 0
            assert trajectory.makespan == len(trajectory)
            masks = trajectory.valid_action_masks()
            assert masks.shape == (len(trajectory), tiny_policy.config.num_actions)
            assert masks[:, 0].all()

    @pytest.mark.parametrize("width", [1, 2, 3])
    def test_trajectory_batch_shapes_and_masks(
        self, collector, real_traces, tiny_policy, width
    ):
        trajectories = collector.collect_batch(
            tiny_policy, real_traces[:width], greedy=True
        )
        batch = TrajectoryBatch.from_trajectories(trajectories)
        horizon = max(len(t) for t in trajectories)
        obs_dim = tiny_policy.config.observation_dim
        assert batch.observations.shape == (horizon, width, obs_dim)
        assert batch.actions.shape == (horizon, width)
        assert batch.mask.shape == (horizon, width)
        assert batch.total_steps == sum(len(t) for t in trajectories)
        time_idx, env_idx = batch.valid_positions()
        assert batch.mask[time_idx, env_idx].all()
        # Padded rows (if any) are zero and masked out.
        padded = ~batch.mask
        assert (batch.observations[padded] == 0).all()
        assert (batch.rewards[padded] == 0).all()

    def test_single_trace_batch_matches_sequential(
        self, collector, real_traces, tiny_policy
    ):
        """``collect_many(batch_size=1, base_seed=s)`` — the sequential view —
        hands episode ``i`` exactly ``derive_episode_streams(s, N)[i]``."""
        sequential = collector.collect_many(
            tiny_policy, real_traces, epsilon=0.1, batch_size=1, base_seed=55
        )
        references = _one_at_a_time(collector, tiny_policy, real_traces, 55, epsilon=0.1)
        for reference, trajectory in zip(references, sequential):
            _assert_trajectories_identical(reference, trajectory)


def _scalar_update(trainer: A2CTrainer, trajectory: Trajectory) -> dict:
    """The A2C update as a step-by-step loop over unbatched rows.

    The reference ``A2CTrainer._update_from_batch`` is held to: one
    trajectory, ``(obs_dim,)`` observations, no padding and no mask.
    """
    policy, config = trainer.policy, trainer.config
    observations = trajectory.observations()
    hidden = policy.initial_state()
    logit_rows, value_rows = [], []
    for t in range(len(trajectory)):
        logits, value, hidden = policy.step(Tensor(observations[t]), hidden)
        logit_rows.append(logits)
        value_rows.append(value)
    logits_matrix = Tensor.stack(logit_rows, axis=0)
    values_vector = Tensor.stack(value_rows, axis=0).reshape(len(trajectory))
    values_np = values_vector.numpy()

    if config.n_step > 0:
        returns = trainer._n_step_returns(trajectory.rewards(), values_np)
    else:
        returns = trajectory.discounted_returns(config.gamma)
    advantages = returns - values_np
    if config.normalize_advantages and advantages.size > 1:
        std = advantages.std()
        if std > 1e-8:
            advantages = (advantages - advantages.mean()) / std

    log_probs = F.log_softmax(logits_matrix, axis=-1)
    chosen_nll = F.nll_of_actions(log_probs, trajectory.actions())
    policy_loss = (chosen_nll * Tensor(advantages)).mean()
    value_loss = F.mse_loss(values_vector, returns)
    entropy = F.entropy(F.softmax(logits_matrix, axis=-1), axis=-1)
    loss = policy_loss + value_loss * config.value_coef - entropy * config.entropy_coef

    trainer.optimizer.zero_grad()
    loss.backward()
    grad_norm = clip_grad_norm(policy.parameters(), config.grad_clip_norm)
    trainer.optimizer.step()
    return {
        "policy_loss": float(policy_loss.item()),
        "value_loss": float(value_loss.item()),
        "entropy": float(entropy.item()),
        "grad_norm": float(grad_norm),
    }


class TestBatchedTraining:
    def test_batched_update_matches_per_trajectory_update(
        self, system_config, reward_config, short_trace, collector
    ):
        reference_policy = RecurrentPolicyValueNet(PolicyConfig(hidden_size=16), rng=9)
        batched_policy = RecurrentPolicyValueNet(PolicyConfig(hidden_size=16), rng=9)
        (trajectory,) = collector.collect_batch(
            reference_policy, [short_trace], greedy=True, episode_rngs=[0]
        )
        reference_trainer = A2CTrainer(
            reference_policy, system_config, reward_config, A2CConfig(), rng=0
        )
        batched_trainer = A2CTrainer(
            batched_policy, system_config, reward_config, A2CConfig(), rng=0
        )
        reference_losses = _scalar_update(reference_trainer, trajectory)
        batched_losses = batched_trainer._update_from_batch([trajectory])
        for key, value in reference_losses.items():
            assert batched_losses[key] == pytest.approx(value, rel=1e-9, abs=1e-9), key

    def test_training_with_batched_collection_runs(
        self, system_config, reward_config, real_traces
    ):
        policy = RecurrentPolicyValueNet(PolicyConfig(hidden_size=12), rng=3)
        trainer = A2CTrainer(
            policy, system_config, reward_config,
            A2CConfig(episodes_per_epoch=3, n_step=4), rng=0,
        )
        before = {k: v.copy() for k, v in policy.state_dict().items()}
        history = trainer.train(real_traces[:2], epochs=2)
        assert len(history) == 2
        after = policy.state_dict()
        assert any(not np.allclose(before[k], after[k]) for k in before)


class TestBatchedEvaluation:
    def test_matches_sequential_agent_evaluation(
        self, system_config, reward_config, real_traces, tiny_policy
    ):
        env = StorageAllocationEnv(system_config, reward_config=reward_config)
        agent = DRLPolicyAgent(tiny_policy, env.observation_encoder)
        reference = evaluate_agent(
            agent, real_traces, system_config=system_config,
            reward_config=reward_config, episode_seed=3,
        )
        batched = EvaluationEngine(system_config, reward_config).evaluate(
            GRUPolicyBackend(tiny_policy), real_traces, episode_seed=3,
            agent_name=agent.name,
        )
        assert batched.agent_name == agent.name
        assert batched.trace_names == reference.trace_names
        assert batched.makespans == reference.makespans
        assert len(batched.episodes) == len(reference.episodes)
        for batched_episode, reference_episode in zip(batched.episodes, reference.episodes):
            assert batched_episode.makespan == reference_episode.makespan
            assert batched_episode.action_histogram() == reference_episode.action_histogram()
