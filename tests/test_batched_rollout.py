"""Seeded equivalence of lockstep batches with the one-episode-at-a-time view.

The contract under test: an episode's randomness is its episode seed's
Philox lanes, so an episode collected in a lockstep batch of N equals
the same episode collected alone (B = 1, the sequential view) bit for
bit — and the batched inference/update/evaluation paths built on top of
it agree with their sequential counterparts.
"""

import pickle

import numpy as np
import pytest

from repro.autograd import functional as F
from repro.autograd.tensor import Tensor
from repro.drl.a2c import A2CConfig, A2CTrainer
from repro.drl.agent import DRLPolicyAgent
from repro.drl.policy import PolicyConfig, RecurrentPolicyValueNet
from repro.drl.rollout import BatchedRolloutCollector, Trajectory, TrajectoryBatch
from repro.engine import EvaluationEngine, GRUPolicyBackend
from repro.env.environment import StorageAllocationEnv
from repro.env.reward import RewardConfig
from repro.env.vector_env import VectorStorageAllocationEnv
from repro.errors import ConfigurationError, TrainingError
from repro.optim import clip_grad_norm
from repro.utils.rng import ACTION_DOMAIN, episode_lanes
from conftest import assert_matches_scalar, collect_with_cursors


@pytest.fixture
def reward_config():
    return RewardConfig(mode="per_step_penalty")


@pytest.fixture
def make_collector(system_config, reward_config):
    """A fresh collector whose episodes start at episode seed ``seed``."""

    def build(seed):
        return BatchedRolloutCollector(
            VectorStorageAllocationEnv(system_config, reward_config), rng=seed
        )

    return build


def _in_chunks(collector, policy, traces, batch_size, **options):
    """Many episodes, ``batch_size`` at a time (``None``: one batch), each
    chunk one ``collect_batch`` call on the collector's next seeds."""
    chunk = batch_size or len(traces)
    trajectories = []
    for start in range(0, len(traces), chunk):
        trajectories.extend(
            collector.collect_batch(policy, traces[start:start + chunk], **options)
        )
    return trajectories


ACCESSORS = (
    "observations", "raw_observations", "hidden_states_before",
    "hidden_states_after", "actions", "rewards", "value_estimates",
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
        self, make_collector, real_traces, tiny_policy, epsilon, greedy
    ):
        batched = make_collector(1234).collect_batch(
            tiny_policy, real_traces, epsilon=epsilon, greedy=greedy
        )
        references = _in_chunks(
            make_collector(1234), tiny_policy, real_traces, 1, epsilon=epsilon, greedy=greedy
        )
        for reference, trajectory in zip(references, batched):
            _assert_trajectories_identical(reference, trajectory)

    def test_standard_profiles_equivalence(
        self, make_collector, standard_suite, tiny_policy
    ):
        """The paper's standard workload profiles, all in one lockstep batch."""
        traces = list(standard_suite.values())
        batched = make_collector(7).collect_batch(tiny_policy, traces, greedy=True)
        references = _in_chunks(make_collector(7), tiny_policy, traces, 1, greedy=True)
        for reference, trajectory in zip(references, batched):
            _assert_trajectories_identical(reference, trajectory)

    def test_collect_many_chunks(self, collector, real_traces, tiny_policy):
        """Many episodes collected in chunks keep the trace order."""
        trajectories = _in_chunks(collector, tiny_policy, real_traces, 2, greedy=True)
        assert [t.trace_name for t in trajectories] == [t.name for t in real_traces]

    @pytest.mark.parametrize("batch_size", [1, 2, 3, None])
    def test_collect_many_base_seed_independent_of_chunking(
        self, make_collector, real_traces, tiny_policy, batch_size
    ):
        """Many episodes from one collector seed: chunking (incl. B=1 and
        partial final chunks) never changes the trajectories."""
        reference = _in_chunks(make_collector(5), tiny_policy, real_traces, None, greedy=True)
        chunked = _in_chunks(make_collector(5), tiny_policy, real_traces, batch_size, greedy=True)
        assert len(chunked) == len(real_traces)
        for ref, got in zip(reference, chunked):
            assert ref.trace_name == got.trace_name
            _assert_trajectories_identical(ref, got)

    @pytest.mark.parametrize("epsilon,greedy", [(0.0, False), (0.3, True), (0.3, False)])
    def test_action_streams_end_alike_at_any_batch_size(
        self, make_collector, real_traces, tiny_policy, epsilon, greedy
    ):
        """A finished episode draws nothing more while the batch drains:
        every lane ends where it ends with its episode alone."""
        def end_states(batch_size):
            trajectories, cursors = collect_with_cursors(
                make_collector(100), tiny_policy, real_traces, batch_size,
                epsilon=epsilon, greedy=greedy,
            )
            return [len(t) for t in trajectories], cursors

        lengths, alone = end_states(1)
        assert len(set(lengths)) > 1
        assert end_states(len(real_traces)) == (lengths, alone)
        # A lane draws a uniform per step to sample and two to explore.
        per_step = (not greedy) + 2 * (epsilon > 0)
        assert [action for _, action in alone] == [per_step * n for n in lengths]

    def test_collect_batch_validation(self, collector, real_traces, tiny_policy):
        with pytest.raises(TrainingError):
            collector.collect_batch(tiny_policy, [])
        # An episode's lanes come from the collector's seeds: there are no
        # streams to pass.
        with pytest.raises(TypeError):
            collector.collect_batch(tiny_policy, real_traces, episode_rngs=[0])


class TestActBatch:
    def test_act_batch_single_row_matches_act(self, tiny_policy, env, short_trace):
        """``DRLPolicyAgent.act`` is the one-row greedy ``act_batch``, its
        hidden row carried from step to step."""
        encoder = env.observation_encoder
        agent = DRLPolicyAgent(tiny_policy, encoder)
        observation = env.reset(short_trace, rng=0)
        agent.reset()
        hidden = tiny_policy.initial_hidden_np(1)
        for _ in range(len(short_trace)):
            expected = tiny_policy.act_batch(encoder.normalize(observation)[None], hidden)
            assert int(agent.act(observation)) == int(expected.actions[0])
            hidden = expected.hidden_states
            np.testing.assert_array_equal(agent.hidden_state, hidden[0])
            observation = env.step(int(expected.actions[0])).observation

    @pytest.mark.parametrize("hidden_size", [16, 48])
    @pytest.mark.parametrize(
        "options",
        [
            {"greedy": True},
            {"greedy": False},
            {"greedy": True, "epsilon": 0.1},
            {"greedy": False, "epsilon": 0.1},
            {"greedy": False, "epsilon": 1.0},
        ],
        ids=["greedy", "sampled", "greedy-eps0.1", "sampled-eps0.1", "eps1"],
    )
    def test_rows_match_each_row_alone(self, hidden_size, options):
        """Row ``i`` of a B-row step equals row ``i`` stepped alone (B = 1)
        on its own lane, which ends at the same cursor."""
        policy = RecurrentPolicyValueNet(PolicyConfig(hidden_size=hidden_size), rng=0)
        rng = np.random.default_rng(1)
        batch = 9
        obs = rng.random((batch, policy.config.observation_dim))
        hidden = rng.random((batch, policy.config.hidden_size)) * 0.1
        lanes = episode_lanes(range(batch), ACTION_DOMAIN)
        batched = policy.act_batch(obs, hidden, lanes.uniforms, **options)
        for i in range(batch):
            alone = episode_lanes([i], ACTION_DOMAIN)
            single = policy.act_batch(obs[i : i + 1], hidden[i : i + 1], alone.uniforms, **options)
            assert int(single.actions[0]) == int(batched.actions[i])
            np.testing.assert_array_equal(single.log_probs[0], batched.log_probs[i])
            np.testing.assert_array_equal(single.probabilities[0], batched.probabilities[i])
            np.testing.assert_array_equal(single.hidden_states[0], batched.hidden_states[i])
            assert float(single.values[0]) == float(batched.values[i])
            assert alone._cursors[0] == lanes._cursors[i]
        drew = options.get("epsilon", 0.0) > 0.0 or not options["greedy"]
        assert (lanes._cursors[0] != 0) == drew
        if options.get("epsilon") == 1.0:
            # Every row explores: a uniform replacement, not the sample.
            assert len(set(batched.actions.tolist())) > 1

    @pytest.mark.parametrize("epsilon", [float("nan"), -1.0, 7.0])
    def test_refuses_epsilon_outside_unit_interval(self, tiny_policy, epsilon):
        obs = np.zeros((2, tiny_policy.config.observation_dim))
        hidden = tiny_policy.initial_hidden_np(2)
        lanes = episode_lanes(range(2), ACTION_DOMAIN)
        with pytest.raises(ConfigurationError, match="epsilon"):
            tiny_policy.act_batch(obs, hidden, lanes.uniforms, epsilon=epsilon, greedy=False)
        assert lanes._cursors.tolist() == [0, 0]

    def test_draws_need_one_generator_per_row(self, tiny_policy):
        """(The id predates the lanes: draws need one lane per row.)"""
        obs = np.zeros((2, tiny_policy.config.observation_dim))
        hidden = tiny_policy.initial_hidden_np(2)
        with pytest.raises(ConfigurationError):
            tiny_policy.act_batch(obs, hidden, greedy=False)
        with pytest.raises(ConfigurationError):
            tiny_policy.act_batch(obs, hidden, epsilon=0.1)
        one_lane = episode_lanes([0], ACTION_DOMAIN)
        with pytest.raises(ConfigurationError, match="1 uniforms for a batch of 2"):
            tiny_policy.act_batch(obs, hidden, one_lane.uniforms, greedy=False)
        lanes = episode_lanes(range(2), ACTION_DOMAIN)
        np.testing.assert_array_equal(
            tiny_policy.act_batch(obs, hidden).actions,
            tiny_policy.act_batch(obs, hidden, lanes.uniforms).actions,
        )
        assert lanes._cursors.tolist() == [0, 0]  # greedy, no exploration: no draw


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
        """Any chunking of many episodes — including B=1 and a final
        partial chunk — yields one well-formed trajectory per trace."""
        trajectories = _in_chunks(collector, tiny_policy, real_traces, batch_size, greedy=True)
        assert [t.trace_name for t in trajectories] == [t.name for t in real_traces]
        for trajectory in trajectories:
            assert len(trajectory) > 0
            assert trajectory.makespan == len(trajectory)
            assert trajectory.hidden_states_before().shape == (
                len(trajectory), tiny_policy.config.hidden_size
            )
            np.testing.assert_array_equal(
                trajectory.hidden_states_before()[1:], trajectory.hidden_states_after()[:-1]
            )

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
        self, make_collector, real_traces, tiny_policy
    ):
        """A collector seeded ``r`` runs its episodes on seeds ``r, r + 1,
        ...``: a one-trace call on a collector seeded ``r + i`` is the
        lockstep batch's episode ``i``."""
        lockstep = make_collector(55).collect_batch(tiny_policy, real_traces, epsilon=0.1)
        for i, (trace, trajectory) in enumerate(zip(real_traces, lockstep)):
            (reference,) = make_collector(55 + i).collect_batch(tiny_policy, [trace], epsilon=0.1)
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
    if advantages.size > 1:
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
        (trajectory,) = collector.collect_batch(reference_policy, [short_trace], greedy=True)
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
        batched = EvaluationEngine(system_config, reward_config).evaluate(
            GRUPolicyBackend(tiny_policy), real_traces, episode_seed=3,
            agent_name=agent.name,
        )
        assert batched.agent_name == agent.name
        assert_matches_scalar(batched, agent, real_traces, 3, system_config, reward_config)
