"""Tests for the DRL stack, QBNs, FSM extraction/interpretation and the pipeline.

The heavier integration paths reuse the session-scoped ``tiny_pipeline_result``
fixture (one tiny end-to-end pipeline run) instead of retraining per test.
"""

import copy
from dataclasses import replace

import numpy as np
import pytest

from repro.agents import GreedyUtilizationPolicy
from repro.autograd import functional as F
from repro.drl.a2c import A2CConfig, A2CTrainer, TrainingHistory
from repro.drl.agent import DRLPolicyAgent
from repro.drl.checkpoints import load_policy, save_policy
from repro.drl.curriculum import CurriculumConfig, CurriculumTrainer
from repro.drl.imitation import BehaviorCloningTrainer, ImitationConfig
from repro.drl.policy import PolicyConfig, RecurrentPolicyValueNet
from repro.env.reward import RewardConfig
from repro.errors import ConfigurationError, ExtractionError, TrainingError
from repro.fsm.agent import FSMPolicyAgent
from repro.fsm.extraction import ExtractionConfig, FSMExtractor
from repro.fsm.generalize import NearestObservationMatcher
from repro.fsm.interpretation import (
    capacity_ratio,
    fan_in_out_statistics,
    history_profile,
    read_intensity_kb,
    write_intensity_kb,
)
from repro.fsm.machine import FiniteStateMachine
from repro.fsm.minimize import merge_equivalent_states, prune_rare_states
from repro.fsm.render import fsm_summary_table, fsm_to_dot
from repro.optim import Adam, clip_grad_norm
from repro.pipeline.evaluation import compare_agents, comparison_table, evaluate_agent, relative_reduction
from repro.qbn.autoencoder import QBNConfig, QuantizedBottleneckNetwork
from repro.qbn.dataset import TransitionDataset
from repro.qbn.quantize import code_key, codes_to_values, quantization_levels, quantize_ste, values_to_codes
from repro.qbn.trainer import QBNTrainer, QBNTrainingConfig
from repro.storage.migration import MigrationAction
from repro.autograd.tensor import Tensor


# ----------------------------------------------------------------------
# Policy network and rollouts
# ----------------------------------------------------------------------
class TestPolicyNetwork:
    def test_step_shapes(self, tiny_policy):
        logits, value, hidden = tiny_policy.step(
            Tensor(np.zeros(tiny_policy.config.observation_dim)), tiny_policy.initial_state()
        )
        assert logits.shape == (7,)
        assert value.shape == (1,)
        assert hidden.shape == (16,)

    def test_act_output(self, tiny_policy):
        out = tiny_policy.act(
            np.zeros(tiny_policy.config.observation_dim),
            tiny_policy.initial_state().numpy(),
            rng=0,
        )
        assert 0 <= out.action < 7
        assert out.probabilities.shape == (7,)
        assert np.isclose(out.probabilities.sum(), 1.0)
        assert out.hidden_state.shape == (16,)

    def test_epsilon_one_gives_random_actions(self, tiny_policy):
        actions = {
            tiny_policy.act(
                np.zeros(tiny_policy.config.observation_dim),
                tiny_policy.initial_state().numpy(),
                rng=i,
                epsilon=1.0,
            ).action
            for i in range(40)
        }
        assert len(actions) > 3

    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            PolicyConfig(hidden_size=0)

    def test_checkpoint_roundtrip(self, tmp_path, tiny_policy):
        path = tmp_path / "policy.npz"
        save_policy(path, tiny_policy)
        loaded = load_policy(path)
        assert loaded.config == tiny_policy.config
        obs = np.random.default_rng(0).random(tiny_policy.config.observation_dim)
        h = tiny_policy.initial_state().numpy()
        np.testing.assert_allclose(
            tiny_policy.act(obs, h, rng=0).log_probs, loaded.act(obs, h, rng=0).log_probs
        )


class TestRollout:
    def test_collect_records_full_episode(self, collector, short_trace, tiny_policy):
        (trajectory,) = collector.collect_batch(
            tiny_policy, [short_trace], greedy=True, episode_rngs=[0]
        )
        assert len(trajectory) == trajectory.makespan
        assert trajectory.observations().shape == (len(trajectory), 35)
        assert trajectory.hidden_states_before().shape == (len(trajectory), 16)
        assert trajectory.actions().min() >= 0 and trajectory.actions().max() < 7

    def test_hidden_states_chain(self, collector, short_trace, tiny_policy):
        (trajectory,) = collector.collect_batch(
            tiny_policy, [short_trace], greedy=True, episode_rngs=[0]
        )
        np.testing.assert_array_equal(
            trajectory.hidden_states_after()[:-1], trajectory.hidden_states_before()[1:]
        )

    def test_discounted_returns(self, make_trajectory):
        trajectory = make_trajectory([1.0, 1.0, 1.0])
        np.testing.assert_allclose(
            trajectory.discounted_returns(0.5), [1.75, 1.5, 1.0]
        )
        with pytest.raises(TrainingError):
            trajectory.discounted_returns(1.5)


PER_STEP = RewardConfig(mode="per_step_penalty")


class TestA2CTrainer:
    def test_training_runs_and_updates_parameters(self, system_config, real_traces, tiny_policy):
        before = {k: v.copy() for k, v in tiny_policy.state_dict().items()}
        trainer = A2CTrainer(tiny_policy, system_config, PER_STEP, A2CConfig(n_step=5), rng=0)
        history = trainer.train(real_traces[:2], epochs=2, phase="unit")
        assert len(history) == 2
        assert all(r.phase == "unit" for r in history.records)
        after = tiny_policy.state_dict()
        assert any(not np.allclose(before[k], after[k]) for k in before)

    def test_history_utilities(self):
        history = TrainingHistory()
        assert len(history) == 0
        with pytest.raises(TrainingError):
            history.final_makespan()

    def test_invalid_inputs(self, system_config, tiny_policy, real_traces):
        trainer = A2CTrainer(tiny_policy, system_config, PER_STEP, rng=0)
        with pytest.raises(TrainingError):
            trainer.train([], epochs=1)
        with pytest.raises(TrainingError):
            trainer.train(real_traces, epochs=0)

    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            A2CConfig(gamma=1.5)
        with pytest.raises(ConfigurationError):
            A2CConfig(n_step=-1)

    def test_n_step_returns_match_monte_carlo_when_long(self, system_config, tiny_policy):
        trainer = A2CTrainer(
            tiny_policy, system_config, PER_STEP, A2CConfig(gamma=0.9, n_step=100), rng=0
        )
        rewards = np.array([1.0, 2.0, 3.0])
        values = np.zeros(3)
        returns = trainer._n_step_returns(rewards, values)
        expected = [1.0 + 0.9 * 2 + 0.81 * 3, 2.0 + 0.9 * 3, 3.0]
        np.testing.assert_allclose(returns, expected)

    def test_n_step_bootstrap_uses_value(self, system_config, tiny_policy):
        trainer = A2CTrainer(
            tiny_policy, system_config, PER_STEP, A2CConfig(gamma=1.0, n_step=1), rng=0
        )
        returns = trainer._n_step_returns(np.array([1.0, 1.0]), np.array([5.0, 7.0]))
        np.testing.assert_allclose(returns, [1.0 + 7.0, 1.0])


class TestCurriculumAndImitation:
    def test_curriculum_phases_labelled(self, system_config, standard_suite, real_traces):
        trainer = CurriculumTrainer(
            system_config, PER_STEP,
            policy_config=PolicyConfig(hidden_size=12), a2c_config=A2CConfig(n_step=5), rng=0,
        )
        policy, history = trainer.train_with_curriculum(
            list(standard_suite.values())[:2],
            real_traces[:1],
            CurriculumConfig(standard_epochs=1, real_epochs=1),
        )
        phases = history.phases()
        assert phases[0] == "pretrain_standard" and phases[-1] == "finetune_real"
        assert isinstance(policy, RecurrentPolicyValueNet)

    def test_from_scratch(self, system_config, real_traces):
        trainer = CurriculumTrainer(
            system_config, PER_STEP,
            policy_config=PolicyConfig(hidden_size=12), a2c_config=A2CConfig(n_step=5), rng=0,
        )
        _, history = trainer.train_from_scratch(real_traces[:1], epochs=2)
        assert len(history) == 2
        assert set(history.phases()) == {"from_scratch_real"}

    def test_curriculum_config_validation(self):
        with pytest.raises(ConfigurationError):
            CurriculumConfig(standard_epochs=0, real_epochs=0)

    def test_behaviour_cloning_learns_teacher_actions(self, system_config, standard_suite):
        policy = RecurrentPolicyValueNet(PolicyConfig(hidden_size=24), rng=3)
        trainer = BehaviorCloningTrainer(
            system_config, PER_STEP, ImitationConfig(epochs=6), rng=0
        )
        demos = trainer.collect_demonstrations(
            GreedyUtilizationPolicy(), list(standard_suite.values())[:3]
        )
        assert all(len(d) >= len_trace for d, len_trace in zip(demos, [1, 1, 1]))
        result = trainer.fit(policy, demos)
        assert len(result.losses) == 6
        assert result.losses[-1] < result.losses[0]
        assert 0.0 <= result.accuracy <= 1.0

    def test_behaviour_cloning_refuses_a_nan_observation(self, system_config, standard_suite):
        """One NaN row used to reach every gradient and, through Adam,
        every parameter: ``fit`` returned a policy that only says NaN."""
        policy = RecurrentPolicyValueNet(PolicyConfig(hidden_size=12), rng=3)
        trainer = BehaviorCloningTrainer(system_config, PER_STEP, ImitationConfig(epochs=1), rng=0)
        demos = trainer.collect_demonstrations(
            GreedyUtilizationPolicy(), list(standard_suite.values())[:1]
        )
        demos[0].observations[len(demos[0]) // 2, 0] = np.nan
        before = policy.state_dict()
        with pytest.raises(TrainingError, match="non-finite gradient"):
            trainer.fit(policy, demos)
        for name, value in policy.state_dict().items():
            assert value.tobytes() == before[name].tobytes(), name

    def test_imitation_validation(self, system_config):
        trainer = BehaviorCloningTrainer(
            system_config, PER_STEP, ImitationConfig(epochs=1), rng=0
        )
        with pytest.raises(TrainingError):
            trainer.collect_demonstrations(GreedyUtilizationPolicy(), [])


# ----------------------------------------------------------------------
# QBN
# ----------------------------------------------------------------------
class TestQuantization:
    def test_levels(self):
        np.testing.assert_allclose(quantization_levels(3), [-1.0, 0.0, 1.0])
        np.testing.assert_allclose(quantization_levels(2), [-1.0, 1.0])

    def test_quantize_values(self):
        x = Tensor(np.array([-0.9, -0.2, 0.1, 0.8]))
        np.testing.assert_allclose(quantize_ste(x, 3).numpy(), [-1.0, 0.0, 0.0, 1.0])

    def test_straight_through_gradient(self):
        x = Tensor(np.array([0.3, -0.7]), requires_grad=True)
        quantize_ste(x, 3).sum().backward()
        np.testing.assert_allclose(x.grad, [1.0, 1.0])

    def test_codes_roundtrip(self):
        values = np.array([-1.0, 0.0, 1.0, 1.0])
        codes = values_to_codes(values, 3)
        np.testing.assert_array_equal(codes, [0, 1, 2, 2])
        np.testing.assert_allclose(codes_to_values(codes, 3), values)

    def test_code_key_hashable(self):
        key = code_key(np.array([0, 1, 2]))
        assert key == (0, 1, 2)
        assert hash(key) is not None

    def test_invalid_levels(self):
        with pytest.raises(ConfigurationError):
            quantization_levels(1)


class TestQBNAutoencoderAndTrainer:
    def test_latent_is_quantized(self):
        qbn = QuantizedBottleneckNetwork(QBNConfig(input_dim=6, latent_dim=4, hidden_dim=8), rng=0)
        latent = qbn.encode(Tensor(np.random.default_rng(0).random((5, 6)))).numpy()
        assert set(np.unique(latent)) <= {-1.0, 0.0, 1.0}

    def test_reconstruction_shape_and_error(self):
        qbn = QuantizedBottleneckNetwork(QBNConfig(input_dim=6, latent_dim=4, hidden_dim=8), rng=0)
        data = np.random.default_rng(0).random((10, 6))
        assert qbn.reconstruct(data).shape == (10, 6)
        assert qbn.reconstruction_error(data) >= 0.0

    def test_discrete_code_shape(self):
        qbn = QuantizedBottleneckNetwork(QBNConfig(input_dim=6, latent_dim=4, hidden_dim=8), rng=0)
        codes = qbn.discrete_code(np.zeros(6))
        assert codes.shape == (4,)
        assert codes.dtype == np.int64

    def test_training_reduces_reconstruction_loss(self, tiny_pipeline_result):
        losses = tiny_pipeline_result.qbn_result.observation_losses
        assert losses[-1] <= losses[0]

    def test_dataset_from_trajectories(self, collector, short_trace, tiny_policy):
        trajectories = collector.collect_batch(
            tiny_policy, [short_trace], greedy=True, episode_rngs=[0]
        )
        dataset = TransitionDataset.from_trajectories(trajectories)
        assert len(dataset) == len(trajectories[0])
        assert dataset.observation_dim == 35
        assert dataset.hidden_dim == 16
        train, held = dataset.split(0.8, rng=0)
        assert len(train) + len(held) == len(dataset)
        episodes = dataset.episodes()
        assert len(episodes) == 1

    def test_dataset_validation(self):
        with pytest.raises(ExtractionError):
            TransitionDataset.from_trajectories([])

    def test_qbn_training_config_validation(self):
        with pytest.raises(ConfigurationError):
            QBNTrainingConfig(epochs=0)


class _UnfrozenQBNTrainer(QBNTrainer):
    """Fine-tuning as it ran before it froze the policy: every backward
    also sums into the policy's parameters, which no optimizer reads."""

    def _fine_tune(self, observation_qbn, hidden_qbn, policy, dataset, epochs):
        parameters = observation_qbn.parameters() + hidden_qbn.parameters()
        optimizer = Adam(parameters, lr=self.config.learning_rate)
        losses = []
        indices = np.arange(len(dataset))
        for _ in range(epochs):
            self._rng.shuffle(indices)
            epoch_losses = []
            for start in range(0, len(dataset), self.config.batch_size):
                rows = indices[start : start + self.config.batch_size]
                reconstructed_obs = observation_qbn(Tensor(dataset.observations[rows]))
                reconstructed_hidden = hidden_qbn(Tensor(dataset.hidden_before[rows]))
                next_hidden = policy.gru(reconstructed_obs, reconstructed_hidden)
                loss = F.cross_entropy(policy.policy_head(next_hidden), dataset.actions[rows])
                optimizer.zero_grad()
                loss.backward()
                clip_grad_norm(parameters, self.config.grad_clip_norm)
                optimizer.step()
                epoch_losses.append(loss.item())
            losses.append(float(np.mean(epoch_losses)))
        return losses


class TestQBNFineTuneFreezesThePolicy:
    CONFIG = QBNTrainingConfig(
        epochs=2, batch_size=4, observation_latent_dim=4, hidden_latent_dim=4,
        autoencoder_hidden_dim=8,
    )

    @pytest.fixture
    def dataset(self, collector, short_trace, tiny_policy):
        return TransitionDataset.from_trajectories(
            collector.collect_batch(
                tiny_policy, [short_trace], greedy=True, episode_rngs=[0]
            )
        )

    @pytest.fixture
    def trained_policy(self, tiny_policy, dataset):
        """A policy carrying the gradients its last A2C update left behind."""
        logits, value, _hidden = tiny_policy.step(
            Tensor(dataset.observations[0]), Tensor(dataset.hidden_before[0])
        )
        (logits.sum() + value.sum()).backward()
        assert all(param.grad is not None for param in tiny_policy.parameters())
        return tiny_policy

    def test_policy_gradients_are_left_alone(self, trained_policy, dataset):
        before = [(param.grad, param.grad.tobytes()) for param in trained_policy.parameters()]
        result = QBNTrainer(self.CONFIG, rng=7).train(
            dataset, policy=trained_policy, fine_tune_epochs=2
        )
        assert len(result.fine_tune_losses) == 2
        for param, (grad, data) in zip(trained_policy.parameters(), before):
            assert param.grad is grad and param.grad.tobytes() == data
            assert param.requires_grad

    def test_flags_restored_when_the_loop_raises(self, trained_policy, dataset, monkeypatch):
        def fail(*args, **kwargs):
            raise RuntimeError("clip failed")

        monkeypatch.setattr("repro.qbn.trainer.clip_grad_norm", fail)
        trained_policy.value_head.bias.requires_grad = False  # restored as found, not to True
        trainer = QBNTrainer(replace(self.CONFIG, epochs=1), rng=7)
        with pytest.raises(RuntimeError, match="clip failed"):
            trainer._fine_tune(
                QuantizedBottleneckNetwork(QBNConfig(dataset.observation_dim, 4, 8), rng=0),
                QuantizedBottleneckNetwork(QBNConfig(dataset.hidden_dim, 4, 8), rng=1),
                trained_policy, dataset, epochs=1,
            )
        flags = {name: p.requires_grad for name, p in trained_policy.named_parameters()}
        assert flags.pop("value_head.bias") is False
        assert all(flags.values()) and len(flags) == 12

    def test_qbns_learn_the_same_bytes_as_the_unfrozen_loop(self, trained_policy, dataset):
        frozen_policy, unfrozen_policy = trained_policy, copy.deepcopy(trained_policy)
        frozen = QBNTrainer(self.CONFIG, rng=7).train(
            dataset, policy=frozen_policy, fine_tune_epochs=2
        )
        unfrozen = _UnfrozenQBNTrainer(self.CONFIG, rng=7).train(
            dataset, policy=unfrozen_policy, fine_tune_epochs=2
        )
        assert frozen.fine_tune_losses == unfrozen.fine_tune_losses
        for ours, theirs in (
            (frozen.observation_qbn, unfrozen.observation_qbn),
            (frozen.hidden_qbn, unfrozen.hidden_qbn),
        ):
            for (name, param), (_, reference) in zip(
                ours.named_parameters(), theirs.named_parameters()
            ):
                assert param.data.tobytes() == reference.data.tobytes(), name
        # ... while the unfrozen loop did pile gradients onto the policy.
        assert any(
            not np.array_equal(a.grad, b.grad)
            for a, b in zip(frozen_policy.gru.parameters(), unfrozen_policy.gru.parameters())
        )


# ----------------------------------------------------------------------
# FSM structure, minimisation, generalisation, interpretation
# ----------------------------------------------------------------------
def _toy_fsm():
    fsm = FiniteStateMachine()
    s0, s1, s2 = (0,), (1,), (2,)
    fsm.add_state(s0, MigrationAction.NOOP).visit_count = 10
    fsm.add_state(s1, MigrationAction.NORMAL_TO_KV).visit_count = 5
    fsm.add_state(s2, MigrationAction.NORMAL_TO_KV).visit_count = 1
    obs_a, obs_b = (0, 0), (1, 1)
    fsm.add_transition(s0, obs_a, s0, np.zeros(3))
    fsm.add_transition(s0, obs_b, s1, np.ones(3))
    fsm.add_transition(s1, obs_a, s0, np.zeros(3))
    fsm.add_transition(s2, obs_a, s0, np.zeros(3))
    fsm.initial_state = s0
    return fsm


class TestFiniteStateMachine:
    def test_counts(self):
        fsm = _toy_fsm()
        assert fsm.num_states == 3
        assert fsm.num_transitions == 4
        fsm.validate()

    def test_step_known_and_unknown_observation(self):
        fsm = _toy_fsm()
        next_state, action = fsm.step((0,), (1, 1))
        assert next_state == (1,)
        assert action is MigrationAction.NORMAL_TO_KV
        # Unknown observation keeps the current state.
        same_state, action = fsm.step((0,), (9, 9))
        assert same_state == (0,)

    def test_step_unknown_state_raises(self):
        with pytest.raises(ExtractionError):
            _toy_fsm().step((9,), (0, 0))

    def test_successors(self):
        successors = _toy_fsm().successors((0,))
        assert successors[(0,)] == 1 and successors[(1,)] == 1

    def test_relabel_orders_by_visits(self):
        fsm = _toy_fsm()
        fsm.relabel()
        labels = {state.code: state.label for state in fsm.states.values()}
        assert labels[(0,)] == "S0"

    def test_merge_equivalent_states(self):
        fsm = _toy_fsm()
        mapping = merge_equivalent_states(fsm)
        # s1 and s2 emit the same action and go to the same partition -> merged.
        assert fsm.num_states == 2
        assert (2,) in mapping
        fsm.validate()

    def test_prune_rare_states(self):
        fsm = _toy_fsm()
        mapping = prune_rare_states(fsm, min_visits=2)
        assert (2,) in mapping
        assert fsm.num_states == 2
        fsm.validate()

    def test_render_outputs(self):
        fsm = _toy_fsm()
        dot = fsm_to_dot(fsm)
        assert dot.startswith("digraph") and "S0" in dot
        table = fsm_summary_table(fsm)
        assert "Noop" in table


class TestGeneralization:
    def test_exact_match_preferred(self):
        prototypes = {(0, 0): np.zeros(3), (1, 1): np.ones(3)}
        matcher = NearestObservationMatcher(
            prototypes, metric="euclidean", encoder=lambda v: (1, 1)
        )
        assert matcher.match(np.ones(3)) == (1, 1)

    def test_euclidean_nearest(self):
        prototypes = {(0,): np.array([0.0, 0.0]), (1,): np.array([1.0, 1.0])}
        matcher = NearestObservationMatcher(prototypes, metric="euclidean")
        assert matcher.match(np.array([0.9, 0.8])) == (1,)
        assert matcher.match(np.array([0.1, 0.0])) == (0,)

    def test_cosine_metric(self):
        prototypes = {(0,): np.array([1.0, 0.0]), (1,): np.array([0.0, 1.0])}
        matcher = NearestObservationMatcher(prototypes, metric="cosine")
        assert matcher.match(np.array([0.9, 0.1])) == (0,)

    def test_invalid_metric(self):
        with pytest.raises(ExtractionError):
            NearestObservationMatcher({(0,): np.zeros(2)}, metric="manhattan")

    def test_empty_prototypes(self):
        with pytest.raises(ExtractionError):
            NearestObservationMatcher({})


class TestExtractionIntegration:
    def test_extraction_produces_consistent_fsm(self, tiny_pipeline_result):
        extraction = tiny_pipeline_result.extraction
        fsm = extraction.fsm
        assert fsm.num_states >= 1
        fsm.validate()
        assert extraction.num_raw_states >= fsm.num_states
        assert len(extraction.records) == len(tiny_pipeline_result.transition_dataset)
        # Every record endpoint is a surviving state.
        for record in extraction.records[:50]:
            assert record.destination_state in fsm.states

    def test_fsm_agent_runs_episode(self, tiny_pipeline_result, tiny_pipeline_config):
        from repro.env.environment import StorageAllocationEnv

        env = StorageAllocationEnv(tiny_pipeline_config.system)
        agent = FSMPolicyAgent.from_extraction(
            tiny_pipeline_result.extraction,
            env.observation_encoder,
            tiny_pipeline_result.qbn_result.observation_qbn,
        )
        result = evaluate_agent(agent, tiny_pipeline_result.eval_traces[:1],
                                system_config=tiny_pipeline_config.system)
        assert result.makespans[0] >= len(tiny_pipeline_result.eval_traces[0])

    def test_drl_agent_runs_episode(self, tiny_pipeline_result, tiny_pipeline_config):
        from repro.env.environment import StorageAllocationEnv

        env = StorageAllocationEnv(tiny_pipeline_config.system)
        agent = DRLPolicyAgent(tiny_pipeline_result.policy, env.observation_encoder)
        result = evaluate_agent(agent, tiny_pipeline_result.eval_traces[:1],
                                system_config=tiny_pipeline_config.system)
        assert result.makespans[0] > 0

    def test_interpretation_bundle(self, tiny_pipeline_result):
        interpretation = tiny_pipeline_result.interpretation
        assert len(interpretation) == tiny_pipeline_result.extraction.fsm.num_states
        for label, info in interpretation.items():
            assert "fan_in_out" in info and "history" in info
            assert info["history"].window == tiny_pipeline_result.extraction.fsm.num_states * 0 + 10

    def test_fan_in_out_statistics(self, tiny_pipeline_result):
        stats = fan_in_out_statistics(
            tiny_pipeline_result.extraction.fsm, tiny_pipeline_result.extraction.records
        )
        assert set(stats) == {
            s.label for s in tiny_pipeline_result.extraction.fsm.states_by_id()
        }

    def test_history_profile_unknown_state(self, tiny_pipeline_result):
        with pytest.raises(ExtractionError):
            history_profile(
                tiny_pipeline_result.extraction.fsm,
                tiny_pipeline_result.extraction.records,
                "S999",
            )

    def test_raw_observation_helpers(self, tiny_pipeline_result):
        raw = tiny_pipeline_result.extraction.records[0].raw_observation
        assert read_intensity_kb(raw) >= 0.0
        assert write_intensity_kb(raw) >= 0.0
        assert capacity_ratio(raw) > 0.0


class _IdentityCodes:
    """A QBN stand-in: the code of a vector is the vector, as integers."""

    def discrete_code(self, x):
        return np.asarray(x).astype(int)


class TestTransitionConflicts:
    def test_overwritten_successor_is_counted(self):
        """Three records on one (state, observation): the second names a
        new successor (one conflict, and it wins), the third repeats it."""
        column = lambda *values: np.array(values, dtype=float)[:, None]
        dataset = TransitionDataset(
            observations=column(5, 5, 5),
            raw_observations=column(5, 5, 5),
            hidden_before=column(0, 0, 0),
            hidden_after=column(1, 2, 2),
            actions=np.array([0, 1, 1]),
            episode_ids=np.zeros(3, dtype=int),
            step_ids=np.arange(3),
        )
        result = FSMExtractor(
            _IdentityCodes(), _IdentityCodes(), ExtractionConfig(merge_equivalent=False)
        ).extract(dataset)
        assert result.transition_conflicts == 1
        assert result.summary()["transition_conflicts"] == 1.0
        assert result.fsm.transitions[((0,), (5,))] == (2,)


# ----------------------------------------------------------------------
# Evaluation harness and pipeline
# ----------------------------------------------------------------------
class TestEvaluationHarness:
    def test_compare_agents_matched_seeds(self, system_config, real_traces):
        from repro.agents import DefaultPolicy, HandcraftedFSMPolicy

        results = compare_agents(
            [DefaultPolicy(), HandcraftedFSMPolicy()], real_traces[:2],
            system_config=system_config, episode_seed=0,
        )
        assert set(results) == {"default", "handcrafted_fsm"}
        assert len(results["default"].makespans) == 2
        table = comparison_table(results)
        assert "MEAN" in table

    def test_relative_reduction(self, system_config, real_traces):
        from repro.agents import DefaultPolicy

        a = evaluate_agent(DefaultPolicy(), real_traces[:1], system_config=system_config)
        assert relative_reduction(a, a) == pytest.approx(0.0)

    def test_evaluate_agent_validation(self, system_config):
        from repro.agents import DefaultPolicy

        with pytest.raises(ConfigurationError):
            evaluate_agent(DefaultPolicy(), [], system_config=system_config)


class TestPipeline:
    def test_pipeline_result_contents(self, tiny_pipeline_result, tiny_pipeline_config):
        assert len(tiny_pipeline_result.standard_traces) == 12
        assert len(tiny_pipeline_result.real_traces) == tiny_pipeline_config.num_real_traces
        assert len(tiny_pipeline_result.eval_traces) == tiny_pipeline_config.num_eval_traces
        assert len(tiny_pipeline_result.training_history) == (
            tiny_pipeline_config.curriculum.total_epochs
        )
        assert tiny_pipeline_result.qbn_result.action_agreement is not None

    def test_pipeline_config_validation(self, tiny_pipeline_config):
        from dataclasses import replace

        bad = replace(tiny_pipeline_config, num_eval_traces=0)
        with pytest.raises(ConfigurationError):
            bad.validate()
        bad2 = replace(tiny_pipeline_config, bc_teacher="unknown_teacher")
        with pytest.raises(ConfigurationError):
            bad2.validate()
