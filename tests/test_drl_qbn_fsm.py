"""Tests for the DRL stack, QBNs, FSM extraction/interpretation and the pipeline.

The heavier integration paths reuse the session-scoped ``tiny_pipeline_result``
fixture (one tiny end-to-end pipeline run) instead of retraining per test.
"""

import copy
import dataclasses
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.agents import GreedyUtilizationPolicy
from repro.drl.a2c import A2CConfig, A2CTrainer, TrainingHistory
from repro.drl.agent import DRLPolicyAgent
from repro.drl.checkpoints import load_policy, save_policy
from repro.drl.curriculum import CurriculumConfig, CurriculumTrainer
from repro.drl.imitation import BehaviorCloningTrainer, ImitationConfig
from repro.drl.policy import PolicyConfig, RecurrentPolicyValueNet
from repro.engine.compiled_fsm import CompiledFSMPolicy
from repro.env.reward import RewardConfig
from repro.errors import ConfigurationError, ExtractionError, TrainingError
from repro.fsm.agent import FSMPolicyAgent
from repro.fsm.extraction import ExtractionConfig, FSMExtractor
from repro.fsm.interpretation import (
    capacity_ratio,
    fan_in_out_statistics,
    history_profile,
    interpret_fsm,
    read_intensity_kb,
    write_intensity_kb,
)
from repro.fsm.machine import FiniteStateMachine
from repro.fsm.minimize import fold_compatible_states
from repro.fsm.render import fsm_summary_table, fsm_to_dot
from repro.optim import clip_grad_norm
from repro.pipeline.evaluation import compare_agents, comparison_table, relative_reduction
from repro.qbn.autoencoder import QBNConfig, QuantizedBottleneckNetwork, build_observation_qbn
from repro.qbn.dataset import TransitionDataset
from repro.qbn.quantize import code_key, quantization_levels, quantize_ste, values_to_codes
from repro.qbn.trainer import QBNTrainer, QBNTrainingConfig
from repro.storage.migration import MigrationAction
from repro.autograd.tensor import Tensor
from repro.utils.rng import ACTION_DOMAIN, episode_lanes


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
        out = tiny_policy.act_batch(
            np.zeros((1, tiny_policy.config.observation_dim)),
            tiny_policy.initial_hidden_np(1),
            episode_lanes([0], ACTION_DOMAIN).uniforms,
            greedy=False,
        )
        assert 0 <= out.actions[0] < 7
        assert out.probabilities.shape == (1, 7)
        assert np.isclose(out.probabilities.sum(), 1.0)
        assert out.hidden_states.shape == (1, 16)

    def test_epsilon_one_gives_random_actions(self, tiny_policy):
        actions = {
            int(
                tiny_policy.act_batch(
                    np.zeros((1, tiny_policy.config.observation_dim)),
                    tiny_policy.initial_hidden_np(1),
                    episode_lanes([i], ACTION_DOMAIN).uniforms,
                    epsilon=1.0,
                ).actions[0]
            )
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
        obs = np.random.default_rng(0).random((1, tiny_policy.config.observation_dim))
        h = tiny_policy.initial_hidden_np(1)
        np.testing.assert_allclose(
            tiny_policy.act_batch(obs, h).log_probs, loaded.act_batch(obs, h).log_probs
        )


class TestRollout:
    def test_collect_records_full_episode(self, collector, short_trace, tiny_policy):
        (trajectory,) = collector.collect_batch(
            tiny_policy, [short_trace], greedy=True
        )
        assert len(trajectory) == trajectory.makespan
        assert trajectory.observations().shape == (len(trajectory), 35)
        assert trajectory.hidden_states_before().shape == (len(trajectory), 16)
        assert trajectory.actions().min() >= 0 and trajectory.actions().max() < 7

    def test_hidden_states_chain(self, collector, short_trace, tiny_policy):
        (trajectory,) = collector.collect_batch(
            tiny_policy, [short_trace], greedy=True
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
        # From scratch is the curriculum without its standard-trace phase.
        _, history = trainer.train_with_curriculum(
            [], real_traces[:1], CurriculumConfig(standard_epochs=0, real_epochs=2)
        )
        assert len(history) == 2
        assert set(history.phases()) == {"finetune_real"}

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
        codes = qbn.discrete_code(np.random.default_rng(0).random((5, 6)))
        assert set(np.unique(codes)) <= {0, 1, 2}

    def test_reconstruction_shape_and_error(self):
        qbn = QuantizedBottleneckNetwork(QBNConfig(input_dim=6, latent_dim=4, hidden_dim=8), rng=0)
        data = np.random.default_rng(0).random((10, 6))
        assert qbn(Tensor(data)).shape == (10, 6)

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
            tiny_policy, [short_trace], greedy=True
        )
        dataset = TransitionDataset.from_trajectories(trajectories)
        assert len(dataset) == len(trajectories[0])
        assert dataset.observation_dim == 35
        assert dataset.hidden_dim == 16

    def test_dataset_validation(self):
        with pytest.raises(ExtractionError):
            TransitionDataset.from_trajectories([])

    def test_qbn_training_config_validation(self):
        with pytest.raises(ConfigurationError):
            QBNTrainingConfig(epochs=0)

    @pytest.mark.parametrize("width", [0, -3])
    def test_autoencoder_hidden_dim_is_refused_at_construction(self, width):
        """It used to pass and fail only when the first QBN was built."""
        with pytest.raises(ConfigurationError, match="autoencoder_hidden_dim"):
            QBNTrainingConfig(autoencoder_hidden_dim=width)

    def test_the_action_term_keeps_a_low_variance_decision_column(self, tiny_policy):
        """The action is the sign of one quiet column among 34 loud ones:
        a reconstruction-only book spends its two latents on the noise,
        one trained on the action too keeps the decision."""
        rng = np.random.default_rng(0)
        rows = 512
        observations = rng.standard_normal((rows, tiny_policy.config.observation_dim))
        observations[:, 0] *= 0.1
        actions = (observations[:, 0] > 0).astype(np.int64)
        hidden = np.tanh(rng.standard_normal((rows + 1, tiny_policy.config.hidden_size)))
        dataset = TransitionDataset(
            observations=observations,
            raw_observations=observations,
            hidden_before=hidden[:-1],
            hidden_after=hidden[1:],
            actions=actions,
            episode_ids=np.zeros(rows, dtype=np.int64),
            step_ids=np.arange(rows),
        )
        config = QBNTrainingConfig(
            epochs=20, batch_size=64, learning_rate=1e-2, observation_latent_dim=2,
            hidden_latent_dim=2, autoencoder_hidden_dim=16,
        )

        def code_agreement():
            result = QBNTrainer(config, rng=0).train(dataset, tiny_policy)
            codes = result.observation_qbn.discrete_code(observations)
            return QBNTrainer.code_agreement(codes, actions)

        assert code_agreement() >= 0.9
        with mock.patch("repro.qbn.trainer.ACTION_WEIGHT", 0.0):
            assert code_agreement() < 0.7

    def test_code_agreement_is_the_majority_share(self):
        codes = np.array([[0, 1], [0, 1], [0, 1], [2, 2], [2, 2], [1, 0]])
        actions = np.array([3, 3, 5, 0, 1, 6])
        assert QBNTrainer.code_agreement(codes, actions) == 4 / 6


class _UnfrozenQBNTrainer(QBNTrainer):
    """The hidden book's loop with the policy left trainable: the head's
    parameters stay out of the optimizer, but every backward also sums
    into them."""

    def _train_autoencoder(self, qbn, data, head, labels):
        frozen = [param for param in head.parameters() if not param.requires_grad]
        if not frozen:
            return super()._train_autoencoder(qbn, data, head, labels)
        for param in frozen:
            param.requires_grad = True
        try:
            with mock.patch.object(head, "parameters", return_value=[]):
                return super()._train_autoencoder(qbn, data, head, labels)
        finally:
            for param in frozen:
                param.requires_grad = False


class TestQBNFineTuneFreezesThePolicy:
    """The action term is the QBNs' fine-tune with the policy in the loop:
    the hidden book trains through ``policy.policy_head``, frozen."""

    CONFIG = QBNTrainingConfig(
        epochs=2, batch_size=4, observation_latent_dim=4, hidden_latent_dim=4,
        autoencoder_hidden_dim=8,
    )

    @pytest.fixture
    def dataset(self, collector, short_trace, tiny_policy):
        return TransitionDataset.from_trajectories(
            collector.collect_batch(
                tiny_policy, [short_trace], greedy=True
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
        result = QBNTrainer(self.CONFIG, rng=7).train(dataset, trained_policy)
        assert len(result.hidden_losses) == 2
        for param, (grad, data) in zip(trained_policy.parameters(), before):
            assert param.grad is grad and param.grad.tobytes() == data
            assert param.requires_grad

    def test_flags_restored_when_the_loop_raises(self, trained_policy, dataset, monkeypatch):
        def fail_in_the_hidden_book(parameters, max_norm):
            if not trained_policy.policy_head.weight.requires_grad:
                raise RuntimeError("clip failed")
            return clip_grad_norm(parameters, max_norm)

        monkeypatch.setattr("repro.qbn.trainer.clip_grad_norm", fail_in_the_hidden_book)
        trained_policy.value_head.bias.requires_grad = False  # restored as found, not to True
        trainer = QBNTrainer(replace(self.CONFIG, epochs=1), rng=7)
        with pytest.raises(RuntimeError, match="clip failed"):
            trainer.train(dataset, trained_policy)
        flags = {name: p.requires_grad for name, p in trained_policy.named_parameters()}
        assert flags.pop("value_head.bias") is False
        assert all(flags.values()) and len(flags) == 12

    def test_qbns_learn_the_same_bytes_as_the_unfrozen_loop(self, trained_policy, dataset):
        frozen_policy, unfrozen_policy = trained_policy, copy.deepcopy(trained_policy)
        frozen = QBNTrainer(self.CONFIG, rng=7).train(dataset, frozen_policy)
        unfrozen = _UnfrozenQBNTrainer(self.CONFIG, rng=7).train(dataset, unfrozen_policy)
        assert frozen.hidden_losses == unfrozen.hidden_losses
        for ours, theirs in (
            (frozen.observation_qbn, unfrozen.observation_qbn),
            (frozen.hidden_qbn, unfrozen.hidden_qbn),
        ):
            for (name, param), (_, reference) in zip(
                ours.named_parameters(), theirs.named_parameters()
            ):
                assert param.data.tobytes() == reference.data.tobytes(), name
        assert self._bytes(frozen_policy) == self._bytes(unfrozen_policy)
        # ... while the unfrozen loop did pile gradients onto the head.
        assert all(
            not np.array_equal(a.grad, b.grad)
            for a, b in zip(
                frozen_policy.policy_head.parameters(), unfrozen_policy.policy_head.parameters()
            )
        )

    @staticmethod
    def _bytes(module):
        return [param.data.tobytes() for param in module.parameters()]


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
    fsm.add_transition(s1, obs_b, s1, np.ones(3))
    fsm.add_transition(s2, obs_a, s0, np.zeros(3))
    fsm.add_transition(s2, obs_b, s1, np.ones(3))
    fsm.initial_state = s0
    return fsm


def _partial_fsm(actions, visits, edges, start=(0,)):
    """A machine with states ``(i,)`` and the seen cells ``{(i, code): j}``."""
    fsm = FiniteStateMachine()
    for i, (action, count) in enumerate(zip(actions, visits)):
        fsm.add_state((i,), MigrationAction(action)).visit_count = count
    for (source, code), destination in edges.items():
        fsm.add_transition((source,), (code,), (destination,))
    fsm.initial_state = start
    return fsm


class TestFiniteStateMachine:
    def test_counts(self):
        fsm = _toy_fsm()
        assert fsm.num_states == 3
        assert fsm.num_transitions == 6
        fsm.validate()

    def test_step_known_and_unknown_observation(self):
        fsm = _toy_fsm()
        next_state, action = fsm.step((0,), (1, 1))
        assert next_state == (1,)
        assert action is MigrationAction.NORMAL_TO_KV
        # A code the machine has no column for is refused: callers map it
        # to its nearest prototype's code first.
        with pytest.raises(ExtractionError, match="no transition"):
            fsm.step((0,), (9, 9))

    def test_step_unknown_state_raises(self):
        with pytest.raises(ExtractionError):
            _toy_fsm().step((9,), (0, 0))

    def test_validate_refuses_a_partial_machine(self):
        fsm = _toy_fsm()
        del fsm.transitions[((2,), (1, 1))]
        with pytest.raises(ExtractionError, match="not total"):
            fsm.validate()
        with pytest.raises(ExtractionError, match="not total"):
            CompiledFSMPolicy.compile(fsm, build_observation_qbn(3, latent_dim=2, rng=0))

    def test_validate_refuses_a_code_without_a_prototype(self):
        fsm = _toy_fsm()
        fsm.transitions[((0,), (7, 7))] = (0,)
        with pytest.raises(ExtractionError, match="has no prototype"):
            fsm.validate()

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
        mapping = fold_compatible_states(fsm)
        # s1 and s2 emit the same action and go to the same states -> merged
        # into the more visited s1, which now carries both visit counts.
        assert mapping == {(2,): (1,)}
        assert fsm.num_states == 2 and fsm.states[(1,)].visit_count == 6
        fsm.validate()

    def test_unseen_cells_do_not_block_a_fold(self):
        # 1 and 2 saw different codes, so nothing tells them apart.
        fsm = _partial_fsm([0, 1, 1], [9, 4, 1], {(0, 0): 1, (1, 0): 0, (2, 1): 0})
        assert fold_compatible_states(fsm) == {(2,): (1,)}
        assert fsm.transitions == {((0,), (0,)): (1,), ((1,), (0,)): (0,), ((1,), (1,)): (0,)}

    def test_a_fold_that_joins_two_actions_is_abandoned(self):
        # Folding 3 into 1, the only state sharing its action, would force
        # their successors 0 and 2 together, which emit different actions.
        fsm = _partial_fsm(
            [0, 1, 2, 1], [9, 5, 3, 1], {(1, 0): 0, (3, 0): 2, (0, 0): 0, (2, 0): 2}
        )
        mapping = fold_compatible_states(fsm)
        assert mapping == {}
        assert fsm.num_states == 4

    def test_the_start_state_is_never_folded_away(self):
        # The start is the least visited state; it absorbs its twin.
        fsm = _partial_fsm([1, 1], [0, 7], {(0, 0): 1, (1, 0): 1}, start=(0,))
        assert fold_compatible_states(fsm) == {(1,): (0,)}
        assert fsm.initial_state == (0,) and fsm.states[(0,)].visit_count == 7

    def test_render_outputs(self):
        fsm = _toy_fsm()
        dot = fsm_to_dot(fsm)
        assert dot.startswith("digraph") and "S0" in dot
        table = fsm_summary_table(fsm)
        assert "Noop" in table


@st.composite
def _machines_and_walks(draw):
    """A random partial machine over two actions (so states fold) and a
    walk along its seen cells: each step picks one of the codes the
    current state has a transition on."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    fsm = FiniteStateMachine()
    states = [(i,) for i in range(draw(st.integers(1, 8)))]
    for code in states:
        fsm.add_state(code, MigrationAction(int(rng.integers(2)))).visit_count = int(
            rng.integers(5)
        )
    observations = [(j,) for j in range(draw(st.integers(1, 4)))]
    for source in states:
        for observation in observations:
            if rng.random() < 0.6:
                fsm.add_transition(source, observation, states[int(rng.integers(len(states)))])
    if draw(st.booleans()):
        fsm.initial_state = states[int(rng.integers(len(states)))]
    choices = rng.integers(1 << 30, size=draw(st.integers(0, 30))).tolist()
    return fsm, choices


@st.composite
def _datasets(draw):
    """A random transition dataset over small integer codes (read with
    :class:`_IdentityCodes`); actions mostly follow the successor."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows = draw(st.integers(1, 60))
    hidden = rng.integers(draw(st.integers(1, 6)), size=(rows, 2)).astype(float)
    observations = rng.integers(3, size=(rows, 2)).astype(float)
    actions = np.where(
        rng.random(rows) < 0.8, hidden[:, 1].astype(int) % 3, rng.integers(3, size=rows)
    )
    return TransitionDataset(
        observations=observations,
        raw_observations=observations,
        hidden_before=hidden[:, :1],
        hidden_after=hidden[:, 1:],
        actions=actions,
        episode_ids=np.zeros(rows, dtype=int),
        step_ids=np.arange(rows),
    )


def _extract(dataset):
    return FSMExtractor(_IdentityCodes(), _IdentityCodes()).extract(dataset).fsm


def _machine_or_refusal(dataset):
    """The extracted states, actions and tables, or the refusal's message."""
    try:
        fsm = _extract(dataset)
    except ExtractionError as error:
        return str(error)
    states = {
        key: (state.state_id, int(state.action), state.visit_count)
        for key, state in fsm.states.items()
    }
    return states, fsm.initial_state, fsm.transitions, fsm.transition_counts


class TestMergePreservesBehaviour:
    @settings(max_examples=300, deadline=None)
    @given(case=_machines_and_walks())
    def test_action_sequence_unchanged_by_merging(self, case):
        """On any input that stays on the raw machine's seen cells, the
        folded machine emits the same actions."""
        fsm, choices = case
        raw = copy.deepcopy(fsm)
        fold_compatible_states(fsm)
        raw_state, state = raw.start_state(), fsm.start_state()
        for choice in choices:
            seen = sorted(code for (source, code) in raw.transitions if source == raw_state)
            if not seen:
                break
            observation = seen[choice % len(seen)]
            raw_state, expected = raw.step(raw_state, observation)
            state, action = fsm.step(state, observation)
            assert action == expected

    @settings(max_examples=150, deadline=None)
    @given(dataset=_datasets(), seed=st.integers(0, 2**32 - 1))
    def test_row_order_does_not_change_the_machine(self, dataset, seed):
        """States, actions, visit counts and both tables ignore the order
        of the dataset's rows (prototypes do not: they are running means)."""
        order = np.random.default_rng(seed).permutation(len(dataset))
        shuffled = TransitionDataset(
            observations=dataset.observations[order],
            raw_observations=dataset.raw_observations[order],
            hidden_before=dataset.hidden_before[order],
            hidden_after=dataset.hidden_after[order],
            actions=dataset.actions[order],
            episode_ids=dataset.episode_ids[order],
            step_ids=dataset.step_ids[order],
        )
        assert _machine_or_refusal(shuffled) == _machine_or_refusal(dataset)

    @settings(max_examples=100, deadline=None)
    @given(dataset=_datasets())
    def test_compiled_table_equals_step_on_every_cell(self, dataset):
        try:
            fsm = _extract(dataset)
        except ExtractionError:
            assume(False)
        compiled = CompiledFSMPolicy.compile(fsm, build_observation_qbn(2, latent_dim=2, rng=0))
        states, codes = list(fsm.states), list(fsm.observation_prototypes)
        for row, state in enumerate(states):
            for column, code in enumerate(codes):
                successor, action = fsm.step(state, code)
                assert states[compiled.transition_table[row, column]] == successor
                assert compiled.action_table[compiled.transition_table[row, column]] == action


def _agent(fsm, code):
    """An agent whose QBN quantises every vector to ``code``, fed
    observations that are already normalised vectors."""
    qbn = mock.Mock(**{"discrete_code.return_value": np.array(code)})
    return FSMPolicyAgent(fsm, qbn, mock.Mock(normalize=np.asarray))


class TestGeneralization:
    """Unseen codes resolve over the machine's own prototype table."""

    def test_exact_match_preferred(self):
        # (1, 1) is a prototype code: it steps as it is, although the
        # vector sits on the (0, 0) prototype.
        agent = _agent(_toy_fsm(), (1, 1))
        assert agent.act(np.zeros(3)) is MigrationAction.NORMAL_TO_KV
        assert agent._state == (1,) and agent.unseen_observation_count == 0

    def test_euclidean_nearest(self):
        agent = _agent(_toy_fsm(), (5, 5))
        assert agent.act(np.array([0.9, 0.8, 0.9])) is MigrationAction.NORMAL_TO_KV
        assert agent._state == (1,)
        assert agent.act(np.array([0.1, 0.0, 0.2])) is MigrationAction.NOOP
        assert agent._state == (0,) and agent.unseen_observation_count == 2

    def test_empty_prototypes(self):
        """A machine without prototypes has no column to step or fall
        back to: neither the agent nor the compiler accepts it."""
        fsm = _toy_fsm()
        fsm.observation_prototypes.clear()
        with pytest.raises(ExtractionError, match="no observation prototypes"):
            _agent(fsm, (5, 5))
        with pytest.raises(ExtractionError, match="no observation prototypes"):
            CompiledFSMPolicy.compile(fsm, build_observation_qbn(3, latent_dim=2, rng=0))


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
        # Every state's action is one of the seven legal migration actions.
        legal = {"Noop", "N=>K", "N=>R", "K=>N", "K=>R", "R=>N", "R=>K"}
        assert {state.action_name for state in fsm.states_by_id()} <= legal

    def test_fsm_agent_runs_episode(self, tiny_pipeline_result, tiny_pipeline_config):
        from repro.env.environment import StorageAllocationEnv

        env = StorageAllocationEnv(tiny_pipeline_config.system)
        agent = FSMPolicyAgent.from_extraction(
            tiny_pipeline_result.extraction,
            env.observation_encoder,
            tiny_pipeline_result.qbn_result.observation_qbn,
        )
        result = compare_agents([agent], tiny_pipeline_result.eval_traces[:1],
                                system_config=tiny_pipeline_config.system)[agent.name]
        assert result.makespans[0] >= len(tiny_pipeline_result.eval_traces[0])

    def test_drl_agent_runs_episode(self, tiny_pipeline_result, tiny_pipeline_config):
        from repro.env.environment import StorageAllocationEnv

        env = StorageAllocationEnv(tiny_pipeline_config.system)
        agent = DRLPolicyAgent(tiny_pipeline_result.policy, env.observation_encoder)
        result = compare_agents([agent], tiny_pipeline_result.eval_traces[:1],
                                system_config=tiny_pipeline_config.system)[agent.name]
        assert result.makespans[0] > 0

    def test_interpretation_bundle(self, tiny_pipeline_result):
        interpretation = tiny_pipeline_result.interpretation
        assert len(interpretation) == tiny_pipeline_result.extraction.fsm.num_states
        for label, info in interpretation.items():
            assert "fan_in_out" in info and "history" in info
            profile = info["history"]
            assert profile.window == 10
            assert profile.read_intensity.shape == (10,)
            assert profile.write_intensity.shape == (10,)
            assert profile.capacity_ratio_series.shape == (10,)

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

    def test_one_pass_profiles_equal_the_per_state_function(self, tiny_pipeline_result):
        """``interpret_fsm`` collects every state's entry windows in one pass
        over the records; each profile equals ``history_profile``'s for that
        state alone, and both count and average the windows the per-state
        scan over every record finds."""
        fsm = tiny_pipeline_result.extraction.fsm
        records = tiny_pipeline_result.extraction.records
        by_step = {(record.episode, record.step): record for record in records}
        bundle = interpret_fsm(fsm, records)
        assert sum(info["history"].num_entries for info in bundle.values()) > 0
        for code, state in fsm.states.items():
            windows = [
                np.stack([by_step[record.episode, step].raw_observation for step in steps])
                for record in records
                if record.destination_state == code != record.source_state
                for steps in [range(record.step - 10, record.step)]
                if all((record.episode, step) in by_step for step in steps)
            ]
            one_pass = bundle[state.label]["history"]
            alone = history_profile(fsm, records, state.label)
            for field in dataclasses.fields(one_pass):
                got, want = getattr(one_pass, field.name), getattr(alone, field.name)
                if isinstance(got, np.ndarray):
                    assert got.tobytes() == want.tobytes(), field.name
                else:
                    assert got == want, field.name
            assert one_pass.num_entries == len(windows)
            if windows:
                assert np.array_equal(one_pass.mean_history, np.mean(windows, axis=0))

    def test_history_profile_needs_records(self, tiny_pipeline_result):
        fsm = tiny_pipeline_result.extraction.fsm
        with pytest.raises(ExtractionError, match="records"):
            history_profile(fsm, [], fsm.states_by_id()[0].label)

    def test_raw_observation_helpers(self, tiny_pipeline_result):
        raw = tiny_pipeline_result.extraction.records[0].raw_observation
        assert read_intensity_kb(raw) >= 0.0
        assert write_intensity_kb(raw) >= 0.0
        assert capacity_ratio(raw) > 0.0


class _IdentityCodes:
    """A QBN stand-in: the code of a vector is the vector, as integers."""

    def discrete_code(self, x):
        return np.asarray(x).astype(int)


def _collapsed_dataset(actions):
    """One hidden code and one observation code for every row."""
    rows = len(actions)
    column = np.zeros((rows, 1))
    return TransitionDataset(
        observations=column + 5,
        raw_observations=column + 5,
        hidden_before=column,
        hidden_after=column,
        actions=np.asarray(actions),
        episode_ids=np.zeros(rows, dtype=int),
        step_ids=np.arange(rows),
    )


class TestTransitionConflicts:
    def test_overwritten_successor_is_counted(self):
        """Three records on one (state, observation): the first names one
        successor, the other two another (one conflicting cell), and the
        majority decides the cell."""
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
        result = FSMExtractor(_IdentityCodes(), _IdentityCodes()).extract(dataset)
        assert result.transition_conflicts == 1
        assert result.summary()["transition_conflicts"] == 1.0
        assert result.fsm.transitions[((0,), (5,))] == (2,)

    def test_majority_successor_ties_go_to_the_lowest_raw_state(self):
        column = lambda *values: np.array(values, dtype=float)[:, None]
        dataset = TransitionDataset(
            observations=column(5, 5, 6, 6),
            raw_observations=column(5, 5, 6, 6),
            hidden_before=column(0, 0, 0, 0),
            hidden_after=column(2, 1, 1, 2),
            actions=np.array([1, 2, 2, 1]),
            episode_ids=np.zeros(4, dtype=int),
            step_ids=np.arange(4),
        )
        fsm = FSMExtractor(_IdentityCodes(), _IdentityCodes()).extract(dataset).fsm
        assert fsm.transitions[((0,), (5,))] == fsm.transitions[((0,), (6,))] == (1,)


class TestTotalMachine:
    def test_unseen_cells_take_the_codes_majority_successor(self):
        """State 1 never saw code 6; the records name 2 after code 6 twice
        and 1 once, so its cell goes to 2.  State 2 never saw code 5,
        after which 0 and 1 tie; 1 is visited more, so its final id is
        lower and it wins.  Filled cells add no counts."""
        column = lambda *values: np.array(values, dtype=float)[:, None]
        dataset = TransitionDataset(
            observations=column(5, 6, 6, 6, 5),
            raw_observations=column(5, 6, 6, 6, 5),
            hidden_before=column(0, 0, 2, 0, 1),
            hidden_after=column(1, 2, 2, 1, 0),
            actions=np.array([1, 2, 2, 1, 0]),
            episode_ids=np.zeros(5, dtype=int),
            step_ids=np.arange(5),
        )
        result = FSMExtractor(_IdentityCodes(), _IdentityCodes()).extract(dataset)
        fsm = result.fsm
        assert fsm.num_states == 3 and fsm.num_transitions == 6
        assert fsm.transitions[((1,), (6,))] == (2,)
        assert fsm.transitions[((1,), (5,))] == (0,)
        assert fsm.transitions[((2,), (5,))] == (1,) and fsm.states[(1,)].state_id == 0
        assert sum(fsm.transition_counts.values()) == len(dataset)
        assert result.coverage == pytest.approx(4 / 6)
        assert result.summary()["coverage"] == pytest.approx(4 / 6)

    def test_a_machine_that_erases_a_frequent_action_is_refused(self):
        with pytest.raises(ExtractionError, match="emits only"):
            FSMExtractor(_IdentityCodes(), _IdentityCodes()).extract(
                _collapsed_dataset([0] * 18 + [3] * 2)
            )

    def test_one_state_over_one_frequent_action_is_accepted(self):
        # Action 3 holds 1 of 21 records, under 5%.
        result = FSMExtractor(_IdentityCodes(), _IdentityCodes()).extract(
            _collapsed_dataset([0] * 20 + [3])
        )
        assert result.fsm.num_states == 1 and result.coverage == 1.0


class TestExtractionConfig:
    def test_zero_is_accepted(self):
        assert ExtractionConfig(min_state_visits=0) == ExtractionConfig()

    @pytest.mark.parametrize("value", [True, 1, -1])
    def test_anything_but_the_integer_zero_is_refused(self, value):
        with pytest.raises(ConfigurationError, match="min_state_visits"):
            ExtractionConfig(min_state_visits=value)


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

        a = compare_agents([DefaultPolicy()], real_traces[:1], system_config=system_config)
        assert relative_reduction(a["default"], a["default"]) == pytest.approx(0.0)

    def test_evaluate_agent_validation(self, system_config):
        from repro.agents import DefaultPolicy

        with pytest.raises(ConfigurationError):
            compare_agents([DefaultPolicy()], [], system_config=system_config)


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
