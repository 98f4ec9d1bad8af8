"""Tests for the GRU cell and its sequence node."""

import contextlib
import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import native
from repro.agents.greedy import GreedyUtilizationPolicy
from repro.autograd import check_gradients
from repro.autograd import functional as F
from repro.autograd.tensor import Tensor, no_grad
from repro.drl.a2c import A2CConfig, A2CTrainer
from repro.drl.imitation import BehaviorCloningTrainer, ImitationConfig
from repro.drl.policy import PolicyConfig, RecurrentPolicyValueNet
from repro.drl.rollout import BatchedRolloutCollector
from repro.env.reward import RewardConfig
from repro.env.vector_env import VectorStorageAllocationEnv
from repro.errors import ShapeError
from repro.nn import GRUCell, Linear, dense_native, rnn
from repro.nn.module import Parameter
from repro.optim import Adam
from repro.qbn.autoencoder import QBNConfig, QuantizedBottleneckNetwork
from repro.qbn.dataset import TransitionDataset
from repro.qbn.quantize import (
    nearest_level_indices, quantization_levels, quantize_ste, values_to_codes,
)
from repro.qbn.trainer import QBNTrainer, QBNTrainingConfig
from test_nn_modules import same_grad, oracle_linear_forward
from conftest import kernels_off, native_or_skip, unprobed


class TestGRUCell:
    def test_output_shape_single(self):
        cell = GRUCell(5, 8, rng=0)
        h = cell(Tensor(np.zeros(5)))
        assert h.shape == (8,)

    def test_output_shape_batch(self):
        cell = GRUCell(5, 8, rng=0)
        h = cell(Tensor(np.zeros((3, 5))), cell.initial_state(3))
        assert h.shape == (3, 8)

    def test_initial_state_zero(self):
        cell = GRUCell(4, 6, rng=0)
        assert np.all(cell.initial_state().numpy() == 0)
        assert cell.initial_state(2).shape == (2, 6)

    def test_hidden_bounded_by_tanh(self):
        cell = GRUCell(3, 4, rng=0)
        h = cell(Tensor(np.random.default_rng(0).random(3) * 10))
        assert np.all(np.abs(h.numpy()) <= 1.0)

    def test_zero_update_gate_keeps_candidate(self):
        # With all weights zero, update gate z=0.5, candidate n=0 -> h = 0.5*h_prev.
        cell = GRUCell(2, 2, rng=0)
        for param in cell.parameters():
            param.data[...] = 0.0
        h_prev = Tensor(np.array([0.4, -0.6]))
        h = cell(Tensor(np.zeros(2)), h_prev)
        np.testing.assert_allclose(h.numpy(), 0.5 * h_prev.numpy())

    def test_wrong_input_dim(self):
        with pytest.raises(ShapeError):
            GRUCell(3, 4, rng=0)(Tensor(np.zeros(5)))

    def test_wrong_hidden_dim(self):
        cell = GRUCell(3, 4, rng=0)
        with pytest.raises(ShapeError):
            cell(Tensor(np.zeros(3)), Tensor(np.zeros(5)))

    def test_parameter_count(self):
        cell = GRUCell(3, 4, rng=0)
        # 3 gates x (3*4 input + 4*4 hidden + 4 bias)
        assert sum(p.data.size for p in cell.parameters()) == 3 * (12 + 16 + 4)

    def test_gradients_through_two_steps(self):
        cell = GRUCell(2, 3, rng=0)
        x1 = np.random.default_rng(1).random(2)
        x2 = np.random.default_rng(2).random(2)

        def loss():
            h = cell(Tensor(x1))
            h = cell(Tensor(x2), h)
            return (h * h).sum()

        check_gradients(loss, dict(cell.named_parameters()), atol=1e-4)

    def test_deterministic_given_seed(self):
        a = GRUCell(3, 4, rng=7)
        b = GRUCell(3, 4, rng=7)
        x = np.random.default_rng(0).random(3)
        np.testing.assert_allclose(a(Tensor(x)).numpy(), b(Tensor(x)).numpy())


class TestGRUSequence:
    """``Unrolled``, the sequence node behind ``RecurrentPolicyValueNet.unroll``."""

    def test_unroll_shapes(self):
        sequence = np.random.default_rng(0).random((10, 4))
        run = rnn.Unrolled(GRUCell(4, 6, rng=0), sequence, np.zeros(6))
        assert run.hiddens.shape == (11, 6)
        assert run.reset.shape == run.update.shape == run.candidate.shape == (10, 6)

    def test_batched_unroll(self):
        policy = _policy(6, observation_dim=4)
        logits, values = policy.unroll(np.random.default_rng(0).random((5, 3, 4)), values=True)
        assert logits.shape == (5, 3, 7)
        assert values.shape == (5, 3)

    def test_matches_manual_cell_unroll(self):
        cell = GRUCell(3, 5, rng=1)
        seq = np.random.default_rng(1).random((4, 3))
        run = rnn.Unrolled(cell, seq, np.zeros(5))
        h = cell.initial_state()
        for t in range(4):
            h = cell(Tensor(seq[t]), h)
            np.testing.assert_allclose(run.hiddens[t + 1], h.numpy())

    def test_invalid_rank_raises(self):
        with pytest.raises(ShapeError):
            rnn.Unrolled(GRUCell(3, 4, rng=0), np.zeros(3), np.zeros(4))
        with pytest.raises(ShapeError):
            _policy(4, observation_dim=3).unroll(np.zeros(3))

    def test_custom_initial_state_used(self):
        cell = GRUCell(2, 3, rng=0)
        from_custom = rnn.Unrolled(cell, np.zeros((1, 2)), np.full(3, 0.9))
        from_zero = rnn.Unrolled(cell, np.zeros((1, 2)), np.zeros(3))
        assert not np.allclose(from_custom.hiddens[1], from_zero.hiddens[1])


def test_forward_np_sees_rebound_bias_at_every_batch_size():
    """Rebinding a bias changes the next inference step at every B.

    ``forward_np`` reads ``.data`` at call time: a weight cache keyed on
    anything less than all nine parameters would serve a stale bias to
    some batch sizes while the autograd forward sees the new one.
    """
    cell = GRUCell(4, 16, rng=0)
    rng = np.random.default_rng(1)
    x = rng.standard_normal((5, 4))
    h = rng.standard_normal((5, 16))
    before = {b: cell.forward_np(x[:b], h[:b]) for b in (1, 2, 5)}
    cell.b_r.data = rng.standard_normal(16)
    expected = cell(Tensor(x), Tensor(h)).numpy()
    for batch, stale in before.items():
        after = cell.forward_np(x[:batch], h[:batch])
        assert not np.array_equal(after, stale), f"B={batch} kept the old bias"
        np.testing.assert_allclose(after, expected[:batch], rtol=0, atol=1e-12)

    # The same through the in-place writers: ``load_state_dict`` writes
    # ``param.data[...]`` and there is no version counter to bump — a
    # Parameter is a plain Tensor and the forward reads it at call time.
    assert not hasattr(cell.b_r, "version") and not hasattr(cell.b_r, "assign")
    donor = GRUCell(4, 16, rng=9)
    arrays = {name: param.data for name, param in cell.named_parameters()}
    cell.load_state_dict(donor.state_dict())
    assert all(param.data is arrays[name] for name, param in cell.named_parameters())
    for batch in before:
        np.testing.assert_array_equal(
            cell.forward_np(x[:batch], h[:batch]), donor.forward_np(x[:batch], h[:batch])
        )


# ----------------------------------------------------------------------
# The bitwise contract: fused nodes are the op-by-op graphs they replaced
# ----------------------------------------------------------------------
def chain_unroll(self, observations, values=False):
    """``RecurrentPolicyValueNet.unroll`` as the chain it replaced: one ``step`` per row."""
    observations = np.asarray(observations, dtype=np.float64)
    hidden = self.initial_state(observations.shape[1] if observations.ndim == 3 else None)
    logit_steps, value_steps = [], []
    for row in observations:
        logits, value, hidden = self.step(Tensor(row), hidden)
        logit_steps.append(logits)
        value_steps.append(value)
    logits = Tensor.stack(logit_steps, axis=0)
    if not values:
        return logits
    return logits, Tensor.stack(value_steps, axis=0).reshape(observations.shape[:-1])


def oracle_qbn_encode(self, x):
    """The QBN encoder op by op: ``Linear -> tanh -> Linear -> tanh -> quantize_ste``."""
    if not isinstance(x, Tensor):
        x = Tensor(x)
    hidden = self.encoder_hidden(x).tanh()
    latent = self.encoder_latent(hidden).tanh()
    return quantize_ste(latent, self.config.quantization_levels)


def oracle_qbn_forward(self, x):
    """``QuantizedBottleneckNetwork.forward`` as the eight-node chain it replaced."""
    hidden = self.decoder_hidden(oracle_qbn_encode(self, x)).tanh()
    return self.decoder_output(hidden)


def oracle_adam_apply(self):
    """``Adam._apply`` as the per-parameter loop the flat pass replaced."""
    if not hasattr(self, "_oracle_moments"):
        self._oracle_moments = [
            (np.zeros_like(p.data), np.zeros_like(p.data)) for p in self.parameters
        ]
    t = self._step_count
    bias1 = 1.0 - self.beta1 ** t
    bias2 = 1.0 - self.beta2 ** t
    for param, (m, v) in zip(self.parameters, self._oracle_moments):
        if param.grad is None:
            continue
        grad = param.grad
        m *= self.beta1
        m += (1.0 - self.beta1) * grad
        v *= self.beta2
        v += (1.0 - self.beta2) * grad * grad
        m_hat = m / bias1
        v_hat = v / bias2
        param.data -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)


def oracle_mse_loss(prediction, target):
    """``F.mse_loss`` as the four-node graph the one node replaced."""
    if not isinstance(prediction, Tensor):
        prediction = Tensor(prediction)
    diff = prediction - Tensor(target).detach()
    return (diff * diff).mean()


@contextlib.contextmanager
def op_by_op():
    """Every ``Linear``, QBN and MSE loss runs as the graph the fused node
    replaced, ``unroll`` as the chain of ``step`` nodes and Adam one
    parameter at a time."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Linear, "forward", oracle_linear_forward)
        patch.setattr(RecurrentPolicyValueNet, "unroll", chain_unroll)
        patch.setattr(QuantizedBottleneckNetwork, "forward", oracle_qbn_forward)
        patch.setattr(F, "mse_loss", oracle_mse_loss)
        patch.setattr(Adam, "_apply", oracle_adam_apply)
        yield


def _assert_same_parameter_grads(ours, theirs, expect_grads=True):
    ours, theirs = dict(ours.named_parameters()), dict(theirs.named_parameters())
    assert ours.keys() == theirs.keys()
    for name, param in ours.items():
        assert same_grad(param, theirs[name]), name
        assert (param.grad is not None) == expect_grads, name


def _fill_biases(module, seed=2):
    """Biases start at zero; give them values so a dropped bias term shows."""
    rng = np.random.default_rng(seed)
    for name, param in module.named_parameters():
        if param.ndim == 1:
            param.data[...] = rng.standard_normal(param.shape) * 0.5
    return module


def _policy(hidden, observation_dim=9):
    config = PolicyConfig(observation_dim=observation_dim, hidden_size=hidden, num_actions=7)
    return _fill_biases(RecurrentPolicyValueNet(config, rng=3))


def _shipped_and_oracle(build, run):
    """``run(build())`` as shipped and again op by op, on equal fresh models."""
    shipped_model = build()
    shipped = run(shipped_model)
    with op_by_op():
        oracle_model = build()
        oracle = run(oracle_model)
    return (shipped_model, shipped), (oracle_model, oracle)


class TestFusedStepBitwise:
    """``RecurrentPolicyValueNet.step``, whose heads are fused ``Linear``
    nodes (and, under the fine-tune loss, fed by fused QBN nodes), against
    the same step under ``op_by_op()``, ``np.array_equal`` only.

    The GRU formulas are ``Tensor`` ops on both sides, so what is held is
    that the fused nodes sum into the shared hidden state's gradient, and
    through it into the step's, as the op-by-op graphs do.
    ``chain_unroll``, the chain ``TestSequenceNodeBitwise`` holds every
    sequence node to, is this step with fused heads: these tests make it
    the op-by-op chain bit for bit.  Outputs and every gradient are
    pinned by comparison on this host's BLAS, never by literal: the bits
    differ between OpenBLAS core types (CI runs this class under a
    second one).
    """

    @pytest.mark.parametrize("hidden", [4, 12, 48])
    @pytest.mark.parametrize("batch", [None, 1, 2, 5])
    def test_one_step_every_requires_grad_combination(self, hidden, batch):
        rng = np.random.default_rng(100 * hidden + (batch or 0))
        lead = () if batch is None else (batch,)
        x_data = rng.standard_normal(lead + (7,))
        x_data[..., 0] = 0.0
        h_data = rng.standard_normal(lead + (hidden,)) * 0.5
        upstream = rng.standard_normal(lead + (7,))
        for x_requires, h_requires, parameters_require in itertools.product(
            [False, True], repeat=3
        ):
            runs = []
            for scope in (contextlib.nullcontext, op_by_op):
                policy = _policy(hidden, observation_dim=7)
                for param in policy.parameters():
                    param.requires_grad = parameters_require
                x = Tensor(x_data, requires_grad=x_requires)
                h = Tensor(h_data, requires_grad=h_requires)
                # Two graphs over the same leaves: the second sums into
                # gradients the first left behind.
                with scope():
                    for scale in (1.0, -0.3):
                        logits, value, out = policy.step(x, h)
                        assert out.requires_grad == (
                            x_requires or h_requires or parameters_require
                        )
                        if out.requires_grad:
                            loss = (logits * Tensor(upstream * scale)).sum() + value.sum() * scale
                            loss.backward()
                runs.append((logits, value, out, x, h, policy))
            (*outputs, x, h, policy), (*ref_outputs, ref_x, ref_h, ref_policy) = runs
            label = f"x={x_requires} h={h_requires} parameters={parameters_require}"
            assert _bytes([o.data for o in outputs]) == _bytes([o.data for o in ref_outputs]), label
            assert same_grad(x, ref_x) and (x.grad is not None) == x_requires, label
            assert same_grad(h, ref_h) and (h.grad is not None) == h_requires, label
            _assert_same_parameter_grads(policy, ref_policy, expect_grads=parameters_require)

    @pytest.mark.parametrize("hidden", [4, 12, 48])
    @pytest.mark.parametrize("batch", [None, 1, 2, 5])
    def test_no_grad_builds_no_node(self, hidden, batch):
        rng = np.random.default_rng(hidden + (batch or 0))
        lead = () if batch is None else (batch,)
        x = rng.standard_normal(lead + (7,))
        h = rng.standard_normal(lead + (hidden,))
        policy = _policy(hidden, observation_dim=7)
        with no_grad():
            outputs = policy.step(Tensor(x), Tensor(h))
            with op_by_op():
                expected = policy.step(Tensor(x), Tensor(h))
        assert _bytes([o.data for o in outputs]) == _bytes([o.data for o in expected])
        for out in outputs:
            assert not out.requires_grad and out._parents == () and out._backward is None

    @pytest.mark.parametrize("hidden", [4, 12, 48])
    def test_chain_under_behaviour_cloning_loss(self, hidden):
        """Weighted NLL over the stacked logits of 1-d steps (``imitation.fit``)."""
        rng = np.random.default_rng(hidden)
        steps = 9
        observations = rng.standard_normal((steps, 9))
        actions = rng.integers(7, size=steps)
        weights = rng.uniform(0.2, 5.0, size=7)[actions]

        def run(policy):
            hidden_state = policy.initial_state()
            rows = []
            for t in range(steps):
                logits, _value, hidden_state = policy.step(Tensor(observations[t]), hidden_state)
                rows.append(logits)
            log_probs = F.log_softmax(Tensor.stack(rows, axis=0), axis=-1)
            nll = F.nll_of_actions(log_probs, actions)
            loss = (nll * Tensor(weights)).sum() * (1.0 / max(weights.sum(), 1e-9))
            loss.backward()
            return loss

        (policy, loss), (ref_policy, ref_loss) = _shipped_and_oracle(lambda: _policy(hidden), run)
        assert np.array_equal(loss.data, ref_loss.data)
        _assert_same_parameter_grads(policy.gru, ref_policy.gru)
        _assert_same_parameter_grads(policy.policy_head, ref_policy.policy_head)
        # The value head is stepped but never reaches this loss.
        _assert_same_parameter_grads(policy.value_head, ref_policy.value_head, expect_grads=False)

    @pytest.mark.parametrize("hidden", [4, 12, 48])
    @pytest.mark.parametrize("width", [1, 2, 5])
    def test_chain_under_a2c_loss(self, hidden, width):
        """Policy + value + entropy over a padded, masked (T, B) batch (``_update_from_batch``)."""
        rng = np.random.default_rng(10 * hidden + width)
        horizon = 8
        lengths = rng.integers(3, horizon + 1, size=width)
        lengths[0] = horizon
        mask = np.arange(horizon)[:, None] < lengths[None, :]
        observations = rng.standard_normal((horizon, width, 9)) * mask[:, :, None]
        actions = rng.integers(7, size=(horizon, width))
        time_idx, env_idx = np.nonzero(mask)
        returns = rng.standard_normal(time_idx.size)

        def run(policy):
            hidden_state = policy.initial_state(width)
            logit_steps, value_steps = [], []
            for t in range(horizon):
                logits, value, hidden_state = policy.step(Tensor(observations[t]), hidden_state)
                logit_steps.append(logits)
                value_steps.append(value)
            logits_matrix = Tensor.stack(logit_steps, axis=0)[time_idx, env_idx]
            values_vector = Tensor.stack(value_steps, axis=0).reshape(horizon, width)[time_idx, env_idx]
            advantages = returns - values_vector.numpy()
            advantages = (advantages - advantages.mean()) / advantages.std()
            log_probs = F.log_softmax(logits_matrix, axis=-1)
            chosen_nll = F.nll_of_actions(log_probs, actions[time_idx, env_idx])
            policy_loss = (chosen_nll * Tensor(advantages)).mean()
            value_loss = F.mse_loss(values_vector, returns)
            entropy = F.entropy(F.softmax(logits_matrix, axis=-1), axis=-1)
            loss = policy_loss + value_loss * 0.5 - entropy * 0.01
            loss.backward()
            return loss

        (policy, loss), (ref_policy, ref_loss) = _shipped_and_oracle(lambda: _policy(hidden), run)
        assert np.array_equal(loss.data, ref_loss.data)
        _assert_same_parameter_grads(policy, ref_policy)

    @pytest.mark.parametrize("hidden", [4, 12, 48])
    @pytest.mark.parametrize("freeze", [False, True])
    def test_step_under_fine_tune_loss(self, hidden, freeze):
        """Cross-entropy through a step fed QBN reconstructions as ``x`` and
        ``h``, the QBN-inserted step whose forward ``QBNTrainer.action_agreement`` runs."""
        rng = np.random.default_rng(hidden)
        rows = 11
        observations = rng.standard_normal((rows, 9))
        hiddens = np.tanh(rng.standard_normal((rows, hidden)))
        actions = rng.integers(7, size=rows)

        def build():
            seeds = np.random.default_rng(5)
            qbns = [
                _fill_biases(QuantizedBottleneckNetwork(
                    QBNConfig(input_dim=dim, latent_dim=4, hidden_dim=6), rng=seeds
                ))
                for dim in (9, hidden)
            ]
            return _policy(hidden), qbns[0], qbns[1]

        def run(models):
            policy, observation_qbn, hidden_qbn = models
            with policy.frozen() if freeze else contextlib.nullcontext():
                next_hidden = policy.gru(
                    observation_qbn(Tensor(observations)), hidden_qbn(Tensor(hiddens))
                )
                loss = F.cross_entropy(policy.policy_head(next_hidden), actions)
                loss.backward()
            return loss

        (models, loss), (ref_models, ref_loss) = _shipped_and_oracle(build, run)
        assert np.array_equal(loss.data, ref_loss.data)
        for model, reference in zip(models[1:], ref_models[1:]):
            _assert_same_parameter_grads(model, reference)
        for name in ("gru", "policy_head"):
            _assert_same_parameter_grads(
                getattr(models[0], name), getattr(ref_models[0], name), expect_grads=not freeze
            )


class TestFusedQBNBitwise:
    """``QuantizedBottleneckNetwork.forward`` (one node) against the eight-node
    op-by-op chain, ``np.array_equal`` on outputs and every gradient.

    Pinned by comparison on this host's BLAS, never by literal (CI runs
    the class under a second OpenBLAS kernel family).  The shapes cover
    both ``matmul_rows_np`` routes (outputs < 7 wide take einsum) and the
    design's own QBNs (35 and 48 inputs, latent 16, hidden 64).
    """

    SHAPES = [(9, 4, 6), (35, 16, 64), (48, 16, 64)]
    LEADS = [(), (1,), (2,), (5,), (256,)]

    @staticmethod
    def _qbn(shape, levels=3):
        input_dim, latent_dim, hidden_dim = shape
        config = QBNConfig(input_dim, latent_dim, hidden_dim, quantization_levels=levels)
        return _fill_biases(QuantizedBottleneckNetwork(config, rng=4))

    @staticmethod
    def _input(shape, lead, seed=0):
        return np.random.default_rng(seed).standard_normal(lead + (shape[0],))

    @pytest.mark.parametrize("shape", SHAPES)
    @pytest.mark.parametrize("lead", LEADS)
    @pytest.mark.parametrize("trainable", ["all", "none", "decoder"])
    @pytest.mark.parametrize("x_requires", [False, True])
    def test_output_and_every_grad(self, shape, lead, trainable, x_requires):
        x_data = self._input(shape, lead)
        upstream = np.random.default_rng(1).standard_normal(x_data.shape)
        runs = []
        for mode in (contextlib.nullcontext, op_by_op):
            qbn = self._qbn(shape)
            for name, param in qbn.named_parameters():
                param.requires_grad = trainable == "all" or (
                    trainable == "decoder" and name.startswith("decoder")
                )
            x = Tensor(x_data, requires_grad=x_requires)
            # Two graphs over the same leaves: the second sums into the
            # gradients the first left behind.
            with mode():
                for scale in (1.0, -0.3):
                    out = qbn(x)
                    assert out.requires_grad == (x_requires or trainable != "none")
                    if out.requires_grad:
                        (out * Tensor(upstream * scale)).sum().backward()
            runs.append((out, x, qbn))
        (out, x, qbn), (ref_out, ref_x, ref_qbn) = runs
        assert np.array_equal(out.data, ref_out.data)
        assert same_grad(x, ref_x) and (x.grad is not None) == x_requires
        for (name, param), (_, reference) in zip(
            qbn.named_parameters(), ref_qbn.named_parameters()
        ):
            assert same_grad(param, reference), name
            assert (param.grad is not None) == param.requires_grad, name

    @pytest.mark.parametrize("shape", SHAPES)
    @pytest.mark.parametrize("lead", LEADS)
    def test_no_grad_builds_no_node(self, shape, lead):
        x = self._input(shape, lead, seed=2)
        qbn = self._qbn(shape)
        with no_grad():
            out = qbn(Tensor(x))
            with op_by_op():
                expected = qbn(Tensor(x))
        assert np.array_equal(out.data, expected.data)
        assert not out.requires_grad and out._parents == () and out._backward is None

    @pytest.mark.parametrize("shape", SHAPES)
    @pytest.mark.parametrize("lead", LEADS)
    @pytest.mark.parametrize("levels", [2, 3, 5])
    def test_graph_free_halves_are_the_oracle(self, shape, lead, levels):
        x = self._input(shape, lead, seed=3)
        qbn = self._qbn(shape, levels)
        with op_by_op():
            latent = oracle_qbn_encode(qbn, Tensor(x))
        codes = qbn.discrete_code(x)
        assert codes.dtype == np.int64
        assert np.array_equal(codes, values_to_codes(latent.numpy(), levels))


class TestMSENodeBitwise:
    """``F.mse_loss`` (one node) against the four-node graph it replaced:
    value and gradient bytes, under an upstream scale (A2C's value loss;
    a negative one turns the zero difference's gradient into -0.0), into
    an existing gradient, and with a target that broadcasts either way."""

    @pytest.mark.parametrize(
        "shape, target_shape",
        [((7,), (7,)), ((1, 3), (1, 3)), ((5, 4), (5, 4)), ((5, 4), (4,)), ((4,), (5, 4))],
    )
    @pytest.mark.parametrize("scale", [1.0, 0.5, -0.5])
    @pytest.mark.parametrize("preset", [False, True])
    def test_value_and_gradient(self, shape, target_shape, scale, preset):
        rng = np.random.default_rng(7)
        data, target = rng.standard_normal(shape), rng.standard_normal(target_shape)
        target.flat[0] = data.flat[0]  # a zero difference
        old = rng.standard_normal(shape)
        runs = []
        for loss_fn in (F.mse_loss, oracle_mse_loss):
            prediction = Tensor(data, requires_grad=True)
            if preset:
                prediction.grad = old.copy()
            loss = loss_fn(prediction, target)
            (loss * scale).backward()
            runs.append((loss.data.tobytes(), prediction.grad.tobytes()))
        assert runs[0] == runs[1]

    def test_no_grad_builds_no_node(self):
        with no_grad():
            loss = F.mse_loss(Tensor(np.ones(3), requires_grad=True), np.zeros(3))
        assert loss.item() == 1.0 and loss._backward is None


def bc_loss(policy, observations, actions, weights):
    """``BehaviorCloningTrainer.fit``'s loss on one demonstration."""
    log_probs = F.log_softmax(policy.unroll(observations), axis=-1)
    nll = F.nll_of_actions(log_probs, actions)
    return (nll * Tensor(weights)).sum() * (1.0 / max(weights.sum(), 1e-9))


def a2c_loss(policy, observations, actions, mask, returns, advantages=None):
    """``A2CTrainer._update_from_batch``'s loss on a padded (T, B) batch;
    given ``advantages``, they replace the ones it derives from the
    detached values (a loss finite differences can check)."""
    logits_steps, value_steps = policy.unroll(observations, values=True)
    time_idx, env_idx = np.nonzero(mask)
    logits_matrix = logits_steps[time_idx, env_idx]
    values_vector = value_steps[time_idx, env_idx]
    if advantages is None:
        advantages = returns - values_vector.numpy()
        if advantages.size > 1 and advantages.std() > 1e-8:
            advantages = (advantages - advantages.mean()) / advantages.std()
    log_probs = F.log_softmax(logits_matrix, axis=-1)
    chosen_nll = F.nll_of_actions(log_probs, actions[time_idx, env_idx])
    policy_loss = (chosen_nll * Tensor(advantages)).mean()
    value_loss = F.mse_loss(values_vector, returns)
    entropy = F.entropy(F.softmax(logits_matrix, axis=-1), axis=-1)
    return policy_loss + value_loss * 0.5 - entropy * 0.01


def _padded_batch(rng, steps, width):
    lengths = rng.integers(1, steps + 1, size=width)
    lengths[0] = steps
    mask = np.arange(steps)[:, None] < lengths[None, :]
    observations = rng.standard_normal((steps, width, 9)) * mask[:, :, None]
    actions = rng.integers(7, size=(steps, width))
    return observations, actions, mask, rng.standard_normal(int(mask.sum()))


def _grad_bytes(module):
    return {
        name: None if param.grad is None else param.grad.tobytes()
        for name, param in module.named_parameters()
    }


def _assert_close_parameter_grads(ours, theirs, expect_grads=True):
    """Every gradient within ``rtol=1e-12`` of the oracle's, plus an ``atol``
    of 1e-12 of its largest entry for entries that cancel to near zero."""
    ours, theirs = dict(ours.named_parameters()), dict(theirs.named_parameters())
    assert ours.keys() == theirs.keys()
    for name, param in ours.items():
        oracle = theirs[name].grad
        assert (param.grad is not None) == (oracle is not None) == expect_grads, name
        if oracle is not None:
            np.testing.assert_allclose(
                param.grad, oracle, rtol=1e-12, atol=1e-12 * np.abs(oracle).max(), err_msg=name
            )


class TestSequenceNodeBitwise:
    """``unroll`` (one node per sequence) against the chain of ``step``
    nodes, under BC and A2C losses.

    The node sums each parameter's gradient over every step and row as
    one gemm (a bias: one sum), not in the chain's per-step order, so its
    gradients are held three ways: within ``rtol=1e-12`` of the chain's,
    byte-equal between the native and the numpy build (both make the
    same numpy sum), and against central finite differences.  Losses and
    outputs stay byte-equal to the chain.  CI reruns the class under a
    second OpenBLAS kernel family.
    """

    @staticmethod
    def _all(build_loss, hidden, frozen):
        """Two backwards (the second sums into the first's grads) through
        ``unroll`` as built, ``unroll`` on the numpy kernels and the chain,
        on equal fresh policies."""
        runs = []
        for unroll, kernels in (
            (RecurrentPolicyValueNet.unroll, contextlib.nullcontext),
            (RecurrentPolicyValueNet.unroll, kernels_off),
            (chain_unroll, contextlib.nullcontext),
        ):
            policy = _policy(hidden)
            with pytest.MonkeyPatch.context() as patch, kernels():
                patch.setattr(RecurrentPolicyValueNet, "unroll", unroll)
                scope = getattr(policy, frozen).frozen() if frozen else contextlib.nullcontext()
                with scope:
                    losses = [build_loss(policy) for _ in range(2)]
                    for loss, scale in zip(losses, (1.0, -0.3)):
                        (loss * scale).backward()
            runs.append((policy, losses))
        (policy, losses), (numpy_policy, numpy_losses), (reference, ref_losses) = runs
        for loss, numpy_loss, ref_loss in zip(losses, numpy_losses, ref_losses):
            assert loss.data.tobytes() == numpy_loss.data.tobytes() == ref_loss.data.tobytes()
        assert _grad_bytes(policy) == _grad_bytes(numpy_policy)
        return policy, reference

    @pytest.mark.parametrize("hidden", [4, 12, 48])
    @pytest.mark.parametrize("steps", [1, 2, 9])
    @pytest.mark.parametrize("frozen", [None, "gru", "policy_head"])
    def test_behaviour_cloning_loss(self, hidden, steps, frozen):
        rng = np.random.default_rng(100 * hidden + steps)
        observations = rng.standard_normal((steps, 9))
        actions = rng.integers(7, size=steps)
        weights = rng.uniform(0.2, 5.0, size=7)[actions]
        policy, reference = self._all(
            lambda p: bc_loss(p, observations, actions, weights), hidden, frozen
        )
        for name in ("gru", "policy_head"):
            _assert_close_parameter_grads(
                getattr(policy, name), getattr(reference, name), expect_grads=name != frozen
            )
        # The value head is not part of the BC node and never reaches the loss.
        _assert_close_parameter_grads(policy.value_head, reference.value_head, expect_grads=False)

    @pytest.mark.parametrize("hidden", [4, 12, 48])
    @pytest.mark.parametrize("steps", [1, 2, 9])
    @pytest.mark.parametrize("width", [1, 2, 5])
    @pytest.mark.parametrize("frozen", [None, "gru", "value_head"])
    def test_a2c_loss_on_padded_batch(self, hidden, steps, width, frozen):
        rng = np.random.default_rng(1000 * hidden + 10 * steps + width)
        batch = _padded_batch(rng, steps, width)
        policy, reference = self._all(lambda p: a2c_loss(p, *batch), hidden, frozen)
        for name in ("gru", "policy_head", "value_head"):
            _assert_close_parameter_grads(
                getattr(policy, name), getattr(reference, name), expect_grads=name != frozen
            )

    @pytest.mark.parametrize("hidden", [4, 48])
    @pytest.mark.parametrize("width", [None, 1, 5])
    def test_no_grad_builds_no_node(self, hidden, width):
        rng = np.random.default_rng(hidden)
        lead = (6,) if width is None else (6, width)
        observations = rng.standard_normal(lead + (9,))
        policy = _policy(hidden)
        with no_grad():
            logits, values = policy.unroll(observations, values=True)
            only_logits = policy.unroll(observations)
            ref_logits, ref_values = chain_unroll(policy, observations, values=True)
        assert np.array_equal(logits.data, ref_logits.data)
        assert np.array_equal(only_logits.data, ref_logits.data)
        assert np.array_equal(values.data, ref_values.data)
        for out in (logits, values, only_logits):
            assert not out.requires_grad and out._parents == () and out._backward is None

    @pytest.mark.parametrize("loss", ["behaviour_cloning", "a2c"])
    def test_gradients_match_finite_differences(self, loss):
        rng = np.random.default_rng(11)
        module = _policy(4)
        if loss == "a2c":
            batch = _padded_batch(rng, 4, 3)
            advantages = rng.standard_normal(batch[-1].shape)
            build = lambda: a2c_loss(module, *batch, advantages=advantages)  # noqa: E731
        else:
            observations = rng.standard_normal((5, 9))
            actions = rng.integers(7, size=5)
            weights = rng.uniform(0.2, 5.0, size=7)[actions]
            build = lambda: bc_loss(module, observations, actions, weights)  # noqa: E731
        parameters = {
            name: param for name, param in module.named_parameters()
            if loss == "a2c" or not name.startswith("value_head")
        }
        check_gradients(build, parameters, atol=1e-6, rtol=1e-5)


class TestTrainingBitwiseDifferential:
    """Two BC epochs and one A2C epoch train a policy; two epochs of each
    QBN's loop, reconstruction plus the action term (each ending on a
    ragged minibatch), train its QBNs.  ``op_by_op()`` is the oracle: the
    chain of ``step`` nodes for ``unroll``, the eight-node QBN chain, the
    heads' op-by-op ``Linear`` and a per-parameter Adam."""

    @staticmethod
    def _train_policy(system_config, traces):
        reward = RewardConfig(mode="per_step_penalty")
        policy = RecurrentPolicyValueNet(PolicyConfig(hidden_size=12), rng=3)
        cloner = BehaviorCloningTrainer(system_config, reward, ImitationConfig(epochs=2), rng=5)
        cloner.fit(policy, cloner.collect_demonstrations(GreedyUtilizationPolicy(), traces))
        A2CTrainer(
            policy, system_config, reward, A2CConfig(episodes_per_epoch=3), rng=0
        ).train(traces, epochs=1)
        return policy

    @staticmethod
    def _train_qbns(system_config, traces, policy):
        collector = BatchedRolloutCollector(
            VectorStorageAllocationEnv(system_config, RewardConfig(mode="per_step_penalty")), rng=2
        )
        dataset = TransitionDataset.from_trajectories(
            collector.collect_batch(policy, traces, greedy=True)
        )
        qbn_config = QBNTrainingConfig(
            epochs=2, batch_size=7, observation_latent_dim=4, hidden_latent_dim=4,
            autoencoder_hidden_dim=8,
        )
        # Every QBN loop ends on a short minibatch.
        assert len(dataset) % 7 and 2 * len(dataset) % 7
        return QBNTrainer(qbn_config, rng=2).train(dataset, policy)

    @staticmethod
    def _learned(**modules):
        return {
            f"{label}.{name}": param.data.tobytes()
            for label, module in modules.items()
            for name, param in module.named_parameters()
        }

    def test_bc_a2c_and_qbn_fine_tune_learn_the_same_bytes(self, system_config, real_traces):
        """Every parameter BC, A2C and QBN training learn is byte-equal
        between the native kernels and the numpy code they are checked
        against."""
        traces = list(real_traces[:2])
        learned = []
        for kernels in (contextlib.nullcontext, kernels_off):
            with kernels():
                policy = self._train_policy(system_config, traces)
                qbns = self._train_qbns(system_config, traces, policy)
            learned.append(self._learned(
                policy=policy, observation_qbn=qbns.observation_qbn, hidden_qbn=qbns.hidden_qbn
            ))
        native, numpy_code = learned
        assert native.keys() == numpy_code.keys() and len(native) == 13 + 8 + 8
        assert [name for name in native if native[name] != numpy_code[name]] == []

    def test_bc_and_a2c_learn_the_chain_within_rounding(self, system_config, real_traces):
        """The sequence node's sums are one gemm per weight, the chain's one
        term per step, so the trained policies agree to rounding, not bytes."""
        traces = list(real_traces[:2])
        shipped = self._train_policy(system_config, traces)
        with op_by_op():
            oracle = self._train_policy(system_config, traces)
        for (name, param), (_, oracle_param) in zip(
            shipped.named_parameters(), oracle.named_parameters()
        ):
            np.testing.assert_allclose(
                param.data, oracle_param.data, rtol=1e-12,
                atol=1e-12 * np.abs(oracle_param.data).max(), err_msg=name,
            )

    def test_qbn_fine_tune_and_adam_learn_the_oracle_bytes(self, system_config, real_traces):
        """From one trained policy, QBN training with its action term as
        shipped and op by op leaves every QBN parameter byte-equal."""
        import copy

        traces = list(real_traces[:2])
        policy = self._train_policy(system_config, traces)
        oracle_policy = copy.deepcopy(policy)
        qbns = self._train_qbns(system_config, traces, policy)
        with op_by_op():
            oracle_qbns = self._train_qbns(system_config, traces, oracle_policy)
        shipped = self._learned(observation_qbn=qbns.observation_qbn, hidden_qbn=qbns.hidden_qbn)
        oracle = self._learned(
            observation_qbn=oracle_qbns.observation_qbn, hidden_qbn=oracle_qbns.hidden_qbn
        )
        assert shipped.keys() == oracle.keys() and len(shipped) == 8 + 8
        assert [name for name in shipped if shipped[name] != oracle[name]] == []
        assert self._learned(policy=policy) == self._learned(policy=oracle_policy)


# ----------------------------------------------------------------------
# The native sequence kernel against the numpy loop it is checked against
# ----------------------------------------------------------------------
@st.composite
def _sequence_case(draw):
    """A policy (H < 7 runs its 1-d steps on einsum, H >= 7 on gemm), a
    sequence of 1-d steps or a batch, preset gradients or none, and which
    modules are frozen."""
    return dict(
        hidden=draw(st.sampled_from([1, 4, 6, 7, 9, 16])),
        width=draw(st.sampled_from([None, 1, 2, 5])),
        steps=draw(st.integers(1, 8)),
        preset=draw(st.booleans()),
        frozen=draw(st.sets(st.sampled_from(["gru", "policy_head", "value_head"]), max_size=2)),
        seed=draw(st.integers(0, 2**32 - 1)),
    )


def _sequence_bytes(case):
    """Every ``Unrolled`` array and every gradient of one policy ``unroll``
    backward and one bare ``Unrolled`` backward from a non-zero h0."""
    rng = np.random.default_rng(case["seed"])
    policy = _policy(case["hidden"], observation_dim=3)
    lead = (case["steps"],) if case["width"] is None else (case["steps"], case["width"])
    if case["preset"]:
        for param in policy.parameters():
            param.grad = rng.standard_normal(param.shape)
    observations = rng.standard_normal(lead + (3,))
    with contextlib.ExitStack() as scopes:
        for name in sorted(case["frozen"]):
            scopes.enter_context(getattr(policy, name).frozen())
        logits, values = policy.unroll(observations, values=True)
        loss = (logits * Tensor(rng.standard_normal(logits.shape))).sum()
        (loss + (values * Tensor(rng.standard_normal(values.shape))).sum()).backward()
        h0 = rng.standard_normal(lead[1:] + (case["hidden"],))
        run = rnn.Unrolled(policy.gru, observations, h0)
        run.backward(rng.standard_normal(run.candidate.shape))
    arrays = [logits.data, values.data, run.hiddens]
    arrays += [run.reset, run.update, run.carried, run.candidate]
    grads = [param.grad for param in policy.parameters()]
    return [a.tobytes() for a in arrays] + [None if g is None else g.tobytes() for g in grads]


class TestNativeGRUKernelBitwise:
    """``_gru_kernel.c`` fills every ``Unrolled`` array and gradient with the
    numpy loop's bytes.  CI reruns the class under a second OpenBLAS kernel
    family."""

    @given(case=_sequence_case())
    @settings(max_examples=60, deadline=None)
    def test_every_array_and_gradient_matches_numpy(self, case):
        native_or_skip("gru")
        shipped = _sequence_bytes(case)
        with kernels_off("gru"):
            spec = _sequence_bytes(case)
        assert shipped == spec

    @pytest.mark.parametrize("method", ["forward", "backward"])
    def test_a_kernel_that_differs_leaves_numpy_in_charge(self, monkeypatch, method):
        """One ulp of one output of one kernel entry fails the load-time self-check."""
        native_or_skip("gru")
        unprobed(monkeypatch, "gru")
        shipped = getattr(rnn.NativeGRUKernel, method)

        def one_ulp_off(self, *args):
            result = shipped(self, *args)
            # forward: the last hidden state; backward: step 1's last gate gradient.
            target = args[0].hiddens if method == "forward" else args[2]
            target.flat[-1] = np.nextafter(target.flat[-1], np.inf)
            return result

        monkeypatch.setattr(rnn.NativeGRUKernel, method, one_ulp_off)
        assert native.kernel("gru") is None
        assert native.status()["gru"] == "disabled: self-check mismatch"

    @pytest.mark.parametrize("on_native", [True, False])
    @pytest.mark.parametrize("width", [None, 2])
    def test_backward_refuses_a_misshapen_grad_before_touching_gradients(self, on_native, width):
        if on_native:
            native_or_skip("gru")
        rng = np.random.default_rng(5)
        lead = (4,) if width is None else (4, width)
        cell = _fill_biases(GRUCell(3, 8, rng=0))
        for param in cell.parameters():
            param.grad = rng.standard_normal(param.shape)
        before = [param.grad.copy() for param in cell.parameters()]
        with contextlib.nullcontext() if on_native else kernels_off("gru"):
            run = rnn.Unrolled(
                cell, rng.standard_normal(lead + (3,)), rng.standard_normal(lead[1:] + (8,))
            )
        grad = rng.standard_normal(run.candidate.shape)
        with pytest.raises(ShapeError):
            run.backward(grad[1:])
        for param, old in zip(cell.parameters(), before):
            assert np.array_equal(param.grad, old)
        # A strided grad is taken as its contiguous copy.
        run.backward(np.asfortranarray(grad))
        strided = [param.grad.copy() for param in cell.parameters()]
        for param, old in zip(cell.parameters(), before):
            param.grad = old.copy()
        run.backward(grad.copy())
        for param, got in zip(cell.parameters(), strided):
            assert np.array_equal(param.grad, got)


# ----------------------------------------------------------------------
# Stacked products against the per-gate and per-step products they replaced
# ----------------------------------------------------------------------
def per_gate_forward_np(cell, x, h):
    """``GRUCell.forward_np`` as six per-gate ``matmul_rows_np`` products."""
    def sigmoid(a):
        return 1.0 / (1.0 + np.exp(-a))

    mm = F.matmul_rows_np
    reset = sigmoid(mm(x, cell.w_xr.data) + mm(h, cell.w_hr.data) + cell.b_r.data)
    candidate = np.tanh(mm(x, cell.w_xn.data) + mm(h, cell.w_hn.data) * reset + cell.b_n.data)
    update = sigmoid(mm(x, cell.w_xz.data) + mm(h, cell.w_hz.data) + cell.b_z.data)
    return (1.0 - update) * candidate + update * h


def per_step_matmul_steps(rows, w):
    """``linear.matmul_steps`` one gate and, for batches, one step at a time."""
    if w.ndim == 3:
        return np.stack([per_step_matmul_steps(rows, weight) for weight in w])
    if rows.ndim == 3:
        return np.stack([step @ w for step in rows])
    return F.matmul_rows_np(rows, w)


def per_step_input_grads(grads, w):
    """``linear.input_grad_steps`` as one ``input_grad`` per step."""
    return np.stack([rnn.input_grad(g, w) for g in grads])


@contextlib.contextmanager
def per_gate_products():
    """Input projections, head products and every input gradient one gate
    and one step at a time, and every sequence on the numpy loop (per-gate
    hidden products)."""
    import repro.drl.policy as policy_module

    with pytest.MonkeyPatch.context() as patch, kernels_off("gru"):
        patch.setattr(rnn, "matmul_steps", per_step_matmul_steps)
        patch.setattr(policy_module, "matmul_steps", per_step_matmul_steps)
        patch.setattr(policy_module, "input_grad_steps", per_step_input_grads)
        yield


def _bytes(arrays):
    return [None if a is None else np.asarray(a).tobytes() for a in arrays]


@st.composite
def _stacked_case(draw):
    return dict(
        hidden=draw(st.sampled_from([1, 4, 6, 7, 9, 48])),
        width=draw(st.sampled_from([None, 1, 2, 3, 5, 8])),
        steps=draw(st.integers(1, 7)),
        preset=draw(st.booleans()),
        frozen=draw(st.sets(st.sampled_from(["gru", "policy_head", "value_head"]), max_size=2)),
        zero_inputs=draw(st.booleans()),
        seed=draw(st.integers(0, 2**32 - 1)),
    )


def _unroll_bytes(case):
    """Outputs, ``Unrolled`` arrays and every gradient of two backwards
    (under opposite signs, so zero inputs give -0.0 terms) through a policy
    ``unroll`` and one bare ``Unrolled`` from a non-zero h0."""
    rng = np.random.default_rng(case["seed"])
    policy = _policy(case["hidden"], observation_dim=3)
    lead = (case["steps"],) if case["width"] is None else (case["steps"], case["width"])
    if case["preset"]:
        for param in policy.parameters():
            param.grad = rng.standard_normal(param.shape)
            param.grad[..., 0] = -0.0
    observations = rng.standard_normal(lead + (3,))
    if case["zero_inputs"]:
        observations[..., 1:] = 0.0
    snapshots = []
    with contextlib.ExitStack() as scopes:
        for name in sorted(case["frozen"]):
            scopes.enter_context(getattr(policy, name).frozen())
        for scale in (1.0, -1.0):
            logits, values = policy.unroll(observations, values=True)
            loss = (logits * Tensor(scale * rng.standard_normal(logits.shape))).sum()
            (loss + (values * Tensor(rng.standard_normal(values.shape))).sum()).backward()
            snapshots += _bytes([logits.data, values.data])
        h0 = rng.standard_normal(lead[1:] + (case["hidden"],))
        run = rnn.Unrolled(policy.gru, observations, h0)
        run.backward(-np.abs(rng.standard_normal(run.candidate.shape)))
    snapshots += _bytes([run.hiddens, run.reset, run.update, run.carried, run.candidate])
    return snapshots + _bytes([param.grad for param in policy.parameters()])


class TestStackedGatesBitwise:
    """One stacked ``np.matmul`` per stack of gates or of independent
    steps gives the bytes of the per-gate and per-step products it
    replaced.  CI reruns the class under a second OpenBLAS kernel family."""

    @given(
        hidden=st.sampled_from([1, 4, 6, 7, 9, 48]),
        batch=st.sampled_from([1, 2, 3, 5, 8]),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_forward_np_matches_six_products(self, hidden, batch, seed):
        rng = np.random.default_rng(seed)
        cell = _fill_biases(GRUCell(5, hidden, rng=seed % 97))
        x = rng.standard_normal((batch, 5))
        h = rng.standard_normal((batch, hidden))
        x[0] = 0.0
        expected = per_gate_forward_np(cell, x, h)
        # A wider call first leaves its rows in the reused buffers.
        cell.forward_np(rng.standard_normal((9, 5)), rng.standard_normal((9, hidden)))
        assert cell.forward_np(x, h).tobytes() == expected.tobytes()

    @given(case=_stacked_case())
    @settings(max_examples=60, deadline=None)
    def test_unrolled_matches_per_gate_and_per_step_products(self, case):
        shipped = _unroll_bytes(case)
        with per_gate_products():
            reference = _unroll_bytes(case)
        assert shipped == reference
        with kernels_off("gru"):
            assert _unroll_bytes(case) == reference

    @pytest.mark.parametrize("hidden", [4, 9])
    def test_stepped_loaded_rebound_and_unpickled_cells_are_seen(self, hidden):
        import pickle

        rng = np.random.default_rng(hidden)
        x = rng.standard_normal((3, 5))
        h = rng.standard_normal((3, hidden))
        sequence = rng.standard_normal((4, 5))

        def outputs(cell):
            run = rnn.Unrolled(cell, sequence, np.zeros(hidden))
            return cell.forward_np(x, h).tobytes(), run.hiddens.tobytes()

        def expected(cell):
            with per_gate_products():
                run = rnn.Unrolled(cell, sequence, np.zeros(hidden))
            return per_gate_forward_np(cell, x, h).tobytes(), run.hiddens.tobytes()

        cell = _fill_biases(GRUCell(5, hidden, rng=1))
        before = outputs(cell)
        assert before == expected(cell)
        optimizer = Adam(cell.parameters(), lr=0.1)
        for param in cell.parameters():
            param.grad = rng.standard_normal(param.shape)
        optimizer.step()
        stepped = outputs(cell)
        assert stepped != before and stepped == expected(cell)

        donor = _fill_biases(GRUCell(5, hidden, rng=2), seed=3)
        cell.load_state_dict(donor.state_dict())
        assert outputs(cell) == outputs(donor) == expected(donor)

        cell.w_hn.data = rng.standard_normal((hidden, hidden))
        assert outputs(cell) == expected(cell) != outputs(donor)

        copy = pickle.loads(pickle.dumps(cell))
        assert outputs(copy) == outputs(cell)
        for param in copy.parameters():
            param.data[...] += 0.25
            param.grad = None
        assert outputs(copy) == expected(copy) != outputs(cell)
        stacks = copy._stacks()
        assert all(
            weight.data.base is stack
            for stack, weights in zip(stacks, copy._gate_weights()) for weight in weights
        )


# ----------------------------------------------------------------------
# The native dense kernel against the numpy code it is checked against
# ----------------------------------------------------------------------
# Latents the quantiser treats specially: NaN, signed zeros, points
# halfway between levels and values the clip moves.
_SPECIAL_LATENTS = np.array(
    [np.nan, -0.0, 0.0, 0.5, -0.5, 1 / 3, -1 / 3, 2 / 3, -2 / 3, 1.0, -1.0, 1.5, -np.inf, np.inf]
)


@st.composite
def _dense_case(draw):
    """A QBN (outputs < 7 wide take einsum for 1-d rows; a width-1 layer
    leaves its bias sum to numpy), 1-d rows or a batch, which parameters
    train, and which parameters lose their gradient before each of three
    Adam steps."""
    return dict(
        input_dim=draw(st.sampled_from([1, 3, 9, 35])),
        latent_dim=draw(st.sampled_from([1, 4, 7, 16])),
        hidden_dim=draw(st.sampled_from([1, 6, 9, 64])),
        levels=draw(st.sampled_from([2, 3, 4])),
        lead=draw(st.sampled_from([(), (1,), (2,), (5,), (256,)])),
        trainable=draw(st.sampled_from(["all", "none", "decoder"])),
        x_requires=draw(st.booleans()),
        preset=draw(st.booleans()),
        dropped=draw(st.lists(st.sets(st.integers(0, 7), max_size=4), min_size=3, max_size=3)),
        seed=draw(st.integers(0, 2**32 - 1)),
    )


def _dense_bytes(case):
    """Every forward array and code of one QBN pass, the quantiser on
    special latents, and the outputs, losses, gradients, weights and Adam
    moments of three training steps (the first summing into preset
    gradients when asked, the second into the first's)."""
    rng = np.random.default_rng(case["seed"])
    levels = case["levels"]
    config = QBNConfig(
        case["input_dim"], case["latent_dim"], case["hidden_dim"], quantization_levels=levels
    )
    qbn = _fill_biases(QuantizedBottleneckNetwork(config, rng=5))
    params = qbn.parameters()
    for name, param in qbn.named_parameters():
        param.requires_grad = case["trainable"] == "all" or (
            case["trainable"] == "decoder" and name.startswith("decoder")
        )
    x = Tensor(rng.standard_normal(case["lead"] + (case["input_dim"],)), requires_grad=case["x_requires"])
    target = rng.standard_normal(x.shape)
    kernel, alphabet = native.kernel("dense"), quantization_levels(levels)

    def quantize(values):
        if kernel is None:
            index = nearest_level_indices(np.clip(values, -1.0, 1.0), levels)
            return index.astype(np.int64), alphabet[index]
        return kernel.quantize(values, alphabet)

    hidden, latent = qbn._encode_np(x.data)
    index, code = quantize(latent)
    decoder_hidden, out = qbn._decode_np(code)
    midpoints = (alphabet[:-1] + alphabet[1:]) / 2
    special = np.concatenate([_SPECIAL_LATENTS, midpoints, rng.uniform(-1.5, 1.5, 16)])
    arrays = [hidden, latent, index, code, decoder_hidden, out, *quantize(rng.permutation(special))]
    snapshots = [a.tobytes() for a in arrays]

    if case["preset"]:
        for tensor in (x, *params):
            tensor.grad = rng.standard_normal(tensor.shape)
    optimizer = Adam(params, lr=0.01)
    for step, dropped in enumerate(case["dropped"]):
        if step == 2:
            optimizer.zero_grad()
        reconstruction = qbn(x)
        if step == 0:
            # An output column without error: under the negative scale its
            # gradient is -0.0, and the bias sums it from +0.0.
            target[..., 0] = reconstruction.data[..., 0]
        loss = F.mse_loss(reconstruction, target)
        if loss.requires_grad:
            (loss * -0.5).backward()
        for index in dropped:
            params[index].grad = None
        optimizer.step()
        # Gradients, weights and moments change in place: bytes now.
        arrays = [reconstruction.data, loss.data, optimizer._m, optimizer._v]
        arrays += [t.grad for t in (x, *params) if t.grad is not None]
        snapshots += [a.tobytes() for a in arrays + [p.data for p in params]]
    return snapshots


class TestNativeDenseKernelBitwise:
    """``_dense_kernel.c`` writes the bytes of the numpy code it replaces:
    the QBN node's codes and gradients, and Adam's moments and weights.
    CI reruns the class under a second OpenBLAS kernel family."""

    @given(case=_dense_case())
    @settings(max_examples=60, deadline=None)
    def test_every_array_and_gradient_matches_numpy(self, case):
        native_or_skip("dense")
        shipped = _dense_bytes(case)
        with kernels_off("dense"):
            spec = _dense_bytes(case)
        assert shipped == spec

    @pytest.mark.parametrize("shape", TestFusedQBNBitwise.SHAPES)
    @pytest.mark.parametrize("trainable", ["all", "none", "decoder"])
    def test_frozen_combinations_match_numpy(self, shape, trainable):
        """``TestFusedQBNBitwise``'s trainable, frozen and decoder-only QBNs,
        each with and without an input that takes a gradient."""
        native_or_skip("dense")
        for x_requires in (False, True):
            case = dict(
                input_dim=shape[0], latent_dim=shape[1], hidden_dim=shape[2], levels=3,
                lead=(256,), trainable=trainable, x_requires=x_requires, preset=False,
                dropped=[set(), {1, 6}, set()], seed=11,
            )
            shipped = _dense_bytes(case)
            with kernels_off("dense"):
                assert _dense_bytes(case) == shipped

    def test_adam_takes_strided_gradients_and_leaves_strided_weights_to_numpy(self):
        """A Fortran-ordered or integer gradient is read as its float64
        copy; a parameter whose weights are a strided view runs the numpy
        pass, which writes through the view; a misfit gradient is refused."""
        native_or_skip("dense")
        rng = np.random.default_rng(3)
        base = rng.standard_normal((6, 6))
        grads = [np.asfortranarray(rng.standard_normal((3, 5))), np.arange(4), rng.standard_normal(6)]
        runs = []
        for kernels in (contextlib.nullcontext, lambda: kernels_off("dense")):
            with kernels():
                for strided in (False, True):
                    weights = base.copy()
                    params = [Parameter(np.ones((3, 5))), Parameter(np.ones(4))]
                    params.append(Parameter(weights[:, 1] if strided else weights[1]))
                    optimizer = Adam(params, lr=0.1)
                    for _ in range(2):
                        for param, grad in zip(params, grads):
                            param.grad = grad.copy(order="K")
                        optimizer.step()
                    runs.append([p.data.tobytes() for p in params] + [weights.tobytes()])
        assert runs[:2] == runs[2:]
        param = Parameter(np.ones(3))
        param.grad = np.ones(4)
        with pytest.raises(ShapeError):
            Adam([param]).step()

    def test_graph_free_calls_never_load_the_kernel(self, monkeypatch):
        """``discrete_code`` and a ``no_grad`` forward stay numpy, so
        serving an extracted FSM loads no kernel."""

        unprobed(monkeypatch, "dense")
        qbn = QuantizedBottleneckNetwork(QBNConfig(9, 4, 6), rng=0)
        x = np.random.default_rng(0).standard_normal((5, 9))
        qbn.discrete_code(x)
        with no_grad():
            qbn(Tensor(x, requires_grad=True))
        assert "dense" not in native._kernels

    @pytest.mark.parametrize("method", ["quantize", "tanh_backward", "adam"])
    def test_a_kernel_that_differs_leaves_numpy_in_charge(self, monkeypatch, method):
        """One ulp of one output of one kernel entry fails the load-time self-check."""
        native_or_skip("dense")
        unprobed(monkeypatch, "dense")
        shipped = getattr(dense_native.NativeDenseKernel, method)

        def one_ulp_off(self, *args):
            result = shipped(self, *args)
            # quantize: the code; adam: the last parameter's weights;
            # tanh_backward: the array it returns.
            target = {
                "quantize": lambda: result[1],
                "adam": lambda: args[0][-1].data,
            }.get(method, lambda: result)()
            target.flat[-1] = np.nextafter(target.flat[-1], np.inf)
            return result

        monkeypatch.setattr(dense_native.NativeDenseKernel, method, one_ulp_off)
        assert native.kernel("dense") is None
        assert native.status()["dense"] == "disabled: self-check mismatch"
