"""Tests for the GRU cell and sequence wrapper."""

import contextlib
import itertools

import numpy as np
import pytest

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
from repro.nn import GRU, GRUCell, Linear
from repro.optim import Adam
from repro.qbn.autoencoder import QBNConfig, QuantizedBottleneckNetwork
from repro.qbn.dataset import TransitionDataset
from repro.qbn.quantize import quantize_ste, values_to_codes
from repro.qbn.trainer import QBNTrainer, QBNTrainingConfig
from test_nn_modules import same_grad, oracle_linear_forward


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
        assert cell.num_parameters() == 3 * (12 + 16 + 4)

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
    def test_unroll_shapes(self):
        gru = GRU(4, 6, rng=0)
        seq = Tensor(np.random.default_rng(0).random((10, 4)))
        outputs, final = gru(seq)
        assert outputs.shape == (10, 6)
        assert final.shape == (6,)
        np.testing.assert_allclose(outputs.numpy()[-1], final.numpy())

    def test_batched_unroll(self):
        gru = GRU(4, 6, rng=0)
        seq = Tensor(np.random.default_rng(0).random((5, 3, 4)))
        outputs, final = gru(seq)
        assert outputs.shape == (5, 3, 6)
        assert final.shape == (3, 6)

    def test_matches_manual_cell_unroll(self):
        gru = GRU(3, 5, rng=1)
        seq = np.random.default_rng(1).random((4, 3))
        outputs, _ = gru(Tensor(seq))
        h = gru.cell.initial_state()
        for t in range(4):
            h = gru.cell(Tensor(seq[t]), h)
        np.testing.assert_allclose(outputs.numpy()[-1], h.numpy())

    def test_invalid_rank_raises(self):
        with pytest.raises(ShapeError):
            GRU(3, 4, rng=0)(Tensor(np.zeros(3)))

    def test_custom_initial_state_used(self):
        gru = GRU(2, 3, rng=0)
        seq = Tensor(np.zeros((1, 2)))
        h0 = Tensor(np.full(3, 0.9))
        _, from_custom = gru(seq, h0)
        _, from_zero = gru(seq)
        assert not np.allclose(from_custom.numpy(), from_zero.numpy())


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
# The bitwise contract: one autograd node per step is the op-by-op graph
# ----------------------------------------------------------------------
def oracle_gru_forward(self, x, h=None):
    """``GRUCell.forward`` op by op: the module docstring as ~26 graph nodes."""
    if not isinstance(x, Tensor):
        x = Tensor(x)
    if h is None:
        h = self.initial_state(None if x.ndim == 1 else x.shape[0])
    reset = (x @ self.w_xr + h @ self.w_hr + self.b_r).sigmoid()
    update = (x @ self.w_xz + h @ self.w_hz + self.b_z).sigmoid()
    candidate = (x @ self.w_xn + reset * (h @ self.w_hn) + self.b_n).tanh()
    return (1.0 - update) * candidate + update * h


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


@contextlib.contextmanager
def op_by_op():
    """Every ``GRUCell``, ``Linear`` and QBN runs as the graph the fused node
    replaced, ``unroll`` as the chain of those steps and Adam one
    parameter at a time."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(GRUCell, "forward", oracle_gru_forward)
        patch.setattr(Linear, "forward", oracle_linear_forward)
        patch.setattr(RecurrentPolicyValueNet, "unroll", chain_unroll)
        patch.setattr(QuantizedBottleneckNetwork, "forward", oracle_qbn_forward)
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
    """``GRUCell.forward`` against the op-by-op formulas, ``np.array_equal`` only.

    Outputs and every gradient are pinned by comparison with the oracle
    on this host's BLAS, never by literal: the bits differ between
    OpenBLAS core types (CI runs this class under a second one).  What
    makes them equal is the backward's accumulation order, stated in the
    ``repro.nn.rnn`` module docstring.
    """

    @pytest.mark.parametrize("hidden", [4, 12, 48])
    @pytest.mark.parametrize("batch", [None, 1, 2, 5])
    def test_one_step_every_requires_grad_combination(self, hidden, batch):
        rng = np.random.default_rng(100 * hidden + (batch or 0))
        lead = () if batch is None else (batch,)
        x_data = rng.standard_normal(lead + (7,))
        x_data[..., 0] = 0.0
        h_data = rng.standard_normal(lead + (hidden,)) * 0.5
        upstream = rng.standard_normal(lead + (hidden,))
        for x_requires, h_requires, parameters_require in itertools.product(
            [False, True], repeat=3
        ):
            runs = []
            for forward in (GRUCell.forward, oracle_gru_forward):
                cell = _fill_biases(GRUCell(7, hidden, rng=1))
                for param in cell.parameters():
                    param.requires_grad = parameters_require
                x = Tensor(x_data, requires_grad=x_requires)
                h = Tensor(h_data, requires_grad=h_requires)
                # Two graphs over the same leaves: the second sums into
                # gradients the first left behind.
                for scale in (1.0, -0.3):
                    out = forward(cell, x, h)
                    assert out.requires_grad == (x_requires or h_requires or parameters_require)
                    if out.requires_grad:
                        (out * Tensor(upstream * scale)).sum().backward()
                runs.append((out, x, h, cell))
            (out, x, h, cell), (ref_out, ref_x, ref_h, ref_cell) = runs
            label = f"x={x_requires} h={h_requires} parameters={parameters_require}"
            assert np.array_equal(out.data, ref_out.data), label
            assert same_grad(x, ref_x) and (x.grad is not None) == x_requires, label
            assert same_grad(h, ref_h) and (h.grad is not None) == h_requires, label
            _assert_same_parameter_grads(cell, ref_cell, expect_grads=parameters_require)

    @pytest.mark.parametrize("hidden", [4, 12, 48])
    @pytest.mark.parametrize("batch", [None, 1, 2, 5])
    def test_no_grad_builds_no_node(self, hidden, batch):
        rng = np.random.default_rng(hidden + (batch or 0))
        lead = () if batch is None else (batch,)
        x = rng.standard_normal(lead + (7,))
        h = rng.standard_normal(lead + (hidden,))
        cell = _fill_biases(GRUCell(7, hidden, rng=1))
        with no_grad():
            out = cell(Tensor(x), Tensor(h))
            first = cell(Tensor(x))
            with op_by_op():
                expected = cell(Tensor(x), Tensor(h))
                expected_first = cell(Tensor(x))
        assert np.array_equal(out.data, expected.data)
        assert np.array_equal(first.data, expected_first.data)
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
        """Cross-entropy with QBN reconstructions as ``x`` and ``h`` (``QBNTrainer._fine_tune``)."""
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
        assert np.array_equal(qbn.reconstruct(x), expected.data)

    @pytest.mark.parametrize("shape", SHAPES)
    @pytest.mark.parametrize("lead", LEADS)
    @pytest.mark.parametrize("levels", [2, 3, 5])
    def test_graph_free_halves_are_the_oracle(self, shape, lead, levels):
        x = self._input(shape, lead, seed=3)
        qbn = self._qbn(shape, levels)
        with op_by_op():
            latent = oracle_qbn_encode(qbn, Tensor(x))
            reconstruction = qbn(Tensor(x))
        codes = qbn.discrete_code(x)
        assert codes.dtype == np.int64
        assert np.array_equal(codes, values_to_codes(latent.numpy(), levels))
        assert np.array_equal(qbn.encode(x).data, latent.data)
        assert np.array_equal(qbn.decode(latent).data, reconstruction.data)
        assert np.array_equal(qbn.reconstruct(x), reconstruction.data)
        assert qbn.encode(Tensor(x, requires_grad=True))._parents == ()


def bc_loss(policy, observations, actions, weights):
    """``BehaviorCloningTrainer.fit``'s loss on one demonstration."""
    log_probs = F.log_softmax(policy.unroll(observations), axis=-1)
    nll = F.nll_of_actions(log_probs, actions)
    return (nll * Tensor(weights)).sum() * (1.0 / max(weights.sum(), 1e-9))


def a2c_loss(policy, observations, actions, mask, returns):
    """``A2CTrainer._update_from_batch``'s loss on a padded (T, B) batch."""
    logits_steps, value_steps = policy.unroll(observations, values=True)
    time_idx, env_idx = np.nonzero(mask)
    logits_matrix = logits_steps[time_idx, env_idx]
    values_vector = value_steps[time_idx, env_idx]
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


class TestSequenceNodeBitwise:
    """``unroll`` (one node per sequence) against the chain of ``step`` nodes.

    ``np.array_equal`` on the loss and every gradient, never a literal:
    the node's backward replays the chain's order (heads for t = 1..T,
    then the GRU steps T..1; ``repro.nn.rnn`` docstring), and only that
    order makes the bits equal.  CI reruns the class under a second
    OpenBLAS kernel family.
    """

    @staticmethod
    def _both(build_loss, hidden, frozen):
        """Two backwards (the second sums into the first's grads) through
        ``unroll`` and through the chain, on equal fresh policies."""
        runs = []
        for unroll in (RecurrentPolicyValueNet.unroll, chain_unroll):
            policy = _policy(hidden)
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(RecurrentPolicyValueNet, "unroll", unroll)
                scope = getattr(policy, frozen).frozen() if frozen else contextlib.nullcontext()
                with scope:
                    losses = [build_loss(policy) for _ in range(2)]
                    for loss, scale in zip(losses, (1.0, -0.3)):
                        (loss * scale).backward()
            runs.append((policy, losses))
        (policy, losses), (reference, ref_losses) = runs
        for loss, ref_loss in zip(losses, ref_losses):
            assert np.array_equal(loss.data, ref_loss.data)
        return policy, reference

    @pytest.mark.parametrize("hidden", [4, 12, 48])
    @pytest.mark.parametrize("steps", [1, 2, 9])
    @pytest.mark.parametrize("frozen", [None, "gru", "policy_head"])
    def test_behaviour_cloning_loss(self, hidden, steps, frozen):
        rng = np.random.default_rng(100 * hidden + steps)
        observations = rng.standard_normal((steps, 9))
        actions = rng.integers(7, size=steps)
        weights = rng.uniform(0.2, 5.0, size=7)[actions]
        policy, reference = self._both(
            lambda p: bc_loss(p, observations, actions, weights), hidden, frozen
        )
        for name in ("gru", "policy_head"):
            _assert_same_parameter_grads(
                getattr(policy, name), getattr(reference, name), expect_grads=name != frozen
            )
        # The value head is not part of the BC node and never reaches the loss.
        _assert_same_parameter_grads(policy.value_head, reference.value_head, expect_grads=False)

    @pytest.mark.parametrize("hidden", [4, 12, 48])
    @pytest.mark.parametrize("steps", [1, 2, 9])
    @pytest.mark.parametrize("width", [1, 2, 5])
    @pytest.mark.parametrize("frozen", [None, "gru", "value_head"])
    def test_a2c_loss_on_padded_batch(self, hidden, steps, width, frozen):
        rng = np.random.default_rng(1000 * hidden + 10 * steps + width)
        batch = _padded_batch(rng, steps, width)
        policy, reference = self._both(lambda p: a2c_loss(p, *batch), hidden, frozen)
        for name in ("gru", "policy_head", "value_head"):
            _assert_same_parameter_grads(
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

    @pytest.mark.parametrize("batch", [None, 3])
    def test_gru_wrapper_is_the_cell_chain(self, batch):
        """``GRU.forward``: the stacked gradient lands on each step where
        the stack node put it; inputs and ``h0`` get theirs too."""
        rng = np.random.default_rng(7)
        lead = () if batch is None else (batch,)
        sequence = rng.standard_normal((5,) + lead + (4,))
        h0_data = rng.standard_normal(lead + (6,)) * 0.5
        upstream = rng.standard_normal((5,) + lead + (6,))
        runs = []
        for wrapped in (True, False):
            gru = _fill_biases(GRU(4, 6, rng=1))
            x, h0 = Tensor(sequence, requires_grad=True), Tensor(h0_data, requires_grad=True)
            for scale in (1.0, -0.3):
                if wrapped:
                    stacked, final = gru(x, h0)
                else:
                    h, steps = h0, []
                    for t in range(5):
                        h = gru.cell(x[t], h)
                        steps.append(h)
                    stacked, final = Tensor.stack(steps, axis=0), h
                ((stacked * Tensor(upstream * scale)).sum() + final.sum()).backward()
            runs.append((stacked, x, h0, gru))
        (stacked, x, h0, gru), (ref_stacked, ref_x, ref_h0, ref_gru) = runs
        assert np.array_equal(stacked.data, ref_stacked.data)
        assert same_grad(x, ref_x) and same_grad(h0, ref_h0) and x.grad is not None
        _assert_same_parameter_grads(gru, ref_gru)


class TestTrainingBitwiseDifferential:
    def test_bc_a2c_and_qbn_fine_tune_learn_the_same_bytes(self, system_config, real_traces):
        """Two BC epochs, one A2C epoch, two epochs of QBN training and two
        of fine-tuning (each ending on a ragged minibatch), run as shipped
        and again op by op with a per-parameter Adam, leave every parameter
        byte-equal."""
        reward = RewardConfig(mode="per_step_penalty")
        traces = list(real_traces[:2])

        def train():
            policy = RecurrentPolicyValueNet(PolicyConfig(hidden_size=12), rng=3)
            cloner = BehaviorCloningTrainer(
                system_config, reward, ImitationConfig(epochs=2), rng=5
            )
            cloner.fit(policy, cloner.collect_demonstrations(GreedyUtilizationPolicy(), traces))
            A2CTrainer(
                policy, system_config, reward, A2CConfig(episodes_per_epoch=3), rng=0
            ).train(traces, epochs=1)
            collector = BatchedRolloutCollector(
                VectorStorageAllocationEnv(system_config, reward), rng=1
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
            qbns = QBNTrainer(qbn_config, rng=2).train(dataset, policy=policy, fine_tune_epochs=2)
            learned = {}
            for label, module in (
                ("policy", policy),
                ("observation_qbn", qbns.observation_qbn),
                ("hidden_qbn", qbns.hidden_qbn),
            ):
                for name, param in module.named_parameters():
                    learned[f"{label}.{name}"] = param.data.tobytes()
            return learned

        shipped = train()
        with op_by_op():
            oracle = train()
        assert shipped.keys() == oracle.keys() and len(shipped) == 13 + 8 + 8
        assert [name for name in shipped if shipped[name] != oracle[name]] == []
