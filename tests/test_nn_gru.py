"""Tests for the GRU cell and sequence wrapper."""

import numpy as np
import pytest

from repro.autograd import check_gradients
from repro.autograd.tensor import Tensor
from repro.errors import ShapeError
from repro.nn import GRU, GRUCell


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
