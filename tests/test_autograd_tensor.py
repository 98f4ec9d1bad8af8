"""Tests for the autograd Tensor: forward values and backward gradients."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.autograd import check_gradients
from repro.autograd.tensor import Tensor, is_grad_enabled, no_grad
from repro.errors import AutogradError, ShapeError
from repro.optim import clip_grad_norm


def _param(values):
    return Tensor(np.asarray(values, dtype=float), requires_grad=True)


class TestTensorBasics:
    def test_shape_and_size(self):
        t = Tensor(np.zeros((2, 3)))
        assert t.shape == (2, 3)
        assert t.ndim == 2

    def test_item_scalar(self):
        assert Tensor(3.0).item() == 3.0

    def test_item_non_scalar_raises(self):
        with pytest.raises(ShapeError):
            Tensor(np.zeros(3)).item()

    def test_detach_drops_graph(self):
        a = _param([1.0, 2.0])
        b = (a * 2).detach()
        assert not b.requires_grad

    def test_len(self):
        assert len(Tensor(np.zeros((4, 2)))) == 4
        with pytest.raises(ShapeError):
            len(Tensor(1.0))

    def test_numpy_returns_copy(self):
        t = Tensor([1.0, 2.0])
        arr = t.numpy()
        arr[0] = 99.0
        assert t.data[0] == 1.0

    def test_backward_requires_grad(self):
        with pytest.raises(AutogradError):
            Tensor([1.0]).backward()

    def test_backward_non_scalar_needs_grad(self):
        t = _param([1.0, 2.0])
        out = t * 2
        with pytest.raises(AutogradError):
            out.backward()


class TestNoGrad:
    def test_no_grad_disables_graph(self):
        a = _param([1.0])
        with no_grad():
            assert not is_grad_enabled()
            out = a * 3
        assert is_grad_enabled()
        assert not out.requires_grad

    def test_no_grad_restores_on_exception(self):
        try:
            with no_grad():
                raise RuntimeError("boom")
        except RuntimeError:
            pass
        assert is_grad_enabled()


class TestArithmeticGradients:
    def test_add(self):
        a, b = _param([1.0, 2.0]), _param([3.0, 4.0])
        check_gradients(lambda: (a + b).sum(), {"a": a, "b": b})

    def test_sub(self):
        a, b = _param([1.0, 2.0]), _param([3.0, 4.0])
        check_gradients(lambda: (a - b * 2).sum(), {"a": a, "b": b})

    def test_mul(self):
        a, b = _param([1.5, -2.0]), _param([0.5, 3.0])
        check_gradients(lambda: (a * b).sum(), {"a": a, "b": b})

    def test_div(self):
        a, b = _param([1.0, 2.0]), _param([4.0, 5.0])
        check_gradients(lambda: (a / b).sum(), {"a": a, "b": b})

    def test_neg_and_rsub(self):
        a = _param([1.0, -2.0])
        check_gradients(lambda: (5.0 - (-a)).sum(), {"a": a})

    def test_scalar_rsub_gate(self):
        # The GRU convex-combination gate: (1 - z) * n + z * h, exercised
        # through the allocation-free scalar rsub path.
        update = _param([0.2, 0.7, -0.3])
        candidate = _param([1.0, -1.0, 0.5])
        hidden = _param([0.1, 0.2, 0.3])
        check_gradients(
            lambda: ((1.0 - update) * candidate + update * hidden).sum(),
            {"update": update, "candidate": candidate, "hidden": hidden},
        )
        gate = 1.0 - update
        # The scalar constant must not be materialised as a graph parent.
        assert gate._parents == (update,)
        np.testing.assert_allclose(gate.data, 1.0 - update.data)

    def test_scalar_broadcast(self):
        a = _param([[1.0, 2.0], [3.0, 4.0]])
        check_gradients(lambda: (a * 2.5 + 1.0).sum(), {"a": a})

    def test_broadcast_row_vector(self):
        a = _param(np.ones((3, 2)))
        b = _param([10.0, 20.0])
        check_gradients(lambda: (a * b).sum(), {"a": a, "b": b})
        # Gradient of the broadcast operand is reduced to its shape.
        assert b.grad.shape == (2,)


class TestMatmulGradients:
    def test_matrix_matrix(self):
        a = _param(np.random.default_rng(0).random((3, 4)))
        b = _param(np.random.default_rng(1).random((4, 2)))
        check_gradients(lambda: (a @ b).sum(), {"a": a, "b": b})

    def test_vector_matrix(self):
        a = _param(np.random.default_rng(2).random(4))
        b = _param(np.random.default_rng(3).random((4, 3)))
        check_gradients(lambda: (a @ b).sum(), {"a": a, "b": b})

    def test_vector_vector(self):
        a = _param([1.0, 2.0, 3.0])
        b = _param([0.5, -1.0, 2.0])
        check_gradients(lambda: (a @ b), {"a": a, "b": b})


class TestReductionGradients:
    def test_sum_all(self):
        a = _param(np.arange(6.0).reshape(2, 3))
        check_gradients(lambda: a.sum(), {"a": a})

    def test_sum_axis(self):
        a = _param(np.arange(6.0).reshape(2, 3))
        check_gradients(lambda: a.sum(axis=0).sum(), {"a": a})
        check_gradients(lambda: a.sum(axis=1, keepdims=True).sum(), {"a": a})

    def test_mean(self):
        a = _param(np.arange(8.0).reshape(2, 4))
        check_gradients(lambda: a.mean(), {"a": a})
        check_gradients(lambda: a.mean(axis=1).sum(), {"a": a})


class TestShapeOps:
    def test_reshape_gradient(self):
        a = _param(np.arange(6.0))
        check_gradients(lambda: (a.reshape(2, 3) * 2).sum(), {"a": a})

    def test_getitem_gradient(self):
        a = _param(np.arange(10.0))
        check_gradients(lambda: a[2:5].sum(), {"a": a})

    def test_getitem_fancy_index(self):
        a = _param(np.arange(12.0).reshape(3, 4))
        rows = np.array([0, 1, 2])
        cols = np.array([1, 2, 0])
        check_gradients(lambda: a[rows, cols].sum(), {"a": a})

    def test_stack_gradient(self):
        a, b = _param([1.0, 2.0]), _param([3.0, 4.0])
        check_gradients(lambda: (Tensor.stack([a, b], axis=0) * 2).sum(), {"a": a, "b": b})


class TestNonlinearityGradients:
    def test_exp_log(self):
        a = _param([0.5, 1.0, 2.0])
        check_gradients(lambda: a.exp().sum(), {"a": a})
        check_gradients(lambda: a.log().sum(), {"a": a})

    def test_tanh_sigmoid(self):
        a = _param([-1.0, 0.0, 2.0])
        check_gradients(lambda: a.tanh().sum(), {"a": a})
        check_gradients(lambda: a.sigmoid().sum(), {"a": a})

    def test_abs(self):
        a = _param([-1.5, 2.0, -0.5])
        check_gradients(lambda: a.abs().sum(), {"a": a})

    def test_clip_values_and_grad_mask(self):
        a = _param([-2.0, 0.5, 3.0])
        clipped = a.clip(-1.0, 1.0)
        np.testing.assert_allclose(clipped.data, [-1.0, 0.5, 1.0])
        clipped.sum().backward()
        np.testing.assert_allclose(a.grad, [0.0, 1.0, 0.0])


class TestGradientAccumulation:
    def test_reused_tensor_accumulates(self):
        a = _param([2.0])
        out = a * a  # a appears twice
        out.backward(np.array([1.0]))
        assert a.grad[0] == pytest.approx(4.0)

    def test_zero_grad(self):
        a = _param([1.0])
        (a * 2).backward(np.array([1.0]))
        a.zero_grad()
        assert a.grad is None

    def test_two_backward_passes_accumulate(self):
        a = _param([1.0])
        (a * 3).backward(np.array([1.0]))
        (a * 3).backward(np.array([1.0]))
        assert a.grad[0] == pytest.approx(6.0)

    # ``_accumulate`` adds in place, so every ``grad`` must be a buffer
    # its tensor owns: a copy at the first contribution, never an alias
    # of the caller's array, a sibling's gradient or a read-only view.
    def test_tensor_used_twice_by_one_node(self):
        x = _param([1.0, -2.0, 3.0])
        (x + x).sum().backward()
        np.testing.assert_array_equal(x.grad, [2.0, 2.0, 2.0])

    def test_parents_of_one_node_own_distinct_buffers(self):
        a, b = _param([1.0, 2.0]), _param([3.0, 4.0])
        out = a + b
        out.sum().backward()
        assert not np.shares_memory(a.grad, b.grad)
        assert not np.shares_memory(a.grad, out.grad)
        a.grad += 5.0
        np.testing.assert_array_equal(b.grad, [1.0, 1.0])
        np.testing.assert_array_equal(out.grad, [1.0, 1.0])

    def test_second_backward_sums_into_the_same_buffer(self):
        a = _param([1.0, 2.0])
        (a * 3).sum().backward()
        buffer = a.grad
        (a * 3).sum().backward()
        assert a.grad is buffer
        np.testing.assert_array_equal(a.grad, [6.0, 6.0])

    def test_backward_leaves_the_callers_gradient_alone(self):
        a = _param([1.0, 2.0])
        seed = np.array([1.0, -1.0])
        out = a * 3
        out.backward(grad=seed)
        out.backward(grad=seed)
        np.testing.assert_array_equal(seed, [1.0, -1.0])
        assert not np.shares_memory(out.grad, seed)
        np.testing.assert_array_equal(out.grad, [2.0, -2.0])

    def test_broadcast_gradient_lands_in_a_writable_copy(self):
        a = _param(np.ones((2, 3)))
        a.sum().backward()  # sum's backward hands over a read-only broadcast view
        assert a.grad.flags.writeable and a.grad.flags.owndata
        a.sum().backward()
        np.testing.assert_array_equal(a.grad, np.full((2, 3), 2.0))

    def test_clipping_one_gradient_reaches_no_other(self):
        a, b = _param([3.0, 4.0]), _param([3.0, 4.0])
        out = a + b
        (out * out).sum().backward()
        expected = b.grad.copy()
        assert clip_grad_norm([a], max_norm=1.0) > 1.0
        assert np.linalg.norm(a.grad) == pytest.approx(1.0)
        np.testing.assert_array_equal(b.grad, expected)
        np.testing.assert_array_equal(out.grad, expected)


class TestPropertyBased:
    @given(st.lists(st.floats(-10, 10), min_size=1, max_size=8))
    @settings(max_examples=30, deadline=None)
    def test_sum_matches_numpy(self, values):
        t = Tensor(values)
        assert t.sum().item() == pytest.approx(float(np.sum(values)), abs=1e-9)

    @given(
        st.lists(st.floats(-5, 5), min_size=2, max_size=6),
        st.lists(st.floats(-5, 5), min_size=2, max_size=6),
    )
    @settings(max_examples=30, deadline=None)
    def test_addition_commutes(self, xs, ys):
        n = min(len(xs), len(ys))
        a, b = Tensor(xs[:n]), Tensor(ys[:n])
        np.testing.assert_allclose((a + b).data, (b + a).data)

    @given(st.lists(st.floats(-3, 3), min_size=1, max_size=6))
    @settings(max_examples=30, deadline=None)
    def test_tanh_bounded(self, values):
        out = Tensor(values).tanh().data
        assert np.all(np.abs(out) <= 1.0)
