"""Tests for repro.nn: Module, Linear, initialisers, state dicts."""

import itertools

import numpy as np
import pytest

from repro.autograd import check_gradients
from repro.autograd.tensor import Tensor, no_grad
from repro.errors import SerializationError, ShapeError
from repro.nn import Linear, Module, Parameter
from repro.nn import init


class _Stack(Module):
    """Modules held in a list attribute, the way parameter discovery walks them."""

    def __init__(self, *layers):
        self.layers = list(layers)


class TestParameterDiscovery:
    def test_linear_has_weight_and_bias(self):
        layer = Linear(3, 2, rng=0)
        names = dict(layer.named_parameters())
        assert set(names) == {"weight", "bias"}
        assert sum(p.data.size for p in layer.parameters()) == 3 * 2 + 2

    def test_nested_modules(self):
        model = _Stack(Linear(4, 3, rng=0), Linear(3, 2, rng=1))
        names = [n for n, _ in model.named_parameters()]
        assert "layers.0.weight" in names and "layers.1.bias" in names
        assert len(model.parameters()) == 4

    def test_zero_grad_clears(self):
        layer = Linear(2, 2, rng=0)
        out = layer(Tensor(np.ones(2))).sum()
        out.backward()
        assert layer.weight.grad is not None
        layer.zero_grad()
        assert layer.weight.grad is None

    def test_frozen_scope_restores_flags_as_found(self):
        model = _Stack(Linear(3, 4, rng=0), Linear(4, 2, rng=1))
        model.layers[1].bias.requires_grad = False
        with pytest.raises(RuntimeError):
            with model.frozen() as scope:
                assert scope is model
                assert not any(p.requires_grad for p in model.parameters())
                raise RuntimeError("mid-scope failure")
        flags = [p.requires_grad for p in model.parameters()]
        assert flags == [True, True, True, False]


class TestStateDict:
    def test_roundtrip(self):
        a = Linear(3, 2, rng=0)
        b = Linear(3, 2, rng=1)
        assert not np.allclose(a.weight.data, b.weight.data)
        b.load_state_dict(a.state_dict())
        np.testing.assert_allclose(a.weight.data, b.weight.data)

    def test_missing_key_raises(self):
        a = Linear(3, 2, rng=0)
        state = a.state_dict()
        state.pop("bias")
        with pytest.raises(SerializationError):
            Linear(3, 2).load_state_dict(state)

    def test_shape_mismatch_raises(self):
        a = Linear(3, 2, rng=0)
        state = a.state_dict()
        state["weight"] = np.zeros((2, 3))
        with pytest.raises(SerializationError):
            Linear(3, 2).load_state_dict(state)


class TestLinear:
    def test_output_shape(self):
        layer = Linear(5, 3, rng=0)
        assert layer(Tensor(np.zeros(5))).shape == (3,)
        assert layer(Tensor(np.zeros((7, 5)))).shape == (7, 3)

    def test_no_bias(self):
        layer = Linear(4, 2, bias=False, rng=0)
        assert layer.bias is None
        assert len(layer.parameters()) == 1

    def test_wrong_input_dim_raises(self):
        with pytest.raises(ShapeError):
            Linear(4, 2, rng=0)(Tensor(np.zeros(3)))

    def test_invalid_sizes_raise(self):
        with pytest.raises(ShapeError):
            Linear(0, 2)

    def test_gradients(self):
        layer = Linear(3, 2, rng=0)
        x = np.random.default_rng(0).random((4, 3))

        def loss():
            out = layer(Tensor(x))
            return (out * out).sum()

        check_gradients(loss, dict(layer.named_parameters()))

    def test_known_affine_result(self):
        layer = Linear(2, 1, rng=0)
        layer.weight.data[...] = np.array([[2.0], [3.0]])
        layer.bias.data[...] = np.array([1.0])
        out = layer(Tensor([1.0, 1.0]))
        assert out.numpy()[0] == pytest.approx(6.0)


def oracle_linear_forward(self, x):
    """``Linear.forward`` op by op: the two-node graph the fused layer replaced."""
    if not isinstance(x, Tensor):
        x = Tensor(x)
    out = x @ self.weight
    if self.bias is not None:
        out = out + self.bias
    return out


def same_grad(ours: Tensor, theirs: Tensor) -> bool:
    if ours.grad is None or theirs.grad is None:
        return ours.grad is None and theirs.grad is None
    return np.array_equal(ours.grad, theirs.grad)


class TestFusedLinearBitwise:
    """One node per ``Linear`` is, bit for bit, the graph of ``x @ W + b``.

    Compared with ``np.array_equal`` against the oracle on this host's
    BLAS, never against literals: the bits differ between OpenBLAS core
    types (CI runs this class under a second one).
    """

    # 1 and 3 outputs take matmul_rows_np's einsum route, 7 and 48 its gemm route.
    @pytest.mark.parametrize("outputs", [1, 3, 7, 48])
    @pytest.mark.parametrize("lead", [(), (1,), (2,), (5,), (3, 2)])
    @pytest.mark.parametrize("bias", [True, False])
    def test_output_and_every_grad(self, outputs, lead, bias):
        rng = np.random.default_rng(outputs + 10 * len(lead) + sum(lead))
        x_data = rng.standard_normal(lead + (12,))
        x_data[..., 0] = 0.0
        upstream = rng.standard_normal(lead + (outputs,))
        bias_data = rng.standard_normal(outputs)
        for x_requires, parameters_require in itertools.product([False, True], repeat=2):
            runs = []
            for forward in (Linear.forward, oracle_linear_forward):
                layer = Linear(12, outputs, bias=bias, rng=4)
                if bias:
                    layer.bias.data[...] = bias_data
                for param in layer.parameters():
                    param.requires_grad = parameters_require
                x = Tensor(x_data, requires_grad=x_requires)
                # Two graphs over the same leaves: the second sums into
                # gradients the first left behind.
                for scale in (1.0, -0.3):
                    out = forward(layer, x)
                    assert out.requires_grad == (x_requires or parameters_require)
                    if out.requires_grad:
                        (out * Tensor(upstream * scale)).sum().backward()
                runs.append((out, x, layer))
            (out, x, layer), (ref_out, ref_x, ref_layer) = runs
            label = f"x={x_requires} parameters={parameters_require}"
            assert np.array_equal(out.data, ref_out.data), label
            assert same_grad(x, ref_x), label
            assert (x.grad is not None) == x_requires, label
            for param, ref_param in zip(layer.parameters(), ref_layer.parameters()):
                assert same_grad(param, ref_param), label
                assert (param.grad is not None) == parameters_require, label

    @pytest.mark.parametrize("lead", [(), (1,), (5,)])
    def test_no_grad_builds_no_node(self, lead):
        layer, reference = Linear(6, 7, rng=2), Linear(6, 7, rng=2)
        x = np.random.default_rng(0).standard_normal(lead + (6,))
        with no_grad():
            out = layer(Tensor(x))
            expected = oracle_linear_forward(reference, Tensor(x))
        assert np.array_equal(out.data, expected.data)
        assert not out.requires_grad and out._parents == () and out._backward is None


class TestInit:
    def test_xavier_bounds(self):
        w = init.xavier_uniform((100, 50), rng=0)
        limit = np.sqrt(6.0 / 150)
        assert np.all(np.abs(w) <= limit)
        assert w.shape == (100, 50)

    def test_orthogonal_is_orthonormal(self):
        w = init.orthogonal((16, 16), rng=0)
        np.testing.assert_allclose(w @ w.T, np.eye(16), atol=1e-8)

    def test_orthogonal_rectangular(self):
        w = init.orthogonal((8, 4), rng=0)
        np.testing.assert_allclose(w.T @ w, np.eye(4), atol=1e-8)

    def test_zeros(self):
        assert np.all(init.zeros((3, 3)) == 0)
