"""Tests for the Adam optimiser and gradient clipping."""

import numpy as np
import pytest

from repro.autograd.tensor import Tensor
from repro.errors import TrainingError
from repro.nn import Linear
from repro.nn.module import Parameter
from repro.optim import Adam, clip_grad_norm, global_grad_norm


def _quadratic_param(start=5.0):
    return Parameter(np.array([start]))


def _minimize(optimizer, param, steps=200):
    for _ in range(steps):
        optimizer.zero_grad()
        loss = (param * param).sum()
        loss.backward()
        optimizer.step()
    return float(param.data[0])


class TestAdam:
    def test_minimizes_quadratic(self):
        p = _quadratic_param()
        assert abs(_minimize(Adam([p], lr=0.1), p, steps=300)) < 1e-2

    def test_default_lr_matches_paper(self):
        assert Adam([_quadratic_param()]).lr == pytest.approx(3e-4)

    def test_invalid_betas(self):
        with pytest.raises(TrainingError):
            Adam([_quadratic_param()], betas=(1.0, 0.999))

    def test_empty_parameters_raise(self):
        with pytest.raises(TrainingError):
            Adam([], lr=0.1)

    def test_skips_params_without_grad(self):
        p = _quadratic_param()
        opt = Adam([p], lr=0.1)
        opt.step()  # no grad accumulated: should not crash or change value
        assert p.data[0] == 5.0

    def test_step_count_increments(self):
        p = _quadratic_param()
        opt = Adam([p], lr=0.01)
        (p * p).sum().backward()
        opt.step()
        opt.step()
        assert opt.step_count == 2

    def test_trains_linear_regression(self):
        rng = np.random.default_rng(0)
        x = rng.random((64, 3))
        true_w = np.array([[1.5], [-2.0], [0.5]])
        y = x @ true_w
        layer = Linear(3, 1, rng=1)
        opt = Adam(layer.parameters(), lr=0.05)
        for _ in range(300):
            opt.zero_grad()
            pred = layer(Tensor(x))
            loss = ((pred - Tensor(y)) ** 2).mean()
            loss.backward()
            opt.step()
        np.testing.assert_allclose(layer.weight.data, true_w, atol=0.05)


class TestClipping:
    def test_norm_computation(self):
        p = Parameter(np.zeros(2))
        p.grad = np.array([3.0, 4.0])
        assert global_grad_norm([p]) == pytest.approx(5.0)

    def test_clipping_scales_down(self):
        p = Parameter(np.zeros(2))
        p.grad = np.array([3.0, 4.0])
        returned = clip_grad_norm([p], max_norm=1.0)
        assert returned == pytest.approx(5.0)
        assert np.linalg.norm(p.grad) == pytest.approx(1.0)

    def test_no_clipping_below_threshold(self):
        p = Parameter(np.zeros(2))
        p.grad = np.array([0.3, 0.4])
        clip_grad_norm([p], max_norm=1.0)
        np.testing.assert_allclose(p.grad, [0.3, 0.4])

    def test_invalid_max_norm(self):
        with pytest.raises(ValueError):
            clip_grad_norm([Parameter(np.zeros(1))], max_norm=0.0)

    def test_none_grads_ignored(self):
        assert global_grad_norm([Parameter(np.zeros(3))]) == 0.0

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_gradient_raises_before_scaling(self, bad):
        """A NaN norm used to scale nothing, an infinite one to zero every
        gradient; the Adam step after either wrote NaN into a parameter."""
        params = [Parameter(np.zeros(2)) for _ in range(3)]
        params[0].grad = np.array([30.0, 40.0])
        params[1].grad = np.array([1.0, bad])
        params[2].grad = np.array([np.nan, 2.0])
        before = [p.grad.copy() for p in params]
        with pytest.raises(TrainingError, match=r"parameter 1 \(shape \(2,\)\) has a non-finite"):
            clip_grad_norm(params, max_norm=1.0)
        for param, grad in zip(params, before):
            assert param.grad.tobytes() == grad.tobytes()

    def test_non_finite_gradient_is_named(self):
        layer = Linear(2, 2, rng=0)
        layer.weight.grad = np.zeros((2, 2))
        layer.bias.grad = np.array([0.0, np.nan])
        with pytest.raises(TrainingError, match="bias"):
            clip_grad_norm(layer.parameters(), max_norm=1.0)

    def test_overflowing_norm_raises(self):
        p = Parameter(np.zeros(2))
        p.grad = np.array([1e200, 1e200])
        with pytest.raises(TrainingError, match="overflows"), np.errstate(over="ignore"):
            clip_grad_norm([p], max_norm=1.0)
        assert np.array_equal(p.grad, [1e200, 1e200])
