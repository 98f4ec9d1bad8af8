"""Tests for the Adam optimiser and gradient clipping."""

import numpy as np
import pytest

from repro.autograd.tensor import Tensor
from repro.errors import ConfigurationError, TrainingError
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
        with pytest.raises(TrainingError):
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


class TestFlatAdam:
    def test_flat_pass_is_the_per_parameter_loop(self):
        """Runs of parameters with and without gradients, changing from step
        to step, update to the bytes of one parameter at a time."""
        from test_nn_gru import oracle_adam_apply

        rng = np.random.default_rng(0)
        shapes = [(3, 4), (4,), (1,), (2, 2), (5,), (7, 3)]
        starts = [rng.standard_normal(shape) for shape in shapes]
        grads = [[rng.standard_normal(shape) for shape in shapes] for _ in range(6)]
        # Which parameters hold a gradient at each step: a run in the middle,
        # runs at both ends, everything, nothing, one alone.
        holding = [
            [0, 1, 2, 3, 4, 5], [1, 2, 4], [0, 5], [], [3], [0, 1, 3, 4, 5],
        ]
        finals = []
        for apply in (Adam._apply, oracle_adam_apply):
            params = [Parameter(start.copy()) for start in starts]
            optimizer = Adam(params, lr=0.01)
            optimizer._apply = apply.__get__(optimizer)
            for step_grads, held in zip(grads, holding):
                optimizer.zero_grad()
                for index in held:
                    params[index].grad = step_grads[index].copy()
                optimizer.step()
            finals.append([param.data.tobytes() for param in params])
        assert finals[0] == finals[1]

    def test_updates_in_place(self):
        p = _quadratic_param()
        data = p.data
        opt = Adam([p], lr=0.1)
        (p * p).sum().backward()
        opt.step()
        assert p.data is data and p.data[0] != 5.0

    def test_weight_decay_is_gone(self):
        with pytest.raises(TypeError):
            Adam([_quadratic_param()], weight_decay=0.1)


class TestNonFiniteSettings:
    """A NaN compares false with everything, so a sign check alone let it
    through; each of these used to be accepted."""

    @pytest.mark.parametrize("lr", [np.nan, np.inf])
    def test_adam_learning_rate(self, lr):
        with pytest.raises(TrainingError, match="learning rate"):
            Adam([_quadratic_param()], lr=lr)

    @pytest.mark.parametrize("eps", [np.nan, np.inf])
    def test_adam_eps(self, eps):
        with pytest.raises(TrainingError, match="eps"):
            Adam([_quadratic_param()], eps=eps)

    @pytest.mark.parametrize("max_norm", [np.nan, np.inf])
    def test_clip_max_norm(self, max_norm):
        layer = Linear(3, 2, rng=0)
        layer.weight.grad = np.full((3, 2), 400.0)
        layer.bias.grad = np.full(2, 400.0)
        before = [p.grad.copy() for p in layer.parameters()]
        with pytest.raises(TrainingError, match="max_norm"):
            clip_grad_norm(layer.parameters(), max_norm)
        assert all(np.array_equal(p.grad, g) for p, g in zip(layer.parameters(), before))

    @pytest.mark.parametrize("field", ["learning_rate", "grad_clip_norm"])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_a2c_config(self, field, value):
        from repro.drl.a2c import A2CConfig

        with pytest.raises(ConfigurationError, match=field):
            A2CConfig(**{field: value})

    @pytest.mark.parametrize("field", ["learning_rate", "grad_clip_norm"])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_imitation_config(self, field, value):
        from repro.drl.imitation import ImitationConfig

        with pytest.raises(ConfigurationError, match=field):
            ImitationConfig(**{field: value})

    @pytest.mark.parametrize("field", ["learning_rate", "grad_clip_norm"])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_qbn_training_config(self, field, value):
        from repro.qbn.trainer import QBNTrainingConfig

        with pytest.raises(ConfigurationError, match=field):
            QBNTrainingConfig(**{field: value})

    @pytest.mark.parametrize(
        "overrides",
        [{"qbn.grad_clip_norm": np.nan}, {"a2c.learning_rate": np.inf}],
        ids=["qbn.grad_clip_norm=nan", "a2c.learning_rate=inf"],
    )
    def test_apply_overrides(self, overrides):
        from repro.pipeline.experiments import small_pipeline_config
        from repro.pipeline.sweep import apply_overrides

        with pytest.raises(ConfigurationError):
            apply_overrides(small_pipeline_config(0), overrides)

    def test_sweep_spec_nan_from_json(self):
        """``json.load`` parses ``NaN``; the job's config refuses it."""
        import json

        from repro.pipeline.experiments import small_pipeline_config
        from repro.pipeline.sweep import apply_overrides

        params = json.loads('{"qbn.learning_rate": NaN}')
        with pytest.raises(ConfigurationError, match="learning_rate"):
            apply_overrides(small_pipeline_config(0), params)
