"""Tests for repro.autograd.functional (softmax, losses, entropy)."""

import numpy as np
import pytest

from repro.autograd import check_gradients
from repro.autograd import functional as F
from repro.autograd.tensor import Tensor
from repro.errors import ShapeError


def _param(values):
    return Tensor(np.asarray(values, dtype=float), requires_grad=True)


class TestSoftmax:
    def test_rows_sum_to_one(self):
        logits = Tensor(np.random.default_rng(0).random((4, 7)))
        probs = F.softmax(logits).numpy()
        np.testing.assert_allclose(probs.sum(axis=1), np.ones(4), atol=1e-12)
        assert np.all(probs >= 0)

    def test_invariant_to_constant_shift(self):
        logits = np.array([[1.0, 2.0, 3.0]])
        a = F.softmax(Tensor(logits)).numpy()
        b = F.softmax(Tensor(logits + 100.0)).numpy()
        np.testing.assert_allclose(a, b, atol=1e-12)

    def test_numerical_stability_large_logits(self):
        probs = F.softmax(Tensor([[1e4, 0.0, -1e4]])).numpy()
        assert np.isfinite(probs).all()
        assert probs[0, 0] == pytest.approx(1.0)

    def test_gradient(self):
        logits = _param(np.random.default_rng(1).random((3, 4)))
        check_gradients(lambda: (F.softmax(logits) * np.arange(4)).sum(), {"logits": logits})


class TestLogSoftmax:
    def test_matches_log_of_softmax(self):
        logits = Tensor(np.random.default_rng(2).random((5, 3)))
        np.testing.assert_allclose(
            F.log_softmax(logits).numpy(), np.log(F.softmax(logits).numpy()), atol=1e-10
        )

    def test_gradient(self):
        logits = _param(np.random.default_rng(3).random((2, 5)))
        check_gradients(lambda: F.log_softmax(logits).sum(), {"logits": logits})


class TestCrossEntropy:
    def test_perfect_prediction_low_loss(self):
        logits = Tensor(np.array([[10.0, -10.0], [-10.0, 10.0]]))
        loss = F.cross_entropy(logits, [0, 1])
        assert loss.item() < 1e-4

    def test_uniform_prediction(self):
        logits = Tensor(np.zeros((3, 4)))
        assert F.cross_entropy(logits, [0, 1, 2]).item() == pytest.approx(np.log(4))

    def test_requires_2d(self):
        with pytest.raises(ShapeError):
            F.cross_entropy(Tensor(np.zeros(4)), [0])

    def test_target_length_mismatch(self):
        with pytest.raises(ShapeError):
            F.cross_entropy(Tensor(np.zeros((2, 3))), [0])

    def test_gradient(self):
        logits = _param(np.random.default_rng(4).random((4, 3)))
        check_gradients(lambda: F.cross_entropy(logits, [0, 2, 1, 1]), {"logits": logits})


class TestNllOfActions:
    def test_picks_correct_entries(self):
        log_probs = Tensor(np.log(np.array([[0.7, 0.3], [0.2, 0.8]])))
        nll = F.nll_of_actions(log_probs, [0, 1]).numpy()
        np.testing.assert_allclose(nll, [-np.log(0.7), -np.log(0.8)], atol=1e-12)

    def test_gradient(self):
        logits = _param(np.random.default_rng(5).random((3, 4)))
        check_gradients(
            lambda: F.nll_of_actions(F.log_softmax(logits), [1, 0, 3]).sum(),
            {"logits": logits},
        )


class TestMseHuber:
    def test_mse_zero_for_equal(self):
        pred = Tensor([1.0, 2.0])
        assert F.mse_loss(pred, [1.0, 2.0]).item() == 0.0

    def test_mse_value(self):
        pred = Tensor([1.0, 3.0])
        assert F.mse_loss(pred, [0.0, 0.0]).item() == pytest.approx(5.0)

    def test_mse_gradient(self):
        pred = _param([1.0, -2.0, 0.5])
        check_gradients(lambda: F.mse_loss(pred, [0.0, 1.0, 0.5]), {"pred": pred})


class TestEntropy:
    def test_uniform_maximizes(self):
        uniform = Tensor(np.full((1, 4), 0.25))
        peaked = Tensor(np.array([[0.97, 0.01, 0.01, 0.01]]))
        assert F.entropy(uniform).item() > F.entropy(peaked).item()

    def test_uniform_value(self):
        uniform = Tensor(np.full((1, 8), 1 / 8))
        assert F.entropy(uniform).item() == pytest.approx(np.log(8), abs=1e-6)

    def test_gradient(self):
        logits = _param(np.random.default_rng(6).random((2, 5)))
        check_gradients(lambda: F.entropy(F.softmax(logits)), {"logits": logits})


class TestMatmulRowsNp:
    """The one helper that knows which BLAS route is row-stable."""

    # (M, N) per route: einsum (N < 7), gemm (even M), gemm + pad-to-two
    # (odd M >= 3), pad-to-two (M = 1).
    ROUTES = [(5, 3), (4, 16), (5, 16), (1, 16)]

    @pytest.mark.parametrize("rows, cols", ROUTES)
    def test_out_buffer_is_returned_and_bitwise_equal(self, rows, cols):
        rng = np.random.default_rng(rows * 100 + cols)
        x = rng.standard_normal((rows, 11))
        w = rng.standard_normal((11, cols))
        fresh = F.matmul_rows_np(x, w)
        buf = np.full((rows, cols), np.nan)
        assert F.matmul_rows_np(x, w, out=buf) is buf
        np.testing.assert_array_equal(buf, fresh)

    @pytest.mark.parametrize("cols", [3, 16])
    def test_row_is_independent_of_batch_size(self, cols):
        rng = np.random.default_rng(cols)
        x = rng.standard_normal((9, 11))
        w = rng.standard_normal((11, cols))
        full = F.matmul_rows_np(x, w)
        for rows in (1, 2, 5):
            buf = np.empty((rows, cols))
            np.testing.assert_array_equal(F.matmul_rows_np(x[:rows], w), full[:rows])
            np.testing.assert_array_equal(F.matmul_rows_np(x[:rows], w, out=buf), full[:rows])

    @pytest.mark.parametrize("rows", [3, 5, 9, 31])
    def test_odd_row_count_matches_lone_rows(self, rows):
        """Every row of an odd-M call, the last one included, equals the
        lone-row call (the Haswell kernels send an odd gemm's last row
        through a one-row edge kernel)."""
        rng = np.random.default_rng(rows)
        x = rng.standard_normal((rows, 35))
        w = rng.standard_normal((35, 16))
        batch = F.matmul_rows_np(x, w)
        for i in range(rows):
            np.testing.assert_array_equal(batch[i], F.matmul_rows_np(x[i : i + 1], w)[0])

    def test_converts_other_dtypes_and_rejects_1d(self):
        x = np.ones((1, 8))
        w = np.ones((8, 8))
        np.testing.assert_array_equal(
            F.matmul_rows_np(x.astype(np.float32), w), F.matmul_rows_np(x, w)
        )
        with pytest.raises(ShapeError):
            F.matmul_rows_np(x[0], w, out=np.empty((1, 8)))
