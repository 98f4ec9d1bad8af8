"""Fully connected layer, and the matmul route the fused layers share.

A :class:`Linear` is one autograd node: its backward sums into ``bias``,
then the input, then ``weight`` — the order the nodes of ``x @ W + b``
run in — so a trained weight has the same bits as one trained op by op
(``tests/test_nn_modules.py::TestFusedLinearBitwise`` holds the oracle).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.autograd.functional import matmul_rows_np
from repro.autograd.tensor import Tensor
from repro.errors import ShapeError
from repro.nn import init
from repro.nn.module import Module, Parameter
from repro.utils.rng import SeedLike, new_rng


def matmul_np(a: np.ndarray, w: np.ndarray) -> np.ndarray:
    """``a @ w`` for a 2-d ``w``, on the route :meth:`Tensor.matmul` takes."""
    if a.ndim == 1:
        return matmul_rows_np(a.reshape(1, -1), w)[0]
    return a @ w


def input_grad(grad: np.ndarray, w: np.ndarray) -> np.ndarray:
    """``grad @ w.T``, the gradient of ``a`` in ``a @ w``, on :meth:`Tensor.matmul`'s
    route: a 1-d row as a (1, n) matrix, so M = 1 stays on BLAS's gemv."""
    if grad.ndim == 1:
        return (grad.reshape(1, -1) @ w.T).reshape(-1)
    return grad @ w.T


def matmul_backward(a: Tensor, w: Tensor, grad: np.ndarray) -> None:
    """The backward of the node ``a @ w``: sum into ``a``, then into ``w``.

    The float operations are :meth:`Tensor.matmul`'s, except that a 1-d
    ``a`` takes its rank-1 weight gradient as a broadcast product: every
    entry is the single product ``a[i] * grad[j]`` either way (a K = 1
    gemm has nothing to sum), differing at most in the sign of a zero.
    """
    if a.requires_grad:
        a._accumulate(input_grad(grad, w.data))
    if w.requires_grad:
        w._accumulate(weight_grad(a.data, grad))


def weight_grad(a: np.ndarray, grad: np.ndarray) -> np.ndarray:
    """The gradient of ``w`` in ``a @ w``, as :func:`matmul_backward` forms it."""
    return a[:, None] * grad if a.ndim == 1 else a.swapaxes(-1, -2) @ grad


def matmul_steps(rows: np.ndarray, w: np.ndarray) -> np.ndarray:
    """``rows[t] @ w`` for every step ``t``, each on the route its own node takes.

    1-d steps are one :func:`matmul_rows_np` call, whose rows equal the
    lone-row call a single step makes.  A ``(B, n)`` step keeps its own
    ``@``.
    """
    if rows.ndim == 3:
        return np.stack([step @ w for step in rows])
    return matmul_rows_np(rows, w)


def accumulate_steps(param: Tensor, grads: np.ndarray, rows: Optional[np.ndarray] = None) -> None:
    """Sum one term per step into ``param.grad``, step 0 first.

    The term is ``grads[k]`` (a bias) or ``rows[k]`` transposed times
    ``grads[k]`` (a weight), as :class:`Linear`'s backward forms it.  For
    1-d steps every entry of a term is a single product, so all terms are
    formed at once and added by one axis-0 sum, which adds its rows first
    to last; a ``(B, n)`` step keeps its own K = B gemm and accumulation.
    """
    if not param.requires_grad:
        return
    if grads.ndim > 2:
        for k, grad in enumerate(grads):
            param._accumulate(grad if rows is None else rows[k].T @ grad)
        return
    terms = grads if rows is None else rows[:, :, None] * grads[:, None, :]
    if param.grad is not None:
        terms = np.concatenate((param.grad[None], terms))
    # numpy sums a column of single elements pairwise; a running sum keeps the order.
    param.grad = terms.sum(axis=0) if terms[0].size > 1 else np.add.accumulate(terms)[-1]


class Linear(Module):
    """Affine transform ``y = x W + b`` for row-major inputs of shape (N, in) or (in,)."""

    def __init__(
        self,
        in_features: int,
        out_features: int,
        bias: bool = True,
        rng: SeedLike = None,
    ) -> None:
        super().__init__()
        if in_features <= 0 or out_features <= 0:
            raise ShapeError(
                f"Linear requires positive sizes, got in={in_features}, out={out_features}"
            )
        rng = new_rng(rng)
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(init.xavier_uniform((in_features, out_features), rng), name="weight")
        self.bias = Parameter(init.zeros(out_features), name="bias") if bias else None

    def forward(self, x: Tensor) -> Tensor:
        if not isinstance(x, Tensor):
            x = Tensor(x)
        if x.shape[-1] != self.in_features:
            raise ShapeError(
                f"Linear expected last dim {self.in_features}, got input shape {x.shape}"
            )
        weight, bias = self.weight, self.bias
        data = matmul_np(x.data, weight.data)
        if bias is not None:
            data = data + bias.data

        def backward(grad: np.ndarray) -> None:
            if bias is not None and bias.requires_grad:
                bias._accumulate(grad)
            matmul_backward(x, weight, grad)

        parents = (x, weight) if bias is None else (x, weight, bias)
        return Tensor._make(data, parents, backward)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Linear(in={self.in_features}, out={self.out_features}, bias={self.bias is not None})"
