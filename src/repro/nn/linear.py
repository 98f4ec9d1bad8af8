"""Fully connected layer, and the matmul route the fused layers share.

A :class:`Linear` is one autograd node: its backward sums into ``bias``,
then the input, then ``weight`` — the order the nodes of ``x @ W + b``
run in — so a trained weight has the same bits as one trained op by op
(``tests/test_nn_modules.py::TestFusedLinearBitwise`` holds the oracle).
"""

from __future__ import annotations

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


def matmul_backward(a: Tensor, w: Tensor, grad: np.ndarray) -> None:
    """The backward of the node ``a @ w``: sum into ``a``, then into ``w``.

    The float operations are :meth:`Tensor.matmul`'s, except that a 1-d
    ``a`` takes its rank-1 weight gradient as a broadcast product: every
    entry is the single product ``a[i] * grad[j]`` either way (a K = 1
    gemm has nothing to sum), differing at most in the sign of a zero.
    """
    a_data, w_data = a.data, w.data
    if a_data.ndim == 1:
        if a.requires_grad:
            a._accumulate((grad.reshape(1, -1) @ w_data.T).reshape(a_data.shape))
        if w.requires_grad:
            w._accumulate(a_data[:, None] * grad)
        return
    if a.requires_grad:
        a._accumulate(grad @ w_data.T)
    if w.requires_grad:
        w._accumulate(a_data.swapaxes(-1, -2) @ grad)


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
