"""Functional operations built on :class:`~repro.autograd.tensor.Tensor`.

These are composite, numerically-stabilised operations used by the
neural-network and training code: softmax, log-softmax, cross-entropy,
mean-squared error and categorical entropy.
"""

from __future__ import annotations

from typing import Optional, Sequence, Union

import numpy as np

from repro.autograd.tensor import Tensor
from repro.errors import ShapeError

ArrayLike = Union[Sequence, np.ndarray, Tensor]


def _ensure_tensor(value: ArrayLike) -> Tensor:
    return value if isinstance(value, Tensor) else Tensor(value)


def softmax(logits: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable softmax along ``axis``."""
    logits = _ensure_tensor(logits)
    shifted = logits - Tensor(logits.data.max(axis=axis, keepdims=True))
    exp = shifted.exp()
    return exp / exp.sum(axis=axis, keepdims=True)


def log_softmax(logits: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable log-softmax along ``axis``."""
    logits = _ensure_tensor(logits)
    shifted = logits - Tensor(logits.data.max(axis=axis, keepdims=True))
    log_norm = shifted.exp().sum(axis=axis, keepdims=True).log()
    return shifted - log_norm


def cross_entropy(logits: Tensor, targets: ArrayLike) -> Tensor:
    """Mean cross-entropy between ``logits`` (N, C) and integer ``targets`` (N,)."""
    logits = _ensure_tensor(logits)
    if logits.ndim != 2:
        raise ShapeError(f"cross_entropy expects (N, C) logits, got shape {logits.shape}")
    target_idx = np.asarray(targets if not isinstance(targets, Tensor) else targets.data)
    target_idx = target_idx.astype(int).reshape(-1)
    if target_idx.shape[0] != logits.shape[0]:
        raise ShapeError(
            f"targets length {target_idx.shape[0]} does not match batch {logits.shape[0]}"
        )
    logp = log_softmax(logits, axis=-1)
    rows = np.arange(logits.shape[0])
    picked = logp[rows, target_idx]
    return -picked.mean()


def nll_of_actions(log_probs: Tensor, actions: ArrayLike) -> Tensor:
    """Per-sample negative log-likelihood of chosen ``actions`` given (N, C) log-probs."""
    log_probs = _ensure_tensor(log_probs)
    idx = np.asarray(actions if not isinstance(actions, Tensor) else actions.data).astype(int).reshape(-1)
    rows = np.arange(log_probs.shape[0])
    return -log_probs[rows, idx]


def mse_loss(prediction: Tensor, target: ArrayLike) -> Tensor:
    """Mean squared error between ``prediction`` and ``target`` (one node).

    The value and gradient are those of ``((prediction - target) ** 2)
    .mean()`` built op by op: ``(d * d).sum() * (1.0 / N)``, and
    ``c * d + c * d`` with ``c = grad * (1.0 / N)``, the two terms the
    square's node sums.
    """
    prediction = _ensure_tensor(prediction)
    diff = prediction.data - _ensure_tensor(target).data
    inverse_size = 1.0 / diff.size
    data = (diff * diff).sum() * inverse_size

    def backward(grad: np.ndarray) -> None:
        term = (grad * inverse_size) * diff
        prediction._adopt(term + term)

    return Tensor._make(data, (prediction,), backward)


def entropy(probabilities: Tensor, axis: int = -1, eps: float = 1e-12) -> Tensor:
    """Mean categorical entropy of a probability tensor along ``axis``."""
    probabilities = _ensure_tensor(probabilities)
    clipped = probabilities.clip(eps, 1.0)
    per_row = -(probabilities * clipped.log()).sum(axis=axis)
    return per_row.mean()


# ----------------------------------------------------------------------
# Batched numpy inference kernels (no autograd graph)
# ----------------------------------------------------------------------
_GEMM_MIN_COLS = 7


def matmul_rows_np(
    x: np.ndarray, w: np.ndarray, out: Optional[np.ndarray] = None
) -> np.ndarray:
    """Row-batched ``x @ w`` whose rows do not depend on the batch size.

    This is the one place that knows which BLAS route is row-stable;
    every numpy inference forward (GRU gates, policy logits, the
    compiled FSM's encoder) calls it instead of inlining the decision.
    ``out`` is an optional (M, N) float64 buffer the product is written
    into and returned (hot paths reuse theirs across calls); float64
    operands pass through without a copy.  A ``(S, K, N)`` stack of
    weights gives the ``(S, M, N)`` stack of products, each element the
    bytes of its own 2-d call: numpy's matmul makes the same BLAS call
    for every stack element, and the einsum route runs per element.

    BLAS picks different kernels (gemv, small-matrix paths, blocked gemm)
    depending on the operand shapes, and those kernels accumulate in
    different orders — so ``x[i] @ w`` is generally *not* bit-identical
    to ``(x @ w)[i]``.  Two batch-size-stable routes are used instead:

    * for reasonably wide outputs (N >= ``_GEMM_MIN_COLS``) the gemm
      kernel computes every row independently while no row falls to a
      one-row edge kernel, which rounds differently under some OpenBLAS
      kernel families (Haswell) — so gemm only ever sees an even row
      count: an odd M runs its first M - 1 rows as one gemm and its last
      row padded to two and sliced back, as a lone row is;
    * for skinny outputs (N <= 2 observed unstable: BLAS switches to a
      gemv-like path whose accumulation depends on M) ``einsum`` is used,
      which reduces the contraction axis in a fixed sequential order for
      every output element regardless of batch size.

    The rollout equivalence tests (one lockstep batch vs each episode
    alone, an act_batch row vs that row alone) are the guard that this
    kernel split stays bit-stable on the host's BLAS.
    """
    x = np.asarray(x, dtype=np.float64)
    w = np.asarray(w, dtype=np.float64)
    if x.ndim != 2 or w.ndim not in (2, 3):
        raise ShapeError(
            f"matmul_rows_np expects a 2-d x and a 2-d w or stack of them, "
            f"got shapes {x.shape} / {w.shape}"
        )
    if w.shape[-1] < _GEMM_MIN_COLS:
        if w.ndim == 2:
            return np.einsum("ij,jk->ik", x, w, out=out)
        if out is None:
            out = np.empty((w.shape[0], x.shape[0], w.shape[2]))
        for weight, product in zip(w, out):
            np.einsum("ij,jk->ik", x, weight, out=product)
        return out
    rows = x.shape[0]
    if rows % 2 == 0:
        return np.matmul(x, w, out=out)
    if out is None:
        out = np.empty(w.shape[:-2] + (rows, w.shape[-1]))
    if rows > 1:
        np.matmul(x[:-1], w, out=out[..., :-1, :])
    out[..., -1, :] = (np.concatenate([x[-1:], x[-1:]]) @ w)[..., 0, :]
    return out


def log_softmax_np(logits: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically stable log-softmax on a plain array (batched, row-wise)."""
    logits = np.asarray(logits, dtype=np.float64)
    shifted = logits - logits.max(axis=axis, keepdims=True)
    log_norm = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
    return shifted - log_norm
