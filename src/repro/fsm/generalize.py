"""Generalisation to unseen observations (paper Section 3.2.2, second method).

The extracted FSM only knows the observation codes it saw during
extraction.  At deployment time an unseen observation is classified as
its closest known observation — "the state space has a certain
continuity and similar observations could trigger similar actions" —
by Euclidean distance over the (continuous, normalised) observation
vectors.  The candidates are the machine's own prototype table,
``FiniteStateMachine.observation_prototypes`` in insertion order; the
interpreted agent and the compiled tables both resolve through
:func:`nearest_prototype_rows` over it, so they fall back identically.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.errors import ExtractionError

# The certified filter of :func:`nearest_prototype_rows`; its docstring
# derives the margins.
_CERTIFY_RELATIVE_MARGIN = 1e-9
_CERTIFY_ABSOLUTE_MARGIN = 1e-300
_CERTIFY_MAX_SCALE = 1e300
# Below this many difference-tensor elements the reference is cheaper
# than the filter's fixed ~15 numpy dispatches (16 rows x 12 x 35).
_FILTER_MIN_ELEMENTS = 8192


def _reference_nearest(matrix: np.ndarray, vectors: np.ndarray) -> np.ndarray:
    """The specification: argmin over rounded euclidean distances."""
    diffs = matrix[None, :, :] - vectors[:, None, :]
    distances = np.sqrt((diffs * diffs).sum(axis=-1))
    return distances.argmin(axis=1)


def _certified_nearest(
    matrix: np.ndarray, vectors: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """``(best, certified)`` from one gemm over expanded scores.

    ``best[i]`` is the argmin of ``|p|^2 - 2 x_i.p``; ``certified[i]``
    says its lead over the runner-up clears the margins, so the
    reference is bound to agree.  Every comparison reads False for NaN,
    so rows that overflowed or hold NaN/inf come back uncertified.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        prototype_norms = np.einsum("ij,ij->i", matrix, matrix)
        scores = vectors @ matrix.T
        scores *= -2.0
        scores += prototype_norms
        best = scores.argmin(axis=1)
        rows = np.arange(vectors.shape[0])
        lead = scores[rows, best]
        scores[rows, best] = np.inf
        gap = scores.min(axis=1) - lead
        scale = np.einsum("ij,ij->i", vectors, vectors) + prototype_norms.max()
        certified = (
            gap > _CERTIFY_RELATIVE_MARGIN * scale + _CERTIFY_ABSOLUTE_MARGIN
        ) & (scale < _CERTIFY_MAX_SCALE)
    return best, certified


def nearest_prototype_rows(matrix: np.ndarray, vectors: np.ndarray) -> np.ndarray:
    """Row indices of the prototypes in ``matrix`` closest to each vector.

    The one nearest-prototype resolution shared by the interpreted
    :class:`repro.fsm.agent.FSMPolicyAgent` and the batched serving fast
    path (:class:`repro.engine.compiled_fsm.CompiledFSMPolicy`), so both
    layers fall back to *identical* prototypes for unseen observations.

    **Specification**: :func:`_reference_nearest` — the
    ``(n, P, D)`` difference tensor, squared, summed over the fixed-length
    feature axis, square-rooted, ``argmin`` with ties to the lowest row.
    Row ``i`` of it is bit-identical to resolving ``vectors[i]`` alone.

    **Certified filter.**  The tensor costs ``n * P * D`` elements three
    times over; one gemm gives the expanded scores ``s_j = |p_j|^2 -
    2 x.p_j`` (the squared distance less ``|x|^2``, which does not move
    the argmin).  A row is answered from the scores only when its best
    and second-best score differ by more than ``1e-9 * S + 1e-300``,
    ``S = |x|^2 + max_j |p_j|^2 < 1e300``; every other row — near and
    exact ties, NaN/inf, overflow — re-runs the specification.  The
    result is an *index*, so neither the BLAS route nor the batch size
    can leak into it.  With ``u = 2^-53`` and D features:

    * gemm scores: a length-D dot product and a length-D sum of squares
      are each within ``(D + 1) u`` of exact relative to the sum of their
      absolute terms, in any summation order, with or without FMA; those
      sums are at most ``2 |x| |p_j| <= S`` and ``|p_j|^2 <= S``, and the
      final add rounds once more, so ``|computed s_j - s_j| <= 2 (D + 3)
      u S``.  A computed gap above ``1e-9 S`` is a true gap above
      ``(1e-9 - 4 (D + 3) u) S``.
    * the reference: each squared distance is at most ``2 S`` and is
      computed within ``(D + 3) u`` relative (subtract, square, sum), an
      error of at most ``2 (D + 3) u S`` a side; its comparison of two
      prototypes is therefore right whenever the true squared distances
      differ by more than ``4 (D + 3) u S ~ 160 u S`` at D = 35.  The
      square roots stay apart after rounding: they differ by the gap
      over their sum, relatively at least ``1e-9 S / (4 S) = 2.5e-10``,
      six orders above ``u``.

    At D = 35 both bounds are ``1.7e-14 S``: the relative margin sits five
    orders above them and holds for any width below ``10^5``.  The
    absolute margin covers underflow, where products lose absolute, not
    relative, accuracy (at most ``2^-1074`` each, ``D`` of them: twenty
    orders below ``1e-300``); the cap on ``S`` keeps the reference's own
    squared distances (``<= 2 S``) finite, since two that overflow tie at
    ``inf`` and break to the lowest row whatever the scores say.
    Batches too small to repay the filter's fixed cost go straight to
    the specification — a cost choice, not a mode.
    """
    matrix = np.asarray(matrix, dtype=float)
    vectors = np.asarray(vectors, dtype=float)
    if vectors.ndim == 1:
        vectors = vectors[None, :]
    if (
        matrix.ndim != 2
        or vectors.ndim != 2
        or matrix.shape[0] == 0
        or matrix.shape[1] != vectors.shape[1]
    ):
        raise ExtractionError(
            f"need a (P >= 1, D) prototype matrix and (n, D) vectors, "
            f"got {matrix.shape} and {vectors.shape}"
        )
    if matrix.shape[0] == 1:
        return np.zeros(vectors.shape[0], dtype=np.int64)
    if vectors.shape[0] * matrix.size < _FILTER_MIN_ELEMENTS:
        return _reference_nearest(matrix, vectors)
    best, certified = _certified_nearest(matrix, vectors)
    unsure = np.nonzero(~certified)[0]
    if unsure.size:
        best[unsure] = _reference_nearest(matrix, vectors[unsure])
    return best
