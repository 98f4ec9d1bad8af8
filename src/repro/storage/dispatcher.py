"""Polling (round-robin) dispatch of IO work onto heterogeneous cores.

The paper states that IO requests are assigned to cores "in a polling
manner" (Section 2, property 1) and that there is no work stealing: a
request queued on a slow core (e.g. one paying a migration penalty)
stays there.  The dispatcher therefore splits an interval's pending work
evenly across the level's cores and lets each core process at most its
own effective capacity.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.errors import SimulationError


@dataclass(frozen=True)
class DispatchResult:
    """Outcome of dispatching one level's work for one interval."""

    assigned_kb: np.ndarray
    processed_kb: np.ndarray
    capacity_kb: np.ndarray

    @property
    def total_processed(self) -> float:
        return float(self.processed_kb.sum())

    @property
    def total_capacity(self) -> float:
        return float(self.capacity_kb.sum())

    @property
    def leftover_kb(self) -> float:
        return float((self.assigned_kb - self.processed_kb).sum())

    @property
    def utilization(self) -> float:
        """Fraction of the level's capacity actually used this interval."""
        capacity = self.total_capacity
        if capacity <= 0:
            return 0.0
        return min(1.0, self.total_processed / capacity)

    @property
    def per_core_utilization(self) -> np.ndarray:
        with np.errstate(divide="ignore", invalid="ignore"):
            util = np.where(self.capacity_kb > 0, self.processed_kb / self.capacity_kb, 0.0)
        return np.clip(util, 0.0, 1.0)


def polling_dispatch(pending_kb: float, core_capacities_kb: Sequence[float]) -> DispatchResult:
    """Split ``pending_kb`` evenly over cores and process within each core's capacity.

    Round-robin assignment of many small requests is well approximated by
    an even split of bytes; the important property preserved here is that
    work assigned to a core with reduced capacity is *not* redistributed.
    """
    capacities = np.asarray(core_capacities_kb, dtype=float)
    if capacities.ndim != 1 or capacities.size == 0:
        raise SimulationError("polling_dispatch requires at least one core capacity")
    if np.any(capacities < 0):
        raise SimulationError("core capacities must be non-negative")
    if pending_kb < 0:
        raise SimulationError(f"pending work must be non-negative, got {pending_kb}")

    assigned = np.full(capacities.size, pending_kb / capacities.size)
    processed = np.minimum(assigned, capacities)
    return DispatchResult(assigned_kb=assigned, processed_kb=processed, capacity_kb=capacities)


def proportional_dispatch(pending_kb: float, core_capacities_kb: Sequence[float]) -> DispatchResult:
    """Alternative dispatcher that assigns work proportionally to capacity.

    Used by ablation benchmarks to quantify how much of the migration
    penalty comes from polling's inability to route around slow cores.
    """
    capacities = np.asarray(core_capacities_kb, dtype=float)
    if capacities.ndim != 1 or capacities.size == 0:
        raise SimulationError("proportional_dispatch requires at least one core capacity")
    total_capacity = capacities.sum()
    if total_capacity <= 0:
        assigned = np.zeros_like(capacities)
    else:
        assigned = pending_kb * capacities / total_capacity
    processed = np.minimum(assigned, capacities)
    return DispatchResult(assigned_kb=assigned, processed_kb=processed, capacity_kb=capacities)


# ----------------------------------------------------------------------
# Array-form reductions (struct-of-arrays simulator core)
# ----------------------------------------------------------------------
#: Largest row length :func:`pairwise_sum_ragged` reproduces; numpy's
#: pairwise summation switches to recursive splitting above this block
#: size (``PW_BLOCKSIZE``), which the column-accumulate model does not
#: cover.  Callers with longer rows must fall back to per-row ``sum()``.
PAIRWISE_MAX_LENGTH = 128


def pairwise_sum_ragged(values: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Per-cell ``values[..., :lengths[...]].sum()`` for ragged rows.

    ``values`` is ``(..., n_max)`` with ``0 <= lengths <= n_max``; cell
    ``c`` of the result is bit-identical to ``values[c, :lengths[c]].sum()``
    — the function replays numpy's pairwise summation order for every
    row length at once (a plain left-to-right accumulation below 8
    elements, the 8-accumulator unrolled tree with a sequential tail up
    to :data:`PAIRWISE_MAX_LENGTH`) using one masked column pass.
    Columns at and beyond a cell's length may hold arbitrary finite
    garbage; they never reach an accumulation.

    This is the **executable specification** of the summation-order
    model that the native simulator step (``pairwise_sum`` in
    ``_sim_kernel.c``) inlines for its hot path:
    ``tests/test_vector_state.py`` pins this function against per-row
    ``sum()`` across lengths, so a numpy
    upgrade that changes the pairwise internals fails here loudly
    instead of silently drifting a golden trace.
    """
    n_max = values.shape[-1]
    if n_max > PAIRWISE_MAX_LENGTH:
        raise SimulationError(
            f"pairwise_sum_ragged supports rows up to {PAIRWISE_MAX_LENGTH}, got {n_max}"
        )
    # Left-to-right accumulation: exact for lengths < 8.
    small = np.zeros(values.shape[:-1])
    for j in range(min(n_max, 7)):
        small = small + np.where(j < lengths, values[..., j], 0.0)
    if n_max < 8:
        return small
    # 8-accumulator unrolled path for lengths >= 8: full blocks of 8
    # accumulate r[j] += a[8k + j], the eight accumulators combine as a
    # balanced tree, and the non-multiple-of-8 tail adds sequentially.
    full_blocks = lengths - lengths % 8
    accumulators = [np.array(values[..., j]) for j in range(8)]
    for base in range(8, n_max - 7, 8):
        include = base + 8 <= full_blocks
        for j in range(8):
            accumulators[j] = accumulators[j] + np.where(
                include, values[..., base + j], 0.0
            )
    big = (
        (accumulators[0] + accumulators[1]) + (accumulators[2] + accumulators[3])
    ) + ((accumulators[4] + accumulators[5]) + (accumulators[6] + accumulators[7]))
    for j in range(8, n_max):
        big = big + np.where((full_blocks <= j) & (j < lengths), values[..., j], 0.0)
    return np.where(lengths < 8, small, big)


DISPATCHERS = {
    "polling": polling_dispatch,
    "proportional": proportional_dispatch,
}


def get_dispatcher(name: str):
    """Look up a dispatcher by name (``"polling"`` or ``"proportional"``)."""
    try:
        return DISPATCHERS[name]
    except KeyError as exc:
        raise SimulationError(
            f"unknown dispatcher {name!r}; available: {sorted(DISPATCHERS)}"
        ) from exc
