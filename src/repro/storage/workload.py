"""Workload model: per-interval IO mixes and whole traces.

A workload interval ``w(t)`` is the paper's Definition 1: a vector ``S``
of IO type descriptors (fixed by :func:`repro.storage.iorequest.standard_io_types`),
a vector ``I`` of mixing ratios that sums to one, and a scalar ``Q``
giving the total number of IO requests in the interval.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Sequence

import numpy as np

from repro.errors import WorkloadError
from repro.storage.iorequest import NUM_IO_TYPES, IORequestType, standard_io_types

_RATIO_TOLERANCE = 1e-6

# Immutable per-type constants shared by every interval.  These sit on the
# simulator's per-interval hot path, so they are materialised once instead
# of being rebuilt from the IORequestType objects on every call.
_IO_TYPES = tuple(standard_io_types())
_IO_SIZES_KB = np.array([t.size_kb for t in _IO_TYPES])
_IO_SIZES_KB.setflags(write=False)
_SIGNED_SIZES = np.array([t.signed_size for t in _IO_TYPES])
_SIGNED_SIZES.setflags(write=False)
_READ_INDICES = [t.index for t in _IO_TYPES if t.is_read]
_WRITE_INDICES = [t.index for t in _IO_TYPES if t.is_write]


@dataclass(frozen=True)
class WorkloadInterval:
    """IO mix arriving during one time interval.

    Attributes
    ----------
    ratios:
        The ``I`` vector — fraction of requests of each of the 14 types.
        Must be non-negative and sum to 1 (within tolerance).
    total_requests:
        The scalar ``Q`` — number of IO requests arriving in the interval.
    """

    ratios: np.ndarray
    total_requests: float

    def __post_init__(self) -> None:
        ratios = np.asarray(self.ratios, dtype=float)
        if ratios.shape != (NUM_IO_TYPES,):
            raise WorkloadError(
                f"ratios must have shape ({NUM_IO_TYPES},), got {ratios.shape}"
            )
        total = float(ratios.sum())
        if not math.isfinite(total):
            raise WorkloadError(f"ratios must be finite, got {ratios.tolist()}")
        low = ratios.min()
        if low < -_RATIO_TOLERANCE:
            raise WorkloadError("ratios must be non-negative")
        if abs(total - 1.0) > 1e-3:
            raise WorkloadError(f"ratios must sum to 1, got {total:.6f}")
        requests = float(self.total_requests)
        if not 0.0 <= requests < math.inf:
            raise WorkloadError(
                f"total_requests must be finite and non-negative, got {self.total_requests}"
            )
        # Normalise exactly: clip at +0.0, then divide by the clipped sum.
        # On non-negative entries the clip only turns -0.0 into +0.0.
        if low >= 0.0:
            normalised = ratios + 0.0
        else:
            normalised = np.clip(ratios, 0.0, None)
            total = float(normalised.sum())
        normalised /= total
        normalised.setflags(write=False)
        object.__setattr__(self, "ratios", normalised)
        object.__setattr__(self, "total_requests", requests)

    # ------------------------------------------------------------------
    # Derived quantities
    # ------------------------------------------------------------------
    def request_counts(self, io_types: Optional[Sequence[IORequestType]] = None) -> np.ndarray:
        """Expected number of requests of each type in this interval."""
        return self.ratios * self.total_requests

    def bytes_by_type(self, io_types: Optional[Sequence[IORequestType]] = None) -> np.ndarray:
        """Expected kilobytes of IO of each type in this interval."""
        if io_types is None:
            return self.request_counts() * _IO_SIZES_KB
        sizes = np.array([t.size_kb for t in io_types])
        return self.request_counts() * sizes

    def total_kb(self) -> float:
        """Total expected kilobytes across all types."""
        return self._derived()["total_kb"]

    def read_kb(self) -> float:
        return self._derived()["read_kb"]

    def write_kb(self) -> float:
        return self._derived()["write_kb"]

    def _derived(self) -> Dict[str, float]:
        """Lazily computed per-interval totals.

        The interval is frozen, so these values never change once
        computed; the simulator asks for them several times per step.
        """
        cache = getattr(self, "_derived_cache", None)
        if cache is None:
            per_type = self.bytes_by_type()
            values = per_type.tolist()
            # Plain left-to-right Python sums in type-index order — the
            # same accumulation the original per-call implementation
            # performed, minus the numpy-scalar boxing.
            cache = {
                "total_kb": float(per_type.sum()),
                "read_kb": float(sum(values[i] for i in _READ_INDICES)),
                "write_kb": float(sum(values[i] for i in _WRITE_INDICES)),
            }
            object.__setattr__(self, "_derived_cache", cache)
        return cache

    def write_fraction(self) -> float:
        """Fraction of IO bytes that are writes (0 when the interval is empty)."""
        total = self.total_kb()
        if total <= 0:
            return 0.0
        return self.write_kb() / total

    def size_vector(self) -> np.ndarray:
        """The paper's ``S`` vector: signed sizes (+read / -write) of the 14 types.

        The vector is identical for every interval, so a shared read-only
        array is returned instead of a fresh allocation per call.
        """
        return _SIGNED_SIZES

    def as_feature_vector(self) -> np.ndarray:
        """Concatenate S, I and Q into the 29-value workload descriptor."""
        return np.concatenate([self.size_vector(), self.ratios, [self.total_requests]])

    def scaled(self, factor: float) -> "WorkloadInterval":
        """Return a copy with the request count scaled by ``factor``."""
        if factor < 0:
            raise WorkloadError(f"scale factor must be non-negative, got {factor}")
        return WorkloadInterval(self.ratios.copy(), self.total_requests * factor)

    @staticmethod
    def empty() -> "WorkloadInterval":
        """An interval with no arriving IO (uniform ratios, zero requests).

        Intervals are immutable, so one shared instance serves every
        caller (the simulator asks for it once per drain interval).
        """
        return _EMPTY_INTERVAL


_EMPTY_INTERVAL = WorkloadInterval(np.full(NUM_IO_TYPES, 1.0 / NUM_IO_TYPES), 0.0)


@dataclass
class WorkloadTrace:
    """A named sequence of workload intervals.

    ``metadata`` carries provenance (profile name, generator parameters,
    snippet boundaries for sampled "real" traces, …).
    """

    name: str
    intervals: List[WorkloadInterval] = field(default_factory=list)
    metadata: Dict[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.name:
            raise WorkloadError("trace name must be non-empty")
        self.intervals = list(self.intervals)

    def __len__(self) -> int:
        return len(self.intervals)

    def __iter__(self) -> Iterator[WorkloadInterval]:
        return iter(self.intervals)

    def __getitem__(self, index: int) -> WorkloadInterval:
        return self.intervals[index]

    @property
    def duration(self) -> int:
        """Number of intervals with arriving IO (the paper's ``T``)."""
        return len(self.intervals)

    def append(self, interval: WorkloadInterval) -> None:
        if not isinstance(interval, WorkloadInterval):
            raise WorkloadError(f"expected WorkloadInterval, got {type(interval)!r}")
        self.intervals.append(interval)

    def total_kb(self) -> float:
        return float(sum(interval.total_kb() for interval in self.intervals))

    def total_requests(self) -> float:
        return float(sum(interval.total_requests for interval in self.intervals))

    def mean_write_fraction(self) -> float:
        if not self.intervals:
            return 0.0
        return float(np.mean([interval.write_fraction() for interval in self.intervals]))

    def slice(self, start: int, stop: int, name: Optional[str] = None) -> "WorkloadTrace":
        """Return a sub-trace covering intervals ``[start, stop)``."""
        if not 0 <= start <= stop <= len(self.intervals):
            raise WorkloadError(
                f"invalid slice [{start}, {stop}) for trace of length {len(self.intervals)}"
            )
        return WorkloadTrace(
            name=name or f"{self.name}[{start}:{stop}]",
            intervals=[self.intervals[i] for i in range(start, stop)],
            metadata={**self.metadata, "sliced_from": self.name, "slice": (start, stop)},
        )

    @staticmethod
    def concatenate(traces: Iterable["WorkloadTrace"], name: str) -> "WorkloadTrace":
        """Concatenate several traces end to end."""
        traces = list(traces)
        if not traces:
            raise WorkloadError("cannot concatenate an empty list of traces")
        intervals: List[WorkloadInterval] = []
        sources: List[str] = []
        for trace in traces:
            intervals.extend(trace.intervals)
            sources.append(trace.name)
        return WorkloadTrace(name=name, intervals=intervals, metadata={"sources": sources})
