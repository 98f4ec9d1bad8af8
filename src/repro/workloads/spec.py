"""Workload profile specifications.

A :class:`WorkloadProfile` captures the summarised characteristics the
paper collects from customer investigations: dominant IO sizes, the
read/write split, the overall intensity, its period and trend, and how
bursty the arrival process is.  A profile plus a random generator fully
determines a synthetic trace.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.errors import WorkloadError
from repro.storage.iorequest import NUM_IO_TYPES, standard_io_types

_NUM_SIZES = NUM_IO_TYPES // 2


@dataclass(frozen=True)
class IntensityModel:
    """Deterministic intensity (requests-per-interval multiplier) over time.

    ``level(t) = base * (1 + amplitude * sin(2*pi*t/period + phase)) + trend * t``
    clipped to be non-negative.  ``base`` is relative: 1.0 means the
    generator's calibrated nominal load.
    """

    base: float = 1.0
    amplitude: float = 0.0
    period: int = 24
    phase: float = 0.0
    trend: float = 0.0

    def __post_init__(self) -> None:
        if self.base <= 0:
            raise WorkloadError(f"intensity base must be positive, got {self.base}")
        if not 0.0 <= self.amplitude <= 1.0:
            raise WorkloadError(f"amplitude must be in [0, 1], got {self.amplitude}")
        if self.period <= 0:
            raise WorkloadError(f"period must be positive, got {self.period}")

    def level(self, t: int) -> float:
        value = self.base * (
            1.0 + self.amplitude * math.sin(2.0 * math.pi * t / self.period + self.phase)
        )
        value += self.trend * t
        return max(0.0, value)

    def levels(self, duration: int) -> np.ndarray:
        return np.array([self.level(t) for t in range(duration)])


@dataclass(frozen=True)
class WorkloadProfile:
    """A named business-model workload class (one Vdbench configuration).

    Attributes
    ----------
    name / description:
        Identification of the business model (e.g. ``"oltp_database"``).
    read_fraction:
        Fraction of requests that are reads.
    read_size_weights / write_size_weights:
        Unnormalised weights over the 7 block sizes
        (4K, 8K, 16K, 32K, 64K, 128K, 256K) for reads and writes.
    intensity:
        The :class:`IntensityModel` describing load over time.
    burstiness:
        Multiplicative lognormal noise sigma applied per interval.
    mix_jitter:
        Dirichlet-style jitter applied to the IO mix each interval so the
        ratio vector is not constant over the trace.
    default_duration:
        Default number of intervals (``T``) for a standard trace.
    """

    name: str
    description: str
    read_fraction: float
    read_size_weights: Sequence[float]
    write_size_weights: Sequence[float]
    intensity: IntensityModel = field(default_factory=IntensityModel)
    burstiness: float = 0.1
    mix_jitter: float = 0.05
    default_duration: int = 96

    def __post_init__(self) -> None:
        if not self.name:
            raise WorkloadError("profile name must be non-empty")
        if not 0.0 <= self.read_fraction <= 1.0:
            raise WorkloadError(
                f"read_fraction must be in [0, 1], got {self.read_fraction}"
            )
        for attr in ("read_size_weights", "write_size_weights"):
            weights = np.asarray(getattr(self, attr), dtype=float)
            if weights.shape != (_NUM_SIZES,):
                raise WorkloadError(
                    f"{attr} must have {_NUM_SIZES} entries, got shape {weights.shape}"
                )
            if np.any(weights < 0) or weights.sum() <= 0:
                raise WorkloadError(f"{attr} must be non-negative with a positive sum")
        if self.burstiness < 0:
            raise WorkloadError(f"burstiness must be non-negative, got {self.burstiness}")
        if self.mix_jitter < 0:
            raise WorkloadError(f"mix_jitter must be non-negative, got {self.mix_jitter}")
        if self.default_duration <= 0:
            raise WorkloadError(
                f"default_duration must be positive, got {self.default_duration}"
            )

    # ------------------------------------------------------------------
    # Derived quantities
    # ------------------------------------------------------------------
    def base_ratios(self) -> np.ndarray:
        """The mean ``I`` vector over the 14 IO types implied by the profile."""
        read_weights = np.asarray(self.read_size_weights, dtype=float)
        write_weights = np.asarray(self.write_size_weights, dtype=float)
        read_part = self.read_fraction * read_weights / read_weights.sum()
        write_part = (1.0 - self.read_fraction) * write_weights / write_weights.sum()
        ratios = np.concatenate([read_part, write_part])
        total = ratios.sum()
        if total <= 0:
            raise WorkloadError(f"profile {self.name} produces an empty IO mix")
        return ratios / total

    def mean_request_size_kb(self) -> float:
        """Expected request size in KB under the base mix."""
        sizes = np.array([t.size_kb for t in standard_io_types()])
        return float((self.base_ratios() * sizes).sum())

    def write_byte_fraction(self) -> float:
        """Fraction of IO *bytes* (not requests) that are writes."""
        sizes = np.array([t.size_kb for t in standard_io_types()])
        kinds = np.array([t.is_write for t in standard_io_types()])
        ratios = self.base_ratios()
        total = float((ratios * sizes).sum())
        write = float((ratios * sizes * kinds).sum())
        return write / total if total > 0 else 0.0
