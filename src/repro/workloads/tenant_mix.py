"""Skewed tenant-to-profile assignment for fleet-scale load.

Real storage fleets are not uniform over workload classes: a few
business models (databases, VDI) dominate the tenant population while
the rest form a long tail.  :class:`ZipfianTenantMix` models that as a
Zipf distribution over an ordered list of workload profiles — rank
``r`` (1-based) gets weight ``1 / r**skew`` — and turns uniform draws
into profile assignments by inverse-CDF lookup, so the assignment is a
pure function of the draw and the mix is byte-deterministic under any
counter-based rng.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

import numpy as np

from repro.errors import ConfigurationError

__all__ = ["ZipfianTenantMix"]


class ZipfianTenantMix:
    """Zipf-weighted choice over an ordered profile list.

    ``skew=0`` degenerates to the uniform mix; larger skews concentrate
    the fleet on the first profiles in ``profiles`` (order is rank).
    """

    def __init__(self, profiles: Sequence[str], skew: float = 1.0) -> None:
        self.profiles: List[str] = [str(name) for name in profiles]
        if not self.profiles:
            raise ConfigurationError("tenant mix needs at least one profile")
        if len(set(self.profiles)) != len(self.profiles):
            raise ConfigurationError("tenant mix profiles must be distinct")
        if skew < 0:
            raise ConfigurationError("zipf skew must be non-negative")
        self.skew = float(skew)
        ranks = np.arange(1, len(self.profiles) + 1, dtype=float)
        weights = ranks ** (-self.skew)
        self._cdf = np.cumsum(weights / weights.sum())
        self._cdf[-1] = 1.0  # guard the top edge against fp round-off

    def assign_indices(self, uniforms: np.ndarray) -> np.ndarray:
        """Profile *indices* for draws in [0, 1) (inverse-CDF lookup)."""
        draws = np.asarray(uniforms, dtype=float)
        if draws.size and (draws.min() < 0.0 or draws.max() >= 1.0):
            raise ConfigurationError("tenant-mix draws must lie in [0, 1)")
        return np.searchsorted(self._cdf, draws, side="right").astype(np.int64)

    def as_dict(self) -> Dict[str, object]:
        return {"profiles": list(self.profiles), "skew": self.skew}
