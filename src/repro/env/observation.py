"""Observation construction and normalisation.

The paper defines the observation at interval ``t`` as

    o_t = [c_N, c_K, c_R, u_N, u_K, u_R, w(t), Q_w(t)]

where ``w(t)`` contributes the 14-dim signed-size vector ``S`` and the
14-dim mixing-ratio vector ``I``.  The raw observation therefore has
3 + 3 + 14 + 14 + 1 = 35 entries.  A normalised variant (all features in
roughly [-1, 1]) is what the neural networks and the FSM's
nearest-prototype fallback consume.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

import numpy as np

from repro.errors import EnvironmentError_
from repro.storage.iorequest import NUM_IO_TYPES, standard_io_types
from repro.storage.levels import LEVELS, Level
from repro.storage.simulator import StorageSystemConfig
from repro.storage.workload import WorkloadInterval

OBSERVATION_DIM = 3 + 3 + NUM_IO_TYPES + NUM_IO_TYPES + 1


@dataclass(frozen=True)
class Observation:
    """One environment observation in both raw and normalised forms."""

    core_counts: np.ndarray
    utilization: np.ndarray
    size_vector: np.ndarray
    ratio_vector: np.ndarray
    total_requests: float

    def raw(self) -> np.ndarray:
        """The paper's o_t as a flat 35-vector (unnormalised)."""
        return np.concatenate(
            [
                self.core_counts,
                self.utilization,
                self.size_vector,
                self.ratio_vector,
                [self.total_requests],
            ]
        ).astype(float)

    def read_intensity_kb(self) -> float:
        """Kilobytes of read IO described by this observation's workload."""
        sizes = np.abs(self.size_vector)
        reads = self.size_vector > 0
        return float((sizes * self.ratio_vector * reads).sum() * self.total_requests)

    def write_intensity_kb(self) -> float:
        """Kilobytes of write IO described by this observation's workload."""
        sizes = np.abs(self.size_vector)
        writes = self.size_vector < 0
        return float((sizes * self.ratio_vector * writes).sum() * self.total_requests)


class ObservationEncoder:
    """Builds :class:`Observation` objects and their normalised vectors."""

    def __init__(self, system_config: StorageSystemConfig, nominal_requests: float = None) -> None:
        system_config.validate()
        self.system_config = system_config
        sizes = np.array([t.size_kb for t in standard_io_types()])
        self._max_size_kb = float(sizes.max())
        if nominal_requests is None:
            # Scale for Q: the request count that would saturate the array
            # if every request had the mean size.  Used only for
            # normalisation.
            nominal_requests = system_config.total_capability_kb() / float(sizes.mean())
        self._nominal_requests = float(nominal_requests)
        if not (np.isfinite(self._nominal_requests) and self._nominal_requests > 0):
            raise EnvironmentError_(
                f"nominal_requests must be finite and positive, got {nominal_requests!r}"
            )

    @property
    def dimension(self) -> int:
        return OBSERVATION_DIM

    def constants(self) -> Dict[str, float]:
        """The complete set of constants :meth:`normalize` depends on.

        Keep in sync when normalisation gains parameters — consumers are
        :meth:`is_equivalent` and the compiled serving artifact, which
        stamps these values so a serving process can verify its encoder
        normalises exactly like the one the FSM was extracted under.
        """
        return {
            "total_cores": float(self.system_config.total_cores),
            "max_size_kb": self._max_size_kb,
            "nominal_requests": self._nominal_requests,
        }

    def is_equivalent(self, other: "ObservationEncoder") -> bool:
        """Whether ``other`` normalises observations identically."""
        return self.constants() == other.constants()

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def build(
        self,
        core_counts: Dict[Level, int],
        utilization: Dict[Level, float],
        workload: WorkloadInterval,
    ) -> Observation:
        counts = np.array([float(core_counts[level]) for level in LEVELS])
        utils = np.array([float(utilization[level]) for level in LEVELS])
        return Observation(
            core_counts=counts,
            utilization=utils,
            size_vector=workload.size_vector(),
            ratio_vector=np.array(workload.ratios, dtype=float),
            total_requests=float(workload.total_requests),
        )

    # ------------------------------------------------------------------
    # Normalisation
    # ------------------------------------------------------------------
    def normalize(self, observation: Observation) -> np.ndarray:
        """Map an observation to a float vector with entries in roughly [-1, 1]."""
        counts = observation.core_counts / float(self.system_config.total_cores)
        utils = np.clip(observation.utilization, 0.0, 1.0)
        sizes = observation.size_vector / self._max_size_kb
        ratios = observation.ratio_vector
        requests = np.array([observation.total_requests / self._nominal_requests])
        return np.concatenate([counts, utils, sizes, ratios, requests]).astype(float)

    def normalize_batch(self, raw_matrix: np.ndarray, out: np.ndarray = None) -> np.ndarray:
        """Normalise a (B, 35) matrix of raw observations in one shot.

        Every operation is elementwise (or a per-row slice of one), so row
        ``i`` of the result is bit-identical to ``normalize`` applied to
        the corresponding single observation — the property the vectorized
        environment relies on.  ``out`` optionally supplies the result
        buffer (same shape) so callers on a hot path — the decision
        server normalises every request micro-batch — can reuse one
        allocation; every column is overwritten.
        """
        raw_matrix = np.asarray(raw_matrix, dtype=float)
        if raw_matrix.ndim != 2 or raw_matrix.shape[1] != OBSERVATION_DIM:
            raise EnvironmentError_(
                f"raw matrix must have shape (B, {OBSERVATION_DIM}), got {raw_matrix.shape}"
            )
        n = NUM_IO_TYPES
        if out is None:
            out = np.empty_like(raw_matrix)
        elif out.shape != raw_matrix.shape:
            raise EnvironmentError_(
                f"out buffer shape {out.shape} does not match input {raw_matrix.shape}"
            )
        out[:, 0:3] = raw_matrix[:, 0:3] / float(self.system_config.total_cores)
        np.clip(raw_matrix[:, 3:6], 0.0, 1.0, out=out[:, 3:6])
        out[:, 6 : 6 + n] = raw_matrix[:, 6 : 6 + n] / self._max_size_kb
        out[:, 6 + n : 6 + 2 * n] = raw_matrix[:, 6 + n : 6 + 2 * n]
        out[:, 6 + 2 * n] = raw_matrix[:, 6 + 2 * n] / self._nominal_requests
        return out

    def split_raw(self, raw: np.ndarray) -> Observation:
        """Rebuild an :class:`Observation` from its raw 35-vector."""
        raw = np.asarray(raw, dtype=float)
        if raw.shape != (OBSERVATION_DIM,):
            raise EnvironmentError_(
                f"raw observation must have shape ({OBSERVATION_DIM},), got {raw.shape}"
            )
        n = NUM_IO_TYPES
        return Observation(
            core_counts=raw[0:3].copy(),
            utilization=raw[3:6].copy(),
            size_vector=raw[6 : 6 + n].copy(),
            ratio_vector=raw[6 + n : 6 + 2 * n].copy(),
            total_requests=float(raw[6 + 2 * n]),
        )
