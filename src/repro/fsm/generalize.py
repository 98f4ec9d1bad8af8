"""Generalisation to unseen observations (paper Section 3.2.2, second method).

The extracted FSM only knows the observation codes it saw during
extraction.  At deployment time an unseen observation is classified as
its closest known observation — "the state space has a certain
continuity and similar observations could trigger similar actions" —
using Euclidean distance or cosine similarity over the (continuous,
normalised) observation vectors.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Tuple

import numpy as np

from repro.errors import ExtractionError

ObservationKey = Tuple[int, ...]


def _euclidean(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.linalg.norm(a - b))


def _cosine_distance(a: np.ndarray, b: np.ndarray) -> float:
    norm = np.linalg.norm(a) * np.linalg.norm(b)
    if norm <= 1e-12:
        return 1.0
    return 1.0 - float(np.dot(a, b) / norm)


SIMILARITY_METRICS: Dict[str, Callable[[np.ndarray, np.ndarray], float]] = {
    "euclidean": _euclidean,
    "cosine": _cosine_distance,
}


def nearest_prototype_rows(
    matrix: np.ndarray, vectors: np.ndarray, metric: str = "euclidean"
) -> np.ndarray:
    """Row indices of the prototypes in ``matrix`` closest to each vector.

    The one nearest-prototype resolution shared by the scalar
    :class:`NearestObservationMatcher` and the batched serving fast path
    (:class:`repro.engine.compiled_fsm.CompiledFSMPolicy`), so both
    layers fall back to *identical* prototypes for unseen observations.
    Row ``i`` of the result is bit-identical to resolving ``vectors[i]``
    alone: the euclidean branch reduces the (fixed-length) feature axis
    with the same pairwise summation regardless of how many query rows
    share the batch, and ties break to the lowest row index either way.
    """
    if metric not in SIMILARITY_METRICS:
        raise ExtractionError(
            f"unknown similarity metric {metric!r}; available: {sorted(SIMILARITY_METRICS)}"
        )
    matrix = np.asarray(matrix, dtype=float)
    vectors = np.asarray(vectors, dtype=float)
    if vectors.ndim == 1:
        vectors = vectors[None, :]
    if metric == "euclidean":
        diffs = matrix[None, :, :] - vectors[:, None, :]
        distances = np.sqrt((diffs * diffs).sum(axis=-1))
        return distances.argmin(axis=1)
    # Cosine is never on the serving hot path; the scalar loop keeps it
    # byte-for-byte the historical per-row computation.
    distance = SIMILARITY_METRICS[metric]
    return np.array(
        [
            int(np.argmin([distance(row, vector) for row in matrix]))
            for vector in vectors
        ],
        dtype=np.int64,
    )


class NearestObservationMatcher:
    """Maps observation vectors to the nearest known observation code."""

    def __init__(
        self,
        prototypes: Dict[ObservationKey, np.ndarray],
        metric: str = "euclidean",
        encoder: Optional[Callable[[np.ndarray], ObservationKey]] = None,
    ) -> None:
        if not prototypes:
            raise ExtractionError("matcher needs at least one known observation prototype")
        if metric not in SIMILARITY_METRICS:
            raise ExtractionError(
                f"unknown similarity metric {metric!r}; available: {sorted(SIMILARITY_METRICS)}"
            )
        self.metric_name = metric
        self._distance = SIMILARITY_METRICS[metric]
        self._encoder = encoder
        self._keys = list(prototypes.keys())
        self._matrix = np.stack([np.asarray(prototypes[k], dtype=float) for k in self._keys])

    @property
    def num_prototypes(self) -> int:
        return len(self._keys)

    @property
    def keys(self) -> list:
        """Prototype codes in their stable (insertion) order (copy).

        Row ``i`` of the distance matrix corresponds to ``keys[i]``; the
        compiled serving path relies on this ordering matching its own
        prototype table so both resolve ties identically.
        """
        return list(self._keys)

    @property
    def prototype_matrix(self) -> np.ndarray:
        """Stacked prototype vectors; row ``i`` is ``keys[i]``.

        The backing array, not a copy (treat as read-only) — routing
        code compares it against a compiled artifact's prototype table
        to decide whether the dense fast path replays this matcher's
        tie-breaks exactly.
        """
        return self._matrix

    def key_at(self, index: int) -> ObservationKey:
        """The prototype code at ``index`` (no list copy — hot fallback path)."""
        return self._keys[index]

    def match(self, observation_vector: np.ndarray) -> ObservationKey:
        """Return the known observation code closest to ``observation_vector``.

        If an encoder was provided and it maps the vector to a code that
        is already known, that exact code is returned without a search.
        """
        vector = np.asarray(observation_vector, dtype=float)
        if self._encoder is not None:
            exact = self._encoder(vector)
            if exact in set(self._keys):
                return exact
        return self._keys[self.match_index(vector)]

    def match_index(self, observation_vector: np.ndarray) -> int:
        """Index (into :attr:`keys`) of the nearest prototype."""
        vector = np.asarray(observation_vector, dtype=float)
        return int(
            nearest_prototype_rows(self._matrix, vector[None, :], self.metric_name)[0]
        )

    def distance_to_nearest(self, observation_vector: np.ndarray) -> float:
        """Distance from ``observation_vector`` to its nearest prototype."""
        vector = np.asarray(observation_vector, dtype=float)
        return float(
            min(self._distance(row, vector) for row in self._matrix)
        )
