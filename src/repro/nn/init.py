"""Weight initialisation schemes."""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.utils.rng import SeedLike, new_rng


def xavier_uniform(shape: Tuple[int, int], rng: SeedLike = None) -> np.ndarray:
    """Glorot/Xavier uniform initialisation for a (fan_in, fan_out) matrix."""
    rng = new_rng(rng)
    fan_in, fan_out = shape
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape)


def orthogonal(shape: Tuple[int, int], gain: float = 1.0, rng: SeedLike = None) -> np.ndarray:
    """Orthogonal initialisation, commonly used for recurrent weight matrices."""
    rng = new_rng(rng)
    rows, cols = shape
    a = rng.standard_normal((max(rows, cols), min(rows, cols)))
    q, r = np.linalg.qr(a)
    q = q * np.sign(np.diag(r))
    if rows < cols:
        q = q.T
    return gain * q[:rows, :cols]


def zeros(shape) -> np.ndarray:
    return np.zeros(shape)
