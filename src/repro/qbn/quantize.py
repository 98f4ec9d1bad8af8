"""k-level quantisation with a straight-through gradient estimator.

The QBN bottleneck restricts each latent entry to one of ``k`` evenly
spaced levels in [-1, 1] (k = 3 gives the ternary {-1, 0, +1} used by
the paper).  The forward pass snaps values to the nearest level; the
backward pass passes gradients straight through, which is what makes
the auto-encoders trainable despite the discrete bottleneck.
"""

from __future__ import annotations

import numpy as np

from repro.autograd.tensor import Tensor
from repro.errors import ConfigurationError


_LEVELS: dict = {}


def quantization_levels(k: int) -> np.ndarray:
    """The ``k`` evenly spaced quantisation levels spanning [-1, 1].

    Built once per ``k`` and shared, so the array is read-only.
    """
    levels = _LEVELS.get(k)
    if levels is None:
        if k < 2:
            raise ConfigurationError(f"quantisation needs at least 2 levels, got {k}")
        levels = _LEVELS[k] = np.linspace(-1.0, 1.0, k)
        levels.flags.writeable = False
    return levels


def nearest_level_indices(values: np.ndarray, k: int) -> np.ndarray:
    """Index of the level nearest each of ``values`` (lowest index on a tie)."""
    return np.abs(values[..., None] - quantization_levels(k)).argmin(axis=-1)


def quantize_ste(x: Tensor, k: int = 3) -> Tensor:
    """Quantise ``x`` to ``k`` levels with straight-through gradients."""
    if not isinstance(x, Tensor):
        x = Tensor(x)
    data = quantization_levels(k)[nearest_level_indices(np.clip(x.data, -1.0, 1.0), k)]

    def backward(grad: np.ndarray) -> None:
        if x.requires_grad:
            x._accumulate(grad)

    return Tensor._make(data, (x,), backward)


def values_to_codes(values: np.ndarray, k: int = 3) -> np.ndarray:
    """Map quantised (or continuous) values to integer level indices 0..k-1."""
    return nearest_level_indices(np.asarray(values, dtype=float), k).astype(np.int64)


def codes_to_values(codes: np.ndarray, k: int = 3) -> np.ndarray:
    """Inverse of :func:`values_to_codes`."""
    codes = np.asarray(codes, dtype=int)
    levels = quantization_levels(k)
    if np.any(codes < 0) or np.any(codes >= k):
        raise ConfigurationError(f"codes must be in [0, {k}), got range "
                                 f"[{codes.min()}, {codes.max()}]")
    return levels[codes]


def code_key(codes: np.ndarray) -> tuple:
    """Hashable key for a single code vector (used as FSM state identity)."""
    codes = np.asarray(codes, dtype=int)
    if codes.ndim != 1:
        raise ConfigurationError(f"code_key expects a 1-d code vector, got shape {codes.shape}")
    return tuple(int(c) for c in codes)
