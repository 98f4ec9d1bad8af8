"""Gradient clipping utilities.

The paper clips the global gradient norm to 2.0 before each optimiser
step (Section 4.2).
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from repro.autograd.tensor import Tensor
from repro.errors import TrainingError


def global_grad_norm(parameters: Sequence[Tensor]) -> float:
    """Return the L2 norm of all gradients concatenated."""
    total = 0.0
    for param in parameters:
        if param.grad is None:
            continue
        total += float((param.grad ** 2).sum())
    return math.sqrt(total)


def clip_grad_norm(parameters: Sequence[Tensor], max_norm: float) -> float:
    """Scale gradients in place so their global norm is at most ``max_norm``.

    Returns the norm before clipping, mirroring the PyTorch convention.
    A non-finite norm raises :class:`TrainingError` before any gradient
    is touched: a NaN norm would scale nothing and an infinite one would
    scale everything to zero, and either way the optimiser step after it
    writes NaN into a parameter, or silently skips it.
    """
    if max_norm <= 0:
        raise ValueError(f"max_norm must be positive, got {max_norm}")
    norm = global_grad_norm(parameters)
    if not math.isfinite(norm):
        for index, param in enumerate(parameters):
            if param.grad is not None and not np.isfinite(param.grad).all():
                label = param.name or f"parameter {index}"
                raise TrainingError(
                    f"{label} (shape {param.shape}) has a non-finite gradient; not stepping"
                )
        raise TrainingError(f"the global gradient norm overflows ({norm}); not stepping")
    if norm > max_norm and norm > 0.0:
        scale = max_norm / norm
        for param in parameters:
            if param.grad is not None:
                param.grad *= scale
    return norm
