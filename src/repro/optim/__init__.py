"""Gradient-based optimisers and gradient utilities."""

from repro.optim.optimizer import Optimizer
from repro.optim.adam import Adam
from repro.optim.clip import clip_grad_norm, global_grad_norm

__all__ = [
    "Optimizer",
    "Adam",
    "clip_grad_norm",
    "global_grad_norm",
]
