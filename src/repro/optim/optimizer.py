"""Optimizer base class."""

from __future__ import annotations

from typing import List, Sequence

from repro.autograd.tensor import Tensor
from repro.errors import TrainingError


def require_positive(name: str, value: float) -> float:
    """``value`` as a float, or :class:`TrainingError` unless it is finite and positive.

    NaN fails every comparison, so a bare ``value <= 0`` check lets it
    through to turn each update (or each clip) into a silent no-op.
    """
    if not 0 < value < float("inf"):
        raise TrainingError(f"{name} must be positive and finite, got {value}")
    return float(value)


class Optimizer:
    """Holds a list of trainable tensors and applies updates from their grads."""

    def __init__(self, parameters: Sequence[Tensor], lr: float) -> None:
        self.parameters: List[Tensor] = list(parameters)
        if not self.parameters:
            raise TrainingError("optimizer received an empty parameter list")
        self.lr = require_positive("learning rate", lr)
        self._step_count = 0

    @property
    def step_count(self) -> int:
        return self._step_count

    def zero_grad(self) -> None:
        for param in self.parameters:
            param.zero_grad()

    def step(self) -> None:
        """Apply one update using the currently accumulated gradients."""
        self._step_count += 1
        self._apply()

    def _apply(self) -> None:  # pragma: no cover - interface method
        raise NotImplementedError
