"""Reward functions.

The paper's reward is ``1/K``, the inverse of the makespan, delivered
when the episode finishes (Section 3.1).  Pure terminal rewards make
credit assignment slow, so the environment also offers two shaped
variants:

* ``per_step_penalty`` — a constant ``-step_penalty`` per interval
  (minimising the sum of penalties is exactly minimising the makespan);
* ``bottleneck_pressure`` — that penalty plus ``balance_scale`` times
  the drain time of the worst level (its backlog in multiples of its
  per-interval capacity), which gives immediate credit for placing
  cores where the backlog is.

The scaled-down design runs in this repository train on
``bottleneck_pressure`` because it learns within minutes; the paper's
``inverse_makespan`` mode is retained and selectable everywhere.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError
from repro.storage.metrics import IntervalMetrics, StepValues

REWARD_MODES = (
    "inverse_makespan",
    "per_step_penalty",
    "bottleneck_pressure",
)


@dataclass(frozen=True)
class RewardConfig:
    """Selects and scales the reward signal."""

    mode: str = "inverse_makespan"
    makespan_scale: float = 100.0
    step_penalty: float = 1.0
    balance_scale: float = 1.0

    def __post_init__(self) -> None:
        if self.mode not in REWARD_MODES:
            raise ConfigurationError(
                f"unknown reward mode {self.mode!r}; expected one of {REWARD_MODES}"
            )
        if self.makespan_scale <= 0:
            raise ConfigurationError("makespan_scale must be positive")
        if self.step_penalty < 0:
            raise ConfigurationError("step_penalty must be non-negative")
        if self.balance_scale < 0:
            raise ConfigurationError("balance_scale must be non-negative")


def compute_step_reward(config: RewardConfig, metrics: IntervalMetrics) -> float:
    """Per-interval reward component (zero for the paper's terminal mode).

    Delegates to :func:`compute_step_reward_from_values` (the single
    implementation of the per-mode arithmetic) after flattening the
    metrics dicts in their own key order, pairing capacities to backlog
    keys exactly as the historical dict-based loop did.
    """
    values = StepValues(
        incoming_kb=tuple(metrics.incoming_kb.values()),
        processed_kb=tuple(metrics.processed_kb.values()),
        capacity_kb=tuple(
            metrics.capacity_kb.get(level, 0.0) for level in metrics.backlog_kb
        ),
        utilization=tuple(metrics.utilization.values()),
        backlog_kb=tuple(metrics.backlog_kb.values()),
    )
    return compute_step_reward_from_values(config, values)


def compute_step_reward_from_values(config: RewardConfig, values: StepValues) -> float:
    """Per-interval reward from a metrics-free :class:`StepValues` summary.

    This is the scalar implementation of the per-mode arithmetic;
    :func:`compute_step_reward` adapts metrics records onto it and
    :func:`compute_step_rewards_batch` is its row-wise twin.
    """
    if config.mode == "inverse_makespan":
        return 0.0
    if config.mode == "per_step_penalty":
        return -config.step_penalty
    if config.mode == "bottleneck_pressure":
        # Drain-time estimate of the worst level: backlog measured in
        # multiples of that level's per-interval capacity.  The makespan
        # is governed by the bottleneck level, so penalising its drain
        # time gives immediate credit for placing cores where the
        # backlog is.
        pressure = 0.0
        for backlog, capacity in zip(values.backlog_kb, values.capacity_kb):
            pressure = max(pressure, backlog / max(capacity, 1e-9))
        return -config.step_penalty - config.balance_scale * pressure
    raise ConfigurationError(f"unknown reward mode {config.mode!r}")


def compute_step_rewards_batch(
    config: RewardConfig, capacity_kb: np.ndarray, backlog_kb: np.ndarray
) -> np.ndarray:
    """Per-interval rewards for a whole batch of per-level ``(M, 3)`` arrays.

    Row ``i`` is bit-identical to :func:`compute_step_reward_from_values`
    on the corresponding :class:`StepValues` (the one shaped reduction is
    a maximum, which no summation order can perturb), so the vectorized
    environment scores all slots in one pass.
    """
    batch = backlog_kb.shape[0]
    if config.mode == "inverse_makespan":
        return np.zeros(batch)
    if config.mode == "per_step_penalty":
        return np.full(batch, -config.step_penalty)
    if config.mode == "bottleneck_pressure":
        ratios = backlog_kb / np.maximum(capacity_kb, 1e-9)
        pressure = np.maximum(0.0, ratios.max(axis=1))
        return -config.step_penalty - config.balance_scale * pressure
    raise ConfigurationError(f"unknown reward mode {config.mode!r}")


def compute_terminal_rewards_batch(config: RewardConfig, makespans: np.ndarray) -> np.ndarray:
    """Episode-end rewards for a batch of makespans (see scalar variant)."""
    makespans = np.asarray(makespans)
    if (makespans <= 0).any():
        raise ConfigurationError(f"makespans must be positive, got {makespans}")
    if config.mode == "inverse_makespan":
        return config.makespan_scale / makespans.astype(float)
    return np.zeros(makespans.shape[0])


def compute_terminal_reward(config: RewardConfig, makespan: int) -> float:
    """Episode-end reward component.

    For the paper's mode this is ``makespan_scale / K`` (the scale keeps
    gradients at a usable magnitude without changing the argmax).
    """
    if makespan <= 0:
        raise ConfigurationError(f"makespan must be positive, got {makespan}")
    if config.mode == "inverse_makespan":
        return config.makespan_scale / float(makespan)
    return 0.0
