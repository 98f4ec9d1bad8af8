"""Per-interval and per-episode measurement records emitted by the simulator."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, NamedTuple, Tuple

import numpy as np

from repro.storage.levels import LEVELS, Level
from repro.storage.migration import MigrationAction, action_from_index


class StepValues(NamedTuple):
    """Lightweight per-interval summary, values in LEVELS order.

    Carries exactly the quantities the reward functions consume so that
    metrics-free execution (the vectorized environment's default) can
    compute identical rewards without materialising an
    :class:`IntervalMetrics` record per interval.
    """

    incoming_kb: Tuple[float, ...]
    processed_kb: Tuple[float, ...]
    capacity_kb: Tuple[float, ...]
    utilization: Tuple[float, ...]
    backlog_kb: Tuple[float, ...]


@dataclass(frozen=True)
class IntervalMetrics:
    """Everything the simulator measured during one time interval."""

    interval: int
    action: MigrationAction
    migration_applied: bool
    core_counts: Dict[Level, int]
    utilization: Dict[Level, float]
    incoming_kb: Dict[Level, float]
    processed_kb: Dict[Level, float]
    backlog_kb: Dict[Level, float]
    capacity_kb: Dict[Level, float]
    idle_cores: Dict[Level, int]


class StepColumns(NamedTuple):
    """One interval of a lockstep batch: a column per measured quantity.

    Row ``j`` of every column belongs to the ``j``-th slot that stepped;
    values are plain Python numbers (``ndarray.tolist()``), so
    :meth:`interval_metrics` builds the record the simulator used to
    build eagerly for every (slot, step).
    """

    interval: List[int]
    action: List[int]
    migration_applied: List[bool]
    core_counts: List[List[int]]
    utilization: List[List[float]]
    incoming_kb: List[List[float]]
    processed_kb: List[List[float]]
    backlog_kb: List[List[float]]
    capacity_kb: List[List[float]]
    idle_cores: List[List[int]]

    def interval_metrics(self, row: int) -> IntervalMetrics:
        return IntervalMetrics(
            interval=self.interval[row],
            action=action_from_index(self.action[row]),
            migration_applied=self.migration_applied[row],
            core_counts=dict(zip(LEVELS, self.core_counts[row])),
            utilization=dict(zip(LEVELS, self.utilization[row])),
            incoming_kb=dict(zip(LEVELS, self.incoming_kb[row])),
            processed_kb=dict(zip(LEVELS, self.processed_kb[row])),
            backlog_kb=dict(zip(LEVELS, self.backlog_kb[row])),
            capacity_kb=dict(zip(LEVELS, self.capacity_kb[row])),
            idle_cores=dict(zip(LEVELS, self.idle_cores[row])),
        )


class EpisodeMetrics:
    """Aggregated statistics over a full simulated episode.

    The simulator records one :class:`StepColumns` reference per interval
    (:meth:`record_columns`); the :class:`IntervalMetrics` records are
    built on first read of :attr:`intervals`, which almost no caller of
    an evaluation does — :attr:`makespan` never needs them.
    """

    def __init__(self, trace_name: str = "") -> None:
        self.trace_name = trace_name
        self.truncated = False
        self._intervals: List[IntervalMetrics] = []
        self._columns: List[Tuple[StepColumns, int]] = []

    @property
    def intervals(self) -> List[IntervalMetrics]:
        if self._columns:
            self._intervals.extend(
                columns.interval_metrics(row) for columns, row in self._columns
            )
            self._columns.clear()
        return self._intervals

    def record_columns(self, columns: StepColumns, row: int) -> None:
        self._columns.append((columns, row))

    @property
    def makespan(self) -> int:
        """Number of intervals needed to finish all IO (the paper's K)."""
        return len(self._intervals) + len(self._columns)

    @property
    def migrations(self) -> int:
        return sum(1 for m in self.intervals if m.migration_applied)

    def mean_utilization(self) -> Dict[Level, float]:
        if not self.intervals:
            return {level: 0.0 for level in LEVELS}
        return {
            level: float(np.mean([m.utilization[level] for m in self.intervals]))
            for level in LEVELS
        }

    def action_histogram(self) -> Dict[str, int]:
        histogram: Dict[str, int] = {}
        for m in self.intervals:
            key = m.action.short_name
            histogram[key] = histogram.get(key, 0) + 1
        return histogram
