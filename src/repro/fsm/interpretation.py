"""Interpretation of extracted FSM states (paper Section 3.3, Figures 5-6).

Two complementary analyses give each state a human-readable meaning:

* **Fan-in / fan-out statistics** — for every state, average the
  continuous observations seen on transitions *into* the state and on
  transitions *out of* it (self-loops excluded).  The difference shows
  how the state's action changes the system (e.g. S1/S4 move cores from
  the low-utilisation level to the high-utilisation one).
* **History profiles** — for every entry into a state, collect the
  window of observations preceding it (the paper uses the last 10) and
  average them.  The resulting time series of read intensity, write
  intensity and NORMAL/(KV+RV) capacity ratio explains *what causes* the
  transition into the state (Figure 6).
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.errors import ExtractionError
from repro.fsm.extraction import TransitionRecord
from repro.fsm.machine import FiniteStateMachine, StateKey
from repro.storage.iorequest import NUM_IO_TYPES
from repro.storage.migration import action_name

_SIZE_SLICE = slice(6, 6 + NUM_IO_TYPES)
_RATIO_SLICE = slice(6 + NUM_IO_TYPES, 6 + 2 * NUM_IO_TYPES)
_REQUESTS_INDEX = 6 + 2 * NUM_IO_TYPES


def read_intensity_kb(raw_observation: np.ndarray) -> float:
    """Kilobytes of read IO described by a raw observation vector."""
    raw_observation = np.asarray(raw_observation, dtype=float)
    sizes = raw_observation[_SIZE_SLICE]
    ratios = raw_observation[_RATIO_SLICE]
    requests = raw_observation[_REQUESTS_INDEX]
    reads = sizes > 0
    return float((np.abs(sizes) * ratios * reads).sum() * requests)


def write_intensity_kb(raw_observation: np.ndarray) -> float:
    """Kilobytes of write IO described by a raw observation vector."""
    raw_observation = np.asarray(raw_observation, dtype=float)
    sizes = raw_observation[_SIZE_SLICE]
    ratios = raw_observation[_RATIO_SLICE]
    requests = raw_observation[_REQUESTS_INDEX]
    writes = sizes < 0
    return float((np.abs(sizes) * ratios * writes).sum() * requests)


def capacity_ratio(raw_observation: np.ndarray) -> float:
    """NORMAL cores divided by KV+RV cores (the paper's "capacity ratio")."""
    raw_observation = np.asarray(raw_observation, dtype=float)
    normal, kv, rv = raw_observation[0], raw_observation[1], raw_observation[2]
    other = kv + rv
    if other <= 0:
        return float("inf")
    return float(normal / other)


def utilization_vector(raw_observation: np.ndarray) -> np.ndarray:
    """Per-level utilisation (NORMAL, KV, RV) from a raw observation vector."""
    return np.asarray(raw_observation, dtype=float)[3:6].copy()


@dataclass(frozen=True)
class FanInOutStats:
    """Average fan-in/fan-out observations of one state."""

    state_label: str
    action: str
    fan_in_count: int
    fan_out_count: int
    fan_in_mean: Optional[np.ndarray]
    fan_out_mean: Optional[np.ndarray]

    def utilization_shift(self) -> Optional[np.ndarray]:
        """Change in per-level utilisation from fan-in to fan-out."""
        if self.fan_in_mean is None or self.fan_out_mean is None:
            return None
        return utilization_vector(self.fan_out_mean) - utilization_vector(self.fan_in_mean)


@dataclass(frozen=True)
class StateHistoryProfile:
    """Averaged observation window preceding entries into one state (Figure 6)."""

    state_label: str
    action: str
    window: int
    num_entries: int
    mean_history: np.ndarray
    read_intensity: np.ndarray
    write_intensity: np.ndarray
    capacity_ratio_series: np.ndarray

    def write_trend(self) -> float:
        """Slope of the write-intensity series (positive = rising before entry)."""
        if self.write_intensity.size < 2:
            return 0.0
        x = np.arange(self.write_intensity.size)
        return float(np.polyfit(x, self.write_intensity, 1)[0])

    def capacity_ratio_trend(self) -> float:
        series = self.capacity_ratio_series
        finite = np.isfinite(series)
        if finite.sum() < 2:
            return 0.0
        x = np.arange(series.size)[finite]
        return float(np.polyfit(x, series[finite], 1)[0])


def fan_in_out_statistics(
    fsm: FiniteStateMachine, records: Sequence[TransitionRecord]
) -> Dict[str, FanInOutStats]:
    """Compute Figure-5 style fan-in/fan-out statistics for every state.

    As in the paper, observations on self-transitions (source == destination)
    are excluded, and the *original continuous* observations are used
    rather than their quantised codes.
    """
    if not records:
        raise ExtractionError("fan-in/fan-out analysis needs transition records")
    fan_in: Dict[StateKey, List[np.ndarray]] = defaultdict(list)
    fan_out: Dict[StateKey, List[np.ndarray]] = defaultdict(list)
    for record in records:
        if record.source_state == record.destination_state:
            continue
        if record.destination_state in fsm.states:
            fan_in[record.destination_state].append(record.raw_observation)
        if record.source_state in fsm.states:
            fan_out[record.source_state].append(record.raw_observation)

    stats: Dict[str, FanInOutStats] = {}
    for code, state in fsm.states.items():
        ins = fan_in.get(code, [])
        outs = fan_out.get(code, [])
        stats[state.label] = FanInOutStats(
            state_label=state.label,
            action=state.action_name,
            fan_in_count=len(ins),
            fan_out_count=len(outs),
            fan_in_mean=np.mean(ins, axis=0) if ins else None,
            fan_out_mean=np.mean(outs, axis=0) if outs else None,
        )
    return stats


def history_profile(
    fsm: FiniteStateMachine,
    records: Sequence[TransitionRecord],
    state_label: str,
    window: int = 10,
) -> StateHistoryProfile:
    """Compute the Figure-6 style history window for one state."""
    if window <= 0:
        raise ExtractionError(f"window must be positive, got {window}")
    label_to_code = {state.label: code for code, state in fsm.states.items()}
    if state_label not in label_to_code:
        raise ExtractionError(
            f"unknown state {state_label!r}; known states: {sorted(label_to_code)}"
        )
    target = label_to_code[state_label]

    # Index records per episode by step so windows never cross episodes.
    by_episode: Dict[int, Dict[int, TransitionRecord]] = defaultdict(dict)
    for record in records:
        by_episode[record.episode][record.step] = record

    windows: List[np.ndarray] = []
    for record in records:
        is_entry = (
            record.destination_state == target
            and record.source_state != record.destination_state
        )
        if not is_entry:
            continue
        episode_records = by_episode[record.episode]
        steps = [record.step - offset for offset in range(window, 0, -1)]
        if any(step not in episode_records for step in steps):
            continue
        windows.append(
            np.stack([episode_records[step].raw_observation for step in steps])
        )

    state = fsm.states[target]
    if not windows:
        empty = np.zeros((window, records[0].raw_observation.shape[0]))
        return StateHistoryProfile(
            state_label=state_label,
            action=state.action_name,
            window=window,
            num_entries=0,
            mean_history=empty,
            read_intensity=np.zeros(window),
            write_intensity=np.zeros(window),
            capacity_ratio_series=np.zeros(window),
        )

    mean_history = np.mean(np.stack(windows), axis=0)
    return StateHistoryProfile(
        state_label=state_label,
        action=state.action_name,
        window=window,
        num_entries=len(windows),
        mean_history=mean_history,
        read_intensity=np.array([read_intensity_kb(row) for row in mean_history]),
        write_intensity=np.array([write_intensity_kb(row) for row in mean_history]),
        capacity_ratio_series=np.array([capacity_ratio(row) for row in mean_history]),
    )


def interpret_fsm(
    fsm: FiniteStateMachine,
    records: Sequence[TransitionRecord],
    window: int = 10,
) -> Dict[str, Dict[str, object]]:
    """Full interpretation bundle: fan-in/out stats and history profile per state."""
    fan_stats = fan_in_out_statistics(fsm, records)
    result: Dict[str, Dict[str, object]] = {}
    for state in fsm.states_by_id():
        label = state.label
        profile = history_profile(fsm, records, label, window=window)
        result[label] = {
            "action": action_name(state.action),
            "visits": state.visit_count,
            "fan_in_out": fan_stats[label],
            "history": profile,
        }
    return result
