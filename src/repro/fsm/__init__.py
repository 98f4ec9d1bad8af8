"""Finite-state-machine extraction, generalisation and interpretation.

The end product of the paper's pipeline: a white-box finite state
machine read off the quantised transition table of the trained DRL
policy (Section 3.2), hardened for unseen observations by resolving
them to the nearest prototype of the machine's own table (Section
3.2.2), and interpreted for the domain experts through fan-in/fan-out
statistics and observation-history windows (Section 3.3, Figures 5
and 6).
"""

from repro.fsm.machine import FSMState, FiniteStateMachine
from repro.fsm.extraction import FSMExtractor, ExtractionConfig, ExtractionResult
from repro.fsm.generalize import nearest_prototype_rows
from repro.fsm.minimize import fold_compatible_states
from repro.fsm.interpretation import (
    FanInOutStats,
    StateHistoryProfile,
    fan_in_out_statistics,
    history_profile,
    interpret_fsm,
)
from repro.fsm.render import fsm_to_dot, fsm_summary_table
from repro.fsm.agent import FSMPolicyAgent

__all__ = [
    "FSMState",
    "FiniteStateMachine",
    "FSMExtractor",
    "ExtractionConfig",
    "ExtractionResult",
    "nearest_prototype_rows",
    "fold_compatible_states",
    "FanInOutStats",
    "StateHistoryProfile",
    "fan_in_out_statistics",
    "history_profile",
    "interpret_fsm",
    "fsm_to_dot",
    "fsm_summary_table",
    "FSMPolicyAgent",
]
