"""Baseline control policies for the core-allocation problem.

The paper compares four controllers (Figure 4):

* the production **default** setting — never migrate cores;
* a **handcrafted FSM** designed by domain experts — migrate a core from
  the level with the lowest CPU utilisation to the level with the
  highest;
* the **GRU-based DRL** policy (in :mod:`repro.drl`);
* the **extracted FSM** (in :mod:`repro.fsm`).

This package provides the first two plus an auxiliary baseline (a greedy
utilisation-gap controller) behind a common :class:`Agent` protocol so
the evaluation harness can treat them uniformly.
"""

from repro.agents.base import Agent
from repro.agents.default import DefaultPolicy
from repro.agents.handcrafted import HandcraftedFSMPolicy
from repro.agents.greedy import GreedyUtilizationPolicy

__all__ = [
    "Agent",
    "DefaultPolicy",
    "HandcraftedFSMPolicy",
    "GreedyUtilizationPolicy",
]
