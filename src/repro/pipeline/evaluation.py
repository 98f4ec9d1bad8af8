"""Policy evaluation: makespan measurement and controller comparison.

:func:`compare_agents` runs every episode on the
:class:`~repro.engine.evaluation.EvaluationEngine` as one lockstep batch
for all agents, each on its own copy of the traces (compiled-FSM tables,
batched GRU forwards or per-slot heuristic replicas).  Trace ``i`` is
seeded ``episode_seed + i`` and its total reward is the ``np.sum`` of
its rewards, so every number is pinned bit-identical to a scalar
``StorageAllocationEnv`` loop (``tests/conftest.py::scalar_episode``).
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

import numpy as np

from repro.agents.base import Agent
from repro.engine.evaluation import EvaluationEngine, EvaluationResult, backend_for_agent
from repro.env.reward import RewardConfig
from repro.errors import ConfigurationError
from repro.storage.simulator import StorageSystemConfig
from repro.storage.workload import WorkloadTrace
from repro.utils.tables import format_table

__all__ = [
    "EvaluationResult",
    "compare_agents",
    "comparison_table",
    "relative_reduction",
]


def compare_agents(
    agents: Sequence[Agent],
    traces: Sequence[WorkloadTrace],
    system_config: Optional[StorageSystemConfig] = None,
    reward_config: Optional[RewardConfig] = None,
    episode_seed: int = 0,
) -> Dict[str, EvaluationResult]:
    """Evaluate several agents on the same traces with matched random seeds.

    Every agent is routed into one lockstep batch for the whole
    comparison, each stepping its own copy of the traces — DRL agents as
    batched GRU forwards, extracted FSMs on their compiled dense tables,
    heuristics as per-slot replicas (see
    :func:`~repro.engine.evaluation.backend_for_agent`) — with the
    numbers each agent gets alone.  Results are keyed by agent name, so
    names must be distinct.
    """
    names = [agent.name for agent in agents]
    repeated = sorted({name for name in names if names.count(name) > 1})
    if repeated:
        raise ConfigurationError(f"compare_agents got agents with repeated names: {repeated}")
    # One engine — one default encoder, one vector env — routes every agent.
    engine = EvaluationEngine(system_config, reward_config)
    backends = {agent.name: backend_for_agent(agent, engine.encoder) for agent in agents}
    return engine.evaluate_many(backends, traces, episode_seed=episode_seed)


def comparison_table(results: Dict[str, EvaluationResult]) -> str:
    """Render a per-trace makespan table (rows = traces, columns = agents)."""
    if not results:
        raise ConfigurationError("comparison_table needs at least one result")
    agent_names = list(results.keys())
    first = results[agent_names[0]]
    headers = ["trace"] + agent_names
    rows = []
    for index, trace_name in enumerate(first.trace_names):
        row = [trace_name]
        for name in agent_names:
            row.append(results[name].makespans[index])
        rows.append(row)
    mean_row = ["MEAN"] + [round(results[name].mean_makespan(), 2) for name in agent_names]
    rows.append(mean_row)
    return format_table(headers, rows, title="Makespan comparison")


def relative_reduction(baseline: EvaluationResult, improved: EvaluationResult) -> float:
    """Mean relative makespan reduction of ``improved`` vs ``baseline`` (positive = better)."""
    base = baseline.mean_makespan()
    if base <= 0 or np.isnan(base):
        raise ConfigurationError("baseline makespan must be positive")
    return float((base - improved.mean_makespan()) / base)
