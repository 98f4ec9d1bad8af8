"""Policy evaluation: makespan measurement and controller comparison.

Every episode runs on the :class:`~repro.engine.evaluation.EvaluationEngine`:
:func:`compare_agents` as one lockstep batch for all routed agents, each
on its own copy of the traces (compiled-FSM tables, batched GRU
forwards or per-slot heuristic replicas),
:func:`evaluate_agent` one trace at a time (B = 1) with the caller's
agent object doing the acting.  The two are pinned bit-identical (same
``episode_seed + index`` seeding, same ``np.sum`` reward reduction), and
both to a scalar ``StorageAllocationEnv`` loop in ``tests/conftest.py``.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

import numpy as np

from repro.agents.base import Agent
from repro.engine.backends import AgentBatchBackend
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
    "evaluate_agent",
    "relative_reduction",
]


def evaluate_agent(
    agent: Agent,
    traces: Sequence[WorkloadTrace],
    system_config: Optional[StorageSystemConfig] = None,
    reward_config: Optional[RewardConfig] = None,
    episode_seed: int = 0,
) -> EvaluationResult:
    """Run ``agent`` over every trace and record the makespans.

    Every (agent, trace) episode is run with the same ``episode_seed`` so
    that the stochastic parts of the simulator (core idling) are identical
    across agents and the comparison isolates the allocation policy.
    """
    if not traces:
        raise ConfigurationError("evaluate_agent needs at least one trace")
    engine = EvaluationEngine(system_config, reward_config)
    # ``agent`` itself is the only replica: an exploring or shared-rng
    # agent draws from its stream in trace order, and whatever ``act``
    # counts on the caller's object is still there afterwards.
    backend = AgentBatchBackend(lambda: agent, engine.encoder, name=agent.name)
    result = EvaluationResult(agent_name=agent.name)
    for index, trace in enumerate(traces):
        episode = engine.evaluate(backend, [trace], episode_seed=episode_seed + index)
        result.trace_names += episode.trace_names
        result.makespans += episode.makespans
        result.episodes += episode.episodes
        result.total_rewards += episode.total_rewards
    return result


def compare_agents(
    agents: Sequence[Agent],
    traces: Sequence[WorkloadTrace],
    system_config: Optional[StorageSystemConfig] = None,
    reward_config: Optional[RewardConfig] = None,
    episode_seed: int = 0,
) -> Dict[str, EvaluationResult]:
    """Evaluate several agents on the same traces with matched random seeds.

    Every agent the engine can replay faithfully is routed into one
    lockstep batch for the whole comparison, each stepping its own copy
    of the traces — greedy DRL agents as batched GRU forwards, extracted
    FSMs on their compiled dense tables, heuristics as per-slot replicas
    (see :func:`~repro.engine.evaluation.backend_for_agent`).  Agents the
    lockstep lift cannot reproduce bit for bit (exploring DRL agents,
    shared-rng agents) run one episode at a time through
    :func:`evaluate_agent`; either way the numbers are identical.
    Results are keyed by agent name, so names must be distinct.
    """
    names = [agent.name for agent in agents]
    repeated = sorted({name for name in names if names.count(name) > 1})
    if repeated:
        raise ConfigurationError(f"compare_agents got agents with repeated names: {repeated}")
    # One engine — one default encoder, one vector env — routes every agent.
    engine = EvaluationEngine(system_config, reward_config)
    routed = {}
    for agent in agents:
        backend = backend_for_agent(agent, engine.encoder)
        if backend is not None:
            routed[agent.name] = backend
    results = engine.evaluate_many(routed, traces, episode_seed=episode_seed) if routed else {}
    for agent in agents:
        if agent.name not in routed:
            results[agent.name] = evaluate_agent(
                agent, traces, system_config, reward_config, episode_seed=episode_seed
            )
    return {agent.name: results[agent.name] for agent in agents}


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
