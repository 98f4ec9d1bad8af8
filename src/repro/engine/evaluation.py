"""Lockstep batched evaluation of any :class:`DecisionBackend`.

:class:`EvaluationEngine` is the evaluation-side consumer of the
decision-engine contract: it runs one episode per trace on a
:class:`~repro.env.vector_env.VectorStorageAllocationEnv`, asking a
backend for one micro-batch of actions per interval — so compiled-FSM
tables, the GRU policy and scalar heuristic agents are all
evaluated through the identical loop, and FSM-in-the-loop evaluation
runs at compiled-table speed.

Bit-identity contract: slot ``i`` of a batch reproduces the same episode
run alone (:func:`~repro.pipeline.evaluation.evaluate_agent`, the B = 1
call of this engine) and a scalar ``StorageAllocationEnv`` loop exactly —
it is seeded ``episode_seed + i``, and its total reward is the
:func:`np.sum` of exactly its ``makespan`` active-step rewards, so
makespans, episode metrics and total rewards are equal bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import time

import numpy as np

from repro import telemetry
from repro.agents.base import Agent
from repro.engine.backends import (
    AgentBatchBackend,
    CompiledFSMBackend,
    DecisionBackend,
    GRUPolicyBackend,
)
from repro.env.observation import ObservationEncoder
from repro.env.vector_env import VectorStorageAllocationEnv
from repro.errors import ConfigurationError
from repro.storage.metrics import EpisodeMetrics
from repro.storage.simulator import StorageSystemConfig
from repro.env.reward import RewardConfig
from repro.storage.workload import WorkloadTrace


@dataclass
class EvaluationResult:
    """Per-trace makespans of one agent over an evaluation set."""

    agent_name: str
    trace_names: List[str] = field(default_factory=list)
    makespans: List[int] = field(default_factory=list)
    episodes: List[EpisodeMetrics] = field(default_factory=list)
    total_rewards: List[float] = field(default_factory=list)

    def mean_makespan(self) -> float:
        return float(np.mean(self.makespans)) if self.makespans else float("nan")

    def total_makespan(self) -> int:
        return int(np.sum(self.makespans)) if self.makespans else 0

    def mean_total_reward(self) -> float:
        return float(np.mean(self.total_rewards)) if self.total_rewards else float("nan")

    def as_dict(self) -> Dict[str, float]:
        return {
            "agent": self.agent_name,
            "mean_makespan": self.mean_makespan(),
            "total_makespan": float(self.total_makespan()),
            "mean_total_reward": self.mean_total_reward(),
            "traces": float(len(self.trace_names)),
        }


class EvaluationEngine:
    """Evaluates decision backends over trace sets in one lockstep batch.

    One engine owns one vector environment (with episode-metric
    recording on) and one default observation encoder; ``evaluate`` may
    be called repeatedly with different backends and trace sets — which
    is exactly what :func:`~repro.pipeline.evaluation.compare_agents`
    does, one backend per agent over the shared evaluation suite.
    """

    def __init__(
        self,
        system_config: Optional[StorageSystemConfig] = None,
        reward_config: Optional[RewardConfig] = None,
    ) -> None:
        self.system_config = system_config or StorageSystemConfig()
        self.reward_config = reward_config
        self.encoder = ObservationEncoder(self.system_config)
        self.vector_env = VectorStorageAllocationEnv(
            self.system_config, reward_config, record_metrics=True
        )
        metrics = telemetry.registry()
        self.tracer = telemetry.tracer()
        self._m_runs = metrics.counter(
            "engine_eval_runs_total", help="EvaluationEngine.evaluate calls"
        )
        self._m_steps = metrics.counter(
            "engine_eval_steps_total", help="Lockstep env intervals stepped"
        )
        self._m_decisions = metrics.counter(
            "engine_eval_decisions_total", help="Per-row backend decisions made"
        )
        self._m_steps_per_sec = metrics.gauge(
            "engine_eval_steps_per_sec", help="Lockstep steps/s of the last evaluate"
        )

    def evaluate(
        self,
        backend: DecisionBackend,
        traces: Sequence[WorkloadTrace],
        episode_seed: int = 0,
        agent_name: Optional[str] = None,
    ) -> EvaluationResult:
        """Run one episode per trace through ``backend`` in lockstep.

        Finished slots are fed ``NOOP`` (action 0) filler — the vector
        env ignores actions on done slots — and the backend only ever
        decides for still-active rows, so per-session state advances
        exactly once per active step, like a sequential episode.
        """
        traces = list(traces)
        if not traces:
            raise ConfigurationError("EvaluationEngine.evaluate needs at least one trace")
        check_encoder = getattr(backend, "check_encoder", None)
        if check_encoder is not None:
            check_encoder(self.encoder)

        batch = len(traces)
        venv = self.vector_env
        normalized = venv.reset(
            traces, rngs=[episode_seed + index for index in range(batch)]
        )
        raw = venv.raw_observations()
        # A raw-row backend gets ``normalized=None`` and the lazy
        # ``result.observations`` below is never read.
        reads_raw = getattr(backend, "reads_raw", False)
        if reads_raw:
            normalized = None

        table = backend.session_table(batch)
        slots = table.open(batch)
        backend.begin_sessions(table, slots)

        # Time-major reward accumulation so each slot's total can be
        # reduced over exactly its ``makespan`` active rows — the same
        # element count and np.sum reduction as a scalar episode loop,
        # hence bit-identical totals.  Episodes can outlive their
        # traces (backlog drain), so the buffer doubles on overflow.
        cap = 2 * max(len(trace) for trace in traces) + 16
        rewards_buf = np.empty((cap, batch))
        makespans = np.zeros(batch, dtype=np.int64)
        active: Optional[np.ndarray] = None  # None == every slot active
        if venv.dones.any():
            active = ~venv.dones
        t = 0
        decisions = 0
        loop_started = time.perf_counter()
        with self.tracer.span(
            "engine.evaluate", backend=backend.name, traces=batch
        ) as eval_span:
            while active is None or active.any():
                if t == cap:
                    cap *= 2
                    wide = np.empty((cap, batch))
                    wide[: rewards_buf.shape[0]] = rewards_buf
                    rewards_buf = wide
                if active is None:
                    actions = np.asarray(
                        backend.decide(table, slots, raw, normalized), dtype=np.int64
                    )
                    decisions += batch
                else:
                    rows = np.nonzero(active)[0]
                    actions = np.zeros(batch, dtype=np.int64)
                    actions[rows] = backend.decide(
                        table, slots[rows], raw[rows], None if reads_raw else normalized[rows]
                    )
                    decisions += len(rows)
                result = venv.step(actions)
                rewards_buf[t] = result.rewards
                if result.newly_done.any():
                    finished = np.nonzero(result.newly_done)[0]
                    makespans[finished] = result.makespans[finished]
                normalized = None if reads_raw else result.observations
                raw = result.raw_observations
                active = None if not result.dones.any() else ~result.dones
                t += 1
            eval_span.set("steps", t)
            eval_span.set("decisions", decisions)
        elapsed = time.perf_counter() - loop_started
        self._m_runs.inc()
        self._m_steps.inc(t)
        self._m_decisions.inc(decisions)
        if elapsed > 0.0:
            self._m_steps_per_sec.set(t / elapsed)

        end_sessions = getattr(backend, "end_sessions", None)
        if end_sessions is not None:
            end_sessions(table, slots)
        table.close(slots)

        evaluation = EvaluationResult(
            agent_name=agent_name if agent_name is not None else backend.name
        )
        for b, trace in enumerate(traces):
            evaluation.trace_names.append(trace.name)
            evaluation.makespans.append(int(makespans[b]))
            # A slot's stored rows cover exactly its active steps
            # (steps_taken advances once per stored interval), so the
            # column slice below holds the same values, in the same
            # order, as the scalar loop's reward list.
            evaluation.total_rewards.append(
                float(rewards_buf[: int(makespans[b]), b].sum())
            )
        evaluation.episodes.extend(venv.episode_metrics())
        return evaluation


def backend_for_agent(
    agent: Agent, encoder: ObservationEncoder
) -> Optional[DecisionBackend]:
    """Pick the best lockstep backend for ``agent`` (None → one at a time).

    Upgrades, in order of preference:

    * greedy :class:`~repro.drl.agent.DRLPolicyAgent` on the default
      normalisation → :class:`GRUPolicyBackend` (one batched forward per
      interval);
    * :class:`~repro.fsm.agent.FSMPolicyAgent` on an equivalent
      normalisation → :class:`CompiledFSMBackend` (dense table gathers;
      both resolve unseen codes over the machine's one prototype table,
      so the decisions are bit-identical);
    * any other ``engine_safe`` agent → :class:`AgentBatchBackend`
      (per-slot replicas acting on raw observations with the agent's own
      encoder — faithful by construction, still one env step per
      interval for the whole set).

    Returns ``None`` for agents the lockstep lift cannot reproduce
    bit for bit: exploring DRL agents (``epsilon > 0``) and agents that
    declare ``engine_safe = False`` (shared rng streams).  Note the
    replica path leaves prototype-agent side counters (e.g.
    ``FSMPolicyAgent.unseen_observation_count``) untouched.
    """
    from repro.drl.agent import DRLPolicyAgent
    from repro.fsm.agent import FSMPolicyAgent

    if isinstance(agent, DRLPolicyAgent):
        if agent.epsilon != 0.0:
            # Exploration consumes one shared rng stream in evaluation
            # order — not reproducible slot by slot.
            return None
        if encoder.is_equivalent(agent.encoder):
            return GRUPolicyBackend(agent.policy)
        return AgentBatchBackend.from_agent(agent, encoder)
    if isinstance(agent, FSMPolicyAgent):
        if encoder.is_equivalent(agent.encoder):
            return CompiledFSMBackend(agent.compile())
        return AgentBatchBackend.from_agent(agent, encoder)
    if not getattr(agent, "engine_safe", True):
        return None
    return AgentBatchBackend.from_agent(agent, encoder)
