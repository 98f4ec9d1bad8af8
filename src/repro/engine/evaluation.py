"""Lockstep batched evaluation of any :class:`DecisionBackend`.

:class:`EvaluationEngine` is the evaluation-side consumer of the
decision-engine contract: it runs one episode per trace on a
:class:`~repro.env.vector_env.VectorStorageAllocationEnv`, asking a
backend for one micro-batch of actions per interval — so compiled-FSM
tables, the GRU policy and scalar heuristic agents are all
evaluated through the identical loop, and FSM-in-the-loop evaluation
runs at compiled-table speed.

Several backends share one batch (:meth:`EvaluationEngine.evaluate_many`),
each stepping its own copy of the trace set.  The loop itself is
:func:`run_lockstep`, which runs on any vector env with one episode seed
per trace: rollout collection
(:class:`~repro.drl.rollout.BatchedRolloutCollector`) runs it too, with
a backend that records what the policy saw and did.  Bit-identity contract:
slot ``i`` of a copy reproduces the same episode run alone
(:func:`~repro.pipeline.evaluation.evaluate_agent`, the B = 1 call of
this engine) and a scalar ``StorageAllocationEnv`` loop exactly — it
is seeded ``episode_seed + i`` (its Philox lane,
:func:`~repro.utils.rng.episode_lanes`), and its total reward is the
:func:`np.sum` of exactly its ``makespan`` active-step rewards, so
makespans, episode metrics and total rewards are equal bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

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
from repro.utils.rng import IDLE_DOMAIN, episode_lanes


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
    recording on) and one default observation encoder, and may be
    called repeatedly with different backends and trace sets.
    :meth:`evaluate_many` steps one copy of the trace set per backend in
    one lockstep batch — which is how
    :func:`~repro.pipeline.evaluation.compare_agents` runs every routed
    agent of a comparison — and :meth:`evaluate` is its one-backend call.
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
            "engine_eval_runs_total", help="Backend evaluations run"
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
        """Run one episode per trace through ``backend`` in lockstep: the
        one-entry call of :meth:`evaluate_many`, keyed ``agent_name``
        (default ``backend.name``)."""
        name = agent_name if agent_name is not None else backend.name
        return self.evaluate_many({name: backend}, traces, episode_seed)[name]

    def evaluate_many(
        self,
        backends: Mapping[str, DecisionBackend],
        traces: Sequence[WorkloadTrace],
        episode_seed: int = 0,
    ) -> Dict[str, EvaluationResult]:
        """Run every backend over its own copy of ``traces`` in one lockstep
        batch (:func:`run_lockstep`); results are keyed like ``backends``.

        Group ``g``'s slot ``i`` is seeded ``episode_seed + i``.  One
        backend object under two names is refused.
        """
        traces = list(traces)
        if not traces:
            raise ConfigurationError("EvaluationEngine.evaluate needs at least one trace")
        if not backends:
            raise ConfigurationError("EvaluationEngine.evaluate_many needs at least one backend")
        for backend in backends.values():
            check_encoder = getattr(backend, "check_encoder", None)
            if check_encoder is not None:
                check_encoder(self.encoder)

        width = len(traces)
        started = time.perf_counter()
        with self.tracer.span(
            "engine.evaluate", backend=",".join(b.name for b in backends.values()), traces=width
        ) as eval_span:
            rewards, makespans, _ = run_lockstep(
                self.vector_env,
                list(backends.values()),
                traces,
                range(episode_seed, episode_seed + width),
            )
            steps = rewards.shape[0]
            # A row is decided once per step it is active, i.e. makespan times.
            decisions = int(makespans.sum())
            eval_span.set("steps", steps)
            eval_span.set("decisions", decisions)
        elapsed = time.perf_counter() - started
        self._m_runs.inc(len(backends))
        self._m_steps.inc(steps)
        self._m_decisions.inc(decisions)
        if elapsed > 0.0:
            self._m_steps_per_sec.set(steps / elapsed)

        episodes = self.vector_env.episode_metrics()
        evaluations: Dict[str, EvaluationResult] = {}
        for group, name in enumerate(backends):
            evaluation = EvaluationResult(agent_name=name)
            for b, trace in enumerate(traces, start=group * width):
                evaluation.trace_names.append(trace.name)
                evaluation.makespans.append(int(makespans[b]))
                # A row's rewards cover exactly its ``makespan`` active
                # steps, so this column slice holds the same values, in
                # the same order, as the scalar loop's reward list.
                evaluation.total_rewards.append(float(rewards[: int(makespans[b]), b].sum()))
            evaluation.episodes.extend(episodes[group * width : (group + 1) * width])
            evaluations[name] = evaluation
        return evaluations


def run_lockstep(
    venv: VectorStorageAllocationEnv,
    backends: Sequence[DecisionBackend],
    traces: Sequence[WorkloadTrace],
    seeds: Sequence[int],
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Run every backend over its own copy of ``traces`` on ``venv`` in lockstep.

    Backend ``g`` owns rows ``g * W .. (g + 1) * W - 1`` (``W =
    len(traces)``), and row ``g * W + i`` draws its idle cores from the
    lane of episode seed ``seeds[i]``: every group steps on the same
    random numbers, so each group's slot ``i`` is that slot alone.  Each
    backend decides only its group's active rows, through its own
    session table, so per-session state advances once per active step;
    a finished group is not asked, and finished rows get ``NOOP``
    filler, which the vector env ignores.  One backend object may not
    own two groups: its per-session state is keyed by slot, and two
    tables hand out the same slots.

    Returns the time-major ``(T, G * W)`` rewards, and each row's
    makespan and truncation flag.  A row's rewards are its first
    ``makespan`` entries, because ``steps_taken`` advances once per
    step the row is active.
    """
    if len({id(backend) for backend in backends}) != len(backends):
        raise ConfigurationError(
            "one backend object appears twice in a lockstep batch; its "
            "per-session state would be shared between the groups"
        )
    width = len(traces)
    lanes = episode_lanes(seeds, IDLE_DOMAIN).tile(len(backends))
    normalized = venv.reset(list(traces) * len(backends), rngs=lanes)
    raw = venv.raw_observations()
    # (backend, table, slots, its batch rows, reads_raw) per group.  A
    # raw-row backend gets ``normalized=None``, and the lazy
    # ``result.observations`` is never read if every backend is one.
    groups = []
    for group, backend in enumerate(backends):
        table = backend.session_table(width)
        slots = table.open(width)
        backend.begin_sessions(table, slots)
        rows = slice(group * width, (group + 1) * width)
        groups.append((backend, table, slots, rows, getattr(backend, "reads_raw", False)))
    reads_raw = all(group[-1] for group in groups)

    # Time-major reward accumulation so each row's total can be reduced
    # over exactly its ``makespan`` active rows — the same element count
    # and np.sum reduction as a scalar episode loop, hence bit-identical
    # totals.  Episodes can outlive their traces (backlog drain), so the
    # buffer doubles on overflow.
    batch = venv.num_envs
    cap = 2 * max(len(trace) for trace in traces) + 16
    rewards = np.empty((cap, batch))
    makespans = np.zeros(batch, dtype=np.int64)
    truncated = np.zeros(batch, dtype=bool)
    active: Optional[np.ndarray] = None  # None == every row active
    if venv.dones.any():
        active = ~venv.dones
    t = 0
    while active is None or active.any():
        if t == cap:
            cap *= 2
            wide = np.empty((cap, batch))
            wide[: rewards.shape[0]] = rewards
            rewards = wide
        actions = np.zeros(batch, dtype=np.int64)
        for backend, table, slots, rows, group_reads_raw in groups:
            if active is not None:
                live = np.nonzero(active[rows])[0]
                if not live.size:
                    continue
                rows = live + rows.start
                slots = slots[live]
            actions[rows] = backend.decide(
                table, slots, raw[rows], None if group_reads_raw else normalized[rows]
            )
        result = venv.step(actions)
        rewards[t] = result.rewards
        if result.newly_done.any():
            finished = np.nonzero(result.newly_done)[0]
            makespans[finished] = result.makespans[finished]
            truncated[finished] = result.truncated[finished]
        normalized = None if reads_raw else result.observations
        raw = result.raw_observations
        active = None if not result.dones.any() else ~result.dones
        t += 1

    for backend, table, slots, _, _ in groups:
        end_sessions = getattr(backend, "end_sessions", None)
        if end_sessions is not None:
            end_sessions(table, slots)
        table.close(slots)
    return rewards[:t], makespans, truncated


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
    * any other agent → :class:`AgentBatchBackend` (per-slot replicas
      acting on raw observations with the agent's own encoder — faithful
      under the :class:`Agent` contract, still one env step per interval
      for the whole set).

    Returns ``None`` for agents the lockstep lift cannot reproduce
    bit for bit: exploring DRL agents (``epsilon > 0``).  Note the
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
    elif isinstance(agent, FSMPolicyAgent) and encoder.is_equivalent(agent.encoder):
        return CompiledFSMBackend(agent.compile())
    return AgentBatchBackend.from_agent(agent, encoder)
