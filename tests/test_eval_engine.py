"""Equivalence pins for the lockstep evaluation engine.

The contract under test: evaluating any backend through
:class:`repro.engine.evaluation.EvaluationEngine` in one lockstep batch
is **bit-identical** to the same episodes one at a time on the scalar
``StorageAllocationEnv``, a loop the engine has no part in
(``conftest.scalar_episode``) — same makespans, same total rewards
(exact float equality), same interval records, same trace order — for
every backend kind: per-slot heuristic replicas, the interpreted FSM
agent, the compiled FSM tables and the greedy GRU.  Plus the routing
rules of :func:`repro.engine.evaluation.backend_for_agent`.
"""

from __future__ import annotations

import ast
import dataclasses
from pathlib import Path

import numpy as np
import pytest

from repro.agents.default import DefaultPolicy
from repro.agents.greedy import GreedyUtilizationPolicy
from repro.agents.handcrafted import HandcraftedFSMPolicy
from repro.agents.proportional import ProportionalAllocationPolicy
from repro.drl.agent import DRLPolicyAgent
from repro.engine.backends import (
    AgentBatchBackend,
    CompiledFSMBackend,
    GRUPolicyBackend,
)
from repro.drl.imitation import BehaviorCloningTrainer, _RecordingBackend
from repro.drl.policy import PolicyConfig, RecurrentPolicyValueNet
from repro.drl.rollout import BatchedRolloutCollector
from repro.engine.evaluation import EvaluationEngine, backend_for_agent
from repro.env.observation import ObservationEncoder
from repro.env.reward import RewardConfig
from repro.env.vector_env import VectorStorageAllocationEnv
from repro.errors import ConfigurationError
from repro.pipeline.evaluation import compare_agents
from repro.pipeline.learning_aided import LearningAidedPipeline
from repro.storage.simulator import StorageSystemConfig
from conftest import assert_matches_scalar, scalar_episode


def assert_results_identical(engine_result, reference):
    """Exact (not approximate) equality of every per-trace number."""
    assert engine_result.trace_names == reference.trace_names
    assert engine_result.makespans == reference.makespans
    assert engine_result.total_rewards == reference.total_rewards
    assert len(engine_result.episodes) == len(reference.episodes)


@pytest.fixture(scope="module")
def suite_traces(standard_suite):
    """The 12 standard-profile traces as a list."""
    traces = list(standard_suite.values())
    assert len(traces) == 12
    return traces


class TestEngineBitIdentity:
    def test_heuristics_bit_identical_across_profiles(self, suite_traces, system_config):
        agents = [
            DefaultPolicy(),
            GreedyUtilizationPolicy(),
            ProportionalAllocationPolicy(system_config),
            HandcraftedFSMPolicy(),
        ]
        routed = compare_agents(agents, suite_traces, episode_seed=5)
        for agent in agents:
            assert_matches_scalar(routed[agent.name], agent, suite_traces, 5, system_config)

    def test_greedy_gru_bit_identical_across_profiles(
        self, suite_traces, system_config, tiny_policy
    ):
        agent = DRLPolicyAgent(tiny_policy, ObservationEncoder(system_config))
        routed = compare_agents([agent], suite_traces, episode_seed=9)
        assert_matches_scalar(routed[agent.name], agent, suite_traces, 9, system_config)

    def test_interpreted_fsm_replicas_bit_identical(
        self, suite_traces, tiny_pipeline_result, env, system_config
    ):
        agent = tiny_pipeline_result.fsm_agent(env)
        engine = EvaluationEngine()
        lifted = engine.evaluate(
            AgentBatchBackend.from_agent(agent, engine.encoder),
            suite_traces,
            episode_seed=2,
            agent_name=agent.name,
        )
        assert_matches_scalar(lifted, agent, suite_traces, 2, system_config)

    def test_compiled_fsm_bit_identical(
        self, suite_traces, tiny_pipeline_result, env, system_config
    ):
        agent = tiny_pipeline_result.fsm_agent(env)
        engine = EvaluationEngine()
        compiled = engine.evaluate(
            CompiledFSMBackend(agent.compile()),
            suite_traces,
            episode_seed=2,
            agent_name=agent.name,
        )
        assert_matches_scalar(compiled, agent, suite_traces, 2, system_config)

    def test_unbatched_compare_agents_matches_batched(self, suite_traces):
        """B = 12 lockstep equals twelve B = 1 calls, trace ``i`` at seed ``1 + i``."""
        agents = [DefaultPolicy(), GreedyUtilizationPolicy()]
        batched = compare_agents(agents, suite_traces, episode_seed=1)
        for index, trace in enumerate(suite_traces):
            alone = compare_agents(agents, [trace], episode_seed=1 + index)
            for agent in agents:
                row = batched[agent.name]
                assert alone[agent.name].trace_names == [row.trace_names[index]]
                assert alone[agent.name].makespans == [row.makespans[index]]
                assert alone[agent.name].total_rewards == [row.total_rewards[index]]


@pytest.fixture(scope="module")
def ragged_traces(suite_traces):
    """The 12 profiles cut to 12 different lengths (24, 22, ..., 2 intervals)."""
    return [
        dataclasses.replace(trace, intervals=trace.intervals[: 24 - 2 * index])
        for index, trace in enumerate(suite_traces)
    ]


class _CountingBackend:
    """A backend wrapper that records how many rows each ``decide`` got."""

    def __init__(self, inner):
        self.inner = inner
        self.name = inner.name
        self.reads_raw = getattr(inner, "reads_raw", False)
        self.rows = []

    def check_encoder(self, encoder):
        if hasattr(self.inner, "check_encoder"):
            self.inner.check_encoder(encoder)

    def session_table(self, capacity):
        return self.inner.session_table(capacity)

    def begin_sessions(self, table, slots):
        self.inner.begin_sessions(table, slots)

    def end_sessions(self, table, slots):
        if hasattr(self.inner, "end_sessions"):
            self.inner.end_sessions(table, slots)

    def decide(self, table, slots, raw, normalized):
        self.rows.append(len(slots))
        return self.inner.decide(table, slots, raw, normalized)


class TestEvaluateMany:
    """``evaluate_many`` (one lockstep batch, one trace-set copy per backend)
    against one ``evaluate`` per backend: every number bit for bit."""

    @staticmethod
    def _backends(encoder, policy, fsm_agent):
        return {
            "gru": GRUPolicyBackend(policy),
            "compiled_fsm": CompiledFSMBackend(fsm_agent.compile()),
            "interpreted_fsm": AgentBatchBackend.from_agent(fsm_agent, encoder),
            "heuristic": AgentBatchBackend.from_agent(GreedyUtilizationPolicy(), encoder),
            "recording": _RecordingBackend.from_agent(HandcraftedFSMPolicy(), encoder),
        }

    def test_each_group_is_its_backend_alone(
        self, ragged_traces, tiny_policy, tiny_pipeline_result, env
    ):
        fsm_agent = tiny_pipeline_result.fsm_agent(env)
        engine = EvaluationEngine()
        batched_backends = {
            name: _CountingBackend(backend)
            for name, backend in self._backends(engine.encoder, tiny_policy, fsm_agent).items()
        }
        batched = engine.evaluate_many(batched_backends, ragged_traces, episode_seed=3)
        assert list(batched) == list(batched_backends)
        makespans = set()
        for name, backend in self._backends(engine.encoder, tiny_policy, fsm_agent).items():
            alone = engine.evaluate(backend, ragged_traces, episode_seed=3, agent_name=name)
            together = batched[name]
            assert together.agent_name == name
            assert_results_identical(together, alone)
            for ours, theirs in zip(together.episodes, alone.episodes):
                assert ours.trace_name == theirs.trace_name
                assert ours.truncated == theirs.truncated
                assert ours.intervals == theirs.intervals
            # Each backend decided exactly its own active rows, and a
            # finished group was never asked.
            rows = batched_backends[name].rows
            assert min(rows) > 0 and sum(rows) == sum(together.makespans)
            makespans.add(tuple(together.makespans))
            if name == "recording":
                recorded = batched_backends[name].inner.episodes.values()
                for (observations, actions), (ref_observations, ref_actions) in zip(
                    recorded, backend.episodes.values()
                ):
                    assert np.stack(observations).tobytes() == np.stack(ref_observations).tobytes()
                    assert actions == ref_actions
        # The groups finish at different steps, so a finished group coexists
        # with live ones.
        assert len(makespans) > 1
        assert len({len(trace) for trace in ragged_traces}) == 12

    @pytest.mark.parametrize(
        "make_agent",
        [
            DefaultPolicy,
            lambda: DRLPolicyAgent(
                RecurrentPolicyValueNet(PolicyConfig(hidden_size=4), rng=0),
                ObservationEncoder(StorageSystemConfig()),
            ),
        ],
    )
    def test_compare_agents_refuses_repeated_names(self, monkeypatch, make_agent):
        def no_episodes(*args, **kwargs):
            raise AssertionError("an episode ran before the names were checked")

        monkeypatch.setattr(EvaluationEngine, "evaluate_many", no_episodes)
        agents = [make_agent(), GreedyUtilizationPolicy(), make_agent()]
        with pytest.raises(ConfigurationError, match=agents[0].name):
            compare_agents(agents, [object()])

    def test_evaluate_many_needs_a_backend(self, suite_traces):
        with pytest.raises(ConfigurationError):
            EvaluationEngine().evaluate_many({}, suite_traces)

    def test_one_backend_under_two_names_is_refused(self, suite_traces, monkeypatch):
        """Its per-session state is keyed by slot and both groups' tables
        hand out the same slots, so the groups would share replicas."""
        engine = EvaluationEngine()
        backend = AgentBatchBackend(HandcraftedFSMPolicy, engine.encoder)

        def no_reset(*args, **kwargs):
            raise AssertionError("an episode was reset before the backends were checked")

        monkeypatch.setattr(engine.vector_env, "reset", no_reset)
        with pytest.raises(ConfigurationError, match="backend object"):
            engine.evaluate_many({"x": backend, "y": backend}, suite_traces[:4])


class TestCollectorMatchesEngine:
    """Rollout collection and evaluation are one lockstep loop."""

    def test_greedy_collection_is_the_engine_evaluation(
        self, ragged_traces, system_config, tiny_policy
    ):
        collector = BatchedRolloutCollector(VectorStorageAllocationEnv(system_config), rng=4)
        trajectories = collector.collect_batch(tiny_policy, ragged_traces, greedy=True)
        evaluation = EvaluationEngine(system_config).evaluate(
            GRUPolicyBackend(tiny_policy), ragged_traces, episode_seed=4
        )
        assert [t.trace_name for t in trajectories] == evaluation.trace_names
        assert [t.makespan for t in trajectories] == evaluation.makespans
        assert [t.total_reward for t in trajectories] == evaluation.total_rewards
        assert len(set(evaluation.makespans)) > 1


class TestScalarOracle:
    """The engine against an oracle that is not the engine."""

    REWARD = RewardConfig(mode="per_step_penalty", step_penalty=0.05)

    def _assert_matches_oracle(self, agent, traces, system_config):
        """The engine over ``agent``'s replicas equals its scalar loop."""
        engine = EvaluationEngine(system_config, self.REWARD)
        result = engine.evaluate(
            AgentBatchBackend.from_agent(agent, engine.encoder), traces, episode_seed=6
        )
        assert_matches_scalar(result, agent, traces, 6, system_config, self.REWARD)

    def test_heuristic_matches_scalar_env(self, suite_traces, system_config):
        self._assert_matches_oracle(GreedyUtilizationPolicy(), suite_traces, system_config)

    def test_drl_agent_matches_scalar_env(self, suite_traces, system_config, tiny_policy):
        agent = DRLPolicyAgent(tiny_policy, ObservationEncoder(system_config))
        self._assert_matches_oracle(agent, suite_traces[:4], system_config)

    @pytest.mark.parametrize(
        "make_teacher",
        [
            lambda config: GreedyUtilizationPolicy(),
            lambda config: HandcraftedFSMPolicy(),
            lambda config: ProportionalAllocationPolicy(config),
        ],
        ids=["greedy_utilization", "handcrafted_fsm", "proportional_allocation"],
    )
    def test_demonstrations_match_scalar_env(self, suite_traces, system_config, make_teacher):
        demonstrations = BehaviorCloningTrainer(system_config).collect_demonstrations(
            make_teacher(system_config), suite_traces, episode_seed=4
        )
        assert [d.trace_name for d in demonstrations] == [t.name for t in suite_traces]
        teacher = make_teacher(system_config)
        for index, (trace, demo) in enumerate(zip(suite_traces, demonstrations)):
            env, observations, actions, _rewards = scalar_episode(
                teacher, trace, 4 + index, system_config
            )
            assert demo.observations.tobytes() == observations.tobytes()
            assert demo.observations.shape == observations.shape
            assert demo.actions.tolist() == actions.tolist()
            assert demo.makespan == env.simulator.makespan

    def test_only_make_env_reaches_the_scalar_env(self):
        """Under ``src/repro`` the scalar env is a public view, not a stage:
        besides the two package exports, only ``LearningAidedPipeline.make_env``
        imports it."""
        package = Path(__file__).resolve().parents[1] / "src" / "repro"
        importers = set()
        for path in package.rglob("*.py"):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if not isinstance(node, (ast.Import, ast.ImportFrom)):
                    continue
                names = {alias.name for alias in node.names}
                module = getattr(node, "module", None)
                if (
                    module == "repro.env.environment"
                    or "repro.env.environment" in names
                    or (
                        module == "repro.env"
                        and names & {"StorageAllocationEnv", "StepResult", "environment"}
                    )
                ):
                    importers.add(path.relative_to(package).as_posix())
        assert importers == {"__init__.py", "env/__init__.py", "pipeline/learning_aided.py"}


class TestBackendRouting:
    def test_greedy_drl_routes_to_gru_backend(self, system_config, tiny_policy):
        encoder = ObservationEncoder(system_config)
        agent = DRLPolicyAgent(tiny_policy, encoder)
        backend = backend_for_agent(agent, encoder)
        assert isinstance(backend, GRUPolicyBackend)
        assert backend.policy is tiny_policy

    def test_heuristic_routes_to_replica_backend(self, system_config):
        encoder = ObservationEncoder(system_config)
        backend = backend_for_agent(GreedyUtilizationPolicy(), encoder)
        assert isinstance(backend, AgentBatchBackend)
        assert backend.name == "greedy_utilization"

    def test_routable_fsm_agent_compiles(self, tiny_pipeline_result, env, system_config):
        agent = tiny_pipeline_result.fsm_agent(env)
        backend = backend_for_agent(agent, ObservationEncoder(system_config))
        assert isinstance(backend, CompiledFSMBackend)


class TestPipelineFidelityStage:
    def test_compiled_vs_interpreted_identical_in_pipeline(
        self, tiny_pipeline_config, tiny_pipeline_result
    ):
        pipeline = LearningAidedPipeline(tiny_pipeline_config)
        report = pipeline.verify_fidelity(tiny_pipeline_result, episode_seed=4)
        assert report.routable
        assert report.identical is True
        assert report.compiled.makespans == report.interpreted.makespans
        assert report.compiled.total_rewards == report.interpreted.total_rewards

    def test_pipeline_evaluate_matches_sequential(
        self, tiny_pipeline_config, tiny_pipeline_result
    ):
        pipeline = LearningAidedPipeline(tiny_pipeline_config)
        comparison = pipeline.evaluate(
            tiny_pipeline_result, baselines=[DefaultPolicy()], episode_seed=7
        )
        env = pipeline.make_env()
        for agent in (
            DefaultPolicy(),
            tiny_pipeline_result.drl_agent(env),
            tiny_pipeline_result.fsm_agent(env),
        ):
            assert_matches_scalar(
                comparison[agent.name],
                agent,
                tiny_pipeline_result.eval_traces,
                7,
                tiny_pipeline_config.system,
                tiny_pipeline_config.reward,
            )
