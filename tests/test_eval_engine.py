"""Equivalence pins for the lockstep evaluation engine.

The contract under test: evaluating any backend through
:class:`repro.engine.evaluation.EvaluationEngine` is **bit-identical**
to the sequential reference harness
(:func:`repro.pipeline.evaluation.evaluate_agent`) — same makespans,
same total rewards (exact float equality), same trace order — for every
backend kind: per-slot heuristic replicas, the interpreted FSM agent,
the compiled FSM tables and the greedy GRU.  Plus the routing rules of
:func:`repro.engine.evaluation.backend_for_agent`.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.agents.default import DefaultPolicy
from repro.agents.greedy import GreedyUtilizationPolicy
from repro.agents.handcrafted import HandcraftedFSMPolicy
from repro.agents.proportional import ProportionalAllocationPolicy
from repro.agents.random_agent import RandomPolicy
from repro.drl.agent import DRLPolicyAgent
from repro.engine.backends import (
    AgentBatchBackend,
    CompiledFSMBackend,
    GRUPolicyBackend,
)
from repro.engine.evaluation import EvaluationEngine, backend_for_agent
from repro.env.observation import ObservationEncoder
from repro.errors import ExtractionError
from repro.fsm.agent import FSMPolicyAgent
from repro.pipeline.evaluation import compare_agents, evaluate_agent
from repro.pipeline.learning_aided import LearningAidedPipeline


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
            reference = evaluate_agent(agent, suite_traces, episode_seed=5)
            assert_results_identical(routed[agent.name], reference)

    def test_greedy_gru_bit_identical_across_profiles(
        self, suite_traces, system_config, tiny_policy
    ):
        agent = DRLPolicyAgent(tiny_policy, ObservationEncoder(system_config))
        routed = compare_agents([agent], suite_traces, episode_seed=9)
        reference = evaluate_agent(agent, suite_traces, episode_seed=9)
        assert_results_identical(routed[agent.name], reference)

    def test_interpreted_fsm_replicas_bit_identical(
        self, suite_traces, tiny_pipeline_result, env
    ):
        agent = tiny_pipeline_result.fsm_agent(env)
        engine = EvaluationEngine()
        lifted = engine.evaluate(
            AgentBatchBackend.from_agent(agent, engine.encoder),
            suite_traces,
            episode_seed=2,
            agent_name=agent.name,
        )
        reference = evaluate_agent(agent, suite_traces, episode_seed=2)
        assert_results_identical(lifted, reference)

    def test_compiled_fsm_bit_identical(self, suite_traces, tiny_pipeline_result, env):
        agent = tiny_pipeline_result.fsm_agent(env)
        assert agent.compiled_routable()
        engine = EvaluationEngine()
        compiled = engine.evaluate(
            CompiledFSMBackend(agent.compile()),
            suite_traces,
            episode_seed=2,
            agent_name=agent.name,
        )
        reference = evaluate_agent(agent, suite_traces, episode_seed=2)
        assert_results_identical(compiled, reference)

    def test_unbatched_compare_agents_matches_batched(self, suite_traces):
        agents = [DefaultPolicy(), GreedyUtilizationPolicy()]
        batched = compare_agents(agents, suite_traces, episode_seed=1)
        for agent in agents:
            sequential = evaluate_agent(agent, suite_traces, episode_seed=1)
            assert_results_identical(batched[agent.name], sequential)


class TestBackendRouting:
    def test_greedy_drl_routes_to_gru_backend(self, system_config, tiny_policy):
        encoder = ObservationEncoder(system_config)
        agent = DRLPolicyAgent(tiny_policy, encoder)
        backend = backend_for_agent(agent, encoder)
        assert isinstance(backend, GRUPolicyBackend)
        assert backend.policy is tiny_policy

    def test_exploring_drl_falls_back_to_sequential(self, system_config, tiny_policy):
        encoder = ObservationEncoder(system_config)
        agent = DRLPolicyAgent(tiny_policy, encoder, epsilon=0.1, rng=3)
        assert backend_for_agent(agent, encoder) is None

    def test_random_agent_is_not_engine_safe(self, system_config):
        encoder = ObservationEncoder(system_config)
        assert RandomPolicy(rng=0).engine_safe is False
        assert backend_for_agent(RandomPolicy(rng=0), encoder) is None

    def test_heuristic_routes_to_replica_backend(self, system_config):
        encoder = ObservationEncoder(system_config)
        backend = backend_for_agent(GreedyUtilizationPolicy(), encoder)
        assert isinstance(backend, AgentBatchBackend)
        assert backend.name == "greedy_utilization"

    def test_routable_fsm_agent_compiles(self, tiny_pipeline_result, env, system_config):
        agent = tiny_pipeline_result.fsm_agent(env)
        backend = backend_for_agent(agent, ObservationEncoder(system_config))
        assert isinstance(backend, CompiledFSMBackend)

    def test_matcherless_fsm_with_prototypes_is_not_routable(
        self, tiny_pipeline_result, env
    ):
        # Without a matcher the interpreted agent self-loops on unseen
        # codes while the compiled tables would take nearest-prototype
        # fallback — the engine must keep the interpreted replica path.
        routable = tiny_pipeline_result.fsm_agent(env)
        assert routable.fsm.observation_prototypes
        agent = FSMPolicyAgent(
            routable.fsm,
            routable.observation_qbn,
            routable.encoder,
            matcher=None,
        )
        assert not agent.compiled_routable()
        with pytest.raises(ExtractionError):
            agent.compile()
        backend = backend_for_agent(agent, routable.encoder)
        assert isinstance(backend, AgentBatchBackend)
        assert not isinstance(backend, CompiledFSMBackend)


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
            reference = evaluate_agent(
                agent,
                tiny_pipeline_result.eval_traces,
                system_config=tiny_pipeline_config.system,
                reward_config=tiny_pipeline_config.reward,
                episode_seed=7,
            )
            assert_results_identical(comparison[agent.name], reference)
