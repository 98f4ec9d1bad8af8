"""Shared fixtures for the test suite.

Fixtures are deliberately small (short traces, few cores, tiny networks)
so the whole suite stays fast, and session-scoped where construction is
expensive (the trained tiny pipeline used by the FSM/interpretation
integration tests).
"""

from __future__ import annotations

import contextlib
import os

import numpy as np
import pytest

from repro import native

from repro.drl.a2c import A2CConfig
from repro.drl.curriculum import CurriculumConfig
from repro.drl.policy import PolicyConfig, RecurrentPolicyValueNet
from repro.drl import rollout
from repro.drl.rollout import BatchedRolloutCollector, Trajectory
from repro.engine import CompiledFSMPolicy
from repro.env.environment import StorageAllocationEnv
from repro.env.reward import RewardConfig
from repro.env.vector_env import VectorStorageAllocationEnv
from repro.fsm.machine import FiniteStateMachine
from repro.pipeline.learning_aided import LearningAidedPipeline, PipelineConfig
from repro.qbn.autoencoder import build_observation_qbn
from repro.qbn.quantize import code_key
from repro.qbn.trainer import QBNTrainingConfig
from repro.storage.simulator import StorageSystemConfig
from repro.storage.workload import WorkloadInterval, WorkloadTrace
from repro.storage.iorequest import NUM_IO_TYPES
from repro.storage.migration import NUM_ACTIONS, MigrationAction
from repro.utils.rng import episode_lanes
from repro.workloads.generator import GeneratorConfig, StandardWorkloadGenerator
from repro.workloads.sampler import RealTraceSampler, SamplerConfig


@pytest.fixture(scope="session")
def system_config() -> StorageSystemConfig:
    """The default simulated array configuration used across tests."""
    return StorageSystemConfig()


@pytest.fixture(scope="session")
def generator(system_config) -> StandardWorkloadGenerator:
    return StandardWorkloadGenerator(system_config, GeneratorConfig(), rng=123)


@pytest.fixture(scope="session")
def standard_suite(generator):
    """One short standard trace per profile."""
    return generator.generate_suite(duration=24, rng=7)


@pytest.fixture(scope="session")
def real_traces(standard_suite):
    """A handful of sampled 'real' traces."""
    sampler = RealTraceSampler(
        standard_suite,
        SamplerConfig(snippets_per_trace=2, min_snippet_length=8, max_snippet_length=12),
        rng=11,
    )
    return sampler.sample_many(4, rng=13)


@contextlib.contextmanager
def kernels_off(*names):
    """The named native kernels (every kernel when none is named) forced
    off inside the block: their numpy specifications run, as under
    ``REPRO_DISABLE_NATIVE=1``.  The way tests force a kernel off."""
    with pytest.MonkeyPatch.context() as patch:
        for name in names or native.status():
            native.kernel(name)  # probe first so the patch is what gets undone
            patch.setitem(native._kernels, name, None)
            patch.setitem(native._status, name, "disabled: forced off")
        yield


def unprobed(monkeypatch, name):
    """Forget kernel ``name``'s probe until the test ends: its next lookup
    loads and self-checks it again.  Every other kernel is probed first,
    so a test that then breaks the environment reports only ``name``."""
    native.status()
    monkeypatch.delitem(native._kernels, name, raising=False)
    monkeypatch.delitem(native._status, name, raising=False)


def native_or_skip(name):
    """Kernel ``name``'s wrapper.  Skips only where no kernel can load
    (``REPRO_DISABLE_NATIVE=1``, no compiler); a kernel that fails its
    self-check fails the test instead of skipping it."""
    if os.environ.get("REPRO_DISABLE_NATIVE") == "1":
        pytest.skip("REPRO_DISABLE_NATIVE=1")
    try:
        native.build(native._registry[name].source)
    except RuntimeError as exc:
        pytest.skip(f"no compiler: {exc}")
    verdict = native.status()[name]
    assert verdict == "ready", f"native kernel {name}: {verdict}"
    return native.kernel(name)


@pytest.fixture(params=["as_found", "fallback"])
def sampler_path(request):
    """Run once with the idle sampler as probed, once forced onto its fallback."""
    with kernels_off("philox") if request.param == "fallback" else contextlib.nullcontext():
        yield request.param


@pytest.fixture
def short_trace(real_traces) -> WorkloadTrace:
    return real_traces[0]


@pytest.fixture
def uniform_interval() -> WorkloadInterval:
    """An interval with a uniform IO mix and a moderate request count."""
    ratios = np.full(NUM_IO_TYPES, 1.0 / NUM_IO_TYPES)
    return WorkloadInterval(ratios, 5000.0)


@pytest.fixture
def env(system_config) -> StorageAllocationEnv:
    return StorageAllocationEnv(
        system_config, reward_config=RewardConfig(mode="per_step_penalty"), rng=3
    )


@pytest.fixture
def scalar_episode():
    """The oracle that is not the engine: one episode stepped on the scalar
    ``StorageAllocationEnv`` (reset / ``agent.act`` / ``env.step``).

    ``run(agent, trace, seed, system_config, reward_config=None)`` returns
    the finished env and the normalised observations, actions and rewards.
    """

    def run(agent, trace, seed, system_config, reward_config=None):
        env = StorageAllocationEnv(system_config, reward_config=reward_config)
        observation = env.reset(trace, rng=seed)
        agent.reset()
        observations, actions, rewards = [], [], []
        while True:
            action = agent.act(observation)
            observations.append(env.observation_encoder.normalize(observation))
            actions.append(int(action))
            step = env.step(action)
            rewards.append(step.reward)
            observation = step.observation
            if step.done:
                return env, np.stack(observations), np.array(actions), np.array(rewards)

    return run


@pytest.fixture
def collector(system_config) -> BatchedRolloutCollector:
    """The rollout collector on the ``env`` fixture's configuration.

    Its episodes take episode seeds 0, 1, ... in the order it runs them;
    one-trace ``collect_batch`` calls are the sequential view (B = 1).
    """
    return BatchedRolloutCollector(
        VectorStorageAllocationEnv(system_config, RewardConfig(mode="per_step_penalty")),
        rng=0,
    )


def collect_with_cursors(collector, policy, traces, chunk=None, **options):
    """``traces`` collected on ``collector``, ``chunk`` at a time (``None``:
    one ``collect_batch`` call), with where every episode's lanes ended.

    Returns the trajectories and one ``(idle cursor, action cursor)`` per
    episode: the final cursors of its simulator and action lanes.
    """
    made = []

    def recording(seeds, domain):
        made.append(episode_lanes(seeds, domain))
        return made[-1]

    chunk = chunk or len(traces)
    trajectories, idle, action = [], [], []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(rollout, "episode_lanes", recording)
        for start in range(0, len(traces), chunk):
            trajectories += collector.collect_batch(policy, traces[start:start + chunk], **options)
            idle += collector.vector_env.simulator_state._streams._cursors.tolist()
            action += made[-1]._cursors.tolist()
    return trajectories, list(zip(idle, action))


def fill_every_cell(fsm, rng: np.random.Generator) -> None:
    """Give each (state, prototype code) cell without a transition a random successor."""
    states = list(fsm.states)
    for state in states:
        for observation in fsm.observation_prototypes:
            if (state, observation) not in fsm.transitions:
                fsm.add_transition(state, observation, states[int(rng.integers(len(states)))])


def random_compiled_fsm(encoder, stream: np.ndarray):
    """A compiled random 4-state machine over the codes of ``stream``'s first rows.

    ``stream`` holds raw observation rows; the first five, normalised by
    ``encoder``, are the prototypes of a random observation QBN's codes,
    and every (state, prototype code) cell gets a random successor.
    """
    rng = np.random.default_rng(3)
    qbn = build_observation_qbn(stream.shape[1], latent_dim=6, hidden_dim=16, rng=4)
    fsm = FiniteStateMachine()
    codes = []
    while len(codes) < 4:
        code = tuple(int(c) for c in rng.integers(0, 3, size=5))
        if code not in fsm.states:
            state = fsm.add_state(code, MigrationAction(int(rng.integers(NUM_ACTIONS))))
            state.visit_count = int(rng.integers(20))
            codes.append(code)
    for vector in encoder.normalize_batch(stream)[:5]:
        key = code_key(qbn.discrete_code(vector))
        if key not in fsm.observation_prototypes:
            fsm.observation_prototypes[key] = np.asarray(vector, float)
    fill_every_cell(fsm, rng)
    fsm.initial_state = codes[1]
    fsm.validate()
    return CompiledFSMPolicy.compile(fsm, qbn, encoder=encoder)


@pytest.fixture
def make_trajectory():
    """Hand-build a :class:`Trajectory` carrying ``rewards`` (other columns zero)."""

    def build(rewards, trace_name: str = "t") -> Trajectory:
        steps = len(rewards)
        columns = np.zeros((steps, 2))
        return Trajectory(
            trace_name,
            observations=columns,
            raw_observations=columns,
            hidden_before=columns,
            hidden_after=columns,
            actions=np.zeros(steps, dtype=int),
            rewards=np.asarray(rewards, dtype=float),
            value_estimates=np.zeros(steps),
        )

    return build


@pytest.fixture
def tiny_policy() -> RecurrentPolicyValueNet:
    return RecurrentPolicyValueNet(PolicyConfig(hidden_size=16), rng=5)


@pytest.fixture(scope="session")
def tiny_pipeline_config() -> PipelineConfig:
    """A pipeline configuration small enough for integration tests."""
    return PipelineConfig(
        system=StorageSystemConfig(),
        generator=GeneratorConfig(target_load=1.0),
        sampler=SamplerConfig(snippets_per_trace=2, min_snippet_length=8, max_snippet_length=12),
        reward=RewardConfig(mode="per_step_penalty", step_penalty=0.05),
        policy=PolicyConfig(hidden_size=16),
        a2c=A2CConfig(learning_rate=1e-3),
        curriculum=CurriculumConfig(standard_epochs=3, real_epochs=3),
        qbn=QBNTrainingConfig(epochs=3, observation_latent_dim=8, hidden_latent_dim=8,
                              batch_size=128),
        standard_trace_duration=16,
        num_real_traces=4,
        num_eval_traces=2,
        rollout_traces_for_extraction=2,
        seed=42,
    )


@pytest.fixture
def tiny_sweep_base() -> dict:
    """Sweep job parameters that shrink one design run to a fraction of a second."""
    return {
        "curriculum.standard_epochs": 1,
        "curriculum.real_epochs": 1,
        # At 8 hidden units the one-epoch hidden QBN collapses every seed's
        # codes into one state, and extraction refuses the machine.
        "policy.hidden_size": 16,
        "standard_trace_duration": 8,
        "num_real_traces": 3,
        "num_eval_traces": 1,
        "sampler.snippets_per_trace": 2,
        "sampler.min_snippet_length": 4,
        "sampler.max_snippet_length": 6,
        "bc_pretrain_epochs": 0,
        "rollout_traces_for_extraction": 1,
        "qbn.epochs": 1,
        "qbn.observation_latent_dim": 4,
        "qbn.hidden_latent_dim": 4,
    }


@pytest.fixture(scope="session")
def tiny_pipeline_result(tiny_pipeline_config):
    """A fully-run (tiny) pipeline shared by FSM/interpretation integration tests."""
    pipeline = LearningAidedPipeline(tiny_pipeline_config)
    return pipeline.run()
