"""Differential equivalence: compiled serving fast path vs interpreted FSM agent.

The property the serving subsystem stands on: for any machine and any
observation stream, ``CompiledFSMPolicy.act_batch`` over a batch of
concurrent sessions is **bit-identical** to stepping one
:class:`FSMPolicyAgent` per session — same actions, same state
trajectories, same unseen-observation fallbacks — regardless of batch
composition, session interleaving or slot reuse.  Exercised across
seeded random total machines (known codes, fallback-only prototypes,
one-prototype machines, unseen codes, missing start states) and
observation streams from *all* standard
workload profiles, plus the real artefacts of an extracted pipeline run.
``TestDistinctRowsBitwise`` pins the batch side of that: a batch that
repeats rows resolves exactly like its rows one at a time.
``TestRawRowsBitwise`` pins the raw-row contract: raw rows that differ
but normalise alike still decide like each row alone, and only backends
that need normalised rows get them from a consumer.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Dict, List, Tuple

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.agents.greedy import GreedyUtilizationPolicy
from repro.agents.handcrafted import HandcraftedFSMPolicy
from repro.drl.imitation import BehaviorCloningTrainer, _RecordingBackend
from repro.drl.policy import PolicyConfig, RecurrentPolicyValueNet
from repro.engine import compiled_fsm
from repro.env.environment import StorageAllocationEnv
from repro.env.observation import ObservationEncoder
from repro.env.reward import RewardConfig
from repro.fsm.agent import FSMPolicyAgent
from repro.fsm.machine import FiniteStateMachine
from repro.qbn.autoencoder import QuantizedBottleneckNetwork, build_observation_qbn
from repro.qbn.quantize import code_key
from repro.engine import (
    AgentBatchBackend,
    CompiledFSMBackend,
    CompiledFSMPolicy,
    GRUPolicyBackend,
)
from repro.serving import PolicyServer, ShadowEvaluator
from repro.storage.migration import NUM_ACTIONS, MigrationAction
from repro.storage.simulator import StorageSystemConfig
from repro.workloads.generator import GeneratorConfig, StandardWorkloadGenerator
from repro.workloads.profiles import profile_names

from conftest import fill_every_cell, scalar_episode

OBS_LATENT = 6
STATE_CODE_LEN = 5


@pytest.fixture(scope="module")
def profile_streams() -> Dict[str, np.ndarray]:
    """One short raw-observation stream per standard workload profile."""
    system = StorageSystemConfig()
    generator = StandardWorkloadGenerator(system, GeneratorConfig(), rng=0)
    rng = np.random.default_rng(17)
    streams: Dict[str, np.ndarray] = {}
    for name in profile_names():
        env = StorageAllocationEnv(
            system, reward_config=RewardConfig(mode="per_step_penalty"), rng=1
        )
        observation = env.reset(generator.generate(name, duration=14))
        rows = []
        while True:
            rows.append(observation.raw())
            result = env.step(MigrationAction(int(rng.integers(NUM_ACTIONS))))
            observation = result.observation
            if result.done:
                break
        streams[name] = np.array(rows)
    return streams


@pytest.fixture(scope="module")
def shared_encoder():
    return StorageAllocationEnv(StorageSystemConfig()).observation_encoder


def make_random_machine(
    seed: int,
    qbn: QuantizedBottleneckNetwork,
    known_vectors: np.ndarray,
    one_prototype: bool = False,
) -> FiniteStateMachine:
    """A seeded random total FSM over known and fallback-only prototype codes.

    With ``one_prototype`` the machine keeps only its first known code, so
    every other row falls back to that one prototype.  Codes the machine
    has no prototype for are unseen: both paths resolve them to their
    nearest prototype.
    """
    rng = np.random.default_rng(seed)
    fsm = FiniteStateMachine()
    codes: List[Tuple[int, ...]] = []
    while len(codes) < 2 + int(rng.integers(6)):
        code = tuple(int(c) for c in rng.integers(0, 3, size=STATE_CODE_LEN))
        if code not in fsm.states:
            state = fsm.add_state(code, MigrationAction(int(rng.integers(NUM_ACTIONS))))
            # Deliberately collision-heavy visit counts so the
            # most-visited start-state fallback exercises its tie-break.
            state.visit_count = int(rng.integers(3))
            codes.append(code)

    # Known codes: quantisations of real stream vectors, prototyped by
    # the vector itself (so serve-time codes actually hit them).
    for index in rng.choice(len(known_vectors), size=1 if one_prototype else 4, replace=False):
        vector = known_vectors[int(index)]
        fsm.observation_prototypes.setdefault(code_key(qbn.discrete_code(vector)), vector)
    if not one_prototype:
        # Fallback-only prototypes: random codes that serve-time
        # observations will (almost) never quantise to.
        for _ in range(3):
            key = tuple(int(c) for c in rng.integers(0, 3, size=qbn.config.latent_dim))
            fsm.observation_prototypes.setdefault(key, rng.normal(size=known_vectors.shape[1]))
    fill_every_cell(fsm, rng)
    if rng.random() < 0.5:
        fsm.initial_state = codes[int(rng.integers(len(codes)))]
    fsm.validate()
    return fsm


def make_agent(
    fsm: FiniteStateMachine, qbn: QuantizedBottleneckNetwork, encoder
) -> FSMPolicyAgent:
    agent = FSMPolicyAgent(fsm, qbn, encoder)
    agent.reset()
    return agent


class TestCompiledEquivalence:
    @pytest.mark.parametrize("seed", range(6))
    def test_lockstep_batch_matches_per_session_agents(
        self, seed, profile_streams, shared_encoder
    ):
        """One session per workload profile, stepped as one batch."""
        names = profile_names()
        sample = np.concatenate(
            [shared_encoder.normalize_batch(profile_streams[n][:4]) for n in names]
        )
        qbn = build_observation_qbn(35, latent_dim=OBS_LATENT, hidden_dim=16, rng=seed)
        fsm = make_random_machine(
            1000 + seed, qbn, sample, one_prototype=(seed % 3 == 2)
        )
        compiled = CompiledFSMPolicy.compile(fsm, qbn, encoder=shared_encoder)
        agents = {name: make_agent(fsm, qbn, shared_encoder) for name in names}

        length = min(len(profile_streams[n]) for n in names)
        states = np.full(len(names), compiled.start_state, dtype=np.int64)
        for step in range(length):
            raw = np.stack([profile_streams[name][step] for name in names])
            decision = compiled.act_batch(raw, states, shared_encoder)
            states = decision.next_states
            expected = [
                int(agents[name].act(shared_encoder.split_raw(profile_streams[name][step])))
                for name in names
            ]
            assert decision.actions.tolist() == expected, (seed, step)
        # State trajectories ended identically too (same rows = same codes).
        for column, name in enumerate(names):
            agent_state = agents[name]._state
            compiled_code = tuple(
                int(c) for c in compiled.state_codes[int(states[column])]
            )
            assert compiled_code == agent_state, (seed, name)
        # Fallback accounting agrees with the agents' unseen counters.
        assert compiled.fallback_count == sum(
            agents[name].unseen_observation_count for name in names
        )

    @pytest.mark.parametrize("seed", range(4))
    def test_interleaved_sessions_with_slot_reuse(
        self, seed, profile_streams, shared_encoder
    ):
        """Random interleaving, closes and reopens through a PolicyServer."""
        names = profile_names()
        driver = np.random.default_rng(500 + seed)
        sample = np.concatenate(
            [shared_encoder.normalize_batch(profile_streams[n][:3]) for n in names]
        )
        qbn = build_observation_qbn(35, latent_dim=OBS_LATENT, hidden_dim=16, rng=90 + seed)
        fsm = make_random_machine(2000 + seed, qbn, sample)
        compiled = CompiledFSMPolicy.compile(fsm, qbn, encoder=shared_encoder)
        server = PolicyServer(
            CompiledFSMBackend(compiled),
            shared_encoder,
            initial_capacity=4,  # force growth mid-run
        )

        # session id -> (profile, stream position, reference agent, actions)
        live: Dict[int, list] = {}

        def open_one(profile: str) -> None:
            session = server.open_session()
            assert session not in live
            live[session] = [profile, 0, make_agent(fsm, qbn, shared_encoder), [], []]

        for name in names:
            open_one(name)
        for _ in range(40):
            ids = sorted(live)
            chosen = [s for s in ids if driver.random() < 0.7] or ids[:1]
            raw = np.stack(
                [profile_streams[live[s][0]][live[s][1]] for s in chosen]
            )
            actions = server.decide_now(chosen, raw)
            for row, session in enumerate(chosen):
                profile, position, agent, served, expected = live[session]
                observation = shared_encoder.split_raw(
                    profile_streams[profile][position]
                )
                expected.append(int(agent.act(observation)))
                served.append(int(actions[row]))
                live[session][1] = (position + 1) % len(profile_streams[profile])
            # Occasionally retire a session and start a fresh one on a
            # random profile — the reused slot must behave like a brand
            # new machine, not inherit the dead session's state.
            if driver.random() < 0.4:
                victim = int(driver.choice(sorted(live)))
                profile, _pos, _agent, served, expected = live.pop(victim)
                assert served == expected, (seed, profile)
                server.close_sessions([victim])
                open_one(str(driver.choice(names)))
        for session, (profile, _pos, _agent, served, expected) in live.items():
            assert served == expected, (seed, profile)

    def test_equivalence_survives_fsm_save_load(self, profile_streams, shared_encoder, tmp_path):
        """A compiled artifact serves after save and load exactly as before."""
        names = profile_names()
        sample = np.concatenate(
            [shared_encoder.normalize_batch(profile_streams[n][:3]) for n in names]
        )
        qbn = build_observation_qbn(35, latent_dim=OBS_LATENT, hidden_dim=16, rng=77)
        fsm = make_random_machine(3000, qbn, sample)
        original = CompiledFSMPolicy.compile(fsm, qbn, encoder=shared_encoder)
        original.save(tmp_path / "fsm.npz")
        reloaded = CompiledFSMPolicy.load(tmp_path / "fsm.npz")
        states = np.full(len(names), original.start_state, dtype=np.int64)
        states_r = states.copy()
        for step in range(10):
            raw = np.stack(
                [profile_streams[n][step % len(profile_streams[n])] for n in names]
            )
            a = original.act_batch(raw, states, shared_encoder)
            b = reloaded.act_batch(raw, states_r, shared_encoder)
            states, states_r = a.next_states, b.next_states
            assert np.array_equal(a.actions, b.actions)
            assert np.array_equal(a.next_states, b.next_states)
            assert np.array_equal(a.fallback_mask, b.fallback_mask)

    def test_extracted_pipeline_artifacts_serve_identically(
        self, tiny_pipeline_result, env
    ):
        """The real thing: a trained run's FSM, compiled, vs its fsm_agent."""
        result = tiny_pipeline_result
        compiled = result.compiled_fsm_policy(env)
        eval_traces = result.eval_traces
        encoder = env.observation_encoder

        streams = []
        rng = np.random.default_rng(5)
        for trace in eval_traces:
            observation = env.reset(trace)
            rows = []
            while True:
                rows.append(observation.raw())
                step = env.step(MigrationAction(int(rng.integers(NUM_ACTIONS))))
                observation = step.observation
                if step.done:
                    break
            streams.append(np.array(rows))

        agents = [result.fsm_agent(env) for _ in streams]
        for agent in agents:
            agent.reset()
        length = min(len(s) for s in streams)
        states = np.full(len(streams), compiled.start_state, dtype=np.int64)
        for step in range(length):
            raw = np.stack([stream[step] for stream in streams])
            decision = compiled.act_batch(raw, states, encoder)
            states = decision.next_states
            expected = [
                int(agents[i].act(encoder.split_raw(streams[i][step])))
                for i in range(len(streams))
            ]
            assert decision.actions.tolist() == expected


def _serve_profiles(policy, streams, encoder):
    """Every profile's stream as one session of one batch: (actions, next
    states, fallbacks) per step."""
    names = profile_names()
    states = np.full(len(names), policy.start_state, dtype=np.int64)
    steps = []
    for step in range(min(len(streams[name]) for name in names)):
        raw = np.stack([streams[name][step] for name in names])
        decision = policy.act_batch(raw, states, encoder)
        states = decision.next_states
        steps.append((decision.actions.tolist(), states.tolist(), decision.fallback_mask.tolist()))
    return steps


class TestQuantiserPaths:
    """A host whose ``tanh`` fails the threshold check serves through the
    reference quantiser (``_latent_thresholds is None``): it must code
    like ``discrete_code`` and resolve like the threshold path."""

    def _twins(self, qbn, profile_streams, shared_encoder):
        sample = np.concatenate(
            [shared_encoder.normalize_batch(profile_streams[n][:4]) for n in profile_names()]
        )
        fsm = make_random_machine(5000, qbn, sample)
        threshold = CompiledFSMPolicy.compile(fsm, qbn, encoder=shared_encoder)
        reference = CompiledFSMPolicy.compile(fsm, qbn, encoder=shared_encoder)
        assert threshold._latent_thresholds is not None
        reference._latent_thresholds = None
        return threshold, reference

    def _assert_paths_agree(self, qbn, threshold, reference, raw, encoder):
        normalized = encoder.normalize_batch(raw)
        codes = qbn.discrete_code(normalized)
        assert np.array_equal(reference.encode_codes(normalized), codes)
        assert np.array_equal(threshold.encode_codes(normalized), codes)
        columns, fallback = threshold.resolve_observations(raw, encoder)
        ref_columns, ref_fallback = reference.resolve_observations(raw, encoder)
        assert np.array_equal(ref_columns, columns)
        assert np.array_equal(ref_fallback, fallback)
        return codes

    def test_random_rows(self, profile_streams, shared_encoder):
        qbn = build_observation_qbn(35, latent_dim=OBS_LATENT, hidden_dim=16, rng=21)
        threshold, reference = self._twins(qbn, profile_streams, shared_encoder)
        raw = np.concatenate([profile_streams[n] for n in profile_names()])
        noisy = raw * np.random.default_rng(5).uniform(0.5, 1.5, raw.shape)
        self._assert_paths_agree(qbn, threshold, reference, np.concatenate([raw, noisy]), shared_encoder)

    def test_pre_activations_one_ulp_around_each_threshold(self, profile_streams, shared_encoder):
        """A zero latent weight makes each latent pre-activation its bias:
        every threshold, and the floats on either side of it, once a row."""
        qbn = build_observation_qbn(35, latent_dim=OBS_LATENT, hidden_dim=16, rng=22)
        thresholds = compiled_fsm._tanh_code_thresholds(qbn.config.quantization_levels)
        qbn.encoder_latent.weight.data[...] = 0.0
        qbn.encoder_latent.bias.data[...] = [
            value
            for threshold in thresholds
            for value in (np.nextafter(threshold, -np.inf), threshold, np.nextafter(threshold, np.inf))
        ]
        threshold, reference = self._twins(qbn, profile_streams, shared_encoder)
        raw = np.concatenate([profile_streams[n][:3] for n in profile_names()])
        codes = self._assert_paths_agree(qbn, threshold, reference, raw, shared_encoder)
        assert (codes == [0, 1, 1, 1, 2, 2]).all()


class TestWideCodes:
    """k**L >= 2**62 (L >= 40 at k = 3, the paper's L = 64 included)
    cannot pack a code into an int64: the bytes-keyed lookup serves."""

    @pytest.mark.parametrize("latent", [40, 64])
    def test_bytes_keyed_lookup_matches_agents_and_survives_save_load(
        self, latent, profile_streams, shared_encoder, tmp_path
    ):
        names = profile_names()
        sample = np.concatenate(
            [shared_encoder.normalize_batch(profile_streams[n][:4]) for n in names]
        )
        qbn = build_observation_qbn(35, latent_dim=latent, hidden_dim=16, rng=latent)
        fsm = make_random_machine(6000 + latent, qbn, sample)
        compiled = CompiledFSMPolicy.compile(fsm, qbn, encoder=shared_encoder)
        assert compiled._pack_vector is None and compiled._code_to_column is not None

        served = _serve_profiles(compiled, profile_streams, shared_encoder)
        agents = [make_agent(fsm, qbn, shared_encoder) for _ in names]
        for step, (actions, _states, _fallback) in enumerate(served):
            expected = [
                int(agent.act(shared_encoder.split_raw(profile_streams[name][step])))
                for agent, name in zip(agents, names)
            ]
            assert actions == expected, step
        unseen = sum(agent.unseen_observation_count for agent in agents)
        assert compiled.fallback_count == unseen > 0
        assert any(any(not row for row in fallback) for _, _, fallback in served)

        compiled.save(tmp_path / "wide.npz")
        reloaded = CompiledFSMPolicy.load(tmp_path / "wide.npz")
        assert _serve_profiles(reloaded, profile_streams, shared_encoder) == served


@pytest.fixture(scope="module")
def row_pool(profile_streams) -> np.ndarray:
    """Real raw observation rows, then copies of one of them salted with near misses."""
    real = np.concatenate([profile_streams[n][:6] for n in profile_names()])
    salted = np.tile(real[0], (8, 1))
    salted[0, 3], salted[1, 3] = 0.0, -0.0
    salted[2, 5] = np.nan
    salted[3, 5:6] = np.array([0x7FF8_0000_0000_0001], dtype=np.uint64).view(np.float64)
    salted[4, 7], salted[5, 7] = np.inf, -np.inf
    salted[6, 9] = np.nextafter(real[0, 9], np.inf)
    salted[7, 9] = np.nextafter(real[0, 9], -np.inf)
    pool = np.concatenate([real, salted])
    # Every salted row differs from the others by its bytes alone.
    assert len(np.unique(pool[-8:].view(np.uint64), axis=0)) == 8
    return pool


@pytest.fixture(scope="module", params=[False, True], ids=["prototypes", "one-prototype"])
def dedup_policy(request, row_pool, shared_encoder):
    qbn = build_observation_qbn(35, latent_dim=OBS_LATENT, hidden_dim=16, rng=11)
    known = shared_encoder.normalize_batch(row_pool[:-8])
    fsm = make_random_machine(4000, qbn, known, one_prototype=request.param)
    return CompiledFSMPolicy.compile(fsm, qbn, encoder=shared_encoder)


def _representatives(policy, batch: np.ndarray) -> int:
    """How many rows of ``batch`` the policy encodes; checks they regroup to it."""
    first, inverse = compiled_fsm._distinct_rows(batch, policy._row_hash_weights)
    assert batch[first][inverse].tobytes() == batch.tobytes()
    return len(first)


def _assert_equals_rows_alone(policy, encoder, batch, states):
    """Raw ``batch`` resolves and steps exactly like its rows one at a time."""
    with np.errstate(all="ignore"):
        count = policy.fallback_count
        columns, fallback = policy.resolve_observations(batch, encoder)
        batch_delta = policy.fallback_count - count
        alone = [policy.resolve_observations(row[None], encoder) for row in batch]
        alone_delta = policy.fallback_count - count - batch_delta
        decision = policy.act_batch(batch, states, encoder)
        steps = [
            policy.act_batch(row[None], state[None], encoder)
            for row, state in zip(batch, states)
        ]
    assert columns.dtype == np.int64 and fallback.dtype == bool
    np.testing.assert_array_equal(columns, np.concatenate([c for c, _ in alone]))
    np.testing.assert_array_equal(fallback, np.concatenate([f for _, f in alone]))
    assert batch_delta == alone_delta == int(fallback.sum())
    np.testing.assert_array_equal(
        decision.next_states, np.concatenate([s.next_states for s in steps])
    )
    np.testing.assert_array_equal(
        decision.actions, np.concatenate([s.actions for s in steps])
    )


class TestDistinctRowsBitwise:
    """A batch resolves exactly like its rows one at a time.

    ``resolve_observations`` normalises and encodes each distinct raw row
    of a batch once and gathers the answers back; a B = 1 call has
    nothing to share, so the stacked B = 1 calls are the reference —
    columns, fallback masks, ``fallback_count`` and the ``act_batch``
    successors.
    """

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_batch_equals_stacked_single_rows(
        self, dedup_policy, row_pool, shared_encoder, data
    ):
        pool = data.draw(
            st.lists(st.integers(0, len(row_pool) - 1), min_size=1, max_size=40, unique=True),
            label="pool",
        )
        picks = data.draw(st.lists(st.sampled_from(pool), min_size=1, max_size=300), label="batch")
        seed = data.draw(st.integers(0, 2**32 - 1), label="states seed")
        batch = row_pool[picks]
        states = np.random.default_rng(seed).integers(dedup_policy.num_states, size=len(picks))
        distinct = len(np.unique(batch.view(np.uint64), axis=0))
        assert _representatives(dedup_policy, batch) == distinct
        _assert_equals_rows_alone(dedup_policy, shared_encoder, batch, states)

    def test_one_distinct_row(self, dedup_policy, row_pool, shared_encoder):
        """Seven copies: one representative, through the padded M = 1 matmul."""
        for row in row_pool[[0, -8, -7, -6, -4, -1]]:
            batch = np.tile(row, (7, 1))
            assert _representatives(dedup_policy, batch) == 1
            states = np.arange(7) % dedup_policy.num_states
            _assert_equals_rows_alone(dedup_policy, shared_encoder, batch, states)

    def test_all_rows_distinct(self, dedup_policy, row_pool, shared_encoder):
        distinct = np.unique(row_pool.view(np.uint64), axis=0).view(np.float64)
        batch = distinct[np.random.default_rng(1).permutation(len(distinct))]
        assert _representatives(dedup_policy, batch) == len(batch)
        states = np.arange(len(batch)) % dedup_policy.num_states
        _assert_equals_rows_alone(dedup_policy, shared_encoder, batch, states)

    def test_single_row(self, dedup_policy, row_pool, shared_encoder):
        for index in range(len(row_pool)):
            _assert_equals_rows_alone(
                dedup_policy,
                shared_encoder,
                row_pool[index : index + 1],
                np.array([dedup_policy.start_state]),
            )

    def test_rows_wider_than_the_byte_accumulator(self):
        """Rows 300 wide that differ in exactly 256 columns stay apart."""
        rows = np.zeros((3, 300))
        rows[1, :256] = 1.0
        weights = np.cumprod(np.full(300, compiled_fsm._ROW_HASH_MULTIPLIER, dtype=np.uint64))
        first, inverse = compiled_fsm._distinct_rows(rows, weights)
        assert rows[first][inverse].tobytes() == rows.tobytes()
        assert len(first) == 2 and inverse[0] == inverse[2] != inverse[1]

    def test_every_hash_colliding_changes_nothing(
        self, dedup_policy, row_pool, shared_encoder, monkeypatch
    ):
        """The hash only orders rows: with every row colliding, the groups
        are still runs of byte-equal rows and every answer stays the same."""
        zeros = np.zeros(dedup_policy.observation_dim, dtype=np.uint64)
        monkeypatch.setattr(dedup_policy, "_row_hash_weights", zeros)
        rng = np.random.default_rng(3)
        for size in (2, 17, 300):
            batch = row_pool[rng.integers(len(row_pool), size=size)]
            _representatives(dedup_policy, batch)
            states = rng.integers(dedup_policy.num_states, size=size)
            _assert_equals_rows_alone(dedup_policy, shared_encoder, batch, states)


@pytest.fixture(scope="module")
def twin_pool(profile_streams, shared_encoder) -> np.ndarray:
    """Raw rows plus twins that differ in bytes but normalise alike.

    Utilisation 1.2 and 3.0 clip to the same 1.0; ``0.0`` and ``-0.0`` in
    a clipped column stay apart in bytes yet compare equal.
    """
    real = np.concatenate([profile_streams[n][:2] for n in profile_names()])
    base = real[:6]
    twins = []
    for column, values in ((3, (1.2, 3.0)), (4, (0.0, -0.0))):
        for value in values:
            twin = base.copy()
            twin[:, column] = value
            twins.append(twin)
    pool = np.concatenate([real] + twins)
    over, far, zero, negative_zero = (shared_encoder.normalize_batch(t) for t in twins)
    assert over.tobytes() == far.tobytes() and twins[0].tobytes() != twins[1].tobytes()
    assert np.array_equal(zero, negative_zero) and twins[2].tobytes() != twins[3].tobytes()
    return pool


@pytest.fixture(scope="module")
def small_gru():
    return RecurrentPolicyValueNet(PolicyConfig(hidden_size=8), rng=3)


@contextmanager
def _normalize_spy():
    """Row counts of every ``ObservationEncoder.normalize_batch`` call."""
    calls: List[int] = []
    original = ObservationEncoder.normalize_batch

    def spy(self, raw_matrix, out=None):
        calls.append(len(raw_matrix))
        return original(self, raw_matrix, out=out)

    ObservationEncoder.normalize_batch = spy
    try:
        yield calls
    finally:
        ObservationEncoder.normalize_batch = original


def _duplicate_heavy(data, pool: np.ndarray) -> np.ndarray:
    """A batch drawn from at most 8 pool rows, so most rows repeat."""
    chosen = data.draw(
        st.lists(st.integers(0, len(pool) - 1), min_size=1, max_size=8, unique=True),
        label="rows",
    )
    picks = data.draw(st.lists(st.sampled_from(chosen), min_size=1, max_size=200), label="batch")
    return pool[picks]


class TestRawRowsBitwise:
    """Consumers hand raw rows to backends that ``reads_raw``.

    The compiled FSM deduplicates raw rows and normalises the distinct
    ones itself, so raw twins that normalise alike resolve as two groups
    with one answer; consumers skip the broker-side normalisation for it
    and for the agent lift, and keep it for the GRU, for a shadow pair
    with a GRU in it, and for BC demonstrations.
    """

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_raw_batch_equals_rows_alone(self, dedup_policy, twin_pool, shared_encoder, data):
        batch = _duplicate_heavy(data, twin_pool)
        seed = data.draw(st.integers(0, 2**32 - 1), label="states seed")
        states = np.random.default_rng(seed).integers(dedup_policy.num_states, size=len(batch))
        _assert_equals_rows_alone(dedup_policy, shared_encoder, batch, states)

    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_only_normalised_readers_get_normalised_rows(
        self, dedup_policy, twin_pool, shared_encoder, small_gru, data
    ):
        batch = _duplicate_heavy(data, twin_pool)
        rows, distinct = len(batch), len(np.unique(batch.view(np.uint64), axis=0))
        cases = {
            "fsm": (CompiledFSMBackend(dedup_policy), [distinct]),
            "agent": (
                AgentBatchBackend(GreedyUtilizationPolicy, shared_encoder),
                [],
            ),
            "gru": (GRUPolicyBackend(small_gru), [rows]),
            "shadow": (
                ShadowEvaluator(CompiledFSMBackend(dedup_policy), GRUPolicyBackend(small_gru)),
                [rows, distinct],
            ),
        }
        actions = {}
        for name, (backend, expected_calls) in cases.items():
            server = PolicyServer(backend, shared_encoder, initial_capacity=rows)
            sessions = server.open_sessions(rows)
            received = []
            decide = backend.decide

            def recording(table, slots, raw, normalized, decide=decide, received=received):
                received.append(normalized)
                return decide(table, slots, raw, normalized)

            backend.decide = recording
            with _normalize_spy() as calls:
                actions[name] = server.decide_now(sessions, batch)
            assert calls == expected_calls, name
            assert len(received) == 1
            assert (received[0] is None) == (name in ("fsm", "agent")), name
            if received[0] is not None:
                assert received[0].tobytes() == shared_encoder.normalize_batch(batch).tobytes()
        # The FSM decides alike whether or not the broker normalised for it.
        np.testing.assert_array_equal(actions["shadow"], actions["fsm"])

    def test_demonstrations_stay_normalised_rows(self, system_config, standard_suite):
        assert _RecordingBackend.reads_raw is False
        traces = list(standard_suite.values())[:3]
        demonstrations = BehaviorCloningTrainer(system_config).collect_demonstrations(
            HandcraftedFSMPolicy(), traces, episode_seed=2
        )
        for index, (trace, demo) in enumerate(zip(traces, demonstrations)):
            _env, observations, actions, _rewards = scalar_episode(
                HandcraftedFSMPolicy(), trace, 2 + index, system_config
            )
            assert demo.observations.tobytes() == observations.tobytes()
            assert demo.actions.tolist() == actions.tolist()
