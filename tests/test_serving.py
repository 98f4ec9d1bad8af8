"""Unit tests for the policy serving subsystem (sessions, server, shadow)."""

from __future__ import annotations

import copy

import numpy as np
import pytest

from repro.agents.greedy import GreedyUtilizationPolicy
from repro.drl.policy import PolicyConfig, RecurrentPolicyValueNet
from repro.env.environment import StorageAllocationEnv
from repro.env.reward import RewardConfig
from repro.errors import ConfigurationError, ServingError, StaleSessionError
from repro.engine import (
    AgentBatchBackend,
    CompiledFSMBackend,
    CompiledFSMPolicy,
    GRUPolicyBackend,
    SessionTable,
)
from repro.serving import DecisionTicket, PolicyServer, ShadowEvaluator
from repro.telemetry import LatencyHistogram
from repro.storage.migration import NUM_ACTIONS, MigrationAction
from repro.storage.simulator import StorageSystemConfig
from repro.workloads.generator import GeneratorConfig, StandardWorkloadGenerator

from conftest import random_compiled_fsm


# ----------------------------------------------------------------------
# Shared small artefacts
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def serving_env():
    return StorageAllocationEnv(
        StorageSystemConfig(), reward_config=RewardConfig(mode="per_step_penalty"), rng=0
    )


@pytest.fixture(scope="module")
def observation_stream(serving_env):
    """Raw observation rows from one short simulated episode."""
    generator = StandardWorkloadGenerator(
        serving_env.system_config, GeneratorConfig(), rng=0
    )
    trace = generator.generate("web_server", duration=24)
    rng = np.random.default_rng(9)
    observation = serving_env.reset(trace)
    rows = []
    while True:
        rows.append(observation.raw())
        result = serving_env.step(MigrationAction(int(rng.integers(NUM_ACTIONS))))
        observation = result.observation
        if result.done:
            break
    return np.array(rows)


@pytest.fixture(scope="module")
def compiled_policy(serving_env, observation_stream):
    """A compiled policy over a small handmade FSM with real prototypes."""
    return random_compiled_fsm(serving_env.observation_encoder, observation_stream)


# ----------------------------------------------------------------------
# SessionTable
# ----------------------------------------------------------------------
class TestSessionTable:
    def test_open_step_close_accounting(self):
        table = SessionTable(capacity=4, hidden_size=3)
        slots = table.open(3)
        assert table.num_active == 3 and len(table) == 3
        table.record_steps(slots)
        table.record_steps(slots[:1])
        assert table.steps[slots[0]] == 2 and table.steps[slots[2]] == 1
        table.close(slots[:2])
        assert table.num_active == 1
        assert table.total_opened == 3 and table.total_closed == 2

    def test_free_list_reuses_closed_slots(self):
        table = SessionTable(capacity=4)
        first = table.open(4)
        table.close(first[1:3])
        reused = table.open(2)
        assert set(reused.tolist()) == set(first[1:3].tolist())
        assert table.capacity == 4

    def test_reused_slot_state_is_reset(self):
        table = SessionTable(capacity=2, hidden_size=2)
        slot = table.open(1)
        table.state[slot] = 7
        table.hidden[slot] = 1.5
        table.record_steps(slot)
        table.close(slot)
        again = table.open(1)
        assert again[0] == slot[0]
        assert table.state[again[0]] == 0
        assert np.all(table.hidden[again[0]] == 0.0)
        assert table.steps[again[0]] == 0
        assert table.generation[again[0]] == 1

    def test_growth_preserves_existing_sessions(self):
        table = SessionTable(capacity=2, hidden_size=2)
        first = table.open(2)
        table.state[first] = [5, 6]
        table.hidden[first] = [[1.0, 2.0], [3.0, 4.0]]
        more = table.open(100)
        assert table.num_active == 102
        assert table.capacity >= 102
        assert table.state[first].tolist() == [5, 6]
        assert table.hidden[first[1]].tolist() == [3.0, 4.0]
        assert len(set(first.tolist()) & set(more.tolist())) == 0

    def test_stepping_closed_slot_raises(self):
        table = SessionTable(capacity=2)
        slot = table.open(1)
        table.close(slot)
        with pytest.raises(ConfigurationError):
            table.record_steps(slot)
        with pytest.raises(ConfigurationError):
            table.checked_slots(slot)

    def test_out_of_range_slot_raises(self):
        table = SessionTable(capacity=2)
        with pytest.raises(ConfigurationError):
            table.checked_slots([5])

    def test_invalid_construction(self):
        with pytest.raises(ConfigurationError):
            SessionTable(capacity=0)
        with pytest.raises(ConfigurationError):
            SessionTable(hidden_size=-1)

    def test_duplicate_close_rejected(self):
        """close([s, s]) must not double-push s onto the free list."""
        table = SessionTable(capacity=4)
        slots = table.open(3)
        victim = int(slots[1])
        with pytest.raises(ConfigurationError, match="duplicate"):
            table.close([victim, victim])
        # The failed close changed nothing.
        assert table.num_active == 3
        assert bool(table.active[victim])
        # A clean close + reopen cycle hands out each slot exactly once.
        table.close([victim])
        reopened = table.open(2)
        assert len(set(reopened.tolist())) == 2
        all_active = table.active_slots().tolist()
        assert len(all_active) == len(set(all_active)) == table.num_active

    def test_generation_checked_handles(self):
        table = SessionTable(capacity=4)
        slot = int(table.open(1)[0])
        generation = int(table.generation[slot])
        assert table.checked_slots(slot, expected_generation=generation).tolist() == [slot]
        table.close([slot])
        reused = int(table.open(1)[0])
        assert reused == slot  # LIFO free list reuses the slot...
        with pytest.raises(StaleSessionError):
            # ...so the old handle's generation no longer matches.
            table.checked_slots(slot, expected_generation=generation)
        assert table.checked_slots(
            slot, expected_generation=generation + 1
        ).tolist() == [slot]

    def test_adopt_allocation_preserves_slot_layout(self):
        source = SessionTable(capacity=8, hidden_size=2)
        slots = source.open(5)
        source.close(slots[1:3])
        target = SessionTable(capacity=8, hidden_size=0)
        target.adopt_allocation(source)
        assert target.num_active == source.num_active
        assert target.active_slots().tolist() == source.active_slots().tolist()
        assert target.generation.tolist() == source.generation.tolist()
        # Free-list order is preserved: the next opens reuse what the
        # source would have reused.
        assert target.open(2).tolist() == source.open(2).tolist()
        mismatched = SessionTable(capacity=4)
        with pytest.raises(ConfigurationError):
            mismatched.adopt_allocation(source)


# ----------------------------------------------------------------------
# Compiled policy artifact
# ----------------------------------------------------------------------
class TestCompiledArtifact:
    def test_save_load_roundtrip_decides_identically(
        self, tmp_path, compiled_policy, serving_env, observation_stream
    ):
        path = tmp_path / "compiled.npz"
        compiled_policy.save(path)
        loaded = CompiledFSMPolicy.load(path)
        assert loaded.num_states == compiled_policy.num_states
        assert loaded.num_observations == compiled_policy.num_observations
        assert loaded.start_state == compiled_policy.start_state
        assert np.array_equal(loaded.transition_table, compiled_policy.transition_table)
        encoder = serving_env.observation_encoder
        states = np.full(len(observation_stream), compiled_policy.start_state, dtype=np.int64)
        a = compiled_policy.act_batch(observation_stream, states, encoder)
        b = loaded.act_batch(observation_stream, states, encoder)
        assert np.array_equal(a.actions, b.actions)
        assert np.array_equal(a.next_states, b.next_states)
        assert np.array_equal(a.fallback_mask, b.fallback_mask)

    def test_single_row_batch_equals_row_of_wider_batch(
        self, compiled_policy, serving_env, observation_stream
    ):
        """B = 1 and B = 3 share one encoder pass: same codes, same decision."""
        normalized = serving_env.observation_encoder.normalize_batch(observation_stream)
        states = np.full(3, compiled_policy.start_state, dtype=np.int64)
        for i in range(len(normalized) - 2):
            wide_codes = compiled_policy.encode_codes(normalized[i:i + 3]).copy()
            np.testing.assert_array_equal(
                compiled_policy.encode_codes(normalized[i:i + 1]), wide_codes[:1]
            )
            raw = observation_stream
            encoder = serving_env.observation_encoder
            wide = compiled_policy.act_batch(raw[i:i + 3], states, encoder)
            single = compiled_policy.act_batch(raw[i:i + 1], states[:1], encoder)
            assert single.actions[0] == wide.actions[0]
            assert single.next_states[0] == wide.next_states[0]
            assert single.fallback_mask[0] == wide.fallback_mask[0]

    def test_encoder_workspace_is_grow_only(
        self, compiled_policy, serving_env, observation_stream
    ):
        """Smaller batches reuse a prefix of the buffers a larger one grew."""
        normalized = serving_env.observation_encoder.normalize_batch(observation_stream)
        wide = compiled_policy.encode_codes(normalized)
        for rows in (1, 3, len(normalized) - 1):
            assert np.shares_memory(compiled_policy.encode_codes(normalized[:rows]), wide)

    def test_encoder_compatibility_stamp(self, compiled_policy, serving_env):
        assert compiled_policy.matches_encoder(serving_env.observation_encoder)
        from repro.env.observation import ObservationEncoder

        other = ObservationEncoder(serving_env.system_config, nominal_requests=123.0)
        assert not compiled_policy.matches_encoder(other)

    def test_summary_counts_decisions_and_fallbacks(
        self, tmp_path, compiled_policy, serving_env, observation_stream
    ):
        compiled_policy.save(tmp_path / "c.npz")
        fresh = CompiledFSMPolicy.load(tmp_path / "c.npz")
        states = np.full(len(observation_stream), fresh.start_state, dtype=np.int64)
        decision = fresh.act_batch(observation_stream, states, serving_env.observation_encoder)
        summary = fresh.summary()
        assert summary["decisions"] == len(observation_stream)
        assert summary["fallbacks"] == int(decision.fallback_mask.sum())


# ----------------------------------------------------------------------
# PolicyServer
# ----------------------------------------------------------------------
class TestPolicyServer:
    def test_microbatch_auto_flush(self, compiled_policy, serving_env, observation_stream):
        server = PolicyServer(
            CompiledFSMBackend(compiled_policy),
            serving_env.observation_encoder,
            max_batch_size=4,
            initial_capacity=8,
        )
        ids = server.open_sessions(4)
        tickets = [
            server.submit(int(session), observation_stream[i])
            for i, session in enumerate(ids[:3])
        ]
        assert all(not t.done for t in tickets)
        assert server.pending == 3
        last = server.submit(int(ids[3]), observation_stream[3])
        # Queue reached max_batch_size: everything flushed as one batch.
        assert server.pending == 0
        assert last.done and all(t.done for t in tickets)
        assert isinstance(last.result(), MigrationAction)
        stats = server.stats()
        assert stats.decisions == 4 and stats.batches == 1 and stats.max_batch == 4

    def test_unflushed_ticket_raises(self, compiled_policy, serving_env, observation_stream):
        server = PolicyServer(
            CompiledFSMBackend(compiled_policy), serving_env.observation_encoder
        )
        session = server.open_session()
        ticket = server.submit(session, observation_stream[0])
        with pytest.raises(ConfigurationError):
            ticket.result()
        assert server.flush() == 1
        ticket.result()

    def test_second_submit_same_session_flushes_first(
        self, compiled_policy, serving_env, observation_stream
    ):
        server = PolicyServer(
            CompiledFSMBackend(compiled_policy),
            serving_env.observation_encoder,
            max_batch_size=64,
        )
        session = server.open_session()
        first = server.submit(session, observation_stream[0])
        second = server.submit(session, observation_stream[1])
        assert first.done and not second.done
        server.flush()
        assert second.done

    def test_queued_and_direct_paths_agree(
        self, compiled_policy, serving_env, observation_stream
    ):
        encoder = serving_env.observation_encoder
        queued = PolicyServer(CompiledFSMBackend(compiled_policy), encoder)
        direct = PolicyServer(CompiledFSMBackend(compiled_policy), encoder)
        q_ids = queued.open_sessions(3)
        d_ids = direct.open_sessions(3)
        for step in range(4):
            tickets = [
                queued.submit(int(session), observation_stream[step])
                for session in q_ids
            ]
            queued.flush()
            actions = direct.decide_now(
                d_ids, np.tile(observation_stream[step], (3, 1))
            )
            assert [int(t.result()) for t in tickets] == actions.tolist()

    def test_decide_now_rejects_duplicate_sessions(
        self, compiled_policy, serving_env, observation_stream
    ):
        server = PolicyServer(
            CompiledFSMBackend(compiled_policy), serving_env.observation_encoder
        )
        session = server.open_session()
        with pytest.raises(ConfigurationError):
            server.decide_now(
                [session, session], np.tile(observation_stream[0], (2, 1))
            )

    def test_mismatched_encoder_rejected_at_construction(
        self, compiled_policy, serving_env
    ):
        """The artifact's encoder stamp is enforced when the server mounts it."""
        from repro.env.observation import ObservationEncoder

        other = ObservationEncoder(serving_env.system_config, nominal_requests=123.0)
        with pytest.raises(ConfigurationError):
            PolicyServer(CompiledFSMBackend(compiled_policy), other)
        shadowed = ShadowEvaluator(
            CompiledFSMBackend(compiled_policy), CompiledFSMBackend(compiled_policy)
        )
        with pytest.raises(ConfigurationError):
            PolicyServer(shadowed, other)

    def test_compiled_backend_decides_only_behind_a_checked_encoder(
        self, compiled_policy, serving_env, observation_stream
    ):
        """It normalises with the encoder ``check_encoder`` kept, so it needs one."""
        backend = CompiledFSMBackend(compiled_policy)
        table = backend.session_table(2)
        slots = table.open(2)
        backend.begin_sessions(table, slots)
        with pytest.raises(ConfigurationError, match="check_encoder"):
            backend.decide(table, slots, observation_stream[:2], None)
        backend.check_encoder(serving_env.observation_encoder)
        assert backend.decide(table, slots, observation_stream[:2], None).shape == (2,)

    def test_unstamped_compiled_backend_keeps_its_first_encoder(
        self, compiled_policy, serving_env
    ):
        """Without a stamp any encoder passes, but one backend normalises one way."""
        from repro.env.observation import ObservationEncoder

        unstamped = copy.copy(compiled_policy)
        unstamped.encoder_constants = None
        backend = CompiledFSMBackend(unstamped)
        PolicyServer(backend, serving_env.observation_encoder)
        PolicyServer(backend, ObservationEncoder(serving_env.system_config))
        other = ObservationEncoder(serving_env.system_config, nominal_requests=123.0)
        with pytest.raises(ConfigurationError, match="already serves"):
            PolicyServer(backend, other)

    def test_heuristic_backend_releases_closed_session_agents(
        self, serving_env, observation_stream
    ):
        encoder = serving_env.observation_encoder
        backend = AgentBatchBackend(GreedyUtilizationPolicy, encoder)
        server = PolicyServer(backend, encoder)
        ids = server.open_sessions(4)
        server.decide_now(ids, np.tile(observation_stream[0], (4, 1)))
        assert len(backend._agents) == 4
        server.close_sessions(ids[:3])
        assert len(backend._agents) == 1

    def test_closed_session_rejected(self, compiled_policy, serving_env, observation_stream):
        server = PolicyServer(
            CompiledFSMBackend(compiled_policy), serving_env.observation_encoder
        )
        session = server.open_session()
        server.close_sessions([session])
        with pytest.raises(ConfigurationError):
            server.submit(session, observation_stream[0])

    def test_gru_backend_matches_drl_agent(self, serving_env, observation_stream):
        """The GRU serving backend replays DRLPolicyAgent's greedy stream."""
        from repro.drl.agent import DRLPolicyAgent

        policy = RecurrentPolicyValueNet(PolicyConfig(hidden_size=16), rng=5)
        server = PolicyServer(GRUPolicyBackend(policy), serving_env.observation_encoder)
        ids = server.open_sessions(2)
        reference = DRLPolicyAgent(policy, serving_env.observation_encoder)
        reference.reset()
        for raw in observation_stream[:8]:
            expected = int(reference.act(serving_env.observation_encoder.split_raw(raw)))
            served = server.decide_now(ids, np.tile(raw, (2, 1)))
            assert served.tolist() == [expected, expected]

    def test_heuristic_backend_matches_scalar_agent(self, serving_env, observation_stream):
        encoder = serving_env.observation_encoder
        server = PolicyServer(
            AgentBatchBackend(GreedyUtilizationPolicy, encoder), encoder
        )
        ids = server.open_sessions(2)
        reference = GreedyUtilizationPolicy()
        reference.reset()
        for raw in observation_stream[:6]:
            expected = int(reference.act(encoder.split_raw(raw)))
            served = server.decide_now(ids, np.tile(raw, (2, 1)))
            assert served.tolist() == [expected, expected]


class _FaultyBackend:
    """Wraps a real backend; raises on decide while ``failures`` > 0."""

    def __init__(self, inner, failures: int = 1) -> None:
        self.inner = inner
        self.failures = failures
        self.name = f"faulty({inner.name})"

    def check_encoder(self, encoder):
        self.inner.check_encoder(encoder)

    def session_table(self, capacity):
        return self.inner.session_table(capacity)

    def begin_sessions(self, table, slots):
        self.inner.begin_sessions(table, slots)

    def decide(self, table, slots, raw, normalized):
        if self.failures > 0:
            self.failures -= 1
            raise RuntimeError("injected backend fault")
        return self.inner.decide(table, slots, raw, normalized)


class TestPolicyServerLifecycleBugs:
    def test_backend_fault_fails_tickets_instead_of_stranding(
        self, compiled_policy, serving_env, observation_stream
    ):
        server = PolicyServer(
            _FaultyBackend(CompiledFSMBackend(compiled_policy)),
            serving_env.observation_encoder,
            max_batch_size=64,
        )
        ids = server.open_sessions(3)
        tickets = [
            server.submit(int(session), observation_stream[i])
            for i, session in enumerate(ids)
        ]
        with pytest.raises(RuntimeError, match="injected"):
            server.flush()
        # No ticket is stranded: all are terminally failed.
        assert all(t.done and t.failed for t in tickets)
        for ticket in tickets:
            with pytest.raises(ServingError, match="injected"):
                ticket.result()
        # Server state is consistent: nothing pending, and the same
        # sessions queue again without a same-session flush (no stale
        # single-in-flight marks).
        assert server.pending == 0
        assert server.stats().failed == 3
        retry = [
            server.submit(int(session), observation_stream[i])
            for i, session in enumerate(ids)
        ]
        assert server.pending == 3 and server.stats().batches == 0
        assert server.flush() == 3
        assert all(t.done and not t.failed for t in retry)
        assert isinstance(retry[0].result(), MigrationAction)

    def test_decide_now_validates_column_count(
        self, compiled_policy, serving_env, observation_stream
    ):
        server = PolicyServer(
            CompiledFSMBackend(compiled_policy), serving_env.observation_encoder
        )
        session = server.open_session()
        with pytest.raises(ConfigurationError, match="columns"):
            server.decide_now([session], observation_stream[:1, :10])

    def test_decide_now_duplicate_check_on_large_table(
        self, compiled_policy, serving_env, observation_stream
    ):
        """The uniqueness check is per batch, not per table capacity."""
        server = PolicyServer(
            CompiledFSMBackend(compiled_policy),
            serving_env.observation_encoder,
            initial_capacity=1 << 15,
        )
        ids = server.open_sessions(3)
        actions = server.decide_now(ids, observation_stream[:3])
        assert actions.shape == (3,)
        with pytest.raises(ConfigurationError):
            server.decide_now(
                [ids[0], ids[0]], np.tile(observation_stream[0], (2, 1))
            )

    def test_generation_checked_submit_and_close(
        self, compiled_policy, serving_env, observation_stream
    ):
        server = PolicyServer(
            CompiledFSMBackend(compiled_policy), serving_env.observation_encoder
        )
        session = server.open_session()
        generation = int(server.table.generation[session])
        ticket = server.submit(
            session, observation_stream[0], expected_generation=generation
        )
        server.flush()
        assert ticket.done
        server.close_sessions([session], expected_generation=[generation])
        reused = server.open_session()
        assert reused == session
        with pytest.raises(StaleSessionError):
            server.submit(
                session, observation_stream[0], expected_generation=generation
            )
        with pytest.raises(StaleSessionError):
            server.decide_now(
                [session], observation_stream[:1], expected_generation=[generation]
            )
        with pytest.raises(StaleSessionError):
            server.close_sessions([session], expected_generation=[generation])

    def test_close_sessions_rejects_duplicates(
        self, compiled_policy, serving_env
    ):
        server = PolicyServer(
            CompiledFSMBackend(compiled_policy), serving_env.observation_encoder
        )
        session = server.open_session()
        with pytest.raises(ConfigurationError, match="duplicate"):
            server.close_sessions([session, session])
        assert server.table.num_active == 1


class TestNonFiniteObservations:
    """A wave holding NaN or inf is refused before any row is queued: one
    NaN reaching a GRU session's hidden row stays there, and every later
    decision of that session on finite input comes back as action 0."""

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("entry", ["decide_now", "submit_many", "submit"])
    def test_refused_and_the_session_keeps_serving(
        self, serving_env, observation_stream, entry, value
    ):
        encoder = serving_env.observation_encoder
        policy = RecurrentPolicyValueNet(PolicyConfig(hidden_size=16), rng=5)
        server = PolicyServer(GRUPolicyBackend(policy), encoder)
        control = PolicyServer(GRUPolicyBackend(policy), encoder)
        ids, control_ids = server.open_sessions(2), control.open_sessions(2)
        server.decide_now(ids, observation_stream[:2])
        control.decide_now(control_ids, observation_stream[:2])
        hidden = server.table.hidden[ids].copy()
        poisoned = observation_stream[2:4].copy()
        poisoned[0, 3] = value
        with pytest.raises(ConfigurationError, match="non-finite"):
            if entry == "decide_now":
                server.decide_now(ids, poisoned)
            elif entry == "submit_many":
                server.submit_many(ids, poisoned)
            else:
                server.submit(int(ids[0]), poisoned[0])
        assert server.pending == 0
        assert server.stats().decisions == 2
        assert server.table.hidden[ids].tobytes() == hidden.tobytes()
        for step in range(2, 6):
            clean = observation_stream[step : step + 2]
            assert np.array_equal(
                server.decide_now(ids, clean), control.decide_now(control_ids, clean)
            )
        assert np.isfinite(server.table.hidden[ids]).all()


class TestSubmitManyAndCancel:
    def test_submit_many_matches_per_row_submit(
        self, compiled_policy, serving_env, observation_stream
    ):
        encoder = serving_env.observation_encoder
        batched = PolicyServer(CompiledFSMBackend(compiled_policy), encoder)
        rowwise = PolicyServer(CompiledFSMBackend(compiled_policy), encoder)
        b_ids = batched.open_sessions(5)
        r_ids = rowwise.open_sessions(5)
        for step in range(3):
            raw = observation_stream[step : step + 5]
            many = batched.submit_many(b_ids, raw)
            batched.flush()
            singles = [
                rowwise.submit(int(session), raw[i])
                for i, session in enumerate(r_ids)
            ]
            rowwise.flush()
            assert many.done and many.error is None
            assert many.actions.tolist() == [int(t.result()) for t in singles]

    def test_submit_many_autoflushes_at_batch_size(
        self, compiled_policy, serving_env, observation_stream
    ):
        server = PolicyServer(
            CompiledFSMBackend(compiled_policy),
            serving_env.observation_encoder,
            max_batch_size=4,
            initial_capacity=16,
        )
        ids = server.open_sessions(10)
        wave = server.submit_many(ids, observation_stream[:10])
        # Two full micro-batches flushed on the way; 2 requests remain.
        assert server.pending == 2
        assert not wave.done and wave.resolved == 8
        tickets = [DecisionTicket(wave, row) for row in range(len(wave))]
        assert [t.done for t in tickets] == [True] * 8 + [False] * 2
        assert tickets[9].action is None
        server.flush()
        assert wave.done and wave.resolved == 10
        assert [t.action for t in tickets] == wave.actions.tolist()
        assert server.stats().batches == 3

    def test_cancel_pending_fails_the_unserved_tail_only(
        self, compiled_policy, serving_env, observation_stream
    ):
        server = PolicyServer(
            CompiledFSMBackend(compiled_policy),
            serving_env.observation_encoder,
            max_batch_size=4,
            initial_capacity=16,
        )
        ids = server.open_sessions(10)
        wave = server.submit_many(ids, observation_stream[:10])
        served = wave.actions[:8].copy()
        assert server.cancel_pending() == 2
        assert wave.done and wave.error is not None and wave.resolved == 8
        assert wave.actions[:8].tolist() == served.tolist()
        tickets = [DecisionTicket(wave, row) for row in range(len(wave))]
        assert [t.failed for t in tickets] == [False] * 8 + [True] * 2
        assert isinstance(tickets[0].result(), MigrationAction)
        with pytest.raises(ServingError, match="cancelled"):
            tickets[8].result()
        assert server.stats().failed == 2 and server.stats().decisions == 8

    def test_wave_shares_the_callers_block_and_flush_does_not_copy_it(
        self, compiled_policy, serving_env, observation_stream
    ):
        class _Recording(CompiledFSMBackend):
            def decide(self, table, slots, raw, normalized):
                self.seen_raw = raw
                return super().decide(table, slots, raw, normalized)

        backend = _Recording(compiled_policy)
        server = PolicyServer(
            backend, serving_env.observation_encoder, max_batch_size=4
        )
        ids = server.open_sessions(6)
        block = observation_stream[:6].copy()
        wave = server.submit_many(ids, block)
        assert np.shares_memory(wave.raw, block)
        # The full-batch segment reached the backend as a slice of the block.
        assert np.shares_memory(backend.seen_raw, block)
        assert backend.seen_raw.shape[0] == 4
        # Two waves coalescing into one batch have to be concatenated.
        more = server.open_sessions(1)
        server.submit_many(more, observation_stream[6:7])
        server.flush()
        assert backend.seen_raw.shape[0] == 3
        assert not np.shares_memory(backend.seen_raw, block)
        assert wave.done and wave.resolved == 6

    def test_submit_many_validates_shapes_and_duplicates(
        self, compiled_policy, serving_env, observation_stream
    ):
        server = PolicyServer(
            CompiledFSMBackend(compiled_policy), serving_env.observation_encoder
        )
        ids = server.open_sessions(3)
        with pytest.raises(ConfigurationError, match="one row per session"):
            server.submit_many(ids, observation_stream[:2])
        with pytest.raises(ConfigurationError, match="duplicate"):
            server.submit_many(
                [ids[0], ids[0]], observation_stream[:2]
            )
        with pytest.raises(ConfigurationError, match="columns"):
            server.submit_many(ids, observation_stream[:3, :7])
        assert server.pending == 0

    def test_submit_many_generation_check(
        self, compiled_policy, serving_env, observation_stream
    ):
        server = PolicyServer(
            CompiledFSMBackend(compiled_policy), serving_env.observation_encoder
        )
        ids = server.open_sessions(2)
        generations = server.table.generation[ids]
        server.close_sessions([ids[1]])
        server.open_sessions(1)  # recycles the slot, generation bumped
        with pytest.raises(StaleSessionError):
            server.submit_many(
                ids, observation_stream[:2], expected_generation=generations
            )

    def test_cancel_pending_fails_tickets_and_clears_queue(
        self, compiled_policy, serving_env, observation_stream
    ):
        server = PolicyServer(
            CompiledFSMBackend(compiled_policy),
            serving_env.observation_encoder,
            max_batch_size=64,
        )
        ids = server.open_sessions(3)
        wave = server.submit_many(ids, observation_stream[:3])
        assert server.pending == 3
        assert server.cancel_pending() == 3
        assert server.pending == 0
        assert wave.done and wave.error is not None and wave.resolved == 0
        for row in range(3):
            with pytest.raises(ServingError, match="cancelled"):
                DecisionTicket(wave, row).result()
        assert server.stats().failed == 3
        # The same sessions queue again without a same-session flush
        # (no stale single-in-flight marks) and serve.
        retry = server.submit_many(ids, observation_stream[:3])
        assert server.pending == 3 and server.stats().batches == 0
        assert server.flush() == 3
        assert retry.done and retry.error is None
        # Cancelling an empty queue is a no-op.
        assert server.cancel_pending() == 0
        assert server.stats().failed == 3


class TestSwapBackend:
    def test_swap_same_artifact_migrates_state(
        self, compiled_policy, serving_env, observation_stream
    ):
        encoder = serving_env.observation_encoder
        server = PolicyServer(CompiledFSMBackend(compiled_policy), encoder)
        control = PolicyServer(CompiledFSMBackend(compiled_policy), encoder)
        ids = server.open_sessions(4)
        control_ids = control.open_sessions(4)
        for step in range(3):
            batch = np.tile(observation_stream[step], (4, 1))
            server.decide_now(ids, batch)
            control.decide_now(control_ids, batch)
        audit = server.swap_backend(CompiledFSMBackend(compiled_policy))
        assert audit["state"] == "migrated"
        assert audit["active_sessions"] == 4
        # Migrated state: the swapped server continues exactly where the
        # unswapped control is.
        for step in range(3, 6):
            batch = np.tile(observation_stream[step], (4, 1))
            assert np.array_equal(
                server.decide_now(ids, batch), control.decide_now(control_ids, batch)
            )
        assert server.stats().swaps == 1

    def test_swap_incompatible_backend_resets_state(
        self, compiled_policy, serving_env, observation_stream
    ):
        policy = RecurrentPolicyValueNet(PolicyConfig(hidden_size=16), rng=5)
        server = PolicyServer(
            CompiledFSMBackend(compiled_policy), serving_env.observation_encoder
        )
        ids = server.open_sessions(3)
        server.decide_now(ids, observation_stream[:3])
        generations = server.table.generation[ids].copy()
        audit = server.swap_backend(GRUPolicyBackend(policy))
        assert audit["state"] == "reset"
        # Handles survive the swap: same slots, same generations.
        assert np.array_equal(server.table.generation[ids], generations)
        # And the reset sessions replay the fresh GRU server bit for bit.
        fresh = PolicyServer(GRUPolicyBackend(policy), serving_env.observation_encoder)
        fresh_ids = fresh.open_sessions(3)
        for step in range(4):
            batch = np.tile(observation_stream[step], (3, 1))
            assert np.array_equal(
                server.decide_now(ids, batch), fresh.decide_now(fresh_ids, batch)
            )

    def test_swap_drains_pending_microbatch(
        self, compiled_policy, serving_env, observation_stream
    ):
        server = PolicyServer(
            CompiledFSMBackend(compiled_policy),
            serving_env.observation_encoder,
            max_batch_size=64,
        )
        ids = server.open_sessions(2)
        tickets = [server.submit(int(s), observation_stream[0]) for s in ids]
        audit = server.swap_backend(CompiledFSMBackend(compiled_policy))
        assert audit["flushed_pending"] == 2
        assert all(t.done and not t.failed for t in tickets)
        assert server.pending == 0

    def test_swap_rejects_incompatible_encoder(self, compiled_policy, serving_env):
        from repro.env.observation import ObservationEncoder

        policy = RecurrentPolicyValueNet(PolicyConfig(hidden_size=16), rng=5)
        mismatched = PolicyServer(
            GRUPolicyBackend(policy),
            ObservationEncoder(serving_env.system_config, nominal_requests=123.0),
        )
        with pytest.raises(ConfigurationError):
            mismatched.swap_backend(CompiledFSMBackend(compiled_policy))
        # The failed swap left the old backend mounted.
        assert mismatched.backend.name == "gru"


class TestLatencyHistogram:
    def test_percentiles_are_conservative_upper_edges(self):
        histogram = LatencyHistogram()
        values = np.array([0.001] * 90 + [0.010] * 9 + [0.500])
        histogram.record_many(values)
        assert histogram.total == 100
        assert histogram.percentile(50) >= 0.001
        assert histogram.percentile(95) >= 0.010
        assert histogram.percentile(99) >= 0.010
        assert histogram.percentile(100) == pytest.approx(0.5)
        assert histogram.max_seconds == pytest.approx(0.5)
        assert histogram.mean_seconds == pytest.approx(values.mean())
        # Upper-edge estimates never exceed the next bucket boundary.
        assert histogram.percentile(50) <= 0.001 * LatencyHistogram.FACTOR

    def test_record_matches_record_many(self):
        a, b = LatencyHistogram(), LatencyHistogram()
        values = [1e-5, 3e-4, 2e-3, 0.08, 1.5]
        for value in values:
            a.record(value)
        b.record_many(np.array(values))
        assert a.counts.tolist() == b.counts.tolist()
        assert a.as_dict() == b.as_dict()

    def test_empty_histogram(self):
        histogram = LatencyHistogram()
        assert histogram.percentile(99) == 0.0
        assert histogram.as_dict()["count"] == 0


# ----------------------------------------------------------------------
# ShadowEvaluator
# ----------------------------------------------------------------------
class TestShadowEvaluator:
    def test_identical_backends_have_perfect_fidelity(
        self, compiled_policy, serving_env, observation_stream
    ):
        shadowed = ShadowEvaluator(
            CompiledFSMBackend(compiled_policy), CompiledFSMBackend(compiled_policy)
        )
        server = PolicyServer(shadowed, serving_env.observation_encoder)
        ids = server.open_sessions(5)
        for raw in observation_stream[:6]:
            server.decide_now(ids, np.tile(raw, (5, 1)))
        assert shadowed.decisions == 30
        assert shadowed.divergences == 0
        assert shadowed.fidelity == 1.0
        assert shadowed.divergence_pairs() == {}
        assert np.trace(shadowed.confusion) == 30

    def test_primary_answer_served_divergence_counted(
        self, compiled_policy, serving_env, observation_stream
    ):
        policy = RecurrentPolicyValueNet(PolicyConfig(hidden_size=16), rng=5)
        primary = CompiledFSMBackend(compiled_policy)
        shadowed = ShadowEvaluator(primary, GRUPolicyBackend(policy))
        server = PolicyServer(shadowed, serving_env.observation_encoder)
        unshadowed = PolicyServer(
            CompiledFSMBackend(compiled_policy), serving_env.observation_encoder
        )
        ids = server.open_sessions(3)
        plain_ids = unshadowed.open_sessions(3)
        for raw in observation_stream[:6]:
            batch = np.tile(raw, (3, 1))
            assert np.array_equal(
                server.decide_now(ids, batch), unshadowed.decide_now(plain_ids, batch)
            )
        summary = shadowed.summary()
        assert summary["decisions"] == 18
        assert shadowed.confusion.sum() == 18
        assert 0.0 <= summary["fidelity"] <= 1.0
        assert summary["divergences"] == sum(shadowed.divergence_pairs().values())

    def test_shadow_table_grows_with_primary(self, compiled_policy, serving_env, observation_stream):
        policy = RecurrentPolicyValueNet(PolicyConfig(hidden_size=16), rng=5)
        shadowed = ShadowEvaluator(CompiledFSMBackend(compiled_policy), GRUPolicyBackend(policy))
        server = PolicyServer(
            shadowed, serving_env.observation_encoder, initial_capacity=2
        )
        ids = server.open_sessions(40)
        actions = server.decide_now(ids, np.tile(observation_stream[0], (40, 1)))
        assert actions.shape == (40,)
        assert shadowed._shadow_table.capacity >= 40
