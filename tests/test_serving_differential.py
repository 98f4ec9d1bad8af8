"""Differential test: the columnar broker queue against a per-row model.

Hypothesis draws programs over the broker's whole public surface
(``open_sessions`` / ``close_sessions`` / ``submit`` / ``submit_many`` /
``flush`` / ``cancel_pending`` / ``swap_backend``, refused waves and an
injected backend fault) and, after every operation, compares the server
with :class:`_RowModel` — the queue-one-row-at-a-time broker it
replaced: same backend calls (slot vector and row pairing per call),
same per-row actions and terminal states, same ``pending`` — and the
registry's view of the broker's counters reads exactly ``stats()``.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import telemetry
from repro.engine import SessionTable
from repro.env.observation import OBSERVATION_DIM, ObservationEncoder
from repro.errors import ReproError
from repro.serving import DecisionTicket, PolicyServer
from repro.storage.migration import NUM_ACTIONS
from repro.storage.simulator import StorageSystemConfig

ENCODER = ObservationEncoder(StorageSystemConfig())


class _Fault(RuntimeError):
    pass


def _action(slot: int, tag: int) -> int:
    return (7 * slot + tag) % NUM_ACTIONS


class _Harness:
    """What the real backend and the model share: a call log and a fault switch."""

    def __init__(self) -> None:
        self.calls = []  # per backend call: [(slot, tag), ...]
        self.armed = False
        self.served_calls = self.served_rows = self.faulted_rows = 0

    def decide(self, pairs):
        self.calls.append(pairs)
        if self.armed:
            self.armed = False
            self.faulted_rows += len(pairs)
            raise _Fault("injected backend fault")
        self.served_calls += 1
        self.served_rows += len(pairs)
        return [_action(slot, tag) for slot, tag in pairs]


class _RecordingBackend:
    name = "recording"

    def __init__(self, harness: _Harness) -> None:
        self.harness = harness

    def session_table(self, capacity):
        return SessionTable(capacity)

    def begin_sessions(self, table, slots):
        table.state[slots] = 0

    def decide(self, table, slots, raw, normalized):
        assert raw.shape == normalized.shape == (slots.shape[0], OBSERVATION_DIM)
        pairs = list(zip(slots.tolist(), raw[:, 0].astype(int).tolist()))
        return np.array(self.harness.decide(pairs), dtype=np.int64)


class _RowModel:
    """The per-row broker: one ticket per request, flushed as the rows arrive."""

    def __init__(self, max_batch: int, harness: _Harness) -> None:
        self.max_batch, self.harness, self.queue = max_batch, harness, []

    def submit(self, slot: int, tag: int) -> dict:
        if any(slot == queued for queued, _tag, _ticket in self.queue):
            self.flush()
        ticket = {"action": None, "failed": False}
        self.queue.append((slot, tag, ticket))
        if len(self.queue) >= self.max_batch:
            self.flush()
        return ticket

    def flush(self) -> None:
        queue, self.queue = self.queue, []
        if queue:
            try:
                actions = self.harness.decide([(slot, tag) for slot, tag, _ in queue])
            except _Fault:
                self.cancel(queue)
                raise
            for (_slot, _tag, ticket), action in zip(queue, actions):
                ticket["action"] = action

    def cancel(self, queue=None) -> None:
        for _slot, _tag, ticket in self.queue if queue is None else queue:
            ticket["failed"] = True
        if queue is None:
            self.queue = []


def _raw(tags) -> np.ndarray:
    raw = np.zeros((len(tags), OBSERVATION_DIM))
    raw[:, 0] = tags
    return raw


OPS = st.lists(
    st.tuples(
        st.sampled_from(
            ["open", "close", "submit", "submit_many", "submit_many", "flush",
             "cancel", "swap", "arm_fault", "refused"]
        ),
        st.integers(0, 2**31 - 1),
    ),
    max_size=40,
)


@settings(max_examples=300, deadline=None)
@given(max_batch=st.integers(1, 8), ops=OPS)
def test_columnar_queue_matches_the_per_row_model(max_batch, ops):
    # A fresh registry per example, so no other live broker is summed in.
    telemetry.configure(enabled=True)
    server_side, model_side = _Harness(), _Harness()
    server = PolicyServer(
        _RecordingBackend(server_side), ENCODER,
        max_batch_size=max_batch, initial_capacity=2,
    )
    model = _RowModel(max_batch, model_side)
    # A few sessions to start with, so short programs reach the queue.
    open_slots, closed_handles = server.open_sessions(6).tolist(), []
    handles = []  # (wave, row, model ticket)
    tag = cancelled = 0

    def both(server_call, model_call):
        """Run one operation on each side; a fault must strike both or neither."""
        outcomes = []
        for call in (server_call, model_call):
            try:
                outcomes.append((call(), False))
            except _Fault:
                outcomes.append((None, True))
        assert outcomes[0][1] == outcomes[1][1]
        return outcomes[0][0], outcomes[1][0]

    for kind, seed in ops:
        rng = np.random.default_rng(seed)
        if kind == "open":
            open_slots.extend(server.open_sessions(int(rng.integers(1, 5))).tolist())
        elif kind == "arm_fault":
            server_side.armed = model_side.armed = True
        elif kind == "flush":
            both(server.flush, model.flush)
        elif kind == "cancel":
            cancelled += len(model.queue)
            assert server.cancel_pending() == len(model.queue)
            model.cancel()
        elif kind == "swap":
            both(
                lambda: server.swap_backend(_RecordingBackend(server_side)),
                model.flush,
            )
        elif not open_slots:
            continue
        elif kind == "close":
            chosen = rng.permutation(open_slots)[: int(rng.integers(1, 4))].tolist()
            generations = server.table.generation[chosen].copy()

            def model_close():
                if any(slot in chosen for slot, _tag, _ticket in model.queue):
                    model.flush()
                return True

            _, closed = both(
                lambda: server.close_sessions(chosen, expected_generation=generations),
                model_close,
            )
            if closed:
                open_slots = [slot for slot in open_slots if slot not in chosen]
                closed_handles.extend(zip(chosen, generations.tolist()))
        elif kind == "refused":
            chosen = rng.permutation(open_slots)[: int(rng.integers(1, 6))].tolist()
            generations = server.table.generation[chosen].tolist()
            raw = _raw(range(len(chosen)))
            flavour = int(rng.integers(3))
            if flavour == 0 and closed_handles:
                slot, generation = closed_handles[int(rng.integers(len(closed_handles)))]
                if slot in chosen:
                    generations[chosen.index(slot)] = generation
                else:
                    chosen.append(slot)
                    generations.append(generation)
                    raw = _raw(range(len(chosen)))
            elif flavour == 1:
                chosen.append(chosen[0])
                generations.append(generations[0])
                raw = _raw(range(len(chosen)))
            else:
                raw = raw[:, : OBSERVATION_DIM - 1]
            with pytest.raises(ReproError):
                server.submit_many(chosen, raw, expected_generation=generations)
        else:
            rows = 1 if kind == "submit" else int(rng.integers(1, 13))
            chosen = rng.permutation(open_slots)[:rows].tolist()
            tags = list(range(tag, tag + len(chosen)))
            tag += len(chosen)
            generations = server.table.generation[chosen]

            def model_submit():
                return [model.submit(slot, t) for slot, t in zip(chosen, tags)]

            if kind == "submit":
                ticket, tickets = both(
                    lambda: server.submit(chosen[0], _raw(tags)[0], int(generations[0])),
                    model_submit,
                )
                wave = ticket.wave if ticket is not None else None
            else:
                wave, tickets = both(
                    lambda: server.submit_many(
                        chosen, _raw(tags), expected_generation=generations
                    ),
                    model_submit,
                )
            if wave is not None:
                assert wave.slots.tolist() == chosen
                handles.extend((wave, row, t) for row, t in enumerate(tickets))

        assert server_side.calls == model_side.calls
        assert server.pending == len(model.queue)
        for wave, row, expected in handles:
            ticket = DecisionTicket(wave, row)
            assert ticket.action == expected["action"]
            assert ticket.failed == expected["failed"]
            assert ticket.done == (expected["failed"] or expected["action"] is not None)
        stats = server.stats()
        assert stats.batches == model_side.served_calls
        assert stats.decisions == model_side.served_rows
        assert stats.failed == model_side.faulted_rows + cancelled
        for field in ("decisions", "batches", "failed", "swaps"):
            assert server.metrics.value(f"serving_{field}_total") == getattr(stats, field)
