"""The micro-batching policy decision server.

:class:`PolicyServer` is the front door of the serving subsystem: clients
open sessions, submit allocation requests (raw observation vectors) and
get back migration decisions.  Requests are not answered one at a time —
the server queues them and answers a whole *micro-batch* with one
backend call, which is what lets the batched decision kernels (compiled
FSM gathers, ``policy.act_batch``) amortise their fixed Python cost over
hundreds of concurrent sessions.

The queue is columnar: a ``submit_many`` call parks one
:class:`DecisionWave` (slot vector, a view of the caller's observation
block, an action vector that ``flush`` fills in place) and the queue is
a short list of ``(wave, begin, stop)`` row ranges plus a slot-indexed
pending mask, so no broker step costs Python work per row.

Backends implement the :class:`~repro.engine.backends.DecisionBackend`
protocol, which lives in :mod:`repro.engine` (the same contract drives
training rollouts and batched evaluation) together with the standard
backends.  The same protocol is what
:class:`~repro.serving.shadow.ShadowEvaluator` implements to run a
second backend in shadow mode behind the primary.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import attrgetter
from typing import Dict, List, NamedTuple, Optional, Tuple

import numpy as np

from repro.engine.backends import DecisionBackend
from repro.engine.sessions import GenerationLike
from repro.env.observation import OBSERVATION_DIM, ObservationEncoder
from repro.errors import ConfigurationError, ServingError
from repro.storage.migration import MigrationAction
from repro import telemetry
from repro.telemetry import LatencyHistogram

__all__ = ["DecisionTicket", "DecisionWave", "PolicyServer", "ServerStats"]


class DecisionWave:
    """One ``submit_many`` call's requests and, row by row, their answers.

    Rows are served front to back, possibly by several flushes:
    ``actions[:resolved]`` hold decisions, and once ``error`` is set
    every row from ``resolved`` on is terminally failed (backend fault,
    cancel).  ``raw`` is the caller's block, not a copy — it must stay
    untouched until the wave is ``done``.
    """

    __slots__ = ("slots", "raw", "actions", "resolved", "error")

    def __init__(self, slots: np.ndarray, raw: np.ndarray) -> None:
        self.slots = slots
        self.raw = raw
        self.actions = np.full(slots.shape[0], -1, dtype=np.int64)
        self.resolved = 0
        self.error: Optional[BaseException] = None

    def __len__(self) -> int:
        return self.slots.shape[0]

    @property
    def done(self) -> bool:
        """Every row reached a terminal state (decision *or* failure)."""
        return self.resolved == self.slots.shape[0] or self.error is not None

    def fail(self, error: BaseException) -> None:
        """Terminally fail every row that has no decision yet."""
        if not self.done:
            self.error = error


_Segment = Tuple[DecisionWave, int, int]  # rows [begin, stop) of a parked wave


class DecisionTicket(NamedTuple):
    """Handle for one queued request: row ``0 <= row < len(wave)`` of ``wave``."""

    wave: DecisionWave
    row: int

    @property
    def done(self) -> bool:
        """The request reached a terminal state (decision *or* failure)."""
        return self.row < self.wave.resolved or self.wave.error is not None

    @property
    def failed(self) -> bool:
        return self.row >= self.wave.resolved and self.wave.error is not None

    @property
    def action(self) -> Optional[int]:
        """The decided action index, or ``None`` (pending / failed)."""
        if self.row < self.wave.resolved:
            return int(self.wave.actions[self.row])
        return None

    def result(self) -> MigrationAction:
        action = self.action
        if action is not None:
            return MigrationAction(action)
        error = self.wave.error
        if error is not None:
            raise ServingError(f"decision request failed: {error}") from error
        raise ConfigurationError(
            "decision not available yet — flush() the server first"
        )


@dataclass
class ServerStats:
    """Aggregate serving counters (reported by :meth:`PolicyServer.stats`)."""

    decisions: int = 0
    batches: int = 0
    max_batch: int = 0
    failed: int = 0
    swaps: int = 0
    action_counts: np.ndarray = field(
        default_factory=lambda: np.zeros(len(MigrationAction), dtype=np.int64)
    )
    # Per-request latency SLO histogram.  The in-process broker has no
    # request timestamps of its own; the network front door (and any
    # other timed caller) records arrival-to-reply latencies here.
    latency: LatencyHistogram = field(default_factory=LatencyHistogram)

    @property
    def mean_batch_size(self) -> float:
        return self.decisions / self.batches if self.batches else 0.0

    def as_dict(self) -> Dict[str, object]:
        return {
            "decisions": self.decisions,
            "batches": self.batches,
            "mean_batch_size": round(self.mean_batch_size, 2),
            "max_batch": self.max_batch,
            "failed": self.failed,
            "swaps": self.swaps,
            "action_counts": self.action_counts.tolist(),
            "latency": self.latency.as_dict(),
        }


class PolicyServer:
    """Micro-batching request broker in front of one decision backend.

    Two usage styles share the same batched core:

    * **queued** — ``submit_many()`` parks one :class:`DecisionWave`
      per call (``submit()`` is its one-row case and returns a
      :class:`DecisionTicket`); the queue auto-flushes when it reaches
      ``max_batch_size`` (or on explicit ``flush()``), at which point
      every queued row resolves from one backend call;
    * **direct** — ``decide_now(session_ids, raw_matrix)`` for callers
      that already hold a whole batch (benchmarks, bulk evaluation).

    A session may have at most one request in flight; submitting a second
    one first flushes the queue, preserving the per-session decision
    order a sequential client would see.
    """

    def __init__(
        self,
        backend: DecisionBackend,
        encoder: ObservationEncoder,
        max_batch_size: int = 256,
        initial_capacity: int = 1024,
    ) -> None:
        if max_batch_size <= 0:
            raise ConfigurationError("max_batch_size must be positive")
        check_encoder = getattr(backend, "check_encoder", None)
        if check_encoder is not None:
            check_encoder(encoder)
        self.backend = backend
        self.encoder = encoder
        self.max_batch_size = int(max_batch_size)
        self.table = backend.session_table(initial_capacity)
        # The queue: row ranges of parked waves in arrival order, their
        # total row count, and which slots have a row among them.
        self._segments: List[_Segment] = []
        self._queued = 0
        self._pending_mask = np.zeros(self.table.capacity, dtype=bool)
        self._stats = ServerStats()
        # Single-entry normalisation buffer: replaced (not accumulated)
        # when the micro-batch size changes, so steady-state serving is
        # allocation-free and fluctuating batch sizes stay bounded.  A
        # backend that ``reads_raw`` never needs it.
        self._normalize_buffer: Optional[np.ndarray] = None
        # Telemetry: what ``stats()``, the table and the queue count is read
        # at scrape time (views); the rest are instruments resolved once here,
        # so hot paths record through plain attribute calls (no-ops if off).
        self.metrics = telemetry.registry()
        self.tracer = telemetry.tracer()
        for count, help_text in (
            ("decisions", "Decisions served by the broker"),
            ("batches", "Backend micro-batch calls"),
            ("failed", "Requests failed (backend faults + cancels)"),
            ("swaps", "Blue/green backend swaps"),
        ):
            self.metrics.view(
                f"serving_{count}_total", help_text, self._stats, attrgetter(count), keep=True
            )
        for name, help_text, attribute in (
            ("sessions_active", "Open sessions in the table", "table.num_active"),
            ("sessions_peak", "Peak concurrently open sessions", "table.peak_active"),
            ("pending_requests", "Requests queued in the broker", "pending"),
        ):
            self.metrics.view(f"serving_{name}", help_text, self, attrgetter(attribute), "gauge")
        self.metrics.view(
            "serving_backend_info", "1 for the mounted decision backend", self,
            lambda broker: {broker.backend.name: 1}, "gauge", label="backend",
        )
        self._m_cancelled = self.metrics.counter(
            "serving_cancelled_total", "Requests cancelled before a decision"
        )
        self._m_batch_size = self.metrics.histogram(
            "serving_batch_size",
            "Micro-batch size distribution",
            num_buckets=16,
            base=1.0,
            factor=2.0,
        )
        self._m_queue_depth = self.metrics.gauge(
            "serving_queue_depth", "Queued requests at the last flush"
        )
        self._m_queue_peak = self.metrics.gauge(
            "serving_queue_depth_peak", "Deepest micro-batch queue observed"
        )

    # ------------------------------------------------------------------
    # Session lifecycle
    # ------------------------------------------------------------------
    def open_sessions(self, count: int = 1) -> np.ndarray:
        slots = self.table.open(count)
        self.backend.begin_sessions(self.table, slots)
        return slots

    def open_session(self) -> int:
        return int(self.open_sessions(1)[0])

    def close_sessions(
        self, session_ids, expected_generation: Optional[GenerationLike] = None
    ) -> None:
        slots = self.table.checked_slots(
            session_ids, unique=True, expected_generation=expected_generation
        )
        if self._queued and self._mask()[slots].any():
            self.flush()
        end_sessions = getattr(self.backend, "end_sessions", None)
        if end_sessions is not None:
            end_sessions(self.table, slots)
        self.table.close(slots)

    # ------------------------------------------------------------------
    # Queued path
    # ------------------------------------------------------------------
    def submit(
        self,
        session_id: int,
        raw_observation: np.ndarray,
        expected_generation: Optional[int] = None,
    ) -> DecisionTicket:
        """Queue one request (the one-row wave); auto-flush when the batch fills."""
        raw = np.asarray(raw_observation, dtype=float)
        if raw.shape != (OBSERVATION_DIM,):
            raise ConfigurationError(
                f"raw observation must have shape ({OBSERVATION_DIM},), got {raw.shape}"
            )
        return DecisionTicket(
            self.submit_many(session_id, raw[None], expected_generation), 0
        )

    def submit_many(
        self,
        session_ids,
        raw_matrix: np.ndarray,
        expected_generation: Optional[GenerationLike] = None,
    ) -> DecisionWave:
        """Queue one request per row; returns the wave the answers land in.

        Micro-batch composition is that of queueing the rows one by one:
        the queue is flushed before a row whose session already has a
        row queued, and whenever it reaches ``max_batch_size``.  Rows of
        one wave name distinct sessions, so only rows queued *before* it
        can collide with it, and only until the first flush: the split
        points are found per flush, not per row.  A backend fault in such
        a flush propagates and the rest of the wave is never queued.
        """
        slots, raw = self._checked_wave(session_ids, raw_matrix, expected_generation)
        # Own the slot vector: it keys the pending mask until the last
        # row is flushed, whatever the caller does with theirs meanwhile.
        wave = DecisionWave(slots.copy(), raw)
        slots = wave.slots
        rows = slots.shape[0]
        mask = self._mask()
        collision = -1  # first row whose session is already queued
        if self._queued:
            collides = mask[slots]
            if collides.any():
                collision = int(collides.argmax())
        begin = 0
        while begin < rows:
            stop = min(rows, begin + max(1, self.max_batch_size - self._queued))
            if begin <= collision < stop:
                stop = collision
            if stop > begin:
                self._segments.append((wave, begin, stop))
                self._queued += stop - begin
                mask[slots[begin:stop]] = True
            if stop == collision or self._queued >= self.max_batch_size:
                self.flush()
                collision = -1
            begin = stop
        return wave

    def _mask(self) -> np.ndarray:
        """The pending mask, grown to the table's current capacity."""
        grown = self.table.capacity - self._pending_mask.shape[0]
        if grown > 0:
            self._pending_mask = np.append(self._pending_mask, np.zeros(grown, bool))
        return self._pending_mask

    def _detach_queue(self) -> Tuple[List[_Segment], int]:
        """Empty the queue; returns its segments and their row count."""
        segments, depth = self._segments, self._queued
        self._segments = []
        self._queued = 0
        for wave, begin, stop in segments:
            self._pending_mask[wave.slots[begin:stop]] = False
        return segments, depth

    def _fail_detached(
        self, segments: List[_Segment], depth: int, error: BaseException
    ) -> None:
        for wave, _begin, _stop in segments:
            wave.fail(error)
        self._stats.failed += depth

    def cancel_pending(self, error: Optional[BaseException] = None) -> int:
        """Fail every queued row without calling the backend.

        The broker-side abort path: drain/shutdown flows that decide not
        to serve the queued micro-batch must route through here so the
        queue, the per-session single-in-flight mask and the failure
        counters stay consistent — failing a wave from outside (e.g.
        ``wave.fail`` on a parked network reply) would leave its rows
        queued and ``pending`` would read nonzero after a "clean" drain.
        Rows an earlier flush already answered keep their decisions.
        Returns the number of cancelled requests.
        """
        segments, depth = self._detach_queue()
        if error is None:
            error = ServingError("request cancelled before a decision was made")
        self._fail_detached(segments, depth, error)
        self._m_cancelled.inc(depth)
        return depth

    def flush(self) -> int:
        """Serve every queued request in one backend call; returns the count.

        One wave filling the batch reaches the backend as slices of its
        own columns; only several coalesced waves are concatenated.
        A backend fault cannot strand requests: the queue is detached
        first, and if the backend raises, every detached row is failed
        explicitly (``wave.error``, ``result()`` raises
        :class:`~repro.errors.ServingError`) before the exception
        propagates — the server itself stays consistent and keeps
        serving subsequent batches.
        """
        segments, depth = self._detach_queue()
        if not depth:
            return 0
        if len(segments) == 1:
            wave, begin, stop = segments[0]
            slots, raw = wave.slots[begin:stop], wave.raw[begin:stop]
        else:
            slots = np.concatenate([w.slots[b:s] for w, b, s in segments])
            raw = np.concatenate([w.raw[b:s] for w, b, s in segments])
        self._m_queue_depth.set(depth)
        if depth > self._m_queue_peak.value:
            self._m_queue_peak.set(depth)
        try:
            with self.tracer.span("broker.flush", batch=depth) as flush_span:
                actions = self._decide(slots, raw)
                flush_span.set("backend", self.backend.name)
        except Exception as exc:
            self._fail_detached(segments, depth, exc)
            raise
        served = 0
        for wave, begin, stop in segments:
            wave.actions[begin:stop] = actions[served : served + stop - begin]
            wave.resolved = stop
            served += stop - begin
        return depth

    @property
    def pending(self) -> int:
        return self._queued

    # ------------------------------------------------------------------
    # Direct path
    # ------------------------------------------------------------------
    def decide_now(
        self,
        session_ids,
        raw_matrix: np.ndarray,
        expected_generation: Optional[GenerationLike] = None,
    ) -> np.ndarray:
        """Serve one already-assembled batch (row i answers session i)."""
        slots, raw = self._checked_wave(session_ids, raw_matrix, expected_generation)
        return self._decide(slots, raw)

    # ------------------------------------------------------------------
    # Shared core
    # ------------------------------------------------------------------
    def _checked_wave(
        self,
        session_ids,
        raw_matrix: np.ndarray,
        expected_generation: Optional[GenerationLike],
    ) -> "tuple[np.ndarray, np.ndarray]":
        """Validate one wave of requests; returns ``(slots, raw)``.

        Slots must be open, distinct and of the expected generation
        (``unique=True`` sorts the batch — it never scans the table
        capacity), and ``raw`` must hold one ``OBSERVATION_DIM`` row per
        slot, every value finite: one NaN would stay in a GRU session's
        hidden row for good.  Every entry point validates here and
        differs only in what it does with the wave: queue it or serve it.
        """
        slots = self.table.checked_slots(
            session_ids, unique=True, expected_generation=expected_generation
        )
        raw = np.asarray(raw_matrix, dtype=float)
        if raw.ndim != 2 or raw.shape[0] != slots.shape[0]:
            raise ConfigurationError(
                f"raw matrix must have one row per session, got {raw.shape} "
                f"for {slots.shape[0]} sessions"
            )
        if raw.shape[1] != OBSERVATION_DIM:
            raise ConfigurationError(
                f"raw matrix must have {OBSERVATION_DIM} columns "
                f"(one observation per row), got {raw.shape[1]}"
            )
        if not np.isfinite(raw).all():
            raise ConfigurationError("raw matrix holds a non-finite value (NaN or inf)")
        return slots, raw

    def _decide(self, slots: np.ndarray, raw: np.ndarray) -> np.ndarray:
        if getattr(self.backend, "reads_raw", False):
            normalized = None
        else:
            buffer = self._normalize_buffer
            if buffer is None or buffer.shape != raw.shape:
                buffer = np.empty_like(raw)
                self._normalize_buffer = buffer
            normalized = self.encoder.normalize_batch(raw, out=buffer)
        actions = self.backend.decide(self.table, slots, raw, normalized)
        # ``slots`` were validated by the caller; count directly.
        self.table.steps[slots] += 1
        batch = int(slots.shape[0])
        self._stats.decisions += batch
        self._stats.batches += 1
        self._stats.max_batch = max(self._stats.max_batch, batch)
        self._stats.action_counts += np.bincount(
            actions, minlength=self._stats.action_counts.shape[0]
        )
        self._m_batch_size.record(batch)
        return actions

    def stats(self) -> ServerStats:
        return self._stats

    # ------------------------------------------------------------------
    # Blue/green backend swap
    # ------------------------------------------------------------------
    def swap_backend(self, backend: DecisionBackend) -> Dict[str, object]:
        """Replace the live backend, preserving every open session handle.

        The blue/green core: the pending micro-batch is drained through
        the *old* backend first (no request is lost or answered by a
        half-installed engine), then the new backend gets a session
        table with the old table's slot allocation adopted verbatim —
        slots, generations and step counters all keep their meaning, so
        clients never observe the swap; the caller gets the record this
        returns.

        Per-session decision state is **migrated** when old and new
        backends report equal ``session_state_signature()`` tokens
        (same state semantics), and **reset** via the new backend's
        ``begin_sessions`` otherwise.  An incompatible observation
        encoder aborts the swap before any state changes.
        """
        check_encoder = getattr(backend, "check_encoder", None)
        if check_encoder is not None:
            check_encoder(self.encoder)  # abort-before-mutate
        flushed = self.flush()
        old_backend, old_table = self.backend, self.table
        new_table = backend.session_table(old_table.capacity)
        new_table.ensure_capacity(old_table.capacity)
        new_table.adopt_allocation(old_table)
        active = old_table.active_slots()

        old_signature = getattr(old_backend, "session_state_signature", None)
        new_signature = getattr(backend, "session_state_signature", None)
        migrated = (
            old_signature is not None
            and new_signature is not None
            and old_signature() is not None
            and old_signature() == new_signature()
        )
        if active.size:
            if migrated:
                new_table.state[active] = old_table.state[active]
                if new_table.hidden is not None and old_table.hidden is not None:
                    new_table.hidden[active] = old_table.hidden[active]
            else:
                backend.begin_sessions(new_table, active)
        end_sessions = getattr(old_backend, "end_sessions", None)
        if end_sessions is not None:
            end_sessions(old_table, active)

        self.backend = backend
        self.table = new_table
        self._stats.swaps += 1
        return {
            "from_backend": old_backend.name,
            "to_backend": backend.name,
            "flushed_pending": int(flushed),
            "active_sessions": int(active.size),
            "state": "migrated" if migrated else "reset",
        }
