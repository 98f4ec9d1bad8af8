"""The asyncio network front door for the policy decision server.

Everything before this module serves decisions to *in-process* callers;
:class:`PolicyNetServer` puts the micro-batching
:class:`~repro.serving.server.PolicyServer` behind a real transport —
a unix socket and/or TCP — so separate processes (and hosts) can open
sessions and stream decision requests at it.

Wire format
-----------
Length-prefixed frames: a 5-byte header ``!BI`` (1 codec byte, 4-byte
big-endian body length, at most ``MAX_FRAME_BYTES``) followed by the
body.  There are two codecs and any other codec byte is a protocol
error that costs the sender its connection.

====== ============================ ==========================================
codec  body                         used for
====== ============================ ==========================================
``0``  one UTF-8 JSON dict          control ops (``open``, ``close``,
                                    ``stats``, ``metrics``, ``ping``) and
                                    every error reply; ``id`` is echoed
                                    verbatim
``1``  ``<QI`` (request id, ``n``)  the one decide op, little-endian columns:
       then ``n``-row columns       request ``slots int64[n]``, ``generations
                                    int64[n]``, ``observations float64[n, 35]``
                                    (``12 + 296 n`` bytes); reply ``actions
                                    int64[n]`` (``12 + 8 n`` bytes)
====== ============================ ==========================================

A decide frame is one *block*: ``n >= 1`` rows naming distinct sessions.
The single-session decide is the ``n = 1`` block.  Errors are JSON
frames carrying the block's request id and apply to the whole block:
``BAD_REQUEST``, ``STALE_SESSION``, ``BUSY`` and ``DRAINING`` mean no
row was queued (the block is validated before any row enters the
queue, exactly as :meth:`PolicyServer.submit_many` validates a wave);
``BACKEND_ERROR`` means at least one row's decision failed.

Batching
--------
Both ends are :class:`asyncio.Protocol` objects whose
``data_received`` cuts every whole frame out of one receive buffer
(:class:`FrameSplitter`) and handles it at once.  A decide block becomes
one :class:`~repro.serving.server.DecisionWave` in the broker's queue
and its reply is parked on it; the queue flushes when it reaches the
broker's ``max_batch_size`` (size trigger, synchronous) or when the
event loop goes idle: the first parked block arms a ``loop.call_soon``
callback, which re-arms while blocks keep parking and flushes after a
loop pass that parked none.  ``flush_interval`` caps how long a
never-idle loop delays that flush and paces a ``call_later`` fallback
tick, armed only while a faulted flush left replies parked.  A block is
answered once its last row resolved, and its arrival→reply latency is
recorded once per row into the
:class:`~repro.serving.server.ServerStats` SLO histogram.

Back-pressure is per connection and counted in rows: a block that would
put more than ``max_inflight`` unanswered rows on one connection gets
an immediate ``BUSY`` error reply instead of queue slots, so one
flooding client cannot grow the queue unboundedly for everyone else.
Past 1 MiB of unsent replies the server stops reading that peer
(``pause_writing``); a paused client's next request waits likewise.

Session handles are ``(slot, generation)`` pairs.  Every request that
names a session carries both, and the server validates the generation
against the session table — a reconnecting client holding a handle
whose slot was closed and reused gets ``STALE_SESSION``, never another
tenant's session.

Lifecycle
---------
A backend swap is an in-process call on the broker,
:meth:`PolicyServer.swap_backend`: it flushes the in-flight micro-batch
through the old backend, whose parked replies go out with the idle
flush their blocks armed, and session handles survive it.  The wire has
no swap op.  Graceful drain (:meth:`PolicyNetServer.drain`) stops
accepting, flushes and resolves everything still queued, then closes
every connection and waits for its transport — no request is ever left
unresolved.
"""

from __future__ import annotations

import asyncio
import itertools
import json
import struct
import time
from operator import attrgetter
from typing import Dict, Iterator, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.env.observation import OBSERVATION_DIM
from repro.errors import ConfigurationError, ReproError, ServingError, StaleSessionError
from repro.serving.server import DecisionWave, PolicyServer

CODEC_JSON = 0
CODEC_DECIDE = 1
_HEADER = struct.Struct("!BI")
_BLOCK = struct.Struct("<QI")  # request id, rows
# One decide request row: slot, generation, observation; one reply row: action.
DECIDE_ROW_BYTES = 8 * (2 + OBSERVATION_DIM)
_ACTION_ROW_BYTES = 8
MAX_FRAME_BYTES = 16 * 1024 * 1024
# Largest ``open`` one request may ask for: the wire is not trusted with
# the session table's allocation size, and this is the largest open
# whose handles reply still fits one frame.
MAX_OPEN_PER_REQUEST = 1 << 20
_CONTROL_OPS = ("open", "close", "stats", "metrics", "ping")
_ERROR_CODES = ("BUSY", "STALE_SESSION", "BAD_REQUEST", "BACKEND_ERROR", "DRAINING")


def _frame(codec: int, body: bytes) -> bytes:
    if len(body) > MAX_FRAME_BYTES:
        raise ConfigurationError(f"frame too large: {len(body)} bytes")
    return _HEADER.pack(codec, len(body)) + body


def encode_frame(payload: Dict[str, object]) -> bytes:
    """Serialise one message dict into a length-prefixed JSON frame."""
    return _frame(CODEC_JSON, json.dumps(payload, separators=(",", ":")).encode("utf-8"))


def encode_block(request_id: int, *columns: np.ndarray) -> bytes:
    """One decide frame: ``(slots, generations, observations)`` or ``(actions,)``.

    Every column holds one entry per row, already in its wire dtype
    (int64, or float64 for the observation matrix).
    """
    rows = int(columns[0].shape[0])
    body = _BLOCK.pack(request_id, rows) + b"".join(
        column.tobytes() for column in columns
    )
    return _frame(CODEC_DECIDE, body)


def _decode_block(body: bytes, reply: bool) -> tuple:
    if len(body) < _BLOCK.size:
        raise ConfigurationError(f"truncated decide block: {len(body)} bytes")
    request_id, rows = _BLOCK.unpack_from(body)
    row_bytes = _ACTION_ROW_BYTES if reply else DECIDE_ROW_BYTES
    if rows == 0 or len(body) != _BLOCK.size + rows * row_bytes:
        raise ConfigurationError(
            f"decide block of {rows} rows must be {_BLOCK.size} + {row_bytes} * rows "
            f"bytes with rows >= 1, got {len(body)}"
        )
    if reply:
        return request_id, np.frombuffer(body, dtype="<i8", offset=_BLOCK.size)
    handles = np.frombuffer(body, dtype="<i8", count=2 * rows, offset=_BLOCK.size)
    observations = np.frombuffer(body, dtype="<f8", offset=_BLOCK.size + 16 * rows)
    return (
        request_id,
        handles[:rows],
        handles[rows:],
        observations.reshape(rows, OBSERVATION_DIM),
    )


def decode_body(codec: int, body: bytes, reply: bool = False):
    """Deserialise one frame body; anything malformed is a ``ConfigurationError``.

    Codec 0 gives the message dict.  Codec 1 gives the block's read-only
    column views — ``(request id, slots, generations, observations)``,
    or ``(request id, actions)`` when ``reply`` says which way the frame
    travelled (the two directions share the codec byte).
    """
    if codec == CODEC_DECIDE:
        return _decode_block(body, reply)
    if codec != CODEC_JSON:
        raise ConfigurationError(f"unknown frame codec {codec}")
    try:
        payload = json.loads(str(body, "utf-8"))
    except ValueError as exc:  # JSONDecodeError and UnicodeDecodeError
        raise ConfigurationError(f"malformed frame body: {exc}") from exc
    if not isinstance(payload, dict):
        raise ConfigurationError("frame payload must be a mapping")
    return payload


class FrameSplitter:
    """Cuts frames out of a byte stream chunk by chunk, as requests or as
    replies (``reply``, as for :func:`decode_body`)."""

    __slots__ = ("reply", "_buffer", "_need")

    def __init__(self, reply: bool = False) -> None:
        self.reply = reply
        self._buffer = bytearray()
        self._need = _HEADER.size  # bytes the buffered frame needs to be cut

    def feed(self, data: bytes) -> Iterator[tuple]:
        """Yield ``(codec, payload)`` for every frame ``data`` completes, in order,
        decoded from views of it; a malformed frame raises ``ConfigurationError``."""
        if self._buffer:
            self._buffer += data
            if len(self._buffer) < self._need:
                return
            data = bytes(self._buffer)
            self._buffer.clear()
        offset, size, need = 0, len(data), _HEADER.size
        while size - offset >= _HEADER.size:
            codec, length = _HEADER.unpack_from(data, offset)
            if length > MAX_FRAME_BYTES:
                raise ConfigurationError(f"frame too large: {length} bytes")
            start = offset + _HEADER.size
            if size - start < length:
                need = _HEADER.size + length
                break
            offset = start + length
            yield codec, decode_body(codec, memoryview(data)[start:offset], self.reply)
        if offset < size:
            self._buffer += memoryview(data)[offset:]
            self._need = need

    def end(self) -> None:
        """The peer hung up: a frame cut short is a ``ConfigurationError``."""
        body, length = len(self._buffer) - _HEADER.size, self._need - _HEADER.size
        if body >= 0:
            raise ConfigurationError(f"truncated frame body: {body} of {length} bytes")
        if self._buffer:
            raise ConfigurationError("truncated frame header")


class _Connection(asyncio.Protocol):
    """One server-side connection: frames in, replies out, rows in flight."""

    def __init__(self, net: "PolicyNetServer") -> None:
        self.net = net
        self.frames = FrameSplitter()
        self.transport: Optional[asyncio.Transport] = None
        self.inflight = 0  # unanswered decide rows
        self.closed = False
        self.broken = False
        self.lost = asyncio.get_running_loop().create_future()  # the transport is gone

    def connection_made(self, transport: asyncio.Transport) -> None:
        self.transport = transport
        # Past 1 MiB of unsent replies the peer is not read (pause_writing).
        transport.set_write_buffer_limits(high=1 << 20)
        self.net._connections.append(self)
        self.net.connections_total += 1
        if self.net._draining:
            self.close()

    def data_received(self, data: bytes) -> None:
        net = self.net
        try:
            for codec, request in self.frames.feed(data):
                if codec == CODEC_DECIDE:
                    net._decide_block(self, *request)
                else:
                    net._dispatch(self, request)
        except ConfigurationError:
            net.protocol_errors += 1
            self.close()

    def eof_received(self) -> None:
        try:
            self.frames.end()
        except ConfigurationError:
            self.net.protocol_errors += 1
        self.close()

    def pause_writing(self) -> None:
        self.transport.pause_reading()

    def resume_writing(self) -> None:
        self.transport.resume_reading()

    def connection_lost(self, exc: Optional[Exception]) -> None:
        self.close()
        if not self.lost.done():
            self.lost.set_result(None)

    def close(self) -> None:
        """Hang up; queued rows stay in the batch, their replies dropped."""
        if not self.closed:
            self.closed = True
            self.net._connections.remove(self)
        self.transport.close()

    def send(self, frame: bytes) -> bool:
        """Write one reply frame; ``False`` if the connection can't take it.

        A transport that raises marks the connection ``broken``, so one
        dead peer never costs a settling micro-batch the other replies.
        """
        if self.closed or self.broken or self.transport.is_closing():
            return False
        try:
            self.transport.write(frame)
        except (OSError, RuntimeError):
            self.broken = True
            return False
        return True


class _Block(NamedTuple):
    """One parked decide reply, settled when its wave is done."""

    wave: DecisionWave
    connection: _Connection
    request_id: int
    arrived: float


class PolicyNetServer:
    """Asyncio front door feeding one :class:`PolicyServer` broker.

    Parameters
    ----------
    server:
        The in-process micro-batching broker to serve through.
    flush_interval:
        A bound, not a batching delay: blocks flush once the event
        loop goes idle, a never-idle loop still flushes this often, and
        so does a fallback tick settling replies resolved out of band.
    max_inflight:
        Per-connection bound on unanswered decide rows; a block that
        would exceed it is answered ``BUSY`` immediately (back-pressure).
    """

    def __init__(
        self, server: PolicyServer, flush_interval: float = 0.002, max_inflight: int = 64
    ) -> None:
        if flush_interval <= 0:
            raise ConfigurationError("flush_interval must be positive")
        if max_inflight <= 0:
            raise ConfigurationError("max_inflight must be positive")
        self.server = server
        self.flush_interval = float(flush_interval)
        self.max_inflight = int(max_inflight)
        self._parked: List[_Block] = []
        self._connections: List[_Connection] = []
        self._listeners: List[asyncio.AbstractServer] = []
        self._parks = 0  # blocks parked so far; the idle flush watches it move
        self._idle_flush: Optional[asyncio.Handle] = None
        self._tick: Optional[asyncio.TimerHandle] = None
        self._draining = False
        self.connections_total = 0
        self.busy_rejections = 0  # rows refused; the BUSY replies count in error_replies
        self.protocol_errors = 0
        self.replies_dropped = 0
        self.flush_loop_errors = 0
        self.last_flush_error: Optional[str] = None
        # Every op and error code is seeded at zero (bounded label
        # values; unknown ops count under "other").  The broker's
        # registry reads these counts at scrape time (views), so one
        # ``metrics`` scrape exposes broker + front-door series together.
        self.requests_by_op = dict.fromkeys(("decide", *_CONTROL_OPS, "other"), 0)
        self.decide_rows = 0
        self.error_replies = dict.fromkeys(_ERROR_CODES, 0)
        self.metrics = server.metrics
        for name, help_text, kind, label, read in (
            ("requests_total", "Frames dispatched, by op",
             "counter", "op", attrgetter("requests_by_op")),
            ("decide_rows_total", "Rows carried by decide frames",
             "counter", None, attrgetter("decide_rows")),
            ("error_replies_total", "Error replies sent, by structured code",
             "counter", "code", attrgetter("error_replies")),
            ("connections_total", "Connections accepted",
             "counter", None, attrgetter("connections_total")),
            ("connections_open", "Currently open connections",
             "gauge", None, lambda net: len(net._connections)),
            ("replies_dropped_total", "Replies dropped on closed/broken peers",
             "counter", None, attrgetter("replies_dropped")),
            ("flush_loop_errors_total", "Flush-loop ticks that hit an unexpected fault",
             "counter", None, attrgetter("flush_loop_errors")),
            ("parked_replies", "Replies parked on pending waves",
             "gauge", None, lambda net: len(net._parked)),
        ):
            self.metrics.view(f"netserver_{name}", help_text, self, read, kind, label)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(
        self, unix_path: Optional[str] = None, host: Optional[str] = None, port: int = 0
    ) -> Dict[str, object]:
        """Open the listeners; returns the bound endpoints, ``{"unix": path,
        "tcp": (host, port)}`` for whichever transports were requested."""
        if unix_path is None and host is None:
            raise ConfigurationError("need a unix_path and/or a TCP host to listen on")
        loop = asyncio.get_running_loop()
        endpoints: Dict[str, object] = {}
        if unix_path is not None:
            listener = await loop.create_unix_server(lambda: _Connection(self), unix_path)
            self._listeners.append(listener)
            endpoints["unix"] = unix_path
        if host is not None:
            listener = await loop.create_server(lambda: _Connection(self), host, port)
            self._listeners.append(listener)
            bound = listener.sockets[0].getsockname()
            endpoints["tcp"] = (bound[0], bound[1])
        return endpoints

    async def drain(self) -> Dict[str, object]:
        """Graceful shutdown: stop accepting, resolve everything, close.

        Guarantees on return: no queued request is unresolved (every
        parked reply was written, as a decision or an explicit error),
        no listener accepts, and every connection is closed.
        """
        self._draining = True
        for listener in self._listeners:
            listener.close()
        self._flush_and_settle()
        # Anything still unresolved is cancelled *in the broker* —
        # failing the waves from out here would leave their rows in the
        # broker's queue, and ``pending`` would read nonzero after a
        # "clean" drain.
        if self._parked:
            drained = ServingError("server drained before decision")
            self.server.cancel_pending(drained)
            for block in self._parked:
                # Backstop for a wave the broker no longer tracks
                # (cannot normally happen — cancel/flush resolve or
                # fail every queued row); a no-op on a done one.
                block.wave.fail(drained)
            self._settle()
        for handle in (self._idle_flush, self._tick):
            if handle is not None:
                handle.cancel()
        self._idle_flush = self._tick = None
        connections = list(self._connections)
        for connection in connections:
            connection.close()
        for connection in connections:
            await connection.lost
        # Last: from Python 3.12 a listener waits for its connections too.
        for listener in self._listeners:
            await listener.wait_closed()
        self._listeners = []
        return self.summary()

    def summary(self) -> Dict[str, object]:
        stats = self.server.stats().as_dict()
        return {
            "backend": self.server.backend.name,
            "active_sessions": self.server.table.num_active,
            "peak_sessions": self.server.table.peak_active,
            "pending": self.server.pending,
            "parked_replies": len(self._parked),
            "connections_total": self.connections_total,
            "connections_open": len(self._connections),
            "requests_total": sum(self.requests_by_op.values()),
            "busy_rejections": self.busy_rejections,
            "protocol_errors": self.protocol_errors,
            "replies_dropped": self.replies_dropped,
            "flush_loop_errors": self.flush_loop_errors,
            "last_flush_error": self.last_flush_error,
            "draining": self._draining,
            **stats,
        }

    # ------------------------------------------------------------------
    # Batching
    # ------------------------------------------------------------------
    def _arm_flush(self) -> None:
        """A block parked: flush once a loop pass parks no more (idle trigger)."""
        self._parks += 1
        if self._idle_flush is None:
            loop = asyncio.get_running_loop()
            self._idle_flush = loop.call_soon(
                self._flush_when_idle, loop.time() + self.flush_interval, self._parks
            )

    def _flush_when_idle(self, deadline: float, parks: int) -> None:
        loop = asyncio.get_running_loop()
        if self._parks != parks and loop.time() < deadline:
            # More blocks parked since: wait a pass for any still arriving.
            self._idle_flush = loop.call_soon(self._flush_when_idle, deadline, self._parks)
            return
        self._idle_flush = None
        self._flush_and_settle()

    def _fallback_tick(self) -> None:
        self._tick = None
        self._flush_and_settle()

    def _flush_and_settle(self) -> None:
        """Serve whatever is queued and write every reply that resolved.

        A backend fault fails the flushed rows, which settle as error
        replies.  Any other surprise is counted and kept for
        ``summary()``, never raised (it would abort a drain half-done);
        replies it left parked settle on the fallback tick.
        """
        try:
            if self.server.pending:
                try:
                    self.server.flush()
                except ReproError:
                    pass  # the rows were failed; replies settle below
            self._settle()
        except Exception as exc:
            self.flush_loop_errors += 1
            self.last_flush_error = f"{type(exc).__name__}: {exc}"
        if self._parked and self._tick is None:
            loop = asyncio.get_running_loop()
            self._tick = loop.call_later(self.flush_interval, self._fallback_tick)

    def _settle(self) -> None:
        """Write the reply of every parked block whose wave is done.

        A block served by several flushes settles once, when the last
        of its rows resolved (or the first of them failed).
        """
        if not self._parked:
            return
        unresolved: List[_Block] = []
        now = time.perf_counter()
        latency = self.server.stats().latency
        for block in self._parked:
            wave = block.wave
            if not wave.done:
                unresolved.append(block)
                continue
            latency.record_many(np.full(len(wave), now - block.arrived))
            block.connection.inflight -= len(wave)
            if wave.error is not None:
                sent = self._send_error(
                    block.connection,
                    "BACKEND_ERROR",
                    f"decision failed: {wave.error}",
                    block.request_id,
                )
            else:
                sent = block.connection.send(encode_block(block.request_id, wave.actions))
            if not sent:
                # Closed or broken peer: its reply is dropped (counted),
                # everyone else's in this batch still settles.
                self.replies_dropped += 1
        self._parked = unresolved

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------
    def _send_error(
        self, connection: _Connection, code: str, message: str, request_id: object
    ) -> bool:
        """Send one structured error reply, counted by code; ``False`` if dropped."""
        self.error_replies[code] += 1
        return self._reply(connection, request_id, ok=False, error=code, message=message)

    def _op_metrics(self) -> Dict[str, object]:
        """Both expositions of the shared registry (views, read as they render).

        ``last_flush_error`` rides along verbatim: error strings are
        unbounded, so the series ``netserver_flush_loop_errors_total``
        carries only the count.
        """
        return {
            "prometheus": self.metrics.to_prometheus_text(),
            "json": self.metrics.as_dict(),
            "last_flush_error": self.last_flush_error,
            "flush_loop_errors": self.flush_loop_errors,
        }

    def _dispatch(self, connection: _Connection, request: Dict[str, object]) -> None:
        request_id = request.get("id")
        op = request.get("op")
        self.requests_by_op[op if op in _CONTROL_OPS else "other"] += 1
        try:
            if op == "metrics":
                exposition = self._op_metrics()
                self._reply(connection, request_id, metrics=exposition)
            elif op == "open":
                count = int(request.get("count", 1))
                if count > MAX_OPEN_PER_REQUEST:
                    raise ServingError(
                        f"open count {count} exceeds the per-request limit "
                        f"{MAX_OPEN_PER_REQUEST}"
                    )
                slots = self.server.open_sessions(count)
                generations = self.server.table.generation[slots]
                handles = [[int(slot), int(gen)] for slot, gen in zip(slots, generations)]
                self._reply(connection, request_id, handles=handles)
            elif op == "close":
                slots, generations = self._parse_handles(request)
                self.server.close_sessions(slots, expected_generation=generations)
                self._settle()  # close may have flushed pending requests
                self._reply(connection, request_id, closed=len(slots))
            elif op == "stats":
                self._reply(connection, request_id, stats=self.summary())
            elif op == "ping":
                self._reply(connection, request_id, pong=True)
            else:
                self._send_error(
                    connection, "BAD_REQUEST", f"unknown op {op!r}", request_id
                )
        except StaleSessionError as exc:
            self._send_error(connection, "STALE_SESSION", str(exc), request_id)
        except ReproError as exc:
            self._send_error(connection, "BAD_REQUEST", str(exc), request_id)
        except (KeyError, OverflowError, TypeError, ValueError) as exc:
            self.protocol_errors += 1
            self._send_error(
                connection, "BAD_REQUEST", f"malformed request: {exc}", request_id
            )

    def _decide_block(
        self, connection: _Connection, request_id: int, slots: np.ndarray,
        generations: np.ndarray, observations: np.ndarray,
    ) -> None:
        """Queue one decide block and park its reply (the only decide path)."""
        rows = int(slots.shape[0])
        self.requests_by_op["decide"] += 1
        self.decide_rows += rows
        if self._draining:
            self._send_error(connection, "DRAINING", "server is draining", request_id)
            return
        if connection.inflight + rows > self.max_inflight:
            self.busy_rejections += rows
            self._send_error(
                connection,
                "BUSY",
                f"block of {rows} rows with {connection.inflight} rows in flight "
                f"exceeds the connection limit {self.max_inflight}",
                request_id,
            )
            return
        arrived = time.perf_counter()
        batches = self.server.stats().batches
        try:
            wave = self.server.submit_many(
                slots, observations, expected_generation=generations
            )
        except StaleSessionError as exc:
            self._send_error(connection, "STALE_SESSION", str(exc), request_id)
            return
        except ConfigurationError as exc:
            self._send_error(connection, "BAD_REQUEST", str(exc), request_id)
            return
        except ReproError as exc:
            # A size-triggered auto-flush hit a backend fault.  It took
            # every queued row with it — this block's rows so far and
            # other blocks', whose parked replies settle here — and the
            # rest of this block was never enqueued.
            self._settle()
            self._send_error(connection, "BACKEND_ERROR", str(exc), request_id)
            return
        self._parked.append(_Block(wave, connection, request_id, arrived))
        connection.inflight += rows
        self._arm_flush()
        # The submit may have size- or same-session-triggered a flush;
        # settle at once so its replies do not wait for the idle flush.
        if self.server.stats().batches != batches:
            self._settle()

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------
    def _reply(
        self, connection: _Connection, request_id: object, ok: bool = True, **fields: object
    ) -> bool:
        payload: Dict[str, object] = {"ok": ok, **fields}
        if request_id is not None:
            payload["id"] = request_id
        return connection.send(encode_frame(payload))

    @staticmethod
    def _parse_handles(request: Dict[str, object]) -> Tuple[List[int], List[int]]:
        raw_handles = request.get("handles")
        if raw_handles is None:
            raw_handles = [request["handle"]]
        slots: List[int] = []
        generations: List[int] = []
        for handle in raw_handles:
            if not isinstance(handle, (list, tuple)) or len(handle) != 2:
                raise ConfigurationError(
                    f"session handle must be a [slot, generation] pair, got {handle!r}"
                )
            slots.append(int(handle[0]))
            generations.append(int(handle[1]))
        return slots, generations


class PolicyClient(asyncio.Protocol):
    """Asyncio client for :class:`PolicyNetServer` (pipelining, id-matched).

    Connect with :meth:`connect_unix` or :meth:`connect_tcp`.  Replies
    are matched to their requests' ``id`` as they are read, so any number
    of requests can be in flight on one connection (decide rows subject
    to ``BUSY``); once the connection is gone every call raises at once.
    """

    def __init__(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._frames = FrameSplitter(reply=True)
        self._transport: Optional[asyncio.Transport] = None
        self._ids = itertools.count(1)
        self._futures: Dict[object, asyncio.Future] = {}
        self._closed: Optional[str] = None  # why no reply can arrive any more
        self._lost = self._loop.create_future()  # the transport is gone
        self._writable: Optional[asyncio.Future] = None  # pending while writes pause

    # ------------------------------------------------------------------
    # Connection management
    # ------------------------------------------------------------------
    @classmethod
    async def connect_unix(cls, path: str) -> "PolicyClient":
        _, client = await asyncio.get_running_loop().create_unix_connection(cls, path)
        return client

    @classmethod
    async def connect_tcp(cls, host: str, port: int) -> "PolicyClient":
        _, client = await asyncio.get_running_loop().create_connection(cls, host, port)
        return client

    async def close(self) -> None:
        self._closed = "client closed"
        self._transport.close()
        await self._lost

    async def __aenter__(self) -> "PolicyClient":
        return self

    async def __aexit__(self, *_exc) -> None:
        await self.close()

    def connection_made(self, transport: asyncio.Transport) -> None:
        self._transport = transport

    def data_received(self, data: bytes) -> None:
        try:
            for codec, reply in self._frames.feed(data):
                request_id = reply[0] if codec == CODEC_DECIDE else reply.get("id")
                future = self._futures.pop(request_id, None)
                if future is not None and not future.done():
                    future.set_result(reply)
        except ConfigurationError:
            self.eof_received()  # a garbled reply: nothing after it can be matched
            self._transport.close()

    def eof_received(self) -> None:
        self._closed = self._closed or "connection closed by server"

    def pause_writing(self) -> None:
        self._writable = self._loop.create_future()

    def resume_writing(self) -> None:
        self._writable.set_result(None)
        self._writable = None

    def connection_lost(self, exc: Optional[Exception]) -> None:
        self.eof_received()  # every reply still owed fails here
        futures, self._futures = self._futures, {}
        for future in futures.values():
            if not future.done():
                future.set_exception(ServingError(self._closed))
        for waiter in (self._lost, self._writable):
            if waiter is not None and not waiter.done():
                waiter.set_result(None)

    # ------------------------------------------------------------------
    # Raw request / typed helpers
    # ------------------------------------------------------------------
    def _send(self, request_id: int, frame: bytes) -> asyncio.Future:
        """Write one frame now; the future resolves to the reply carrying ``request_id``."""
        if self._closed is not None:
            raise ServingError(self._closed)
        future = self._loop.create_future()
        self._futures[request_id] = future
        self._transport.write(frame)
        return future

    async def _reply(self, future: asyncio.Future):
        if self._writable is not None:  # the send buffer is full: let it drain
            await asyncio.shield(self._writable)
        return await future

    async def request(self, payload: Dict[str, object]) -> Dict[str, object]:
        """Send one control request and await its id-matched reply; error
        replies are returned, only a dead connection raises."""
        request_id = next(self._ids)
        return await self._reply(
            self._send(request_id, encode_frame({**payload, "id": request_id}))
        )

    @staticmethod
    def _error(reply: Dict[str, object]) -> ServingError:
        code = reply.get("error", "ERROR")
        if code == "STALE_SESSION":
            return StaleSessionError(str(reply.get("message")))
        return ServingError(f"{code}: {reply.get('message')}")

    async def _control(self, payload: Dict[str, object]) -> Dict[str, object]:
        reply = await self.request(payload)
        if not reply.get("ok"):
            raise self._error(reply)
        return reply

    def send_block(
        self, slots: np.ndarray, generations: np.ndarray, observations: np.ndarray
    ) -> asyncio.Future:
        """Write one decide block now; the future resolves to its reply.

        Row ``i`` asks for session ``(slots[i], generations[i])``; read the
        reply with :meth:`block_actions`.  Blocks all written before any
        is awaited reach the server in one loop pass and batch together.
        """
        slots = np.asarray(slots, dtype="<i8")
        generations = np.asarray(generations, dtype="<i8")
        observations = np.asarray(observations, dtype="<f8")
        if slots.ndim != 1 or slots.size == 0 or generations.shape != slots.shape or (
            observations.shape != (slots.size, OBSERVATION_DIM)
        ):
            raise ConfigurationError(
                f"a decide block is n >= 1 slots, n generations and an "
                f"(n, {OBSERVATION_DIM}) observation matrix, got {slots.shape}, "
                f"{generations.shape}, {observations.shape}"
            )
        request_id = next(self._ids)
        frame = encode_block(request_id, slots, generations, observations)
        return self._send(request_id, frame)

    def block_actions(self, reply) -> np.ndarray:
        """A decide reply's int64 actions (a read-only view); a refusal raises
        :class:`StaleSessionError` or :class:`ServingError`."""
        if isinstance(reply, dict):  # errors travel as JSON frames
            raise self._error(reply)
        return reply[1]

    async def decide_many(
        self, slots: np.ndarray, generations: np.ndarray, observations: np.ndarray
    ) -> np.ndarray:
        """One decide block, served or refused as a whole (:meth:`send_block`)."""
        reply = await self._reply(self.send_block(slots, generations, observations))
        return self.block_actions(reply)

    async def open(self, count: int = 1) -> List[Tuple[int, int]]:
        reply = await self._control({"op": "open", "count": count})
        return [(int(s), int(g)) for s, g in reply["handles"]]

    async def decide(self, handle: Sequence[int], observation: Sequence[float]) -> int:
        """The ``n = 1`` call of :meth:`decide_many`."""
        actions = await self.decide_many(
            [handle[0]], [handle[1]], np.asarray(observation, dtype="<f8")[None]
        )
        return int(actions[0])

    async def close_sessions(self, handles: Sequence[Sequence[int]]) -> int:
        reply = await self._control(
            {"op": "close", "handles": [[int(h[0]), int(h[1])] for h in handles]}
        )
        return int(reply["closed"])

    async def stats(self) -> Dict[str, object]:
        return (await self._control({"op": "stats"}))["stats"]

    async def metrics(self) -> Dict[str, object]:
        """Scrape the server's telemetry: Prometheus text + JSON exposition."""
        return (await self._control({"op": "metrics"}))["metrics"]

    async def ping(self) -> bool:
        return bool((await self._control({"op": "ping"})).get("pong"))
