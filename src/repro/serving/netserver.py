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
Decide blocks do **not** answer inline.  Each block becomes one
:class:`~repro.serving.server.DecisionWave` in the broker's queue and
the connection handler parks the block's reply on it; the queue flushes
either when it reaches the broker's ``max_batch_size`` (size trigger,
synchronous) or when the server's flush loop ticks (time trigger,
``flush_interval`` seconds).  One backend call answers every parked
row of the batch, a block is answered once its last row resolved, and
the block's arrival→reply latency is recorded once per row into the
:class:`~repro.serving.server.ServerStats` SLO histogram.

Back-pressure is per connection and counted in rows: a block that would
put more than ``max_inflight`` unanswered rows on one connection gets
an immediate ``BUSY`` error reply instead of queue slots, so one
flooding client cannot grow the queue unboundedly for everyone else.

Session handles are ``(slot, generation)`` pairs.  Every request that
names a session carries both, and the server validates the generation
against the session table — a reconnecting client holding a handle
whose slot was closed and reused gets ``STALE_SESSION``, never another
tenant's session.

Lifecycle
---------
A backend swap is an in-process call on the broker,
:meth:`PolicyServer.swap_backend`: it flushes the in-flight micro-batch
through the old backend, whose parked replies go out with the next
flush or timer tick, and session handles survive it.  The wire has no swap op.  Graceful
drain (:meth:`PolicyNetServer.drain`) stops accepting, flushes and
resolves everything still queued, then closes every connection — no
request is ever left unresolved.
"""

from __future__ import annotations

import asyncio
import itertools
import json
import struct
import time
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

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
        payload = json.loads(body.decode("utf-8"))
    except ValueError as exc:  # JSONDecodeError and UnicodeDecodeError
        raise ConfigurationError(f"malformed frame body: {exc}") from exc
    if not isinstance(payload, dict):
        raise ConfigurationError("frame payload must be a mapping")
    return payload


async def read_frame(reader: asyncio.StreamReader, reply: bool = False) -> tuple:
    """Read one frame as ``(codec, payload)``.

    EOF between frames raises ``IncompleteReadError`` (the peer hung
    up); EOF inside a frame is a ``ConfigurationError`` like every other
    malformed frame.
    """
    try:
        header = await reader.readexactly(_HEADER.size)
    except asyncio.IncompleteReadError as exc:
        if exc.partial:
            raise ConfigurationError("truncated frame header") from exc
        raise
    codec, length = _HEADER.unpack(header)
    if length > MAX_FRAME_BYTES:
        raise ConfigurationError(f"frame too large: {length} bytes")
    try:
        body = await reader.readexactly(length)
    except asyncio.IncompleteReadError as exc:
        raise ConfigurationError(
            f"truncated frame body: {len(exc.partial)} of {length} bytes"
        ) from exc
    return codec, decode_body(codec, body, reply)


class _Connection:
    """Per-connection bookkeeping (write side + in-flight accounting)."""

    __slots__ = ("writer", "inflight", "closed", "broken")

    def __init__(self, writer: asyncio.StreamWriter) -> None:
        self.writer = writer
        self.inflight = 0  # unanswered decide rows
        self.closed = False
        self.broken = False

    def send(self, frame: bytes) -> bool:
        """Write one reply frame; ``False`` if the connection can't take it.

        A transport that raises (peer reset the connection, writer
        already torn down) marks the connection ``broken`` so later
        replies skip it immediately instead of raising again — the
        caller settling a whole micro-batch must never lose the other
        connections' replies to one dead peer.
        """
        if self.closed or self.broken or self.writer.is_closing():
            return False
        try:
            self.writer.write(frame)
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


def _error_reply(code: str, message: str, request_id: object) -> Dict[str, object]:
    reply: Dict[str, object] = {"ok": False, "error": code, "message": message}
    if request_id is not None:
        reply["id"] = request_id
    return reply


class PolicyNetServer:
    """Asyncio front door feeding one :class:`PolicyServer` broker.

    Parameters
    ----------
    server:
        The in-process micro-batching broker to serve through.
    flush_interval:
        Time trigger of the batching loop — the longest a queued request
        waits before a flush when the size trigger never fires.
    max_inflight:
        Per-connection bound on unanswered decide rows; a block that
        would exceed it is answered ``BUSY`` immediately (back-pressure).
    """

    def __init__(
        self,
        server: PolicyServer,
        flush_interval: float = 0.002,
        max_inflight: int = 64,
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
        self._flush_task: Optional[asyncio.Task] = None
        self._draining = False
        self.connections_total = 0
        self.busy_rejections = 0
        self.requests_total = 0
        self.protocol_errors = 0
        self.replies_dropped = 0
        self.flush_loop_errors = 0
        self.last_flush_error: Optional[str] = None
        # Telemetry rides the broker's registry, so one ``metrics``
        # scrape exposes broker + front-door series together.  Per-op
        # and per-error-code counters are pre-resolved for every label
        # value the server can emit (bounded cardinality by design;
        # unknown ops count under "other").
        self.metrics = server.metrics
        self._m_requests: Dict[str, object] = {
            op: self.metrics.counter(
                "netserver_requests_total", "Frames dispatched, by op", op=op
            )
            for op in ("decide", *_CONTROL_OPS, "other")
        }
        self._m_decide_rows = self.metrics.counter(
            "netserver_decide_rows_total", "Rows carried by decide frames"
        )
        self._m_errors: Dict[str, object] = {
            code: self.metrics.counter(
                "netserver_error_replies_total",
                "Error replies sent, by structured code",
                code=code,
            )
            for code in (
                "BUSY", "STALE_SESSION", "BAD_REQUEST",
                "BACKEND_ERROR", "DRAINING",
            )
        }
        self._m_connections = self.metrics.counter(
            "netserver_connections_total", "Connections accepted"
        )
        self._m_connections_open = self.metrics.gauge(
            "netserver_connections_open", "Currently open connections"
        )
        self._m_replies_dropped = self.metrics.counter(
            "netserver_replies_dropped_total",
            "Replies dropped on closed/broken peers",
        )
        self._m_flush_errors = self.metrics.counter(
            "netserver_flush_loop_errors_total",
            "Flush-loop ticks that hit an unexpected fault",
        )
        self._m_parked = self.metrics.gauge(
            "netserver_parked_replies", "Replies parked on pending waves"
        )

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(
        self,
        unix_path: Optional[str] = None,
        host: Optional[str] = None,
        port: int = 0,
    ) -> Dict[str, object]:
        """Open the listeners and start the batching flush loop.

        Returns the bound endpoints (``{"unix": path, "tcp": (host, port)}``
        for whichever transports were requested).
        """
        if unix_path is None and host is None:
            raise ConfigurationError("need a unix_path and/or a TCP host to listen on")
        endpoints: Dict[str, object] = {}
        if unix_path is not None:
            listener = await asyncio.start_unix_server(self._handle, path=unix_path)
            self._listeners.append(listener)
            endpoints["unix"] = unix_path
        if host is not None:
            listener = await asyncio.start_server(self._handle, host=host, port=port)
            self._listeners.append(listener)
            bound = listener.sockets[0].getsockname()
            endpoints["tcp"] = (bound[0], bound[1])
        self._flush_task = asyncio.get_running_loop().create_task(self._flush_loop())
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
        for listener in self._listeners:
            await listener.wait_closed()
        self._listeners = []
        # Flush whatever is queued; a backend fault fails those rows,
        # which _settle turns into explicit error replies.  A wedged
        # backend raising outside the ReproError hierarchy must not
        # abort the drain half-done (listeners closed, connections
        # stranded) — flush already failed the detached rows, so
        # record the fault and keep going.
        try:
            self.server.flush()
        except ReproError:
            pass
        except Exception as exc:
            self.flush_loop_errors += 1
            self._m_flush_errors.inc()
            self.last_flush_error = f"{type(exc).__name__}: {exc}"
        self._settle()
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
        if self._flush_task is not None:
            self._flush_task.cancel()
            try:
                await self._flush_task
            except asyncio.CancelledError:
                pass
            self._flush_task = None
        for connection in list(self._connections):
            await self._close_connection(connection)
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
            "requests_total": self.requests_total,
            "busy_rejections": self.busy_rejections,
            "protocol_errors": self.protocol_errors,
            "replies_dropped": self.replies_dropped,
            "flush_loop_errors": self.flush_loop_errors,
            "last_flush_error": self.last_flush_error,
            "draining": self._draining,
            **stats,
        }

    # ------------------------------------------------------------------
    # Batching loop
    # ------------------------------------------------------------------
    async def _flush_loop(self) -> None:
        while True:
            await asyncio.sleep(self.flush_interval)
            try:
                if self.server.pending:
                    try:
                        self.server.flush()
                    except ReproError:
                        pass  # the rows were failed; replies settle below
                self._settle()
            except asyncio.CancelledError:
                raise
            except Exception as exc:
                # A surprise anywhere in the tick used to kill this task
                # silently — the server then never flushed again and
                # every queued request hung until drain.  Count it,
                # remember it for ``summary()``, keep flushing.
                self.flush_loop_errors += 1
                self._m_flush_errors.inc()
                self.last_flush_error = f"{type(exc).__name__}: {exc}"

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
                sent = block.connection.send(
                    encode_block(block.request_id, wave.actions)
                )
            if not sent:
                # Closed or broken peer: its reply is dropped (counted),
                # everyone else's in this batch still settles.
                self.replies_dropped += 1
                self._m_replies_dropped.inc()
        self._parked = unresolved
        self._m_parked.set(len(unresolved))

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------
    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        connection = _Connection(writer)
        self._connections.append(connection)
        self.connections_total += 1
        self._m_connections.inc()
        self._m_connections_open.set(len(self._connections))
        try:
            while not self._draining:
                try:
                    codec, request = await read_frame(reader)
                except (asyncio.IncompleteReadError, ConnectionResetError):
                    break
                except ConfigurationError:
                    self.protocol_errors += 1
                    break
                self.requests_total += 1
                if codec == CODEC_DECIDE:
                    self._decide_block(connection, *request)
                else:
                    self._dispatch(connection, request)
                if writer.transport.get_write_buffer_size() > 1 << 20:
                    await writer.drain()
        finally:
            await self._close_connection(connection)

    def _send_error(
        self,
        connection: _Connection,
        code: str,
        message: str,
        request_id: object,
    ) -> bool:
        """Send one structured error reply, counted by code; ``False`` if dropped."""
        counter = self._m_errors.get(code)
        if counter is not None:
            counter.inc()
        return connection.send(encode_frame(_error_reply(code, message, request_id)))

    def _op_metrics(self) -> Dict[str, object]:
        """Both expositions of the shared registry, liveness gauges fresh.

        ``last_flush_error`` rides along verbatim (error strings are
        unbounded, so they never become label values — the counter
        series ``netserver_flush_loop_errors_total`` carries the count,
        this field carries the most recent cause).
        """
        self.metrics.gauge(
            "netserver_parked_replies"
        ).set(len(self._parked))
        self.metrics.gauge(
            "netserver_connections_open"
        ).set(len(self._connections))
        self.metrics.gauge(
            "serving_sessions_active", "Open sessions in the table"
        ).set(self.server.table.num_active)
        self.metrics.gauge(
            "serving_sessions_peak",
            "Peak concurrently open sessions",
            aggregation="max",
        ).set(self.server.table.peak_active)
        self.metrics.gauge(
            "serving_pending_requests", "Requests queued in the broker"
        ).set(self.server.pending)
        snapshot = self.metrics.snapshot()
        return {
            "prometheus": snapshot.to_prometheus_text(),
            "json": snapshot.as_dict(),
            "last_flush_error": self.last_flush_error,
            "flush_loop_errors": self.flush_loop_errors,
        }

    def _dispatch(
        self, connection: _Connection, request: Dict[str, object]
    ) -> None:
        request_id = request.get("id")
        op = request.get("op")
        self._m_requests[op if op in _CONTROL_OPS else "other"].inc()
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
                handles = [
                    [int(slot), int(generation)]
                    for slot, generation in zip(slots, generations)
                ]
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
        except (KeyError, TypeError, ValueError) as exc:
            self.protocol_errors += 1
            self._send_error(
                connection, "BAD_REQUEST", f"malformed request: {exc}", request_id
            )

    def _decide_block(
        self,
        connection: _Connection,
        request_id: int,
        slots: np.ndarray,
        generations: np.ndarray,
        observations: np.ndarray,
    ) -> None:
        """Queue one decide block and park its reply (the only decide path)."""
        rows = int(slots.shape[0])
        self._m_requests["decide"].inc()
        self._m_decide_rows.inc(rows)
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
        # The submit may have size-triggered (or same-session-triggered)
        # a synchronous flush; settle immediately so its replies are not
        # deferred a full timer tick.
        if self.server.stats().batches != batches:
            self._settle()

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------
    def _reply(
        self, connection: _Connection, request_id: object, **fields: object
    ) -> None:
        payload: Dict[str, object] = {"ok": True, **fields}
        if request_id is not None:
            payload["id"] = request_id
        connection.send(encode_frame(payload))

    @staticmethod
    def _parse_handle(handle: object) -> Tuple[int, int]:
        if (
            not isinstance(handle, (list, tuple))
            or len(handle) != 2
        ):
            raise ConfigurationError(
                f"session handle must be a [slot, generation] pair, got {handle!r}"
            )
        return int(handle[0]), int(handle[1])

    def _parse_handles(
        self, request: Dict[str, object]
    ) -> Tuple[List[int], List[int]]:
        raw_handles = request.get("handles")
        if raw_handles is None:
            raw_handles = [request["handle"]]
        slots: List[int] = []
        generations: List[int] = []
        for handle in raw_handles:
            slot, generation = self._parse_handle(handle)
            slots.append(slot)
            generations.append(generation)
        return slots, generations

    async def _close_connection(self, connection: _Connection) -> None:
        if connection.closed:
            return
        connection.closed = True
        if connection in self._connections:
            self._connections.remove(connection)
        self._m_connections_open.set(len(self._connections))
        # Requests this connection is still waiting on keep their queue
        # slots (the micro-batch must stay intact for everyone else);
        # their replies are simply dropped at settle time.
        connection.writer.close()
        try:
            await connection.writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError):  # pragma: no cover
            pass


class PolicyClient:
    """Asyncio client for :class:`PolicyNetServer` (pipelining, id-matched).

    Every request carries an auto-assigned ``id``; a background reader
    task matches replies to futures, so any number of requests can be in
    flight concurrently on one connection (decide rows subject to the
    server's ``BUSY`` back-pressure).  Once the server has closed the
    connection every call raises :class:`ServingError` at once.
    """

    def __init__(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        self._reader = reader
        self._writer = writer
        self._ids = itertools.count(1)
        self._futures: Dict[object, asyncio.Future] = {}
        self._closed: Optional[str] = None  # why no reply can arrive any more
        self._reader_task = asyncio.get_running_loop().create_task(self._read_loop())

    # ------------------------------------------------------------------
    # Connection management
    # ------------------------------------------------------------------
    @classmethod
    async def connect_unix(cls, path: str) -> "PolicyClient":
        reader, writer = await asyncio.open_unix_connection(path)
        return cls(reader, writer)

    @classmethod
    async def connect_tcp(cls, host: str, port: int) -> "PolicyClient":
        reader, writer = await asyncio.open_connection(host, port)
        return cls(reader, writer)

    async def close(self) -> None:
        self._reader_task.cancel()
        try:
            await self._reader_task
        except asyncio.CancelledError:
            pass
        self._writer.close()
        try:
            await self._writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError):  # pragma: no cover
            pass
        self._closed = "client closed"
        self._fail_pending(ServingError(self._closed))

    async def __aenter__(self) -> "PolicyClient":
        return self

    async def __aexit__(self, *_exc) -> None:
        await self.close()

    def _fail_pending(self, error: BaseException) -> None:
        futures, self._futures = self._futures, {}
        for future in futures.values():
            if not future.done():
                future.set_exception(error)

    async def _read_loop(self) -> None:
        try:
            while True:
                codec, reply = await read_frame(self._reader, reply=True)
                request_id = reply[0] if codec == CODEC_DECIDE else reply.get("id")
                future = self._futures.pop(request_id, None)
                if future is not None and not future.done():
                    future.set_result(reply)
        except (asyncio.IncompleteReadError, ConnectionResetError, ConfigurationError):
            self._closed = "connection closed by server"
            self._fail_pending(ServingError(self._closed))

    # ------------------------------------------------------------------
    # Raw request / typed helpers
    # ------------------------------------------------------------------
    async def _roundtrip(self, request_id: int, frame: bytes):
        """Write one frame and await the reply carrying ``request_id``."""
        if self._closed is not None:
            raise ServingError(self._closed)
        future: asyncio.Future = asyncio.get_running_loop().create_future()
        self._futures[request_id] = future
        try:
            self._writer.write(frame)
            await self._writer.drain()
        except OSError as exc:
            # Unless the read loop got there first and failed the future
            # (awaited below), nobody will ever resolve it.
            if self._futures.pop(request_id, None) is not None:
                raise ServingError("connection closed by server") from exc
        return await future

    async def request(self, payload: Dict[str, object]) -> Dict[str, object]:
        """Send one control request and await its id-matched reply.

        Error replies are returned, not raised; only a dead connection
        raises (:class:`ServingError`).
        """
        request_id = next(self._ids)
        return await self._roundtrip(
            request_id, encode_frame({**payload, "id": request_id})
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

    async def decide_many(
        self, slots: np.ndarray, generations: np.ndarray, observations: np.ndarray
    ) -> np.ndarray:
        """One decide block: row ``i`` answers session ``(slots[i], generations[i])``.

        The block is served or refused as a whole; a refusal raises
        :class:`StaleSessionError` or :class:`ServingError`.  The
        returned int64 action vector is a read-only view of the reply.
        """
        slots = np.asarray(slots, dtype="<i8")
        generations = np.asarray(generations, dtype="<i8")
        observations = np.asarray(observations, dtype="<f8")
        if (
            slots.ndim != 1
            or slots.size == 0
            or generations.shape != slots.shape
            or observations.shape != (slots.size, OBSERVATION_DIM)
        ):
            raise ConfigurationError(
                f"a decide block is n >= 1 slots, n generations and an "
                f"(n, {OBSERVATION_DIM}) observation matrix, got {slots.shape}, "
                f"{generations.shape}, {observations.shape}"
            )
        request_id = next(self._ids)
        reply = await self._roundtrip(
            request_id, encode_block(request_id, slots, generations, observations)
        )
        if isinstance(reply, dict):  # errors travel as JSON frames
            raise self._error(reply)
        return reply[1]

    async def open(self, count: int = 1) -> List[Tuple[int, int]]:
        reply = await self._control({"op": "open", "count": count})
        return [(int(s), int(g)) for s, g in reply["handles"]]

    async def decide(
        self, handle: Sequence[int], observation: Sequence[float]
    ) -> int:
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
        """Scrape the server's telemetry: Prometheus text + JSON snapshot."""
        return (await self._control({"op": "metrics"}))["metrics"]

    async def ping(self) -> bool:
        return bool((await self._control({"op": "ping"})).get("pong"))
