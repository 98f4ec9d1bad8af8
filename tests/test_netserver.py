"""Tests for the asyncio network front door and its pipelining client.

Each test drives a real server over a real transport (unix socket in a
short-named temp dir, or TCP loopback) with the real framing client;
``asyncio.run`` keeps the suite free of event-loop plugins.
"""

from __future__ import annotations

import asyncio
import gc
import json
import os
import struct
import tempfile
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import telemetry
from repro.drl.policy import PolicyConfig, RecurrentPolicyValueNet
from repro.env.environment import StorageAllocationEnv
from repro.env.reward import RewardConfig
from repro.errors import ConfigurationError, ServingError, StaleSessionError
from repro.engine import CompiledFSMBackend, GRUPolicyBackend
from repro.serving import (
    PolicyClient,
    PolicyNetServer,
    PolicyServer,
    ShadowEvaluator,
)
from repro.serving.netserver import (
    CODEC_DECIDE,
    CODEC_JSON,
    DECIDE_ROW_BYTES,
    MAX_FRAME_BYTES,
    MAX_OPEN_PER_REQUEST,
    FrameSplitter,
    decode_body,
    encode_block,
    encode_frame,
)
from repro.storage.migration import NUM_ACTIONS, MigrationAction
from repro.storage.simulator import StorageSystemConfig
from repro.workloads.generator import GeneratorConfig, StandardWorkloadGenerator

from conftest import random_compiled_fsm


# ----------------------------------------------------------------------
# Shared small artefacts (mirrors test_serving.py's handmade machine)
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def serving_env():
    return StorageAllocationEnv(
        StorageSystemConfig(), reward_config=RewardConfig(mode="per_step_penalty"), rng=0
    )


@pytest.fixture(scope="module")
def observation_stream(serving_env):
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
    return random_compiled_fsm(serving_env.observation_encoder, observation_stream)


def _gru_policy() -> RecurrentPolicyValueNet:
    return RecurrentPolicyValueNet(PolicyConfig(hidden_size=16), rng=5)


class _socket_dir:
    """Short-path socket dir (unix socket paths are length-limited)."""

    def __enter__(self) -> str:
        self.path = tempfile.mkdtemp(prefix="rnet", dir="/tmp")
        return os.path.join(self.path, "s.sock")

    def __exit__(self, *_exc) -> None:
        import shutil

        shutil.rmtree(self.path, ignore_errors=True)


async def _start_without_idle_flush(netserver: PolicyNetServer, **endpoints):
    """Start ``netserver`` with a parked block never arming the idle flush.

    Only the size trigger, a same-session flush, a swap's flush and the
    drain flush then ever run, so requests stay parked until the test
    says otherwise.
    """
    netserver._arm_flush = lambda: None
    return await netserver.start(**endpoints)


# ----------------------------------------------------------------------
# Framing
# ----------------------------------------------------------------------
class TestFraming:
    def test_json_roundtrip(self):
        payload = {"op": "close", "id": 7, "handles": [[1, 0], [2, 5]]}
        frame = encode_frame(payload)
        codec, length = frame[0], int.from_bytes(frame[1:5], "big")
        assert codec == CODEC_JSON and length == len(frame) - 5
        assert decode_body(codec, frame[5:]) == payload

    def test_unknown_codec_rejected(self):
        body = encode_frame({"op": "ping"})[5:]
        for codec in (2, 9):
            with pytest.raises(ConfigurationError, match="codec"):
                decode_body(codec, body)

    @pytest.mark.parametrize(
        "body", [b"{bad", b"\xff\xfe{}", b"[1, 2]"],
        ids=["bad-json", "bad-utf8", "not-a-mapping"],
    )
    def test_malformed_body_is_a_configuration_error(self, body):
        with pytest.raises(ConfigurationError):
            decode_body(CODEC_JSON, body)

    def test_block_layout_and_roundtrip(self):
        """Codec 1: ``<QI`` then whole columns, 296 bytes a request row."""
        slots = np.array([5, 3, 9], dtype=np.int64)
        generations = np.array([0, 2, 1], dtype=np.int64)
        observations = np.arange(3 * 35, dtype=float).reshape(3, 35) / 7.0
        frame = encode_block(41, slots, generations, observations)
        assert DECIDE_ROW_BYTES == 296
        assert frame[0] == CODEC_DECIDE
        assert int.from_bytes(frame[1:5], "big") == len(frame) - 5 == 12 + 296 * 3
        assert struct.unpack_from("<QI", frame, 5) == (41, 3)
        request_id, *columns = decode_body(CODEC_DECIDE, frame[5:])
        assert request_id == 41
        for got, sent in zip(columns, (slots, generations, observations)):
            assert got.dtype == sent.dtype and np.array_equal(got, sent)
        # Strided columns (one connection's share of a wave) encode the same.
        wide = np.repeat(observations, 2, axis=0)
        assert encode_block(41, slots, generations, wide[::2]) == frame
        reply = encode_block(41, np.array([2, 0, 1], dtype=np.int64))
        assert len(reply) == 5 + 12 + 8 * 3
        request_id, actions = decode_body(CODEC_DECIDE, reply[5:], reply=True)
        assert request_id == 41 and actions.tolist() == [2, 0, 1]
        # The direction decides the row width: a reply is no request.
        with pytest.raises(ConfigurationError, match="rows"):
            decode_body(CODEC_DECIDE, reply[5:])


# ----------------------------------------------------------------------
# Frame fuzzer (both frame kinds, both directions)
# ----------------------------------------------------------------------
def _read(data: bytes, reply: bool = False):
    """The first frame a splitter cuts from ``data`` then EOF; ``None`` if
    the stream ended between frames."""
    splitter = FrameSplitter(reply)
    for frame in splitter.feed(data):
        return frame
    splitter.end()
    return None


def _header(codec: int, length: int) -> bytes:
    return struct.pack("!BI", codec, length)


@st.composite
def _valid_frames(draw):
    """A well-formed request frame of either codec."""
    if draw(st.booleans()):
        return encode_frame({"op": "ping", "id": draw(st.integers(0, 2**31))})
    rows = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    return encode_block(
        draw(st.integers(0, 2**32 - 1)),
        rng.integers(0, 1 << 40, size=rows),
        rng.integers(0, 1 << 20, size=rows),
        rng.normal(size=(rows, 35)),
    )


@st.composite
def _malformed_frames(draw):
    """Bytes that are a protocol error in either direction, however continued."""
    kind = draw(st.sampled_from([
        "truncated-header", "truncated-body", "length-mismatch", "zero-rows",
        "oversize-header", "rows-beyond-max-frame", "unknown-codec",
        "json-under-codec-1", "block-under-codec-0",
    ]))
    valid = draw(_valid_frames())
    request_id = draw(st.integers(0, 2**32 - 1))
    if kind == "truncated-header":
        return valid[: draw(st.integers(1, 4))]
    if kind == "truncated-body":
        return valid[: draw(st.integers(5, len(valid) - 1))]
    if kind == "length-mismatch":
        rows = draw(st.integers(1, 5))
        length = draw(
            st.integers(0, 296 * 6).filter(lambda n: n not in (8 * rows, 296 * rows))
        )
        body = struct.pack("<QI", request_id, rows) + bytes(length)
        return _header(CODEC_DECIDE, len(body)) + body
    if kind == "zero-rows":
        body = struct.pack("<QI", request_id, 0) + bytes(draw(st.sampled_from([0, 8, 296])))
        return _header(CODEC_DECIDE, len(body)) + body
    if kind == "oversize-header":
        length = draw(st.integers(MAX_FRAME_BYTES + 1, 2**32 - 1))
        return _header(draw(st.sampled_from([0, 1])), length) + valid[5:]
    if kind == "rows-beyond-max-frame":
        rows = draw(st.integers(MAX_FRAME_BYTES // 296 + 1, 2**32 - 1))
        head = struct.pack("<QI", request_id, rows)
        honest = min(12 + 296 * rows, 2**32 - 1)
        return _header(CODEC_DECIDE, draw(st.sampled_from([honest, 12]))) + head
    if kind == "unknown-codec":
        body = draw(st.binary(max_size=40))
        return _header(draw(st.integers(2, 255)), len(body)) + body
    if kind == "json-under-codec-1":
        body = json.dumps({"op": "ping", "id": request_id}).encode()
        return _header(CODEC_DECIDE, len(body)) + body
    block = encode_block(request_id, np.arange(2), np.zeros(2, int), np.ones((2, 35)))
    return _header(CODEC_JSON, len(block) - 5) + block[5:]


class TestFrameFuzz:
    @settings(max_examples=150, deadline=None)
    @given(frame=_malformed_frames(), reply=st.booleans())
    def test_malformed_frame_is_a_configuration_error(self, frame, reply):
        with pytest.raises(ConfigurationError):
            _read(frame, reply)

    @settings(max_examples=150, deadline=None)
    @given(data=st.binary(max_size=64), reply=st.booleans())
    def test_random_bytes_decode_or_raise_configuration_error(self, data, reply):
        """Nothing but ``ConfigurationError`` escapes, bar EOF between frames."""
        try:
            frame = _read(data, reply)
        except ConfigurationError:
            return
        if frame is None:
            assert data == b""
            return
        codec, payload = frame
        assert isinstance(payload, dict if codec == CODEC_JSON else tuple)

    @settings(max_examples=50, deadline=None)
    @given(frame=_valid_frames())
    def test_valid_frame_reads_back(self, frame):
        codec, payload = _read(frame)
        assert codec == frame[0]
        if codec == CODEC_DECIDE:
            assert encode_block(*payload) == frame
        else:
            assert encode_frame(payload) == frame

    @settings(max_examples=50, deadline=None)
    @given(
        frames=st.lists(_valid_frames(), min_size=1, max_size=5),
        cuts=st.one_of(
            st.just("bytewise"), st.lists(st.integers(0, 4000), max_size=8)
        ),
        reply=st.booleans(),
    )
    def test_frames_split_anywhere_decode_like_whole_frames(self, frames, cuts, reply):
        """Coalesced into one chunk, cut at arbitrary byte boundaries or fed
        one byte at a time, frames decode exactly as ``decode_body``
        decodes each whole frame."""
        if reply:  # the same frames as replies: a block carries one column
            frames = [
                encode_block(*decode_body(CODEC_DECIDE, frame[5:])[:2])
                if frame[0] == CODEC_DECIDE else frame
                for frame in frames
            ]
        stream = b"".join(frames)
        if cuts == "bytewise":
            bounds = list(range(len(stream) + 1))
        else:
            bounds = sorted({0, len(stream), *(cut % (len(stream) + 1) for cut in cuts)})
        splitter = FrameSplitter(reply)
        got = [
            frame
            for begin, end in zip(bounds, bounds[1:])
            for frame in splitter.feed(stream[begin:end])
        ]
        splitter.end()  # nothing left over
        expected = [(frame[0], decode_body(frame[0], frame[5:], reply)) for frame in frames]
        assert len(got) == len(expected)
        for (codec, payload), (want_codec, want) in zip(got, expected):
            assert codec == want_codec
            if codec == CODEC_JSON:
                assert payload == want
            else:
                assert payload[0] == want[0]
                for column, want_column in zip(payload[1:], want[1:]):
                    assert column.dtype == want_column.dtype
                    assert column.tobytes() == want_column.tobytes()

    @settings(max_examples=8, deadline=None)
    @given(frames=st.lists(_malformed_frames(), min_size=1, max_size=6))
    def test_live_server_drops_only_the_offender(
        self, compiled_policy, serving_env, observation_stream, frames
    ):
        """Each malformed frame is one counted protocol error and one closed
        connection; nothing is queued and a bystander keeps deciding."""

        async def scenario():
            server = PolicyServer(
                CompiledFSMBackend(compiled_policy), serving_env.observation_encoder
            )
            netserver = PolicyNetServer(server, flush_interval=0.001)
            with _socket_dir() as socket_path:
                await netserver.start(unix_path=socket_path)
                async with await PolicyClient.connect_unix(socket_path) as bystander:
                    handles = np.array(await bystander.open(3))
                    for count, frame in enumerate(frames, start=1):
                        reader, writer = await asyncio.open_unix_connection(socket_path)
                        writer.write(frame)
                        writer.write_eof()  # a truncated frame ends here
                        assert await asyncio.wait_for(reader.read(), timeout=5) == b""
                        writer.close()
                        await writer.wait_closed()
                        assert netserver.protocol_errors == count
                        assert server.pending == 0
                        assert [c.inflight for c in netserver._connections] == [0]
                        actions = await bystander.decide_many(
                            handles[:, 0], handles[:, 1], observation_stream[:3]
                        )
                        assert actions.shape == (3,)
                summary = await netserver.drain()
                assert summary["connections_total"] == len(frames) + 1
                assert summary["pending"] == 0 and summary["parked_replies"] == 0

        asyncio.run(scenario())


# ----------------------------------------------------------------------
# Network front door
# ----------------------------------------------------------------------
class TestNetServer:
    def test_concurrent_clients_bit_identical_to_inprocess(
        self, compiled_policy, serving_env, observation_stream
    ):
        """Multi-client socket decisions replay the in-process broker."""

        async def scenario():
            server = PolicyServer(
                CompiledFSMBackend(compiled_policy),
                serving_env.observation_encoder,
                max_batch_size=8,
            )
            netserver = PolicyNetServer(server, flush_interval=0.001)
            reference = PolicyServer(
                CompiledFSMBackend(compiled_policy), serving_env.observation_encoder
            )
            with _socket_dir() as socket_path:
                await netserver.start(unix_path=socket_path)
                clients = [
                    await PolicyClient.connect_unix(socket_path) for _ in range(4)
                ]
                try:
                    handles = [await client.open(4) for client in clients]
                    # One reference session per network session, replaying
                    # the same per-session observation stream.
                    streams = {}
                    reference_ids = {}
                    for c, client_handles in enumerate(handles):
                        for s, handle in enumerate(client_handles):
                            streams[handle] = (c * 4 + s) * 5
                            reference_ids[handle] = int(reference.open_sessions(1)[0])
                    for step in range(5):
                        requests = []
                        for c, client in enumerate(clients):
                            for handle in handles[c]:
                                row = (streams[handle] + step) % len(observation_stream)
                                requests.append(
                                    (handle, client.decide(handle, observation_stream[row]), row)
                                )
                        actions = await asyncio.gather(*[r[1] for r in requests])
                        for (handle, _req, row), action in zip(requests, actions):
                            expected = reference.decide_now(
                                [reference_ids[handle]],
                                observation_stream[None, row],
                            )
                            assert action == int(expected[0])
                    stats = await clients[0].stats()
                    assert stats["decisions"] == 5 * 16
                    assert stats["failed"] == 0
                    assert stats["batches"] >= 1
                    assert stats["latency"]["count"] == 5 * 16
                    assert stats["latency"]["p99_ms"] > 0
                finally:
                    for client in clients:
                        await client.close()
                summary = await netserver.drain()
                assert summary["parked_replies"] == 0
                assert summary["pending"] == 0

        asyncio.run(scenario())

    def test_tcp_transport(self, compiled_policy, serving_env, observation_stream):
        async def scenario():
            server = PolicyServer(
                CompiledFSMBackend(compiled_policy), serving_env.observation_encoder
            )
            netserver = PolicyNetServer(server, flush_interval=0.001)
            endpoints = await netserver.start(host="127.0.0.1")
            host, port = endpoints["tcp"]
            async with await PolicyClient.connect_tcp(host, port) as client:
                assert await client.ping()
                (handle,) = await client.open(1)
                action = await client.decide(handle, observation_stream[0])
                assert 0 <= action < NUM_ACTIONS
            await netserver.drain()

        asyncio.run(scenario())

    def test_backpressure_busy_replies(
        self, compiled_policy, serving_env, observation_stream
    ):
        """Requests beyond the per-connection in-flight bound get BUSY."""

        async def scenario():
            server = PolicyServer(
                CompiledFSMBackend(compiled_policy),
                serving_env.observation_encoder,
                max_batch_size=1024,
            )
            # No idle flush: only the drain flushes, so requests
            # genuinely accumulate in flight.
            netserver = PolicyNetServer(server, max_inflight=3)
            with _socket_dir() as socket_path:
                await _start_without_idle_flush(netserver, unix_path=socket_path)
                client = await PolicyClient.connect_unix(socket_path)
                handles = await client.open(8)
                tasks = [
                    asyncio.create_task(client.decide(handle, observation_stream[i]))
                    for i, handle in enumerate(handles)
                ]
                # Give the server time to park the first 3 and reject the rest.
                await asyncio.sleep(0.1)
                assert netserver.busy_rejections == 5
                summary = await netserver.drain()
                replies = await asyncio.gather(*tasks, return_exceptions=True)
                accepted = [r for r in replies if isinstance(r, int)]
                busy = [
                    r for r in replies
                    if isinstance(r, ServingError) and str(r).startswith("BUSY")
                ]
                assert len(accepted) == 3 and len(busy) == 5
                assert all(0 <= action < NUM_ACTIONS for action in accepted)
                assert summary["busy_rejections"] == 5
                assert summary["parked_replies"] == 0
                await client.close()

        asyncio.run(scenario())

    def test_graceful_drain_resolves_mid_batch_requests(
        self, compiled_policy, serving_env, observation_stream
    ):
        """Drain answers queued requests instead of dropping them."""

        async def scenario():
            server = PolicyServer(
                CompiledFSMBackend(compiled_policy),
                serving_env.observation_encoder,
                max_batch_size=1024,
            )
            netserver = PolicyNetServer(server)
            with _socket_dir() as socket_path:
                await _start_without_idle_flush(netserver, unix_path=socket_path)
                client = await PolicyClient.connect_unix(socket_path)
                handles = await client.open(3)
                tasks = [
                    asyncio.create_task(
                        client.decide(handle, observation_stream[i])
                    )
                    for i, handle in enumerate(handles)
                ]
                await asyncio.sleep(0.05)
                assert server.pending == 3  # parked, mid-batch
                summary = await netserver.drain()
                actions = await asyncio.gather(*tasks)
                assert all(0 <= action < NUM_ACTIONS for action in actions)
                assert summary["pending"] == 0
                assert summary["parked_replies"] == 0
                assert summary["failed"] == 0
                # Listener is gone: new connections are refused.
                with pytest.raises((ConnectionRefusedError, FileNotFoundError)):
                    await PolicyClient.connect_unix(socket_path)
                await client.close()

        asyncio.run(scenario())

    def test_stale_handle_rejected_after_slot_reuse(
        self, compiled_policy, serving_env, observation_stream
    ):
        async def scenario():
            server = PolicyServer(
                CompiledFSMBackend(compiled_policy), serving_env.observation_encoder
            )
            netserver = PolicyNetServer(server, flush_interval=0.001)
            with _socket_dir() as socket_path:
                await netserver.start(unix_path=socket_path)
                async with await PolicyClient.connect_unix(socket_path) as client:
                    (stale,) = await client.open(1)
                    await client.close_sessions([stale])
                    (fresh,) = await client.open(1)
                    # LIFO free list: the slot is reused, generation bumped.
                    assert fresh[0] == stale[0] and fresh[1] == stale[1] + 1
                    with pytest.raises(StaleSessionError):
                        await client.decide(stale, observation_stream[0])
                    action = await client.decide(fresh, observation_stream[0])
                    assert 0 <= action < NUM_ACTIONS
                await netserver.drain()

        asyncio.run(scenario())

    def test_swap_backend_under_socket_load(
        self, compiled_policy, serving_env, observation_stream
    ):
        """An in-process ``swap_backend`` with socket rows queued loses none.

        Ten single-row decides are parked on the shadowed compiled FSM
        when the broker swaps to the GRU: the swap flushes them through
        the old backend, and their replies settle with the next flush.
        Every handle opened before the swap keeps deciding, on sessions
        the GRU started afresh (state "reset").
        """

        async def scenario():
            policy = _gru_policy()
            shadowed = ShadowEvaluator(
                CompiledFSMBackend(compiled_policy), GRUPolicyBackend(policy)
            )
            server = PolicyServer(
                shadowed, serving_env.observation_encoder, max_batch_size=16
            )
            # No idle flush: the size trigger and the swap's own flush
            # are the only ones, so the queue is deterministic.
            netserver = PolicyNetServer(server)
            reference = PolicyServer(
                GRUPolicyBackend(policy), serving_env.observation_encoder
            )
            with _socket_dir() as socket_path:
                await _start_without_idle_flush(netserver, unix_path=socket_path)
                async with await PolicyClient.connect_unix(socket_path) as client:
                    handles = np.array(await client.open(16))
                    parked = [
                        asyncio.create_task(
                            client.decide(tuple(handle), observation_stream[i])
                        )
                        for i, handle in enumerate(handles[:10])
                    ]
                    while server.pending < 10:
                        await asyncio.sleep(0)
                    swap = netserver.server.swap_backend(GRUPolicyBackend(policy))
                    assert swap["state"] == "reset"
                    assert swap["flushed_pending"] == 10
                    assert swap["from_backend"] == shadowed.name
                    assert swap["to_backend"] == "gru"
                    # All sixteen pre-swap handles fill the batch; its
                    # size-triggered flush settles the parked replies too.
                    rows = observation_stream[10:26]
                    actions = await client.decide_many(handles[:, 0], handles[:, 1], rows)
                    assert actions.tolist() == reference.decide_now(
                        reference.open_sessions(16), rows
                    ).tolist()
                    replies = await asyncio.wait_for(asyncio.gather(*parked), 5.0)
                    assert all(0 <= action < NUM_ACTIONS for action in replies)
                    stats = await client.stats()
                    assert stats["backend"] == "gru"
                    assert stats["swaps"] == 1
                    assert stats["decisions"] == 26
                    assert stats["failed"] == 0
                summary = await netserver.drain()
                assert summary["parked_replies"] == 0 and summary["pending"] == 0

        asyncio.run(scenario())

    def test_bad_requests_get_error_replies_not_disconnects(
        self, compiled_policy, serving_env, observation_stream
    ):
        async def scenario():
            server = PolicyServer(
                CompiledFSMBackend(compiled_policy), serving_env.observation_encoder
            )
            netserver = PolicyNetServer(server, flush_interval=0.001)
            with _socket_dir() as socket_path:
                await netserver.start(unix_path=socket_path)
                async with await PolicyClient.connect_unix(socket_path) as client:
                    reply = await client.request({"op": "frobnicate"})
                    assert reply["error"] == "BAD_REQUEST"
                    with pytest.raises(ServingError, match="BAD_REQUEST"):
                        await client.decide((99, 0), observation_stream[0])
                    # Decide is a codec-1 block; the JSON spelling is gone.
                    reply = await client.request(
                        {"op": "decide", "handle": [0, 0],
                         "observation": observation_stream[0].tolist()}
                    )
                    assert reply["error"] == "BAD_REQUEST"
                    assert "unknown op" in reply["message"]
                    # The wire has no swap op; swapping is in process only.
                    reply = await client.request({"op": "swap", "version": "v1"})
                    assert reply["error"] == "BAD_REQUEST"
                    assert "unknown op" in reply["message"]
                    # Out-of-range numbers overflow int() and the int64
                    # handle columns; each is a malformed request too.
                    for payload in (
                        {"op": "open", "count": 1e400},
                        {"op": "close", "handles": [[2**70, 0]]},
                    ):
                        reply = await client.request(payload)
                        assert reply["error"] == "BAD_REQUEST"
                        assert "malformed request" in reply["message"]
                    assert netserver.protocol_errors == 2
                    # The connection survived all of it.
                    assert await client.ping()
                await netserver.drain()

        asyncio.run(scenario())

    def test_open_count_is_bounded_per_request(self, compiled_policy, serving_env):
        """One frame cannot size the session table: an oversized ``open``
        is refused before the table is touched, and the connection lives."""

        async def scenario():
            server = PolicyServer(
                CompiledFSMBackend(compiled_policy), serving_env.observation_encoder
            )
            netserver = PolicyNetServer(server, flush_interval=0.001)
            capacity = server.table.capacity
            with _socket_dir() as socket_path:
                await netserver.start(unix_path=socket_path)
                async with await PolicyClient.connect_unix(socket_path) as client:
                    reply = await client.request(
                        {"op": "open", "count": MAX_OPEN_PER_REQUEST + 1}
                    )
                    assert reply["error"] == "BAD_REQUEST"
                    assert server.table.capacity == capacity
                    assert server.table.num_active == 0
                    assert await client.ping()
                await netserver.drain()

        asyncio.run(scenario())

    @pytest.mark.parametrize(
        "frame",
        [
            b"\x00" + (4).to_bytes(4, "big") + b"{bad",
            b"\x01" + (2).to_bytes(4, "big") + b"{}",
        ],
        ids=["garbage-json", "codec-1"],
    )
    def test_malformed_frame_closes_only_that_connection(
        self, compiled_policy, serving_env, frame
    ):
        """An undecodable frame is a counted protocol error that costs
        the sender its connection — and nobody else theirs."""

        async def scenario():
            server = PolicyServer(
                CompiledFSMBackend(compiled_policy), serving_env.observation_encoder
            )
            netserver = PolicyNetServer(server, flush_interval=0.001)
            with _socket_dir() as socket_path:
                await netserver.start(unix_path=socket_path)
                async with await PolicyClient.connect_unix(socket_path) as bystander:
                    assert await bystander.ping()
                    reader, writer = await asyncio.open_unix_connection(socket_path)
                    writer.write(frame)
                    await writer.drain()
                    # The server hangs up on the offender (EOF, no reply).
                    assert await asyncio.wait_for(reader.read(), timeout=5) == b""
                    writer.close()
                    await writer.wait_closed()
                    assert netserver.protocol_errors == 1
                    assert await bystander.ping()
                await netserver.drain()

        asyncio.run(scenario())


# ----------------------------------------------------------------------
# Decide blocks: one frame, n rows, served or refused as a whole
# ----------------------------------------------------------------------
class TestDecideBlocks:
    @staticmethod
    def _server(compiled_policy, serving_env, **kwargs):
        return PolicyServer(
            CompiledFSMBackend(compiled_policy),
            serving_env.observation_encoder,
            max_batch_size=1024,
            **kwargs,
        )

    def test_oversized_block_gets_one_busy_and_queues_nothing(
        self, compiled_policy, serving_env, observation_stream
    ):
        async def scenario():
            server = self._server(compiled_policy, serving_env)
            netserver = PolicyNetServer(server, flush_interval=0.001, max_inflight=4)
            with _socket_dir() as socket_path:
                await netserver.start(unix_path=socket_path)
                async with await PolicyClient.connect_unix(socket_path) as client:
                    handles = np.array(await client.open(5))
                    busy_replies = netserver.error_replies["BUSY"]
                    with pytest.raises(ServingError, match="BUSY"):
                        await client.decide_many(
                            handles[:, 0], handles[:, 1], observation_stream[:5]
                        )
                    assert server.pending == 0
                    assert netserver._connections[0].inflight == 0
                    # Back-pressure counts rows; the refusal is one reply.
                    assert netserver.busy_rejections == 5
                    assert netserver.error_replies["BUSY"] == busy_replies + 1
                    actions = await client.decide_many(
                        handles[:4, 0], handles[:4, 1], observation_stream[:4]
                    )
                    reference = self._server(compiled_policy, serving_env)
                    assert np.array_equal(
                        actions,
                        reference.decide_now(
                            reference.open_sessions(4), observation_stream[:4]
                        ),
                    )
                    assert server.stats().latency.total == 4
                await netserver.drain()

        asyncio.run(scenario())

    def test_one_stale_row_refuses_the_whole_block(
        self, compiled_policy, serving_env, observation_stream
    ):
        async def scenario():
            server = self._server(compiled_policy, serving_env)
            netserver = PolicyNetServer(server, flush_interval=0.001)
            with _socket_dir() as socket_path:
                await netserver.start(unix_path=socket_path)
                async with await PolicyClient.connect_unix(socket_path) as client:
                    handles = await client.open(3)
                    stale = handles[1]
                    await client.close_sessions([stale])
                    (fresh,) = await client.open(1)
                    assert fresh[0] == stale[0]
                    block = np.array([handles[0], stale, handles[2]])
                    steps = server.table.steps.copy()
                    with pytest.raises(StaleSessionError):
                        await client.decide_many(
                            block[:, 0], block[:, 1], observation_stream[:3]
                        )
                    assert server.pending == 0
                    assert np.array_equal(server.table.steps, steps)
                    assert server.stats().decisions == 0
                    # Duplicate sessions in one block are refused the same way.
                    with pytest.raises(ServingError, match="BAD_REQUEST.*duplicate"):
                        await client.decide_many(
                            block[[0, 0], 0], block[[0, 0], 1], observation_stream[:2]
                        )
                    assert server.pending == 0
                    assert await client.ping()
                await netserver.drain()

        asyncio.run(scenario())

    def test_non_finite_block_is_a_bad_request(self, serving_env, observation_stream):
        """A NaN in a block is refused as a whole, and the GRU sessions it
        named keep deciding like sessions that never saw it."""

        async def scenario():
            policy = _gru_policy()
            encoder = serving_env.observation_encoder
            server = PolicyServer(GRUPolicyBackend(policy), encoder, max_batch_size=1024)
            reference = PolicyServer(GRUPolicyBackend(policy), encoder)
            reference_ids = reference.open_sessions(2)
            netserver = PolicyNetServer(server, flush_interval=0.001)
            with _socket_dir() as socket_path:
                await netserver.start(unix_path=socket_path)
                async with await PolicyClient.connect_unix(socket_path) as client:
                    handles = np.array(await client.open(2))
                    poisoned = observation_stream[:2].copy()
                    poisoned[1, 0] = np.nan
                    with pytest.raises(ServingError, match="BAD_REQUEST.*non-finite"):
                        await client.decide_many(handles[:, 0], handles[:, 1], poisoned)
                    assert server.pending == 0 and server.stats().decisions == 0
                    for step in range(3):
                        rows = observation_stream[step : step + 2]
                        actions = await client.decide_many(handles[:, 0], handles[:, 1], rows)
                        assert actions.tolist() == reference.decide_now(
                            reference_ids, rows
                        ).tolist()
                    assert np.isfinite(server.table.hidden[handles[:, 0]]).all()
                await netserver.drain()

        asyncio.run(scenario())

    def test_block_resolved_across_two_flushes_settles_once(
        self, compiled_policy, serving_env, observation_stream
    ):
        """A block naming a session that is already queued forces a flush
        mid-block: its head resolves with that flush, its tail with the
        next one, and it is answered once, after the tail."""

        async def scenario():
            server = self._server(compiled_policy, serving_env)
            reference = self._server(compiled_policy, serving_env)
            # Only forced flushes and the drain flush ever run.
            netserver = PolicyNetServer(server)
            with _socket_dir() as socket_path:
                await _start_without_idle_flush(netserver, unix_path=socket_path)
                first = await PolicyClient.connect_unix(socket_path)
                second = await PolicyClient.connect_unix(socket_path)
                handles = np.array(await first.open(4))
                reference_ids = reference.open_sessions(4)
                single = asyncio.create_task(
                    first.decide_many(
                        handles[2:3, 0], handles[2:3, 1], observation_stream[9:10]
                    )
                )
                await asyncio.sleep(0.05)
                assert server.pending == 1
                block = asyncio.create_task(
                    second.decide_many(
                        handles[:, 0], handles[:, 1], observation_stream[:4]
                    )
                )
                # The early flush answers the single-row block at once...
                assert (await asyncio.wait_for(single, 2.0)).tolist() == (
                    reference.decide_now(
                        reference_ids[2:3], observation_stream[9:10]
                    ).tolist()
                )
                # ...and leaves the four-row block half resolved, still parked.
                assert server.stats().batches == 1
                assert server.stats().decisions == 3
                assert server.pending == 2
                assert len(netserver._parked) == 1 and not block.done()
                assert netserver._connections[1].inflight == 4
                assert server.stats().latency.total == 1
                summary = await netserver.drain()
                assert (await asyncio.wait_for(block, 2.0)).tolist() == (
                    reference.decide_now(
                        reference_ids, observation_stream[:4]
                    ).tolist()
                )
                assert summary["batches"] == 2 and summary["decisions"] == 5
                assert summary["failed"] == 0
                assert summary["latency"]["count"] == 5
                assert summary["parked_replies"] == 0 and summary["pending"] == 0
                assert summary["replies_dropped"] == 0
                await first.close()
                await second.close()

        asyncio.run(scenario())

    def test_drain_answers_a_parked_block(
        self, compiled_policy, serving_env, observation_stream
    ):
        async def scenario():
            server = self._server(compiled_policy, serving_env)
            netserver = PolicyNetServer(server)
            with _socket_dir() as socket_path:
                await _start_without_idle_flush(netserver, unix_path=socket_path)
                client = await PolicyClient.connect_unix(socket_path)
                handles = np.array(await client.open(3))
                block = asyncio.create_task(
                    client.decide_many(
                        handles[:, 0], handles[:, 1], observation_stream[:3]
                    )
                )
                await asyncio.sleep(0.05)
                assert server.pending == 3 and len(netserver._parked) == 1
                summary = await netserver.drain()
                actions = await asyncio.wait_for(block, 2.0)
                assert actions.shape == (3,)
                assert all(0 <= action < NUM_ACTIONS for action in actions)
                assert summary["parked_replies"] == 0 and summary["pending"] == 0
                assert summary["failed"] == 0
                await client.close()

        asyncio.run(scenario())

    def test_client_refuses_a_misshapen_block_locally(
        self, compiled_policy, serving_env, observation_stream
    ):
        async def scenario():
            netserver = PolicyNetServer(
                self._server(compiled_policy, serving_env), flush_interval=0.001
            )
            with _socket_dir() as socket_path:
                await netserver.start(unix_path=socket_path)
                async with await PolicyClient.connect_unix(socket_path) as client:
                    (handle,) = await client.open(1)
                    for slots, gens, obs in (
                        ([], [], np.zeros((0, 35))),
                        ([handle[0]], [handle[1]], np.zeros((1, 3))),
                        ([handle[0]], [handle[1], 0], np.zeros((1, 35))),
                    ):
                        with pytest.raises(ConfigurationError, match="decide block"):
                            await client.decide_many(slots, gens, obs)
                    with pytest.raises(ConfigurationError, match="decide block"):
                        await client.decide(handle, observation_stream[0][:5])
                    # Nothing malformed reached the wire.
                    assert netserver.protocol_errors == 0
                    assert await client.ping()
                await netserver.drain()

        asyncio.run(scenario())

    @pytest.mark.parametrize("transport", ["unix", "tcp"])
    def test_request_on_a_dead_connection_raises_at_once(
        self, compiled_policy, serving_env, observation_stream, transport
    ):
        """After the server hung up, no call may park a future nobody
        will resolve (TCP: the write still succeeds) or leak a raw
        ``ConnectionResetError`` (unix)."""

        async def scenario():
            netserver = PolicyNetServer(
                self._server(compiled_policy, serving_env), flush_interval=0.001
            )
            with _socket_dir() as socket_path:
                if transport == "unix":
                    await netserver.start(unix_path=socket_path)
                    client = await PolicyClient.connect_unix(socket_path)
                else:
                    endpoints = await netserver.start(host="127.0.0.1")
                    client = await PolicyClient.connect_tcp(*endpoints["tcp"])
                (handle,) = await client.open(1)
                await netserver.drain()
                for _ in range(2):
                    with pytest.raises(ServingError, match="connection closed"):
                        await asyncio.wait_for(client.ping(), 2.0)
                    with pytest.raises(ServingError, match="connection closed"):
                        await asyncio.wait_for(
                            client.decide(handle, observation_stream[0]), 2.0
                        )
                assert client._futures == {}
                await client.close()

        asyncio.run(scenario())

    def test_reader_dying_on_any_os_error_fails_the_request_in_flight(
        self, compiled_policy, serving_env, observation_stream
    ):
        """A connection lost to an ``OSError`` that is not a reset (here
        ETIMEDOUT's ``TimeoutError``) fails the decide it owed a reply,
        and every later call raises at once."""

        async def scenario():
            netserver = PolicyNetServer(self._server(compiled_policy, serving_env))
            with _socket_dir() as socket_path:
                await _start_without_idle_flush(netserver, unix_path=socket_path)
                client = await PolicyClient.connect_unix(socket_path)
                (handle,) = await client.open(1)
                parked = asyncio.create_task(
                    client.decide(handle, observation_stream[0])
                )
                while netserver.server.pending < 1:
                    await asyncio.sleep(0)
                client.connection_lost(TimeoutError("timed out"))
                with pytest.raises(ServingError, match="connection closed"):
                    await asyncio.wait_for(parked, 1.0)
                with pytest.raises(ServingError, match="connection closed"):
                    await asyncio.wait_for(client.ping(), 1.0)
                assert client._futures == {}
                await client.close()
                await netserver.drain()

        asyncio.run(scenario())


# ----------------------------------------------------------------------
# The idle trigger: a parked block flushes once the event loop goes idle
# ----------------------------------------------------------------------
class TestIdleFlush:
    @staticmethod
    def _server(compiled_policy, serving_env):
        return PolicyServer(
            CompiledFSMBackend(compiled_policy),
            serving_env.observation_encoder,
            max_batch_size=1024,
        )

    def test_lone_block_does_not_wait_for_the_interval(
        self, compiled_policy, serving_env, observation_stream
    ):
        async def scenario():
            netserver = PolicyNetServer(
                self._server(compiled_policy, serving_env), flush_interval=30.0
            )
            with _socket_dir() as socket_path:
                await netserver.start(unix_path=socket_path)
                async with await PolicyClient.connect_unix(socket_path) as client:
                    (handle,) = await client.open(1)
                    action = await asyncio.wait_for(
                        client.decide(handle, observation_stream[0]), 1.0
                    )
                    assert 0 <= action < NUM_ACTIONS
                await netserver.drain()

        asyncio.run(scenario())

    def test_blocks_read_in_one_pass_share_one_backend_call(
        self, compiled_policy, serving_env, observation_stream
    ):
        """Eight connections write an n = 1 block each in the same loop
        pass; the server reads them together and flushes them together."""

        async def scenario():
            server = self._server(compiled_policy, serving_env)
            reference = self._server(compiled_policy, serving_env)
            netserver = PolicyNetServer(server, flush_interval=30.0)
            with _socket_dir() as socket_path:
                await netserver.start(unix_path=socket_path)
                clients = [
                    await PolicyClient.connect_unix(socket_path) for _ in range(8)
                ]
                handles = [(await client.open(1))[0] for client in clients]
                batches = server.stats().batches
                # gather starts every decide in one pass, and each writes
                # its frame before it first yields.
                actions = await asyncio.wait_for(
                    asyncio.gather(
                        *(
                            client.decide(handle, observation_stream[i])
                            for i, (client, handle) in enumerate(zip(clients, handles))
                        )
                    ),
                    1.0,
                )
                assert server.stats().batches == batches + 1
                assert server.stats().max_batch == 8
                assert actions == reference.decide_now(
                    reference.open_sessions(8), observation_stream[:8]
                ).tolist()
                for client in clients:
                    await client.close()
                await netserver.drain()

        asyncio.run(scenario())

    @pytest.mark.parametrize(
        "parks_every_pass", [False, True], ids=["spinner", "never-idle"]
    )
    def test_busy_loop_still_flushes_within_the_bound(
        self, compiled_policy, serving_env, observation_stream, parks_every_pass
    ):
        """A task spinning on ``sleep(0)`` keeps the loop busy but parks
        nothing, so the block flushes at once; one that also arms the
        flush every pass, as a parked block does (a loop that never goes
        idle), delays the flush by at most ``flush_interval``."""
        flush_interval = 0.05

        async def scenario():
            netserver = PolicyNetServer(
                self._server(compiled_policy, serving_env),
                flush_interval=flush_interval,
            )
            spinning = True

            async def spin() -> None:
                while spinning:
                    if parks_every_pass:
                        netserver._arm_flush()
                    await asyncio.sleep(0)

            with _socket_dir() as socket_path:
                await netserver.start(unix_path=socket_path)
                async with await PolicyClient.connect_unix(socket_path) as client:
                    (handle,) = await client.open(1)
                    spinner = asyncio.create_task(spin())
                    try:
                        action = await asyncio.wait_for(
                            client.decide(handle, observation_stream[0]),
                            5 * flush_interval,
                        )
                    finally:
                        spinning = False
                        await spinner
                    assert 0 <= action < NUM_ACTIONS
                await netserver.drain()

        asyncio.run(scenario())

    def test_open_loop_trickle_replays_the_reference(
        self, compiled_policy, serving_env, observation_stream
    ):
        """Open-loop n = 1 traffic: 32 connections x 8 sessions, ~1 000
        decides at seeded exponential arrival times (~2 000/s).

        Every session's actions equal the reference broker's over that
        session's rows in order, and nothing is refused, failed or left
        parked.  Latency and batch size are printed, not asserted.
        """
        connections, sessions_each, decides, rate = 32, 8, 1000, 2000.0
        sessions = connections * sessions_each
        rng = np.random.default_rng(30)
        arrivals = np.cumsum(rng.exponential(1.0 / rate, decides))
        targets = rng.integers(sessions, size=decides)
        rows = rng.integers(len(observation_stream), size=decides)
        actions = np.full(decides, -1, dtype=np.int64)
        latencies = np.zeros(decides)

        async def scenario():
            server = self._server(compiled_policy, serving_env)
            netserver = PolicyNetServer(server)
            with _socket_dir() as socket_path:
                await netserver.start(unix_path=socket_path)
                clients = [
                    await PolicyClient.connect_unix(socket_path)
                    for _ in range(connections)
                ]
                # Session k rides connection k // sessions_each.
                handles = [
                    handle
                    for client in clients
                    for handle in await client.open(sessions_each)
                ]

                async def decide(i: int) -> None:
                    session = int(targets[i])
                    start = time.perf_counter()
                    actions[i] = await clients[session // sessions_each].decide(
                        handles[session], observation_stream[rows[i]]
                    )
                    latencies[i] = time.perf_counter() - start

                loop = asyncio.get_running_loop()
                begin = loop.time()
                tasks = []
                for i, at in enumerate(arrivals):
                    delay = begin + at - loop.time()
                    if delay > 0:
                        await asyncio.sleep(delay)
                    # Tasks write in creation order, so each connection
                    # sends its sessions' rows in arrival order.
                    tasks.append(asyncio.create_task(decide(i)))
                await asyncio.wait_for(asyncio.gather(*tasks), 5.0)
                stats = server.stats()
                for client in clients:
                    await client.close()
                summary = await netserver.drain()
            return stats, summary

        stats, summary = asyncio.run(scenario())
        reference = self._server(compiled_policy, serving_env)
        reference_ids = reference.open_sessions(sessions)
        order = [np.flatnonzero(targets == session) for session in range(sessions)]
        expected = np.full(decides, -1, dtype=np.int64)
        for step in range(max(len(indices) for indices in order)):
            live = [s for s in range(sessions) if len(order[s]) > step]
            indices = np.array([order[session][step] for session in live])
            expected[indices] = reference.decide_now(
                reference_ids[live], observation_stream[rows[indices]]
            )
        assert np.array_equal(actions, expected)
        assert summary["busy_rejections"] == 0 and summary["failed"] == 0
        assert summary["pending"] == 0 and summary["parked_replies"] == 0
        p50, p99 = np.percentile(latencies * 1e3, [50, 99])
        print(
            f"\ntrickle: {decides} n = 1 decides at ~{rate:.0f}/s over {connections} "
            f"connections, p50 {p50:.2f} ms, p99 {p99:.2f} ms, "
            f"{stats.batches} batches of mean size {stats.mean_batch_size:.2f}"
        )


# ----------------------------------------------------------------------
# PR 9 serving hardening: flush-loop guard, broken-peer settle, drain
# ----------------------------------------------------------------------
class _WedgedBackend:
    """Wraps a real backend; ``decide`` raises RuntimeError while armed."""

    def __init__(self, inner, failures: int = 1) -> None:
        self.inner = inner
        self.failures = failures
        self.name = f"wedged({inner.name})"

    def check_encoder(self, encoder):
        self.inner.check_encoder(encoder)

    def session_table(self, capacity):
        return self.inner.session_table(capacity)

    def begin_sessions(self, table, slots):
        self.inner.begin_sessions(table, slots)

    def decide(self, table, slots, raw, normalized):
        if self.failures > 0:
            self.failures -= 1
            raise RuntimeError("wedged backend")
        return self.inner.decide(table, slots, raw, normalized)


class TestServingHardening:
    def test_flush_loop_survives_non_repro_backend_fault(
        self, compiled_policy, serving_env, observation_stream
    ):
        """One RuntimeError from a flush tick must not kill the loop.

        Before the guard, anything outside the ReproError hierarchy
        raised in a flush killed the flush loop silently — the server
        never flushed again and every later request hung until drain.
        """

        async def scenario():
            server = PolicyServer(
                _WedgedBackend(CompiledFSMBackend(compiled_policy), failures=1),
                serving_env.observation_encoder,
                max_batch_size=1024,
            )
            netserver = PolicyNetServer(server, flush_interval=0.002)
            with _socket_dir() as socket_path:
                await netserver.start(unix_path=socket_path)
                client = await PolicyClient.connect_unix(socket_path)
                (handle,) = await client.open(1)
                with pytest.raises(ServingError, match="BACKEND_ERROR"):
                    await client.decide(handle, observation_stream[0])
                summary = await client.stats()
                assert summary["flush_loop_errors"] == 1
                assert "RuntimeError" in summary["last_flush_error"]
                # The flush is still armed by the next park: the next
                # request is served by the idle flush, not left hanging.
                action = await asyncio.wait_for(
                    client.decide(handle, observation_stream[1]), timeout=5.0
                )
                assert 0 <= action < NUM_ACTIONS
                assert netserver._idle_flush is None  # ran and disarmed
                await client.close()
                await netserver.drain()

        asyncio.run(scenario())

    def test_settle_survives_peer_that_breaks_mid_batch(
        self, compiled_policy, serving_env, observation_stream
    ):
        """A reply write blowing up must not lose the batch's other replies.

        Before the fix, the first ``connection.send`` raising inside
        ``_settle`` propagated out with half the waiters unsettled and
        ``inflight`` already decremented for some — here the broken
        peer's reply is dropped (counted) and everyone else settles.
        """

        async def scenario():
            server = PolicyServer(
                CompiledFSMBackend(compiled_policy),
                serving_env.observation_encoder,
                max_batch_size=1024,
            )
            netserver = PolicyNetServer(server, flush_interval=0.01)
            with _socket_dir() as socket_path:
                await netserver.start(unix_path=socket_path)
                healthy = await PolicyClient.connect_unix(socket_path)
                doomed = await PolicyClient.connect_unix(socket_path)
                (h_handle,) = await healthy.open(1)
                (d_handle,) = await doomed.open(1)
                # Break the doomed peer's server-side transport: every
                # write now raises like a mid-reply disconnect would.
                doomed_connection = netserver._connections[1]

                def exploding_write(data):
                    raise ConnectionResetError("peer vanished mid-reply")

                doomed_connection.transport.write = exploding_write
                lost = asyncio.create_task(
                    doomed.decide(d_handle, observation_stream[0])
                )
                await asyncio.sleep(0)  # let the doomed request park first
                # wait_for: with the settle bug, the raise kills the
                # flush and this would hang forever, not fail.
                action = await asyncio.wait_for(
                    healthy.decide(h_handle, observation_stream[1]), timeout=5.0
                )
                assert 0 <= action < NUM_ACTIONS  # same batch, still settled
                assert netserver.replies_dropped == 1
                assert doomed_connection.broken
                assert doomed_connection.inflight == 0
                assert len(netserver._parked) == 0
                assert netserver.flush_loop_errors == 0
                lost.cancel()
                with pytest.raises(asyncio.CancelledError):
                    await lost
                await healthy.close()
                await doomed.close()
                summary = await netserver.drain()
                assert summary["replies_dropped"] == 1

        asyncio.run(scenario())

    def test_drain_with_wedged_backend_completes_cleanly(
        self, compiled_policy, serving_env, observation_stream
    ):
        """Drain must finish (and answer everyone) even if flush raises.

        Before the fix, a non-ReproError out of the drain flush
        propagated with the listeners already closed and every
        connection stranded.
        """

        async def scenario():
            server = PolicyServer(
                _WedgedBackend(CompiledFSMBackend(compiled_policy), failures=10),
                serving_env.observation_encoder,
                max_batch_size=1024,
            )
            netserver = PolicyNetServer(server)
            with _socket_dir() as socket_path:
                await _start_without_idle_flush(netserver, unix_path=socket_path)
                client = await PolicyClient.connect_unix(socket_path)
                handles = await client.open(2)
                tasks = [
                    asyncio.create_task(
                        client.decide(handle, observation_stream[i])
                    )
                    for i, handle in enumerate(handles)
                ]
                await asyncio.sleep(0.05)
                assert server.pending == 2
                summary = await netserver.drain()
                assert summary["pending"] == 0
                assert summary["parked_replies"] == 0
                assert summary["flush_loop_errors"] == 1
                for task in tasks:
                    with pytest.raises(ServingError, match="BACKEND_ERROR"):
                        await task
                await client.close()

        asyncio.run(scenario())

    def test_drain_cancels_parked_tickets_through_the_broker(
        self, compiled_policy, serving_env, observation_stream
    ):
        """Drain's ``pending == 0`` guarantee must hold in the *broker*.

        With the broker's flush disabled (a stand-in for any path that
        leaves tickets parked), the old code failed the tickets from
        the outside — parked replies settled, but the tickets stayed in
        the broker's pending set and ``pending`` read nonzero after a
        "clean" drain.  Routing through ``cancel_pending`` makes the
        guarantee real.
        """

        async def scenario():
            server = PolicyServer(
                CompiledFSMBackend(compiled_policy),
                serving_env.observation_encoder,
                max_batch_size=1024,
            )
            netserver = PolicyNetServer(server)
            with _socket_dir() as socket_path:
                await _start_without_idle_flush(netserver, unix_path=socket_path)
                client = await PolicyClient.connect_unix(socket_path)
                handles = await client.open(2)
                tasks = [
                    asyncio.create_task(
                        client.decide(handle, observation_stream[i])
                    )
                    for i, handle in enumerate(handles)
                ]
                await asyncio.sleep(0.05)
                assert server.pending == 2
                server.flush = lambda: 0  # wedge the drain's flush path
                summary = await netserver.drain()
                assert summary["pending"] == 0
                assert summary["parked_replies"] == 0
                for task in tasks:
                    with pytest.raises(ServingError, match="drained"):
                        await task
                assert server.stats().failed == 2
                # No single-in-flight mark outlived the cancel: the same
                # sessions queue again without a same-session flush.
                del server.flush
                slots = [slot for slot, _generation in handles]
                server.submit_many(slots, observation_stream[:2])
                assert server.pending == 2 and server.stats().batches == 0
                await client.close()

        asyncio.run(scenario())


# ----------------------------------------------------------------------
# PR 10 telemetry: the ``metrics`` socket op + flush-health surfacing
# ----------------------------------------------------------------------
class TestMetricsOp:
    @pytest.fixture(autouse=True)
    def fresh_registry(self):
        # These tests pin exact series values, and every server in the
        # process shares the default registry — start each from zero.
        telemetry.configure(enabled=True)
        yield
        telemetry.configure(enabled=True)

    def test_metrics_op_serves_both_expositions(
        self, compiled_policy, serving_env, observation_stream
    ):
        """A live server answers ``metrics`` with Prometheus text + JSON
        covering the broker and netserver series, moving under traffic."""

        async def scenario():
            server = PolicyServer(
                CompiledFSMBackend(compiled_policy),
                serving_env.observation_encoder,
                max_batch_size=1024,
            )
            netserver = PolicyNetServer(server, flush_interval=0.002)
            with _socket_dir() as socket_path:
                await netserver.start(unix_path=socket_path)
                client = await PolicyClient.connect_unix(socket_path)
                handles = await client.open(3)
                for index, handle in enumerate(handles):
                    await client.decide(handle, observation_stream[index])
                first = await client.metrics()
                for index, handle in enumerate(handles):
                    await client.decide(handle, observation_stream[index + 3])

                second = await client.metrics()
                prom = second["prometheus"]
                assert "# TYPE serving_decisions_total counter" in prom
                assert "# TYPE serving_batch_size summary" in prom
                assert 'netserver_requests_total{op="decide"} 6' in prom
                assert "serving_queue_depth_peak" in prom

                def value(payload, name, **labels):
                    for series in payload["json"][name]["series"]:
                        if series["labels"] == labels:
                            return series["value"]
                    raise AssertionError(f"{name} {labels} missing")

                # Monotone between in-flight scrapes.
                assert value(first, "serving_decisions_total") == 3
                assert value(second, "serving_decisions_total") == 6
                assert value(second, "netserver_requests_total", op="metrics") == 2
                backend = server.backend.name
                assert value(second, "serving_backend_info", backend=backend) == 1.0
                # Flush health rides along even when all is well.
                assert second["flush_loop_errors"] == 0
                assert second["last_flush_error"] is None
                # Frames and rows are separate series: six n = 1 frames so
                # far, then one three-row block.
                assert "netserver_decide_rows_total 6" in prom
                block = np.array(handles)
                await client.decide_many(
                    block[:, 0], block[:, 1], observation_stream[6:9]
                )
                third = await client.metrics()
                assert value(third, "netserver_requests_total", op="decide") == 7
                assert value(third, "netserver_decide_rows_total") == 9
                assert value(third, "serving_decisions_total") == 9
                await client.close()
                await netserver.drain()

        asyncio.run(scenario())

    def test_metrics_and_stats_surface_flush_loop_faults(
        self, compiled_policy, serving_env, observation_stream
    ):
        """The once-silent flush-loop drop is observable from both ops."""

        async def scenario():
            server = PolicyServer(
                _WedgedBackend(CompiledFSMBackend(compiled_policy), failures=1),
                serving_env.observation_encoder,
                max_batch_size=1024,
            )
            netserver = PolicyNetServer(server, flush_interval=0.002)
            with _socket_dir() as socket_path:
                await netserver.start(unix_path=socket_path)
                client = await PolicyClient.connect_unix(socket_path)
                (handle,) = await client.open(1)
                with pytest.raises(ServingError, match="BACKEND_ERROR"):
                    await client.decide(handle, observation_stream[0])
                # Recovered: later requests are served...
                action = await asyncio.wait_for(
                    client.decide(handle, observation_stream[1]), timeout=5.0
                )
                assert 0 <= action < NUM_ACTIONS
                # ...but the fault stays visible through BOTH ops.
                stats = await client.stats()
                assert stats["flush_loop_errors"] == 1
                assert "RuntimeError" in stats["last_flush_error"]
                exposition = await client.metrics()
                assert exposition["flush_loop_errors"] == 1
                assert "RuntimeError" in exposition["last_flush_error"]
                assert "netserver_flush_loop_errors_total 1" in exposition["prometheus"]
                errors = {
                    tuple(sorted(series["labels"].items())): series["value"]
                    for series in exposition["json"][
                        "netserver_error_replies_total"
                    ]["series"]
                }
                assert errors[(("code", "BACKEND_ERROR"),)] >= 1
                await client.close()
                await netserver.drain()

        asyncio.run(scenario())

    def test_metrics_op_renders_non_finite_values(
        self, compiled_policy, serving_env
    ):
        """A gauge holding +/-inf or NaN is scraped, not a protocol error."""

        async def scenario():
            server = PolicyServer(
                CompiledFSMBackend(compiled_policy), serving_env.observation_encoder
            )
            netserver = PolicyNetServer(server, flush_interval=0.002)
            netserver.metrics.gauge("probe_value", side="up").set(float("inf"))
            netserver.metrics.gauge("probe_value", side="down").set(float("-inf"))
            netserver.metrics.gauge("probe_value", side="nan").set(float("nan"))
            with _socket_dir() as socket_path:
                await netserver.start(unix_path=socket_path)
                client = await PolicyClient.connect_unix(socket_path)
                exposition = await asyncio.wait_for(client.metrics(), timeout=5.0)
                prom = exposition["prometheus"]
                assert 'probe_value{side="up"} +Inf\n' in prom
                assert 'probe_value{side="down"} -Inf\n' in prom
                assert 'probe_value{side="nan"} NaN\n' in prom
                values = {
                    series["labels"]["side"]: series["value"]
                    for series in exposition["json"]["probe_value"]["series"]
                }
                assert values["up"] == float("inf")
                assert values["down"] == float("-inf")
                assert np.isnan(values["nan"])
                # The connection is still served, and nothing was
                # counted as a malformed request.
                assert await client.ping()
                assert netserver.protocol_errors == 0
                await client.close()
                await netserver.drain()

        asyncio.run(scenario())

    def test_scrape_equals_summary_after_every_step(
        self, compiled_policy, serving_env, observation_stream
    ):
        """One connection through every op and fault; the views never drift.

        The broker and front-door families are views of the attributes
        ``summary()`` reports, so after each step the scrape and the
        summary read the same numbers.
        """

        async def scenario():
            backend = _WedgedBackend(CompiledFSMBackend(compiled_policy), failures=0)
            server = PolicyServer(
                backend, serving_env.observation_encoder, max_batch_size=1024
            )
            netserver = PolicyNetServer(server, flush_interval=0.002, max_inflight=4)
            rows = observation_stream

            with _socket_dir() as socket_path:
                await netserver.start(unix_path=socket_path)
                client = await PolicyClient.connect_unix(socket_path)

                async def check():
                    scrape = (await client.metrics())["json"]
                    _assert_scrape_matches(netserver, scrape)
                    summary = netserver.summary()
                    for count in ("decisions", "batches", "failed", "swaps"):
                        assert _series(scrape, f"serving_{count}_total") == summary[count]

                await check()
                handles = np.array(await client.open(6))
                await check()
                await client.decide(handles[0], rows[0])
                await check()
                await client.decide_many(handles[:2, 0], handles[:2, 1], rows[:2])
                await check()
                with pytest.raises(ServingError, match="BUSY"):
                    await client.decide_many(handles[:5, 0], handles[:5, 1], rows[:5])
                await check()
                await client.close_sessions(handles[5:])
                await check()
                assert (await client.open(1))[0][0] == handles[5, 0]  # slot reused
                with pytest.raises(StaleSessionError):
                    await client.decide(handles[5], rows[5])
                await check()
                assert (await client.request({"op": "close"}))["error"] == "BAD_REQUEST"
                assert netserver.protocol_errors == 1
                await check()
                assert (await client.request({"op": "bogus"}))["error"] == "BAD_REQUEST"
                await client.stats()
                assert await client.ping()
                await check()

                # A reply dropped on a peer whose transport is gone.
                doomed = await PolicyClient.connect_unix(socket_path)
                (doomed_handle,) = await doomed.open(1)
                await check()

                def exploding_write(data):
                    raise ConnectionResetError("peer vanished mid-reply")

                netserver._connections[1].transport.write = exploding_write
                lost = asyncio.create_task(doomed.decide(doomed_handle, rows[6]))
                await asyncio.sleep(0)
                await client.decide(handles[1], rows[1])
                assert netserver.replies_dropped == 1
                await check()
                lost.cancel()
                with pytest.raises(asyncio.CancelledError):
                    await lost
                await doomed.close()

                # A wedged backend: the flush counts the fault.
                backend.failures = 1
                with pytest.raises(ServingError, match="BACKEND_ERROR"):
                    await client.decide(handles[2], rows[2])
                assert netserver.flush_loop_errors == 1
                await check()
                await client.close()
                await netserver.drain()

        asyncio.run(scenario())

    def test_scrape_sums_the_live_brokers_of_the_process(
        self, compiled_policy, serving_env, observation_stream
    ):
        """Two brokers share the registry: the scrape is the sum of both.

        When one broker and its front door are collected, the front
        door's counts and the broker's live gauges leave the sum; the
        broker's counters stay, because the registry keeps its stats
        record (counters do not go backwards).
        """

        rows = observation_stream

        async def scenario():
            stacks = []
            with _socket_dir() as first_path, _socket_dir() as second_path:
                for path, count in ((first_path, 2), (second_path, 3)):
                    server = PolicyServer(
                        CompiledFSMBackend(compiled_policy),
                        serving_env.observation_encoder,
                        max_batch_size=1024,
                    )
                    netserver = PolicyNetServer(server, flush_interval=0.002)
                    await netserver.start(unix_path=path)
                    async with await PolicyClient.connect_unix(path) as client:
                        block = np.array(await client.open(count))
                        await client.decide_many(block[:, 0], block[:, 1], rows[:count])
                    stacks.append((server, netserver))
                rows_served = 5
                async with await PolicyClient.connect_unix(first_path) as client:
                    scrape = (await client.metrics())["json"]
                    brokers = [broker for broker, _netserver in stacks]
                    for attribute in ("decisions", "batches", "failed", "swaps"):
                        assert _series(scrape, f"serving_{attribute}_total") == sum(
                            getattr(broker.stats(), attribute) for broker in brokers
                        )
                    assert _series(scrape, "serving_sessions_active") == 5.0
                    assert _series(scrape, "netserver_decide_rows_total") == rows_served
                    assert _series(scrape, "netserver_requests_total", op="open") == 2
                    assert _series(scrape, "serving_backend_info", backend="compiled_fsm") == 2.0
                    server, netserver = stacks.pop()
                    await netserver.drain()
                    del server, netserver, brokers
                    gc.collect()
                    scrape = (await client.metrics())["json"]
                    (first_server, first_netserver), = stacks
                    # The collected front door's counts left the sum...
                    _assert_scrape_matches(first_netserver, scrape)
                    assert _series(scrape, "netserver_decide_rows_total") == 2
                    assert _series(scrape, "serving_backend_info", backend="compiled_fsm") == 1.0
                    # ...and the collected broker's counters stayed.
                    assert _series(scrape, "serving_decisions_total") == rows_served
                    assert first_server.stats().decisions == 2
                await first_netserver.drain()

        asyncio.run(scenario())


def _series(scrape, name, **labels):
    """One series' value in a JSON exposition, or ``None`` when absent."""
    for series in scrape.get(name, {"series": []})["series"]:
        if series["labels"] == labels:
            return series["value"]
    return None


def _assert_scrape_matches(netserver, scrape):
    """The scrape reads what ``summary()`` and the tallies hold."""
    summary = netserver.summary()
    for name, key in (
        ("netserver_connections_total", "connections_total"),
        ("netserver_connections_open", "connections_open"),
        ("netserver_replies_dropped_total", "replies_dropped"),
        ("netserver_flush_loop_errors_total", "flush_loop_errors"),
        ("netserver_parked_replies", "parked_replies"),
        ("serving_sessions_active", "active_sessions"),
        ("serving_sessions_peak", "peak_sessions"),
        ("serving_pending_requests", "pending"),
    ):
        assert _series(scrape, name) == summary[key], name
    by_op = {
        series["labels"]["op"]: series["value"]
        for series in scrape["netserver_requests_total"]["series"]
    }
    assert by_op == netserver.requests_by_op
    assert sum(by_op.values()) == summary["requests_total"]
    assert {
        series["labels"]["code"]: series["value"]
        for series in scrape["netserver_error_replies_total"]["series"]
    } == netserver.error_replies
    assert _series(scrape, "netserver_decide_rows_total") == netserver.decide_rows
