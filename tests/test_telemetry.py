"""Tests for the unified telemetry subsystem (metrics registry + tracer).

Covers the registry semantics (get-or-create instruments, views of
owners' attributes, labels, lookups, both expositions and their pinned
wire format, also for a populated broker and front door), the bounded
span ring, the process-default switchboard (``configure``), the promoted
``LatencyHistogram``, and the serving integration: instruments moving under
broker traffic and the ``metrics`` socket op of a live netserver —
including the flush-loop health fields that used to be drop-only.
"""

from __future__ import annotations

import asyncio
import gc
import json
import math
import os
import shutil
import tempfile

import numpy as np
import pytest

from repro import telemetry
from repro.agents.default import DefaultPolicy
from repro.drl.rollout import BatchedRolloutCollector
from repro.engine import AgentBatchBackend
from repro.env.observation import OBSERVATION_DIM, ObservationEncoder
from repro.env.vector_env import VectorStorageAllocationEnv
from repro.errors import ServingError
from repro.serving import PolicyClient, PolicyNetServer, PolicyServer
from repro.storage.simulator import StorageSystemConfig
from repro.telemetry import (
    LatencyHistogram,
    MetricsRegistry,
    Tracer,
)


@pytest.fixture
def fresh_defaults():
    """Swap in fresh process defaults; restore enabled defaults after."""
    telemetry.configure(enabled=True)
    try:
        yield
    finally:
        telemetry.configure(enabled=True)


# ----------------------------------------------------------------------
# Registry semantics
# ----------------------------------------------------------------------
class TestMetricsRegistry:
    def test_counter_get_or_create_and_inc(self):
        registry = MetricsRegistry(enabled=True)
        counter = registry.counter("requests_total", help="Requests")
        assert registry.counter("requests_total") is counter
        counter.inc()
        counter.inc(4)
        assert registry.value("requests_total") == 5

    def test_labeled_series_are_distinct(self):
        registry = MetricsRegistry(enabled=True)
        ok = registry.counter("replies_total", code="OK")
        bad = registry.counter("replies_total", code="BAD_REQUEST")
        assert ok is not bad
        ok.inc(2)
        bad.inc()
        assert registry.value("replies_total", code="OK") == 2
        assert registry.value("replies_total", code="BAD_REQUEST") == 1
        assert registry.value("replies_total", code="BUSY") is None
        assert registry.value("absent_total") is None
        # Label order does not matter for lookup.
        multi = registry.counter("multi_total", b="2", a="1")
        assert registry.counter("multi_total", a="1", b="2") is multi

    def test_histogram_records_and_custom_bucketing(self):
        registry = MetricsRegistry(enabled=True)
        hist = registry.histogram("batch_size", num_buckets=8, base=1.0, factor=2.0)
        assert registry.histogram(
            "batch_size", num_buckets=8, base=1.0, factor=2.0
        ) is hist
        for size in (1, 2, 4, 64):
            hist.record(size)
        assert hist.total == 4
        with pytest.raises(ValueError):
            registry.histogram("batch_size")  # default bucketing mismatch

    def test_invalid_names_and_kind_clashes(self):
        registry = MetricsRegistry(enabled=True)
        with pytest.raises(ValueError):
            registry.counter("bad name")
        registry.counter("taken_total")
        with pytest.raises(ValueError):
            registry.gauge("taken_total")

    def test_disabled_registry_hands_out_shared_null_instruments(self):
        registry = MetricsRegistry(enabled=False)
        a = registry.counter("x_total")
        b = registry.counter("y_total")
        assert a is b  # shared singleton
        a.inc()
        registry.gauge("g").set(3)
        registry.histogram("h").record(0.5)
        registry.histogram("h").record_many(np.array([0.5]))
        assert registry.names() == []
        assert registry.as_dict() == {}
        assert registry.to_prometheus_text() == ""

    def test_view_and_instrument_families_do_not_mix(self):
        registry = MetricsRegistry(enabled=True)
        owner = _Owner(3)
        registry.view("viewed_total", "Viewed", owner, _count)
        with pytest.raises(ValueError, match="counter view"):
            registry.counter("viewed_total")
        with pytest.raises(ValueError, match="counter view"):
            registry.gauge("viewed_total")
        registry.counter("counted_total")
        with pytest.raises(ValueError, match="as a counter,"):
            registry.view("counted_total", "Counted", owner, _count)
        registry.view("viewed_total", "Viewed", _Owner(4), _count)  # same kind: joins

    def test_disabled_registry_registers_no_view(self):
        registry = MetricsRegistry(enabled=False)
        registry.view("viewed_total", "Viewed", _Owner(3), _count)
        assert registry.names() == []
        assert registry.as_dict() == {}


class _Owner:
    def __init__(self, count, **by_label):
        self.count = count
        self.by_label = by_label


def _count(owner):
    return owner.count


def _by_label(owner):
    return owner.by_label


class TestViews:
    """Families that read their owners' attributes at render time."""

    def test_view_reads_the_attribute_at_render_time(self):
        registry = MetricsRegistry(enabled=True)
        owner = _Owner(2)
        registry.view("viewed_total", "Viewed", owner, _count)
        assert registry.value("viewed_total") == 2
        owner.count += 5
        assert registry.value("viewed_total") == 7
        assert registry.to_prometheus_text() == (
            "# HELP viewed_total Viewed\n# TYPE viewed_total counter\nviewed_total 7\n"
        )

    def test_labeled_view_sums_live_owners_and_drops_collected_ones(self):
        registry = MetricsRegistry(enabled=True)
        first, second = _Owner(0, a=1, b=2), _Owner(0, b=10)
        registry.view("level", "Level", first, _by_label, "gauge", label="side")
        registry.view("level", "Level", second, _by_label, "gauge", label="side")
        assert registry.as_dict()["level"]["series"] == [
            {"labels": {"side": "a"}, "value": 1.0},
            {"labels": {"side": "b"}, "value": 12.0},
        ]
        del second
        gc.collect()
        assert registry.value("level", side="b") == 2.0
        del first
        gc.collect()
        # No live owner: the family renders nothing, but stays registered.
        assert registry.as_dict() == {}
        assert registry.to_prometheus_text() == ""
        assert registry.names() == ["level"]

    def test_kept_record_outlives_its_component(self):
        registry = MetricsRegistry(enabled=True)
        record = _Owner(4)
        registry.view("kept_total", "Kept", record, _count, keep=True)
        del record
        gc.collect()
        assert registry.value("kept_total") == 4


class TestExposition:
    def _populated(self) -> MetricsRegistry:
        registry = MetricsRegistry(enabled=True)
        registry.counter("decisions_total", help="Decisions", backend="fsm").inc(7)
        registry.gauge("depth_peak").set(4)
        registry.histogram("latency_seconds").record(0.001)
        return registry

    def test_prometheus_text_format(self):
        text = self._populated().to_prometheus_text()
        assert "# HELP decisions_total Decisions" in text
        assert "# TYPE decisions_total counter" in text
        assert 'decisions_total{backend="fsm"} 7' in text
        assert "# TYPE depth_peak gauge" in text
        # Histograms render as Prometheus summaries, not 64 buckets.
        assert "# TYPE latency_seconds summary" in text
        assert 'latency_seconds{quantile="0.99"}' in text
        assert "latency_seconds_count 1" in text
        assert "latency_seconds_max" in text
        assert "_bucket" not in text

    def test_label_values_are_escaped(self):
        registry = MetricsRegistry(enabled=True)
        registry.counter("odd_total", kind='quo"te\\path').inc()
        text = registry.to_prometheus_text()
        assert 'kind="quo\\"te\\\\path"' in text

    def test_non_finite_values_render_per_the_text_format(self):
        registry = MetricsRegistry(enabled=True)
        registry.gauge("g", side="up").set(float("inf"))
        registry.gauge("g", side="down").set(float("-inf"))
        registry.gauge("g", side="nan").set(float("nan"))
        registry.histogram("h").record(float("inf"))
        text = registry.to_prometheus_text()
        assert 'g{side="up"} +Inf\n' in text
        assert 'g{side="down"} -Inf\n' in text
        assert 'g{side="nan"} NaN\n' in text
        assert 'h{quantile="0.5"} +Inf\n' in text
        assert "h_sum +Inf\n" in text
        assert "h_max +Inf\n" in text
        assert math.isnan(registry.as_dict()["g"]["series"][1]["value"])


class TestWireFormatPin:
    """The exact bytes both expositions produce for one fixed registry.

    ``metrics`` op scrapers and the fleet ``.prom`` artifacts read these
    formats; any change to them shows up here first.
    """

    @staticmethod
    def _registry() -> MetricsRegistry:
        registry = MetricsRegistry(enabled=True)
        registry.counter("pin_requests_total", help="Requests by op", op="decide").inc(7)
        registry.counter("pin_requests_total", help="Requests by op", op="open").inc(2)
        registry.gauge("pin_queue_depth", help="Queued requests").set(3.5)
        latency = registry.histogram("pin_latency_seconds", help="Request latency")
        for seconds in (0.0005, 0.002, 0.002, 0.25):
            latency.record(seconds)
        size = registry.histogram(
            "pin_batch_size", help="Batch sizes", num_buckets=4, base=1.0, factor=4.0
        )
        for value in (1, 3, 5, 100):
            size.record(value)
        registry.counter("pin_odd_total", path='a"b\\c\nd').inc()
        return registry

    def test_prometheus_text_literal(self):
        assert self._registry().to_prometheus_text() == (
            "# HELP pin_batch_size Batch sizes\n"
            "# TYPE pin_batch_size summary\n"
            'pin_batch_size{quantile="0.5"} 4\n'
            'pin_batch_size{quantile="0.95"} 100\n'
            'pin_batch_size{quantile="0.99"} 100\n'
            "pin_batch_size_sum 109\n"
            "pin_batch_size_count 4\n"
            "pin_batch_size_max 100\n"
            "# HELP pin_latency_seconds Request latency\n"
            "# TYPE pin_latency_seconds summary\n"
            'pin_latency_seconds{quantile="0.5"} 0.0022168378200531007\n'
            'pin_latency_seconds{quantile="0.95"} 0.25\n'
            'pin_latency_seconds{quantile="0.99"} 0.25\n'
            "pin_latency_seconds_sum 0.2545\n"
            "pin_latency_seconds_count 4\n"
            "pin_latency_seconds_max 0.25\n"
            "# TYPE pin_odd_total counter\n"
            'pin_odd_total{path="a\\"b\\\\c\\nd"} 1\n'
            "# HELP pin_queue_depth Queued requests\n"
            "# TYPE pin_queue_depth gauge\n"
            "pin_queue_depth 3.5\n"
            "# HELP pin_requests_total Requests by op\n"
            "# TYPE pin_requests_total counter\n"
            'pin_requests_total{op="decide"} 7\n'
            'pin_requests_total{op="open"} 2\n'
        )

    def test_as_dict_literal(self):
        exposition = self._registry().as_dict()
        assert list(exposition) == [
            "pin_batch_size",
            "pin_latency_seconds",
            "pin_odd_total",
            "pin_queue_depth",
            "pin_requests_total",
        ]
        assert exposition == {
            "pin_batch_size": {
                "kind": "histogram",
                "help": "Batch sizes",
                "series": [{"labels": {}, "value": {
                    "bucketing": [4, 1.0, 4.0],
                    "counts": [1, 1, 1, 1],
                    "total": 4,
                    "sum": 109.0,
                    "max": 100.0,
                }}],
            },
            "pin_latency_seconds": {
                "kind": "histogram",
                "help": "Request latency",
                "series": [{"labels": {}, "value": {
                    "bucketing": [64, 1e-06, 1.5],
                    "counts": [0] * 16 + [1, 0, 0, 2] + [0] * 11 + [1] + [0] * 32,
                    "total": 4,
                    "sum": 0.2545,
                    "max": 0.25,
                }}],
            },
            "pin_odd_total": {
                "kind": "counter",
                "help": "",
                "series": [{"labels": {"path": 'a"b\\c\nd'}, "value": 1}],
            },
            "pin_queue_depth": {
                "kind": "gauge",
                "help": "Queued requests",
                "series": [{"labels": {}, "value": 3.5}],
            },
            "pin_requests_total": {
                "kind": "counter",
                "help": "Requests by op",
                "series": [
                    {"labels": {"op": "decide"}, "value": 7},
                    {"labels": {"op": "open"}, "value": 2},
                ],
            },
        }
        # Plain JSON types all the way down: the ``metrics`` op sends it.
        assert json.loads(json.dumps(exposition)) == exposition

    def test_populated_broker_and_netserver_scrape(self):
        """The ``metrics`` op of a broker and front door that saw traffic.

        One sequential client opens sessions, decides one row and one
        block, is refused ``BUSY`` and ``BAD_REQUEST``, sees one backend
        fault, closes a session and sends every other control op; an
        in-process wave is cancelled in between.  Nothing here is timed
        (request latencies live in ``ServerStats``, not the registry),
        so both expositions are pinned whole.
        """
        exposition = asyncio.run(_populated_scrape())
        assert exposition["prometheus"] == _POPULATED_PROMETHEUS
        # Compared as JSON text, so ints and floats are told apart.
        assert json.dumps(exposition["json"]) == json.dumps(_populated_json())
        assert exposition["flush_loop_errors"] == 1
        assert exposition["last_flush_error"] == "RuntimeError: injected backend fault"


class _FaultOnceBackend(AgentBatchBackend):
    """The default heuristic; ``decide`` raises RuntimeError once when armed."""

    armed = False

    def decide(self, table, slots, raw, normalized):
        if self.armed:
            self.armed = False
            raise RuntimeError("injected backend fault")
        return super().decide(table, slots, raw, normalized)


async def _populated_scrape():
    telemetry.configure(enabled=True)
    try:
        encoder = ObservationEncoder(StorageSystemConfig())
        backend = _FaultOnceBackend(DefaultPolicy, encoder)
        server = PolicyServer(backend, encoder, max_batch_size=64)
        netserver = PolicyNetServer(server, flush_interval=0.002, max_inflight=4)
        rows = np.random.default_rng(0).random((6, OBSERVATION_DIM))
        directory = tempfile.mkdtemp(prefix="rpin", dir="/tmp")
        try:
            await netserver.start(unix_path=os.path.join(directory, "s.sock"))
            client = await PolicyClient.connect_unix(os.path.join(directory, "s.sock"))
            async with client:
                handles = np.array(await client.open(6))
                await client.decide(handles[0], rows[0])
                await client.decide_many(handles[:3, 0], handles[:3, 1], rows[:3])
                with pytest.raises(ServingError, match="BUSY"):
                    await client.decide_many(handles[:5, 0], handles[:5, 1], rows[:5])
                reply = await client.request({"op": "bogus"})
                assert reply["error"] == "BAD_REQUEST"
                server.submit_many(
                    handles[4:, 0], rows[4:], expected_generation=handles[4:, 1]
                )
                assert server.cancel_pending() == 2
                backend.armed = True
                with pytest.raises(ServingError, match="BACKEND_ERROR"):
                    await client.decide(handles[1], rows[1])
                await client.close_sessions(handles[5:])
                await client.stats()
                assert await client.ping()
                exposition = await client.metrics()
            await netserver.drain()
        finally:
            shutil.rmtree(directory, ignore_errors=True)
        return exposition
    finally:
        telemetry.configure(enabled=True)


_POPULATED_PROMETHEUS = (
    "# HELP netserver_connections_open Currently open connections\n"
    "# TYPE netserver_connections_open gauge\n"
    "netserver_connections_open 1\n"
    "# HELP netserver_connections_total Connections accepted\n"
    "# TYPE netserver_connections_total counter\n"
    "netserver_connections_total 1\n"
    "# HELP netserver_decide_rows_total Rows carried by decide frames\n"
    "# TYPE netserver_decide_rows_total counter\n"
    "netserver_decide_rows_total 10\n"
    "# HELP netserver_error_replies_total Error replies sent, by structured code\n"
    "# TYPE netserver_error_replies_total counter\n"
    'netserver_error_replies_total{code="BACKEND_ERROR"} 1\n'
    'netserver_error_replies_total{code="BAD_REQUEST"} 1\n'
    'netserver_error_replies_total{code="BUSY"} 1\n'
    'netserver_error_replies_total{code="DRAINING"} 0\n'
    'netserver_error_replies_total{code="STALE_SESSION"} 0\n'
    "# HELP netserver_flush_loop_errors_total Flush-loop ticks that hit an unexpected fault\n"
    "# TYPE netserver_flush_loop_errors_total counter\n"
    "netserver_flush_loop_errors_total 1\n"
    "# HELP netserver_parked_replies Replies parked on pending waves\n"
    "# TYPE netserver_parked_replies gauge\n"
    "netserver_parked_replies 0\n"
    "# HELP netserver_replies_dropped_total Replies dropped on closed/broken peers\n"
    "# TYPE netserver_replies_dropped_total counter\n"
    "netserver_replies_dropped_total 0\n"
    "# HELP netserver_requests_total Frames dispatched, by op\n"
    "# TYPE netserver_requests_total counter\n"
    'netserver_requests_total{op="close"} 1\n'
    'netserver_requests_total{op="decide"} 4\n'
    'netserver_requests_total{op="metrics"} 1\n'
    'netserver_requests_total{op="open"} 1\n'
    'netserver_requests_total{op="other"} 1\n'
    'netserver_requests_total{op="ping"} 1\n'
    'netserver_requests_total{op="stats"} 1\n'
    "# HELP serving_backend_info 1 for the mounted decision backend\n"
    "# TYPE serving_backend_info gauge\n"
    'serving_backend_info{backend="default"} 1\n'
    "# HELP serving_batch_size Micro-batch size distribution\n"
    "# TYPE serving_batch_size summary\n"
    'serving_batch_size{quantile="0.5"} 1\n'
    'serving_batch_size{quantile="0.95"} 3\n'
    'serving_batch_size{quantile="0.99"} 3\n'
    "serving_batch_size_sum 4\n"
    "serving_batch_size_count 2\n"
    "serving_batch_size_max 3\n"
    "# HELP serving_batches_total Backend micro-batch calls\n"
    "# TYPE serving_batches_total counter\n"
    "serving_batches_total 2\n"
    "# HELP serving_cancelled_total Requests cancelled before a decision\n"
    "# TYPE serving_cancelled_total counter\n"
    "serving_cancelled_total 2\n"
    "# HELP serving_decisions_total Decisions served by the broker\n"
    "# TYPE serving_decisions_total counter\n"
    "serving_decisions_total 4\n"
    "# HELP serving_failed_total Requests failed (backend faults + cancels)\n"
    "# TYPE serving_failed_total counter\n"
    "serving_failed_total 3\n"
    "# HELP serving_pending_requests Requests queued in the broker\n"
    "# TYPE serving_pending_requests gauge\n"
    "serving_pending_requests 0\n"
    "# HELP serving_queue_depth Queued requests at the last flush\n"
    "# TYPE serving_queue_depth gauge\n"
    "serving_queue_depth 1\n"
    "# HELP serving_queue_depth_peak Deepest micro-batch queue observed\n"
    "# TYPE serving_queue_depth_peak gauge\n"
    "serving_queue_depth_peak 3\n"
    "# HELP serving_sessions_active Open sessions in the table\n"
    "# TYPE serving_sessions_active gauge\n"
    "serving_sessions_active 5\n"
    "# HELP serving_sessions_peak Peak concurrently open sessions\n"
    "# TYPE serving_sessions_peak gauge\n"
    "serving_sessions_peak 6\n"
    "# HELP serving_swaps_total Blue/green backend swaps\n"
    "# TYPE serving_swaps_total counter\n"
    "serving_swaps_total 0\n"
)


def _populated_json():
    def family(kind, help_text, *series):
        return {
            "kind": kind,
            "help": help_text,
            "series": [{"labels": labels, "value": value} for labels, value in series],
        }

    return {
        "netserver_connections_open": family(
            "gauge", "Currently open connections", ({}, 1.0)
        ),
        "netserver_connections_total": family(
            "counter", "Connections accepted", ({}, 1)
        ),
        "netserver_decide_rows_total": family(
            "counter", "Rows carried by decide frames", ({}, 10)
        ),
        "netserver_error_replies_total": family(
            "counter",
            "Error replies sent, by structured code",
            ({"code": "BACKEND_ERROR"}, 1),
            ({"code": "BAD_REQUEST"}, 1),
            ({"code": "BUSY"}, 1),
            ({"code": "DRAINING"}, 0),
            ({"code": "STALE_SESSION"}, 0),
        ),
        "netserver_flush_loop_errors_total": family(
            "counter", "Flush-loop ticks that hit an unexpected fault", ({}, 1)
        ),
        "netserver_parked_replies": family(
            "gauge", "Replies parked on pending waves", ({}, 0.0)
        ),
        "netserver_replies_dropped_total": family(
            "counter", "Replies dropped on closed/broken peers", ({}, 0)
        ),
        "netserver_requests_total": family(
            "counter",
            "Frames dispatched, by op",
            *(
                ({"op": op}, count)
                for op, count in (
                    ("close", 1), ("decide", 4), ("metrics", 1), ("open", 1),
                    ("other", 1), ("ping", 1), ("stats", 1),
                )
            ),
        ),
        "serving_backend_info": family(
            "gauge", "1 for the mounted decision backend", ({"backend": "default"}, 1.0)
        ),
        "serving_batch_size": family(
            "histogram",
            "Micro-batch size distribution",
            ({}, {
                "bucketing": [16, 1.0, 2.0],
                "counts": [1, 0, 1] + [0] * 13,
                "total": 2,
                "sum": 4.0,
                "max": 3.0,
            }),
        ),
        "serving_batches_total": family("counter", "Backend micro-batch calls", ({}, 2)),
        "serving_cancelled_total": family(
            "counter", "Requests cancelled before a decision", ({}, 2)
        ),
        "serving_decisions_total": family(
            "counter", "Decisions served by the broker", ({}, 4)
        ),
        "serving_failed_total": family(
            "counter", "Requests failed (backend faults + cancels)", ({}, 3)
        ),
        "serving_pending_requests": family(
            "gauge", "Requests queued in the broker", ({}, 0.0)
        ),
        "serving_queue_depth": family(
            "gauge", "Queued requests at the last flush", ({}, 1.0)
        ),
        "serving_queue_depth_peak": family(
            "gauge", "Deepest micro-batch queue observed", ({}, 3.0)
        ),
        "serving_sessions_active": family(
            "gauge", "Open sessions in the table", ({}, 5.0)
        ),
        "serving_sessions_peak": family(
            "gauge", "Peak concurrently open sessions", ({}, 6.0)
        ),
        "serving_swaps_total": family("counter", "Blue/green backend swaps", ({}, 0)),
    }


# ----------------------------------------------------------------------
# LatencyHistogram (promoted)
# ----------------------------------------------------------------------
class TestLatencyHistogramPromotion:
    def test_default_bucketing_unchanged(self):
        hist = LatencyHistogram()
        assert hist._bucketing() == (64, 1e-6, 1.5)
        hist.record(0.003)
        hist.record_many(np.array([0.001, 0.01]))
        assert hist.total == 3
        assert hist.as_dict()["count"] == 3

    def test_state_roundtrip_and_reset(self):
        hist = LatencyHistogram(num_buckets=8, base=0.5, factor=3.0)
        hist.record(1.0)
        hist.record(5.0)
        state = hist.state_dict()
        assert state == {
            "bucketing": [8, 0.5, 3.0],
            "counts": [0, 1, 0, 1, 0, 0, 0, 0],
            "total": 2,
            "sum": 6.0,
            "max": 5.0,
        }
        assert json.loads(json.dumps(state)) == state
        clone = LatencyHistogram(num_buckets=8, base=0.5, factor=3.0)
        clone.merge(hist)
        assert clone.state_dict() == state
        with pytest.raises(ValueError):
            LatencyHistogram().merge(hist)
        hist.reset()
        assert hist.total == 0 and hist.max_seconds == 0.0
        assert hist._bucketing() == (8, 0.5, 3.0)


# ----------------------------------------------------------------------
# Tracer
# ----------------------------------------------------------------------
class TestTracer:
    def test_span_records_duration_and_attributes(self):
        tracer = Tracer(capacity=16)
        with tracer.span("unit.op", batch=4) as span:
            span.set("backend", "fsm")
        (record,) = tracer.records()
        assert record["name"] == "unit.op"
        assert record["duration_s"] >= 0.0
        assert record["attributes"] == {"batch": 4, "backend": "fsm"}

    def test_span_name_attribute_does_not_collide(self):
        tracer = Tracer(capacity=4)
        with tracer.span("fleet.phase", name="warmup"):
            pass
        (record,) = tracer.records()
        assert record["name"] == "fleet.phase"
        assert record["attributes"] == {"name": "warmup"}

    def test_span_records_even_when_body_raises(self):
        tracer = Tracer(capacity=4)
        with pytest.raises(RuntimeError):
            with tracer.span("boom"):
                raise RuntimeError("x")
        assert len(tracer) == 1

    def test_ring_bounds_memory_and_counts_drops(self):
        tracer = Tracer(capacity=3)
        for index in range(5):
            with tracer.span(f"op{index}"):
                pass
        assert len(tracer) == 3
        assert tracer.dropped == 2
        assert [r["name"] for r in tracer.records()] == ["op2", "op3", "op4"]

    def test_jsonl_export(self, tmp_path):
        tracer = Tracer(capacity=8)
        with tracer.span("a"):
            pass
        with tracer.span("b", phase="x"):
            pass
        path = tmp_path / "trace.jsonl"
        assert tracer.export_jsonl(path) == 2
        lines = path.read_text().strip().split("\n")
        assert [json.loads(line)["name"] for line in lines] == ["a", "b"]

    def test_disabled_tracer_records_nothing(self):
        tracer = Tracer(capacity=4, enabled=False)
        with tracer.span("ignored", key="value") as span:
            span.set("more", 1)  # null span: no-op
        assert len(tracer) == 0


# ----------------------------------------------------------------------
# Process defaults
# ----------------------------------------------------------------------
class TestProcessDefaults:
    def test_configure_swaps_fresh_defaults(self, fresh_defaults):
        before_registry = telemetry.registry()
        before_tracer = telemetry.tracer()
        telemetry.configure(enabled=False)
        assert telemetry.registry() is not before_registry
        assert telemetry.tracer() is not before_tracer
        assert not telemetry.registry().enabled
        assert not telemetry.tracer().enabled
        with telemetry.span("ignored"):
            pass
        assert len(telemetry.tracer()) == 0
        telemetry.configure()  # keeps the current switch
        assert not telemetry.registry().enabled
        telemetry.configure(enabled=True)
        assert telemetry.registry().enabled and telemetry.tracer().enabled
        assert telemetry.tracer().capacity == 4096

    def test_module_span_helper_hits_default_tracer(self, fresh_defaults):
        with telemetry.span("helper.op", n=1):
            pass
        names = [r["name"] for r in telemetry.tracer().records()]
        assert "helper.op" in names


# ----------------------------------------------------------------------
# Instrumented components (construction picks up the current defaults)
# ----------------------------------------------------------------------
class TestComponentIntegration:
    def test_rollout_collector_records_spans_and_counters(
        self, fresh_defaults, system_config, reward_config, real_traces, tiny_policy
    ):
        collector = BatchedRolloutCollector(
            VectorStorageAllocationEnv(system_config, reward_config), rng=0
        )
        trajectories = collector.collect_batch(tiny_policy, real_traces[:2])
        assert len(trajectories) == 2
        registry = telemetry.registry()
        assert registry.value("rollout_batches_total") == 1
        assert registry.value("rollout_episodes_total") == 2
        assert registry.value("rollout_steps_total") > 0
        spans = [
            r for r in telemetry.tracer().records()
            if r["name"] == "rollout.collect_batch"
        ]
        assert spans and spans[-1]["attributes"]["traces"] == 2

    def test_queue_peak_gauge_holds_its_maximum(self, fresh_defaults, env):
        from repro.agents.default import DefaultPolicy
        from repro.engine import AgentBatchBackend
        from repro.env.observation import OBSERVATION_DIM
        from repro.serving import PolicyServer

        encoder = env.observation_encoder
        server = PolicyServer(AgentBatchBackend(DefaultPolicy, encoder), encoder)
        sessions = server.open_sessions(5)
        for depth in (2, 5, 3):
            server.submit_many(sessions[:depth], np.zeros((depth, OBSERVATION_DIM)))
            assert server.flush() == depth
        registry = telemetry.registry()
        # The depth gauge keeps the last flush, the peak the deepest one.
        assert registry.value("serving_queue_depth") == 3.0
        assert registry.value("serving_queue_depth_peak") == 5.0

    def test_backend_info_counts_every_broker_mounting_a_backend(
        self, fresh_defaults, env
    ):
        from repro.agents.greedy import GreedyUtilizationPolicy

        encoder = env.observation_encoder
        brokers = [
            PolicyServer(AgentBatchBackend(DefaultPolicy, encoder), encoder)
            for _ in range(2)
        ]
        registry = telemetry.registry()
        assert registry.value("serving_backend_info", backend="default") == 2.0
        brokers[0].swap_backend(AgentBatchBackend(GreedyUtilizationPolicy, encoder))
        # The other broker still mounts the default backend.
        assert registry.value("serving_backend_info", backend="default") == 1.0
        assert registry.value("serving_backend_info", backend="greedy_utilization") == 1.0
        brokers[1].swap_backend(AgentBatchBackend(GreedyUtilizationPolicy, encoder))
        # A backend no broker mounts any more has no series at all.
        assert registry.value("serving_backend_info", backend="default") is None
        assert registry.value("serving_backend_info", backend="greedy_utilization") == 2.0


@pytest.fixture
def reward_config():
    from repro.env.reward import RewardConfig

    return RewardConfig(mode="per_step_penalty")
