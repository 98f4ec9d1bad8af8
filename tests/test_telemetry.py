"""Tests for the unified telemetry subsystem (metrics registry + tracer).

Covers the registry semantics (get-or-create instruments, labels,
lookups, both expositions and their pinned wire format), the bounded
span ring, the process-default switchboard (``configure``), the promoted
``LatencyHistogram``, and the serving integration: instruments moving under
broker traffic and the ``metrics`` socket op of a live netserver —
including the flush-loop health fields that used to be drop-only.
"""

from __future__ import annotations

import asyncio
import json
import math

import numpy as np
import pytest

from repro import telemetry
from repro.drl.rollout import BatchedRolloutCollector
from repro.env.vector_env import VectorStorageAllocationEnv
from repro.errors import ServingError
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


class TestSnapshotMergeAndExposition:
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


@pytest.fixture
def reward_config():
    from repro.env.reward import RewardConfig

    return RewardConfig(mode="per_step_penalty")
