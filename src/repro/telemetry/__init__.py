"""Unified telemetry: the metrics registry and the structured tracer.

One substrate for every layer's observability — the micro-batching
broker and its asyncio front door, the evaluation engine, the rollout
hot path and the fleet load harness all record into the same process-global :class:`MetricsRegistry` and
:class:`Tracer`, reachable through :func:`registry` / :func:`tracer` /
:func:`span`.  The ``metrics`` socket op, benchmark JSONs and the fleet
:class:`~repro.loadgen.report.LoadReport` read the same snapshots back
out.

Switches
--------
Telemetry defaults **on** (it is cheap and provably inert — see
``tests/test_telemetry_inertness.py``).  ``REPRO_TELEMETRY=0`` in the
environment, or :func:`configure` ``(enabled=False)`` at runtime,
swaps the process defaults for disabled ones whose instruments are
shared no-op singletons — zero overhead beyond one empty attribute
call per event.  ``REPRO_TRACE_CAPACITY`` sizes the span ring buffer
(default 4096 spans; the ring overwrites oldest-first, so long runs
cost bounded memory).

Components capture their instruments when they are *constructed*:
``configure`` affects objects built afterwards, not instruments already
resolved (that is what makes the hot paths allocation- and lookup-free).
"""

from __future__ import annotations

import os
from typing import Optional

from repro.telemetry.metrics import (
    NULL_REGISTRY,
    Counter,
    Gauge,
    Histogram,
    LatencyHistogram,
    MetricsRegistry,
    MetricsSnapshot,
)
from repro.telemetry.tracing import NULL_TRACER, Span, Tracer

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "LatencyHistogram",
    "MetricsRegistry",
    "MetricsSnapshot",
    "NULL_REGISTRY",
    "NULL_TRACER",
    "Span",
    "Tracer",
    "configure",
    "enabled",
    "registry",
    "span",
    "tracer",
]


def _env_enabled() -> bool:
    return os.environ.get("REPRO_TELEMETRY", "1").lower() not in ("0", "false", "off")


def _env_capacity() -> int:
    try:
        return max(1, int(os.environ.get("REPRO_TRACE_CAPACITY", "4096")))
    except ValueError:
        return 4096


_registry = MetricsRegistry(enabled=_env_enabled())
_tracer = Tracer(capacity=_env_capacity(), enabled=_env_enabled())


def registry() -> MetricsRegistry:
    """The process-default metrics registry (possibly disabled)."""
    return _registry


def tracer() -> Tracer:
    """The process-default span tracer (possibly disabled)."""
    return _tracer


def span(name: str, /, **attributes):
    """``with telemetry.span("broker.flush", batch=n):`` on the default tracer."""
    return _tracer.span(name, **attributes)


def enabled() -> bool:
    return _registry.enabled


def configure(
    enabled: Optional[bool] = None,
    trace_capacity: Optional[int] = None,
) -> None:
    """Replace the process defaults (fresh registry + fresh tracer).

    Existing components keep the instruments they already resolved;
    components constructed after this call pick up the new defaults.
    Passing ``enabled=False`` installs no-op defaults (the differential
    inertness tests build one stack per mode around this switch).
    """
    global _registry, _tracer
    if enabled is None:
        enabled = _registry.enabled
    if trace_capacity is None:
        trace_capacity = _tracer.capacity
    _registry = MetricsRegistry(enabled=enabled)
    _tracer = Tracer(capacity=trace_capacity, enabled=enabled)
