"""Unified telemetry: the metrics registry and the structured tracer.

One substrate for every layer's observability — the micro-batching
broker and its asyncio front door, the evaluation engine and the
rollout hot path all record into the same process-global
:class:`MetricsRegistry` and :class:`Tracer`, reachable through
:func:`registry` / :func:`tracer` / :func:`span`.  The ``metrics``
socket op renders the registry's live instruments and views; the fleet
:class:`~repro.loadgen.report.LoadReport` keeps its own registry for
its timing section.

Switches
--------
Telemetry defaults **on** (it is cheap and provably inert — see
``tests/test_telemetry_inertness.py``).  ``REPRO_TELEMETRY=0`` in the
environment, or :func:`configure` ``(enabled=False)`` at runtime,
swaps the process defaults for disabled ones whose instruments are
shared no-op singletons — zero overhead beyond one empty attribute
call per event.  The span ring holds the last 4096 spans, overwriting
oldest-first, so long runs cost bounded memory.

Components capture their instruments, and bind their views, when they
are *constructed*: ``configure`` affects objects built afterwards, not
instruments already resolved (that is what makes the hot paths
allocation- and lookup-free) nor views already registered on the
registry that was current then.
"""

from __future__ import annotations

import os
from typing import Optional

from repro.telemetry.metrics import (
    Counter,
    Gauge,
    LatencyHistogram,
    MetricsRegistry,
)
from repro.telemetry.tracing import Span, Tracer

__all__ = [
    "Counter",
    "Gauge",
    "LatencyHistogram",
    "MetricsRegistry",
    "Span",
    "Tracer",
    "configure",
    "registry",
    "span",
    "tracer",
]


def _env_enabled() -> bool:
    return os.environ.get("REPRO_TELEMETRY", "1").lower() not in ("0", "false", "off")


_registry = MetricsRegistry(enabled=_env_enabled())
_tracer = Tracer(enabled=_env_enabled())


def registry() -> MetricsRegistry:
    """The process-default metrics registry (possibly disabled)."""
    return _registry


def tracer() -> Tracer:
    """The process-default span tracer (possibly disabled)."""
    return _tracer


def span(name: str, /, **attributes):
    """``with telemetry.span("broker.flush", batch=n):`` on the default tracer."""
    return _tracer.span(name, **attributes)


def configure(enabled: Optional[bool] = None) -> None:
    """Replace the process defaults (fresh registry + fresh tracer).

    Existing components keep the instruments and views they already
    have; components constructed after this call pick up the new defaults.
    Passing ``enabled=False`` installs no-op defaults (the differential
    inertness tests build one stack per mode around this switch).
    """
    global _registry, _tracer
    if enabled is None:
        enabled = _registry.enabled
    _registry = MetricsRegistry(enabled=enabled)
    _tracer = Tracer(enabled=enabled)
