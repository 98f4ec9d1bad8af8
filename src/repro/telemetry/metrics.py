"""Dependency-free metrics registry: counters, gauges, histograms.

Every layer — the micro-batching broker, the asyncio front door, the
evaluation engine and the rollout collector — records into the
process's :class:`MetricsRegistry`; the fleet
:class:`~repro.loadgen.report.LoadReport` keeps one of its own.  Both
expositions, :meth:`MetricsRegistry.as_dict` (JSON-ready) and
:meth:`MetricsRegistry.to_prometheus_text`, render straight from the
live instruments, which is what the ``metrics`` socket op serves.

A count a component already keeps as an attribute is not counted twice:
its family is a :meth:`MetricsRegistry.view`, which reads the attribute
at render time (the Prometheus "collector" idiom).

Design constraints, in order:

* **Provably inert.**  Instruments touch plain Python ints/floats and
  preallocated numpy arrays only — never an rng stream, never control
  flow of the instrumented code.  The differential tests in
  ``tests/test_telemetry_inertness.py`` pin that a fully-instrumented
  run is bit-identical to a disabled one.
* **Zero overhead when disabled.**  A disabled registry hands out
  shared null instruments whose methods are empty one-liners; hot paths
  hold instrument references obtained at setup time, so the disabled
  cost is one no-op attribute call per event.

Naming scheme (documented in the README): ``<subsystem>_<what>_<unit>``
with ``_total`` for counters (``serving_decisions_total``,
``fleet_wave_latency_seconds``).  Labels are for *bounded* dimensions
only — backend kind, phase name, error code, op name — never session
ids, tenant ids or error strings.
"""

from __future__ import annotations

import math
import re
import weakref
from typing import Callable, Dict, Iterable, List, Optional, Tuple

import numpy as np

__all__ = [
    "Counter",
    "Gauge",
    "LatencyHistogram",
    "MetricsRegistry",
]

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")

LabelItems = Tuple[Tuple[str, str], ...]


class LatencyHistogram:
    """Fixed-bucket geometric histogram (promoted from ``repro.serving``).

    The default bucketing — 64 geometric buckets from 1 µs up, factor
    1.5 per bucket — covers far past any realistic request latency;
    recording is O(1), merging is addition, and percentile estimates
    are conservative (each falls on its bucket's **upper** edge — the
    SLO-safe direction).  ``base``/``factor``/``num_buckets`` generalise
    the same machinery to non-latency values (batch sizes, queue
    depths); two histograms merge only when their bucketing matches.
    """

    NUM_BUCKETS = 64
    BASE = 1e-6
    FACTOR = 1.5

    def __init__(
        self,
        num_buckets: Optional[int] = None,
        base: Optional[float] = None,
        factor: Optional[float] = None,
    ) -> None:
        self.num_buckets = int(num_buckets if num_buckets is not None else self.NUM_BUCKETS)
        self.base = float(base if base is not None else self.BASE)
        self.factor = float(factor if factor is not None else self.FACTOR)
        if self.num_buckets < 2:
            raise ValueError("histogram needs at least 2 buckets")
        if self.base <= 0 or self.factor <= 1.0:
            raise ValueError("histogram needs base > 0 and factor > 1")
        # bounds[i] is bucket i's inclusive upper edge; the last bucket
        # is open-ended.
        self.bounds = self.base * self.factor ** np.arange(self.num_buckets - 1)
        self.counts = np.zeros(self.num_buckets, dtype=np.int64)
        self.total = 0
        self.sum_seconds = 0.0
        self.max_seconds = 0.0

    def _bucketing(self) -> Tuple[int, float, float]:
        return (self.num_buckets, self.base, self.factor)

    def reset(self) -> None:
        """Zero the recordings, keeping the bucketing."""
        self.counts[:] = 0
        self.total = 0
        self.sum_seconds = 0.0
        self.max_seconds = 0.0

    def record(self, seconds: float) -> None:
        index = int(self.bounds.searchsorted(seconds))
        self.counts[index] += 1
        self.total += 1
        self.sum_seconds += seconds
        if seconds > self.max_seconds:
            self.max_seconds = seconds

    def record_many(self, seconds: np.ndarray) -> None:
        seconds = np.asarray(seconds, dtype=float)
        if seconds.size == 0:
            return
        indices = self.bounds.searchsorted(seconds)
        self.counts += np.bincount(indices, minlength=self.num_buckets)
        self.total += int(seconds.size)
        self.sum_seconds += float(seconds.sum())
        self.max_seconds = max(self.max_seconds, float(seconds.max()))

    def merge(self, other: "LatencyHistogram") -> None:
        """Fold ``other``'s recordings into this histogram (pure addition)."""
        if other._bucketing() != self._bucketing():
            raise ValueError(
                f"cannot merge histograms with different bucketing "
                f"{other._bucketing()} vs {self._bucketing()}"
            )
        self.counts += other.counts
        self.total += other.total
        self.sum_seconds += other.sum_seconds
        self.max_seconds = max(self.max_seconds, other.max_seconds)

    @property
    def mean_seconds(self) -> float:
        return self.sum_seconds / self.total if self.total else 0.0

    def percentile(self, q: float) -> float:
        """Upper-edge estimate of the ``q``-th percentile (q in [0, 100])."""
        if self.total == 0:
            return 0.0
        rank = max(1, int(np.ceil(self.total * q / 100.0)))
        cumulative = np.cumsum(self.counts)
        index = int(cumulative.searchsorted(rank))
        if index >= self.bounds.shape[0]:
            return self.max_seconds
        return float(min(self.bounds[index], self.max_seconds))

    def as_dict(self) -> Dict[str, object]:
        return {
            "count": self.total,
            "mean_ms": round(self.mean_seconds * 1e3, 4),
            "p50_ms": round(self.percentile(50) * 1e3, 4),
            "p95_ms": round(self.percentile(95) * 1e3, 4),
            "p99_ms": round(self.percentile(99) * 1e3, 4),
            "max_ms": round(self.max_seconds * 1e3, 4),
        }

    def state_dict(self) -> Dict[str, object]:
        """Plain-JSON form: the value of a histogram series in ``as_dict``."""
        return {
            "bucketing": list(self._bucketing()),
            "counts": self.counts.tolist(),
            "total": int(self.total),
            "sum": float(self.sum_seconds),
            "max": float(self.max_seconds),
        }


class Counter:
    """Monotonically increasing integer series."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        self.value += amount


class Gauge:
    """Point-in-time value."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)


class _NullCounter:
    __slots__ = ()

    def inc(self, amount: int = 1) -> None:
        pass


class _NullGauge:
    __slots__ = ()
    value = 0.0

    def set(self, value: float) -> None:
        pass


class _NullHistogram:
    __slots__ = ()

    def record(self, seconds: float) -> None:
        pass

    def record_many(self, seconds) -> None:
        pass


_NULL_COUNTER = _NullCounter()
_NULL_GAUGE = _NullGauge()
_NULL_HISTOGRAM = _NullHistogram()


def _label_items(labels: Dict[str, object]) -> LabelItems:
    for key in labels:
        if not _LABEL_RE.match(key):
            raise ValueError(f"invalid label name {key!r}")
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


def _escape_label_value(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _render_labels(items: Iterable[Tuple[str, str]]) -> str:
    parts = [f'{key}="{_escape_label_value(value)}"' for key, value in items]
    return "{" + ",".join(parts) + "}" if parts else ""


def _format_number(value: object) -> str:
    """A sample value as the Prometheus text format spells it."""
    number = float(value)
    if math.isnan(number):
        return "NaN"
    if math.isinf(number):
        return "+Inf" if number > 0 else "-Inf"
    if number == int(number) and abs(number) < 1e15:
        return str(int(number))
    return repr(number)


class _Family:
    """One metric name: kind + help text + labeled children, or a view's sources."""

    __slots__ = ("kind", "help", "bucketing", "children", "sources")

    def __init__(
        self,
        kind: str,
        help_text: str,
        bucketing: Optional[Tuple[int, float, float]] = None,
        view: bool = False,
    ) -> None:
        self.kind = kind
        self.help = help_text
        self.bucketing = bucketing
        self.children: Dict[LabelItems, object] = {}
        # A view's ``(owner ref, read, label)`` triples; None for instruments.
        self.sources: Optional[List[tuple]] = [] if view else None

    def samples(self) -> List[Tuple[LabelItems, object]]:
        """``(label items, value)`` pairs in exposition order.

        A value is an int (counter), a float (gauge) or the histogram
        itself; a view's values are summed over its live owners.
        """
        if self.kind == "histogram":
            return sorted(self.children.items(), key=lambda item: _render_labels(item[0]))
        totals = {items: child.value for items, child in self.children.items()}
        for ref, read, label in self.sources or ():
            owner = ref()
            if owner is None:
                continue
            reading = read(owner)
            for key, amount in reading.items() if label else [((), reading)]:
                items = ((label, str(key)),) if label else key
                totals[items] = totals.get(items, 0) + amount
        plain = int if self.kind == "counter" else float
        values = [(items, plain(total)) for items, total in totals.items()]
        return sorted(values, key=lambda item: _render_labels(item[0]))


class MetricsRegistry:
    """Process-local store of named, labeled metric series.

    ``counter``/``gauge``/``histogram`` get-or-create one child series —
    calling twice with the same name and labels returns the *same*
    instrument, so hot paths can resolve instruments at setup time and
    record through plain attribute calls afterwards; ``view`` families
    read their owners' attributes instead.  A disabled registry returns
    shared null instruments and registers no view (so it exposes
    nothing), which is the zero-overhead off switch.
    """

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = bool(enabled)
        self._families: Dict[str, _Family] = {}

    # ------------------------------------------------------------------
    # Instrument factories
    # ------------------------------------------------------------------
    def _family(
        self,
        name: str,
        kind: str,
        help_text: str,
        bucketing: Optional[Tuple[int, float, float]] = None,
        view: bool = False,
    ) -> _Family:
        if not _NAME_RE.match(name):
            raise ValueError(f"invalid metric name {name!r}")
        family = self._families.get(name)
        if family is None:
            family = _Family(kind, help_text, bucketing, view)
            self._families[name] = family
        elif (family.kind, family.sources is not None) != (kind, view):
            raise ValueError(
                f"metric {name!r} already registered as a {family.kind}"
                f"{' view' if family.sources is not None else ''}, "
                f"cannot re-register as a {kind}{' view' if view else ''}"
            )
        elif help_text and not family.help:
            family.help = help_text
        return family

    def counter(self, name: str, help: str = "", **labels) -> Counter:
        if not self.enabled:
            return _NULL_COUNTER
        children = self._family(name, "counter", help).children
        return children.setdefault(_label_items(labels), Counter())

    def gauge(self, name: str, help: str = "", **labels) -> Gauge:
        if not self.enabled:
            return _NULL_GAUGE
        children = self._family(name, "gauge", help).children
        return children.setdefault(_label_items(labels), Gauge())

    def histogram(
        self,
        name: str,
        help: str = "",
        num_buckets: Optional[int] = None,
        base: Optional[float] = None,
        factor: Optional[float] = None,
        **labels,
    ) -> LatencyHistogram:
        if not self.enabled:
            return _NULL_HISTOGRAM
        probe = LatencyHistogram(num_buckets=num_buckets, base=base, factor=factor)
        family = self._family(
            name, "histogram", help, bucketing=probe._bucketing()
        )
        if family.bucketing != probe._bucketing():
            raise ValueError(
                f"metric {name!r} already registered with bucketing "
                f"{family.bucketing}, got {probe._bucketing()}"
            )
        return family.children.setdefault(_label_items(labels), probe)

    def view(
        self,
        name: str,
        help: str,
        owner: object,
        read: Callable[[object], object],
        kind: str = "counter",
        label: Optional[str] = None,
        keep: bool = False,
    ) -> None:
        """Expose ``read(owner)`` as one owner's share of family ``name``.

        ``read`` runs at each render and returns the owner's count (with
        ``label``, a ``{label value: count}`` mapping), so the owner's
        attribute stays the only record.  The family renders the sum
        over the owners registered on *this* registry.  ``owner`` is
        held weakly (``read`` must not hold it): a collected owner's
        share leaves the sum — a counter reset — and a family with no
        live owner renders nothing.  ``keep=True`` holds a small record
        of counts for the registry's lifetime instead, so its counters
        outlive their component.  A disabled registry registers nothing.
        """
        if not self.enabled:
            return
        family = self._family(name, kind, help, view=True)
        family.sources = [s for s in family.sources if s[0]() is not None]
        ref = (lambda: owner) if keep else weakref.ref(owner)
        family.sources.append((ref, read, label))

    # ------------------------------------------------------------------
    # Lookups (tests, CI assertions)
    # ------------------------------------------------------------------
    def value(self, name: str, **labels) -> object:
        """The plain value of one series, or ``None`` when absent."""
        family = self._families.get(name)
        value = None if family is None else dict(family.samples()).get(_label_items(labels))
        return value.state_dict() if isinstance(value, LatencyHistogram) else value

    def names(self) -> List[str]:
        return sorted(self._families)

    # ------------------------------------------------------------------
    # Expositions
    # ------------------------------------------------------------------
    def _shown(self) -> Iterable[Tuple[str, _Family, List[Tuple[LabelItems, object]]]]:
        """``(name, family, samples)`` of every family with a series, by name."""
        for name in self.names():
            samples = self._families[name].samples()
            if samples:
                yield name, self._families[name], samples

    def as_dict(self) -> Dict[str, object]:
        """JSON-ready exposition (name -> kind/help/series list)."""
        return {
            name: {
                "kind": family.kind,
                "help": family.help,
                "series": [
                    {
                        "labels": dict(items),
                        "value": value.state_dict() if family.kind == "histogram" else value,
                    }
                    for items, value in samples
                ],
            }
            for name, family, samples in self._shown()
        }

    def to_prometheus_text(self) -> str:
        """Prometheus text exposition format (histograms as summaries)."""
        lines: List[str] = []
        for name, family, samples in self._shown():
            prom_type = "summary" if family.kind == "histogram" else family.kind
            if family.help:
                lines.append(f"# HELP {name} {family.help}")
            lines.append(f"# TYPE {name} {prom_type}")
            for items, value in samples:
                labels = _render_labels(items)
                if family.kind != "histogram":
                    lines.append(f"{name}{labels} {_format_number(value)}")
                    continue
                for q in (0.5, 0.95, 0.99):
                    quantile = _render_labels(items + (("quantile", repr(q)),))
                    lines.append(f"{name}{quantile} {_format_number(value.percentile(q * 100))}")
                lines.append(f"{name}_sum{labels} {_format_number(value.sum_seconds)}")
                lines.append(f"{name}_count{labels} {value.total}")
                lines.append(f"{name}_max{labels} {_format_number(value.max_seconds)}")
        return "\n".join(lines) + ("\n" if lines else "")
