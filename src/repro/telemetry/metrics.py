"""Dependency-free metrics registry: counters, gauges, histograms.

The registry is the repo's single instrumentation substrate.  Every
layer — the micro-batching broker, the asyncio front door, the
evaluation engine, the rollout collector and the fleet load harness —
records into :class:`MetricsRegistry` instruments, and every consumer
(the ``metrics`` socket op, benchmark JSONs, the fleet
:class:`~repro.loadgen.report.LoadReport`) reads the same
:class:`MetricsSnapshot` out of it.

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
* **Mergeable snapshots.**  :meth:`MetricsRegistry.snapshot` returns a
  picklable plain-dict snapshot; :meth:`MetricsSnapshot.merge` folds
  two together (counters and histograms add, the merged-in gauge wins).

Naming scheme (documented in the README): ``<subsystem>_<what>_<unit>``
with ``_total`` for counters (``serving_decisions_total``,
``fleet_wave_latency_seconds``).  Labels are for *bounded* dimensions
only — backend kind, phase name, error code, op name — never session
ids, tenant ids or error strings.
"""

from __future__ import annotations

import re
from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "LatencyHistogram",
    "MetricsRegistry",
    "MetricsSnapshot",
    "NULL_REGISTRY",
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

    # ``observe`` is the metric-instrument spelling of ``record`` —
    # histograms of non-latency values read better with it.
    observe = record

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

    def fraction_within(self, slo_seconds: float) -> float:
        """Fraction of requests at or under ``slo_seconds`` (conservative)."""
        if self.total == 0:
            return 1.0
        index = int(self.bounds.searchsorted(slo_seconds, side="right"))
        within = int(self.counts[:index].sum())
        return within / self.total

    def as_dict(self) -> Dict[str, object]:
        return {
            "count": self.total,
            "mean_ms": round(self.mean_seconds * 1e3, 4),
            "p50_ms": round(self.percentile(50) * 1e3, 4),
            "p95_ms": round(self.percentile(95) * 1e3, 4),
            "p99_ms": round(self.percentile(99) * 1e3, 4),
            "max_ms": round(self.max_seconds * 1e3, 4),
        }

    # ------------------------------------------------------------------
    # Snapshot form (picklable plain dict, added with promotion)
    # ------------------------------------------------------------------
    def state_dict(self) -> Dict[str, object]:
        return {
            "bucketing": list(self._bucketing()),
            "counts": self.counts.tolist(),
            "total": int(self.total),
            "sum": float(self.sum_seconds),
            "max": float(self.max_seconds),
        }

    def merge_state(self, state: Dict[str, object]) -> None:
        if tuple(state["bucketing"]) != self._bucketing():
            raise ValueError(
                f"cannot merge histogram state with bucketing "
                f"{tuple(state['bucketing'])} into {self._bucketing()}"
            )
        self.counts += np.asarray(state["counts"], dtype=np.int64)
        self.total += int(state["total"])
        self.sum_seconds += float(state["sum"])
        self.max_seconds = max(self.max_seconds, float(state["max"]))

    @classmethod
    def from_state(cls, state: Dict[str, object]) -> "LatencyHistogram":
        num_buckets, base, factor = state["bucketing"]
        hist = cls(num_buckets=num_buckets, base=base, factor=factor)
        hist.merge_state(state)
        return hist


class Counter:
    """Monotonically increasing integer series."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        self.value += amount


class Gauge:
    """Point-in-time value; merging two snapshots keeps the merged-in one."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.value -= amount


class Histogram(LatencyHistogram):
    """A :class:`LatencyHistogram` living as a labeled registry series."""

    # No extra state: the registry attaches (name, labels) externally.


class _NullCounter:
    __slots__ = ()
    value = 0

    def inc(self, amount: int = 1) -> None:
        pass


class _NullGauge:
    __slots__ = ()
    value = 0.0

    def set(self, value: float) -> None:
        pass

    def inc(self, amount: float = 1.0) -> None:
        pass

    def dec(self, amount: float = 1.0) -> None:
        pass


class _NullHistogram:
    """No-op histogram honouring the full recording/reading surface."""

    __slots__ = ()
    total = 0
    sum_seconds = 0.0
    max_seconds = 0.0
    mean_seconds = 0.0

    def record(self, seconds: float) -> None:
        pass

    observe = record

    def record_many(self, seconds) -> None:
        pass

    def merge(self, other) -> None:
        pass

    def percentile(self, q: float) -> float:
        return 0.0

    def fraction_within(self, slo_seconds: float) -> float:
        return 1.0

    def as_dict(self) -> Dict[str, object]:
        return {
            "count": 0, "mean_ms": 0.0, "p50_ms": 0.0,
            "p95_ms": 0.0, "p99_ms": 0.0, "max_ms": 0.0,
        }


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


class _Family:
    """One metric name: kind + help text + labeled children."""

    __slots__ = ("name", "kind", "help", "bucketing", "children")

    def __init__(
        self,
        name: str,
        kind: str,
        help_text: str,
        bucketing: Optional[Tuple[int, float, float]] = None,
    ) -> None:
        self.name = name
        self.kind = kind
        self.help = help_text
        self.bucketing = bucketing
        self.children: Dict[LabelItems, object] = {}


class MetricsSnapshot:
    """Picklable point-in-time copy of a registry's every series.

    ``data`` is plain dicts/lists/numbers only — safe to pickle across
    process boundaries, dump as JSON, or fold into another snapshot.
    """

    def __init__(self, data: Optional[Dict[str, Dict[str, object]]] = None) -> None:
        # name -> {"kind", "help", "series": {rendered-labels-key: {"labels": {...}, "value": ...}}}
        self.data: Dict[str, Dict[str, object]] = data if data is not None else {}

    def merge(self, other: "MetricsSnapshot") -> "MetricsSnapshot":
        """Fold ``other`` into this snapshot (counters/histograms add,
        gauges take ``other``'s value)."""
        for name, family in other.data.items():
            mine = self.data.get(name)
            if mine is None:
                self.data[name] = {
                    "kind": family["kind"],
                    "help": family["help"],
                    "series": {
                        key: {"labels": dict(s["labels"]), "value": _copy_value(s["value"])}
                        for key, s in family["series"].items()
                    },
                }
                continue
            if mine["kind"] != family["kind"]:
                raise ValueError(
                    f"metric {name!r} is a {mine['kind']} here but a "
                    f"{family['kind']} in the merged snapshot"
                )
            for key, series in family["series"].items():
                existing = mine["series"].get(key)
                if existing is None:
                    mine["series"][key] = {
                        "labels": dict(series["labels"]),
                        "value": _copy_value(series["value"]),
                    }
                    continue
                existing["value"] = _merge_value(
                    mine["kind"], existing["value"], series["value"]
                )
        return self

    # ------------------------------------------------------------------
    # Lookups (tests, CI assertions)
    # ------------------------------------------------------------------
    def value(self, name: str, **labels) -> object:
        """The value of one series, or ``None`` when absent."""
        family = self.data.get(name)
        if family is None:
            return None
        key = _render_labels(_label_items(labels))
        series = family["series"].get(key)
        return None if series is None else series["value"]

    def names(self) -> List[str]:
        return sorted(self.data)

    # ------------------------------------------------------------------
    # Expositions
    # ------------------------------------------------------------------
    def as_dict(self) -> Dict[str, object]:
        """JSON-ready exposition (name -> kind/help/series list)."""
        out: Dict[str, object] = {}
        for name in sorted(self.data):
            family = self.data[name]
            out[name] = {
                "kind": family["kind"],
                "help": family["help"],
                "series": [
                    {"labels": dict(s["labels"]), "value": _copy_value(s["value"])}
                    for _, s in sorted(family["series"].items())
                ],
            }
        return out

    def to_prometheus_text(self) -> str:
        """Prometheus text exposition format (histograms as summaries)."""
        lines: List[str] = []
        for name in sorted(self.data):
            family = self.data[name]
            kind = family["kind"]
            prom_type = {"counter": "counter", "gauge": "gauge", "histogram": "summary"}[kind]
            if family["help"]:
                lines.append(f"# HELP {name} {family['help']}")
            lines.append(f"# TYPE {name} {prom_type}")
            for key, series in sorted(family["series"].items()):
                items = sorted(series["labels"].items())
                if kind in ("counter", "gauge"):
                    lines.append(f"{name}{_render_labels(items)} {_format_number(series['value'])}")
                    continue
                hist = LatencyHistogram.from_state(series["value"])
                for q in (0.5, 0.95, 0.99):
                    quantile_labels = _render_labels(items + [("quantile", repr(q))])
                    lines.append(
                        f"{name}{quantile_labels} {_format_number(hist.percentile(q * 100))}"
                    )
                base = _render_labels(items)
                lines.append(f"{name}_sum{base} {_format_number(hist.sum_seconds)}")
                lines.append(f"{name}_count{base} {hist.total}")
                lines.append(f"{name}_max{base} {_format_number(hist.max_seconds)}")
        return "\n".join(lines) + ("\n" if lines else "")


def _copy_value(value: object) -> object:
    return dict(value) if isinstance(value, dict) else value


def _merge_value(kind: str, mine: object, theirs: object) -> object:
    if kind == "counter":
        return int(mine) + int(theirs)
    if kind == "gauge":
        return float(theirs)
    hist = LatencyHistogram.from_state(mine)
    hist.merge_state(theirs)
    return hist.state_dict()


def _format_number(value: object) -> str:
    number = float(value)
    if number == int(number) and abs(number) < 1e15:
        return str(int(number))
    return repr(number)


class MetricsRegistry:
    """Process-local store of named, labeled metric series.

    ``counter``/``gauge``/``histogram`` get-or-create one child series —
    calling twice with the same name and labels returns the *same*
    instrument, so hot paths can resolve instruments at setup time and
    record through plain attribute calls afterwards.  A disabled
    registry returns shared null instruments instead (and snapshots
    empty), which is the zero-overhead off switch.
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
    ) -> _Family:
        if not _NAME_RE.match(name):
            raise ValueError(f"invalid metric name {name!r}")
        family = self._families.get(name)
        if family is None:
            family = _Family(name, kind, help_text, bucketing)
            self._families[name] = family
        elif family.kind != kind:
            raise ValueError(
                f"metric {name!r} already registered as a {family.kind}, "
                f"cannot re-register as a {kind}"
            )
        else:
            if help_text and not family.help:
                family.help = help_text
        return family

    def counter(self, name: str, help: str = "", **labels) -> Counter:
        if not self.enabled:
            return _NULL_COUNTER
        family = self._family(name, "counter", help)
        key = _label_items(labels)
        child = family.children.get(key)
        if child is None:
            child = Counter()
            family.children[key] = child
        return child

    def gauge(self, name: str, help: str = "", **labels) -> Gauge:
        if not self.enabled:
            return _NULL_GAUGE
        family = self._family(name, "gauge", help)
        key = _label_items(labels)
        child = family.children.get(key)
        if child is None:
            child = Gauge()
            family.children[key] = child
        return child

    def histogram(
        self,
        name: str,
        help: str = "",
        num_buckets: Optional[int] = None,
        base: Optional[float] = None,
        factor: Optional[float] = None,
        **labels,
    ) -> Histogram:
        if not self.enabled:
            return _NULL_HISTOGRAM
        probe = Histogram(num_buckets=num_buckets, base=base, factor=factor)
        family = self._family(
            name, "histogram", help, bucketing=probe._bucketing()
        )
        if family.bucketing != probe._bucketing():
            raise ValueError(
                f"metric {name!r} already registered with bucketing "
                f"{family.bucketing}, got {probe._bucketing()}"
            )
        key = _label_items(labels)
        child = family.children.get(key)
        if child is None:
            child = probe
            family.children[key] = child
        return child

    # ------------------------------------------------------------------
    # Snapshot
    # ------------------------------------------------------------------
    def snapshot(self) -> MetricsSnapshot:
        data: Dict[str, Dict[str, object]] = {}
        for name, family in self._families.items():
            series: Dict[str, Dict[str, object]] = {}
            for items, child in family.children.items():
                if family.kind == "counter":
                    value: object = int(child.value)
                elif family.kind == "gauge":
                    value = float(child.value)
                else:
                    value = child.state_dict()
                series[_render_labels(items)] = {
                    "labels": dict(items),
                    "value": value,
                }
            data[name] = {
                "kind": family.kind,
                "help": family.help,
                "series": series,
            }
        return MetricsSnapshot(data)

    # ------------------------------------------------------------------
    # Expositions (delegating to a fresh snapshot)
    # ------------------------------------------------------------------
    def to_prometheus_text(self) -> str:
        return self.snapshot().to_prometheus_text()

    def as_dict(self) -> Dict[str, object]:
        return self.snapshot().as_dict()

    def clear(self) -> None:
        self._families = {}


#: Shared always-disabled registry (hand it to components that should
#: never record, regardless of the process-global telemetry switch).
NULL_REGISTRY = MetricsRegistry(enabled=False)
