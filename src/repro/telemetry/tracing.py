"""Structured tracing: named spans into a bounded in-memory ring buffer.

A span is one timed operation — ``with tracer.span("broker.flush",
batch=n):`` — recorded as a plain dict (name, wall-clock start,
duration, attributes) into a fixed-capacity ring.  The ring overwrites
oldest-first, so tracing a long fleet run costs bounded memory; the
``dropped`` counter says how many spans were overwritten.  Records
export as JSONL (one span per line) for offline tooling.

Like the metrics registry, tracing is provably inert: spans read
``time.perf_counter()``/``time.time()`` and touch Python objects only —
no rng stream, no control flow of the traced code.  A disabled tracer
yields a shared null span and records nothing.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional

from repro.utils.serialization import atomic_write_text

__all__ = ["Span", "Tracer"]

DEFAULT_CAPACITY = 4096


class Span:
    """One in-flight (or finished) span; attributes may be added mid-span."""

    __slots__ = ("name", "start_wall", "_start_perf", "duration_s", "attributes")

    def __init__(self, name: str, attributes: Dict[str, object]) -> None:
        self.name = name
        self.start_wall = time.time()
        self._start_perf = time.perf_counter()
        self.duration_s: Optional[float] = None
        self.attributes = attributes

    def set(self, key: str, value: object) -> None:
        self.attributes[key] = value

    def _finish(self) -> None:
        self.duration_s = time.perf_counter() - self._start_perf

    def as_dict(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "start": self.start_wall,
            "duration_s": self.duration_s,
            "attributes": dict(self.attributes),
        }


class _NullSpan:
    __slots__ = ()
    name = ""
    duration_s = None
    attributes: Dict[str, object] = {}

    def set(self, key: str, value: object) -> None:
        pass


_NULL_SPAN = _NullSpan()


class Tracer:
    """Bounded ring buffer of span records.

    ``capacity`` bounds memory; the ring overwrites oldest-first and
    ``dropped`` counts the overwritten spans.  One tracer may be shared
    across an entire process — spans are appended at exit time, so
    nested spans land child-before-parent (by design; consumers sort on
    ``start`` when they need tree order).
    """

    def __init__(self, capacity: int = DEFAULT_CAPACITY, enabled: bool = True) -> None:
        if capacity <= 0:
            raise ValueError("tracer capacity must be positive")
        self.capacity = int(capacity)
        self.enabled = bool(enabled)
        self._ring: List[Optional[Dict[str, object]]] = [None] * self.capacity
        self._next = 0
        self._count = 0
        self.dropped = 0

    @contextmanager
    def span(self, name: str, /, **attributes) -> Iterator[object]:
        """Time one operation; always records, even when the body raises."""
        if not self.enabled:
            yield _NULL_SPAN
            return
        record = Span(name, attributes)
        try:
            yield record
        finally:
            record._finish()
            self._append(record.as_dict())

    def _append(self, record: Dict[str, object]) -> None:
        if self._ring[self._next] is not None:
            self.dropped += 1
        self._ring[self._next] = record
        self._next = (self._next + 1) % self.capacity
        if self._count < self.capacity:
            self._count += 1

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self._count

    def records(self) -> List[Dict[str, object]]:
        """Resident spans, oldest first."""
        if self._count < self.capacity:
            stored = self._ring[: self._count]
        else:
            stored = self._ring[self._next :] + self._ring[: self._next]
        return [dict(record) for record in stored if record is not None]

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    def to_jsonl(self) -> str:
        return "".join(
            json.dumps(record, sort_keys=True, default=str) + "\n"
            for record in self.records()
        )

    def export_jsonl(self, path) -> int:
        """Write one span per line (atomic); returns the span count."""
        records = self.records()
        atomic_write_text(path, self.to_jsonl())
        return len(records)
