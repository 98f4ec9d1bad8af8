"""Aggregated results of one fleet load run.

A :class:`LoadReport` is split in two on purpose:

* ``deterministic`` — all-integer counters (decisions, churn events,
  stale rejections, occupancy timeline, recycles) plus a sha256
  ``digest`` folded over every applied action of the run.  For a fixed
  ``(base_seed, schedule)`` this section is byte-identical across runs
  and across the in-process / socket transports — it is what the
  determinism pin asserts on.
* ``timing`` — wall-clock rates and latency percentiles (per phase and
  overall), which legitimately vary run to run and are reported for
  humans and the benchmark regression guard, never compared for
  equality.  The timing section is backed by the report's own
  always-enabled :class:`~repro.telemetry.MetricsRegistry`
  (``metrics``): its latency instruments serve ``timing_dict()``, and
  its expositions (the ``telemetry`` section of :meth:`as_dict`) also
  view the report's seconds, recycles and phase decisions.  Its
  families are all named ``fleet_*``, disjoint from the process
  registry's, so the two Prometheus expositions concatenate into one.
"""

from __future__ import annotations

import json
from operator import attrgetter
from typing import Dict, List, Optional

from repro.telemetry import LatencyHistogram, MetricsRegistry
from repro.utils.serialization import save_json

__all__ = ["LoadReport"]


class LoadReport:
    """Accumulator + serialised form of one :class:`FleetDriver` run."""

    def __init__(self, config: Dict[str, object]) -> None:
        self.config = dict(config)
        self.phases: List[Dict[str, object]] = []
        self.occupancy_timeline: List[int] = []
        self.recycles = 0
        self.digest: Optional[str] = None
        # The report's registry is always enabled, independent of the
        # process-global telemetry switch: timing is part of the report
        # contract, not optional observability.
        self.metrics = MetricsRegistry(enabled=True)
        self.phase_latency: Dict[str, LatencyHistogram] = {}
        self.latency = self.metrics.histogram(
            "fleet_request_latency_seconds",
            help="Per-request latency over the whole run",
        )
        self.phase_seconds: Dict[str, float] = {}
        self.elapsed_seconds = 0.0
        self.server_summary: Dict[str, object] = {}
        for name, help_text, kind, label, read in (
            ("elapsed_seconds", "Wall-clock seconds of the whole run",
             "gauge", None, attrgetter("elapsed_seconds")),
            ("recycles", "Shard recycles over the run", "gauge", None, attrgetter("recycles")),
            ("phase_seconds", "Wall-clock seconds by schedule phase",
             "gauge", "phase", attrgetter("phase_seconds")),
            ("decisions_total", "Decisions driven (incl. burst probes) by schedule phase",
             "counter", "phase", lambda report: {
                 phase["name"]: phase["decisions"] + phase["probe_decisions"]
                 for phase in report.phases
             }),
        ):
            self.metrics.view(f"fleet_{name}", help_text, self, read, kind, label)

    # ------------------------------------------------------------------
    # Accumulation (driver-facing)
    # ------------------------------------------------------------------
    def begin_phase(self, name: str) -> LatencyHistogram:
        hist = self.metrics.histogram(
            "fleet_wave_latency_seconds",
            help="Per-request latency by schedule phase",
            phase=name,
        )
        # Re-running a phase name restarts its series (the old recordings
        # were already merged into the overall histogram).
        hist.reset()
        self.phase_latency[name] = hist
        return hist

    def finish_phase(self, counters: Dict[str, int], seconds: float) -> None:
        self.phases.append(dict(counters))
        name = str(counters["name"])
        self.phase_seconds[name] = float(seconds)
        self.latency.merge(self.phase_latency[name])

    # ------------------------------------------------------------------
    # Serialisation
    # ------------------------------------------------------------------
    def deterministic_dict(self) -> Dict[str, object]:
        payload: Dict[str, object] = {
            "phases": [dict(p) for p in self.phases],
            "decisions_total": sum(int(p["decisions"]) for p in self.phases),
            "probe_decisions_total": sum(
                int(p["probe_decisions"]) for p in self.phases
            ),
            "churn_cycles_total": sum(int(p["churn_cycles"]) for p in self.phases),
            "stale_rejections_total": sum(
                int(p["stale_rejections"]) for p in self.phases
            ),
            "recycles": int(self.recycles),
            "occupancy_timeline": [int(v) for v in self.occupancy_timeline],
        }
        if self.digest is not None:
            payload["digest"] = self.digest
        return payload

    def timing_dict(self) -> Dict[str, object]:
        decisions = sum(int(p["decisions"] + p["probe_decisions"]) for p in self.phases)
        per_phase = {}
        for name, hist in self.phase_latency.items():
            seconds = self.phase_seconds.get(name, 0.0)
            per_phase[name] = {
                "seconds": round(seconds, 4),
                "decisions_per_sec": (
                    round(hist.total / seconds, 2) if seconds > 0 else None
                ),
                "latency": hist.as_dict(),
            }
        return {
            "elapsed_seconds": round(self.elapsed_seconds, 4),
            "decisions_per_sec": (
                round(decisions / self.elapsed_seconds, 2)
                if self.elapsed_seconds > 0
                else None
            ),
            "latency": self.latency.as_dict(),
            "per_phase": per_phase,
        }

    def as_dict(self) -> Dict[str, object]:
        return {
            "config": dict(self.config),
            "deterministic": self.deterministic_dict(),
            "timing": self.timing_dict(),
            "telemetry": self.metrics.as_dict(),
            "server": dict(self.server_summary),
        }

    def deterministic_json(self) -> str:
        """Canonical JSON of the deterministic section (pin-comparable)."""
        return json.dumps(
            self.deterministic_dict(), sort_keys=True, separators=(",", ":")
        )

    def save(self, path) -> None:
        save_json(path, self.as_dict())
