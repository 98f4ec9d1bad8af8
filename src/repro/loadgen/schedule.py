"""Declarative load schedules for the fleet harness.

A :class:`FleetSchedule` is the full, serialisable description of one
load run — fleet size and sharding, tenant mix skew, trace parameters,
and an ordered list of :class:`LoadPhase` entries (steady state, churn
storms, flash crowds...).  Everything the driver randomises is derived
from ``(base_seed, schedule)`` through :class:`~repro.utils.rng.PhiloxStreams`,
so the schedule's :meth:`~FleetSchedule.digest` is part of every
:class:`~repro.loadgen.report.LoadReport`: two reports are comparable
only if their schedule digests match.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.errors import ConfigurationError
from repro.workloads.profiles import profile_names

__all__ = ["FleetSchedule", "LoadPhase"]


@dataclass
class LoadPhase:
    """One contiguous stretch of load with fixed knobs.

    churn_rate:
        Per-step probability that a session closes its server-side
        handle and reopens (the storage node persists; its *session*
        is recycled through the table's free list).
    burst_multiplier / burst_tenant_fraction:
        Flash-crowd shape: a correlated subset of the fleet (drawn once
        per phase) submits ``burst_multiplier`` decision requests per
        interval instead of 1; the extra probes hit the server like any
        decision but their actions are not applied to the simulator.
    stale_probes_per_step:
        Deliberate stale-handle submissions per step (pre-churn handles
        replayed at the server), pinning the STALE_SESSION path under
        load.
    """

    name: str
    steps: int
    churn_rate: float = 0.0
    burst_multiplier: int = 1
    burst_tenant_fraction: float = 0.0
    stale_probes_per_step: int = 0

    def validate(self) -> None:
        if not self.name:
            raise ConfigurationError("load phase needs a name")
        if self.steps <= 0:
            raise ConfigurationError(f"phase {self.name!r}: steps must be positive")
        if not 0.0 <= self.churn_rate <= 1.0:
            raise ConfigurationError(
                f"phase {self.name!r}: churn_rate must be in [0, 1]"
            )
        if self.burst_multiplier < 1:
            raise ConfigurationError(
                f"phase {self.name!r}: burst_multiplier must be >= 1"
            )
        if not 0.0 <= self.burst_tenant_fraction <= 1.0:
            raise ConfigurationError(
                f"phase {self.name!r}: burst_tenant_fraction must be in [0, 1]"
            )
        if self.stale_probes_per_step < 0:
            raise ConfigurationError(
                f"phase {self.name!r}: stale_probes_per_step must be >= 0"
            )

    def as_dict(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "steps": int(self.steps),
            "churn_rate": float(self.churn_rate),
            "burst_multiplier": int(self.burst_multiplier),
            "burst_tenant_fraction": float(self.burst_tenant_fraction),
            "stale_probes_per_step": int(self.stale_probes_per_step),
        }


@dataclass
class FleetSchedule:
    """The serialisable description of one fleet load run.

    sessions / shard_size:
        Fleet size and the batch size of each backing vector simulator
        (sessions are split into ``ceil(sessions / shard_size)`` shards
        stepped in lockstep).
    trace_duration / trace_variants / target_load:
        Workload traces: each tenant replays one of ``trace_variants``
        cached variants of its profile's trace (``trace_duration``
        intervals each, cycled on episode recycle).
    zipf_skew / profiles:
        Tenant mix — Zipfian over ``profiles`` in rank order (defaults
        to the 12 standard profiles).
    recycle_threshold:
        When a shard's done fraction reaches this, the whole shard
        resets onto its tenants' next trace variants (the storage nodes
        persist; sessions are *not* reopened by a recycle).
    """

    sessions: int = 1024
    shard_size: int = 512
    trace_duration: int = 12
    trace_variants: int = 2
    target_load: float = 0.7
    zipf_skew: float = 1.1
    recycle_threshold: float = 1.0
    profiles: Optional[Sequence[str]] = None
    phases: List[LoadPhase] = field(default_factory=list)

    def validate(self) -> None:
        if self.sessions <= 0:
            raise ConfigurationError("sessions must be positive")
        if self.shard_size <= 0:
            raise ConfigurationError("shard_size must be positive")
        if self.trace_duration <= 0:
            raise ConfigurationError("trace_duration must be positive")
        if self.trace_variants <= 0:
            raise ConfigurationError("trace_variants must be positive")
        if not 0.0 < self.recycle_threshold <= 1.0:
            raise ConfigurationError("recycle_threshold must be in (0, 1]")
        if self.zipf_skew < 0:
            raise ConfigurationError("zipf_skew must be non-negative")
        if not self.phases:
            raise ConfigurationError("schedule needs at least one phase")
        names = [phase.name for phase in self.phases]
        if len(set(names)) != len(names):
            raise ConfigurationError(f"duplicate phase names: {names}")
        for phase in self.phases:
            phase.validate()
        if self.profile_list() == []:
            raise ConfigurationError("schedule needs at least one profile")

    def profile_list(self) -> List[str]:
        return (
            list(self.profiles) if self.profiles is not None else profile_names()
        )

    @property
    def total_steps(self) -> int:
        return sum(phase.steps for phase in self.phases)

    def num_shards(self) -> int:
        return -(-self.sessions // self.shard_size)

    def as_dict(self) -> Dict[str, object]:
        return {
            "sessions": int(self.sessions),
            "shard_size": int(self.shard_size),
            "trace_duration": int(self.trace_duration),
            "trace_variants": int(self.trace_variants),
            "target_load": float(self.target_load),
            "zipf_skew": float(self.zipf_skew),
            "recycle_threshold": float(self.recycle_threshold),
            "profiles": self.profile_list(),
            "phases": [phase.as_dict() for phase in self.phases],
        }

    def digest(self) -> str:
        """Content hash of the schedule (reports refuse mismatched digests)."""
        canonical = json.dumps(self.as_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()
