"""Discrete-time simulator of the Dorado-V6-style multi-level storage system.

The paper's experiments run against a purpose-built simulator of the
CPU-core migration behaviour of the Huawei OceanStor Dorado V6 array
(paper Section 4.1).  This package implements that simulator from the
published problem description (Section 2):

* three CPU levels — NORMAL, KV and RV — between which cores migrate;
* 14 IO request types, each with a size and a read/write kind;
* per-core maximum processing capability ``m`` per time interval;
* cache misses at NORMAL with probability ``C`` that push extra work to
  KV and RV;
* polling (round-robin) assignment of requests to cores;
* postponement of unfinished requests to later intervals (backlog);
* a performance penalty on a migrated core, in the interval it moves
  and the ``migration_cooldown_intervals`` that follow;
* Poisson-distributed core idling (paper Section 4.1).

Cores are not objects: :class:`VectorSimulatorState` holds each level's
core ids and migration cooldowns as array rows and applies the migration
rule to them, and :class:`StorageSimulator` is its one-episode view.
"""

from repro.storage.levels import Level, LEVELS
from repro.storage.iorequest import IOKind, IORequestType, standard_io_types
from repro.storage.workload import WorkloadInterval, WorkloadTrace
from repro.storage.migration import MigrationAction, ACTION_NOOP, action_name, all_actions
from repro.storage.simulator import StorageSimulator, StorageSystemConfig
from repro.storage.vector_state import VectorSimulatorState
from repro.storage.metrics import IntervalMetrics, EpisodeMetrics

__all__ = [
    "Level",
    "LEVELS",
    "IOKind",
    "IORequestType",
    "standard_io_types",
    "WorkloadInterval",
    "WorkloadTrace",
    "MigrationAction",
    "ACTION_NOOP",
    "action_name",
    "all_actions",
    "StorageSimulator",
    "StorageSystemConfig",
    "VectorSimulatorState",
    "IntervalMetrics",
    "EpisodeMetrics",
]
