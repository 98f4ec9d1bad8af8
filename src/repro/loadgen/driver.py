"""The fleet driver: vector simulators as serving clients.

:class:`FleetDriver` owns a fleet of simulated storage nodes — the
schedule's ``sessions`` split across B-major
:class:`~repro.env.vector_env.VectorStorageAllocationEnv` shards — and
drives them through a transport against one policy server.  Each step
of each phase is one sim-to-serve round trip:

1. every tenant submits its current raw observation as a ``decide``
   request (one micro-batched wave per shard; flash-crowd tenants
   submit ``burst_multiplier`` requests, extras discarded),
2. the applied actions advance the shard's simulator in lockstep,
3. churned tenants close and reopen their server sessions (the sim
   slot persists; the session handle is recycled through the table's
   free list) and stale probes replay pre-churn handles at the server.

Two transports speak to the same broker: :class:`InProcessTransport`
calls :meth:`~repro.serving.server.PolicyServer.submit_many` directly
(the 10^5-session path), :class:`SocketTransport` fans the same waves
over :class:`~repro.serving.netserver.PolicyClient` connections with
per-connection windows sized under the server's ``max_inflight`` so
back-pressure never rejects a deterministic run.  Because every
backend decides row-wise, the two transports produce byte-identical
:class:`~repro.loadgen.report.LoadReport` deterministic sections.
"""

from __future__ import annotations

import asyncio
import hashlib
import struct
import time
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro import telemetry
from repro.env.vector_env import VectorStorageAllocationEnv
from repro.errors import ConfigurationError, ReproError, ServingError, StaleSessionError
from repro.loadgen.report import LoadReport
from repro.loadgen.schedule import FleetSchedule
from repro.serving.netserver import PolicyClient
from repro.serving.server import PolicyServer
from repro.storage.simulator import StorageSystemConfig
from repro.telemetry import LatencyHistogram
from repro.utils.rng import PhiloxStreams, _stable_hash
from repro.workloads.generator import GeneratorConfig, StandardWorkloadGenerator
from repro.workloads.tenant_mix import ZipfianTenantMix

__all__ = ["FleetDriver", "InProcessTransport", "SocketTransport"]

_PACK = struct.Struct("<4i")


class InProcessTransport:
    """Waves go straight into the broker (`submit_many` + one flush)."""

    name = "inprocess"

    def __init__(self, server: PolicyServer) -> None:
        self.server = server

    async def open_sessions(self, count: int) -> Tuple[np.ndarray, np.ndarray]:
        slots = np.asarray(self.server.open_sessions(count), dtype=np.int64)
        gens = self.server.table.generation[slots].astype(np.int64)
        return slots, gens

    async def close_sessions(self, slots: np.ndarray, gens: np.ndarray) -> None:
        self.server.close_sessions(slots, expected_generation=gens)

    async def decide_wave(
        self,
        slots: np.ndarray,
        gens: np.ndarray,
        raw: np.ndarray,
        hist: LatencyHistogram,
    ) -> np.ndarray:
        start = time.perf_counter()
        try:
            wave = self.server.submit_many(slots, raw, expected_generation=gens)
            self.server.flush()
        except ReproError:
            raise
        except Exception as exc:
            # A backend fault (the broker already failed the queued rows):
            # report it as the socket transport's BACKEND_ERROR reads.
            raise ServingError(
                f"decision wave of {slots.shape[0]} rows failed: {exc}"
            ) from exc
        elapsed = time.perf_counter() - start
        # Every request of the wave shares the wave's wall time — the
        # in-process analogue of arrival→reply latency.
        hist.record_many(np.full(len(wave), elapsed))
        return wave.actions

    async def stale_probe(self, slot: int, gen: int, raw_row: np.ndarray) -> str:
        try:
            self.server.submit(int(slot), raw_row, expected_generation=int(gen))
        except StaleSessionError:
            return "stale"
        except ReproError:
            return "error"
        return "ok"

    async def active_sessions(self) -> int:
        return int(self.server.table.num_active)

    async def summary(self) -> Dict[str, object]:
        return {
            "transport": self.name,
            "occupancy": self.server.table.occupancy(),
            **self.server.stats().as_dict(),
        }


class SocketTransport:
    """The same waves over :class:`PolicyClient` connections.

    Session ``i`` of a wave always goes through connection ``i % N``
    (affinity), and each wave is issued in windows of one decide block
    per connection, at most ``per_connection_window`` rows each, so a
    deterministic run never trips the server's ``BUSY`` back-pressure.
    Admin traffic (open/close/stats) and stale probes ride connection 0.
    """

    name = "socket"

    def __init__(
        self, clients: Sequence[PolicyClient], per_connection_window: int = 32
    ) -> None:
        if not clients:
            raise ConfigurationError("socket transport needs at least one client")
        if per_connection_window <= 0:
            raise ConfigurationError("per_connection_window must be positive")
        self.clients = list(clients)
        self.window = int(per_connection_window)

    async def open_sessions(self, count: int) -> Tuple[np.ndarray, np.ndarray]:
        handles = await self.clients[0].open(count)
        slots = np.array([h[0] for h in handles], dtype=np.int64)
        gens = np.array([h[1] for h in handles], dtype=np.int64)
        return slots, gens

    async def close_sessions(self, slots: np.ndarray, gens: np.ndarray) -> None:
        handles = [[int(s), int(g)] for s, g in zip(slots, gens)]
        await self.clients[0].close_sessions(handles)

    async def decide_wave(
        self,
        slots: np.ndarray,
        gens: np.ndarray,
        raw: np.ndarray,
        hist: LatencyHistogram,
    ) -> np.ndarray:
        n = int(slots.shape[0])
        k = len(self.clients)
        actions = np.zeros(n, dtype=np.int64)

        async def block(client: PolicyClient, rows: slice) -> None:
            start = time.perf_counter()
            decided = await client.decide_many(slots[rows], gens[rows], raw[rows])
            # Every row of the block shares the block's round trip.
            hist.record_many(np.full(decided.shape[0], time.perf_counter() - start))
            actions[rows] = decided

        chunk = self.window * k
        for begin in range(0, n, chunk):
            stop = min(begin + chunk, n)
            # Row i rides connection i % k; a connection whose first row
            # falls beyond the window's end sends nothing this window.
            await asyncio.gather(
                *(
                    block(self.clients[i % k], slice(i, stop, k))
                    for i in range(begin, min(begin + k, stop))
                )
            )
        return actions

    async def stale_probe(self, slot: int, gen: int, raw_row: np.ndarray) -> str:
        try:
            await self.clients[0].decide((int(slot), int(gen)), raw_row)
        except StaleSessionError:
            return "stale"
        except ServingError:
            return "error"
        return "ok"

    async def active_sessions(self) -> int:
        return int((await self.clients[0].stats())["active_sessions"])

    async def summary(self) -> Dict[str, object]:
        return {"transport": self.name, **(await self.clients[0].stats())}


class FleetDriver:
    """Run one :class:`FleetSchedule` against a policy server.

    All randomness — tenant mix, churn, flash-crowd membership,
    simulator streams, trace synthesis — derives from ``base_seed``
    through the Philox family (or stable hashes of it), so the
    resulting :class:`LoadReport`'s deterministic section is a pure
    function of ``(base_seed, schedule)``.
    """

    def __init__(
        self,
        schedule: FleetSchedule,
        transport,
        base_seed: int = 0,
        system_config: Optional[StorageSystemConfig] = None,
    ) -> None:
        schedule.validate()
        self.schedule = schedule
        self.transport = transport
        self.base_seed = int(base_seed)
        self.system_config = system_config or StorageSystemConfig()
        self.mix = ZipfianTenantMix(schedule.profile_list(), skew=schedule.zipf_skew)
        self._generator = StandardWorkloadGenerator(
            self.system_config,
            GeneratorConfig(target_load=schedule.target_load),
        )
        self._trace_cache: Dict[Tuple[str, int], object] = {}
        total = schedule.sessions
        # One profile per tenant, fixed for the tenant's lifetime.
        mix_draws = PhiloxStreams(self.base_seed, total, "fleet/mix").uniforms()
        self._profile_idx = self.mix.assign_indices(mix_draws)
        self._churn_streams = PhiloxStreams(self.base_seed, total, "fleet/churn")
        self._burst_streams = PhiloxStreams(self.base_seed, total, "fleet/burst")
        # serial -> session handle (parallel arrays), plus the most
        # recent pre-churn handle per serial for stale probes.
        self._slots = np.zeros(total, dtype=np.int64)
        self._gens = np.zeros(total, dtype=np.int64)
        self._stale_handles: Dict[int, Tuple[int, int]] = {}
        self._shards: List[Dict[str, object]] = []

    # ------------------------------------------------------------------
    # Setup helpers
    # ------------------------------------------------------------------
    def _trace(self, profile: str, variant: int):
        key = (profile, int(variant))
        trace = self._trace_cache.get(key)
        if trace is None:
            seed = _stable_hash(
                f"fleet-trace/{self.base_seed}/{profile}/{variant}"
            )
            trace = self._generator.generate(
                profile,
                duration=self.schedule.trace_duration,
                name=f"{profile}-v{variant}",
                rng=np.random.default_rng(seed),
            )
            self._trace_cache[key] = trace
        return trace

    def _reset_shard(self, shard: Dict[str, object]) -> None:
        serials: np.ndarray = shard["serials"]
        epoch: int = shard["epoch"]
        traces = [
            self._trace(
                self.mix.profiles[self._profile_idx[serial]],
                (serial + epoch) % self.schedule.trace_variants,
            )
            for serial in serials.tolist()
        ]
        # Unique episode ids across recycles keep every sim stream fresh
        # and reproducible: epoch e of global tenant s is episode
        # ``e * sessions + s`` of the "fleet/env" domain.
        episodes = serials.astype(np.uint64) + np.uint64(
            epoch * self.schedule.sessions
        )
        rngs = PhiloxStreams(self.base_seed, episodes, "fleet/env")
        shard["env"].reset(traces, rngs=rngs)
        # The shard's current raw matrix: a reset's, then each step
        # result's own snapshot (never mutated after it is handed out).
        shard["raw"] = shard["env"].raw_observations()

    async def _setup(self) -> None:
        schedule = self.schedule
        serials = np.arange(schedule.sessions, dtype=np.int64)
        self._shards = []
        for begin in range(0, schedule.sessions, schedule.shard_size):
            shard_serials = serials[begin : begin + schedule.shard_size]
            shard = {
                "env": VectorStorageAllocationEnv(self.system_config),
                "serials": shard_serials,
                "epoch": 0,
            }
            self._reset_shard(shard)
            self._shards.append(shard)
        slots, gens = await self.transport.open_sessions(schedule.sessions)
        if slots.shape[0] != schedule.sessions:
            raise ServingError(
                f"opened {slots.shape[0]} sessions, wanted {schedule.sessions}"
            )
        self._slots[:] = slots
        self._gens[:] = gens

    # ------------------------------------------------------------------
    # Run
    # ------------------------------------------------------------------
    def run(self) -> LoadReport:
        """Synchronous entry point (in-process transport, no outer loop)."""
        return asyncio.run(self.run_async())

    async def run_async(self) -> LoadReport:
        schedule = self.schedule
        report = LoadReport(
            {
                "base_seed": self.base_seed,
                "schedule": schedule.as_dict(),
                "schedule_digest": schedule.digest(),
                "transport": self.transport.name,
                "tenant_mix": self.mix.as_dict(),
            }
        )
        digest = hashlib.sha256()
        run_start = time.perf_counter()
        await self._setup()
        for phase_index, phase in enumerate(schedule.phases):
            hist = report.begin_phase(phase.name)
            phase_start = time.perf_counter()
            counters = {
                "name": phase.name,
                "steps": phase.steps,
                "decisions": 0,
                "probe_decisions": 0,
                "churn_cycles": 0,
                "stale_rejections": 0,
                "errors": 0,
            }
            burst_mask = np.zeros(schedule.sessions, dtype=bool)
            if phase.burst_multiplier > 1 and phase.burst_tenant_fraction > 0:
                # Correlated flash crowd: membership is drawn once per
                # phase, so the same tenants surge together every step.
                draws = self._burst_streams.uniforms()
                burst_mask = draws < phase.burst_tenant_fraction
            with telemetry.span(
                "fleet.phase", name=phase.name, steps=phase.steps
            ) as phase_span:
                for step in range(phase.steps):
                    for shard_index, shard in enumerate(self._shards):
                        serials: np.ndarray = shard["serials"]
                        env: VectorStorageAllocationEnv = shard["env"]
                        raw: np.ndarray = shard["raw"]
                        actions = await self.transport.decide_wave(
                            self._slots[serials], self._gens[serials], raw, hist
                        )
                        counters["decisions"] += int(actions.shape[0])
                        digest.update(
                            _PACK.pack(0, phase_index, step, shard_index)
                        )
                        digest.update(actions.tobytes())
                        shard_burst = burst_mask[serials]
                        if shard_burst.any():
                            extra = serials[shard_burst]
                            for _ in range(phase.burst_multiplier - 1):
                                probe_actions = await self.transport.decide_wave(
                                    self._slots[extra],
                                    self._gens[extra],
                                    raw[shard_burst],
                                    hist,
                                )
                                counters["probe_decisions"] += int(
                                    probe_actions.shape[0]
                                )
                                digest.update(probe_actions.tobytes())
                        shard["raw"] = env.step(actions).raw_observations
                        if (
                            env.all_done
                            or env.dones.mean() >= schedule.recycle_threshold
                        ):
                            shard["epoch"] += 1
                            self._reset_shard(shard)
                            report.recycles += 1
                    await self._churn_step(phase, counters, digest)
                    await self._stale_probes(phase, counters, digest)
                    occupancy = await self.transport.active_sessions()
                    report.occupancy_timeline.append(occupancy)
                    digest.update(_PACK.pack(1, phase_index, step, occupancy))
                phase_span.set("decisions", counters["decisions"])
                phase_span.set("probe_decisions", counters["probe_decisions"])
            report.finish_phase(counters, time.perf_counter() - phase_start)
        report.elapsed_seconds = time.perf_counter() - run_start
        report.digest = digest.hexdigest()
        report.server_summary = await self.transport.summary()
        return report

    # ------------------------------------------------------------------
    # Churn + stale probes
    # ------------------------------------------------------------------
    async def _churn_step(self, phase, counters, digest) -> None:
        draws = self._churn_streams.uniforms()
        if phase.churn_rate <= 0.0:
            return
        churned = np.nonzero(draws < phase.churn_rate)[0]
        if churned.size == 0:
            return
        old_slots = self._slots[churned].copy()
        old_gens = self._gens[churned].copy()
        await self.transport.close_sessions(old_slots, old_gens)
        new_slots, new_gens = await self.transport.open_sessions(int(churned.size))
        self._slots[churned] = new_slots
        self._gens[churned] = new_gens
        for serial, slot, gen in zip(
            churned.tolist(), old_slots.tolist(), old_gens.tolist()
        ):
            self._stale_handles[serial] = (slot, gen)
        counters["churn_cycles"] += int(churned.size)
        digest.update(churned.astype(np.int64).tobytes())
        digest.update(new_slots.astype(np.int64).tobytes())
        digest.update(new_gens.astype(np.int64).tobytes())

    async def _stale_probes(self, phase, counters, digest) -> None:
        if phase.stale_probes_per_step <= 0 or not self._stale_handles:
            return
        serials = sorted(self._stale_handles)[: phase.stale_probes_per_step]
        for serial in serials:
            slot, gen = self._stale_handles[serial]
            shard = self._shards[serial // self.schedule.shard_size]
            row = int(serial - shard["serials"][0])
            raw_row = shard["raw"][row]
            status = await self.transport.stale_probe(slot, gen, raw_row)
            if status == "stale":
                counters["stale_rejections"] += 1
            elif status == "error":
                counters["errors"] += 1
            digest.update(
                f"probe/{serial}/{slot}/{gen}/{status}".encode("ascii")
            )
