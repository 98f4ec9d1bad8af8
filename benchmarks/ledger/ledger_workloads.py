"""The four ledger workloads and the proxies that time them from outside.

Everything here calls the *public* surface of ``repro`` (listed in the
README as the frozen surface).  One :meth:`repetition` is a fixed amount
of work derived from the seed; the runner decides how many repetitions
fit the measuring time.  All loops are closed: a simulated storage node
submits its next decision only after the previous one was applied.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import math
import os
import signal
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.agents.default import DefaultPolicy
from repro.agents.handcrafted import HandcraftedFSMPolicy
from repro.drl.policy import PolicyConfig, RecurrentPolicyValueNet
from repro.drl.rollout import BatchedRolloutCollector
from repro.engine import CompiledFSMBackend, CompiledFSMPolicy, EvaluationEngine, GRUPolicyBackend
from repro.env.observation import ObservationEncoder
from repro.env.reward import RewardConfig
from repro.env.vector_env import VectorStorageAllocationEnv
from repro.fsm.extraction import ExtractionConfig, FSMExtractor
from repro.loadgen import FleetDriver, FleetSchedule, InProcessTransport, LoadPhase, SocketTransport
from repro.pipeline.experiments import small_pipeline_config
from repro.pipeline.learning_aided import LearningAidedPipeline
from repro.qbn.autoencoder import build_hidden_qbn, build_observation_qbn
from repro.qbn.dataset import TransitionDataset
from repro.serving import PolicyClient, PolicyNetServer, PolicyServer
from repro.storage.simulator import StorageSystemConfig
from repro.workloads.generator import GeneratorConfig, StandardWorkloadGenerator
from repro.workloads.sampler import RealTraceSampler

# The served policy is part of the system under test, not an input: it is
# built from this fixed seed, and only the traffic (tenant mix, traces,
# churn, bursts, simulator streams) follows ``--seed``.  With a per-seed
# artifact the fallback share swings 0-40% and decisions/s by 2x.
ARTIFACT_SEED = 42
# Same reasoning for the designer: it trains on a fixed corpus (design wall
# is 2.7 s at seed 42 and 5-6 s at seeds 3, 6, 7 — episode lengths follow
# the learned policy), and ``--seed`` draws the held-out traces it is
# evaluated, verified and deployed on.
DESIGN_SEED = 42

WAVE_SPAN = "loadgen.wave"
LOOP_OTHER_SPAN = "netserver.loop_other"
BACKEND_SPAN = "engine.backend_decide"
CALIBRATION_SPAN = "bench.calibration"


# ----------------------------------------------------------------------
# Machine-speed calibration
# ----------------------------------------------------------------------
class Calibrator:
    """Samples machine speed while a repetition runs.

    This sandbox's core speed drifts by +-20% over seconds (a fixed loop's
    quartiles sit 16% apart; consecutive ``fleet_fsm`` repetitions of
    identical work differ by up to 60%), far beyond the bounds the ledger
    wants to hold.  The drift is common to everything the core runs, so
    measured seconds are scaled by how fast a fixed loop (:meth:`tick`)
    ran *during* them, relative to ``REFERENCE_PART_SECONDS`` — constants,
    so values stay comparable across commits and machines of the same
    class.

    Speed sampled only before and after a 1.5 s repetition explains
    nothing of its time (log-residual 9.9% against 9.9% raw); about 0.7 ms
    of the loop every 50 ms inside it explains most (residual 2.5-4.7%,
    slope 1.0), so :meth:`sampling` arms an interval timer whose handler
    runs one tick between two bytecodes of whatever the program is doing.
    Uniform in time is the right weighting: calibrated seconds are the
    integral of speed over the interval.  Tick time is kept out of every
    measurement by reading :meth:`Context.clock` instead of the wall
    clock.  The loop is benchmark code; no PR to ``src/`` can move it.
    """

    # Seconds one tick spends in each of its five parts on the reference
    # machine: this sandbox in a quiet spell, ticks interrupting the four
    # workloads (medians; cold caches cost the gemm and the gather ~40%).
    REFERENCE_PART_SECONDS = (215e-6, 100e-6, 110e-6, 70e-6, 165e-6)
    TICK_INTERVAL_S = 0.05

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self._a = rng.random((128, 128))
        self._b = rng.random((128, 128))
        self._small = rng.random(64)
        self._rows = rng.random((2048, 35))
        self._index = rng.integers(0, 2048, 2048)
        self._gathered = np.empty((2048, 35))
        self._recorder = None
        self.part_seconds = [0.0] * len(self.REFERENCE_PART_SECONDS)
        self.tick_seconds = 0.0
        self.tick_count = 0

    def tick(self, *_signal_arguments) -> None:
        """About 0.7 ms of what the program's time is made of, in five parts.

        gemm, interpreter loop, small-array numpy, object churn, streaming
        gather.  Under a memory- and compute-hungry neighbour the parts slow
        by different amounts (log-sd 0.15-0.28) and every workload follows
        its own blend of them; their equal-weight geometric mean tracked
        ``socket_fsm`` with slope 0.98 and ``design_small`` with 0.84, where
        the gemm alone gave 0.50 and 0.77.
        """
        recorder = self._recorder
        span_id = recorder.begin(CALIBRATION_SPAN) if recorder is not None else None
        clock = time.perf_counter
        marks = [clock()]
        self._a @ self._b
        self._a @ self._b
        marks.append(clock())
        total = 0
        for i in range(3000):
            total += i
        marks.append(clock())
        small = self._small
        for _ in range(30):
            np.tanh(small * 2.0 + 1.0).sum()
        marks.append(clock())
        pairs = [(i, str(i)) for i in range(300)]
        table = dict(pairs)
        for key in sorted(table, reverse=True):
            table[key]
        marks.append(clock())
        np.take(self._rows, self._index, axis=0, out=self._gathered)
        np.multiply(self._gathered, 1.01, out=self._gathered)
        marks.append(clock())
        for part in range(len(self.part_seconds)):
            self.part_seconds[part] += marks[part + 1] - marks[part]
        self.tick_seconds += marks[-1] - marks[0]
        self.tick_count += 1
        if span_id is not None:
            recorder.end(span_id)

    @contextmanager
    def sampling(self, recorder=None):
        """Tick every ``TICK_INTERVAL_S`` until the block ends; yields nothing."""
        self._recorder = recorder
        self.part_seconds = [0.0] * len(self.part_seconds)
        self.tick_seconds, self.tick_count = 0.0, 0
        previous = signal.signal(signal.SIGALRM, self.tick)
        signal.setitimer(signal.ITIMER_REAL, self.TICK_INTERVAL_S, self.TICK_INTERVAL_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)
            self._recorder = None
            if self.tick_count == 0:  # a block shorter than one interval
                self.tick()

    def speed(self) -> float:
        """Machine speed over the last sampled block; 1.0 is the reference machine.

        Measured seconds times this are calibrated seconds.
        """
        logs = [
            math.log(reference * self.tick_count / spent)
            for reference, spent in zip(self.REFERENCE_PART_SECONDS, self.part_seconds)
        ]
        return math.exp(sum(logs) / len(logs))


@dataclass
class Context:
    seed: int
    smoke: bool
    scratch_dir: str
    calibrator: Calibrator
    recorder: object = None  # SpanRecorder for the traced repetition

    def clock(self) -> float:
        """Wall seconds that stand still while a calibration tick runs."""
        return time.perf_counter() - self.calibrator.tick_seconds


# ----------------------------------------------------------------------
# Pass-through timing proxies (benchmark-owned)
# ----------------------------------------------------------------------
class TimedTransport:
    """Times every ``decide_wave`` of the wrapped transport; counts probes."""

    def __init__(self, inner, context: Context, span_name: str = WAVE_SPAN) -> None:
        self._inner = inner
        self._clock = context.clock
        self._recorder = context.recorder
        self._span_name = span_name
        self.name = inner.name
        self.first_wave_start: Optional[float] = None
        self.wave_seconds: List[float] = []
        self.probe_status: Counter = Counter()

    def __getattr__(self, attribute):
        return getattr(self._inner, attribute)

    async def decide_wave(self, slots, gens, raw, hist):
        recorder = self._recorder
        span_id = recorder.begin(self._span_name) if recorder is not None else None
        start = self._clock()
        if self.first_wave_start is None:
            self.first_wave_start = start
        try:
            return await self._inner.decide_wave(slots, gens, raw, hist)
        finally:
            self.wave_seconds.append(self._clock() - start)
            if span_id is not None:
                recorder.end(span_id)

    async def stale_probe(self, slot, gen, raw_row):
        status = await self._inner.stale_probe(slot, gen, raw_row)
        self.probe_status[status] += 1
        return status


class TimedBackend:
    """Records a span per backend ``decide``; can keep the actions it returned."""

    def __init__(self, inner, recorder=None, keep_actions: bool = False) -> None:
        self._inner = inner
        self._recorder = recorder
        self.name = inner.name
        self.actions: Optional[List[bytes]] = [] if keep_actions else None

    def __getattr__(self, attribute):
        return getattr(self._inner, attribute)

    def decide(self, table, slots, raw, normalized):
        recorder = self._recorder
        span_id = recorder.begin(BACKEND_SPAN) if recorder is not None else None
        try:
            actions = self._inner.decide(table, slots, raw, normalized)
        finally:
            if span_id is not None:
                recorder.end(span_id)
        if self.actions is not None:
            self.actions.append(np.asarray(actions, dtype=np.int64).tobytes())
        return actions


# ----------------------------------------------------------------------
# Repetition record
# ----------------------------------------------------------------------
@dataclass
class Repetition:
    setup_s: float
    window_s: float
    decisions: int
    waves_s: List[float]
    digest: str
    attempted: int = 0
    failed: int = 0
    checks: List[Tuple[str, bool, str]] = field(default_factory=list)
    info: Dict[str, object] = field(default_factory=dict)

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.checks.append((name, bool(ok), detail))
        self.attempted += 1
        self.failed += 0 if ok else 1


# ----------------------------------------------------------------------
# Fleet workloads (sim-to-serve)
# ----------------------------------------------------------------------
def three_phase_schedule(sessions: int, shards: int, steps: Tuple[int, int, int]) -> FleetSchedule:
    return FleetSchedule(
        sessions=sessions,
        shard_size=sessions // shards,
        trace_duration=24,
        trace_variants=2,
        phases=[
            LoadPhase(name="steady", steps=steps[0]),
            LoadPhase(
                name="churn_storm", steps=steps[1], churn_rate=0.01, stale_probes_per_step=4
            ),
            LoadPhase(
                name="flash_crowd",
                steps=steps[2],
                burst_multiplier=2,
                burst_tenant_fraction=0.2,
            ),
        ],
    )


def build_compiled_fsm(seed: int) -> CompiledFSMPolicy:
    """A realistically sized compiled FSM from a seeded extraction pass.

    Untrained GRU-64 -> QBN 12/16 -> extracted machine, the recipe of
    ``benchmarks/test_bench_net_serving._build_compiled`` with every rng
    derived from ``seed``.
    """
    system = StorageSystemConfig()
    generator = StandardWorkloadGenerator(system, GeneratorConfig(), rng=seed)
    suite = generator.generate_suite(duration=48)
    traces = RealTraceSampler(suite, rng=seed + 1).sample_many(3)
    policy = RecurrentPolicyValueNet(PolicyConfig(hidden_size=64), rng=seed + 5)
    collector = BatchedRolloutCollector(
        VectorStorageAllocationEnv(system, RewardConfig(mode="per_step_penalty")),
        rng=seed,
    )
    dataset = TransitionDataset.from_trajectories(
        collector.collect_batch(policy, traces, greedy=True)
    )
    observation_qbn = build_observation_qbn(35, latent_dim=12, rng=seed + 7)
    hidden_qbn = build_hidden_qbn(64, latent_dim=16, rng=seed + 8)
    extraction = FSMExtractor(
        observation_qbn, hidden_qbn, ExtractionConfig(min_state_visits=0)
    ).extract(dataset)
    return CompiledFSMPolicy.compile(
        extraction.fsm, observation_qbn, encoder=ObservationEncoder(system)
    )


@dataclass
class FleetRun:
    """One ``FleetDriver`` run through a timed transport, with what came back."""

    schedule: FleetSchedule
    server: PolicyServer
    transport: TimedTransport
    report: object
    drained: Dict[str, object]
    end: float


def serve_fleet(context: Context, schedule: FleetSchedule, backend, socket: bool = False) -> FleetRun:
    """Serve ``schedule`` from ``backend``: in-process, or over 2 unix-socket connections."""
    if context.recorder is not None:
        backend = TimedBackend(backend, context.recorder)
    server = PolicyServer(
        backend,
        ObservationEncoder(StorageSystemConfig()),
        initial_capacity=schedule.sessions,
        max_batch_size=4096,
    )
    if socket:
        report, transport, drained = asyncio.run(_socket_run(context, schedule, server))
    else:
        transport = TimedTransport(InProcessTransport(server), context)
        report = FleetDriver(schedule, transport, base_seed=context.seed).run()
        drained = {"pending": server.pending, "parked_replies": 0, "busy_rejections": 0}
    return FleetRun(schedule, server, transport, report, drained, context.clock())


async def _socket_run(context: Context, schedule: FleetSchedule, server: PolicyServer):
    netserver = PolicyNetServer(server, flush_interval=0.001, max_inflight=64)
    socket_path = os.path.join(context.scratch_dir, "fleet.sock")
    await netserver.start(unix_path=socket_path)
    clients = []
    try:
        for _ in range(2):
            clients.append(await PolicyClient.connect_unix(socket_path))
        transport = TimedTransport(
            SocketTransport(clients, per_connection_window=64), context, LOOP_OTHER_SPAN
        )
        report = await FleetDriver(schedule, transport, base_seed=context.seed).run_async()
    finally:
        for client in clients:
            await client.close()
        drained = await netserver.drain()
        if os.path.exists(socket_path):
            os.unlink(socket_path)
    return report, transport, drained


def account_fleet(run: FleetRun, repetition: "Repetition") -> int:
    """Add the run's operations, failures and checks to ``repetition``.

    Returns the decisions served (applied ones plus flash-crowd probes).
    """
    deterministic = run.report.deterministic_dict()
    decisions = deterministic["decisions_total"] + deterministic["probe_decisions_total"]
    probe_status = run.transport.probe_status
    probes = sum(probe_status.values())
    stats = run.server.stats()
    repetition.attempted += int(decisions + deterministic["churn_cycles_total"] + probes)
    repetition.failed += int(
        sum(int(phase["errors"]) for phase in deterministic["phases"])
        + int(run.drained["busy_rejections"])
        + int(stats.failed)
        + (probes - probe_status["stale"])
        + int(run.drained["pending"])
        + int(run.drained["parked_replies"])
    )
    repetition.check(
        "fleet held end to end",
        deterministic["occupancy_timeline"][-1] == run.schedule.sessions,
        f"occupancy {deterministic['occupancy_timeline'][-1]} of {run.schedule.sessions}",
    )
    repetition.check(
        "every stale probe rejected as stale",
        deterministic["stale_rejections_total"] == probes == probe_status["stale"],
        f"{dict(probe_status)} of {probes} probes",
    )
    repetition.info.update(
        batches=int(stats.batches),
        mean_batch_size=float(stats.mean_batch_size),
        stale_rejections=int(deterministic["stale_rejections_total"]),
        busy_rejections=int(run.drained["busy_rejections"]),
    )
    return int(decisions)


class FleetWorkload:
    """``FleetDriver`` over one broker, in-process or through the unix socket."""

    rng_family = "philox (fleet) + numpy default_rng (trace synthesis, artifact)"

    def __init__(
        self,
        name: str,
        backend: str,
        socket: bool,
        full: Tuple[int, int, Tuple[int, int, int]],
        smoke: Tuple[int, int, Tuple[int, int, int]],
    ) -> None:
        self.name = name
        self.backend_kind = backend
        self.socket = socket
        self._sizes = {False: full, True: smoke}
        self._reference_digest: Optional[str] = None

    def schedule(self, smoke: bool) -> FleetSchedule:
        return three_phase_schedule(*self._sizes[smoke])

    def schedule_digests(self, smoke: bool) -> Dict[str, str]:
        return {self.name: self.schedule(smoke).digest()}

    def _backend(self):
        if self.backend_kind == "fsm":
            return CompiledFSMBackend(build_compiled_fsm(ARTIFACT_SEED))
        return GRUPolicyBackend(
            RecurrentPolicyValueNet(PolicyConfig(hidden_size=128), rng=ARTIFACT_SEED)
        )

    def prepare(self, context: Context) -> None:
        """Once per process: the in-process twin run the socket digest must equal."""
        if self.socket:
            twin = serve_fleet(
                replace(context, recorder=None), self.schedule(context.smoke), self._backend()
            )
            self._reference_digest = twin.report.digest

    def repetition(self, context: Context) -> Repetition:
        start = context.clock()
        backend = self._backend()
        run = serve_fleet(context, self.schedule(context.smoke), backend, self.socket)
        first_wave = run.transport.first_wave_start
        repetition = Repetition(
            setup_s=first_wave - start,
            window_s=run.end - first_wave,
            decisions=0,
            waves_s=run.transport.wave_seconds,
            digest=str(run.report.digest),
        )
        repetition.decisions = account_fleet(run, repetition)
        if self._reference_digest is not None:
            repetition.check(
                "socket digest equals in-process digest",
                run.report.digest == self._reference_digest,
                f"{run.report.digest} vs {self._reference_digest}",
            )
        if self.backend_kind == "fsm":
            repetition.info.update(fsm_summary(backend.policy))
        return repetition


def fsm_summary(compiled: CompiledFSMPolicy) -> Dict[str, float]:
    summary = compiled.summary()
    return {
        "fsm_states": summary["states"],
        "fsm_observations": summary["observations"],
        "fsm_fallback_share": summary["fallbacks"] / max(summary["decisions"], 1),
    }


# ----------------------------------------------------------------------
# Design workload (train -> QBN -> extract -> evaluate -> deploy)
# ----------------------------------------------------------------------
class DesignWorkload:
    """Design to deploy: train -> QBN -> extract -> evaluate -> verify -> save/load -> serve."""

    name = "design_small"
    rng_family = (
        "numpy default_rng via RngFactory (pipeline), legacy per-slot seeds "
        "(evaluation), philox (deploy fleet)"
    )
    # (sessions, shards, steps per phase) of the deploy fleet, by smoke flag.
    DEPLOY_FLEET = {False: (1024, 2, (4, 4, 4)), True: (128, 2, (2, 2, 2))}

    def prepare(self, context: Context) -> None:
        pass

    def schedule_digests(self, smoke: bool) -> Dict[str, str]:
        return {"design_small.deploy": three_phase_schedule(*self.DEPLOY_FLEET[smoke]).digest()}

    def config(self, smoke: bool, seed: int):
        if smoke:
            config = small_pipeline_config(
                seed=seed,
                standard_epochs=1,
                real_epochs=1,
                hidden_size=48,
                trace_duration=8,
                num_real_traces=4,
                num_eval_traces=2,
            )
            config.bc_pretrain_epochs = 2
            config.qbn = replace(config.qbn, epochs=3)
            config.qbn_fine_tune_epochs = 2
            config.extraction = replace(config.extraction, min_state_visits=0)
            return config
        config = small_pipeline_config(
            seed=seed,
            standard_epochs=4,
            real_epochs=4,
            hidden_size=48,
            trace_duration=24,
            num_real_traces=12,
            num_eval_traces=6,
        )
        config.bc_pretrain_epochs = 8
        return config

    def repetition(self, context: Context) -> Repetition:
        start = context.clock()
        config = self.config(context.smoke, DESIGN_SEED)
        pipeline = LearningAidedPipeline(config)
        standard, real = pipeline.build_workloads()
        _standard, sampled = LearningAidedPipeline(
            self.config(context.smoke, context.seed)
        ).build_workloads()
        held_out = sampled[-config.num_eval_traces :]
        built = context.clock()

        result = pipeline.run(standard, real)
        evaluations = pipeline.evaluate(
            result, baselines=[DefaultPolicy(), HandcraftedFSMPolicy()], traces=held_out
        )
        fidelity = pipeline.verify_fidelity(result, traces=held_out)
        compiled = result.compiled_fsm_policy(pipeline.make_env())
        artifact_path = os.path.join(context.scratch_dir, "design_fsm.npz")
        compiled.save(artifact_path)
        loaded = CompiledFSMPolicy.load(artifact_path)
        os.unlink(artifact_path)
        # Deploy check, part 1: original and reloaded tables drive the held-out
        # nodes in lockstep and must decide identically, wave for wave.
        engine = EvaluationEngine(config.system, config.reward)
        original_backend = TimedBackend(CompiledFSMBackend(compiled), keep_actions=True)
        reloaded_backend = TimedBackend(CompiledFSMBackend(loaded), keep_actions=True)
        original_run = engine.evaluate(original_backend, held_out)
        reloaded_run = engine.evaluate(reloaded_backend, held_out)
        # Part 2: the reloaded artifact serves a small fleet through the broker,
        # which is where this workload's wave latencies come from (a bare
        # 6-row decide is 40 us and reads +-20% from run to run).
        fleet = serve_fleet(
            context, three_phase_schedule(*self.DEPLOY_FLEET[context.smoke]), CompiledFSMBackend(loaded)
        )

        default = evaluations["default"].mean_makespan()
        train_steps = int(
            sum(record.makespan for record in result.training_history.records)
            * config.a2c.episodes_per_epoch
        )
        digest = hashlib.sha256(
            json.dumps(
                {
                    "makespans": {name: run.makespans for name, run in evaluations.items()},
                    "rewards": {name: run.total_rewards for name, run in evaluations.items()},
                    "reloaded": reloaded_run.makespans,
                    "train_steps": train_steps,
                    "fleet": fleet.report.digest,
                },
                sort_keys=True,
            ).encode("utf-8")
        )
        for chunk in reloaded_backend.actions:
            digest.update(chunk)

        # Decisions a designer learns from, constant for the fixed corpus.
        # Held-out and fleet decisions follow the seed (+-20%) but cost little
        # of the wall; counting them would move the rate by what was asked,
        # not by how fast it was done.
        decisions = train_steps + len(result.transition_dataset.raw_observations)
        repetition = Repetition(
            setup_s=built - start,
            window_s=fleet.end - built,
            decisions=int(decisions),
            waves_s=fleet.transport.wave_seconds,
            digest=digest.hexdigest(),
            attempted=int(decisions),
        )
        account_fleet(fleet, repetition)
        repetition.check(
            "compiled tables identical to interpreted FSM",
            fidelity.identical is True,
            f"routable={fidelity.routable} identical={fidelity.identical}",
        )
        repetition.check(
            "save -> load decides identically on the held-out nodes",
            original_backend.actions == reloaded_backend.actions
            and original_run.makespans == reloaded_run.makespans,
            f"{len(reloaded_backend.actions)} waves",
        )
        # Strict "<=" holds at 77 of seeds 0-79 and misses by < 0.5% at the
        # rest (more on the tiny smoke set); the ratio itself is a layer metric.
        handcrafted = evaluations["handcrafted_fsm"].mean_makespan()
        repetition.check(
            "handcrafted mean makespan within 10% of default or better",
            handcrafted <= 1.10 * default,
            f"{handcrafted:.3f} vs {default:.3f}",
        )
        repetition.info.update(
            fsm_summary(loaded),
            design_wall_s=fleet.end - built,
            train_env_steps=train_steps,
            default_makespan=default,
            handcrafted_makespan=handcrafted,
            drl_makespan=evaluations["gru_drl"].mean_makespan(),
            fsm_makespan=evaluations["extracted_fsm"].mean_makespan(),
        )
        return repetition


WORKLOADS = {
    "design_small": DesignWorkload(),
    "fleet_fsm": FleetWorkload(
        "fleet_fsm", "fsm", socket=False, full=(8192, 2, (8, 8, 8)), smoke=(1024, 2, (2, 2, 2))
    ),
    "fleet_gru": FleetWorkload(
        "fleet_gru", "gru", socket=False, full=(4096, 4, (12, 12, 12)), smoke=(256, 4, (3, 3, 3))
    ),
    "socket_fsm": FleetWorkload(
        "socket_fsm", "fsm", socket=True, full=(512, 4, (9, 8, 8)), smoke=(64, 4, (3, 3, 3))
    ),
}
