"""The ledger benchmark runner.

    python3 benchmarks/ledger/run.py [--workload NAME] [--seed 42]
        [--seconds N] [--trace [0|1]] [--smoke] [--out DIR]

With ``--workload`` the workload runs in this process (the driver's
contract: the last stdout line is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``).  Without it, every workload
runs in a fresh subprocess of its own — so ``peak_rss_mb`` is that
workload's high-water mark — and the merged results are written to
``<out>/ledger.json`` for ``compare.py``.  Exit status is non-zero on
any failed check.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

# One core per process, pinned before numpy is imported anywhere.
THREAD_PINS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _pin in THREAD_PINS:
    os.environ[_pin] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOAD_NAMES = [entry["name"] for entry in SPEC["workloads"]]
END_TO_END = {entry["name"]: entry["unit"] for entry in SPEC["end_to_end"]}
PER_LAYER = {entry["name"]: entry["unit"] for entry in SPEC["per_layer"]}
SCHEMA = "ledger/1"
MIN_REPETITIONS, MAX_REPETITIONS = 3, 30
IMPORT_PROBES = 2  # fresh interpreters, beside this process's own import
ROOT_SPAN = "bench.rep"


def quartiles(values):
    """(q1, median, q3) the way the driver computes them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4))


def percentile(values, share):
    ordered = sorted(values)
    position = share * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def entry(value, unit, samples=None):
    """One metric: its value and, when it is a median, what it is a median of."""
    record = {"value": float(value), "unit": unit}
    if samples:
        q1, _median, q3 = quartiles(list(samples))
        record.update(q1=q1, q3=q3, n=len(samples), samples=[float(v) for v in samples])
    return record


def probe_import_seconds(count):
    """Import time of the program in ``count`` fresh interpreters."""
    code = (
        "import sys, time; start = time.perf_counter(); "
        f"sys.path[:0] = [{str(SRC)!r}, {str(HERE)!r}]; "
        "import ledger_workloads; print(time.perf_counter() - start)"
    )
    seconds = []
    for _ in range(count):
        done = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True
        )
        seconds.append(float(done.stdout.strip().splitlines()[-1]))
    return seconds


# ----------------------------------------------------------------------
# One workload, in this process
# ----------------------------------------------------------------------
class Session:
    """Everything one ``--workload`` invocation needs, after the imports."""

    def __init__(self, args, scratch_dir):
        started = time.perf_counter()
        sys.path[:0] = [str(SRC), str(HERE)]
        import ledger_workloads

        self.import_seconds = [time.perf_counter() - started]
        import ledger_trace

        self.trace = ledger_trace
        self.lib = ledger_workloads
        self.args = args
        self.workload = ledger_workloads.WORKLOADS[args.workload]
        self.scratch_dir = scratch_dir
        self.calibrator = ledger_workloads.Calibrator()
        self.speeds = []

    def context(self, recorder=None):
        return self.lib.Context(
            seed=self.args.seed,
            smoke=self.args.smoke,
            scratch_dir=self.scratch_dir,
            calibrator=self.calibrator,
            recorder=recorder,
        )

    def timed_repetition(self, recorder=None):
        """One repetition under the sampling calibrator.

        Returns ``(repetition, speed)``; measured seconds times the speed
        are calibrated seconds (see ``Calibrator``).
        """
        with self.calibrator.sampling(recorder):
            root = recorder.begin(ROOT_SPAN) if recorder is not None else None
            repetition = self.workload.repetition(self.context(recorder))
            if root is not None:
                recorder.end(root)
        self.speeds.append(self.calibrator.speed())
        return repetition, self.speeds[-1]

    def warm_up(self):
        """One untimed repetition at full size, so the timed ones reuse its pages."""
        self.workload.prepare(self.context())
        if not self.args.smoke:
            self.workload.repetition(self.context())

    # ------------------------------------------------------------------
    def run_untraced(self):
        args = self.args
        import_seconds = self.import_seconds + probe_import_seconds(
            0 if args.smoke else IMPORT_PROBES
        )
        self.warm_up()

        # A repetition is a fixed amount of work; the measuring time only
        # decides how many of them are taken.
        minimum, budget = (2, 0.0) if args.smoke else (MIN_REPETITIONS, args.seconds)
        repetitions, speeds, spent = [], [], 0.0
        while len(repetitions) < MAX_REPETITIONS:
            started = time.perf_counter()
            repetition, speed = self.timed_repetition()
            last = time.perf_counter() - started
            spent += last
            repetitions.append(repetition)
            speeds.append(speed)
            if len(repetitions) >= minimum and spent + last > budget:
                break

        # The probes ran in other processes; this run's typical speed calibrates them.
        import_s = statistics.median(import_seconds) * statistics.median(speeds)
        setups = [r.setup_s * s for r, s in zip(repetitions, speeds)]
        rates = [r.decisions / (r.window_s * s) for r, s in zip(repetitions, speeds)]
        waves = [[w * s * 1e3 for w in r.waves_s] for r, s in zip(repetitions, speeds)]
        pooled = [wave for rep_waves in waves for wave in rep_waves]
        metrics = {
            "setup_s": entry(import_s + statistics.median(setups), "s", setups),
            "decisions_per_s": entry(statistics.median(rates), "1/s", rates),
            "peak_rss_mb": entry(
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"
            ),
        }
        for name, share in (("wave_p50_ms", 0.50), ("wave_p90_ms", 0.90)):
            metrics[name] = entry(
                percentile(pooled, share), "ms", [percentile(w, share) for w in waves]
            )
        notes = {
            "import_s": import_s,
            "wave_samples": len(pooled),
            "wave_p95_ms": percentile(pooled, 0.95),
            "raw_decisions_per_s": statistics.median(
                r.decisions / r.window_s for r in repetitions
            ),
            "decisions_per_repetition": repetitions[0].decisions,
            "repetition_table": [
                {"setup_s": r.setup_s, "window_s": r.window_s, "speed": s}
                for r, s in zip(repetitions, speeds)
            ],
            "info": repetitions[-1].info,
        }
        return self.result(
            {name: metrics[name] for name in END_TO_END},
            repetitions,
            "every repetition produced the same digest",
            notes,
        )

    # ------------------------------------------------------------------
    def run_traced(self):
        """One untraced, one traced and one telemetry-off repetition."""
        from repro import telemetry

        self.warm_up()
        plain, plain_speed = self.timed_repetition()
        recorder = self.trace.SpanRecorder()
        with self.trace.Patches(recorder) as patches:
            traced, speed = self.timed_repetition(recorder)
        telemetry.configure(enabled=False)
        try:
            quiet, quiet_speed = self.timed_repetition()
        finally:
            telemetry.configure(enabled=True)

        def rate(repetition, scale):
            return repetition.decisions / (repetition.window_s * scale)

        table = recorder.layer_table()
        layer = layer_metrics(self.lib, recorder, table, traced.info, speed)
        layer["trace.overhead_share"] = 1.0 - rate(traced, speed) / rate(plain, plain_speed)
        layer["telemetry.overhead_share"] = 1.0 - rate(plain, plain_speed) / rate(
            quiet, quiet_speed
        )
        layer["calibration.speed"] = statistics.mean(self.speeds)
        layer["raw.decisions_per_s"] = plain.decisions / plain.window_s
        layer["loadgen.wave_p95_ms"] = percentile(plain.waves_s, 0.95) * plain_speed * 1e3
        if "design_wall_s" in plain.info:
            layer["pipeline.design_wall_s"] = plain.info["design_wall_s"] * plain_speed
        repetitions = [plain, traced, quiet]
        layer["checks.failed_fraction"] = sum(r.failed for r in repetitions) / sum(
            r.attempted for r in repetitions
        )
        unlisted = sorted(set(layer) - set(PER_LAYER))
        if unlisted:
            raise SystemExit(f"ledger: layer metrics missing from BENCHMARK.json: {unlisted}")

        recorder.write_jsonl(Path(self.args.out) / f"{self.args.workload}.spans.jsonl")
        notes = {
            "layer_table": {
                name: {**row, "self_s": row["self_s"] * speed, "total_s": row["total_s"] * speed}
                for name, row in sorted(table.items())
            },
            "not_active_on_this_workload": sorted(set(PER_LAYER) - set(layer)),
            "patch_targets_skipped": patches.skipped,
            "layers_dropped": patches.missing,
            "spans": len(recorder.spans),
        }
        metrics = {name: entry(layer.get(name, 0.0), unit) for name, unit in PER_LAYER.items()}
        return self.result(
            metrics, repetitions, "traced, untraced and telemetry-off repetitions agree", notes
        )

    # ------------------------------------------------------------------
    def result(self, metrics, repetitions, digest_check, notes):
        digests = sorted({r.digest for r in repetitions})
        checks = [
            {"repetition": index, "name": name, "ok": ok, "detail": detail}
            for index, repetition in enumerate(repetitions)
            for name, ok, detail in repetition.checks
        ]
        checks.append(
            {
                "repetition": None,
                "name": digest_check,
                "ok": len(digests) == 1,
                "detail": f"{len(repetitions)} repetitions, digests {digests}",
            }
        )
        failed = sum(r.failed for r in repetitions) + (len(digests) != 1)
        return {
            "schema": SCHEMA,
            "workload": self.args.workload,
            "traced": bool(self.args.trace),
            "smoke": bool(self.args.smoke),
            "stamp": self.stamp(),
            "correct": failed == 0,
            "attempted": sum(r.attempted for r in repetitions) + 1,
            "failed": failed,
            "repetitions": len(repetitions),
            "metrics": metrics,
            "digests": digests,
            "checks": checks,
            "notes": notes,
        }

    def stamp(self):
        import numpy
        from repro.drl.policy import PolicyConfig

        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
            ).stdout.strip() or None
        except OSError:
            commit = None
        return {
            "git_commit": commit,
            "seed": self.args.seed,
            "smoke": bool(self.args.smoke),
            "seconds": self.args.seconds,
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "thread_pins": {pin: os.environ[pin] for pin in THREAD_PINS},
            "kernel": PolicyConfig().kernel,
            "rng_family": self.workload.rng_family,
            "schedule_digests": self.workload.schedule_digests(bool(self.args.smoke)),
            "calibration_reference": list(self.calibrator.REFERENCE_PART_SECONDS),
        }


def layer_metrics(lib, recorder, table, info, speed):
    """Per-layer metrics of the traced repetition, in calibrated seconds.

    ``<layer>_s`` is the summed self time of the layer's spans.  Only the
    layers that ran appear; the caller reports the rest as 0.
    """
    layer = {
        f"{name}_s": row["self_s"] * speed
        for name, row in table.items()
        if not name.startswith("bench.")
    }
    # The in-process transport's own glue around submit_many + flush is loadgen code.
    layer["loadgen.self_s"] = layer.get("loadgen.self_s", 0.0) + layer.pop("loadgen.wave_s", 0.0)
    for metric, name in (
        ("env.step_calls", "env.step"),
        ("env.resets", "env.reset"),
        ("netserver.requests", "netserver.request"),
    ):
        if name in table:
            layer[metric] = table[name]["calls"]

    spans = recorder.closed_spans()
    wave_starts = [s[2] for s in spans if s[1] in (lib.WAVE_SPAN, lib.LOOP_OTHER_SPAN)]
    # FleetDriver.__init__ shares the span name; run_async is the one with waves under it.
    run_ids = {s[4] for s in spans if s[1] in (lib.WAVE_SPAN, lib.LOOP_OTHER_SPAN)}
    run_starts = [s[2] for s in spans if s[0] in run_ids]
    if wave_starts and run_starts:
        layer["loadgen.fleet_setup_s"] = (min(wave_starts) - min(run_starts)) * speed
    requests = recorder.durations("netserver.request")
    if requests:
        del layer["netserver.request_s"]  # overlapping awaits: latency samples, not a busy time
        layer["netserver.request_p50_ms"] = percentile(requests, 0.50) * speed * 1e3
        layer["netserver.request_p95_ms"] = percentile(requests, 0.95) * speed * 1e3

    for metric, key in (
        ("serving.batches", "batches"),
        ("serving.mean_batch_size", "mean_batch_size"),
        ("serving.stale_rejections", "stale_rejections"),
        ("serving.busy_rejections", "busy_rejections"),
        ("engine.fsm_fallback_share", "fsm_fallback_share"),
        ("fsm.states", "fsm_states"),
        ("fsm.observations", "fsm_observations"),
        ("drl.train_env_steps", "train_env_steps"),
    ):
        if key in info:
            layer[metric] = info[key]
    if "train_env_steps" in info:
        update_seconds = table.get("drl.a2c_update", {}).get("total_s", 0.0) * speed
        if update_seconds > 0:
            layer["drl.train_env_steps_per_s"] = info["train_env_steps"] / update_seconds
        default = info["default_makespan"]
        layer["pipeline.fsm_makespan_ratio"] = info["fsm_makespan"] / default
        layer["pipeline.drl_makespan_ratio"] = info["drl_makespan"] / default
        layer["pipeline.handcrafted_makespan_ratio"] = info["handcrafted_makespan"] / default
        layer["pipeline.fsm_drl_makespan_gap"] = (
            info["fsm_makespan"] - info["drl_makespan"]
        ) / default

    # Wall not inside any named synchronous call: the repetition's own glue
    # and, on the socket, the waves' event-loop time (stream I/O, flush-timer
    # wait, task scheduling) — named, but a remainder rather than a layer.
    root = table[ROOT_SPAN]
    wall = root["total_s"] - table.get(lib.CALIBRATION_SPAN, {}).get("total_s", 0.0)
    unattributed = root["self_s"] + table.get(lib.LOOP_OTHER_SPAN, {}).get("self_s", 0.0)
    layer["trace.unattributed_share"] = unattributed / wall
    return layer


def print_result(result):
    label = "SMOKE (not comparable with a full run) " if result["smoke"] else ""
    kind = "per-layer, traced" if result["traced"] else "end-to-end, untraced"
    print(
        f"== {label}{result['workload']} · {kind} · seed {result['stamp']['seed']} "
        f"· {result['repetitions']} repetitions"
    )
    notes = result["notes"]
    inactive = set(notes.get("not_active_on_this_workload", []))
    for name, metric in result["metrics"].items():
        if name in inactive:
            continue
        line = f"  {name:36s} {metric['value']:>16.6g} {metric['unit']}"
        if "q1" in metric:
            line += f"   [q1 {metric['q1']:.6g}  q3 {metric['q3']:.6g}  n {metric['n']}]"
        print(line)
    if "wave_samples" in notes:
        print(
            f"  waves pooled: {notes['wave_samples']} "
            f"({notes['wave_samples'] - int(0.9 * notes['wave_samples'])} beyond p90); "
            f"decisions per repetition: {notes['decisions_per_repetition']}; "
            f"uncalibrated decisions/s: {notes['raw_decisions_per_s']:.6g}"
        )
    if inactive:
        print(f"  no span on this workload (reported as 0): {' '.join(sorted(inactive))}")
    for digest in result["digests"]:
        print(f"  digest {digest}")
    for check in result["checks"]:
        if not check["ok"]:
            print(f"  FAILED {check['name']} (rep {check['repetition']}): {check['detail']}")
    print(f"  attempted {result['attempted']}  failed {result['failed']}")


def contract_line(result):
    """The driver's last line: exactly ``correct``, ``attempted``, ``failed``, ``metrics``."""
    return json.dumps(
        {
            "correct": result["correct"],
            "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {
                name: {"value": metric["value"], "unit": metric["unit"]}
                for name, metric in result["metrics"].items()
            },
        }
    )


def run_workload(args):
    own_out = args.out is None
    if own_out:
        # Inside the checkout (the driver's sandbox), never under this directory.
        Path(".ledger_out").mkdir(exist_ok=True)
        args.out = tempfile.mkdtemp(prefix="run-", dir=".ledger_out")
    Path(args.out).mkdir(parents=True, exist_ok=True)
    # This process's own corner (socket, artifact file).  Unix socket paths
    # are short: prefer the shorter spelling of the directory.
    scratch = tempfile.mkdtemp(prefix="s-", dir=args.out)
    scratch = min(os.path.relpath(scratch), os.path.abspath(scratch), key=len)
    try:
        session = Session(args, scratch)
        result = session.run_traced() if args.trace else session.run_untraced()
        name = f"{args.workload}.trace.json" if args.trace else f"{args.workload}.json"
        (Path(args.out) / name).write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    finally:
        shutil.rmtree(args.out if own_out else scratch, ignore_errors=True)
    print_result(result)
    print(contract_line(result))
    return 0 if result["correct"] else 1


# ----------------------------------------------------------------------
# Every workload, each in a fresh subprocess
# ----------------------------------------------------------------------
def run_all(args):
    out = Path(args.out) if args.out else Path(tempfile.mkdtemp(prefix="ledger-"))
    out.mkdir(parents=True, exist_ok=True)
    ledger = {"schema": SCHEMA, "smoke": bool(args.smoke), "workloads": {}, "traces": {}}
    status = 0
    def collect(name, trace, child):
        stdout, stderr = child.communicate()
        sys.stderr.write(stderr)
        lines = stdout.splitlines()
        print("\n".join(lines[:-1]))
        produced = out / (f"{name}.trace.json" if trace else f"{name}.json")
        if child.returncode != 0 or not produced.exists():
            return 1
        result = json.loads(produced.read_text(encoding="utf-8"))
        ledger["traces" if trace else "workloads"][name] = result
        ledger["stamp"] = {
            key: value
            for key, value in result["stamp"].items()
            if key not in ("rng_family", "schedule_digests")
        }
        if lines[-1] != contract_line(result):
            print(f"ledger: {name}: last line is not the contract's JSON object")
            return 1
        return 0

    for name in WORKLOAD_NAMES:
        children = []
        for trace in (0, 1) if args.trace else (0,):
            command = [
                sys.executable, str(HERE / "run.py"),
                "--workload", name,
                "--seed", str(args.seed),
                "--seconds", str(args.seconds),
                "--trace", str(trace),
                "--out", str(out),
            ] + (["--smoke"] if args.smoke else [])
            child = subprocess.Popen(
                command, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True
            )
            if args.smoke:  # smoke sizes measure nothing: let the pair overlap
                children.append((trace, child))
            else:
                status |= collect(name, trace, child)
        for trace, child in children:
            status |= collect(name, trace, child)
    (out / "ledger.json").write_text(json.dumps(ledger, indent=1) + "\n", encoding="utf-8")
    print(f"ledger written to {out / 'ledger.json'}")
    return status


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=float(SPEC["run_seconds"]))
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1))
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--out")
    args = parser.parse_args(argv)
    return run_workload(args) if args.workload else run_all(args)


if __name__ == "__main__":
    sys.exit(main())
