"""Sharded experiment sweeps: grid expansion, multi-process execution, JSON results.

A :class:`SweepSpec` describes a family of seeded design runs as a base
parameter set plus a grid of variations; :class:`SweepRunner` expands the
grid into :class:`SweepJob` instances, executes them (optionally across
worker processes), captures failures without aborting the sweep, writes
one canonical JSON result per job plus an aggregate comparison table, and
fingerprints every job payload so reruns can be checked for determinism.

Every job is one run of the paper's design process — curriculum DRL,
QBN, FSM extraction, evaluation against the default, handcrafted and
greedy-utilisation baselines — on
:func:`~repro.pipeline.experiments.small_pipeline_config` at the job's
seed.  Every parameter is a ``PipelineConfig`` field path applied with
:func:`apply_overrides` (``curriculum.standard_epochs``,
``generator.target_load``, ``a2c.learning_rate``, ``num_real_traces``);
the seed comes from ``seeds`` only.

Determinism contract: a job's result payload depends only on its
``(name, params, seed)`` — wall-clock timings are kept out of the
per-job payloads (they live in the aggregate summary only), so running
the same spec twice, with any worker count, produces byte-identical
per-job JSON files.
"""

from __future__ import annotations

import itertools
import multiprocessing
import numbers
import re
import time
import traceback
from dataclasses import dataclass, field, fields, is_dataclass, replace
from pathlib import Path
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple, Union

from repro.errors import ConfigurationError, SerializationError
from repro.utils.serialization import atomic_write_text, json_digest, load_json, save_json
from repro.utils.tables import format_table

PathLike = Union[str, Path]


# ----------------------------------------------------------------------
# Config override plumbing
# ----------------------------------------------------------------------
def apply_overrides(config: Any, overrides: Mapping[str, Any]) -> Any:
    """Return a copy of a (possibly nested) dataclass with dotted overrides.

    ``{"a2c.learning_rate": 1e-3}`` rebuilds ``config.a2c`` with the new
    learning rate and returns a new top-level config; unknown fields
    raise :class:`ConfigurationError` instead of silently doing nothing.
    """
    for dotted in sorted(overrides):
        config = _replace_path(config, dotted.split("."), overrides[dotted], dotted)
    return config


def _replace_path(config: Any, path: List[str], value: Any, dotted: str) -> Any:
    if not is_dataclass(config):
        raise ConfigurationError(
            f"cannot apply override {dotted!r}: {type(config).__name__} is not a dataclass"
        )
    name = path[0]
    if name not in {f.name for f in fields(config)}:
        raise ConfigurationError(
            f"unknown field {name!r} in override {dotted!r} "
            f"(available: {sorted(f.name for f in fields(config))})"
        )
    if len(path) > 1:
        value = _replace_path(getattr(config, name), path[1:], value, dotted)
    return replace(config, **{name: value})


# ----------------------------------------------------------------------
# Spec and job model
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SweepSpec:
    """A declarative description of one experiment sweep.

    ``base`` holds parameters shared by every job; ``grid`` maps
    parameter names to lists of values whose cartesian product (crossed
    with ``seeds``) defines the jobs.  Every parameter name is a
    ``PipelineConfig`` field path (see :func:`apply_overrides`); the
    config's ``seed`` is set from ``seeds`` and may not be a parameter.
    """

    name: str
    base: Dict[str, Any] = field(default_factory=dict)
    grid: Dict[str, Sequence[Any]] = field(default_factory=dict)
    seeds: Sequence[int] = (0,)

    def validate(self) -> None:
        if not self.name:
            raise ConfigurationError("sweep name must be non-empty")
        for key in ("base", "grid"):
            value = getattr(self, key)
            if not isinstance(value, Mapping):
                raise ConfigurationError(
                    f"{key} must be a mapping, got {type(value).__name__}"
                )
        if "seed" in self.base or "seed" in self.grid:
            raise ConfigurationError(
                "'seed' is not a job parameter: list the seeds in 'seeds'"
            )
        if not isinstance(self.seeds, (list, tuple)):
            raise ConfigurationError(
                f"seeds must be a list, got {type(self.seeds).__name__}"
            )
        if not self.seeds:
            raise ConfigurationError("sweep needs at least one seed")
        for seed in self.seeds:
            # bool is an Integral too; nothing is truncated or coerced.
            if isinstance(seed, bool) or not isinstance(seed, numbers.Integral):
                raise ConfigurationError(
                    f"seeds must be integers, got {seed!r} ({type(seed).__name__})"
                )
        if len(set(self.seeds)) != len(self.seeds):
            raise ConfigurationError(f"seeds must be distinct, got {list(self.seeds)}")
        for key, values in self.grid.items():
            # A string typo like "0.9" must not explode into ['0', '.', '9'].
            if not isinstance(values, (list, tuple)):
                raise ConfigurationError(
                    f"grid values for {key!r} must be a list, got {type(values).__name__}"
                )
            if not values:
                raise ConfigurationError(f"grid axis {key!r} is empty")

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "base": dict(self.base),
            "grid": {key: list(values) for key, values in self.grid.items()},
            "seeds": list(self.seeds),
        }

    @staticmethod
    def from_dict(payload: Mapping[str, Any]) -> "SweepSpec":
        unknown = set(payload) - {"name", "base", "grid", "seeds"}
        if unknown:
            raise ConfigurationError(f"unknown sweep spec keys: {sorted(unknown)}")
        if "name" not in payload:
            raise ConfigurationError("sweep spec needs a 'name'")
        spec = SweepSpec(
            name=str(payload["name"]),
            base=payload.get("base", {}),
            grid=payload.get("grid", {}),
            seeds=payload.get("seeds", [0]),
        )
        spec.validate()
        return spec


@dataclass(frozen=True)
class SweepJob:
    """One fully-specified, seeded experiment of a sweep."""

    index: int
    name: str
    seed: int
    params: Dict[str, Any]

    def payload_id(self) -> Dict[str, Any]:
        return {"name": self.name, "seed": self.seed, "params": dict(self.params)}


def _slug(text: str) -> str:
    """A filesystem-safe job label.

    Keeps hyphens as-is: a leading ``-`` may be a legitimate minus sign
    of a negative grid value and must survive into the job name.
    """
    return re.sub(r"[^A-Za-z0-9_.=-]+", "-", str(text)) or "job"


def expand_jobs(spec: SweepSpec) -> List[SweepJob]:
    """Expand ``spec`` into its deterministic, ordered job list.

    Grid axes are iterated in sorted-name order, values in the order
    given, seeds last — so the job list (names, indices and parameters)
    is identical on every invocation and on every machine.
    """
    spec.validate()
    axes = sorted(spec.grid)
    combos = list(itertools.product(*(list(spec.grid[axis]) for axis in axes)))
    jobs: List[SweepJob] = []
    for combo in combos:
        overrides = dict(zip(axes, combo))
        for seed in spec.seeds:
            params = dict(spec.base)
            params.update(overrides)
            label_parts = [f"{axis}={_slug(value)}" for axis, value in zip(axes, combo)]
            label_parts.append(f"seed={seed}")
            jobs.append(
                SweepJob(
                    index=len(jobs),
                    name=f"{_slug(spec.name)}-{len(jobs):03d}-{'-'.join(label_parts)}",
                    seed=int(seed),
                    params=params,
                )
            )
    return jobs


# ----------------------------------------------------------------------
# Job execution (module-level so worker processes can pickle them)
# ----------------------------------------------------------------------
def _run_job(params: Mapping[str, Any], seed: int) -> Dict[str, Any]:
    """One design run: curriculum DRL, QBN, FSM extraction, evaluation.

    The config is :func:`~repro.pipeline.experiments.small_pipeline_config`
    at ``seed`` with ``params`` applied as :func:`apply_overrides` paths.
    The trained policy and the extracted FSM are evaluated beside the
    default, handcrafted and greedy-utilisation (BC teacher) baselines.
    """
    from repro.agents.default import DefaultPolicy
    from repro.agents.greedy import GreedyUtilizationPolicy
    from repro.agents.handcrafted import HandcraftedFSMPolicy
    from repro.pipeline.experiments import small_pipeline_config
    from repro.pipeline.learning_aided import LearningAidedPipeline

    pipeline = LearningAidedPipeline(
        apply_overrides(small_pipeline_config(seed=seed), params)
    )
    result = pipeline.run()
    # Engine-backed evaluation stage: the FSM runs on its compiled dense
    # tables, the policy as batched GRU forwards — same numbers as the
    # sequential harness, every agent in one lockstep batch.
    comparison = pipeline.evaluate(
        result,
        baselines=[DefaultPolicy(), HandcraftedFSMPolicy(), GreedyUtilizationPolicy()],
        episode_seed=seed,
    )
    fidelity = pipeline.verify_fidelity(result, episode_seed=seed)
    metrics: Dict[str, Any] = {
        "train_epochs": len(result.training_history),
        "train_final_makespan": float(result.training_history.makespans()[-1]),
        "fsm_states": result.extraction.fsm.num_states,
        "eval_traces": len(result.eval_traces),
        "fsm_compiled_identical": fidelity.identical,
    }
    for name, evaluation in comparison.items():
        metrics[f"{name}/mean_makespan"] = evaluation.mean_makespan()
    return metrics


_RESULT_KEYS = ("metrics", "status", "error", "traceback", "digest")


def load_resumed_record(job: SweepJob, output_dir: PathLike) -> Optional[Dict[str, Any]]:
    """A verified previous record for ``job``, or None to re-run it.

    A record is only reused when it parses, matches the job's identity
    (name/seed/params), finished with ``status == "ok"`` and
    carries a digest that matches its own payload — a corrupt, stale or
    failed file falls through to re-execution.
    """
    path = Path(output_dir) / "jobs" / f"{job.name}.json"
    if not path.exists():
        return None
    try:
        record = load_json(path)
    except (SerializationError, ValueError):
        # load_json wraps OSError/JSONDecodeError; bad bytes are a ValueError.
        return None
    if not isinstance(record, dict) or record.get("status") != "ok":
        return None
    # The identity is every key but the result ones, so a record that
    # carries a key this job does not (an old ``kind``) re-runs.
    identity = {k: v for k, v in record.items() if k not in _RESULT_KEYS}
    if "digest" not in record or json_digest(identity) != json_digest(job.payload_id()):
        return None
    expected = json_digest(
        {k: v for k, v in record.items() if k not in ("digest", "traceback")}
    )
    if record["digest"] != expected:
        return None
    return record


def _execute_or_resume(
    task: Tuple[SweepJob, Optional[str], bool]
) -> Tuple[Dict[str, Any], bool]:
    """Worker entry point: verify-and-reuse lazily, else execute.

    Digest verification happens here — inside the worker, per job — so
    resuming a large mostly-complete sweep costs each worker only its
    own share of reads instead of one serial verification pass in the
    parent before any job can start.
    """
    job, output_dir, resume = task
    if resume and output_dir is not None:
        record = load_resumed_record(job, output_dir)
        if record is not None:
            return record, True
    return execute_job(job), False


def execute_job(job: SweepJob) -> Dict[str, Any]:
    """Run one job and return its canonical (deterministic) result record.

    Failures are captured, not raised: a failed job yields a record with
    ``status="failed"`` and a concise error string so one bad grid point
    cannot abort a multi-hour sweep.  The record deliberately excludes
    wall-clock timings — its :func:`~repro.utils.serialization.json_digest`
    depends only on the job identity and its metrics.
    """
    record = job.payload_id()
    try:
        record["metrics"] = _run_job(job.params, job.seed)
        record["status"] = "ok"
    except Exception as exc:
        record["status"] = "failed"
        record["error"] = f"{type(exc).__name__}: {exc}"
        record["traceback"] = traceback.format_exc()
    record["digest"] = json_digest(
        {k: v for k, v in record.items() if k != "traceback"}
    )
    return record


# ----------------------------------------------------------------------
# Runner
# ----------------------------------------------------------------------
@dataclass
class SweepResult:
    """All job records of one sweep run plus aggregate bookkeeping."""

    spec: SweepSpec
    records: List[Dict[str, Any]]
    wall_time_s: float = 0.0
    num_resumed: int = 0

    @property
    def num_jobs(self) -> int:
        return len(self.records)

    @property
    def failures(self) -> List[Dict[str, Any]]:
        return [r for r in self.records if r["status"] != "ok"]

    def metrics_columns(self) -> List[str]:
        columns: List[str] = []
        for record in self.records:
            for key in record.get("metrics", {}):
                if key not in columns:
                    columns.append(key)
        return columns

    def table(self) -> str:
        """Aggregate comparison table: one row per job, one column per metric."""
        columns = self.metrics_columns()
        headers = ["job", "seed", "status"] + columns
        rows = []
        for record in self.records:
            metrics = record.get("metrics", {})
            row: List[object] = [record["name"], record["seed"], record["status"]]
            row.extend(
                metrics[key] if key in metrics else "-" for key in columns
            )
            rows.append(row)
        return format_table(headers, rows, title=f"Sweep {self.spec.name}")

    def summary(self) -> Dict[str, Any]:
        return {
            "spec": self.spec.to_dict(),
            "num_jobs": self.num_jobs,
            "num_failed": len(self.failures),
            "digests": {r["name"]: r["digest"] for r in self.records},
        }


class SweepRunner:
    """Expands a :class:`SweepSpec` and executes its jobs, optionally in parallel.

    This is the repo's one parallel execution mode: ``num_workers > 1``
    runs each job in a process of a pool built from the platform's
    default start method, and a job itself (A2C rollouts included) runs
    single-process.

    ``output_dir`` (optional) receives ``jobs/<job name>.json`` — the
    canonical per-job records, byte-identical across reruns — plus
    ``sweep.json`` (aggregate summary incl. per-job digests and the one
    place wall-clock timing is recorded) and ``summary.txt`` (the
    rendered comparison table).  All output files are written atomically
    (temp file + rename), so a killed run never leaves truncated JSON
    that a later rerun would misread.

    With ``resume=True``, jobs whose per-job JSON already exists in the
    output dir with a verified sha256 digest (and ``status == "ok"``)
    are loaded instead of re-executed — deleting one job file and
    rerunning recomputes exactly that job, byte-identically, because a
    job's payload depends only on its ``(name, params, seed)``.
    Verification is lazy, per job, *inside* the workers (see
    :func:`_execute_or_resume`): resuming a large mostly-complete sweep
    starts dispatching immediately instead of first re-verifying every
    digest serially in the parent.

    The ``progress`` callback fires once per job in dispatch order as
    ``progress(done, total, record)`` with ``total`` the full job count;
    resumed jobs are included and are marked with a ``"resumed": True``
    key on the (copied) record passed to the callback.
    """

    def __init__(
        self,
        spec: SweepSpec,
        output_dir: Optional[PathLike] = None,
        num_workers: int = 1,
        progress: Optional[Callable[[int, int, Dict[str, Any]], None]] = None,
        resume: bool = False,
    ) -> None:
        if num_workers <= 0:
            raise ConfigurationError(f"num_workers must be positive, got {num_workers}")
        if resume and output_dir is None:
            raise ConfigurationError("resume=True requires an output_dir")
        spec.validate()
        self.spec = spec
        self.output_dir = Path(output_dir) if output_dir is not None else None
        self.num_workers = int(num_workers)
        self.progress = progress
        self.resume = bool(resume)

    def expand(self) -> List[SweepJob]:
        return expand_jobs(self.spec)

    def run(self) -> SweepResult:
        jobs = self.expand()
        start = time.perf_counter()
        output_dir = None if self.output_dir is None else str(self.output_dir)
        tasks = [(job, output_dir, self.resume) for job in jobs]
        if self.num_workers == 1 or len(jobs) <= 1:
            records, num_resumed = self._consume(map(_execute_or_resume, tasks), len(jobs))
        else:
            with multiprocessing.Pool(processes=min(self.num_workers, len(jobs))) as pool:
                # imap preserves job order while letting workers overlap.
                records, num_resumed = self._consume(
                    pool.imap(_execute_or_resume, tasks), len(jobs)
                )
        result = SweepResult(
            spec=self.spec, records=records,
            wall_time_s=time.perf_counter() - start,
            num_resumed=num_resumed,
        )
        if self.output_dir is not None:
            self._write_outputs(result)
        return result

    def _consume(
        self, outcomes, total: int
    ) -> Tuple[List[Dict[str, Any]], int]:
        """Drain ``(record, resumed)`` outcomes, reporting progress."""
        records: List[Dict[str, Any]] = []
        num_resumed = 0
        for done, (record, resumed) in enumerate(outcomes, start=1):
            records.append(record)
            num_resumed += resumed
            if self.progress is not None:
                shown = dict(record, resumed=True) if resumed else record
                self.progress(done, total, shown)
        return records, num_resumed

    def _write_outputs(self, result: SweepResult) -> None:
        jobs_dir = self.output_dir / "jobs"
        jobs_dir.mkdir(parents=True, exist_ok=True)
        for record in result.records:
            save_json(jobs_dir / f"{record['name']}.json", record)
        summary = result.summary()
        summary["wall_time_s"] = result.wall_time_s
        summary["num_resumed"] = result.num_resumed
        save_json(self.output_dir / "sweep.json", summary)
        atomic_write_text(self.output_dir / "summary.txt", result.table() + "\n")
