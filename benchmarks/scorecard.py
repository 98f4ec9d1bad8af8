"""The reproduction scorecard: the paper's claims as seeded sweep jobs with verdicts.

``benchmarks/scorecard.json`` holds four :class:`~repro.pipeline.sweep.SweepSpec`
payloads (the design recipe at ``design_small`` scale and the paper's
recipe at the paper's scale, each with and without the curriculum's
standard-trace phase, on shared seeds) and the claim rows.  Run with::

    python benchmarks/scorecard.py

It resumes the committed job records under ``benchmarks/results/scorecard/``
(one directory per sweep), runs only the jobs that have none, and renders
``EXPERIMENTS.md`` at the repository root.  A claim row compares two
metrics seed by seed; it holds at a seed when the ratio is below its
bound (a tie counts against the claim).  The verdict is **holds** at
``HOLDS_SHARE`` of the seeds or more, **does not hold** at
``FAILS_SHARE`` or fewer, and **unresolved at this scale** in between.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path
from typing import Any, Dict, List, Mapping, Sequence, Tuple

if __name__ == "__main__":
    # One BLAS thread per job process, set before numpy is imported anywhere.
    for _pin in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(_pin, "1")

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from repro.pipeline.sweep import (  # noqa: E402
    SweepRunner, SweepSpec, expand_jobs, load_resumed_record,
)
from repro.utils.serialization import atomic_write_text, load_json  # noqa: E402

SPEC_PATH = HERE / "scorecard.json"
RESULTS_DIR = HERE / "results" / "scorecard"
EXPERIMENTS_PATH = ROOT / "EXPERIMENTS.md"
WORKERS = 2

HOLDS_SHARE = 0.75
FAILS_SHARE = 0.25
HOLDS = "holds"
FAILS = "does not hold"
UNRESOLVED = "unresolved at this scale"

# Rendered under the claims when the spec has this scale.  Its training is
# chaotic: the verdicts there are k-of-n counts that rounding alone moves.
PAPER_SCALE = "paper"
PAPER_CAVEAT = (
    "At the `paper` scale training is chaotic.  Rounding alone moved its",
    "k-of-n counts: re-running the same jobs after each sequence weight",
    "gradient became one gemm over every step (a change within rounding)",
    "took \"GRU < default\" from 1/8 to 4/8.  A verdict flip at this scale is",
    "therefore not evidence that a change mattered.",
)

# Per-seed table columns: (header, metric); makespans are shown relative
# to the default's, every other metric as recorded.
AGENTS = (
    ("handcrafted", "handcrafted_fsm/mean_makespan"),
    ("greedy", "greedy_utilization/mean_makespan"),
    ("GRU", "gru_drl/mean_makespan"),
    ("FSM", "extracted_fsm/mean_makespan"),
)
DEFAULT = "default/mean_makespan"
PROFILE = (
    ("states", "fsm_states"),
    ("coverage", "fsm_coverage"),
    ("codes", "fsm_observations"),
    ("fallback", "fsm_fallback_share"),
    ("agreement", "teacher_agreement"),
)


class ScorecardError(RuntimeError):
    """The job records cannot back a verdict (failed, missing or unpaired)."""


def load_spec(path: Path = SPEC_PATH) -> Dict[str, Any]:
    return load_json(path)


def sweep_specs(spec: Mapping[str, Any]) -> List[SweepSpec]:
    return [SweepSpec.from_dict(payload) for payload in spec["sweeps"]]


def collect(
    spec: Mapping[str, Any], results_dir: Path = RESULTS_DIR, workers: int = WORKERS,
    progress=None,
) -> Dict[str, List[Dict[str, Any]]]:
    """Every sweep's job records, resumed from ``results_dir`` where verified."""
    records = {}
    for sweep in sweep_specs(spec):
        runner = SweepRunner(
            sweep, output_dir=results_dir / sweep.name, num_workers=workers,
            progress=progress, resume=True,
        )
        records[sweep.name] = runner.run().records
    return records


def committed(
    spec: Mapping[str, Any], results_dir: Path = RESULTS_DIR
) -> Dict[str, List[Dict[str, Any]]]:
    """Every sweep's verified records in ``results_dir``; runs and writes nothing."""
    records = {}
    for sweep in sweep_specs(spec):
        found = (load_resumed_record(job, results_dir / sweep.name) for job in expand_jobs(sweep))
        records[sweep.name] = [record for record in found if record is not None]
    return records


# ----------------------------------------------------------------------
# Verdicts
# ----------------------------------------------------------------------
def verdict(holds_at: int, seeds: int) -> str:
    share = holds_at / seeds
    if share >= HOLDS_SHARE:
        return HOLDS
    if share <= FAILS_SHARE:
        return FAILS
    return UNRESOLVED


def _by_seed(
    spec: Mapping[str, Any], records: Mapping[str, Sequence[Mapping[str, Any]]], sweep: str
) -> Dict[int, Mapping[str, Any]]:
    """``sweep``'s metrics keyed by seed; raises unless every seed finished ok."""
    seeds = next(s.seeds for s in sweep_specs(spec) if s.name == sweep)
    found = {}
    for record in records.get(sweep, ()):
        if record.get("status") != "ok":
            raise ScorecardError(
                f"job {record.get('name')} failed: {record.get('error', record.get('status'))}"
            )
        found[record["seed"]] = record["metrics"]
    missing = sorted(set(seeds) - set(found))
    if missing:
        raise ScorecardError(f"sweep {sweep} has no record for seed(s) {missing}")
    return {seed: found[seed] for seed in seeds}


def ratios(
    spec: Mapping[str, Any],
    records: Mapping[str, Sequence[Mapping[str, Any]]],
    scale: str,
    ratio: Sequence[Sequence[str]],
) -> Dict[int, float]:
    """Per-seed ``numerator / denominator`` of one claim at one scale."""
    (top_role, top_metric), (bottom_role, bottom_metric) = ratio
    sweeps = spec["scales"][scale]
    top = _by_seed(spec, records, sweeps[top_role])
    bottom = _by_seed(spec, records, sweeps[bottom_role])
    if list(top) != list(bottom):
        raise ScorecardError(
            f"{sweeps[top_role]} and {sweeps[bottom_role]} are paired but ran seeds "
            f"{list(top)} and {list(bottom)}"
        )
    return {seed: top[seed][top_metric] / bottom[seed][bottom_metric] for seed in top}


def claim_rows(
    spec: Mapping[str, Any], records: Mapping[str, Sequence[Mapping[str, Any]]]
) -> List[Dict[str, Any]]:
    """One row per claim and scale: ratios, the seeds it holds at, the verdict."""
    rows = []
    for claim in spec["claims"]:
        for scale in spec["scales"]:
            per_seed = ratios(spec, records, scale, claim["ratio"])
            holding = [seed for seed, value in per_seed.items() if value < claim["below"]]
            rows.append(
                dict(
                    claim, scale=scale, ratios=per_seed, holding=holding,
                    verdict=verdict(len(holding), len(per_seed)),
                )
            )
    return rows


# ----------------------------------------------------------------------
# Rendering
# ----------------------------------------------------------------------
def _spread(values: Sequence[float], fmt: str) -> Tuple[str, str]:
    values = np.asarray(list(values), dtype=float)
    low, high = format(values.min(), fmt), format(values.max(), fmt)
    return format(float(np.median(values)), fmt), f"{low}–{high}"


def _table(headers: Sequence[str], rows: Sequence[Sequence[str]]) -> List[str]:
    lines = ["| " + " | ".join(headers) + " |", "|" + "---|" * len(headers)]
    lines += ["| " + " | ".join(row) + " |" for row in rows]
    return lines


def _params(sweep: SweepSpec) -> str:
    return ", ".join(f"`{key}: {value}`" for key, value in sorted(sweep.base.items()))


def render(
    spec: Mapping[str, Any], records: Mapping[str, Sequence[Mapping[str, Any]]]
) -> str:
    """``EXPERIMENTS.md`` for ``records``; raises :class:`ScorecardError` first."""
    rows = claim_rows(spec, records)
    sweeps = sweep_specs(spec)
    lines = [
        "# Experiments: which of the paper's claims hold here",
        "",
        "Rendered by `python benchmarks/scorecard.py` from the job records under",
        "`benchmarks/results/scorecard/`; the spec is `benchmarks/scorecard.json`.",
        "Do not edit by hand: change the spec or the code, re-run the script,",
        "and commit the records it writes with this file.",
        "",
        "Every job is one seeded design run (`repro.pipeline.sweep`):",
        "`apply_overrides(small_pipeline_config(seed), base)`, curriculum A2C,",
        "QBNs, FSM extraction, then the mean makespan on the held-out traces",
        "(`num_eval_traces`) beside the default, the handcrafted FSM and the",
        "greedy-utilisation heuristic (the behaviour-cloning teacher).",
        "",
    ]
    lines += _table(
        ["sweep", "seeds", "recipe"],
        [[f"`{s.name}`", " ".join(map(str, s.seeds)), _params(s)] for s in sweeps],
    )
    lines += [
        "",
        "## Claims",
        "",
        "A row compares two mean makespans seed by seed; the claim holds at a",
        "seed when their ratio is below the bound (a tie counts against it).",
        f"Verdict: **{HOLDS}** at ≥ {HOLDS_SHARE:g} of the seeds, **{FAILS}** at",
        f"≤ {FAILS_SHARE:g}, otherwise **{UNRESOLVED}**.",
        "",
    ]
    table = []
    for row in rows:
        median, spread = _spread(row["ratios"].values(), ".3f")
        holding = " ".join(map(str, row["holding"])) or "none"
        table.append([
            row["figure"], row["claim"], row["scale"], f"< {row['below']:g}",
            median, spread, f"{len(row['holding'])}/{len(row['ratios'])} ({holding})",
            f"**{row['verdict']}**",
        ])
    lines += _table(
        ["figure", "claim", "scale", "bound", "ratio median", "range", "holds at", "verdict"],
        table,
    )
    if PAPER_SCALE in spec["scales"]:
        lines += ["", *PAPER_CAVEAT]
    lines += [
        "",
        "## Descriptive rows",
        "",
        "The curriculum sweeps' extracted machines and policies; the median and",
        "range over the seeds.",
        "",
    ]
    table = []
    for row in spec["descriptive"]:
        role, metric = row["metric"]
        for scale, roles in spec["scales"].items():
            values = [m[metric] for m in _by_seed(spec, records, roles[role]).values()]
            fmt = ".0f" if all(isinstance(v, int) for v in values) else ".3f"
            table.append([row["figure"], row["row"], scale, *_spread(values, fmt)])
    lines += _table(["figure", "row", "scale", "median", "range"], table)
    lines += [
        "",
        "Fig. 6 (the history window before a state) has no row: the job record",
        "holds no history profile.",
        "",
        "## Per seed",
        "",
        "Mean makespan of the default, and the other controllers' relative to it.",
        "`states`, `codes` and `fallback` are the compiled FSM's after the",
        "held-out run; `coverage` is the share of its (state, code) cells",
        "that the extraction records visit (the machine fills the rest);",
        "`agreement` is the GRU's agreement with the greedy teacher on the",
        "training real traces.",
    ]
    for sweep in sweeps:
        table = []
        for seed, metrics in _by_seed(spec, records, sweep.name).items():
            default = metrics[DEFAULT]
            cells = [str(seed), f"{default:.2f}"]
            cells += [f"{metrics[metric] / default:.3f}" for _, metric in AGENTS]
            cells += [
                format(metrics[metric], ".3f" if isinstance(metrics[metric], float) else "d")
                for _, metric in PROFILE
            ]
            table.append(cells)
        lines += ["", f"### `{sweep.name}`", ""]
        lines += _table(
            ["seed", "default"] + [name for name, _ in AGENTS + PROFILE], table
        )
    return "\n".join(lines) + "\n"


def write(spec: Mapping[str, Any], records, path: Path = EXPERIMENTS_PATH) -> None:
    """Render, then write ``path``; nothing is written when rendering raises."""
    atomic_write_text(path, render(spec, records))


def main() -> None:
    spec = load_spec()

    def progress(done: int, total: int, record: Mapping[str, Any]) -> None:
        how = "resumed" if record.get("resumed") else record["status"]
        print(f"[{done}/{total}] {record['name']}: {how}", flush=True)

    records = collect(spec, progress=progress)
    write(spec, records)
    print(f"wrote {EXPERIMENTS_PATH.relative_to(ROOT)}")


if __name__ == "__main__":
    main()
