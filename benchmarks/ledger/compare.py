"""Compare two ledger run sets: ``python3 benchmarks/ledger/compare.py A.json B.json``.

``A`` is the base (the parent commit, or the first of two run sets of one
commit), ``B`` the candidate; both are ``ledger.json`` files written by
``run.py``.  One row per (end-to-end metric, workload): both medians with
their quartiles over repetitions, the ratio B/A, and a verdict against
the bound fixed in ``BENCHMARK.json``:

* ``same`` / ``worse`` / ``better`` — the medians differ by at most / by
  more than the bound, while both spreads stay within it;
* ``unresolved`` — a spread (q3 - q1 over the median) is wider than the
  bound and the two sides' repetitions interleave.  With a wide spread
  but every repetition of one side beyond every repetition of the other,
  the verdict is still ``better`` or ``worse``.

Exit status: 0 when nothing is worse, 1 on any ``worse`` row or a larger
failed fraction, 2 when the two files must not be compared (a smoke run
against a full run, different seeds, different schedules).
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

SPEC = json.loads(
    (Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text(encoding="utf-8")
)


def load(path):
    return json.loads(Path(path).read_text(encoding="utf-8"))


def refusal(a, b):
    """Why the two ledgers are not comparable, or None."""
    if a["smoke"] != b["smoke"]:
        return "one side is a --smoke run, the other a full run"
    for key in ("seed", "seconds", "calibration_reference"):
        if a["stamp"].get(key) != b["stamp"].get(key):
            return f"{key} differs: {a['stamp'].get(key)} vs {b['stamp'].get(key)}"
    for name in set(a["workloads"]) & set(b["workloads"]):
        digests = [
            side["workloads"][name]["stamp"]["schedule_digests"] for side in (a, b)
        ]
        if digests[0] != digests[1]:
            return f"{name}: schedule digests differ"
    return None


def relative_spread(metric):
    if "q1" not in metric or metric["value"] == 0:
        return 0.0
    return (metric["q3"] - metric["q1"]) / abs(metric["value"])


def verdict(base, candidate, better, bound):
    """(verdict, ratio B/A) for one metric on one workload."""
    ratio = candidate["value"] / base["value"]
    worse_by = (ratio - 1.0) if better == "lower" else (1.0 - ratio)
    if max(relative_spread(base), relative_spread(candidate)) > bound:
        ours = base.get("samples", [base["value"]])
        theirs = candidate.get("samples", [candidate["value"]])
        if better == "higher":
            ours, theirs = [-v for v in ours], [-v for v in theirs]
        if min(theirs) > max(ours):
            return "worse", ratio
        if max(theirs) < min(ours):
            return "better", ratio
        return "unresolved", ratio
    if worse_by > bound:
        return "worse", ratio
    if worse_by < -bound:
        return "better", ratio
    return "same", ratio


def compare(a, b):
    """Rows of the comparison table plus whether anything got worse."""
    rows, any_worse = [], False
    for workload in SPEC["workloads"]:
        name = workload["name"]
        if name not in a["workloads"] or name not in b["workloads"]:
            continue
        base, candidate = a["workloads"][name], b["workloads"][name]
        for metric in SPEC["end_to_end"]:
            left = base["metrics"][metric["name"]]
            right = candidate["metrics"][metric["name"]]
            outcome, ratio = verdict(left, right, metric["better"], metric["bound"])
            any_worse |= outcome == "worse"
            rows.append((name, metric, left, right, ratio, outcome))
        failed = [side["failed"] / side["attempted"] for side in (base, candidate)]
        outcome = "worse" if failed[1] > failed[0] else "same"
        any_worse |= outcome == "worse"
        rows.append((name, None, failed[0], failed[1], None, outcome))
        if base["digests"] != candidate["digests"]:
            rows.append((name, "digest", base["digests"], candidate["digests"], None, "differs"))
    return rows, any_worse


def cell(metric):
    if "q1" not in metric:
        return f"{metric['value']:.5g}"
    return f"{metric['value']:.5g} [{metric['q1']:.5g}, {metric['q3']:.5g}] n={metric['n']}"


def render(rows):
    lines = [f"{'workload':13s} {'metric':16s} {'A (base)':38s} {'B':38s} {'B/A':>10s}  verdict"]
    for name, metric, left, right, ratio, outcome in rows:
        if metric is None:
            lines.append(
                f"{name:13s} {'failed_fraction':16s} {left:<38.6g} {right:<38.6g} {'':>10s}  {outcome}"
            )
        elif metric == "digest":
            lines.append(f"{name:13s} {'digest':16s} {left} vs {right}  {outcome}")
        else:
            label = f"{metric['name']} ({metric['unit']}, bound {metric['bound']})"
            lines.append(
                f"{name:13s} {label}\n{'':30s} {cell(left):38s} {cell(right):38s} "
                f"{ratio:>8.4f}xA  {outcome}"
            )
    return "\n".join(lines)


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.splitlines()[0], file=sys.stderr)
        return 2
    a, b = load(argv[0]), load(argv[1])
    reason = refusal(a, b)
    if reason is not None:
        print(f"compare: refusing to compare: {reason}", file=sys.stderr)
        return 2
    rows, any_worse = compare(a, b)
    print(render(rows))
    return 1 if any_worse else 0


if __name__ == "__main__":
    sys.exit(main())
