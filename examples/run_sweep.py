"""Run a sharded experiment sweep from the command line.

Run with::

    PYTHONPATH=src python examples/run_sweep.py --workers 2 --output /tmp/sweep

By default this runs a small demo sweep: a tiny design run (curriculum
DRL, QBN, FSM extraction, evaluation against the default, handcrafted
and greedy-utilisation baselines), gridded over the generator's target
load and two seeds (4 jobs, a few seconds).  Pass ``--spec path.json``
to run your own sweep; the JSON file holds a
:class:`repro.pipeline.sweep.SweepSpec` (name/base/grid/seeds, every
parameter a ``PipelineConfig`` field path — see README "Sweep runner").

Per-job JSON results are deterministic: rerunning the same spec (with
any ``--workers`` value) writes byte-identical files under
``<output>/jobs/``.
"""

from __future__ import annotations

import argparse
from pathlib import Path

from repro.pipeline.sweep import SweepRunner, SweepSpec
from repro.utils.serialization import load_json


def demo_spec() -> SweepSpec:
    return SweepSpec(
        name="design-demo",
        base={
            "curriculum.standard_epochs": 2,
            "curriculum.real_epochs": 2,
            "policy.hidden_size": 16,
            "standard_trace_duration": 16,
            "num_real_traces": 4,
            "num_eval_traces": 2,
            "bc_pretrain_epochs": 2,
            "rollout_traces_for_extraction": 2,
            "qbn.epochs": 4,
        },
        grid={"generator.target_load": [0.9, 1.1]},
        seeds=[0, 1],
    )


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spec", type=Path, default=None,
                        help="JSON SweepSpec file (default: built-in demo sweep)")
    parser.add_argument("--workers", type=int, default=2,
                        help="worker processes (1 = in-process)")
    parser.add_argument("--output", type=Path, default=None,
                        help="directory for per-job JSON + summary (default: none)")
    parser.add_argument("--resume", action="store_true",
                        help="skip jobs whose digest-verified JSON already "
                             "exists in --output (requires --output)")
    args = parser.parse_args()

    spec = SweepSpec.from_dict(load_json(args.spec)) if args.spec else demo_spec()

    def progress(done: int, total: int, record: dict) -> None:
        print(f"[{done}/{total}] {record['name']}: {record['status']}")

    runner = SweepRunner(
        spec, output_dir=args.output, num_workers=args.workers, progress=progress,
        resume=args.resume,
    )
    result = runner.run()
    print()
    print(result.table())
    print(f"\n{result.num_jobs} jobs, {len(result.failures)} failed, "
          f"{result.num_resumed} resumed, {result.wall_time_s:.1f}s wall")
    if args.output:
        print(f"results written to {args.output}")
    if result.failures:
        raise SystemExit(1)


if __name__ == "__main__":
    main()
