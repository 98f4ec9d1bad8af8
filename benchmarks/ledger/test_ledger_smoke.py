"""Tier-1 smoke test of the ledger benchmark (``run.py --smoke --trace``).

Every workload runs at about 1/20 size, untraced and traced, each in its
own subprocess exactly like a full run; the numbers mean nothing, the
plumbing is what is under test.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [entry["name"] for entry in SPEC["workloads"]]


@pytest.fixture(scope="module")
def smoke_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("ledger")
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke", "--trace", "--out", str(out)],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    assert "SMOKE" in done.stdout
    return out, json.loads((out / "ledger.json").read_text(encoding="utf-8"))


def test_every_metric_of_the_contract_is_emitted(smoke_run):
    _out, ledger = smoke_run
    assert ledger["smoke"] is True
    for name in WORKLOADS:
        untraced, traced = ledger["workloads"][name], ledger["traces"][name]
        assert set(untraced["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
        assert set(traced["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
        for metric in SPEC["end_to_end"]:
            record = untraced["metrics"][metric["name"]]
            assert record["unit"] == metric["unit"]
            assert record["value"] > 0, (name, metric["name"])
        for result in (untraced, traced):
            assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
            assert all(check["ok"] for check in result["checks"])


def test_digests_agree_across_repetitions_and_tracing(smoke_run):
    _out, ledger = smoke_run
    for name in WORKLOADS:
        untraced, traced = ledger["workloads"][name], ledger["traces"][name]
        assert len(untraced["digests"]) == 1
        assert untraced["digests"] == traced["digests"]
    checks = {c["name"] for c in ledger["workloads"]["socket_fsm"]["checks"]}
    assert "socket digest equals in-process digest" in checks


def test_stamp_names_what_was_measured(smoke_run):
    _out, ledger = smoke_run
    for name in WORKLOADS:
        stamp = ledger["workloads"][name]["stamp"]
        for key in ("git_commit", "seed", "nproc", "python", "numpy", "thread_pins",
                    "kernel", "rng_family", "schedule_digests", "smoke"):
            assert key in stamp
        assert stamp["smoke"] is True
    assert ledger["workloads"]["fleet_fsm"]["stamp"]["schedule_digests"]["fleet_fsm"]


def test_spans_are_well_formed_and_parent_linked(smoke_run):
    out, ledger = smoke_run
    for name in WORKLOADS:
        spans = [
            json.loads(line)
            for line in (out / f"{name}.spans.jsonl").read_text(encoding="utf-8").splitlines()
        ]
        by_id = {span["id"]: span for span in spans}
        assert len(by_id) == len(spans) > 10
        roots = [span for span in spans if span["parent"] is None]
        assert [span["name"] for span in roots] == ["bench.rep"]
        for span in spans:
            assert span["end"] >= span["start"]
            if span["parent"] is not None:
                parent = by_id[span["parent"]]
                assert parent["start"] <= span["start"]
        shares = ledger["traces"][name]["metrics"]
        assert 0.0 <= shares["trace.unattributed_share"]["value"] < 1.0


def test_missing_patch_target_is_skipped_not_fatal(capsys):
    import ledger_trace

    recorder = ledger_trace.SpanRecorder()
    targets = (
        ("ghost.layer", "repro.serving.server:PolicyServer.no_such_method", ledger_trace.NESTED),
        ("ghost.layer", "repro.no_such_module:thing", ledger_trace.NESTED),
        ("json.dumps", "json:dumps", ledger_trace.NESTED),
    )
    original = json.dumps
    with ledger_trace.Patches(recorder, targets) as patches:
        assert json.dumps is not original
        assert json.dumps({"a": 1}) == '{"a": 1}'
    assert json.dumps is original
    assert patches.missing == ["ghost.layer"] and len(patches.skipped) == 2
    assert [span[1] for span in recorder.closed_spans()] == ["json.dumps"]
    assert "is gone" in capsys.readouterr().err


def test_compare_reads_smoke_pairs_and_refuses_smoke_against_full(smoke_run, tmp_path):
    out, ledger = smoke_run
    compare = [sys.executable, str(HERE / "compare.py")]
    same = subprocess.run(
        compare + [str(out / "ledger.json"), str(out / "ledger.json")],
        capture_output=True,
        text=True,
    )
    assert same.returncode == 0, same.stdout + same.stderr
    assert "same" in same.stdout and "worse" not in same.stdout

    full = tmp_path / "full.json"
    full.write_text(json.dumps(dict(ledger, smoke=False)), encoding="utf-8")
    refused = subprocess.run(
        compare + [str(out / "ledger.json"), str(full)], capture_output=True, text=True
    )
    assert refused.returncode == 2 and "smoke" in refused.stderr
