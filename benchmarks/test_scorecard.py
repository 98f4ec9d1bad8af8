"""The scorecard: verdict rule, refusals, and the committed records.

The verdict-rule tests run on hand-built records.  The committed-record
tests read ``benchmarks/results/scorecard/``: resuming it runs no job
and renders ``EXPERIMENTS.md`` byte for byte, and re-running the first
``design_small``-scale job writes its committed record byte for byte
(the suite runs natively and, in CI, again under
``REPRO_DISABLE_NATIVE=1``, so both paths are held to the same bytes).
"""

from __future__ import annotations

import shutil

import pytest

import scorecard
from repro.pipeline import sweep as sweep_module
from repro.pipeline.sweep import execute_job, expand_jobs
from repro.utils.serialization import save_json

SEEDS = list(range(8))


def _spec(scratch_seeds=SEEDS):
    """One scale, a curriculum and a scratch sweep, one Fig. 4 and one Fig. 3 claim."""
    return {
        "sweeps": [
            {"name": "cur", "base": {"num_eval_traces": 2}, "seeds": SEEDS},
            {"name": "scr", "base": {"num_eval_traces": 2}, "seeds": list(scratch_seeds)},
        ],
        "scales": {"tiny": {"curriculum": "cur", "scratch": "scr"}},
        "claims": [
            {
                "figure": "Fig. 4", "claim": "GRU < default", "below": 1.0,
                "ratio": [["curriculum", "gru_drl/mean_makespan"],
                          ["curriculum", "default/mean_makespan"]],
            },
            {
                "figure": "Fig. 3", "claim": "curriculum GRU < from-scratch GRU", "below": 1.0,
                "ratio": [["curriculum", "gru_drl/mean_makespan"],
                          ["scratch", "gru_drl/mean_makespan"]],
            },
        ],
        "descriptive": [{"figure": "Fig. 5", "row": "FSM states", "metric": ["curriculum", "fsm_states"]}],
    }


def _record(sweep, seed, gru, status="ok"):
    metrics = {
        "default/mean_makespan": 100.0,
        "handcrafted_fsm/mean_makespan": 95.0,
        "greedy_utilization/mean_makespan": 90.0,
        "gru_drl/mean_makespan": gru,
        "extracted_fsm/mean_makespan": gru,
        "fsm_states": 3,
        "fsm_coverage": 0.4,
        "fsm_observations": 5,
        "fsm_fallback_share": 0.25,
        "teacher_agreement": 0.5,
    }
    record = {"name": f"{sweep}-{seed}", "seed": seed, "status": status}
    if status == "ok":
        record["metrics"] = metrics
    else:
        record["error"] = "RuntimeError: boom"
    return record


def _records(gru_by_seed, scratch_seeds=SEEDS):
    return {
        "cur": [_record("cur", seed, gru_by_seed[seed]) for seed in SEEDS],
        "scr": [_record("scr", seed, 100.0) for seed in scratch_seeds],
    }


def _gru_row(records, spec=None):
    rows = scorecard.claim_rows(spec or _spec(), records)
    return next(row for row in rows if row["claim"] == "GRU < default")


class TestVerdictRule:
    @pytest.mark.parametrize(
        "holding, expected",
        [(6, scorecard.HOLDS), (2, scorecard.FAILS), (5, scorecard.UNRESOLVED),
         (8, scorecard.HOLDS), (0, scorecard.FAILS), (3, scorecard.UNRESOLVED)],
    )
    def test_k_of_eight(self, holding, expected):
        gru = {seed: 90.0 if seed < holding else 110.0 for seed in SEEDS}
        row = _gru_row(_records(gru))
        assert row["holding"] == list(range(holding))
        assert row["verdict"] == expected
        assert scorecard.verdict(holding, 8) == expected

    def test_a_tie_counts_against_the_claim(self):
        # Five seeds below default, seed 5 exactly at it, two above:
        # counting the tie would make it 6/8 and "holds".
        gru = {seed: 90.0 if seed < 5 else 100.0 if seed == 5 else 110.0 for seed in SEEDS}
        row = _gru_row(_records(gru))
        assert row["holding"] == [0, 1, 2, 3, 4]
        assert row["verdict"] == scorecard.UNRESOLVED

    def test_ratios_are_paired_by_seed(self):
        gru = {seed: 80.0 + seed for seed in SEEDS}
        records = _records(gru)
        records["cur"].reverse()  # record order must not matter
        row = _gru_row(records)
        assert row["ratios"] == {seed: (80.0 + seed) / 100.0 for seed in SEEDS}

    def test_render_names_every_claim_scale_and_verdict(self):
        gru = {seed: 90.0 for seed in SEEDS}
        text = scorecard.render(_spec(), _records(gru))
        assert "| Fig. 4 | GRU < default | tiny | < 1 | 0.900 | 0.900–0.900 |" in text
        assert "8/8 (0 1 2 3 4 5 6 7) | **holds** |" in text
        # The Fig. 3 row pairs 90 against the scratch sweep's 100 too.
        assert "| Fig. 3 | curriculum GRU < from-scratch GRU | tiny |" in text
        assert "| Fig. 5 | FSM states | tiny | 3 | 3–3 |" in text


class TestRefusals:
    """The renderer raises, and writes nothing, on records that cannot back a verdict."""

    def _assert_refused(self, tmp_path, spec, records, match):
        out = tmp_path / "EXPERIMENTS.md"
        with pytest.raises(scorecard.ScorecardError, match=match):
            scorecard.write(spec, records, out)
        assert not out.exists()

    def test_a_failed_job(self, tmp_path):
        records = _records({seed: 90.0 for seed in SEEDS})
        records["cur"][3] = _record("cur", 3, 90.0, status="failed")
        self._assert_refused(tmp_path, _spec(), records, "cur-3 failed")

    def test_a_missing_seed(self, tmp_path):
        records = _records({seed: 90.0 for seed in SEEDS})
        del records["cur"][5]
        self._assert_refused(tmp_path, _spec(), records, r"no record for seed\(s\) \[5\]")

    def test_paired_sweeps_whose_seeds_differ(self, tmp_path):
        other = SEEDS[:-1] + [8]
        spec = _spec(scratch_seeds=other)
        records = _records({seed: 90.0 for seed in SEEDS}, scratch_seeds=other)
        self._assert_refused(tmp_path, spec, records, "paired")


class TestCommittedRecords:
    def test_resume_runs_no_job_and_renders_experiments_byte_identical(
        self, tmp_path, monkeypatch
    ):
        def no_job(job):
            raise AssertionError(f"{job.name} has no committed record and would run")

        monkeypatch.setattr(sweep_module, "execute_job", no_job)
        results = tmp_path / "results"
        shutil.copytree(scorecard.RESULTS_DIR, results)
        spec = scorecard.load_spec()
        seen = []
        records = scorecard.collect(
            spec, results, workers=1, progress=lambda done, total, record: seen.append(record)
        )
        assert len(seen) == sum(len(expand_jobs(s)) for s in scorecard.sweep_specs(spec))
        assert all(record.get("resumed") for record in seen)
        out = tmp_path / "EXPERIMENTS.md"
        scorecard.write(spec, records, out)
        assert out.read_bytes() == scorecard.EXPERIMENTS_PATH.read_bytes()

    def test_first_design_small_job_reproduces_its_committed_record(self, tmp_path):
        spec = scorecard.load_spec()
        sweep = scorecard.sweep_specs(spec)[0]
        assert sweep.name == "design_small-curriculum"
        job = expand_jobs(sweep)[0]
        record = execute_job(job)
        assert record["status"] == "ok", record.get("traceback")
        save_json(tmp_path / "record.json", record)
        committed = scorecard.RESULTS_DIR / sweep.name / "jobs" / f"{job.name}.json"
        assert (tmp_path / "record.json").read_bytes() == committed.read_bytes()
