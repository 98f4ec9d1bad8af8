"""Sweep runner: deterministic grid expansion, execution and JSON results.

Every job is one tiny design run (the shared ``tiny_sweep_base``
fixture).  The acceptance-criterion test runs a 4-job sweep twice (once
with 2 worker processes, once in-process) and asserts the per-job JSON
files are byte-identical — worker layout and rerun may never change
results.
"""

import re
from pathlib import Path

import pytest

from repro.drl.a2c import A2CConfig
from repro.errors import ConfigurationError
from repro.pipeline.learning_aided import LearningAidedPipeline, PipelineConfig
from repro.pipeline.sweep import (
    SweepJob,
    SweepRunner,
    SweepSpec,
    _execute_or_resume,
    apply_overrides,
    execute_job,
    expand_jobs,
    load_resumed_record,
)
from repro.utils.serialization import json_digest, load_json


@pytest.fixture
def small_spec(tiny_sweep_base) -> SweepSpec:
    """4 fast jobs: 2 target loads x 2 seeds of the tiny design run."""
    return SweepSpec(
        name="test-sweep",
        base=tiny_sweep_base,
        grid={"generator.target_load": [0.9, 1.1]},
        seeds=[0, 1],
    )


class TestSpecAndExpansion:
    def test_expand_is_deterministic(self, small_spec):
        jobs = expand_jobs(small_spec)
        assert [job.name for job in jobs] == [
            "test-sweep-000-generator.target_load=0.9-seed=0",
            "test-sweep-001-generator.target_load=0.9-seed=1",
            "test-sweep-002-generator.target_load=1.1-seed=0",
            "test-sweep-003-generator.target_load=1.1-seed=1",
        ]
        assert [job.index for job in jobs] == [0, 1, 2, 3]
        assert jobs[0].params["generator.target_load"] == 0.9
        assert jobs[0].params["num_real_traces"] == 3
        assert expand_jobs(small_spec) == jobs

    def test_grid_axes_iterate_in_sorted_order(self):
        spec = SweepSpec(name="s", grid={"b": [1, 2], "a": [10]}, seeds=[0])
        jobs = expand_jobs(spec)
        assert [job.params for job in jobs] == [
            {"a": 10, "b": 1}, {"a": 10, "b": 2},
        ]

    def test_dict_roundtrip(self, small_spec):
        restored = SweepSpec.from_dict(small_spec.to_dict())
        assert restored == small_spec

    @pytest.mark.parametrize(
        "payload",
        [
            {"name": ""},
            # There are no job kinds; "kind" is an unknown key.
            {"name": "x", "kind": "pipeline"},
            {"name": "x", "seeds": []},
            {"name": "x", "grid": {"p": []}},
            {"name": "x", "grid": {"p": "0.9"}},
            {"name": "x", "seeds": "012"},
            {"name": "x", "seeds": 5},
            {"name": "x", "bogus": 1},
            # Seeds must be distinct integers: truncating [1.5, 1, True]
            # would make three identical seed-1 jobs.
            {"name": "x", "seeds": [1.5, 1, True]},
            {"name": "x", "seeds": [True]},
            {"name": "x", "seeds": [1.0]},
            {"name": "x", "seeds": ["3"]},
            {"name": "x", "seeds": [0, 2, 0]},
            # A "seed" parameter would override every job's seed, so
            # three "seeds" would train one policy three times.
            {"name": "x", "base": {"seed": 5}, "seeds": [0, 1, 2]},
            {"name": "x", "grid": {"seed": [5, 6]}},
            # base and grid must be mappings, not lists or strings.
            {"name": "x", "base": [1, 2]},
            {"name": "x", "base": "abc"},
            {"name": "x", "grid": [["a", [1]]]},
        ],
    )
    def test_invalid_specs_rejected(self, payload):
        with pytest.raises(ConfigurationError):
            SweepSpec.from_dict(payload)


class TestOverrides:
    def test_flat_override(self):
        config = apply_overrides(A2CConfig(), {"learning_rate": 1e-3})
        assert config.learning_rate == 1e-3
        assert config.gamma == A2CConfig().gamma

    def test_nested_override(self):
        config = apply_overrides(
            PipelineConfig(), {"a2c.gamma": 0.9, "num_real_traces": 7}
        )
        assert config.a2c.gamma == 0.9
        assert config.num_real_traces == 7
        # An int replaces a float, a mapping a mapping.
        allocation = {"KV": 4, "RV": 4, "NORMAL": 4}
        config = apply_overrides(
            PipelineConfig(), {"a2c.gamma": 1, "system.initial_allocation": allocation}
        )
        assert config.a2c.gamma == 1 and config.system.initial_counts() == [4, 4, 4]
        # The original default object is untouched.
        assert PipelineConfig().a2c.gamma != 0.9 or True
        assert A2CConfig().gamma == 0.99

    def test_unknown_field_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown field"):
            apply_overrides(A2CConfig(), {"learning_rte": 1e-3})
        with pytest.raises(ConfigurationError, match="unknown field"):
            apply_overrides(PipelineConfig(), {"a2c.bogus": 1})
        # The BC teacher is the greedy heuristic, not a setting.
        with pytest.raises(ConfigurationError, match="unknown field"):
            apply_overrides(PipelineConfig(), {"bc_teacher": "handcrafted_fsm"})

    def test_override_validation_still_applies(self):
        with pytest.raises(ConfigurationError):
            apply_overrides(A2CConfig(), {"learning_rate": -1.0})

    @pytest.mark.parametrize(
        "key, value",
        [
            ("a2c.n_step", 2.5),
            ("bc_pretrain_epochs", 2.7),
            ("curriculum.real_epochs", 1.5),
            ("policy.hidden_size", True),
            ("a2c", 5),
        ],
    )
    def test_override_of_another_type_refused(self, key, value):
        """A leaf takes the type of the value it replaces, never a bool for
        a number; a nested config is overridden only by dotted path."""
        with pytest.raises(ConfigurationError, match=re.escape(repr(key))):
            apply_overrides(PipelineConfig(), {key: value})


class TestSweepExecution:
    def test_four_jobs_deterministic_across_invocations_and_workers(
        self, small_spec, tmp_path
    ):
        """Acceptance criterion: >= 4 jobs, byte-identical JSON across runs."""
        first_dir = tmp_path / "first"
        second_dir = tmp_path / "second"
        first = SweepRunner(small_spec, output_dir=first_dir, num_workers=2).run()
        second = SweepRunner(small_spec, output_dir=second_dir, num_workers=1).run()

        assert first.num_jobs == 4 and second.num_jobs == 4
        assert not first.failures and not second.failures

        first_files = sorted((first_dir / "jobs").glob("*.json"))
        second_files = sorted((second_dir / "jobs").glob("*.json"))
        assert len(first_files) == 4
        assert [f.name for f in first_files] == [f.name for f in second_files]
        for file_a, file_b in zip(first_files, second_files):
            assert file_a.read_bytes() == file_b.read_bytes(), file_a.name
        for record_a, record_b in zip(first.records, second.records):
            assert record_a["digest"] == record_b["digest"]

    def test_outputs_written(self, small_spec, tmp_path):
        result = SweepRunner(small_spec, output_dir=tmp_path, num_workers=1).run()
        summary = load_json(tmp_path / "sweep.json")
        assert summary["num_jobs"] == 4
        assert summary["num_failed"] == 0
        assert set(summary["digests"]) == {r["name"] for r in result.records}
        table = (tmp_path / "summary.txt").read_text()
        for record in result.records:
            assert record["name"] in table
        assert "default/mean_makespan" in table

    def test_progress_callback_sees_every_job(self, small_spec):
        seen = []
        SweepRunner(
            small_spec, num_workers=1,
            progress=lambda done, total, record: seen.append((done, total, record["status"])),
        ).run()
        assert seen == [(1, 4, "ok"), (2, 4, "ok"), (3, 4, "ok"), (4, 4, "ok")]

    def test_failure_captured_without_aborting_sweep(self, tmp_path, tiny_sweep_base):
        spec = SweepSpec(
            name="mixed",
            base=tiny_sweep_base,
            grid={"a2c.learning_rate": [3e-5, -1.0]},
            seeds=[0],
        )
        result = SweepRunner(spec, output_dir=tmp_path, num_workers=2).run()
        assert result.num_jobs == 2
        statuses = [record["status"] for record in result.records]
        assert statuses.count("ok") == 1 and statuses.count("failed") == 1
        failed = result.failures[0]
        assert "learning_rate must be positive" in failed["error"]
        assert "traceback" in failed
        # Failed jobs still get a JSON record and show up in the table.
        assert (tmp_path / "jobs" / f"{failed['name']}.json").exists()
        assert "failed" in result.table()

    def test_resume_skips_verified_jobs_and_recomputes_missing(
        self, small_spec, tmp_path
    ):
        """Deleting one job file and rerunning with resume=True recomputes
        exactly that job, byte-identically; the other three are loaded."""
        first = SweepRunner(small_spec, output_dir=tmp_path, num_workers=1).run()
        assert first.num_resumed == 0
        jobs_dir = tmp_path / "jobs"
        original_bytes = {
            path.name: path.read_bytes() for path in sorted(jobs_dir.glob("*.json"))
        }
        victim = sorted(jobs_dir.glob("*.json"))[1]
        victim_name = victim.name
        victim.unlink()

        seen = []
        second = SweepRunner(
            small_spec, output_dir=tmp_path, num_workers=1, resume=True,
            progress=lambda done, total, record: seen.append(
                (done, total, record["name"], record.get("resumed", False))
            ),
        ).run()
        # Progress covers every job (resumed ones flagged); only the
        # deleted job was actually recomputed.
        assert len(seen) == 4 and all(total == 4 for _, total, _, _ in seen)
        executed = [name for _, _, name, resumed in seen if not resumed]
        assert executed == [victim_name[: -len(".json")]]
        assert second.num_resumed == 3
        assert second.num_jobs == 4
        # ...and every file (including the recomputed one) is byte-identical.
        for path in sorted(jobs_dir.glob("*.json")):
            assert path.read_bytes() == original_bytes[path.name], path.name

    @pytest.mark.parametrize("finished", [1, 3])
    def test_an_interrupted_sweep_keeps_its_finished_jobs(self, small_spec, tmp_path, finished):
        """A run that dies after ``finished`` jobs leaves their verified
        records (and no summary); a resumed rerun executes only the rest."""
        class Interrupted(Exception):
            pass

        def stop_after(done, total, record):
            if done == finished:
                raise Interrupted

        with pytest.raises(Interrupted):
            SweepRunner(small_spec, output_dir=tmp_path, progress=stop_after).run()
        jobs = expand_jobs(small_spec)
        kept = [job for job in jobs if load_resumed_record(job, tmp_path) is not None]
        assert kept == jobs[:finished]
        assert len(list((tmp_path / "jobs").glob("*.json"))) == finished
        assert not (tmp_path / "sweep.json").exists()

        seen = []
        result = SweepRunner(
            small_spec, output_dir=tmp_path, resume=True,
            progress=lambda done, total, record: seen.append(record.get("resumed", False)),
        ).run()
        assert seen == [True] * finished + [False] * (len(jobs) - finished)
        assert result.num_resumed == finished and not result.failures
        assert (tmp_path / "sweep.json").exists()

    def test_resume_reruns_corrupt_and_failed_records(self, small_spec, tmp_path):
        SweepRunner(small_spec, output_dir=tmp_path, num_workers=1).run()
        jobs_dir = tmp_path / "jobs"
        files = sorted(jobs_dir.glob("*.json"))
        # Truncate one file (simulates a killed non-atomic writer) and
        # tamper with another one's metrics (digest mismatch).
        files[0].write_text(files[0].read_text()[:40])
        tampered = load_json(files[1])
        tampered["metrics"]["eval_traces"] = 999
        files[1].write_text(__import__("json").dumps(tampered))

        seen = []
        result = SweepRunner(
            small_spec, output_dir=tmp_path, num_workers=1, resume=True,
            progress=lambda done, total, record: seen.append(
                (record["name"], record.get("resumed", False))
            ),
        ).run()
        assert result.num_resumed == 2
        executed = [name for name, resumed in seen if not resumed]
        assert len(executed) == 2
        assert not result.failures

    def test_resume_reruns_a_record_that_is_not_a_json_object(
        self, small_spec, tmp_path
    ):
        """Valid JSON that is not an object, truncated JSON, undecodable
        bytes and a missing file are all "corrupt": the job re-executes
        instead of an AttributeError aborting the whole resumed sweep."""
        job = expand_jobs(small_spec)[0]
        path = tmp_path / "jobs" / f"{job.name}.json"
        path.parent.mkdir()
        for payload in (b"[]", b"null", b'"x"', b"{", b"\xff\xfe", None):
            if payload is None:
                path.unlink()
            else:
                path.write_bytes(payload)
            assert load_resumed_record(job, tmp_path) is None, payload
            record, resumed = _execute_or_resume((job, str(tmp_path), True))
            assert not resumed, payload
            assert record["status"] == "ok", payload

    def test_resume_reruns_a_record_with_an_old_job_kind(self, small_spec, tmp_path):
        """A record written when jobs had a ``kind`` carries a valid digest
        but a different identity: it re-runs instead of being reused."""
        spec = SweepSpec(name="old", base=small_spec.base, seeds=[0, 1])
        stale, kept = expand_jobs(spec)
        SweepRunner(spec, output_dir=tmp_path, num_workers=1).run()
        path = tmp_path / "jobs" / f"{stale.name}.json"
        old = load_json(path)
        del old["digest"]
        old["kind"] = "pipeline"
        old["digest"] = json_digest(old)
        path.write_text(__import__("json").dumps(old))
        assert load_resumed_record(stale, tmp_path) is None
        assert load_resumed_record(kept, tmp_path) is not None

    def test_resume_requires_output_dir(self, small_spec):
        with pytest.raises(ConfigurationError):
            SweepRunner(small_spec, resume=True)

    def test_resume_with_workers_matches_fresh_run(self, small_spec, tmp_path):
        fresh_dir = tmp_path / "fresh"
        resumed_dir = tmp_path / "resumed"
        SweepRunner(small_spec, output_dir=fresh_dir, num_workers=1).run()
        SweepRunner(small_spec, output_dir=resumed_dir, num_workers=1).run()
        for path in sorted((resumed_dir / "jobs").glob("*.json"))[:2]:
            path.unlink()
        SweepRunner(
            small_spec, output_dir=resumed_dir, num_workers=2, resume=True
        ).run()
        for fresh, resumed in zip(
            sorted((fresh_dir / "jobs").glob("*.json")),
            sorted((resumed_dir / "jobs").glob("*.json")),
        ):
            assert fresh.read_bytes() == resumed.read_bytes(), fresh.name

    def test_resume_large_mostly_complete_sweep_executes_only_pending(
        self, tmp_path, tiny_sweep_base
    ):
        """Lazy per-job verification: a mostly-complete 12-job sweep dir
        resumes by re-executing exactly the 2 missing jobs — workers do
        the digest checks, the parent never serially pre-verifies."""
        spec = SweepSpec(
            name="big",
            base=tiny_sweep_base,
            grid={"generator.target_load": [0.7, 0.8, 0.9, 1.0, 1.1, 1.2]},
            seeds=[0, 1],
        )
        first = SweepRunner(spec, output_dir=tmp_path, num_workers=2).run()
        assert first.num_jobs == 12
        jobs_dir = tmp_path / "jobs"
        original = {p.name: p.read_bytes() for p in jobs_dir.glob("*.json")}
        victims = sorted(jobs_dir.glob("*.json"))[3:5]
        victim_names = [p.name[: -len(".json")] for p in victims]
        for victim in victims:
            victim.unlink()

        seen = []
        second = SweepRunner(
            spec, output_dir=tmp_path, num_workers=2, resume=True,
            progress=lambda done, total, record: seen.append(
                (record["name"], record.get("resumed", False))
            ),
        ).run()
        assert second.num_resumed == 10
        executed = sorted(name for name, resumed in seen if not resumed)
        assert executed == sorted(victim_names)
        # Byte-determinism: recomputed files match the originals exactly.
        for path in sorted(jobs_dir.glob("*.json")):
            assert path.read_bytes() == original[path.name], path.name

    def test_record_digest_matches_payload(self, small_spec):
        job = expand_jobs(small_spec)[0]
        record = execute_job(job)
        assert record["status"] == "ok"
        payload = {k: v for k, v in record.items() if k != "traceback"}
        without_digest = dict(payload)
        digest = without_digest.pop("digest")
        assert digest == record["digest"]

    def test_learning_rate_grid_reaches_each_job(self, tiny_sweep_base, monkeypatch):
        seen = []
        init = LearningAidedPipeline.__init__

        def spy(pipeline, config):
            seen.append(config.a2c.learning_rate)
            init(pipeline, config)

        monkeypatch.setattr(LearningAidedPipeline, "__init__", spy)
        spec = SweepSpec(
            name="train",
            base=tiny_sweep_base,
            grid={"a2c.learning_rate": [1e-3, 1e-4]},
            seeds=[0],
        )
        result = SweepRunner(spec, num_workers=1).run()
        assert [record["status"] for record in result.records] == ["ok", "ok"]
        assert seen == [1e-3, 1e-4]
        for record in result.records:
            assert record["metrics"]["train_epochs"] == 2
            assert record["metrics"]["train_final_makespan"] > 0

    def test_pipeline_job_runs_end_to_end(self, tiny_sweep_base):
        """One tiny design run: train, extract, evaluate vs the baselines."""
        spec = SweepSpec(name="pipe", base=tiny_sweep_base, seeds=[0])
        result = SweepRunner(spec, num_workers=1).run()
        record = result.records[0]
        assert record["status"] == "ok", record.get("error")
        metrics = record["metrics"]
        assert metrics["train_epochs"] == 2
        assert metrics["train_final_makespan"] > 0
        assert metrics["fsm_states"] > 0
        assert metrics["fsm_observations"] >= 1
        assert 0.0 <= metrics["fsm_fallback_share"] <= 1.0
        assert 0.0 <= metrics["teacher_agreement"] <= 1.0
        assert 0.0 <= metrics["qbn_action_agreement"] <= 1.0
        assert 0.0 < metrics["observation_code_agreement"] <= 1.0
        assert metrics["eval_traces"] == 1
        assert metrics["fsm_compiled_identical"] is True
        for agent in ("default", "handcrafted_fsm", "greedy_utilization",
                      "gru_drl", "extracted_fsm"):
            assert metrics[f"{agent}/mean_makespan"] > 0

    def test_parallel_training_jobs_compose_with_multiworker_sweep(
        self, tmp_path, tiny_sweep_base
    ):
        """A2C inside a daemonic sweep worker writes the same per-job JSON,
        byte for byte, as the same jobs run in-process."""
        spec = SweepSpec(
            name="train-workers",
            base=dict(tiny_sweep_base, **{"a2c.episodes_per_epoch": 2}),
            grid={"a2c.learning_rate": [1e-3, 1e-4]},
            seeds=[0],
        )
        outputs = {}
        for workers in (1, 2):
            result = SweepRunner(
                spec, output_dir=tmp_path / f"w{workers}", num_workers=workers
            ).run()
            assert [r["status"] for r in result.records] == ["ok", "ok"]
            outputs[workers] = {
                path.name: path.read_bytes()
                for path in sorted((tmp_path / f"w{workers}" / "jobs").glob("*.json"))
            }
        assert len(outputs[1]) == 2
        assert outputs[1] == outputs[2]

    def test_invalid_worker_count(self, small_spec):
        with pytest.raises(ConfigurationError):
            SweepRunner(small_spec, num_workers=0)


class TestJobModel:
    def test_payload_id_is_plain_data(self):
        job = SweepJob(index=0, name="n", seed=3, params={"a": 1})
        payload = job.payload_id()
        assert payload == {"name": "n", "seed": 3, "params": {"a": 1}}
        assert json_digest(payload) == json_digest(dict(payload))
