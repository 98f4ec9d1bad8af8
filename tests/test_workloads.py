"""Tests for workload profiles, the generator and the real-trace sampler."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import WorkloadError
from repro.storage.iorequest import NUM_IO_TYPES
from repro.storage.simulator import StorageSystemConfig
from repro.workloads import (
    GeneratorConfig,
    RealTraceSampler,
    SamplerConfig,
    StandardWorkloadGenerator,
    STANDARD_PROFILES,
    get_profile,
    profile_names,
)
from repro.workloads.spec import IntensityModel, WorkloadProfile


class TestProfiles:
    def test_twelve_standard_profiles(self):
        assert len(STANDARD_PROFILES) == 12
        assert len(profile_names()) == 12

    def test_lookup(self):
        assert get_profile("oltp_database").name == "oltp_database"
        with pytest.raises(WorkloadError):
            get_profile("does_not_exist")

    def test_base_ratios_sum_to_one(self):
        for profile in STANDARD_PROFILES.values():
            assert profile.base_ratios().sum() == pytest.approx(1.0)
            assert profile.base_ratios().shape == (NUM_IO_TYPES,)

    def test_read_fraction_respected(self):
        for profile in STANDARD_PROFILES.values():
            read_share = profile.base_ratios()[:7].sum()
            assert read_share == pytest.approx(profile.read_fraction, abs=1e-9)

    def test_profiles_are_diverse_in_write_fraction(self):
        fractions = [p.write_byte_fraction() for p in STANDARD_PROFILES.values()]
        assert min(fractions) < 0.2
        assert max(fractions) > 0.6

    def test_backup_is_write_heavy_streaming_is_read_heavy(self):
        assert get_profile("backup").write_byte_fraction() > 0.7
        assert get_profile("video_streaming").write_byte_fraction() < 0.15

    def test_profile_validation(self):
        with pytest.raises(WorkloadError):
            WorkloadProfile(
                name="bad",
                description="",
                read_fraction=1.5,
                read_size_weights=[1] * 7,
                write_size_weights=[1] * 7,
            )
        with pytest.raises(WorkloadError):
            WorkloadProfile(
                name="bad",
                description="",
                read_fraction=0.5,
                read_size_weights=[1] * 6,
                write_size_weights=[1] * 7,
            )


class TestIntensityModel:
    def test_constant(self):
        model = IntensityModel(base=1.0, amplitude=0.0)
        assert model.level(0) == model.level(13) == 1.0

    def test_periodicity(self):
        model = IntensityModel(base=1.0, amplitude=0.5, period=24)
        np.testing.assert_allclose(model.level(0), model.level(24), atol=1e-12)

    def test_trend(self):
        model = IntensityModel(base=1.0, amplitude=0.0, trend=0.01)
        assert model.level(100) == pytest.approx(2.0)

    def test_never_negative(self):
        model = IntensityModel(base=0.1, amplitude=1.0, trend=-0.05)
        assert all(model.level(t) >= 0.0 for t in range(200))

    def test_validation(self):
        with pytest.raises(WorkloadError):
            IntensityModel(base=0.0)
        with pytest.raises(WorkloadError):
            IntensityModel(amplitude=2.0)


class TestGenerator:
    def test_trace_length_and_metadata(self, generator):
        trace = generator.generate("oltp_database", duration=30, rng=0)
        assert len(trace) == 30
        assert trace.metadata["kind"] == "standard"
        assert trace.metadata["profile"] == "oltp_database"

    def test_suite_covers_all_profiles(self, standard_suite):
        assert set(standard_suite) == set(profile_names())

    def test_calibration_hits_target_load(self):
        cfg = StorageSystemConfig(idle_rate=0.0)
        generator = StandardWorkloadGenerator(cfg, GeneratorConfig(target_load=0.8), rng=0)
        profile = get_profile("file_server")
        requests = generator.nominal_requests_per_interval(profile)
        payload = requests * profile.mean_request_size_kb()
        write_fraction = profile.write_byte_fraction()
        multiplier = (
            1.0
            + write_fraction * (cfg.kv_write_factor + cfg.rv_write_factor)
            + (1 - write_fraction) * 0.3 * (cfg.kv_read_miss_factor + cfg.rv_read_miss_factor)
        )
        assert payload * multiplier == pytest.approx(0.8 * cfg.total_capability_kb(), rel=1e-6)

    def test_deterministic_with_seed(self, system_config):
        a = StandardWorkloadGenerator(system_config, rng=3).generate("vdi", duration=10, rng=9)
        b = StandardWorkloadGenerator(system_config, rng=3).generate("vdi", duration=10, rng=9)
        np.testing.assert_allclose(
            [interval.total_requests for interval in a],
            [interval.total_requests for interval in b],
        )

    def test_invalid_duration(self, generator):
        with pytest.raises(WorkloadError):
            generator.generate("vdi", duration=0)

    def test_mix_jitter_varies_ratios(self, generator):
        trace = generator.generate("virtualization", duration=10, rng=5)
        assert not np.allclose(trace[0].ratios, trace[1].ratios)

    def test_target_load_validation(self):
        with pytest.raises(WorkloadError):
            GeneratorConfig(target_load=0.0).validate()

    @pytest.mark.parametrize("field", ["target_load", "min_requests"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_settings_rejected(self, field, value):
        """A NaN ``min_requests`` made NaN request counts and an infinite
        ``target_load`` infinite ones; both are refused up front."""
        with pytest.raises(WorkloadError):
            GeneratorConfig(**{field: value}).validate()
        with pytest.raises(WorkloadError):
            StandardWorkloadGenerator(StorageSystemConfig(), GeneratorConfig(**{field: value}))


class TestSampler:
    def test_sample_trace_length_within_bounds(self, standard_suite):
        config = SamplerConfig(snippets_per_trace=3, min_snippet_length=5, max_snippet_length=10)
        sampler = RealTraceSampler(standard_suite, config, rng=0)
        trace = sampler.sample_trace("real/x", rng=1)
        assert 15 <= len(trace) <= 30
        assert trace.metadata["kind"] == "real"
        assert len(trace.metadata["snippets"]) == 3

    def test_sample_many_count(self, standard_suite):
        sampler = RealTraceSampler(standard_suite, rng=0)
        traces = sampler.sample_many(5, rng=2)
        assert len(traces) == 5
        assert len({t.name for t in traces}) == 5

    def test_snippets_come_from_standard_traces(self, standard_suite):
        sampler = RealTraceSampler(standard_suite, rng=0)
        trace = sampler.sample_trace("real/y", rng=3)
        sources = {s["source"] for s in trace.metadata["snippets"]}
        assert sources <= {t.name for t in standard_suite.values()}

    def test_empty_input_rejected(self):
        with pytest.raises(WorkloadError):
            RealTraceSampler([])

    def test_invalid_config(self):
        with pytest.raises(WorkloadError):
            SamplerConfig(min_snippet_length=10, max_snippet_length=5).validate()
        with pytest.raises(WorkloadError):
            SamplerConfig(snippets_per_trace=0).validate()

    def test_invalid_count(self, standard_suite):
        with pytest.raises(WorkloadError):
            RealTraceSampler(standard_suite, rng=0).sample_many(0)

    @pytest.mark.parametrize("seed", [0, 1, 7, 99, 12345])
    def test_sampled_traces_are_valid_across_seeds(self, seed, standard_suite):
        sampler = RealTraceSampler(standard_suite, rng=seed)
        trace = sampler.sample_trace("real/prop", rng=seed)
        for interval in trace:
            assert interval.ratios.sum() == pytest.approx(1.0)
            assert interval.total_requests >= 0
