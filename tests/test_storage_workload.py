"""Tests for WorkloadInterval and WorkloadTrace (including property-based invariants)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import WorkloadError
from repro.storage.iorequest import NUM_IO_TYPES
from repro.storage.workload import WorkloadInterval, WorkloadTrace


def _uniform_interval(requests=1000.0):
    return WorkloadInterval(np.full(NUM_IO_TYPES, 1.0 / NUM_IO_TYPES), requests)


def _read_only_interval(requests=1000.0):
    ratios = np.zeros(NUM_IO_TYPES)
    ratios[:7] = 1.0 / 7
    return WorkloadInterval(ratios, requests)


def _write_only_interval(requests=1000.0):
    ratios = np.zeros(NUM_IO_TYPES)
    ratios[7:] = 1.0 / 7
    return WorkloadInterval(ratios, requests)


class TestWorkloadInterval:
    def test_ratios_normalised_and_frozen(self):
        interval = _uniform_interval()
        assert interval.ratios.sum() == pytest.approx(1.0)
        with pytest.raises(ValueError):
            interval.ratios[0] = 0.5

    def test_invalid_shape(self):
        with pytest.raises(WorkloadError):
            WorkloadInterval(np.ones(5) / 5, 10.0)

    def test_negative_ratio_rejected(self):
        ratios = np.full(NUM_IO_TYPES, 1.0 / NUM_IO_TYPES)
        ratios[0] = -0.5
        with pytest.raises(WorkloadError):
            WorkloadInterval(ratios, 10.0)

    def test_ratios_must_sum_to_one(self):
        with pytest.raises(WorkloadError):
            WorkloadInterval(np.full(NUM_IO_TYPES, 0.5), 10.0)

    def test_negative_requests_rejected(self):
        with pytest.raises(WorkloadError):
            _uniform_interval(-1.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_ratio_rejected(self, bad):
        ratios = np.full(NUM_IO_TYPES, 1.0 / NUM_IO_TYPES)
        ratios[3] = bad
        with pytest.raises(WorkloadError):
            WorkloadInterval(ratios, 10.0)

    @pytest.mark.parametrize("requests", [np.nan, np.inf, -np.inf, float("nan")])
    def test_non_finite_requests_rejected(self, requests):
        with pytest.raises(WorkloadError):
            _uniform_interval(requests)

    @given(
        st.lists(
            st.sampled_from([0.0, -0.0, -1e-7, 1e-300, 0.25, 1.0, 3.0]) | st.floats(0.0, 10.0),
            min_size=NUM_IO_TYPES,
            max_size=NUM_IO_TYPES,
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_normalised_bytes_match_clip_and_divide(self, weights):
        """The stored ratios are ``clip(ratios, 0) / clip(ratios, 0).sum()``
        byte for byte: -0.0 and tolerated tiny negatives become +0.0."""
        raw = np.array(weights)
        total = raw.sum()
        if total <= 0.0:
            return
        ratios = np.where(raw < 0.0, raw, raw / total)
        clipped = np.clip(ratios, 0.0, None)
        expected = clipped / clipped.sum()
        interval = WorkloadInterval(ratios, 5.0)
        assert interval.ratios.tobytes() == expected.tobytes()
        assert interval.ratios is not ratios and not interval.ratios.flags.writeable

    def test_read_write_split(self):
        read = _read_only_interval()
        write = _write_only_interval()
        assert read.write_kb() == 0.0
        assert read.write_fraction() == 0.0
        assert write.read_kb() == 0.0
        assert write.write_fraction() == 1.0

    def test_total_kb_consistency(self):
        interval = _uniform_interval()
        assert interval.total_kb() == pytest.approx(interval.read_kb() + interval.write_kb())

    def test_size_vector_signs(self):
        sizes = _uniform_interval().size_vector()
        assert np.all(sizes[:7] > 0) and np.all(sizes[7:] < 0)

    def test_feature_vector_length(self):
        assert _uniform_interval().as_feature_vector().shape == (2 * NUM_IO_TYPES + 1,)

    def test_scaled(self):
        interval = _uniform_interval(100.0)
        assert interval.scaled(2.0).total_requests == 200.0
        with pytest.raises(WorkloadError):
            interval.scaled(-1.0)

    def test_empty_interval(self):
        empty = WorkloadInterval.empty()
        assert empty.total_requests == 0.0
        assert empty.total_kb() == 0.0

    @given(st.floats(1.0, 1e6))
    @settings(max_examples=25, deadline=None)
    def test_property_total_scales_linearly(self, requests):
        base = _uniform_interval(1.0).total_kb()
        assert _uniform_interval(requests).total_kb() == pytest.approx(base * requests)

    @given(st.lists(st.floats(0.001, 10.0), min_size=NUM_IO_TYPES, max_size=NUM_IO_TYPES))
    @settings(max_examples=25, deadline=None)
    def test_property_write_fraction_bounded(self, weights):
        ratios = np.array(weights)
        ratios = ratios / ratios.sum()
        interval = WorkloadInterval(ratios, 100.0)
        assert 0.0 <= interval.write_fraction() <= 1.0


class TestWorkloadTrace:
    def _trace(self, n=5):
        return WorkloadTrace("t", [_uniform_interval(100.0) for _ in range(n)])

    def test_len_and_duration(self):
        trace = self._trace(4)
        assert len(trace) == trace.duration == 4

    def test_empty_name_rejected(self):
        with pytest.raises(WorkloadError):
            WorkloadTrace("", [])

    def test_append_type_check(self):
        trace = self._trace(1)
        with pytest.raises(WorkloadError):
            trace.append("not an interval")

    def test_totals(self):
        trace = self._trace(3)
        assert trace.total_requests() == pytest.approx(300.0)
        assert trace.total_kb() == pytest.approx(3 * _uniform_interval(100.0).total_kb())

    def test_slice(self):
        trace = self._trace(6)
        sub = trace.slice(2, 5)
        assert len(sub) == 3
        assert sub.metadata["sliced_from"] == "t"
        with pytest.raises(WorkloadError):
            trace.slice(4, 2)

    def test_concatenate(self):
        combined = WorkloadTrace.concatenate([self._trace(2), self._trace(3)], name="joined")
        assert len(combined) == 5
        assert combined.metadata["sources"] == ["t", "t"]
        with pytest.raises(WorkloadError):
            WorkloadTrace.concatenate([], name="empty")

    def test_mean_write_fraction_bounds(self):
        trace = self._trace(3)
        assert 0.0 <= trace.mean_write_fraction() <= 1.0
        assert WorkloadTrace("empty-ok", [_uniform_interval(0.0)]).mean_write_fraction() == 0.0
