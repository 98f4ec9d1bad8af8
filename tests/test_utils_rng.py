"""Tests for repro.utils.rng."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.utils import philox_native, rng as rng_module
from repro.utils.rng import PhiloxStreams, RngFactory, idle_sampler_status, new_rng


class TestNewRng:
    def test_none_returns_generator(self):
        assert isinstance(new_rng(None), np.random.Generator)

    def test_int_seed_is_deterministic(self):
        a = new_rng(42).random(5)
        b = new_rng(42).random(5)
        np.testing.assert_array_equal(a, b)

    def test_different_seeds_differ(self):
        assert not np.allclose(new_rng(1).random(5), new_rng(2).random(5))

    def test_generator_passthrough(self):
        rng = np.random.default_rng(0)
        assert new_rng(rng) is rng


class TestRngFactory:
    def test_same_name_same_stream_across_factories(self):
        a = RngFactory(9).get("simulator").random(4)
        b = RngFactory(9).get("simulator").random(4)
        np.testing.assert_array_equal(a, b)

    def test_different_names_different_streams(self):
        factory = RngFactory(9)
        a = factory.get("simulator").random(4)
        b = factory.get("agent").random(4)
        assert not np.allclose(a, b)

    def test_repeated_get_advances_stream(self):
        factory = RngFactory(9)
        a = factory.get("x").random(4)
        b = factory.get("x").random(4)
        assert not np.allclose(a, b)

    def test_reset_restores_streams(self):
        factory = RngFactory(9)
        a = factory.get("x").random(4)
        factory.reset()
        b = factory.get("x").random(4)
        np.testing.assert_array_equal(a, b)

    def test_none_seed_supported(self):
        factory = RngFactory(None)
        assert isinstance(factory.get("anything"), np.random.Generator)

    def test_seed_property(self):
        assert RngFactory(17).seed == 17


class TestIdleSamplerStatus:
    @pytest.fixture
    def unprobed(self, monkeypatch):
        """The sampler is probed once per process; give the test its own probe."""
        monkeypatch.setattr(rng_module, "_idle_kernel", None)
        monkeypatch.setattr(rng_module, "_idle_status", None)

    def test_disabled_by_the_environment_names_the_variable(self, unprobed, monkeypatch):
        monkeypatch.setenv("REPRO_DISABLE_NATIVE", "1")
        assert idle_sampler_status() == "disabled: REPRO_DISABLE_NATIVE=1"
        assert rng_module._native_idle_kernel() is None
        # Disabled means "drawn by the numpy reference", never "no draws".
        streams = PhiloxStreams(3, 4, "disabled")
        counts = np.array([[4, 1, 9]] * 4, dtype=np.int64)
        lam = 0.5 * counts
        draws, fired = streams.idle_poisson(np.arange(4), counts, lam, np.exp(-lam))
        assert draws.shape == counts.shape
        assert fired == int((draws > 0).sum()) > 0
        assert streams._cursors.tolist() == [2, 2, 2, 2]  # the one-core level skips

    def test_ready_after_build_when_a_compiler_exists(self, unprobed, monkeypatch):
        monkeypatch.delenv("REPRO_DISABLE_NATIVE", raising=False)
        try:
            philox_native.build()
        except RuntimeError as exc:
            pytest.skip(f"no compiler on this box: {exc}")
        assert idle_sampler_status() == "ready"
        assert rng_module._native_idle_kernel() is not None

    def test_failed_load_is_recorded_with_its_reason(self, unprobed, monkeypatch, tmp_path):
        monkeypatch.delenv("REPRO_DISABLE_NATIVE", raising=False)
        monkeypatch.setenv("REPRO_KERNEL_CACHE", str(tmp_path))  # nothing cached
        monkeypatch.delenv("CC", raising=False)
        monkeypatch.setenv("PATH", "")                           # no compiler found
        status = idle_sampler_status()
        assert status.startswith("disabled: no compiler produced the philox_kernel")
        assert rng_module._native_idle_kernel() is None


class TestPhiloxUniforms:
    """``uniforms()`` computes the draws it is asked for, and only those."""

    LANES = [3, 0, 2**33, 7]

    def test_draws_equal_the_keystream_called_directly(self):
        streams = PhiloxStreams(11, self.LANES, "direct")
        episodes = np.array(self.LANES, dtype=np.uint64)
        for draw in range(131):
            expected = rng_module._philox_uniforms(
                episodes, np.full(4, draw, dtype=np.uint64), streams._round_keys
            )
            np.testing.assert_array_equal(streams.uniforms(), expected)
        assert streams._cursors.tolist() == [131] * 4

    def test_interleaved_subsets_advance_only_their_lanes(self):
        full = PhiloxStreams(11, self.LANES, "subsets")
        table = np.stack([full.uniforms() for _ in range(40)])  # (draw, lane)
        streams = PhiloxStreams(11, self.LANES, "subsets")
        picker = np.random.default_rng(0)
        expected_cursors = np.zeros(4, dtype=np.int64)
        for _ in range(60):
            rows = np.nonzero(picker.random(4) < 0.5)[0]
            if picker.random() < 0.3:
                rows = rows[::-1]  # order of the request is order of the reply
            draws = streams.uniforms(rows)
            np.testing.assert_array_equal(draws, table[expected_cursors[rows], rows])
            expected_cursors[rows] += 1
            assert streams._cursors.tolist() == expected_cursors.tolist()
        assert len(set(expected_cursors.tolist())) > 1  # lanes really diverged

    def test_a_boolean_mask_is_refused_not_cast(self):
        """``asarray(mask, intp)`` used to advance lanes 0 and 1 for this mask."""
        streams = PhiloxStreams(1, 4, "x")
        mask = np.array([False, False, True, True])
        with pytest.raises(ConfigurationError, match="boolean mask"):
            streams.uniforms(mask)
        counts = np.array([[4, 1, 9]] * 4, dtype=np.int64)
        lam = 0.5 * counts
        with pytest.raises(ConfigurationError, match="boolean mask"):
            streams.idle_poisson(mask, counts[mask], lam[mask], np.exp(-lam[mask]))
        assert streams._cursors.tolist() == [0, 0, 0, 0]
        streams.uniforms(np.nonzero(mask)[0])
        assert streams._cursors.tolist() == [0, 0, 1, 1]
