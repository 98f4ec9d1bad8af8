"""Tests for repro.utils.rng."""

import numpy as np
import pytest

from repro import native
from repro.errors import ConfigurationError
from repro.utils import rng as rng_module
from repro.utils.rng import (
    ACTION_DOMAIN,
    IDLE_DOMAIN,
    PhiloxStreams,
    RngFactory,
    episode_lanes,
    episode_seed,
    new_rng,
)
from conftest import native_or_skip, unprobed


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
    def philox_unprobed(self, monkeypatch):
        """The sampler is probed once per process; give the test its own probe."""
        unprobed(monkeypatch, "philox")

    def test_disabled_by_the_environment_names_the_variable(self, philox_unprobed, monkeypatch):
        monkeypatch.setenv("REPRO_DISABLE_NATIVE", "1")
        assert native.kernel("philox") is None
        assert native.status()["philox"] == "disabled: REPRO_DISABLE_NATIVE=1"
        # Disabled means "drawn by the numpy reference", never "no draws".
        streams = PhiloxStreams(3, 4, "disabled")
        counts = np.array([[4, 1, 9]] * 4, dtype=np.int64)
        lam = 0.5 * counts
        draws, fired = streams.idle_poisson(np.arange(4), counts, lam, np.exp(-lam))
        assert draws.shape == counts.shape
        assert fired == int((draws > 0).sum()) > 0
        assert streams._cursors.tolist() == [2, 2, 2, 2]  # the one-core level skips

    def test_a_wrong_uniforms_entry_point_disables_both(self, monkeypatch):
        """The self-check covers both entry points; one mismatch, no kernel."""
        native_or_skip("philox")
        unprobed(monkeypatch, "philox")
        uniforms = rng_module.NativePhiloxIdleKernel.uniforms

        def off_by_one_ulp(self, episodes, cursors, key0, key1):
            return np.nextafter(uniforms(self, episodes, cursors, key0, key1), 1.0)

        monkeypatch.setattr(rng_module.NativePhiloxIdleKernel, "uniforms", off_by_one_ulp)
        assert native.kernel("philox") is None
        assert native.status()["philox"] == "disabled: self-check mismatch"

    def test_failed_load_is_recorded_with_its_reason(self, philox_unprobed, monkeypatch, tmp_path):
        monkeypatch.delenv("REPRO_DISABLE_NATIVE", raising=False)
        monkeypatch.setenv("REPRO_KERNEL_CACHE", str(tmp_path))  # nothing cached
        monkeypatch.delenv("CC", raising=False)
        monkeypatch.setenv("PATH", "")                           # no compiler found
        assert native.kernel("philox") is None
        status = native.status()["philox"]
        assert status.startswith("disabled: no compiler produced the philox_kernel")


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

    def test_a_repeated_lane_is_refused(self):
        """``[1, 1]`` used to return one draw twice and advance lane 1 once."""
        streams = PhiloxStreams(1, 4, "d")
        with pytest.raises(ConfigurationError, match="lane 1 is repeated"):
            streams.uniforms([1, 1])
        with pytest.raises(ConfigurationError, match="lane 2 is repeated"):
            streams.uniforms([2, 0, 2])
        assert streams._cursors.tolist() == [0, 0, 0, 0]
        streams.uniforms([3, 0])  # distinct, in any order
        assert streams._cursors.tolist() == [1, 0, 0, 1]


class TestPhiloxLanes:
    """Which lanes exist and which a call serves."""

    @pytest.mark.parametrize(
        "episodes, complaint",
        [
            ([-1], "non-negative integers"),
            ([0, -1], "non-negative integers"),
            ([1.5], "non-negative integers"),
            ([3, 3], "episode id 3 is repeated"),
            ([4, 9, 4], "episode id 4 is repeated"),
            (np.array([2.0, 3.0]), "non-negative integers"),
            ([True], "non-negative integers"),
            (-3, "count must be non-negative"),
            (np.int64(-1), "count must be non-negative"),
            (True, "count must be an integer"),
            (np.True_, "count must be an integer"),
        ],
    )
    def test_bad_episode_ids_are_refused(self, episodes, complaint):
        """A cast used to make -1 lane 2**64 - 1, 1.5 lane 1, and [3, 3]
        two lanes with one stream; a count of -3 made no lanes and
        ``True`` one."""
        with pytest.raises(ConfigurationError, match=complaint):
            PhiloxStreams(1, episodes, "ids")

    @pytest.mark.parametrize("base_seed", [1.5, True, np.True_, "1", None, np.float64(1.0)])
    def test_bad_base_seeds_are_refused(self, base_seed):
        """``int(base_seed)`` used to give 1.5 and True seed 1's keystream."""
        with pytest.raises(ConfigurationError, match="base seed must be an integer"):
            PhiloxStreams(base_seed, 2, "seeds")

    def test_good_base_seeds_are_kept(self):
        for seed in (0, -7, 2**70, np.int64(5), np.uint64(2**63)):
            streams = PhiloxStreams(seed, 2, "seeds")
            twin = PhiloxStreams(int(seed), 2, "seeds")
            assert streams.uniforms().tolist() == twin.uniforms().tolist()

    def test_tiled_lanes_repeat_every_copy(self):
        """``tile`` is the one way to hold an episode id twice: each copy's
        lane draws what the original lane draws, on its own cursor."""
        ids = [4, 2**33, 0]
        base = PhiloxStreams(9, ids, "tile")
        tiled = base.tile(3)
        assert tiled._episodes.tolist() == ids * 3
        assert tiled._cursors.tolist() == [0] * 9
        original = PhiloxStreams(9, ids, "tile")
        reference = np.stack([original.uniforms() for _ in range(4)])
        for draw in range(4):
            np.testing.assert_array_equal(tiled.uniforms(), np.tile(reference[draw], 3))
        tiled.uniforms([1, 7])
        assert tiled._cursors.tolist() == [4, 5, 4, 4, 4, 4, 4, 5, 4]
        assert base._cursors.tolist() == [0, 0, 0]

    def test_episode_lanes_name_an_episode_by_its_seed(self):
        """Seed ``s`` is one lane wherever it sits: alone, in a batch, or
        named by a generator's draw."""
        batch = episode_lanes([5, 3, 2**40], IDLE_DOMAIN)
        alone = episode_lanes([3], IDLE_DOMAIN)
        for _ in range(3):
            assert batch.uniforms()[1] == alone.uniforms()[0]
        assert episode_seed(17) == 17
        drawn = episode_seed(np.random.default_rng(4))
        assert drawn == int(np.random.default_rng(4).integers(1 << 62))
        assert episode_lanes([drawn], ACTION_DOMAIN).uniforms()[0] != (
            episode_lanes([drawn], IDLE_DOMAIN).uniforms()[0]
        )
        with pytest.raises(ConfigurationError, match="episode id 3 is repeated"):
            episode_lanes([3, 3], IDLE_DOMAIN)

    def test_good_episode_ids_are_kept(self):
        ids = [2**64 - 1, 0, 2**33, 7]
        streams = PhiloxStreams(1, np.array(ids, dtype=np.uint64), "ids")
        assert streams._episodes.tolist() == ids
        assert PhiloxStreams(1, [5, 2], "ids")._episodes.tolist() == [5, 2]
        assert len(PhiloxStreams(1, [], "ids")) == 0
        assert len(PhiloxStreams(1, 3, "ids")) == 3

    def test_native_uniforms_equal_the_keystream(self):
        """Bit for bit, past 2**32 in both counter halves, any row order."""
        native_or_skip("philox")
        lanes = np.array([0, 3, 2**32 - 1, 2**32, 2**33 + 7, 2**63, 2**64 - 1], dtype=np.uint64)
        streams = PhiloxStreams(23, lanes, "native")
        streams._cursors[:] = np.array(
            [0, 2**32 - 1, 2**32, 5, 2**40 + 3, 2**63, 2**64 - 2], dtype=np.uint64
        )
        episodes = streams._episodes
        for rows in (None, np.arange(7), np.arange(7)[::-1], np.array([5, 1, 6]), np.array([4])):
            picked = slice(None) if rows is None else rows
            cursors = streams._cursors[picked].copy()
            expected = rng_module._philox_uniforms(
                episodes[picked], cursors, streams._round_keys
            )
            draws = streams.uniforms(rows)
            assert draws.tobytes() == expected.tobytes()
            np.testing.assert_array_equal(streams._cursors[picked], cursors + np.uint64(1))

    def test_all_lanes_is_every_lane_in_order(self, sampler_path):
        """``rows=None`` and ``rows=arange(B)``: same draws, same cursors."""
        lanes = [9, 0, 2**33, 4, 17]
        everything = PhiloxStreams(5, lanes, "none")
        listed = PhiloxStreams(5, lanes, "none")
        rows = np.arange(len(lanes))
        counts = np.array([[4, 1, 9], [2, 2, 2], [6, 3, 3], [1, 1, 12], [3, 0, 5]])
        lam = 0.6 * counts
        for _ in range(7):
            assert everything.uniforms().tobytes() == listed.uniforms(rows).tobytes()
            idle_all, fired_all = everything.idle_poisson(None, counts, lam, np.exp(-lam))
            idle_all = idle_all.copy()
            idle_rows, fired_rows = listed.idle_poisson(rows, counts, lam, np.exp(-lam))
            assert idle_all.tobytes() == idle_rows.tobytes()
            assert fired_all == fired_rows
            assert everything._cursors.tolist() == listed._cursors.tolist()
        assert len(set(everything._cursors.tolist())) > 1

    def test_all_lanes_needs_one_row_per_lane(self):
        streams = PhiloxStreams(5, 3, "none")
        counts = np.full((2, 3), 4)
        lam = 0.5 * counts
        with pytest.raises(ConfigurationError, match="sampling 3 lanes, got 2 rows"):
            streams.idle_poisson(None, counts, lam, np.exp(-lam))

    def test_a_repeated_lane_is_refused_by_idle_sampling(self):
        streams = PhiloxStreams(1, 4, "d")
        counts = np.full((3, 3), 4)
        lam = 0.5 * counts
        with pytest.raises(ConfigurationError, match="lane 3 is repeated"):
            streams.idle_poisson([3, 1, 3], counts, lam, np.exp(-lam))
        assert streams._cursors.tolist() == [0, 0, 0, 0]
