"""FSM JSON persistence and the shared unseen-observation resolution."""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ExtractionError, SerializationError
from repro.fsm import generalize
from repro.fsm.generalize import NearestObservationMatcher, nearest_prototype_rows
from repro.fsm.machine import FiniteStateMachine
from repro.fsm.serialize import fsm_to_payload, load_fsm, save_fsm
from repro.storage.migration import MigrationAction


def build_machine(rng: np.random.Generator, num_states: int = 6) -> FiniteStateMachine:
    """A small machine with states, transitions, prototypes and a start state."""
    fsm = FiniteStateMachine()
    codes = []
    while len(codes) < num_states:
        code = tuple(int(c) for c in rng.integers(0, 3, size=5))
        if code not in fsm.states:
            codes.append(code)
            state = fsm.add_state(code, MigrationAction(int(rng.integers(7))))
            state.visit_count = int(rng.integers(50))
    observations = [tuple(int(c) for c in rng.integers(0, 3, size=4)) for _ in range(8)]
    for _ in range(25):
        source = codes[int(rng.integers(len(codes)))]
        destination = codes[int(rng.integers(len(codes)))]
        observation = observations[int(rng.integers(len(observations)))]
        fsm.add_transition(
            source, observation, destination,
            observation_vector=rng.normal(size=7),
        )
    fsm.initial_state = codes[0]
    fsm.validate()
    return fsm


class TestFSMPersistence:
    def test_roundtrip_preserves_everything(self, tmp_path):
        fsm = build_machine(np.random.default_rng(0))
        path = tmp_path / "fsm.json"
        save_fsm(path, fsm)
        loaded = load_fsm(path)

        loaded.validate()
        assert list(loaded.states.keys()) == list(fsm.states.keys())
        for code, state in fsm.states.items():
            other = loaded.states[code]
            assert (other.state_id, other.action, other.visit_count) == (
                state.state_id, state.action, state.visit_count,
            )
        assert loaded.transitions == fsm.transitions
        assert loaded.transition_counts == fsm.transition_counts
        assert loaded.initial_state == fsm.initial_state
        assert list(loaded.observation_prototypes.keys()) == list(
            fsm.observation_prototypes.keys()
        )
        for key, vector in fsm.observation_prototypes.items():
            # Bit-exact: JSON float encoding is repr-based and lossless.
            assert np.array_equal(loaded.observation_prototypes[key], vector)

    def test_roundtrip_is_stable(self, tmp_path):
        """Payload of a loaded machine equals the payload it was saved from."""
        fsm = build_machine(np.random.default_rng(7))
        path = tmp_path / "fsm.json"
        save_fsm(path, fsm)
        assert fsm_to_payload(load_fsm(path)) == fsm_to_payload(fsm)

    def test_none_initial_state_roundtrips(self, tmp_path):
        fsm = build_machine(np.random.default_rng(3))
        fsm.initial_state = None
        save_fsm(tmp_path / "fsm.json", fsm)
        assert load_fsm(tmp_path / "fsm.json").initial_state is None

    def test_step_behaviour_identical_after_roundtrip(self, tmp_path):
        fsm = build_machine(np.random.default_rng(11))
        save_fsm(tmp_path / "fsm.json", fsm)
        loaded = load_fsm(tmp_path / "fsm.json")
        current = current_loaded = fsm.initial_state
        for (source, observation) in list(fsm.transitions)[:10]:
            current, action = fsm.step(current, observation)
            current_loaded, action_loaded = loaded.step(current_loaded, observation)
            assert (current, action) == (current_loaded, action_loaded)

    def test_invalid_machine_refuses_to_save(self, tmp_path):
        fsm = build_machine(np.random.default_rng(5))
        fsm.initial_state = (9, 9, 9, 9, 9)
        with pytest.raises(Exception):
            save_fsm(tmp_path / "bad.json", fsm)

    def test_wrong_format_version_rejected(self, tmp_path):
        fsm = build_machine(np.random.default_rng(2))
        path = tmp_path / "fsm.json"
        save_fsm(path, fsm)
        text = path.read_text().replace('"format_version": 1', '"format_version": 99')
        path.write_text(text)
        with pytest.raises(SerializationError):
            load_fsm(path)


class TestSharedFallbackResolution:
    """The matcher and the batched helper are one resolution path."""

    def test_match_routes_through_shared_helper(self):
        rng = np.random.default_rng(0)
        prototypes = {
            tuple(int(c) for c in rng.integers(0, 3, size=4)): rng.normal(size=9)
            for _ in range(12)
        }
        matcher = NearestObservationMatcher(prototypes)
        matrix = np.stack([np.asarray(v, float) for v in prototypes.values()])
        keys = list(prototypes.keys())
        queries = rng.normal(size=(40, 9))
        batched = nearest_prototype_rows(matrix, queries)
        for i, query in enumerate(queries):
            assert matcher.match(query) == keys[int(batched[i])]
            assert matcher.match_index(query) == int(batched[i])

    def test_batched_rows_match_scalar_rows_bitwise(self):
        """Row i of a batched resolve equals resolving row i alone."""
        rng = np.random.default_rng(42)
        matrix = rng.normal(size=(17, 35))
        queries = rng.normal(size=(64, 35))
        batched = nearest_prototype_rows(matrix, queries)
        single = np.array(
            [nearest_prototype_rows(matrix, q[None, :])[0] for q in queries]
        )
        assert np.array_equal(batched, single)

    def test_cosine_metric_matches_scalar_loop(self):
        rng = np.random.default_rng(1)
        prototypes = {
            (0, i): rng.normal(size=5) for i in range(6)
        }
        matcher = NearestObservationMatcher(prototypes, metric="cosine")
        keys = list(prototypes.keys())
        matrix = np.stack(list(prototypes.values()))
        for query in rng.normal(size=(10, 5)):
            row = nearest_prototype_rows(matrix, query[None, :], "cosine")[0]
            assert matcher.match(query) == keys[int(row)]

    def test_tie_breaks_to_first_prototype(self):
        matrix = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 5.0]])
        rows = nearest_prototype_rows(matrix, np.array([[1.0, 0.0]]))
        assert rows[0] == 0


def _oracle_nearest(matrix: np.ndarray, vectors: np.ndarray) -> np.ndarray:
    """The three lines ``nearest_prototype_rows`` answered with before the gemm."""
    diffs = matrix[None, :, :] - vectors[:, None, :]
    distances = np.sqrt((diffs * diffs).sum(axis=-1))
    return distances.argmin(axis=1)


def _step_ulps(values: np.ndarray, toward: np.ndarray, ulps: int) -> np.ndarray:
    """``values`` moved ``ulps`` floats toward (> 0) or away from (< 0) ``toward``."""
    target = toward if ulps > 0 else values + (values - toward)
    for _ in range(abs(ulps)):
        values = np.nextafter(values, target)
    return values


@st.composite
def _salted_problems(draw):
    """``(P, X, midpoint rows)``: random rows salted with every awkward kind."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    prototypes, width = draw(st.integers(1, 20)), draw(st.integers(1, 40))
    scale = draw(st.sampled_from([1.0, 1e-8, 1e8, 1e-160, 1e153]))
    offset = draw(st.sampled_from([0.0, 0.0, 1e6]))
    matrix = rng.normal(size=(prototypes, width)) * scale + offset
    if prototypes > 1 and draw(st.booleans()):
        # Duplicate prototype rows: an exact tie that must go to the lower row.
        a, b = rng.choice(prototypes, size=2, replace=False)
        matrix[b] = matrix[a]
    rows = [rng.normal(size=(24, width)) * scale + offset, matrix.copy()]
    midpoints = []  # (first row in the batch, prototype a, prototype b)
    cursor = 24 + prototypes
    for _ in range(min(4, prototypes - 1)):
        a, b = rng.choice(prototypes, size=2, replace=False)
        middle = matrix[a] + (matrix[b] - matrix[a]) / 2.0
        rows.append(
            np.stack([_step_ulps(middle, matrix[b], k) for k in (0, 1, -1, 2, -2)])
        )
        midpoints.append((cursor, int(a), int(b)))
        cursor += 5
    awkward = rng.normal(size=(8, width)) * scale + offset
    for row, value in enumerate([np.nan, np.inf, -np.inf, 1e200, -1e200, np.nan]):
        awkward[row, rng.integers(width)] = value
    awkward[6, :] = 1e200
    awkward[7, :] = np.inf
    rows.append(awkward)
    return matrix, np.concatenate(rows), midpoints


class TestCertifiedNearestPrototype:
    """The gemm answers only what the reference is bound to agree with."""

    @settings(max_examples=120, deadline=None)
    @given(problem=_salted_problems(), filter_every_batch=st.booleans())
    def test_equals_the_reference_for_batch_rows_and_shuffles(
        self, problem, filter_every_batch
    ):
        matrix, vectors, _midpoints = problem
        # At 0 even a one-row call runs the filter; at the default the
        # small calls below go straight to the reference.
        threshold = 0 if filter_every_batch else generalize._FILTER_MIN_ELEMENTS
        with mock.patch.object(generalize, "_FILTER_MIN_ELEMENTS", threshold):
            with np.errstate(all="ignore"):
                expected = _oracle_nearest(matrix, vectors)
                batched = nearest_prototype_rows(matrix, vectors)
                alone = np.array(
                    [nearest_prototype_rows(matrix, v)[0] for v in vectors]
                )
                order = np.random.default_rng(0).permutation(vectors.shape[0])
                shuffled = nearest_prototype_rows(matrix, vectors[order])
        assert batched.dtype == expected.dtype
        np.testing.assert_array_equal(batched, expected)
        np.testing.assert_array_equal(alone, expected)
        np.testing.assert_array_equal(shuffled, expected[order])

    @settings(max_examples=120, deadline=None)
    @given(problem=_salted_problems())
    def test_ties_come_back_uncertified_and_clear_winners_certified(self, problem):
        matrix, vectors, midpoints = problem
        if matrix.shape[0] < 2:
            return  # one prototype never reaches the filter
        with np.errstate(all="ignore"):
            best, certified = generalize._certified_nearest(matrix, vectors)
            expected = _oracle_nearest(matrix, vectors)
            diffs = matrix[None, :, :] - vectors[:, None, :]
            squared = np.sort((diffs * diffs).sum(axis=-1), axis=1)
            scale = (vectors * vectors).sum(axis=1) + (matrix * matrix).sum(axis=1).max()
            clear = (squared[:, 1] - squared[:, 0] >= 1e-6 * scale) & (
                (scale > 1e-280) & (scale < 1e290)
            )
        # Whatever is certified is right, and everything clear is certified.
        np.testing.assert_array_equal(best[certified], expected[certified])
        assert certified[clear].all()
        assert not certified[-8:].any()  # the NaN / inf / 1e200 rows
        for first, a, b in midpoints:
            for row in range(first, first + 5):
                if expected[row] in (a, b):  # no third prototype is nearer
                    assert not certified[row]

    def test_certification_is_not_vacuous(self):
        """On serving-shaped data almost every row is answered by the gemm."""
        rng = np.random.default_rng(5)
        matrix, vectors = rng.normal(size=(12, 35)), rng.normal(size=(900, 35))
        best, certified = generalize._certified_nearest(matrix, vectors)
        assert certified.mean() > 0.99
        np.testing.assert_array_equal(best, _oracle_nearest(matrix, vectors))
        with mock.patch.object(
            generalize, "_reference_nearest", side_effect=AssertionError("not needed")
        ):
            rows = nearest_prototype_rows(matrix, vectors[certified])
        np.testing.assert_array_equal(rows, best[certified])

    def test_reference_distances_that_overflow_tie_to_the_lowest_row(self):
        """Finite scores with a clear gap, but both true distances are ``inf``.

        The reference breaks that tie to row 0; the cap on the scale is
        what keeps the gemm from certifying the nearer row 1.
        """
        query = np.full(2, 0.9e154)
        matrix = np.stack([-0.1456 * query, -0.0897 * query])
        vectors = np.tile(query, (400, 1))
        with np.errstate(all="ignore"):
            best, certified = generalize._certified_nearest(matrix, vectors)
            assert np.isfinite(vectors @ matrix.T).all() and set(best) == {1}
            assert not certified.any()
            np.testing.assert_array_equal(
                nearest_prototype_rows(matrix, vectors), _oracle_nearest(matrix, vectors)
            )
            assert nearest_prototype_rows(matrix, vectors).tolist() == [0] * 400

    @pytest.mark.parametrize("metric", ["euclidean", "cosine"])
    def test_shape_errors_name_both_shapes(self, metric):
        """Was numpy's broadcast ValueError / "argmin of an empty sequence"."""
        with pytest.raises(ExtractionError, match=r"\(3, 5\) and \(2, 4\)"):
            nearest_prototype_rows(np.zeros((3, 5)), np.zeros((2, 4)), metric)
        with pytest.raises(ExtractionError, match=r"\(0, 5\) and \(2, 5\)"):
            nearest_prototype_rows(np.zeros((0, 5)), np.zeros((2, 5)), metric)
        with pytest.raises(ExtractionError, match=r"\(5,\) and \(1, 5\)"):
            nearest_prototype_rows(np.zeros(5), np.zeros(5), metric)

    def test_one_prototype_is_row_zero_without_a_gemm(self):
        vectors = np.random.default_rng(0).normal(size=(400, 35))
        vectors[3, 2] = np.nan
        with mock.patch.object(
            generalize, "_certified_nearest", side_effect=AssertionError("no gemm")
        ):
            rows = nearest_prototype_rows(np.ones((1, 35)), vectors)
        assert rows.dtype == np.int64 and rows.tolist() == [0] * 400
        assert nearest_prototype_rows(np.ones((1, 35)), np.zeros((0, 35))).shape == (0,)
