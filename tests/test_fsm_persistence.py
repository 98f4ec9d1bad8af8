"""Compiled-artifact persistence and the shared unseen-observation resolution."""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.engine.compiled_fsm import CompiledFSMPolicy
from repro.errors import ExtractionError, SerializationError
from repro.fsm import generalize
from repro.fsm.agent import FSMPolicyAgent
from repro.fsm.generalize import nearest_prototype_rows
from repro.fsm.machine import FiniteStateMachine
from repro.qbn.autoencoder import build_observation_qbn
from repro.storage.migration import MigrationAction
from repro.utils.serialization import load_npz, save_npz

from conftest import fill_every_cell


def build_machine(rng: np.random.Generator, num_states: int = 6) -> FiniteStateMachine:
    """A small total machine with states, transitions, prototypes and a start state."""
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
    fill_every_cell(fsm, rng)
    fsm.initial_state = codes[0]
    fsm.validate()
    return fsm


def compile_machine(fsm: FiniteStateMachine) -> CompiledFSMPolicy:
    return CompiledFSMPolicy.compile(fsm, build_observation_qbn(7, latent_dim=4, rng=0))


def _tamper(arrays, changes):
    """``arrays`` with each entry named in ``changes`` replaced by its change."""
    arrays = dict(arrays)
    for name, change in changes.items():
        arrays[name] = change(arrays[name].copy() if name in arrays else None)
    return arrays


def _set(index, value):
    def change(array):
        array[index] = value
        return array

    return change


# Six states, seven observation codes, all prototyped.  Served, each of
# these would write a bad state row or raise inside a broker flush.
_TAMPERED = {
    "transition -1": ({"transition_table": _set((0, 0), -1)}, "transition leaves"),
    "transition past the states": ({"transition_table": _set((1, 2), 6)}, "transition leaves"),
    "start state past the states": ({"meta": _set(1, 6)}, "start state 6"),
    "negative start state": ({"meta": _set(1, -1)}, "start state -1"),
    "short action table": ({"action_table": lambda a: a[:-1]}, "action table shape"),
    "unknown action": ({"action_table": _set(3, 7)}, "not one of the 7 actions"),
    "narrow prototypes": ({"prototype_matrix": lambda a: a[:, :-1]}, "prototype matrix shape"),
    "missing prototype row": ({"prototype_matrix": lambda a: a[:-1]}, "prototype matrix shape"),
    "more prototypes than codes": (
        {"meta": _set(2, 8), "prototype_matrix": lambda a: np.vstack([a, a[:1]])},
        "8 prototypes for 7 observation codes",
    ),
    # The encoder (7 inputs, 16 hidden, 4 latent) must chain and match the
    # codes; each of these used to load and fail on first use.
    "flat first layer": ({"enc_w1": lambda a: a[0]}, "enc_w1 shape"),
    "narrow first bias": ({"enc_b1": lambda a: a[:-1]}, "enc_b1 shape"),
    "short second layer": ({"enc_w2": lambda a: a[:-1]}, "enc_w2 shape"),
    "narrow second bias": ({"enc_b2": lambda a: a[:-1]}, "enc_b2 shape"),
    "codes narrower than the latent": ({"obs_codes": lambda a: a[:, :-1]}, "obs_codes shape"),
    "truncated encoder constants": (
        {"encoder_constants": lambda _: np.array([32.0, 512.0])},
        "encoder_constants",
    ),
    "NaN encoder constant": (
        {"encoder_constants": lambda _: np.array([32.0, np.nan, 100.0])},
        "encoder_constants",
    ),
}


class TestFSMPersistence:
    """The compiled ``.npz`` is the one persisted form of a machine."""

    def test_roundtrip_preserves_everything(self, tmp_path):
        compiled = compile_machine(build_machine(np.random.default_rng(0)))
        compiled.save(tmp_path / "fsm.npz")
        loaded = CompiledFSMPolicy.load(tmp_path / "fsm.npz")
        loaded.save(tmp_path / "again.npz")
        first, second = load_npz(tmp_path / "fsm.npz"), load_npz(tmp_path / "again.npz")
        assert sorted(first) == sorted(second)
        for name, array in first.items():
            # Bit-exact, dtypes included.
            assert array.dtype == second[name].dtype, name
            assert array.tobytes() == second[name].tobytes(), name
        assert loaded.summary() == {**compiled.summary(), "decisions": 0, "fallbacks": 0}

    def test_none_initial_state_roundtrips(self, tmp_path):
        """Without an initial state the start is the first most-visited state."""
        fsm = build_machine(np.random.default_rng(3))
        fsm.initial_state = None
        compiled = compile_machine(fsm)
        start = list(fsm.states).index(fsm.start_state())
        assert compiled.start_state == start
        assert fsm.states[fsm.start_state()].visit_count == max(
            state.visit_count for state in fsm.states.values()
        )
        compiled.save(tmp_path / "fsm.npz")
        assert CompiledFSMPolicy.load(tmp_path / "fsm.npz").start_state == start

    def test_invalid_machine_refuses_to_save(self):
        fsm = build_machine(np.random.default_rng(5))
        fsm.initial_state = (9, 9, 9, 9, 9)
        with pytest.raises(ExtractionError):
            compile_machine(fsm)

    def test_wrong_format_version_rejected(self, tmp_path):
        """A version-1 artifact (it still carried a metric entry) is refused."""
        compile_machine(build_machine(np.random.default_rng(2))).save(tmp_path / "fsm.npz")
        arrays = _tamper(load_npz(tmp_path / "fsm.npz"), {"meta": _set(0, 1)})
        save_npz(tmp_path / "old.npz", {**arrays, "metric": np.array("euclidean")})
        with pytest.raises(SerializationError, match="version 1"):
            CompiledFSMPolicy.load(tmp_path / "old.npz")

    @pytest.mark.parametrize("case", list(_TAMPERED))
    def test_tampered_artifact_is_refused(self, tmp_path, case):
        changes, refusal = _TAMPERED[case]
        compiled = compile_machine(build_machine(np.random.default_rng(4)))
        assert (compiled.num_states, compiled.num_observations) == (6, 7)
        compiled.save(tmp_path / "fsm.npz")
        save_npz(tmp_path / "tampered.npz", _tamper(load_npz(tmp_path / "fsm.npz"), changes))
        with pytest.raises(SerializationError, match=refusal):
            CompiledFSMPolicy.load(tmp_path / "tampered.npz")


class TestSharedFallbackResolution:
    """The interpreted agent and the batched helper are one resolution path."""

    def test_match_routes_through_shared_helper(self):
        """Each unseen code resolves to row ``nearest_prototype_rows`` picks
        over the machine's prototype table, in its insertion order."""
        rng = np.random.default_rng(0)
        fsm = FiniteStateMachine()
        fsm.add_state((0,), MigrationAction.NOOP)
        for _ in range(12):
            code = tuple(int(c) for c in rng.integers(0, 3, size=4))
            fsm.add_transition((0,), code, (0,), observation_vector=rng.normal(size=9))
        keys = list(fsm.observation_prototypes)
        matrix = np.stack(list(fsm.observation_prototypes.values()))
        queries = rng.normal(size=(40, 9))
        unseen_code = mock.Mock(**{"discrete_code.return_value": np.full(4, 9)})
        agent = FSMPolicyAgent(fsm, unseen_code, mock.Mock(normalize=np.asarray))
        with mock.patch.object(fsm, "step", wraps=fsm.step) as step:
            for query in queries:
                agent.act(query)
        resolved = [call.args[1] for call in step.call_args_list]
        assert resolved == [keys[int(row)] for row in nearest_prototype_rows(matrix, queries)]
        assert agent.unseen_observation_count == len(queries)

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

    def test_shape_errors_name_both_shapes(self):
        """Was numpy's broadcast ValueError / "argmin of an empty sequence"."""
        with pytest.raises(ExtractionError, match=r"\(3, 5\) and \(2, 4\)"):
            nearest_prototype_rows(np.zeros((3, 5)), np.zeros((2, 4)))
        with pytest.raises(ExtractionError, match=r"\(0, 5\) and \(2, 5\)"):
            nearest_prototype_rows(np.zeros((0, 5)), np.zeros((2, 5)))
        with pytest.raises(ExtractionError, match=r"\(5,\) and \(1, 5\)"):
            nearest_prototype_rows(np.zeros(5), np.zeros(5))

    def test_one_prototype_is_row_zero_without_a_gemm(self):
        vectors = np.random.default_rng(0).normal(size=(400, 35))
        vectors[3, 2] = np.nan
        with mock.patch.object(
            generalize, "_certified_nearest", side_effect=AssertionError("no gemm")
        ):
            rows = nearest_prototype_rows(np.ones((1, 35)), vectors)
        assert rows.dtype == np.int64 and rows.tolist() == [0] * 400
        assert nearest_prototype_rows(np.ones((1, 35)), np.zeros((0, 35))).shape == (0,)
