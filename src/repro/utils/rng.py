"""Deterministic random-number management.

What is not per episode (weight initialisation, workload synthesis,
trace sampling, minibatch order) draws from a ``numpy.random.Generator``
made here (:func:`new_rng`, :class:`RngFactory`), reproducible from one
seed.  Every episode (the simulator's idle cores, the policy's sampling
and exploration) draws from counter-based :class:`PhiloxStreams` lanes,
whose draws run in C (``_philox_kernel.c``,
:class:`NativePhiloxIdleKernel`, registered with :mod:`repro.native` as
``"philox"``) when that kernel is ready; its numpy specification,
:func:`_philox_idle_reference` and :func:`_philox_uniforms`, draws the
same values otherwise.
"""

from __future__ import annotations

import copy
import ctypes
import math
from pathlib import Path
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.errors import ConfigurationError
from repro.native import _address, kernel as native_kernel, register

SeedLike = Union[int, np.random.Generator, None]


def new_rng(seed: SeedLike = None) -> np.random.Generator:
    """Return a random generator from a seed-like value.

    Accepts ``None`` (non-deterministic), an integer seed, or an existing
    generator (returned unchanged so callers can pass generators through
    transparently).
    """
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


class RngFactory:
    """Produces named, reproducible random generators.

    A factory created with a seed hands out generators keyed by string
    names.  Asking twice for the same name yields generators with the
    same stream, which makes components independently reproducible::

        factory = RngFactory(123)
        sim_rng = factory.get("simulator")
        agent_rng = factory.get("agent")
    """

    def __init__(self, seed: Optional[int] = None) -> None:
        self._seed = seed
        self._counters: dict[str, int] = {}

    @property
    def seed(self) -> Optional[int]:
        return self._seed

    def get(self, name: str) -> np.random.Generator:
        """Return a generator for ``name`` (fresh stream on each call)."""
        index = self._counters.get(name, 0)
        self._counters[name] = index + 1
        seed = 0 if self._seed is None else int(self._seed)
        entropy = [seed, _stable_hash(name), index]
        return np.random.default_rng(np.random.SeedSequence(entropy=entropy))

    def reset(self) -> None:
        """Forget per-name counters so streams repeat from the start."""
        self._counters.clear()


def _stable_hash(text: str) -> int:
    """A process-independent 63-bit hash of ``text``.

    Unlike the builtin ``hash`` (salted per process), this FNV-1a variant
    is identical across interpreter runs and worker processes.
    """
    value = 1469598103934665603
    for byte in text.encode("utf-8"):
        value ^= byte
        value = (value * 1099511628211) % (1 << 63)
    return value


# ----------------------------------------------------------------------
# Counter-based streams (Philox4x32-10)
# ----------------------------------------------------------------------
#
# Every episode's randomness is a pure function of ``(base_seed, domain,
# episode, draw_index)``: lane ``i``'s k-th draw is the Philox4x32-10
# block whose counter encodes ``(draw_index=k, episode=i)`` under a key
# hashed from the seed and a domain string.  All B lanes' next draws
# materialise in one vectorized call, and any subset of lanes (recycled
# fleet shards, finished-slot masks, a lane run alone, a slice of an
# episode list) reproduces the full-batch streams exactly because lanes
# never share state.  A draw is computed when it is asked for and never
# ahead of it: the only state a stream carries is one cursor per lane.
# The fleet keys its lanes by its base seed and global episode ids, the
# design path by episode seeds (:func:`episode_lanes`).

_PHILOX_M0 = 0xD2511F53
_PHILOX_M1 = 0xCD9E8D57
_PHILOX_W0 = 0x9E3779B9
_PHILOX_W1 = 0xBB67AE85
_PHILOX_ROUNDS = 10
_U64_MASK32 = np.uint64(0xFFFFFFFF)
_U64_32 = np.uint64(32)
_INV_2_53 = float(2.0 ** -53)


def _philox_round_keys(key0: int, key1: int) -> List[Tuple[np.uint64, np.uint64]]:
    """The 10 Weyl-incremented round keys, precomputed once per stream set.

    Computed in Python integers and masked to 32 bits *before* conversion
    so no numpy scalar overflow warnings fire inside the hot loop.
    """
    return [
        (
            np.uint64((key0 + r * _PHILOX_W0) & 0xFFFFFFFF),
            np.uint64((key1 + r * _PHILOX_W1) & 0xFFFFFFFF),
        )
        for r in range(_PHILOX_ROUNDS)
    ]


def _philox_uniforms(
    episodes: np.ndarray,
    counters: np.ndarray,
    round_keys: Sequence[Tuple[np.uint64, np.uint64]],
) -> np.ndarray:
    """One double in [0, 1) per lane from counter ``(draw, episode)``.

    ``episodes`` and ``counters`` are uint64 arrays of equal shape; the
    four 32-bit counter words are ``(draw lo, draw hi, episode lo,
    episode hi)``.  The whole batch of lanes runs through the 10 rounds
    in a handful of vectorized uint64 ops; a 1-element call is
    bit-identical to the matching rows of any larger call because every
    operation is element-wise.
    """
    c0 = counters & _U64_MASK32
    c1 = counters >> _U64_32
    c2 = episodes & _U64_MASK32
    c3 = episodes >> _U64_32
    m0 = np.uint64(_PHILOX_M0)
    m1 = np.uint64(_PHILOX_M1)
    for k0, k1 in round_keys:
        p0 = m0 * c0
        p1 = m1 * c2
        c0 = (p1 >> _U64_32) ^ c1 ^ k0
        c1 = p1 & _U64_MASK32
        c2 = (p0 >> _U64_32) ^ c3 ^ k1
        c3 = p0 & _U64_MASK32
    # 27 + 26 = 53 uniformly random mantissa bits, same construction as
    # the standard double-from-two-words recipe.
    high = (c0 >> np.uint64(5)).astype(np.float64)
    low = (c1 >> np.uint64(6)).astype(np.float64)
    return (high * 67108864.0 + low) * _INV_2_53


def _poisson_from_uniform(
    uniforms: np.ndarray, lam: np.ndarray, term: np.ndarray
) -> np.ndarray:
    """Poisson draws by CDF inversion of one uniform per element.

    Vectorized transcription of the scalar loop ``p = cdf = exp(-lam);
    while u >= cdf: k += 1; p *= lam / k; cdf += p`` — every element runs
    the identical arithmetic sequence (finished elements keep updating
    ``p``/``cdf`` but can never re-enter the pending set because the CDF
    only grows), so a 1-element call matches any batched call bitwise.

    ``term`` is ``exp(-lam)``, which the caller already holds.
    """
    uniforms = np.asarray(uniforms, dtype=np.float64)
    lam = np.broadcast_to(np.asarray(lam, dtype=np.float64), uniforms.shape)
    # Writable copy: the loop updates ``term`` in place.
    term = np.array(np.broadcast_to(term, uniforms.shape), dtype=np.float64)
    cdf = term.copy()
    counts = np.zeros(uniforms.shape, dtype=np.int64)
    max_lam = float(lam.max()) if lam.size else 0.0
    cap = int(max_lam + 10.0 * math.sqrt(max_lam) + 64.0)
    for k in range(1, cap + 1):
        pending = uniforms >= cdf
        if not pending.any():
            break
        counts[pending] += 1
        term *= lam / k
        cdf += term
    return counts


def _philox_idle_reference(
    episodes: np.ndarray,
    cursors: np.ndarray,
    counts: np.ndarray,
    lam: np.ndarray,
    term: np.ndarray,
    round_keys: Sequence[Tuple[np.uint64, np.uint64]],
) -> Tuple[np.ndarray, np.ndarray, int]:
    """Pure-numpy specification of the fused idle sampler.

    Per lane, each cell with ``counts > 1`` consumes one uniform from
    consecutive cursor values in level order; cells whose uniform clears
    ``term = exp(-lam)`` invert the Poisson CDF and clamp to
    ``counts - 1``.  Returns ``(idle_draws, ndraws, fired)`` — exactly
    the contract of the native ``repro_philox_idle`` entry point, which
    the load-time self-check verifies bit for bit.
    """
    eligible = counts > 1
    rank = (np.cumsum(eligible, axis=1) - 1).astype(np.uint64)
    ctr = cursors[:, None] + rank
    lanes = np.broadcast_to(episodes[:, None], ctr.shape)
    uniforms = _philox_uniforms(lanes, ctr, round_keys)
    fire = eligible & (uniforms >= term)
    idle = np.zeros(counts.shape, dtype=np.int64)
    if fire.any():
        draws = _poisson_from_uniform(uniforms[fire], lam[fire], term[fire])
        idle[fire] = np.minimum(draws, counts[fire] - 1)
    return idle, eligible.sum(axis=1).astype(np.uint64), int(fire.sum())


class NativePhiloxIdleKernel:
    """ctypes wrapper for ``_philox_kernel.c``: the fused idle sampler and
    the per-lane uniforms, on one keystream.

    Stateless between calls apart from one grow-only staging workspace;
    the keystream key travels with each call, so one wrapper serves every
    :class:`PhiloxStreams` instance in the process.  :meth:`sample`
    returns workspace views, valid until the next call — callers copy (or
    scatter) before returning; :meth:`uniforms` returns a new array.
    """

    def __init__(self, lib: ctypes.CDLL) -> None:
        # ctypes defaults integer args to c_int — explicit signatures are
        # load-bearing (c_long mismatches segfault, they don't error).
        lib.repro_philox_idle.restype = ctypes.c_long
        lib.repro_philox_idle.argtypes = [
            # episodes, cursors, ndraws, counts, lam, term, idle, uscratch
            *[ctypes.c_void_p] * 8,
            ctypes.c_uint64, ctypes.c_uint64, ctypes.c_long, ctypes.c_long,
        ]
        lib.repro_philox_uniforms.restype = None
        lib.repro_philox_uniforms.argtypes = [
            ctypes.c_void_p, ctypes.c_void_p, ctypes.c_void_p,  # episodes, cursors, out
            ctypes.c_uint64, ctypes.c_uint64, ctypes.c_long,
        ]
        self._lib = lib
        self._workspace: Optional[_PhiloxIdleWorkspace] = None

    def uniforms(
        self, episodes: np.ndarray, cursors: np.ndarray, key0: int, key1: int
    ) -> np.ndarray:
        """A new array of one uniform per lane; cursors are read, not advanced."""
        episodes = np.ascontiguousarray(episodes, dtype=np.uint64)
        cursors = np.ascontiguousarray(cursors, dtype=np.uint64)
        if episodes.shape != cursors.shape or episodes.ndim != 1:
            raise ValueError(f"lanes {episodes.shape} and cursors {cursors.shape} differ")
        out = np.empty(episodes.shape[0])
        self._lib.repro_philox_uniforms(
            _address(episodes), _address(cursors), _address(out),
            key0, key1, episodes.shape[0],
        )
        return out

    def sample(
        self,
        episodes: np.ndarray,
        cursors: np.ndarray,
        counts: np.ndarray,
        lam: np.ndarray,
        term: np.ndarray,
        key0: int,
        key1: int,
    ) -> Tuple[np.ndarray, np.ndarray, int]:
        """Returns ``(idle_draws, ndraws, fired)`` for the given lanes.

        ``episodes``/``cursors`` are per-lane uint64 vectors; ``counts``
        (int64), ``lam`` and ``term = exp(-lam)`` are ``(n, levels)``
        cell matrices.  ``idle_draws`` holds the clamped Poisson draws
        (zero where the cell didn't fire), ``ndraws`` the uniforms each
        lane consumed.
        """
        n, levels = counts.shape
        workspace = self._workspace
        # Grow-only: a fleet shard's lane count changes with every wave,
        # and a workspace per distinct count would live as long as the
        # process.  The row-major ``[:n]`` prefixes are exactly the
        # contiguous (n, levels) blocks the entry point indexes.
        if workspace is None or workspace.levels != levels or workspace.capacity < n:
            workspace = self._workspace = _PhiloxIdleWorkspace(n, levels)
        np.copyto(workspace.episodes[:n], episodes)
        np.copyto(workspace.cursors[:n], cursors)
        np.copyto(workspace.counts[:n], counts)
        np.copyto(workspace.lam[:n], lam)
        np.copyto(workspace.term[:n], term)
        fired = self._lib.repro_philox_idle(*workspace.args, key0, key1, n, levels)
        return workspace.idle[:n], workspace.ndraws[:n], int(fired)


class _PhiloxIdleWorkspace:
    """Staging/output buffers + cached addresses for up to ``capacity`` lanes.

    Address extraction (~1-2us per array per call) rivals the sampler
    itself at rollout batch sizes, so inputs are staged into fixed
    buffers whose addresses are taken once; only the two key words and
    the lane count travel per call.
    """

    def __init__(self, capacity: int, levels: int) -> None:
        self.capacity = capacity
        self.levels = levels
        self.episodes = np.empty(capacity, dtype=np.uint64)
        self.cursors = np.empty(capacity, dtype=np.uint64)
        self.counts = np.empty((capacity, levels), dtype=np.int64)
        self.lam = np.empty((capacity, levels))
        self.term = np.empty((capacity, levels))
        self.idle = np.empty((capacity, levels), dtype=np.int64)
        self.ndraws = np.empty(capacity, dtype=np.uint64)
        self.uscratch = np.empty((capacity, levels))
        self.args = tuple(
            _address(array)
            for array in (
                self.episodes, self.cursors, self.ndraws, self.counts,
                self.lam, self.term, self.idle, self.uscratch,
            )
        )


def _self_check_runs() -> List[Union[bytes, int]]:
    """Every draw, fired count and cursor of :class:`PhiloxStreams` calls
    that span the sampler: zero- and one-core skips, shallow and
    ~100-iteration inversions, a lane subset in reverse order, and lanes
    and cursors on both sides of 2**32 through ``uniforms``."""
    streams = PhiloxStreams(12345, np.arange(8, dtype=np.uint64) * 3, "selfcheck")
    counts = np.array(
        [
            [0, 1, 2], [2, 2, 2], [1, 5, 9], [40, 2, 1],
            [3, 3, 3], [120, 7, 2], [2, 1, 2], [17, 17, 17],
        ],
        dtype=np.int64,
    )
    snapshots: List[Union[bytes, int]] = []
    for idle_rate, rows in ((0.02, None), (0.37, None), (0.817, np.arange(8)[::-1])):
        streams._cursors[:] = [0, 3, 17, 2, 95, 1000, 6, 31]
        picked = counts if rows is None else counts[rows]
        lam = idle_rate * picked
        draws, fired = streams.idle_poisson(rows, picked, lam, np.exp(-lam))
        snapshots += [draws.tobytes(), fired, streams._cursors.tobytes()]
        snapshots.append(streams.uniforms().tobytes())
    wide = np.array([0, 1, 2**32 - 1, 2**32, 2**32 + 5, 2**63, 2**64 - 1], dtype=np.uint64)
    lanes = PhiloxStreams(12345, wide, "selfcheck")
    for cursors in (wide[::-1], wide):
        lanes._cursors[:] = cursors
        snapshots.append(lanes.uniforms().tobytes())
        snapshots.append(lanes.uniforms(np.array([5, 0, 2])).tobytes())
    return snapshots


def _lane_indices(rows) -> np.ndarray:
    """``rows`` as an index array of distinct lanes.

    A boolean mask is refused, not cast: ``np.asarray(mask, np.intp)``
    would turn ``[False, True]`` into lanes ``[0, 1]``.  A repeated lane
    would be served one draw twice and advanced once.
    """
    rows = np.asarray(rows)
    if rows.dtype == np.bool_:
        raise ConfigurationError(
            "rows must be lane indices, got a boolean mask "
            "(pass np.nonzero(mask)[0])"
        )
    rows = rows.astype(np.intp, copy=False)
    _refuse_repeats(rows, "lane")
    return rows


def _refuse_repeats(values: np.ndarray, what: str) -> None:
    """Raise naming a repeated value; increasing values cost one comparison."""
    if values.size > 1 and not (values[1:] > values[:-1]).all():
        ordered = np.sort(values)
        repeated = ordered[1:][ordered[1:] == ordered[:-1]]
        if repeated.size:
            raise ConfigurationError(f"{what} {int(repeated[0])} is repeated")


def _episode_ids(episodes) -> np.ndarray:
    """Episode ids as uint64, refused unless non-negative, distinct integers.

    An integer ``episodes`` is a lane count: ids ``0 .. episodes - 1``.
    A cast would map ``-1`` to lane 2**64 - 1 and ``1.5`` to lane 1, and
    two equal ids would give two lanes one stream.  (Ids above 2**63 come
    as a uint64 array: numpy makes floats of a list mixing them with
    small ones.)
    """
    if isinstance(episodes, (bool, np.bool_)):
        raise ConfigurationError(f"an episode count must be an integer, got {episodes!r}")
    if isinstance(episodes, (int, np.integer)):
        if episodes < 0:
            raise ConfigurationError(f"an episode count must be non-negative, got {episodes}")
        return np.arange(int(episodes), dtype=np.uint64)
    ids = np.asarray(episodes)
    if ids.size and (ids.dtype.kind not in "iu" or ids.min() < 0):
        raise ConfigurationError(
            f"episode ids must be non-negative integers, got {ids.dtype} ids "
            f"down to {ids.min()}"
        )
    ids = np.ascontiguousarray(ids, dtype=np.uint64)
    _refuse_repeats(ids, "episode id")
    return ids


class PhiloxStreams:
    """B independent counter-based lanes for one ``(base_seed, domain)``.

    Every episode's streams: :meth:`uniforms` advances a subset of lanes
    (``rows``) by one draw in one call (the policy's action draws), and
    :meth:`idle_poisson` samples a whole simulator batch's idle cores
    (hand the object to ``VectorSimulatorState.reset`` as ``rngs``).
    Lanes carry distinct episode ids, so a lane's draws do not depend on
    which other lanes share the object.  Both methods run natively when
    ``repro.native.status()["philox"]`` reads ``"ready"``, with the same
    values.
    """

    def __init__(
        self,
        base_seed: int,
        episodes: Union[int, Sequence[int], np.ndarray],
        domain: str,
    ) -> None:
        if isinstance(base_seed, (bool, np.bool_)) or not isinstance(
            base_seed, (int, np.integer)
        ):
            # ``int(1.5)`` and ``int(True)`` would both draw seed 1's keystream.
            raise ConfigurationError(f"a base seed must be an integer, got {base_seed!r}")
        self._episodes = _episode_ids(episodes)
        self._cursors = np.zeros(self._episodes.shape[0], dtype=np.uint64)
        key = _stable_hash(f"philox/{domain}/{int(base_seed)}")
        self._key0 = key & 0xFFFFFFFF
        self._key1 = (key >> 32) & 0xFFFFFFFF
        self._round_keys = _philox_round_keys(self._key0, self._key1)

    def tile(self, copies: int) -> "PhiloxStreams":
        """``copies`` fresh copies of these lanes, one after another.

        Lane ``g * len(self) + i`` of the result draws exactly what lane
        ``i`` of a fresh copy of this object draws: common random numbers
        for ``copies`` groups stepping the same episodes.  This is the
        one way to hold an episode id twice; the constructor refuses it.
        """
        tiled = copy.copy(self)
        tiled._episodes = np.tile(self._episodes, copies)
        tiled._cursors = np.zeros(tiled._episodes.shape[0], dtype=np.uint64)
        return tiled

    def uniforms(self, rows: Optional[np.ndarray] = None) -> np.ndarray:
        """One uniform in [0, 1) per requested lane; advances their cursors.

        ``rows=None`` means every lane, in lane order.  Otherwise ``rows``
        are distinct lane indices and the reply follows their order.
        """
        kernel = native_kernel("philox")
        lanes, episodes, cursors = self._lanes(rows)
        if kernel is not None:
            draws = kernel.uniforms(episodes, cursors, self._key0, self._key1)
        else:
            draws = _philox_uniforms(episodes, cursors, self._round_keys)
        self._cursors[lanes] += np.uint64(1)
        return draws

    def idle_poisson(
        self,
        rows: Optional[np.ndarray],
        counts: np.ndarray,
        lam: np.ndarray,
        term: np.ndarray,
    ) -> Tuple[np.ndarray, int]:
        """Idle sampling for the simulator's hot path, one call per interval.

        Draws each multi-core ``(lane, level)`` cell's uniform
        (consecutive cursors per lane, level order) and inverts the
        Poisson CDF, returning the clamped draws matrix and the
        fired-cell count, and advancing the requested lanes' cursors.
        ``rows`` are distinct lane indices, one per row of ``counts``, or
        None for every lane in lane order.  The native sampler does this
        in one C call; without it :func:`_philox_idle_reference`, the spec
        its self-check compares against, draws the same values.  The
        native draws matrix is a reused workspace — scatter or copy it
        before the next call.

        ``term`` must be ``np.exp(-lam)`` computed by the *caller* in
        numpy: the sampler never calls the C library's ``exp``, whose
        rounding may differ from numpy's by an ulp.
        """
        kernel = native_kernel("philox")
        lanes, episodes, cursors = self._lanes(rows)
        if counts.shape[0] != episodes.shape[0]:
            raise ConfigurationError(
                f"sampling {episodes.shape[0]} lanes, got {counts.shape[0]} rows of counts"
            )
        if kernel is not None:
            draws, ndraws, fired = kernel.sample(
                episodes, cursors, counts, lam, term, self._key0, self._key1
            )
        else:
            draws, ndraws, fired = _philox_idle_reference(
                episodes, cursors, counts, lam, term, self._round_keys
            )
        self._cursors[lanes] += ndraws
        return draws, fired

    def _lanes(self, rows) -> Tuple[Union[slice, np.ndarray], np.ndarray, np.ndarray]:
        """``(index, episodes, cursors)`` of the lanes; ``rows=None`` is
        every lane, as a slice and views: no gathers, in-place updates."""
        if rows is None:
            return slice(None), self._episodes, self._cursors
        rows = _lane_indices(rows)
        return rows, self._episodes[rows], self._cursors[rows]

    def __len__(self) -> int:
        return int(self._episodes.shape[0])


def episode_seed(rng: SeedLike) -> int:
    """The seed naming an episode's lanes: an integer is itself, a
    generator gives one draw, and ``None`` a fresh one.  A drawn seed is
    below 2**62, so the seeds counted up from it stay below 2**64."""
    if rng is None or isinstance(rng, np.random.Generator):
        return int(new_rng(rng).integers(1 << 62))
    return rng


# The design path's two domains: the simulator's idle cores and the
# policy's sampling and exploration draws.
IDLE_DOMAIN = "episode/idle"
ACTION_DOMAIN = "episode/action"


def episode_lanes(seeds: Sequence[int], domain: str) -> PhiloxStreams:
    """The design path's lanes: episode seed ``s`` is episode id ``s`` of
    ``domain`` under base seed 0, whatever batch it runs in."""
    return PhiloxStreams(0, seeds, domain)


register(
    "philox", Path(__file__).with_name("_philox_kernel.c"), NativePhiloxIdleKernel, _self_check_runs
)
