"""Deterministic random-number management.

All stochastic components of the library (simulator idle sampling,
workload synthesis, exploration, weight initialisation) receive a
``numpy.random.Generator`` rather than touching global state.  This
module centralises how those generators are created so that experiments
are reproducible from a single integer seed.
"""

from __future__ import annotations

import ctypes
import math
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.errors import ConfigurationError

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
# Rollouts, evaluation and scalar episodes give every episode its own
# ``np.random.Generator`` (``drl.rollout.derive_episode_streams``); those
# streams cannot be advanced for B episodes in one numpy call.  The fleet
# driver steps thousands of closed-loop nodes per wave, so its streams are
# a pure function of ``(base_seed, domain, episode, draw_index)`` instead:
# lane ``i``'s k-th draw is the Philox4x32-10 block whose counter encodes
# ``(draw_index=k, episode=i)`` under a key hashed from the seed and a
# domain string.  All B lanes' next draws materialise in one vectorized
# call, and any subset of lanes (recycled shards, finished-slot masks, a
# lane run alone) reproduces the full-batch streams exactly because lanes
# never share state.  A draw is computed when it is asked for and never
# ahead of it: the only state a stream carries is one cursor per lane.

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


_idle_kernel = None
#: ``None`` until the first probe, then ``"ready"`` or ``"disabled: <reason>"``.
_idle_status: Optional[str] = None


def _philox_self_check(kernel) -> bool:
    """Bit-identity probe for both native entry points.

    Runs a spread of (episode, cursor, count, idle_rate) cells — zero/one
    core skips, shallow and ~100-iteration inversions — through the C
    idle sampler, and lanes on both sides of 2**32 through the C uniforms,
    against their numpy references.  Any mismatch disables the library
    for the process, so an exotic compiler or platform degrades to the
    reference itself instead of breaking pinned streams.
    """
    probe = PhiloxStreams(12345, np.arange(8, dtype=np.uint64) * 3, "selfcheck")
    episodes = probe._episodes
    cursors = np.array([0, 3, 17, 2, 95, 1000, 6, 31], dtype=np.uint64)
    counts = np.array(
        [
            [0, 1, 2], [2, 2, 2], [1, 5, 9], [40, 2, 1],
            [3, 3, 3], [120, 7, 2], [2, 1, 2], [17, 17, 17],
        ],
        dtype=np.int64,
    )
    for idle_rate in (0.02, 0.37, 0.817):
        lam = idle_rate * counts
        term = np.exp(-lam)
        idle_c, ndraws_c, fired_c = kernel.sample(
            episodes, cursors, counts, lam, term, probe._key0, probe._key1
        )
        idle_ref, ndraws_ref, fired_ref = _philox_idle_reference(
            episodes, cursors, counts, lam, term, probe._round_keys
        )
        if (
            fired_c != fired_ref
            or not np.array_equal(idle_c, idle_ref)
            or not np.array_equal(ndraws_c, ndraws_ref)
        ):
            return False
    wide = np.array([0, 1, 2**32 - 1, 2**32, 2**32 + 5, 2**63, 2**64 - 1], dtype=np.uint64)
    lanes, counters = np.r_[episodes, wide, wide[::-1]], np.r_[cursors, wide[::-1], wide]
    native = kernel.uniforms(lanes, counters, probe._key0, probe._key1)
    return np.array_equal(native, _philox_uniforms(lanes, counters, probe._round_keys))


def _native_idle_kernel():
    """The self-checked native idle sampler, or ``None`` (numpy reference).

    Probed once per process; :func:`idle_sampler_status` says how it went.
    """
    global _idle_kernel, _idle_status
    if _idle_status is None:
        # Imported here, not at module top: ``python -m
        # repro.utils.philox_native`` (the build hook) imports this
        # package first, and runpy warns when its target is already loaded.
        from repro.utils.philox_native import NativePhiloxIdleKernel

        try:
            kernel = NativePhiloxIdleKernel()
            if _philox_self_check(kernel):
                _idle_kernel, _idle_status = kernel, "ready"
            else:
                _idle_status = "disabled: self-check mismatch against the numpy reference"
        except (OSError, RuntimeError, ctypes.ArgumentError) as exc:
            _idle_status = f"disabled: {exc}"
    return _idle_kernel


def idle_sampler_status() -> str:
    """``"ready"`` or ``"disabled: <reason>"`` for the native idle sampler.

    The reason is what loading raised (``REPRO_DISABLE_NATIVE=1``, no
    compiler, an unloadable object) or a self-check mismatch.  Either way
    the draws are the same; disabled, :meth:`PhiloxStreams.idle_poisson`
    runs :func:`_philox_idle_reference` and the fleet steps slower.
    """
    _native_idle_kernel()
    return _idle_status


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

    A cast would map ``-1`` to lane 2**64 - 1 and ``1.5`` to lane 1, and
    two equal ids would give two lanes one stream.  (Ids above 2**63 come
    as a uint64 array: numpy makes floats of a list mixing them with
    small ones.)
    """
    if isinstance(episodes, (int, np.integer)):
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

    The fleet driver's streams: :meth:`uniforms` advances a subset of
    lanes (``rows``) by one draw in one call, and :meth:`idle_poisson`
    samples a whole simulator shard's idle cores (hand the object to
    ``VectorSimulatorState.reset`` as ``rngs``).  Lanes carry distinct
    global episode ids, so a lane's draws do not depend on which other
    lanes share the object.  Both methods run natively when
    :func:`idle_sampler_status` reads ``"ready"``, with the same values.
    """

    def __init__(
        self,
        base_seed: int,
        episodes: Union[int, Sequence[int], np.ndarray],
        domain: str,
    ) -> None:
        self._episodes = _episode_ids(episodes)
        self._cursors = np.zeros(self._episodes.shape[0], dtype=np.uint64)
        key = _stable_hash(f"philox/{domain}/{int(base_seed)}")
        self._key0 = key & 0xFFFFFFFF
        self._key1 = (key >> 32) & 0xFFFFFFFF
        self._round_keys = _philox_round_keys(self._key0, self._key1)

    def uniforms(self, rows: Optional[np.ndarray] = None) -> np.ndarray:
        """One uniform in [0, 1) per requested lane; advances their cursors.

        ``rows=None`` means every lane, in lane order.  Otherwise ``rows``
        are distinct lane indices and the reply follows their order.
        """
        kernel = _native_idle_kernel()
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
        kernel = _native_idle_kernel()
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
