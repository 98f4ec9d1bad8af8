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
from typing import Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

SeedLike = Union[int, np.random.Generator, "PhiloxLane", None]

#: Stream families understood by the rollout stack.  ``legacy`` is the
#: original per-episode ``np.random.Generator`` contract (bit-compatible
#: with all pre-existing golden traces); ``philox`` is the counter-based
#: family below whose draws batch across episode lanes in one call.
RNG_FAMILIES = ("legacy", "philox")


def new_rng(seed: SeedLike = None) -> Union[np.random.Generator, "PhiloxLane"]:
    """Return a random generator from a seed-like value.

    Accepts ``None`` (non-deterministic), an integer seed, or an existing
    generator (returned unchanged so callers can pass generators through
    transparently).  :class:`PhiloxLane` views pass through unchanged as
    well — they implement the subset of the ``Generator`` API the
    simulator and policy consume (``random``/``poisson``/``integers``).
    """
    if isinstance(seed, (np.random.Generator, PhiloxLane)):
        return seed
    return np.random.default_rng(seed)


def spawn_rngs(seed: SeedLike, count: int) -> List[np.random.Generator]:
    """Create ``count`` independent child generators from one seed.

    Children are derived with ``SeedSequence.spawn`` so that streams do
    not overlap even for adjacent seeds.
    """
    if count < 0:
        raise ValueError(f"count must be non-negative, got {count}")
    if isinstance(seed, np.random.Generator):
        seq = seed.bit_generator.seed_seq  # type: ignore[attr-defined]
    else:
        seq = np.random.SeedSequence(seed)
    return [np.random.default_rng(child) for child in seq.spawn(count)]


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
        entropy = (self._seed, _stable_hash(name), index)
        return np.random.default_rng(np.random.SeedSequence(entropy=_flatten(entropy)))

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


def _flatten(entropy: Iterable) -> List[int]:
    flat: List[int] = []
    for item in entropy:
        if item is None:
            flat.append(0)
        else:
            flat.append(int(item))
    return flat


# ----------------------------------------------------------------------
# Counter-based streams (Philox4x32-10)
# ----------------------------------------------------------------------
#
# The legacy contract hands every episode its own ``np.random.Generator``;
# those streams cannot be advanced for B episodes in one numpy call, so
# the rollout hot path pays a Python-level loop per decision and per idle
# sample.  The Philox family replaces the stateful generators with a pure
# function of ``(base_seed, domain, episode, draw_index)``: lane ``i``'s
# k-th draw is the Philox4x32-10 block whose counter encodes
# ``(draw_index=k, episode=i)`` under a key hashed from the seed and a
# domain string.  All B lanes' next draws therefore materialise in one
# vectorized call, and any subset of lanes (worker shards, active-row
# masks, B=1 scalar replays) reproduces the full-batch streams exactly
# because lanes never share state.

_PHILOX_M0 = 0xD2511F53
_PHILOX_M1 = 0xCD9E8D57
_PHILOX_W0 = 0x9E3779B9
_PHILOX_W1 = 0xBB67AE85
_PHILOX_ROUNDS = 10
_U64_MASK32 = np.uint64(0xFFFFFFFF)
_U64_32 = np.uint64(32)
_INV_2_53 = float(2.0 ** -53)
#: Draws precomputed per lane per refill.  The 10-round keystream pass
#: costs ~90 numpy dispatches regardless of element count, so running it
#: per draw on a handful of lanes is slower than the legacy generator
#: loop it replaces; buffering a block amortises the pass across
#: ``_PHILOX_BLOCK`` draws per lane.  Because streams are pure functions
#: of ``(episode, counter)``, prefetching never changes any value —
#: ``uniforms()`` serves the exact same doubles it would compute one at
#: a time.
_PHILOX_BLOCK = 64


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
    uniforms: np.ndarray, lam: np.ndarray, term: Optional[np.ndarray] = None
) -> np.ndarray:
    """Poisson draws by CDF inversion of one uniform per element.

    Vectorized transcription of the scalar loop ``p = cdf = exp(-lam);
    while u >= cdf: k += 1; p *= lam / k; cdf += p`` — every element runs
    the identical arithmetic sequence (finished elements keep updating
    ``p``/``cdf`` but can never re-enter the pending set because the CDF
    only grows), so a 1-element call matches any batched call bitwise.

    ``term`` may pass ``exp(-lam)`` precomputed (callers with an
    all-zero fast path already have it); values are unchanged.
    """
    uniforms = np.asarray(uniforms, dtype=np.float64)
    lam = np.broadcast_to(np.asarray(lam, dtype=np.float64), uniforms.shape)
    if term is None:
        term = np.exp(-lam)
    else:
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


def _philox_idle_self_check(kernel) -> bool:
    """Bit-identity probe for the native sampler.

    Runs a spread of (episode, cursor, count, idle_rate) cells — zero/one
    core skips, shallow and ~100-iteration inversions — through the C
    entry point and the numpy reference.  Any mismatch (integer draws,
    consumed-cursor counts, or fired totals) disables the native sampler
    for the process, so an exotic compiler or platform degrades to the
    numpy path instead of breaking pinned streams.
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
    return True


def _native_idle_kernel():
    """The self-checked native idle sampler, or ``None`` (numpy path).

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
            if _philox_idle_self_check(kernel):
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
    the draws are the same; only ``philox`` idle sampling runs slower.
    """
    _native_idle_kernel()
    return _idle_status


class PhiloxStreams:
    """B independent counter-based lanes for one ``(base_seed, domain)``.

    Supports both consumption styles the rollout stack needs:

    * vectorized — :meth:`uniforms` / :meth:`poisson` / :meth:`integers`
      advance a subset of lanes (``rows``) in one numpy call;
    * scalar — indexing (``streams[i]``) yields a :class:`PhiloxLane`
      view that shares this object's cursor storage and draws through
      the *same* vectorized helpers on 1-element arrays, so sequential
      replays are bit-identical to batched ones by construction.

    ``select`` carves out shard views for worker processes: lanes carry
    their global episode ids with them, so a shard's streams equal the
    matching lanes of the full batch no matter how episodes are split.
    """

    family = "philox"

    def __init__(
        self,
        base_seed: int,
        episodes: Union[int, Sequence[int], np.ndarray],
        domain: str,
    ) -> None:
        if isinstance(episodes, (int, np.integer)):
            episodes = np.arange(int(episodes), dtype=np.uint64)
        self.base_seed = int(base_seed)
        self.domain = str(domain)
        self._episodes = np.ascontiguousarray(episodes, dtype=np.uint64)
        self._cursors = np.zeros(self._episodes.shape[0], dtype=np.uint64)
        key = _stable_hash(f"philox/{self.domain}/{self.base_seed}")
        self._key0 = key & 0xFFFFFFFF
        self._key1 = (key >> 32) & 0xFFFFFFFF
        self._round_keys = _philox_round_keys(self._key0, self._key1)
        self._init_buffers()

    def _init_buffers(self) -> None:
        count = self._episodes.shape[0]
        self._all_rows = np.arange(count, dtype=np.intp)
        # Per-lane prefetch window [start, end) of counter values whose
        # uniforms sit in ``_buf``; start == end == 0 marks it empty.
        self._buf = np.zeros((count, _PHILOX_BLOCK), dtype=np.float64)
        self._buf_start = np.zeros(count, dtype=np.uint64)
        self._buf_end = np.zeros(count, dtype=np.uint64)

    # -- vectorized draw API ------------------------------------------
    def _rows(self, rows: Optional[np.ndarray]) -> np.ndarray:
        if rows is None:
            return self._all_rows
        return np.asarray(rows, dtype=np.intp)

    def _refill(self, rows: np.ndarray) -> None:
        """Prefetch the next block of draws for ``rows`` from their cursors."""
        counters = (
            self._cursors[rows, None]
            + np.arange(_PHILOX_BLOCK, dtype=np.uint64)[None, :]
        )
        episodes = np.broadcast_to(self._episodes[rows, None], counters.shape)
        self._buf[rows] = _philox_uniforms(episodes, counters, self._round_keys)
        self._buf_start[rows] = self._cursors[rows]
        self._buf_end[rows] = counters[:, -1] + np.uint64(1)

    def uniforms(self, rows: Optional[np.ndarray] = None) -> np.ndarray:
        """One uniform in [0, 1) per requested lane; advances their cursors."""
        rows = self._rows(rows)
        cursors = self._cursors[rows]
        stale = (cursors < self._buf_start[rows]) | (cursors >= self._buf_end[rows])
        if stale.any():
            self._refill(rows[stale])
        offsets = (cursors - self._buf_start[rows]).astype(np.intp)
        draws = self._buf[rows, offsets]
        self._cursors[rows] = cursors + np.uint64(1)
        return draws

    def uniforms_block(self, rows: np.ndarray, counts: np.ndarray) -> np.ndarray:
        """``counts[i]`` consecutive uniforms for lane ``rows[i]`` in one call.

        Returns a ``(len(rows), counts.max())`` array whose row ``i``
        holds lane ``i``'s next ``counts[i]`` draws in cursor order
        (entries beyond ``counts[i]`` are unspecified padding).  Lane
        ``i``'s cursor advances by ``counts[i]``, so the draws — and the
        final cursor positions — are exactly what ``counts[i]``
        successive :meth:`uniforms` calls on that lane would produce.
        ``counts`` must not exceed ``_PHILOX_BLOCK``; a scalar ``counts``
        applies to every requested lane.
        """
        rows = np.asarray(rows, dtype=np.intp)
        if np.isscalar(counts) or np.ndim(counts) == 0:
            width = int(counts)
            counts = np.uint64(width)
        else:
            counts = np.asarray(counts, dtype=np.uint64)
            width = int(counts.max()) if counts.size else 0
        cursors = self._cursors[rows]
        stale = (cursors < self._buf_start[rows]) | (
            cursors + counts > self._buf_end[rows]
        )
        if stale.any():
            self._refill(rows[stale])
        base = (self._cursors[rows] - self._buf_start[rows]).astype(np.intp)
        offsets = base[:, None] + np.arange(width, dtype=np.intp)[None, :]
        # Clamp the padding columns of short lanes inside the window
        # (their values are never consumed).
        draws = self._buf[rows[:, None], np.minimum(offsets, _PHILOX_BLOCK - 1)]
        self._cursors[rows] = cursors + counts
        return draws

    def poisson(
        self, lam: Union[float, np.ndarray], rows: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """One Poisson draw per requested lane (one uniform consumed each)."""
        return _poisson_from_uniform(self.uniforms(rows), lam)

    def integers(self, upper: int, rows: Optional[np.ndarray] = None) -> np.ndarray:
        """One integer in [0, upper) per requested lane (floor of a uniform)."""
        return np.minimum(
            (self.uniforms(rows) * upper).astype(np.int64), upper - 1
        )

    def idle_poisson(
        self,
        rows: np.ndarray,
        counts: np.ndarray,
        lam: np.ndarray,
        term: np.ndarray,
    ) -> Optional[Tuple[np.ndarray, int]]:
        """Fused native idle sampling for the simulator's hot path.

        One C call draws each multi-core ``(lane, level)`` cell's uniform
        (consecutive cursors per lane, level order — the exact scalar
        consumption sequence) and inverts the Poisson CDF, returning the
        clamped draws matrix and the fired-cell count, and advancing the
        requested lanes' cursors.  Returns ``None`` when the native
        sampler is unavailable or failed its load-time bit-identity
        self-check; callers then run the numpy path, which produces the
        same values.  The draws matrix is a reused workspace — scatter or
        copy it before the next call.

        ``term`` must be ``np.exp(-lam)`` computed by the *caller* in
        numpy: the sampler never calls the C library's ``exp``, whose
        rounding may differ from numpy's by an ulp.
        """
        kernel = _native_idle_kernel()
        if kernel is None:
            return None
        rows = np.asarray(rows, dtype=np.intp)
        draws, ndraws, fired = kernel.sample(
            self._episodes[rows],
            self._cursors[rows],
            counts,
            lam,
            term,
            self._key0,
            self._key1,
        )
        self._cursors[rows] += ndraws
        return draws, fired

    # -- lane / shard views -------------------------------------------
    def lane(self, index: int) -> "PhiloxLane":
        return PhiloxLane(self, int(index))

    def select(self, indices: Union[Sequence[int], np.ndarray]) -> "PhiloxStreams":
        """A stream set for a subset of lanes (keeps global episode ids).

        The view copies cursor values (lanes never share draw state
        across objects — they don't need to, the streams are pure
        functions of episode and cursor), so shard workers can build it
        from a fresh derivation and still match the full batch exactly.
        """
        indices = np.asarray(indices, dtype=np.intp)
        view = object.__new__(PhiloxStreams)
        view.base_seed = self.base_seed
        view.domain = self.domain
        view._episodes = np.ascontiguousarray(self._episodes[indices])
        view._cursors = np.ascontiguousarray(self._cursors[indices])
        view._key0 = self._key0
        view._key1 = self._key1
        view._round_keys = self._round_keys
        # Fresh (empty) prefetch window: the first draw refills it; the
        # values are the same pure function of (episode, counter).
        view._init_buffers()
        return view

    def __len__(self) -> int:
        return int(self._episodes.shape[0])

    def __getitem__(self, index):
        if isinstance(index, slice):
            return self.select(np.arange(len(self))[index])
        return self.lane(index)

    def __iter__(self):
        return (self.lane(i) for i in range(len(self)))

    def state(self) -> dict:
        """Positions of every lane (the diff harness asserts on these)."""
        return {
            "family": self.family,
            "domain": self.domain,
            "base_seed": self.base_seed,
            "episodes": self._episodes.tolist(),
            "cursors": self._cursors.tolist(),
        }


class PhiloxLane:
    """Single-lane view of a :class:`PhiloxStreams` (shared cursor storage).

    Implements the subset of the ``np.random.Generator`` API the
    simulator and policy consume.  Every draw routes through the parent's
    vectorized helpers on a 1-element row set, which is what guarantees
    scalar replays reproduce batched draws bit for bit.
    """

    family = "philox"

    def __init__(self, streams: PhiloxStreams, index: int) -> None:
        if not 0 <= index < len(streams):
            raise IndexError(
                f"lane index {index} out of range for {len(streams)} lanes"
            )
        self._streams = streams
        self._index = index
        self._rows = np.array([index], dtype=np.intp)

    @property
    def streams(self) -> PhiloxStreams:
        return self._streams

    @property
    def episode(self) -> int:
        return int(self._streams._episodes[self._index])

    @property
    def cursor(self) -> int:
        return int(self._streams._cursors[self._index])

    def random(self) -> float:
        return float(self._streams.uniforms(self._rows)[0])

    def poisson(self, lam: float) -> int:
        return int(self._streams.poisson(lam, self._rows)[0])

    def integers(self, upper: int) -> int:
        return int(self._streams.integers(int(upper), self._rows)[0])

    def state(self) -> dict:
        """Stream position (same role as ``Generator.bit_generator.state``)."""
        return {
            "family": self.family,
            "domain": self._streams.domain,
            "base_seed": self._streams.base_seed,
            "episode": self.episode,
            "cursor": self.cursor,
        }


def derive_philox_streams(
    base_seed: int, count: int
) -> Tuple[PhiloxStreams, PhiloxStreams]:
    """The Philox counterpart of ``rollout.derive_episode_streams``.

    Returns ``(episode_streams, action_streams)`` over episodes
    ``0..count-1``, keyed under distinct domains so environment and
    exploration draws never collide.
    """
    return (
        PhiloxStreams(base_seed, count, domain="env"),
        PhiloxStreams(base_seed, count, domain="act"),
    )
