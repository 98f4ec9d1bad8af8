"""Compile-at-first-use loader for the fused GRU micro-kernel.

The C source lives next to this module and is compiled into a per-user
cache directory the first time a native kernel is requested (or when
:func:`build` is invoked explicitly, e.g. from CI).  Everything degrades
gracefully: no compiler, a failed compile, or ``REPRO_DISABLE_NATIVE=1``
simply makes :func:`native_available` return ``False`` and callers fall
back to the pure-numpy paths — the native kernel is an opt-in
acceleration, never a correctness dependency.

Numerical contract: the fused kernel computes the same GRU/head
arithmetic in a different summation order than the numpy path, so its
results agree to ~1e-12 relative (verified by the differential harness)
but are **not** bit-identical.  Configurations that must replay the
pinned golden traces keep ``kernel="numpy"``.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import subprocess
import tempfile
from pathlib import Path
from typing import Optional, Tuple

import numpy as np

_SOURCE = Path(__file__).with_name("_gru_kernel.c")
_PHILOX_SOURCE = Path(__file__).with_name("_philox_kernel.c")
_DOUBLE_P = ctypes.POINTER(ctypes.c_double)
_UINT64_P = ctypes.POINTER(ctypes.c_uint64)
_INT64_P = ctypes.POINTER(ctypes.c_int64)

# Flag sets tried in order; the first compile that succeeds wins.  The
# leading set relies on the kernel using no unsafe constructs (finite
# gate pre-activations only feed exp/tanh after clamping by sigmoid's
# range) — the conservative sets keep slower boxes working.
_FLAG_SETS = (
    # The unsafe-math trio is what lets GCC vectorize the exp/tanh gate
    # loops through libmvec (measured ~2x on the whole fused step); the
    # kernel feeds those functions finite pre-activations only, and the
    # native path's contract is allclose, not bit-identity, so the
    # reassociation freedom is within budget.
    ["-O3", "-march=native", "-mprefer-vector-width=512", "-fno-math-errno",
     "-ffinite-math-only", "-funsafe-math-optimizations", "-fno-trapping-math",
     "-fPIC", "-shared"],
    ["-O3", "-fno-math-errno", "-fPIC", "-shared"],
    ["-O2", "-fPIC", "-shared"],
)

# The Philox sampler's contract is BIT-IDENTITY with the numpy streams
# (golden traces are pinned on them), so its translation unit must not
# see any unsafe-math flag and disables FP contraction — an FMA changes
# roundings.  The contract-free fallback set exists for compilers without
# -ffp-contract; rng's load-time self-check rejects any build that
# deviates, so a reordering compiler degrades to numpy, never to wrong
# streams.
_PHILOX_FLAG_SETS = (
    ["-O2", "-ffp-contract=off", "-fPIC", "-shared"],
    ["-O2", "-fPIC", "-shared"],
)

_lib: Optional[ctypes.CDLL] = None
_load_failed: Optional[str] = None
_philox_lib: Optional[ctypes.CDLL] = None
_philox_load_failed: Optional[str] = None


def _cache_dir() -> Path:
    override = os.environ.get("REPRO_KERNEL_CACHE")
    if override:
        return Path(override)
    base = os.environ.get("XDG_CACHE_HOME") or os.path.join(
        os.path.expanduser("~"), ".cache"
    )
    return Path(base) / "repro-kernels"


def _compile(
    source: Path,
    cache: Path,
    flag_sets=_FLAG_SETS,
    stem: str = "gru_kernel",
) -> Path:
    # Compile and link are SEPARATE steps on purpose: passing any
    # unsafe-math flag to the *link* makes GCC pull in crtfastmath.o,
    # whose load-time constructor flips the process-wide FTZ/DAZ bits —
    # dlopen'ing the kernel would silently change denormal arithmetic in
    # every numpy op afterwards.  Optimization flags only ever apply to
    # the object-file step; the link step is flag-free.
    text = source.read_bytes()
    compilers = [c for c in (os.environ.get("CC"), "cc", "gcc", "clang") if c]
    errors = []
    for compiler in compilers:
        for flags in flag_sets:
            compile_flags = [f for f in flags if f != "-shared"]
            tag = hashlib.sha256(
                text + repr((compiler, flags, "split-link")).encode()
            ).hexdigest()[:16]
            target = cache / f"{stem}_{tag}.so"
            if target.exists():
                return target
            cache.mkdir(parents=True, exist_ok=True)
            fd, tmp_obj = tempfile.mkstemp(suffix=".o", dir=cache)
            os.close(fd)
            fd, tmp = tempfile.mkstemp(suffix=".so", dir=cache)
            os.close(fd)
            steps = (
                [compiler, *compile_flags, "-c", "-o", tmp_obj, str(source)],
                [compiler, "-shared", "-o", tmp, tmp_obj, "-lm"],
            )
            failed = None
            for cmd in steps:
                try:
                    proc = subprocess.run(
                        cmd, capture_output=True, text=True, timeout=120
                    )
                except (OSError, subprocess.TimeoutExpired) as exc:
                    failed = f"{compiler}: {exc}"
                    break
                if proc.returncode != 0:
                    failed = f"{' '.join(cmd)}: {proc.stderr.strip()[:500]}"
                    break
            os.unlink(tmp_obj)
            if failed is not None:
                errors.append(failed)
                os.unlink(tmp)
                continue
            os.replace(tmp, target)  # atomic: concurrent builders agree
            return target
    raise RuntimeError(
        f"no compiler produced the {stem}; tried:\n" + "\n".join(errors)
    )


def _bind(lib: ctypes.CDLL) -> ctypes.CDLL:
    # ctypes defaults integer args to c_int — explicit signatures are
    # load-bearing (c_long mismatches segfault, they don't error).
    lib.repro_gru_forward.restype = None
    lib.repro_gru_forward.argtypes = [_DOUBLE_P] * 7 + [ctypes.c_long] * 4
    lib.repro_gru_policy_forward.restype = None
    lib.repro_gru_policy_forward.argtypes = [_DOUBLE_P] * 13 + [ctypes.c_long] * 5
    return lib


def _bind_philox(lib: ctypes.CDLL) -> ctypes.CDLL:
    lib.repro_philox_idle.restype = ctypes.c_long
    lib.repro_philox_idle.argtypes = [
        _UINT64_P, _UINT64_P, _UINT64_P,  # episodes, cursors, ndraws
        _INT64_P, _DOUBLE_P, _DOUBLE_P,   # counts, lam, term
        _INT64_P, _DOUBLE_P,              # idle, uscratch
        ctypes.c_uint64, ctypes.c_uint64, ctypes.c_long, ctypes.c_long,
    ]
    return lib


def build(force: bool = False) -> Path:
    """Compile the kernels now (CI hook); returns the GRU shared-object path."""
    cache = _cache_dir()
    if force:
        for stale in cache.glob("gru_kernel_*.so"):
            stale.unlink()
        for stale in cache.glob("philox_kernel_*.so"):
            stale.unlink()
    _compile(_PHILOX_SOURCE, cache, _PHILOX_FLAG_SETS, "philox_kernel")
    return _compile(_SOURCE, cache)


def load_kernel() -> Optional[ctypes.CDLL]:
    """The bound shared library, or ``None`` when native is unavailable."""
    global _lib, _load_failed
    if os.environ.get("REPRO_DISABLE_NATIVE") == "1":
        return None
    if _lib is not None:
        return _lib
    if _load_failed is not None:
        return None
    try:
        _lib = _bind(ctypes.CDLL(str(_compile(_SOURCE, _cache_dir()))))
    except (RuntimeError, OSError) as exc:
        _load_failed = str(exc)
        return None
    return _lib


def load_philox_kernel() -> Optional[ctypes.CDLL]:
    """The strict-float Philox sampler library, or ``None`` if unavailable.

    Gated by the same ``REPRO_DISABLE_NATIVE`` switch as the GRU kernel.
    Callers (``repro.utils.rng``) additionally run a bit-identity
    self-check before trusting it.
    """
    global _philox_lib, _philox_load_failed
    if os.environ.get("REPRO_DISABLE_NATIVE") == "1":
        return None
    if _philox_lib is not None:
        return _philox_lib
    if _philox_load_failed is not None:
        return None
    try:
        _philox_lib = _bind_philox(
            ctypes.CDLL(
                str(
                    _compile(
                        _PHILOX_SOURCE,
                        _cache_dir(),
                        _PHILOX_FLAG_SETS,
                        "philox_kernel",
                    )
                )
            )
        )
    except (RuntimeError, OSError) as exc:
        _philox_load_failed = str(exc)
        return None
    return _philox_lib


def native_available() -> bool:
    return load_kernel() is not None


def native_unavailable_reason() -> Optional[str]:
    if os.environ.get("REPRO_DISABLE_NATIVE") == "1":
        return "REPRO_DISABLE_NATIVE=1"
    load_kernel()
    return _load_failed


def _ptr(array: np.ndarray):
    return array.ctypes.data_as(_DOUBLE_P)


def _padded_width(hidden: int) -> int:
    return ((3 * hidden + 15) // 16) * 16


class NativeGRUKernel:
    """Packed-weight wrapper for the GRU-only entry point.

    Owns the packed ``wx``/``wh``/``bias`` copies for one
    :class:`~repro.nn.rnn.GRUCell` and revalidates them against the
    cell's parameter versions on every call, so weight updates (optimizer
    steps, ``load_state_dict``, worker-pool delta broadcasts) repack
    lazily without any explicit invalidation hook.

    Repacking writes *in place* into packed arrays allocated once: the
    workspace below caches raw ctypes pointers into them (pointer
    extraction measured ~2us per array per call, which at 13 arrays
    rivalled the kernel itself), and in-place repacks keep every cached
    pointer valid.
    """

    def __init__(self, cell) -> None:
        self._cell = cell
        self._lib = load_kernel()
        if self._lib is None:
            raise RuntimeError(
                f"native kernel unavailable: {native_unavailable_reason()}"
            )
        hidden = cell.hidden_size
        self._padded = _padded_width(hidden)
        self._wx = np.zeros((cell.input_size, self._padded))
        self._wh = np.zeros((hidden, self._padded))
        self._bias = np.zeros(self._padded)
        self._versions: Optional[Tuple[int, ...]] = None
        self._live_workspace: Optional[_GRUWorkspace] = None
        self._repack()

    def _parameter_versions(self) -> Tuple[int, ...]:
        cell = self._cell
        return (
            cell.w_xr.version, cell.w_hr.version, cell.b_r.version,
            cell.w_xz.version, cell.w_hz.version, cell.b_z.version,
            cell.w_xn.version, cell.w_hn.version, cell.b_n.version,
        )

    def _repack(self) -> None:
        cell = self._cell
        hidden = cell.hidden_size
        for packed, r, z, n in (
            (self._wx, cell.w_xr, cell.w_xz, cell.w_xn),
            (self._wh, cell.w_hr, cell.w_hz, cell.w_hn),
        ):
            packed[:, 0:hidden] = r.data
            packed[:, hidden:2 * hidden] = z.data
            packed[:, 2 * hidden:3 * hidden] = n.data
        self._bias[0:hidden] = cell.b_r.data
        self._bias[hidden:2 * hidden] = cell.b_z.data
        self._bias[2 * hidden:3 * hidden] = cell.b_n.data
        self._versions = self._parameter_versions()

    def _ensure_packed(self) -> None:
        if self._versions != self._parameter_versions():
            self._repack()

    def _workspace(self, batch: int) -> "_GRUWorkspace":
        # One live workspace, replaced when the batch size changes (the
        # policy of GRUCell's numpy gate buffers): a server behind a
        # timed flush sees arbitrary batch sizes and must not keep a
        # buffer set for each.
        workspace = self._live_workspace
        if workspace is None or workspace.x.shape[0] != batch:
            workspace = self._live_workspace = _GRUWorkspace(self, batch)
        return workspace

    def forward(self, x: np.ndarray, h: np.ndarray) -> np.ndarray:
        self._ensure_packed()
        workspace = self._workspace(h.shape[0])
        np.copyto(workspace.x, x)
        np.copyto(workspace.h, h)
        self._lib.repro_gru_forward(*workspace.args)
        return workspace.h_out.copy()


class _GRUWorkspace:
    """Staging buffers + prebuilt ctypes args for one batch size."""

    def __init__(self, kernel: NativeGRUKernel, batch: int) -> None:
        cell = kernel._cell
        self.x = np.empty((batch, cell.input_size))
        self.h = np.empty((batch, cell.hidden_size))
        self.h_out = np.empty((batch, cell.hidden_size))
        self.scratch = np.empty((batch, 2 * kernel._padded))
        self.args = (
            _ptr(self.x), _ptr(self.h),
            _ptr(kernel._wx), _ptr(kernel._wh), _ptr(kernel._bias),
            _ptr(self.h_out), _ptr(self.scratch),
            batch, cell.input_size, cell.hidden_size, kernel._padded,
        )


class NativeGRUPolicyKernel:
    """Packed-weight wrapper for the fused GRU + heads entry point.

    Packs the policy head and value head into one ``(A+1, H)`` row block
    behind the GRU gate weights; one call returns logits, log-probs,
    normalised probabilities, values and the next hidden state for the
    whole batch.  Inputs are staged into the live workspace (one, rebuilt
    when the batch size changes) with a prebuilt argument list; outputs
    are copied out fresh (they escape into trajectories and session
    tables).
    """

    def __init__(self, policy) -> None:
        self._policy = policy
        self._gru = NativeGRUKernel(policy.gru)
        self._lib = self._gru._lib
        num_actions = policy.config.num_actions
        if num_actions > 256:
            raise RuntimeError(
                f"fused kernel supports at most 256 actions, got {num_actions}"
            )
        hidden = policy.config.hidden_size
        self._whead = np.zeros((num_actions + 1, hidden))
        self._bhead = np.zeros(num_actions + 1)
        self._versions: Optional[Tuple[int, ...]] = None
        self._live_workspace: Optional[_PolicyWorkspace] = None
        self._repack_heads()

    def _head_versions(self) -> Tuple[int, ...]:
        policy = self._policy
        return (
            policy.policy_head.weight.version, policy.policy_head.bias.version,
            policy.value_head.weight.version, policy.value_head.bias.version,
        )

    def _repack_heads(self) -> None:
        policy = self._policy
        num_actions = policy.config.num_actions
        self._whead[:num_actions] = policy.policy_head.weight.data.T
        self._whead[num_actions:] = policy.value_head.weight.data.T
        self._bhead[:num_actions] = policy.policy_head.bias.data
        self._bhead[num_actions:] = policy.value_head.bias.data
        self._versions = self._head_versions()

    def _workspace(self, batch: int) -> "_PolicyWorkspace":
        workspace = self._live_workspace
        if workspace is None or workspace.x.shape[0] != batch:
            workspace = self._live_workspace = _PolicyWorkspace(self, batch)
        return workspace

    def forward(
        self, observations: np.ndarray, hiddens: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Returns ``(logits, log_probs, probs, values, next_hiddens)``."""
        self._gru._ensure_packed()
        if self._versions != self._head_versions():
            self._repack_heads()
        workspace = self._workspace(hiddens.shape[0])
        np.copyto(workspace.x, observations)
        np.copyto(workspace.h, hiddens)
        self._lib.repro_gru_policy_forward(*workspace.args)
        return (
            workspace.logits.copy(),
            workspace.log_probs.copy(),
            workspace.probs.copy(),
            workspace.values.copy(),
            workspace.h_out.copy(),
        )


class _PolicyWorkspace:
    """Staging buffers + prebuilt ctypes args for one batch size."""

    def __init__(self, kernel: NativeGRUPolicyKernel, batch: int) -> None:
        policy = kernel._policy
        gru = kernel._gru
        obs_dim = policy.config.observation_dim
        hidden = policy.config.hidden_size
        num_actions = policy.config.num_actions
        self.x = np.empty((batch, obs_dim))
        self.h = np.empty((batch, hidden))
        self.h_out = np.empty((batch, hidden))
        self.logits = np.empty((batch, num_actions))
        self.log_probs = np.empty((batch, num_actions))
        self.probs = np.empty((batch, num_actions))
        self.values = np.empty(batch)
        self.scratch = np.empty((batch, 2 * gru._padded))
        self.args = (
            _ptr(self.x), _ptr(self.h),
            _ptr(gru._wx), _ptr(gru._wh), _ptr(gru._bias),
            _ptr(kernel._whead), _ptr(kernel._bhead),
            _ptr(self.h_out), _ptr(self.logits), _ptr(self.log_probs),
            _ptr(self.probs), _ptr(self.values), _ptr(self.scratch),
            batch, obs_dim, hidden, num_actions, gru._padded,
        )


class NativePhiloxIdleKernel:
    """ctypes wrapper for the fused Philox idle sampler.

    Stateless between calls apart from per-shape output workspaces; the
    keystream key travels with each call, so one wrapper serves every
    :class:`~repro.utils.rng.PhiloxStreams` instance in the process.
    Returned arrays are workspace views, valid until the next call with
    the same shape — callers copy (or scatter) before returning.
    """

    def __init__(self) -> None:
        lib = load_philox_kernel()
        if lib is None:
            raise RuntimeError(
                f"philox sampler unavailable: {_philox_load_failed}"
            )
        self._lib = lib
        self._workspaces: dict = {}

    def _workspace(self, n: int, levels: int) -> "_PhiloxIdleWorkspace":
        workspace = self._workspaces.get((n, levels))
        if workspace is None:
            workspace = _PhiloxIdleWorkspace(n, levels)
            self._workspaces[(n, levels)] = workspace
        return workspace

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
        workspace = self._workspace(n, levels)
        np.copyto(workspace.episodes, episodes)
        np.copyto(workspace.cursors, cursors)
        np.copyto(workspace.counts, counts)
        np.copyto(workspace.lam, lam)
        np.copyto(workspace.term, term)
        fired = self._lib.repro_philox_idle(*workspace.args, key0, key1, n, levels)
        return workspace.idle, workspace.ndraws, int(fired)


class _PhiloxIdleWorkspace:
    """Staging/output buffers + cached pointers for one (lanes, levels).

    Pointer extraction (~1-2us per array per call) rivals the sampler
    itself at rollout batch sizes, so inputs are staged into fixed
    buffers whose ctypes pointers are built once; only the two key words
    travel per call.
    """

    def __init__(self, n: int, levels: int) -> None:
        self.episodes = np.empty(n, dtype=np.uint64)
        self.cursors = np.empty(n, dtype=np.uint64)
        self.counts = np.empty((n, levels), dtype=np.int64)
        self.lam = np.empty((n, levels))
        self.term = np.empty((n, levels))
        self.idle = np.empty((n, levels), dtype=np.int64)
        self.ndraws = np.empty(n, dtype=np.uint64)
        self.uscratch = np.empty((n, levels))
        self.args = (
            self.episodes.ctypes.data_as(_UINT64_P),
            self.cursors.ctypes.data_as(_UINT64_P),
            self.ndraws.ctypes.data_as(_UINT64_P),
            self.counts.ctypes.data_as(_INT64_P),
            _ptr(self.lam),
            _ptr(self.term),
            self.idle.ctypes.data_as(_INT64_P),
            _ptr(self.uscratch),
        )
