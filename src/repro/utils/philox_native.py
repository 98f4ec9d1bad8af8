"""Compile-at-first-use loader for the repository's strict-float C kernels.

Four C files are built by :func:`build` into a per-user cache directory
the first time they are needed:

* ``_philox_kernel.c`` next to this module (the fused Philox idle
  sampler and ``PhiloxStreams.uniforms``' per-lane draws, on one
  keystream), wrapped here by :class:`NativePhiloxIdleKernel`; its caller
  :mod:`repro.utils.rng` reports through ``idle_sampler_status()``;
* ``repro/storage/_sim_kernel.c`` (one simulator interval for every row
  of a ``VectorSimulatorState``), loaded by
  :mod:`repro.storage.vector_state`, which reports through
  ``simulator_kernel_status()``;
* ``repro/nn/_gru_kernel.c`` (the elementwise glue of a GRU sequence
  node's steps and its per-step weight-gradient sums), loaded by
  :mod:`repro.nn.rnn`, which reports through ``gru_kernel_status()``;
* ``repro/nn/_dense_kernel.c`` (the elementwise glue of a QBN training
  step, ``mse_loss``'s backward and Adam's update), loaded by
  :mod:`repro.nn.dense_native`, which reports through
  ``dense_kernel_status()``.

``python -m repro.utils.philox_native`` builds the Philox sampler ahead
of time (prints the shared-object path, exits non-zero when no compiler
can produce it).  Each caller runs a bit-identity self-check against its
numpy specification before trusting a library.  No compiler, a failed
compile or ``REPRO_DISABLE_NATIVE=1`` leave that specification in
charge, which computes the same values — the kernels are accelerations,
never correctness dependencies.

Deployment settings: ``REPRO_DISABLE_NATIVE=1`` turns every kernel off,
``REPRO_KERNEL_CACHE`` relocates the shared-object cache, ``CC`` names
the compiler tried first.
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

_SOURCE = Path(__file__).with_name("_philox_kernel.c")
_DOUBLE_P = ctypes.POINTER(ctypes.c_double)
_UINT64_P = ctypes.POINTER(ctypes.c_uint64)
_INT64_P = ctypes.POINTER(ctypes.c_int64)

# Flag sets tried in order; the first compile that succeeds wins.  Each
# kernel's contract is BIT-IDENTITY with its numpy specification (golden
# traces are pinned on them), so no translation unit may see any
# unsafe-math flag and disables FP contraction — an FMA changes
# roundings.  The contract-free fallback set exists for compilers without
# -ffp-contract; the load-time self-checks reject any build that
# deviates, so a reordering compiler degrades to numpy, never to wrong
# streams.  ("-shared" is listed because the cache tag hashes the set; the
# object-file step drops it.)
_FLAG_SETS = (
    ["-O2", "-ffp-contract=off", "-fPIC", "-shared"],
    ["-O2", "-fPIC", "-shared"],
)


def _cache_dir() -> Path:
    override = os.environ.get("REPRO_KERNEL_CACHE")
    if override:
        return Path(override)
    base = os.environ.get("XDG_CACHE_HOME") or os.path.join(
        os.path.expanduser("~"), ".cache"
    )
    return Path(base) / "repro-kernels"


def build(source: Path = _SOURCE) -> Path:
    """Compile ``source`` unless cached; returns the shared-object path.

    Raises ``RuntimeError`` naming every attempt when no compiler
    produced it.
    """
    # Compile and link are SEPARATE steps on purpose: passing any
    # unsafe-math flag to the *link* makes GCC pull in crtfastmath.o,
    # whose load-time constructor flips the process-wide FTZ/DAZ bits —
    # dlopen'ing the kernel would silently change denormal arithmetic in
    # every numpy op afterwards.  Optimization flags only ever apply to
    # the object-file step; the link step is flag-free.
    cache = _cache_dir()
    text = source.read_bytes()
    name = source.stem.lstrip("_")
    compilers = [c for c in (os.environ.get("CC"), "cc", "gcc", "clang") if c]
    errors = []
    for compiler in compilers:
        for flags in _FLAG_SETS:
            compile_flags = [f for f in flags if f != "-shared"]
            tag = hashlib.sha256(
                text + repr((compiler, flags, "split-link")).encode()
            ).hexdigest()[:16]
            target = cache / f"{name}_{tag}.so"
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
        f"no compiler produced the {name}; tried:\n" + "\n".join(errors)
    )


def load(source: Path = _SOURCE) -> ctypes.CDLL:
    """The built ``source`` loaded into the process.

    Raises ``RuntimeError`` when ``REPRO_DISABLE_NATIVE=1`` or no
    compiler produced it, ``OSError`` when the object cannot be loaded.
    """
    if os.environ.get("REPRO_DISABLE_NATIVE") == "1":
        raise RuntimeError("REPRO_DISABLE_NATIVE=1")
    return ctypes.CDLL(str(build(source)))


class NativePhiloxIdleKernel:
    """ctypes wrapper for the fused Philox idle sampler.

    Construction compiles (or finds cached) and loads the library; it
    raises ``RuntimeError`` when ``REPRO_DISABLE_NATIVE=1`` or no
    compiler produced it, ``OSError`` when the object cannot be loaded.
    Stateless between calls apart from one grow-only staging workspace;
    the keystream key travels with each call, so one wrapper serves every
    :class:`~repro.utils.rng.PhiloxStreams` instance in the process.
    :meth:`sample` returns workspace views, valid until the next call —
    callers copy (or scatter) before returning; :meth:`uniforms` returns
    a new array.
    """

    def __init__(self) -> None:
        lib = load()
        # ctypes defaults integer args to c_int — explicit signatures are
        # load-bearing (c_long mismatches segfault, they don't error).
        lib.repro_philox_idle.restype = ctypes.c_long
        lib.repro_philox_idle.argtypes = [
            _UINT64_P, _UINT64_P, _UINT64_P,  # episodes, cursors, ndraws
            _INT64_P, _DOUBLE_P, _DOUBLE_P,   # counts, lam, term
            _INT64_P, _DOUBLE_P,              # idle, uscratch
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
            episodes.ctypes.data, cursors.ctypes.data, out.ctypes.data,
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
    """Staging/output buffers + cached pointers for up to ``capacity`` lanes.

    Pointer extraction (~1-2us per array per call) rivals the sampler
    itself at rollout batch sizes, so inputs are staged into fixed
    buffers whose ctypes pointers are built once; only the two key words
    and the lane count travel per call.
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
        self.args = (
            self.episodes.ctypes.data_as(_UINT64_P),
            self.cursors.ctypes.data_as(_UINT64_P),
            self.ndraws.ctypes.data_as(_UINT64_P),
            self.counts.ctypes.data_as(_INT64_P),
            self.lam.ctypes.data_as(_DOUBLE_P),
            self.term.ctypes.data_as(_DOUBLE_P),
            self.idle.ctypes.data_as(_INT64_P),
            self.uscratch.ctypes.data_as(_DOUBLE_P),
        )


if __name__ == "__main__":
    print(build())
