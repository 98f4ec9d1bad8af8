"""The native layer: where every strict-float C kernel loads, self-checks
and reports.

Four C files are accelerations of numpy code that stays their
specification and their fallback:

============  ============================  ===============================================
name          source                        numpy specification
============  ============================  ===============================================
``philox``    ``utils/_philox_kernel.c``    ``rng._philox_idle_reference`` and
                                            ``rng._philox_uniforms`` (``PhiloxStreams``)
``simulator`` ``storage/_sim_kernel.c``     ``VectorSimulatorState``'s numpy passes and
                                            per-cell reference dispatch loop
``gru``       ``nn/_gru_kernel.c``          ``Unrolled._forward_numpy`` / ``_backward_numpy``
``dense``     ``nn/_dense_kernel.c``        the QBN node's, ``mse_loss``'s and ``Adam``'s
                                            numpy code
============  ============================  ===============================================

Each kernel module calls :func:`register` with its source, a ``wrap``
that turns the loaded library into its ctypes wrapper, and a ``runs()``
that drives the module's public API and returns snapshots of what it
wrote.  Its callers look the wrapper up with :func:`kernel` and run the
numpy code when it is ``None``.  A kernel is probed once per process, at
its first lookup: the library is built (:func:`build`) and loaded
(:func:`load`), then ``runs()`` is taken once with the kernel's slot
``None`` (the numpy specification) and once with the wrapper.  Equal
snapshots make the kernel ``"ready"``; otherwise its status is
``"disabled: self-check mismatch"``, and a failure to load or run reads
``"disabled: <exception>"``.  Disabled, every array holds the same
bytes, more slowly.  :func:`status` reports every kernel; ``python -m
repro.native`` builds, loads and self-checks them all, prints the
report and exits non-zero unless every kernel is ready.

Deployment settings: ``REPRO_DISABLE_NATIVE=1`` turns every kernel off,
``REPRO_KERNEL_CACHE`` relocates the shared-object cache (default
``~/.cache/repro-kernels``), ``CC`` names the compiler tried first.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import tempfile
from pathlib import Path
from typing import Any, Callable, Dict, List, NamedTuple

import numpy as np

from repro.errors import ReproError

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

# What loading a kernel or running its self-check raises when the kernel
# cannot serve: no compiler or REPRO_DISABLE_NATIVE=1 (RuntimeError), an
# unloadable object (OSError), a signature the library refuses
# (ctypes.ArgumentError), or a wrapper refusing the self-check's inputs.
_LOAD_ERRORS = (OSError, RuntimeError, ValueError, ctypes.ArgumentError, ReproError)


def _cache_dir() -> Path:
    override = os.environ.get("REPRO_KERNEL_CACHE")
    if override:
        return Path(override)
    base = os.environ.get("XDG_CACHE_HOME") or os.path.join(
        os.path.expanduser("~"), ".cache"
    )
    return Path(base) / "repro-kernels"


def build(source: Path) -> Path:
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
    import subprocess  # only a build needs it: ~8 ms off every ``import repro``

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


def load(source: Path) -> ctypes.CDLL:
    """The built ``source`` loaded into the process.

    Raises ``RuntimeError`` when ``REPRO_DISABLE_NATIVE=1`` or no
    compiler produced it, ``OSError`` when the object cannot be loaded.
    """
    if os.environ.get("REPRO_DISABLE_NATIVE") == "1":
        raise RuntimeError("REPRO_DISABLE_NATIVE=1")
    return ctypes.CDLL(str(build(source)))


def _address(array: np.ndarray) -> int:
    """The data address of an array.  ``array.ctypes.data`` builds a
    helper object per call; ctypes' view of a writable C-contiguous
    buffer costs less than half as much, and these addresses are taken
    ~30 times a QBN step and ~16 times a GRU sequence pass."""
    flags = array.flags
    if flags.c_contiguous and flags.writeable and array.size:
        return ctypes.addressof(ctypes.c_char.from_buffer(array))
    return array.ctypes.data


class _Kernel(NamedTuple):
    source: Path
    wrap: Callable[[ctypes.CDLL], Any]
    runs: Callable[[], List[Any]]


_registry: Dict[str, _Kernel] = {}
#: ``"ready"`` or ``"disabled: <reason>"`` for every kernel probed so far.
_status: Dict[str, str] = {}


class _Slots(dict):
    """Kernel name -> its self-checked wrapper, or ``None`` (the numpy
    specification); a name not yet probed is probed on its first lookup."""

    def __missing__(self, name: str) -> Any:
        source, wrap, runs = _registry[name]
        # The self-check's first run, and any lookup while it runs, sees
        # the specification.
        self[name], _status[name] = None, "disabled: self-check in progress"
        try:
            candidate = wrap(load(source))
            spec = runs()
            self[name] = candidate
            verdict = "ready" if runs() == spec else "disabled: self-check mismatch"
        except _LOAD_ERRORS as exc:
            verdict = f"disabled: {exc}"
        if verdict != "ready":
            self[name] = None
        _status[name] = verdict
        return self[name]


_kernels = _Slots()

#: ``kernel(name)``: the loaded and self-checked wrapper of kernel
#: ``name``, or ``None`` when the numpy specification runs instead.  The
#: dict's own lookup, so a hot path pays no more than one subscript.
kernel = _kernels.__getitem__


def register(
    name: str, source: Path, wrap: Callable[[ctypes.CDLL], Any], runs: Callable[[], List[Any]]
) -> None:
    """Declare the kernel ``name``: its C ``source``, the ``wrap`` that
    builds its ctypes wrapper from the loaded library, and the ``runs()``
    whose snapshots its self-check compares."""
    _registry[name] = _Kernel(source, wrap, runs)


def status() -> Dict[str, str]:
    """``{name: "ready" | "disabled: <reason>"}`` for every registered
    kernel, probing those not probed yet."""
    for name in _registry:
        kernel(name)
    return {name: _status[name] for name in _registry}
