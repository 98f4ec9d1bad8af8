"""The native layer: every kernel registered, shipped, ready and reported."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro import native
from conftest import native_or_skip, unprobed

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"


def _sources():
    return sorted(entry.source.relative_to(SRC) for entry in native._registry.values())


@pytest.mark.parametrize("name", native.status())
def test_every_kernel_is_ready(name):
    """A kernel that fails its self-check fails here, not only by skipping
    its bit-identity tests: with numpy in charge they would compare the
    specification with itself."""
    assert native_or_skip(name) is not None
    assert native.status()[name] == "ready"


@pytest.mark.parametrize("name", native.status())
def test_the_environment_turns_each_kernel_off_by_name(monkeypatch, name):
    unprobed(monkeypatch, name)
    monkeypatch.setenv("REPRO_DISABLE_NATIVE", "1")
    assert native.kernel(name) is None
    assert native.status()[name] == "disabled: REPRO_DISABLE_NATIVE=1"


def test_every_c_source_is_a_registered_kernel():
    assert _sources() == sorted(path.relative_to(SRC) for path in SRC.rglob("*.c"))
    assert len(_sources()) == 4


def test_setup_build_ships_every_kernel_source(tmp_path):
    """An installed package without a kernel's source runs its numpy
    specification: the simulator step ~30x slower."""
    pytest.importorskip("setuptools")
    subprocess.run(
        [sys.executable, "setup.py", "-q", "build", "--build-base", str(tmp_path)],
        cwd=ROOT, check=True, capture_output=True, timeout=300,
    )
    lib = tmp_path / "lib"
    assert set(_sources()) <= {path.relative_to(lib) for path in lib.rglob("*.c")}


def test_the_command_reports_every_kernel_and_exits_on_readiness():
    """``python -m repro.native``, warnings as errors: runpy must not find
    the module loaded before it runs."""
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-m", "repro.native"],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True, text=True, timeout=300,
    )
    assert proc.stderr == ""
    lines, report = proc.stdout.splitlines(), native.status()
    for name, verdict in report.items():
        # A failed compile's reason goes on to name the temporary files.
        assert f"{name}: {verdict.splitlines()[0]}" in lines
    assert proc.returncode == (0 if set(report.values()) == {"ready"} else 1)
