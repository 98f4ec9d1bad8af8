"""Every callable the ledger benchmark times by name still exists.

``benchmarks/ledger/ledger_trace.py`` measures layers by patching public
callables of ``repro`` looked up by dotted name, and *skips* a target it
cannot resolve — so a rename in ``src/`` would not fail the benchmark,
it would make a layer silently read 0.  This test turns a rename into a
conscious edit: either the benchmark's target list follows (its own PR),
or the name goes on ``KNOWN_GONE`` below with the PR that removed it.
"""

from __future__ import annotations

import dataclasses
import importlib.util
from pathlib import Path

import pytest

from repro.drl.policy import PolicyConfig

LEDGER_TRACE = Path(__file__).resolve().parents[1] / "benchmarks" / "ledger" / "ledger_trace.py"

# Dotted targets that are gone on purpose; each costs its layer a span.
KNOWN_GONE: frozenset = frozenset()


def _ledger_trace():
    spec = importlib.util.spec_from_file_location("_ledger_trace_readonly", LEDGER_TRACE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_patch_target_resolves():
    ledger = _ledger_trace()
    unresolved = set()
    for _name, target, _kind in ledger.PATCH_TARGETS:
        try:
            _owner, _attribute, raw = ledger._resolve(target)
        except (ImportError, AttributeError, KeyError):
            unresolved.add(target)
        else:
            assert callable(getattr(raw, "__func__", raw)), target
    assert unresolved == KNOWN_GONE


def test_frozen_stamp_still_resolves_the_kernel_name():
    """``run.py``'s ``stamp()`` reads ``PolicyConfig().kernel``.

    The name survives as a constant for that one frozen reader; it is no
    longer something a caller can set.
    """
    assert PolicyConfig().kernel == "numpy"
    assert [f.name for f in dataclasses.fields(PolicyConfig)] == [
        "observation_dim", "hidden_size", "num_actions",
    ]
    with pytest.raises(TypeError):
        PolicyConfig(kernel="native")
