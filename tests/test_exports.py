"""Every name a ``repro`` module lists in ``__all__`` resolves.

``__all__`` is what ``from repro.x import *`` and the package docs
promise; a name deleted or moved without its export entry fails here
rather than in a user's import.
"""

import importlib
import pkgutil

import pytest

import repro


def _modules_with_all():
    names = [repro.__name__] + [
        info.name
        for info in pkgutil.walk_packages(repro.__path__, prefix="repro.")
        if not info.name.endswith(".__main__")
    ]
    return [name for name in names if hasattr(importlib.import_module(name), "__all__")]


@pytest.mark.parametrize("module_name", _modules_with_all())
def test_every_export_resolves(module_name):
    module = importlib.import_module(module_name)
    missing = []
    for name in module.__all__:
        if hasattr(module, name):
            continue
        try:
            importlib.import_module(f"{module_name}.{name}")  # a submodule
        except ImportError:
            missing.append(name)
    assert not missing, f"{module_name}.__all__ names what it does not define: {missing}"
