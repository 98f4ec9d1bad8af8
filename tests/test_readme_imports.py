"""Every ``from repro… import …`` in a README ``python`` block resolves.

The README's snippets are the library's advertised surface; a name that
is deleted or moved must be caught here, not by a reader.
"""

import ast
import importlib
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"
PYTHON_BLOCK = re.compile(r"^```python\n(.*?)^```", re.DOTALL | re.MULTILINE)
REPRO_IMPORT = re.compile(r"^from repro[\w.]* import (?:\([^)]*\)|[^\n]*)", re.MULTILINE)


def _readme_imports():
    for block in PYTHON_BLOCK.findall(README.read_text(encoding="utf-8")):
        for statement in REPRO_IMPORT.findall(block):
            (node,) = ast.parse(statement).body
            for alias in node.names:
                yield node.module, alias.name


def _resolves(module: str, name: str) -> bool:
    try:
        if not hasattr(importlib.import_module(module), name):
            importlib.import_module(f"{module}.{name}")  # a submodule
    except ImportError:
        return False
    return True


def test_every_readme_import_resolves():
    imports = sorted(set(_readme_imports()))
    assert len(imports) >= 20, "the README's python blocks were not found"
    missing = [f"{module}.{name}" for module, name in imports if not _resolves(module, name)]
    assert not missing, missing
