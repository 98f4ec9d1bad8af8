"""The README's snippets and pointers resolve.

Every ``from repro… import …`` in a README ``python`` block names a
live object, every repository path the README cites exists, every
``::Name`` after a ``.py`` path names a class or function in that file,
and every ``README "Heading"`` cited from the code names a heading the
README has.  The README is a map; a deleted or renamed target must be
caught here, not by a reader.
"""

import ast
import importlib
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"
PYTHON_BLOCK = re.compile(r"^```python\n(.*?)^```", re.DOTALL | re.MULTILINE)
REPRO_IMPORT = re.compile(r"^from repro[\w.]* import (?:\([^)]*\)|[^\n]*)", re.MULTILINE)
FENCE = re.compile(r"^```.*?^```", re.DOTALL | re.MULTILINE)
# A repository path with its ``::Name`` segments, or a bare ``::Name``
# continuation of the last path before it in the same table cell or paragraph.
POINTER = re.compile(
    r"(?<![\w/.])((?:src|tests|benchmarks|examples)/[\w./-]*)((?:::\w+)*)"
    r"|(?<![\w:])((?:::\w+)+)"
)
HEADING_CITATION = re.compile(r"README(?:'s)?\s+\"([^\"]+)\"")
CITING_FILES = ("examples/**/*.py", "src/**/*.py", "benchmarks/*.py", ".claude/skills/verify/SKILL.md")


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


def _units(text: str):
    """Table cells and paragraphs: the scope a bare ``::name`` resolves in."""
    for paragraph in re.split(r"\n\s*\n", text):
        if paragraph.lstrip().startswith("|"):
            for row in paragraph.splitlines():
                yield from row.split("|")
        else:
            yield paragraph


def _defined_names(path: Path) -> set:
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return {
        node.name for node in ast.walk(tree)
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
    }


def _pointer_errors(text: str):
    """``(pointers checked, what does not resolve)`` for README ``text``."""
    checked, errors, names = 0, [], {}
    for unit in _units(text):
        last = None
        for path, segments, continuation in POINTER.findall(unit):
            checked += 1
            if path:
                path = path.rstrip(".")
                if not (ROOT / path).exists():
                    errors.append(f"{path}: no such path")
                    continue
                last = path
            elif last is None:
                errors.append(f"{continuation}: no path before it in its cell or paragraph")
                continue
            segments = [s for s in (segments or continuation).split("::") if s]
            if not segments:
                continue
            if not last.endswith(".py"):
                errors.append(f"{last}::{'::'.join(segments)}: not a Python file")
                continue
            if last not in names:
                names[last] = _defined_names(ROOT / last)
            errors += [f"{last}::{s}: no class or def" for s in segments if s not in names[last]]
    return checked, errors


def _headings(text: str) -> set:
    return {
        line.lstrip("#").strip()
        for line in FENCE.sub("", text).splitlines()
        if line.startswith("#")
    }


def _cited_headings():
    """``{heading: [citing files]}`` for every ``README "Heading"`` outside the README."""
    cited = {}
    for pattern in CITING_FILES:
        for path in ROOT.glob(pattern):
            for quoted in HEADING_CITATION.findall(path.read_text(encoding="utf-8")):
                cited.setdefault(" ".join(quoted.split()), []).append(str(path.relative_to(ROOT)))
    return cited


def test_every_readme_pointer_resolves():
    text = README.read_text(encoding="utf-8")
    checked, errors = _pointer_errors(text)
    assert checked >= 50, "the README's pointers were not found"
    assert not errors, errors
    cited, headings = _cited_headings(), _headings(text)
    assert cited, "no README heading citations were found"
    missing = {heading: files for heading, files in cited.items() if heading not in headings}
    assert not missing, missing
