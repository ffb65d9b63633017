"""Every module under src/ffmerge, benchmarks/, demos/, tests/ and tools/
uses each name it imports, and something in src/ffmerge reads each
module-level private name.

No linter ships with the project, so these AST walks are the check. They
catch the import a deleted helper leaves behind, and the private helper a
refactor stops calling. ``src/ffmerge/__init__.py`` is skipped for imports:
it imports names to re-export them. An import kept for its side effect
says so with ``# noqa: F401`` on its line.
"""

import ast
import pathlib

import pytest

ROOT = pathlib.Path(__file__).parents[1]
PACKAGE = ROOT / "src" / "ffmerge"
# {test id: path}; package modules keep their bare stem as id
MODULES = ({p.stem: p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"}
           | {f"{folder}/{p.stem}": p for folder in ("benchmarks", "demos", "tests", "tools")
              for p in sorted((ROOT / folder).glob("*.py"))})


def unused_imports(source: str) -> list[str]:
    """Names bound by an import statement, not marked ``# noqa: F401``, and
    never read in ``source``."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if (isinstance(node, (ast.Import, ast.ImportFrom))
                and getattr(node, "module", None) != "__future__"
                and "# noqa: F401" not in lines[node.lineno - 1]):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


def test_finds_an_unused_import():
    source = "import os\nfrom json import dumps, loads\nfrom a.b import c as d\nloads('1')\n"
    assert unused_imports(source) == ["line 1: os", "line 2: dumps", "line 3: d"]


def test_counts_uses_in_annotations_and_attributes():
    source = ("from __future__ import annotations\nimport numpy as np\n"
              "from typing import Iterator\ndef f() -> Iterator[int]:\n"
              "    return np.arange(3)\n")
    assert unused_imports(source) == []


def test_noqa_marks_a_side_effect_import():
    source = "import os  # noqa: F401\nimport json\nfrom a import (b,  # noqa: F401\n    c)\n"
    assert unused_imports(source) == ["line 2: json"]


@pytest.mark.parametrize("path", MODULES.values(), ids=MODULES)
def test_module_has_no_unused_import(path):
    assert unused_imports(path.read_text()) == []


def unread_private_names(sources: dict[str, str]) -> list[str]:
    """Module-level ``_x`` names, not dunders, that a def, class or
    assignment in one of ``sources`` ({module: source}) binds and that none
    of them reads, as a name, an attribute or an imported name."""
    defined, read = [], set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.append((module, node.lineno, node.name))
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined += [(module, node.lineno, t.id) for t in targets
                            if isinstance(t, ast.Name)]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read.update(alias.name for alias in node.names)
    return [f"{module} line {line}: {name}" for module, line, name in defined
            if name[:1] == "_" and name[:2] != "__" and name not in read]


def test_finds_an_unread_private_name():
    sources = {"a": "_A = 1\n_B: int = 2\n__all__ = []\ndef _f():\n    return _B\n"
                    "def _g(): pass\nclass _C: pass\ndef pub(): pass\n_h = 0\n",
               "b": "from .a import _f\nfrom . import a\na._C()\n"}
    assert unread_private_names(sources) == ["a line 1: _A", "a line 6: _g", "a line 9: _h"]


def test_package_has_no_unread_private_name():
    sources = {p.stem: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    assert unread_private_names(sources) == []
