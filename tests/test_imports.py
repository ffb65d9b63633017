"""Every module under src/ffmerge uses each name it imports.

No linter ships with the project, so this AST walk is the check. It catches
the import a deleted helper leaves behind. ``__init__.py`` is skipped: it
imports names to re-export them.
"""

import ast
import pathlib

import pytest

PACKAGE = pathlib.Path(__file__).parents[1] / "src" / "ffmerge"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Names bound by an import statement and never read in ``source``."""
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
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


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_module_has_no_unused_import(path):
    assert unused_imports(path.read_text()) == []
