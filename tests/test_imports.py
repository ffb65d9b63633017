"""Every module under src/ffmerge, benchmarks/, demos/, tests/ and tools/
uses each name it imports, something in src/ffmerge reads each
module-level private name, and something outside tests/ reads each name
in ``ffmerge.__all__`` and each public method and property of a public
class in src/ffmerge.

No linter ships with the project, so these AST walks are the check. They
catch the import a deleted helper leaves behind, the private helper a
refactor stops calling, and the public helper or method only tests call.
``src/ffmerge/__init__.py`` is skipped for imports and as a reader: it
imports names to re-export them. An import kept for its side effect says
so with ``# noqa: F401`` on its line.
"""

import ast
import pathlib

import pytest

import ffmerge

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


# {test id: parsed module}: one parse per module for the two reader rules below
TREES = {module: ast.parse(path.read_text()) for module, path in MODULES.items()}

# the modules whose reads count for the public-name and public-member rules
READERS = {module: tree for module, tree in TREES.items() if not module.startswith("tests/")}

# A public name that has no reader yet, and why it stays in the package.
UNREAD_PUBLIC_EXEMPT = {
    "write_label_file": "the only writer of the .lbls label sidecar that eval, select "
                        "and drop read for a classifier; without it users could not "
                        "make that file; a classifier demo that writes labels would give "
                        "it a reader and end this exemption",
}


def names_read(tree: ast.AST) -> set[str]:
    """Every name ``tree`` reads: a loaded name, an attribute, or the name
    an import statement brings in."""
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            read.update(alias.name for alias in node.names)
    return read


def unread_private_names(trees: dict[str, ast.Module]) -> list[str]:
    """Module-level ``_x`` names, not dunders, that a def, class or
    assignment in one of ``trees`` ({module: tree}) binds and that none of
    them reads."""
    defined = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.append((module, node.lineno, node.name))
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined += [(module, node.lineno, t.id) for t in targets
                            if isinstance(t, ast.Name)]
    read = set().union(*map(names_read, trees.values()))
    return [f"{module} line {line}: {name}" for module, line, name in defined
            if name[:1] == "_" and name[:2] != "__" and name not in read]


def unread_public_names(public: list[str], trees: dict[str, ast.Module]) -> list[str]:
    """The names in ``public`` that none of ``trees`` reads, sorted."""
    read = set().union(*map(names_read, trees.values()))
    return sorted(name for name in public if name not in read)


def test_finds_an_unread_private_name():
    sources = {"a": "_A = 1\n_B: int = 2\n__all__ = []\ndef _f():\n    return _B\n"
                    "def _g(): pass\nclass _C: pass\ndef pub(): pass\n_h = 0\n",
               "b": "from .a import _f\nfrom . import a\na._C()\n"}
    trees = {module: ast.parse(source) for module, source in sources.items()}
    assert unread_private_names(trees) == ["a line 1: _A", "a line 6: _g", "a line 9: _h"]


def test_package_has_no_unread_private_name():
    package = {module: tree for module, tree in TREES.items() if "/" not in module}
    assert unread_private_names(package) == []


def test_finds_an_unread_public_name():
    sources = {"a": "from pkg import read_by_import\nimport pkg.mod\npkg.by_attribute()\n",
               "b": "by_name()\nonly_stored = 1\ndef only_defined(): pass\n"}
    trees = {module: ast.parse(source) for module, source in sources.items()}
    public = ["read_by_import", "pkg.mod", "by_attribute", "by_name", "only_stored",
              "only_defined", "nowhere"]
    assert unread_public_names(public, trees) == ["nowhere", "only_defined", "only_stored"]


def test_every_public_name_has_a_reader_outside_the_tests():
    """A name in ``ffmerge.__all__`` is read in src/ffmerge (not counting
    ``__init__.py``), benchmarks/, demos/ or tools/; a name only tests
    read belongs in the tests. Exempt names must still be unread."""
    assert unread_public_names(ffmerge.__all__, READERS) == sorted(UNREAD_PUBLIC_EXEMPT)


def unread_public_members(classes: dict[str, ast.Module],
                          readers: dict[str, ast.Module]) -> list[str]:
    """``module line n: Class.member`` for each method or property, not
    private or a dunder, of each public module-level class in ``classes``
    whose name no attribute in ``readers`` reads. Like the other rules it
    matches by name only: a read of ``x.size`` counts for every ``size``."""
    read = {node.attr for tree in readers.values() for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)}
    return [f"{module} line {member.lineno}: {cls.name}.{member.name}"
            for module, tree in classes.items() for cls in tree.body
            if isinstance(cls, ast.ClassDef) and cls.name[:1] != "_"
            for member in cls.body
            if isinstance(member, ast.FunctionDef)
            and member.name[:1] != "_" and member.name not in read]


def test_finds_an_unread_public_member():
    sources = {"a": "class A:\n    def read(self): pass\n    @property\n    def size(self): pass\n"
                    "    @classmethod\n    def unread(cls): pass\n    def _private(self): pass\n"
                    "    def __len__(self): return 0\n"
                    "class _Hidden:\n    def unread(self): pass\n"
                    "def f(x):\n    return x.read()\n",
               "b": "def g(a):\n    size = 1\n    return a.unread_elsewhere\n"}
    trees = {module: ast.parse(source) for module, source in sources.items()}
    assert unread_public_members(trees, trees) == ["a line 4: A.size", "a line 6: A.unread"]


def test_every_public_member_has_a_reader_outside_the_tests():
    """A public method or property of a public class in src/ffmerge is read,
    as an attribute, in src/ffmerge, benchmarks/, demos/ or tools/."""
    package = {module: tree for module, tree in TREES.items() if "/" not in module}
    assert unread_public_members(package, READERS) == []
