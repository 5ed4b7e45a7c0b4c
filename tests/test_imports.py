"""Every import in the engine's modules is used, and every private name
the engine defines is read.

No linter ships with the engine, so this walks each module's syntax tree
with the standard library alone: a name bound by an import (at module
level or inside a function) must be read somewhere in the module.
`__init__.py` is exempt, since it imports only to re-export, and so is
`from __future__ import ...`.  A private name (one leading underscore)
defined at module level, or as a method, must be read somewhere in the
engine: loaded as a name or attribute, or imported by another module.
"""

from __future__ import annotations

import ast
from pathlib import Path

import factpat

SRC = Path(factpat.__file__).parent


def _unused_imports(tree):
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in bound.items()
                  if name not in used)


def test_no_unused_imports_in_the_engine():
    modules = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
    assert modules
    unused = {p.name: _unused_imports(ast.parse(p.read_text()))
              for p in modules}
    assert {k: v for k, v in unused.items() if v} == {}


def test_the_check_sees_an_unused_import():
    tree = ast.parse("import os\nfrom json import dumps, loads\n"
                     "def f():\n    from sys import path\n    return loads\n")
    assert _unused_imports(tree) == [(1, "os"), (2, "dumps"), (4, "path")]


def _private(name):
    return name.startswith("_") and not name.startswith("__")


def _private_defs(tree):
    """(line, name) of the private module-level names and the private
    methods that a module defines."""
    out = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names = [node.target.id]
        else:
            names = []
        out += [(node.lineno, name) for name in names if _private(name)]
        if isinstance(node, ast.ClassDef):
            out += [(f.lineno, f.name) for f in node.body
                    if isinstance(f, ast.FunctionDef) and _private(f.name)]
    return out


def _reads(tree):
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            read.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            read.update(alias.name for alias in node.names)
    return read


def _unread_private_names(trees):
    """{module: [(line, name), ...]} of the private names that the
    modules define and none of them reads."""
    read = set().union(*map(_reads, trees.values()))
    unread = {mod: [d for d in _private_defs(tree) if d[1] not in read]
              for mod, tree in trees.items()}
    return {mod: defs for mod, defs in unread.items() if defs}


def test_every_private_name_in_the_engine_is_read():
    trees = {p.name: ast.parse(p.read_text()) for p in sorted(SRC.glob("*.py"))}
    assert len(trees) > 1
    assert _unread_private_names(trees) == {}


def test_the_check_sees_an_unread_private_name():
    trees = {
        "a.py": ast.parse("_LIMIT = 3\n_unused: int = 0\n"
                          "def _helper():\n    return _LIMIT\n"
                          "class _Base:\n    def _dead(self):\n        pass\n"
                          "    def _live(self):\n        pass\n"
                          "    def __init__(self):\n        self._live()\n"),
        "b.py": ast.parse("from .a import _helper, _Base\n"),
    }
    assert _unread_private_names(trees) == {"a.py": [(2, "_unused"),
                                                     (6, "_dead")]}
