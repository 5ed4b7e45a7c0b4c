"""Every import in the engine's modules is used.

No linter ships with the engine, so this walks each module's syntax tree
with the standard library alone: a name bound by an import (at module
level or inside a function) must be read somewhere in the module.
`__init__.py` is exempt, since it imports only to re-export, and so is
`from __future__ import ...`.
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
