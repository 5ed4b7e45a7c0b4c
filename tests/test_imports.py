"""Every import in the engine's modules is used and is relative or from
the standard library, every private name the engine defines is read,
and the only cache the engine keeps is one that a single clear empties.

No linter ships with the engine, so this walks each module's syntax tree
with the standard library alone: a name bound by an import (at module
level or inside a function) must be read somewhere in the module.
`__init__.py` is exempt, since it imports only to re-export, and so is
`from __future__ import ...`.  Every absolute import names a module in
sys.stdlib_module_names, so the engine runs where only Python is
installed, although numpy may be installed too.  Every parameter of a
module-level function is read in its body; methods are exempt, since
the accumulators share one add(x, typed, w).  A private name (one leading underscore)
defined at module level, or as a method, must be read somewhere in the
engine: loaded as a name or attribute, or imported by another module.
The one module-level container is ffield._SHARED_BANKS, which holds the
layers and the family tables; clearing it gives a process the cold state
of a fresh one, so no function is memoized with functools either.
The walk's functions in correspondence read none of the oracles, and
the oracles in correspondence and variety (with their helpers, the
membership check's block oracle zero_block, and the probe's rank and
coincidence checks) read none of the walk's functions, so the tests
that hold the walk to an oracle compare two routes, also where the
oracles keep values.  Every dotted reference
module.name (such as tables.family_tally or ffield.ExtCtx.ensure_fast)
in the engine's docstrings and comments and in README.md resolves, so
the docs name no engine name that is gone.
"""

from __future__ import annotations

import ast
import importlib
import io
import re
import sys
import tokenize
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


def _unused_params(tree):
    """(line, function, parameter) of each parameter of a module-level
    function that its body never reads."""
    out = []
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        a = node.args
        params = a.posonlyargs + a.args + a.kwonlyargs + [
            arg for arg in (a.vararg, a.kwarg) if arg is not None]
        read = {n.id for n in ast.walk(node)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        out += [(node.lineno, node.name, arg.arg) for arg in params
                if arg.arg not in read]
    return out


def test_every_parameter_of_an_engine_function_is_read():
    found = {p.name: _unused_params(ast.parse(p.read_text()))
             for p in sorted(SRC.glob("*.py"))}
    assert len(found) > 1
    assert {k: v for k, v in found.items() if v} == {}


def test_the_check_sees_an_unused_parameter():
    tree = ast.parse("def f(a, b, *args, c=1, **kw):\n"
                     "    def g(d):\n        return a + c\n    return g\n"
                     "def h(x, /, y):\n    return lambda: y\n"
                     "class C:\n    def add(self, x, typed, w):\n"
                     "        pass\n")
    assert _unused_params(tree) == [(1, "f", "b"), (1, "f", "args"),
                                    (1, "f", "kw"), (5, "h", "x")]


def _outside_stdlib(tree):
    """(line, module) of each absolute import of a module outside the
    standard library."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        out += [(node.lineno, name) for name in names
                if name.split(".")[0] not in sys.stdlib_module_names]
    return sorted(out)


def test_the_engine_imports_only_the_standard_library():
    found = {p.name: _outside_stdlib(ast.parse(p.read_text()))
             for p in sorted(SRC.glob("*.py"))}
    assert len(found) > 1
    assert {k: v for k, v in found.items() if v} == {}


def test_the_check_sees_a_third_party_import():
    tree = ast.parse("import numpy as np\nimport os.path, json\n"
                     "from . import poly\nfrom .ffield import make_field\n"
                     "from numpy.fft import fft\nfrom __future__ import x\n"
                     "def f():\n    import scipy.linalg\n")
    assert _outside_stdlib(tree) == [(1, "numpy"), (5, "numpy.fft"),
                                     (8, "scipy.linalg")]


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


_CONTAINERS = (ast.Dict, ast.List, ast.Set, ast.DictComp, ast.ListComp,
               ast.SetComp)
_CACHE_DECORATORS = {"lru_cache", "cache"}


def _callee(node):
    """The called or decorating name: f for f(...), f.g(...) and @f."""
    if isinstance(node, ast.Call):
        node = node.func
    if isinstance(node, ast.Attribute):
        return node.attr
    return node.id if isinstance(node, ast.Name) else None


def _caches(tree):
    """(line, name) of the module-level names bound to a mutable container
    and of the functions memoized with functools."""
    out = []
    for node in tree.body:
        if isinstance(node, ast.Assign):
            targets, value = node.targets, node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets, value = [node.target], node.value
        else:
            continue
        if (isinstance(value, _CONTAINERS)
                or _callee(value) in ("dict", "set", "defaultdict")):
            out += [(node.lineno, t.id) for t in targets
                    if isinstance(t, ast.Name)]
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if any(_callee(d) in _CACHE_DECORATORS
                   for d in node.decorator_list):
                out.append((node.lineno, node.name))
    return sorted(out)


def test_the_shared_banks_are_the_only_cache():
    found = {p.name: [name for _, name in _caches(ast.parse(p.read_text()))]
             for p in sorted(SRC.glob("*.py"))}
    assert {k: v for k, v in found.items() if v} == {
        "ffield.py": ["_SHARED_BANKS"]}


def test_the_check_sees_a_module_cache():
    tree = ast.parse("import functools\nfrom collections import defaultdict\n"
                     "LIMIT = 3\nPAIR = (1, 2)\n_memo = {}\nseen: set = set()\n"
                     "by_key = defaultdict(list)\nsquares = [i * i for i in "
                     "range(4)]\n@functools.lru_cache(maxsize=None)\n"
                     "def f(x):\n    local = {}\n    return local\n"
                     "class C:\n    @functools.cache\n    def g(self):\n"
                     "        pass\n")
    assert _caches(tree) == [(5, "_memo"), (6, "seen"), (7, "by_key"),
                             (8, "squares"), (10, "f"), (15, "g")]


_WALK = {"walk_G", "_walk", "_prefixes", "_window_table", "_stored"}
_ORACLES = {"_orbit", "build_G", "_window_poly", "is_type_lambda",
            "_full_shifts", "eval_R", "zero_block"}


def _oracle_reads(tree):
    """(function, name) of each oracle name that a walk function reads."""
    return sorted((node.name, name) for node in tree.body
                  if isinstance(node, ast.FunctionDef) and node.name in _WALK
                  for name in _reads(node) & _ORACLES)


def test_the_walk_reads_no_oracle():
    tree = ast.parse((SRC / "correspondence.py").read_text())
    assert _WALK <= {node.name for node in tree.body
                     if isinstance(node, ast.FunctionDef)}
    assert _oracle_reads(tree) == []


def test_the_check_sees_a_walk_reading_an_oracle():
    tree = ast.parse("def _orbit(c):\n    return c\n"
                     "def walk_G(x):\n    return _orbit(x)\n"
                     "def _walk(m):\n    return m._full_shifts\n"
                     "def _stored():\n    from .variety import eval_R\n"
                     "def build_G(x):\n    return _orbit(x)\n")
    assert _oracle_reads(tree) == [("_stored", "eval_R"),
                                   ("_walk", "_full_shifts"),
                                   ("walk_G", "_orbit")]


_ORACLE_FUNCTIONS = {"build_G", "_window_poly", "eval_R", "zero_block",
                     "_esym", "_prefix_esym", "g_coeffs", "_window_values",
                     "_times", "_residues",
                     "_full_rank", "_digit_columns", "_coincident"}


def _walk_reads(trees):
    """(function, name) of each walk name that an oracle function reads."""
    return sorted((node.name, name) for tree in trees for node in tree.body
                  if isinstance(node, ast.FunctionDef)
                  and node.name in _ORACLE_FUNCTIONS
                  for name in _reads(node) & _WALK)


def test_no_oracle_reads_the_walk():
    trees = [ast.parse((SRC / name).read_text())
             for name in ("correspondence.py", "variety.py")]
    assert _ORACLE_FUNCTIONS <= {node.name for tree in trees
                                 for node in tree.body
                                 if isinstance(node, ast.FunctionDef)}
    assert _walk_reads(trees) == []


def test_the_check_sees_an_oracle_reading_the_walk():
    trees = [ast.parse("def walk_G(x):\n    return x\n"
                       "def build_G(x):\n    return walk_G(x)\n"
                       "def _window_poly(c):\n    return c._stored\n"),
             ast.parse("def _esym(s):\n"
                       "    from .correspondence import _stored\n"
                       "def eval_R(s):\n    return _esym(s)\n"
                       "def rational_zeros(s):\n    return walk_G(s)\n")]
    assert _walk_reads(trees) == [("_esym", "_stored"),
                                  ("_window_poly", "_stored"),
                                  ("build_G", "walk_G")]


_DOTTED = re.compile(r"\b(?:factpat\.)?([A-Za-z_]\w*)((?:\.[A-Za-z_]\w*)+)")


def _doc_text(source):
    """The docstrings and the comments of one module's source."""
    tree = ast.parse(source)
    docs = [ast.get_docstring(node) for node in ast.walk(tree)
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                 ast.AsyncFunctionDef))]
    comments = [tok.string for tok in tokenize.generate_tokens(
        io.StringIO(source).readline) if tok.type == tokenize.COMMENT]
    return "\n".join([d for d in docs if d] + comments)


def _stale_names(text, modules):
    """Each dotted reference module.name[.attr] in text, with module one
    of the given modules, that does not resolve; file names module.py are
    not references."""
    stale = []
    for match in _DOTTED.finditer(text):
        head, path = match.group(1), match.group(2).split(".")[1:]
        if head not in modules or path == ["py"]:
            continue
        obj = modules[head]
        for name in path:
            if not hasattr(obj, name):
                stale.append(match.group(0))
                break
            obj = getattr(obj, name)
    return stale


def _engine_modules():
    return {p.stem: importlib.import_module(f"factpat.{p.stem}")
            for p in SRC.glob("*.py") if p.stem != "__init__"}


def test_every_engine_name_in_the_docs_resolves():
    modules = _engine_modules()
    texts = {p.name: _doc_text(p.read_text()) for p in sorted(SRC.glob("*.py"))}
    texts["README.md"] = (SRC.parent.parent / "README.md").read_text()
    found = {name: _stale_names(text, modules) for name, text in texts.items()}
    assert len(found) > 2
    assert {k: v for k, v in found.items() if v} == {}


def test_the_check_sees_a_stale_name_in_the_docs():
    source = ('"""Reads tables.family_tally and tables.pattern_tables."""\n'
              "def f():\n    # see ffield.ExtCtx.ensure_fast, census.py and\n"
              "    # ffield.ExtCtx.ensure_slow; factpat.variety.no_pass\n"
              '    """Like cli.main, e.g. poly.kernel."""\n')
    assert _stale_names(_doc_text(source), _engine_modules()) == [
        "tables.pattern_tables", "poly.kernel", "ffield.ExtCtx.ensure_slow",
        "factpat.variety.no_pass"]
