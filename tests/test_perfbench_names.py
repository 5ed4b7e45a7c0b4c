"""The engine names that the benchmark in perfbench/ reads still resolve.

A benchmark run without tracing never calls layers.instrument, so a
renamed or removed engine name, or a dropped parameter, would only show
when the per-layer metrics are taken.  This imports perfbench/layers.py,
instruments the engine and restores it, and walks each perfbench
module's syntax tree: every attribute read off a factpat module, every
name imported from one, and every keyword or positional count that a
call into factpat passes must fit the engine as it is.  Every
workload's seed-0 reports must also pass the benchmark's own check,
their sha256 equal to the one pinned in perfbench/digests.json, so a
drift in report bytes shows here.  perfbench is read, never edited.
"""

from __future__ import annotations

import ast
import importlib
import inspect
import sys
import warnings
from pathlib import Path

import pytest

import factpat
from factpat import census

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def perfbench_modules(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    yield
    for name in ("layers", "workloads"):
        sys.modules.pop(name, None)


def _engine_state():
    """Every factpat module namespace, and the constructors instrument
    wraps on their classes."""
    state = {name: dict(vars(mod)) for name, mod in sys.modules.items()
             if name.split(".")[0] == "factpat"}
    ffield = factpat.ffield
    state["classes"] = [vars(ffield.ExtCtx)["__init__"],
                        vars(ffield.ExtCtx)["ensure_fast"],
                        vars(ffield.Embedding)["__init__"]]
    return state


def test_instrument_wraps_and_restores(perfbench_modules):
    layers = importlib.import_module("layers")
    before = _engine_state()
    restore = layers.instrument(layers.Tracer())
    try:
        assert _engine_state() != before
    finally:
        restore()
    assert _engine_state() == before


def test_workload_drivers_resolve(perfbench_modules):
    workloads = importlib.import_module("workloads")
    for w in workloads.WORKLOADS:
        for call in workloads.calls_for(w, 0):
            assert callable(getattr(factpat.census, call.driver)), call.key


def test_seed_zero_reports_match_the_pinned_digests(perfbench_modules):
    workloads = importlib.import_module("workloads")
    pinned = workloads.load_digests()
    keys = []
    for w in workloads.WORKLOADS:
        for call in workloads.calls_for(w, 0):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")     # q <= n families warn
                rep = call.run()
            assert workloads.check(call, rep, census.render_json(rep), 0,
                                   pinned) is None, call.key
            keys.append(call.key)
    assert sorted(keys) == sorted(pinned) and len(keys) == 18


def _module_aliases(tree):
    """{local name: factpat object} for the imports of factpat and of its
    modules and names, and the (line, dotted name) of each imported name
    that does not exist."""
    aliases, missing = {}, []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "factpat":
                    # import a.b binds a; import a.b as c binds a.b
                    name = alias.name if alias.asname else "factpat"
                    aliases[alias.asname or name] = importlib.import_module(name)
        elif (isinstance(node, ast.ImportFrom) and node.module
              and node.module.split(".")[0] == "factpat"):
            mod = importlib.import_module(node.module)
            for alias in node.names:
                if hasattr(mod, alias.name):
                    aliases[alias.asname or alias.name] = getattr(mod, alias.name)
                else:
                    missing.append((node.lineno, f"{node.module}.{alias.name}"))
    return aliases, missing


def _resolve(node, aliases):
    """(object, dotted name) for a Name or attribute chain rooted at a
    factpat alias; object is None where an attribute is missing, and the
    pair is (None, None) for a chain not rooted at one."""
    chain = []
    while isinstance(node, ast.Attribute):
        chain.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name) or node.id not in aliases:
        return None, None
    obj, dotted = aliases[node.id], node.id
    for attr in reversed(chain):
        dotted += "." + attr
        if not hasattr(obj, attr):
            return None, dotted
        obj = getattr(obj, attr)
    return obj, dotted


def _unresolved(tree):
    """(line, what) of each factpat name, attribute, keyword or positional
    count that a module reads and the engine does not have."""
    aliases, bad = _module_aliases(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            obj, dotted = _resolve(node, aliases)
            if dotted is not None and obj is None:
                bad.append((node.lineno, dotted))
        elif isinstance(node, ast.Call):
            fn, dotted = _resolve(node.func, aliases)
            if fn is None or not callable(fn):
                continue
            if (any(isinstance(a, ast.Starred) for a in node.args)
                    or any(k.arg is None for k in node.keywords)):
                continue
            try:
                sig = inspect.signature(fn)
            except ValueError:
                continue
            try:
                sig.bind_partial(*node.args,
                                 **{k.arg: None for k in node.keywords})
            except TypeError as exc:
                bad.append((node.lineno, f"{dotted}: {exc}"))
    return sorted(set(bad))


@pytest.mark.parametrize("name", sorted(p.name for p in PERFBENCH.glob("*.py")))
def test_perfbench_reads_only_engine_names_that_exist(name):
    tree = ast.parse((PERFBENCH / name).read_text())
    assert _unresolved(tree) == []


def test_the_check_sees_missing_names_and_parameters():
    tree = ast.parse(
        "import factpat\nfrom factpat import census, ffield\n"
        "from factpat.census import RunConfig, build_field\n"
        "census.run_census(None)\nffield.ContextBank.embedding\n"
        "factpat.census.family_descriptor(None, None)\n"
        "RunConfig(p=5, budget_scan=3)\ncensus.census_tally(None, workers=2)\n")
    got = _unresolved(tree)
    assert [line for line, _ in got] == [3, 5, 6, 7]
    assert got[0][1] == "factpat.census.build_field"
    assert got[1][1] == "ffield.ContextBank.embedding"
