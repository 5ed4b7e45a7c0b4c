"""Driver layer: config parsing, report generation, byte-stable
rendering, the parallel tally, and the command-line entry points.

Determinism is the load-bearing property here: every reported number is
an integer or an exact rational string, so repeated runs and multi-worker
runs must produce byte-identical output.
"""

from __future__ import annotations

import gc
import json
import os
import subprocess
import sys
import time
import warnings
from fractions import Fraction
from functools import partial
from itertools import combinations
from math import isqrt
from pathlib import Path

import pytest

import factpat
from factpat import census, cli
from factpat.census import (CENSUS_CSV_HEADER, RunConfig, build_family,
                            census_tally, emit_report, family_descriptor,
                            parse_config, render_csv, render_json, run_bounds,
                            run_census, run_global, run_verify)
from factpat._dense import pdivmod, ppowmod
from factpat.family import (_frac_str, bound_fp1, bound_fp2,
                            bound_nonsquarefree, bound_reference_ci,
                            bound_terms, new_family, pattern_tally,
                            prescribed_family)
from factpat.ffield import Embedding, ExtCtx, FieldParams, make_field
from factpat.patterns import enumerate_patterns, pattern_stats

CONFIG_TEXT = """\
; canonical demo family: trace-zero quartics over F_5
[field]
p = 5
s = 1

[family]
n = 4
mode = linear
r = 3
rows =
    1
alpha = 0

[run]
budget = 2000000
workers = 1
format = json
"""

CSV_GOLDEN = """\
lambda,count,sq,nsq,expected,deviation,fp1_applicable,fp1_pass,fp2_applicable,fp2_pass
1^4,14,1,13,125/24,211/24,true,true,true,true
1^2 2,30,20,10,125/4,5/4,true,true,true,true
2^2,11,9,2,125/8,37/8,true,true,true,true
1 3,40,40,0,125/3,5/3,true,true,true,true
4,30,30,0,125/4,5/4,true,true,true,true
TOTAL,125,100,25,125/1,0/1,,,,
"""


def _demo_cfg(**kw):
    base = dict(p=5, s=1, n=4, mode="linear", r=3, rows=((1,),), alpha=(0,))
    base.update(kw)
    return RunConfig(**base)


# ---------------------------------------------------------------------------
# config parsing


def test_parse_config_round_trip(tmp_path):
    path = tmp_path / "demo.ini"
    path.write_text(CONFIG_TEXT)
    cfg = parse_config(path)
    assert (cfg.p, cfg.s, cfg.n, cfg.r) == (5, 1, 4, 3)
    assert cfg.mode == "linear"
    assert cfg.rows == ((1,),)
    assert cfg.alpha == (0,)
    assert cfg.budget == 2000000
    assert cfg.workers == 1
    assert cfg.fmt == "json"


def test_parse_config_multirow_and_comments(tmp_path):
    path = tmp_path / "multi.ini"
    path.write_text(
        "[field]\np = 7   ; seven\n\n[family]\nn = 6\nr = 3\n"
        "rows =\n    1, 0, 0\n    0 1 0   # spaces work too\n"
        "alpha = 2, 3\n")
    cfg = parse_config(path)
    assert cfg.rows == ((1, 0, 0), (0, 1, 0))
    assert cfg.alpha == (2, 3)


def test_parse_config_prescribed_mode(tmp_path):
    path = tmp_path / "pres.ini"
    path.write_text(
        "[field]\np = 7\n\n[family]\nn = 5\nmode = prescribed\n"
        "indices = 1, 2\nalpha = 3, 4\n")
    cfg = parse_config(path)
    assert cfg.mode == "prescribed"
    assert cfg.indices == (1, 2)
    fam = build_family(cfg, make_field(cfg.p, cfg.s))
    assert fam.prescribed and fam.pivots == (1, 2)


def test_parse_config_errors(tmp_path):
    with pytest.raises(ValueError):
        parse_config(tmp_path / "missing.ini")
    bad = tmp_path / "bad.ini"
    bad.write_text("[family]\nn = 4\n")
    with pytest.raises(ValueError):
        parse_config(bad)
    for workers in (0, -3):
        bad.write_text(CONFIG_TEXT.replace("workers = 1", f"workers = {workers}"))
        with pytest.raises(ValueError, match="workers must be >= 1"):
            parse_config(bad)
    for budget in (0, -3):
        bad.write_text(CONFIG_TEXT.replace("budget = 2000000", f"budget = {budget}"))
        with pytest.raises(ValueError, match="budget must be >= 1"):
            parse_config(bad)


# ---------------------------------------------------------------------------
# family descriptor


def test_descriptor_reports_tower_and_reduction():
    cfg = _demo_cfg()
    fam = build_family(cfg, make_field(cfg.p, cfg.s))
    desc = family_descriptor(fam)
    assert desc["q"] == 5 and desc["family_size"] == 125
    assert desc["pivots"] == [1]
    assert desc["theta"] == {"1": 1, "2": 6, "3": 6, "4": 156}
    assert desc["ext_moduli"]["2"] == [2, 0]
    assert desc["reduced_rows"] == [[1]]
    assert desc["pivot_product_ceiling"] == 1
    assert desc["pivot_excess_ceiling"] == 2


# ---------------------------------------------------------------------------
# census runs


def test_census_report_frozen_essentials():
    rep = run_census(_demo_cfg())
    assert rep["mode"] == "census"
    assert rep["overall_pass"] is True
    assert rep["totals"] == {
        "count": 125, "sq": 100, "nsq": 25, "family_size": 125,
        "discr": {"applicable": True, "pass": True, "value": 300},
    }
    assert rep["checks"] == {"sum_matches_family_size": True}
    first = rep["rows"][0]
    assert first["lambda"] == "1^4"
    assert (first["count"], first["sq"], first["nsq"]) == (14, 1, 13)
    assert first["expected"] == "125/24"
    assert first["deviation"] == "211/24"
    assert first["fp1"] == {"applicable": True, "pass": True,
                            "reason": "", "value": "300/1"}
    labels = [row["lambda"] for row in rep["rows"]]
    assert labels == ["1^4", "1^2 2", "2^2", "1 3", "4"]


def _refuse(*args, **kwargs):
    raise AssertionError("the table path was taken")


_KERNEL_ROWS = ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))


def test_census_tally_parallel_merge_matches_serial(monkeypatch):
    demo = _demo_cfg()                  # the table path
    # the search over 3^8 monics costs more than the kernel on 3^4
    # members: the kernel path, on a real 2-worker pool
    kernel = _demo_cfg(p=3, n=8, r=4, rows=_KERNEL_ROWS, alpha=(0,) * 4)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")     # q <= n warns by design
        for cfg in (demo, kernel):
            fam = build_family(cfg, make_field(cfg.p, cfg.s))
            if cfg is kernel:
                monkeypatch.setattr(census, "family_tally", _refuse)
            serial = census_tally(fam, workers=1)
            parallel = census_tally(fam, workers=2)
            assert serial == parallel == pattern_tally(fam)
            one = render_json(run_census(cfg))
            cfg.workers = 2
            assert render_json(run_census(cfg)) == one


class _RecordingPool:
    """Stands in for multiprocessing.Pool: records the size it is asked
    for and maps in this process, so no process starts."""

    def __init__(self, sizes, size):
        sizes.append(size)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        return [fn(item) for item in items]


@pytest.mark.parametrize("p,n,r,rows,cpus,want", [
    # one chunk per field element: 1021 chunks, 4 CPUs; m > r, so the
    # kernel runs whatever the table's price
    (1021, 3, 1, ((1, 0), (0, 1)), 4, 4),
    # 3 chunks, 64 CPUs
    (3, 8, 4, _KERNEL_ROWS, 64, 3),
])
def test_census_tally_pool_is_capped_by_chunks_and_cpus(
        monkeypatch, p, n, r, rows, cpus, want):
    cfg = _demo_cfg(p=p, n=n, r=r, rows=rows, alpha=(0,) * len(rows))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")     # q <= n warns by design
        fam = build_family(cfg, make_field(cfg.p, cfg.s))
    sizes = []
    monkeypatch.setattr(census.multiprocessing, "Pool",
                        partial(_RecordingPool, sizes))
    monkeypatch.setattr(census.os, "sched_getaffinity",
                        lambda pid: set(range(cpus)))
    assert census_tally(fam, workers=2000) == pattern_tally(fam)
    assert sizes == [want]


def test_census_tally_pools_without_sched_getaffinity(monkeypatch):
    # macOS and Windows have no os.sched_getaffinity: the pool is sized by
    # os.cpu_count() there, and the tally is the one-worker tally
    cfg = _demo_cfg(p=3, n=8, r=4, rows=_KERNEL_ROWS, alpha=(0,) * 4)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")     # q <= n warns by design
        fam = build_family(cfg, make_field(cfg.p, cfg.s))
    monkeypatch.delattr(os, "sched_getaffinity")
    assert census_tally(fam, workers=2) == census_tally(fam, workers=1)


def test_reports_are_byte_identical_between_runs():
    cfg = _demo_cfg()
    a = render_json(run_census(cfg))
    b = render_json(run_census(cfg))
    assert a == b
    c = render_json(run_census(_demo_cfg(workers=2)))
    assert a == c


def test_render_json_is_sorted_and_newline_terminated():
    rep = run_census(_demo_cfg())
    text = render_json(rep)
    assert text.endswith("\n")
    parsed = json.loads(text)
    assert parsed == rep
    assert "314" not in text.split("engine")[0]  # no float artifacts
    assert text == json.dumps(rep, indent=2, sort_keys=True) + "\n"


def _json_oracle(report):
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


def test_render_json_equals_json_dumps_on_every_value_kind():
    # render_json walks the report itself; json.dumps is its oracle
    report = {
        "empty": {"dict": {}, "list": [], "tuple": ()},
        "nested": [[], {}, ((),), {"a": [{}, [[]]]}, [1, [2, (3,)]]],
        "flags": [True, False, 1, 0, None, {"t": True, "f": False}],
        "ints": [-1, -(2 ** 70), 2 ** 64, 2 ** 64 + 1, 10 ** 40, 0],
        "strs": ['"quoted"', "back\\slash", "tab\tnew\nline\x00\x1f\x7f",
                 "caf\u00e9 \u2014 \U0001f600", ""],
        "\u00e9 key \"q\"\n": {"b": 2, "a": 1, "B": 3, "": 4, "\x01": 5},
    }
    assert render_json(report) == _json_oracle(report)
    for top in ({}, [], "s", 7, True, None):
        assert render_json(top) == _json_oracle(top)


def test_render_json_equals_json_dumps_on_each_driver():
    lin = dict(p=5, n=3, r=2, rows=((1,),), alpha=(0,))
    reports = [
        run_census(_demo_cfg()),
        run_census(RunConfig(p=2, s=3, n=4, mode="prescribed",
                             indices=(1, 3), alpha=(1, 0))),
        run_global(RunConfig(p=3, n=4)),
        run_bounds(RunConfig(p=5, n=3, mode="prescribed", indices=(1, 2, 3),
                             alpha=(0, 0, 0))),
        run_verify(RunConfig(**lin)),
        run_verify(RunConfig(**lin), sections=("variety",)),
        run_verify(RunConfig(**lin), sections=("correspondence",)),
    ]
    for rep in reports:
        assert render_json(rep) == _json_oracle(rep)


@pytest.mark.parametrize("value", [0.5, Fraction(1, 2), {3: "int key"},
                                   {"row": [1, {"x": 1.0}]}])
def test_render_json_refuses_what_a_report_does_not_hold(value):
    with pytest.raises(TypeError):
        render_json({"bad": value})


def test_render_json_leaves_no_cyclic_garbage():
    # a report's pieces are freed by reference counting alone, so a late
    # collection never holds them (peak RSS would show it)
    rep = run_census(_demo_cfg())
    gc.collect()
    was = gc.isenabled()
    gc.disable()
    try:
        render_json(rep)
        assert gc.collect() == 0
    finally:
        if was:
            gc.enable()


def test_render_csv_golden():
    rep = run_census(_demo_cfg())
    assert render_csv(rep) == CSV_GOLDEN
    assert CSV_GOLDEN.splitlines()[0] == CENSUS_CSV_HEADER


def test_emit_report_writes_file(tmp_path):
    rep = run_census(_demo_cfg())
    out = tmp_path / "rep.csv"
    text = emit_report(rep, fmt="csv", out=out)
    assert out.read_text() == text == CSV_GOLDEN
    with pytest.raises(ValueError):
        emit_report(rep, fmt="xml")


# ---------------------------------------------------------------------------
# global, bounds, verify modes


def test_global_mode_exact_classical_counts():
    rep = run_global(RunConfig(p=5, n=3))
    assert rep["mode"] == "global"
    assert rep["overall_pass"] is True
    assert rep["checks"] == {
        "sum_matches_size": True,
        "squarefree_count_matches": True,
        "irreducible_count_matches_necklace": True,
    }
    t = rep["totals"]
    assert t["size"] == 125
    assert t["sq"] == t["squarefree_expected"] == 100    # q^n - q^(n-1)
    assert t["irreducible_count"] == t["necklace_expected"] == 40
    counts = {row["lambda"]: row["count"] for row in rep["rows"]}
    assert counts == {"1^3": 35, "1 2": 50, "3": 40}


@pytest.mark.parametrize("p, s", [(3, 1), (2, 2)])
def test_global_mode_at_degree_one(p, s):
    # q^n - q^(n-1) holds only for n >= 2: all q monic linears are
    # square-free
    rep = run_global(RunConfig(p=p, s=s, n=1))
    q = p ** s
    assert rep["overall_pass"] is True
    assert all(rep["checks"].values())
    assert rep["totals"]["sq"] == rep["totals"]["squarefree_expected"] == q


def test_cli_global_at_degree_one(tmp_path, capsys):
    ini = tmp_path / "n1.ini"
    ini.write_text("[field]\np = 3\n\n[family]\nn = 1\n")
    assert cli.main(["global", "--config", str(ini)]) == 0
    assert json.loads(capsys.readouterr().out)["overall_pass"] is True


def test_bounds_mode_reports_formulas_without_enumeration():
    rep = run_bounds(_demo_cfg())
    assert rep["mode"] == "bounds"
    assert rep["overall_pass"] is True
    row = rep["rows"][0]
    assert row["fp1"]["value"] == "300/1"
    assert "pass" not in row["fp1"]
    assert rep["discr"]["value"] == 300


@pytest.mark.parametrize("p, s, n", [(5, 1, 4), (3, 2, 4), (5, 1, 5),
                                     (3, 1, 2)],
                         ids=["F5-n4", "F9-n4", "F5-n5", "F3-n2"])
def test_discr_cell_matches_the_fraction_reference(p, s, n):
    # census and bounds read n(n-1) q^(n-m-1) off bound_terms' integers;
    # for every prescribed index set, value and verdict must be those of
    # family.bound_nonsquarefree: also at m = n (q^(n-m-1) = 1/q), where
    # 5 divides 5 * 4 at (5, 5) and the value stays an integer, and at
    # the tie nsq = 2 = n(n-1) of c_0 = 1 over F_3, which passes
    field = make_field(p, s)
    ties = []
    for m in range(1, n + 1):
        for indices in combinations(range(1, n + 1), m):
            cfg = RunConfig(p=p, s=s, n=n, mode="prescribed",
                            indices=indices, alpha=(1,) * m)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")     # q <= n families warn
                ref = bound_nonsquarefree(build_family(cfg, field))
                census_rep, bounds_rep = run_census(cfg), run_bounds(cfg)
            value = ref if isinstance(ref, int) else _frac_str(ref)
            totals = census_rep["totals"]
            applicable = field.q > n
            assert bounds_rep["discr"] == {"applicable": applicable,
                                           "value": value}, indices
            assert totals["discr"] == {
                "applicable": applicable, "value": value,
                "pass": totals["nsq"] <= ref if applicable else None}, indices
            if applicable and totals["nsq"] == ref:
                ties.append(indices)
    assert ties == ([(2,)] if (p, n) == (3, 2) else [])


def test_verify_mode_full_and_sectioned():
    cfg = RunConfig(p=5, s=1, n=3, r=2, rows=((1,),), alpha=(0,))
    rep = run_verify(cfg)
    assert rep["overall_pass"] is True
    assert sorted(rep["sections"]) == ["correspondence", "variety"]
    assert all(row["type_pattern_ok"] and row["membership_equiv_ok"]
               and row["squarefree_fiber_ok"]
               for row in rep["correspondence"])
    assert all(row["identity_ok"] and row["probe"]["violations"] == 0
               for row in rep["variety"])
    assert rep["cross"] == {
        "pattern_partition_ok": True,
        "squarefree_total_ok": True,
        "family_partition_ok": True,
        "squarefree_grouped_ok": True,
    }
    only_corr = run_verify(cfg, sections=("correspondence",))
    assert "variety" not in only_corr
    assert only_corr["overall_pass"] is True
    assert render_csv(rep).startswith("section,lambda,check,pass,detail\n")


@pytest.mark.parametrize("sections", [
    ("varieties",), ("correspondence", "Variety"), (), [],
    ("variety", "variety"), ("correspondence", "variety", "correspondence"),
    "variety"])
def test_verify_refuses_bad_sections_before_any_work(monkeypatch, sections):
    # a misspelled, empty or repeated section list would check nothing
    # but the cross identities and still pass
    def refuse(*args):
        raise AssertionError("run_verify started work")

    monkeypatch.setattr(census, "make_field", refuse)
    cfg = RunConfig(p=5, s=1, n=3, r=2, rows=((1,),), alpha=(0,))
    with pytest.raises(ValueError, match="sections"):
        run_verify(cfg, sections=sections)


def test_verify_passes_workers_to_the_member_tally(monkeypatch):
    seen = []
    real = census.census_tally

    def tally(fam, budget, workers=1, *rest):
        seen.append(workers)
        return real(fam, budget, workers, *rest)

    monkeypatch.setattr(census, "census_tally", tally)
    cfg = RunConfig(p=5, s=1, n=3, r=2, rows=((1,),), alpha=(0,), workers=3)
    one = render_json(run_verify(cfg, sections=("variety",)))
    cfg.workers = 1
    assert render_json(run_verify(cfg, sections=("variety",))) == one
    assert seen == [3, 1]


@pytest.mark.parametrize("driver, cfg, sections", [
    (run_global, RunConfig(p=3, n=9), None),
    (run_global, RunConfig(p=2, s=3, n=5), None),
    (run_census, RunConfig(p=7, n=5, r=3, rows=((0, 1),), alpha=(4,)),
     None),
    (run_census, RunConfig(p=13, n=4, r=2, rows=((1, 0), (0, 1)),
                           alpha=(0, 0)), None),
    # a depth-n table by the search, and a depth-0 one by the characters
    (run_verify, RunConfig(p=5, n=4, r=2, rows=((1, 0),), alpha=(0,)),
     ("correspondence", "variety")),
    (run_verify, RunConfig(p=7, n=4, r=2, rows=((1, 0),), alpha=(3,)),
     ("variety",)),
    (run_verify, RunConfig(p=13, n=3, r=1, rows=((1, 0), (0, 1)),
                           alpha=(1, 2)), ("correspondence", "variety")),
], ids=["global-3-9", "global-8-5", "census-table", "census-kernel",
        "verify-both", "verify-variety", "verify-kernel"])
def test_each_driver_enumerates_the_patterns_once(monkeypatch, driver, cfg,
                                                  sections):
    # the driver forms the pattern list once and hands it to the tables
    # it builds and to the member tally, also where that is read off the
    # shared table.  Every module that reads enumerate_patterns gets the
    # counting one, and the banks start empty
    real = factpat.patterns.enumerate_patterns
    calls = []

    def counting(n):
        calls.append(n)
        return real(n)

    for name, module in list(sys.modules.items()):
        if (name.startswith("factpat.")
                and hasattr(module, "enumerate_patterns")):
            monkeypatch.setattr(module, "enumerate_patterns", counting)
    monkeypatch.setattr(factpat.ffield, "_SHARED_BANKS", {})
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")     # q <= n families warn by design
        rep = driver(cfg) if sections is None else driver(cfg, sections)
    assert rep["overall_pass"] is True
    assert calls == [cfg.n]


@pytest.mark.parametrize("driver, cfg", [
    (run_census, RunConfig(p=7, n=5, r=3, rows=((0, 1),), alpha=(4,))),
    (run_census, RunConfig(p=13, n=4, r=2, rows=((1, 0), (0, 1)),
                           alpha=(0, 0))),
    (run_bounds, RunConfig(p=5, n=3, mode="prescribed", indices=(1, 2, 3),
                           alpha=(1, 2, 3))),
    (run_global, RunConfig(p=2, s=3, n=5)),
], ids=["census-table", "census-kernel", "bounds", "global"])
def test_each_driver_weighs_each_pattern_once(monkeypatch, driver, cfg):
    # a report row reads its pattern's weight once; the bounds' other
    # constants are the family's, formed once per call
    real = factpat.patterns.pattern_stats
    calls = []

    def counting(pat):
        calls.append(pat)
        return real(pat)

    for name, module in list(sys.modules.items()):
        if name.startswith("factpat.") and hasattr(module, "pattern_stats"):
            monkeypatch.setattr(module, "pattern_stats", counting)
    assert driver(cfg)["overall_pass"] is True
    assert calls == enumerate_patterns(cfg.n)


@pytest.mark.parametrize("p, s", [(5, 1), (7, 1), (2, 3), (3, 2), (11, 1)])
def test_integer_rows_match_the_fraction_bounds(p, s):
    # every family of prescribed positions at n = 4 and 5, so m runs from
    # 1 to n (q^(n-m-1) = 1/q at m = n) and D = 0 at positions {1}; x, w
    # times a deviation, sits on both sides of each edge of each bound.
    # BoundReport.allows and value_str, on Fractions, are the oracle
    field = make_field(p, s)
    verdicts = set()
    for n in (4, 5):
        for m in range(1, n + 1):
            for indices in combinations(range(1, n + 1), m):
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore")     # q <= n warns
                    fam = prescribed_family(field, n, indices, (0,) * m)
                terms = bound_terms(fam)
                q, den, plain, _ = terms
                for pat in enumerate_patterns(n):
                    w = pattern_stats(pat).weight
                    for cnt in (0, fam.size // w, fam.size // w + 1):
                        row, x = census._count_row(
                            pat, w, {pat.counts: (cnt, 0)}, fam.size)
                        dev = abs(cnt - Fraction(fam.size, w))
                        assert (row["expected"], row["deviation"]) == (
                            _frac_str(Fraction(fam.size, w)), _frac_str(dev))
                        assert x == w * dev
                    # a * sqrt(q) + b over w * den, in integers
                    edges = set()
                    for *_, a, b in terms[3]:
                        b += plain * w
                        top = b + isqrt(a * a * q)
                        edges |= {b, b + 1, top, top + 1}
                    bounds = {"fp1": bound_fp1(fam, pat),
                              "fp2": bound_fp2(fam, pat)}
                    for x in {e // den + k for e in edges for k in (0, 1)}:
                        cells = census._bound_cells(terms, w, x)
                        for tag, b in bounds.items():
                            ok = b.allows(Fraction(x, w))
                            assert cells[tag] == {
                                "applicable": b.applicable,
                                "reason": b.reason, "value": b.value_str(),
                                "pass": ok if b.applicable else None}
                            verdicts.add((b.applicable, ok))
    assert verdicts == {(False, False), (False, True), (True, False),
                        (True, True)}


# ---------------------------------------------------------------------------
# command-line interface


# Absolute directory holding the imported ``factpat``: the CLI child runs
# from a temporary directory, where a relative PYTHONPATH such as ``src``
# no longer resolves, so it is put first on the child's PYTHONPATH.
_PACKAGE_ROOT = str(Path(factpat.__file__).resolve().parent.parent)


def _run_cli(args, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (_PACKAGE_ROOT, env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, "-m", "factpat.cli", *args],
                          capture_output=True, text=True, cwd=cwd, env=env)


def test_cli_census_roundtrip(tmp_path):
    cfgfile = tmp_path / "demo.ini"
    cfgfile.write_text(CONFIG_TEXT)
    out = tmp_path / "rep.json"
    proc = _run_cli(["census", "--config", str(cfgfile),
                     "--out", str(out)], tmp_path)
    assert proc.returncode == 0, proc.stderr
    rep = json.loads(out.read_text())
    assert rep["overall_pass"] is True
    # byte identity under a worker override
    out2 = tmp_path / "rep2.json"
    proc2 = _run_cli(["census", "--config", str(cfgfile), "--workers", "2",
                      "--out", str(out2)], tmp_path)
    assert proc2.returncode == 0, proc2.stderr
    assert out.read_bytes() == out2.read_bytes()


def test_cli_unwritable_out_exits_2(tmp_path, capsys):
    cfgfile = tmp_path / "demo.ini"
    cfgfile.write_text(CONFIG_TEXT)
    out = tmp_path / "missing" / "r.json"
    assert cli.main(["census", "--config", str(cfgfile),
                     "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("factpat:")
    assert not out.parent.exists()


def test_cli_csv_to_stdout(tmp_path):
    cfgfile = tmp_path / "demo.ini"
    cfgfile.write_text(CONFIG_TEXT)
    proc = _run_cli(["census", "--config", str(cfgfile),
                     "--format", "csv"], tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == CSV_GOLDEN


def test_cli_all_subcommands_run(tmp_path):
    cfgfile = tmp_path / "demo.ini"
    cfgfile.write_text(CONFIG_TEXT)
    for sub in ("bounds", "global", "verify-correspondence", "variety"):
        proc = _run_cli([sub, "--config", str(cfgfile)], tmp_path)
        assert proc.returncode == 0, f"{sub}: {proc.stderr}"
        assert proc.stdout.strip()


def test_cli_error_paths(tmp_path):
    proc = _run_cli(["census", "--config", str(tmp_path / "nope.ini")],
                    tmp_path)
    assert proc.returncode == 2, proc.stderr
    assert "nope.ini" in proc.stderr
    bad = tmp_path / "bad.ini"
    bad.write_text("[field]\np = 6\n\n[family]\nn = 4\nr = 3\n"
                   "rows = 1\nalpha = 0\n")
    proc2 = _run_cli(["census", "--config", str(bad)], tmp_path)
    assert proc2.returncode == 2, proc2.stderr
    proc3 = _run_cli(["census", "--config", str(bad.with_name("x.ini")),
                      "--budget", "1"], tmp_path)
    assert proc3.returncode == 2, proc3.stderr


# INI text that configparser cannot read (no section header, an unclosed
# section header, a key given twice in one section), and a value with a
# "%", which is read as text and then fails as a number; each with what
# the one line on stderr must name
MALFORMED_INI = {
    "headless": ("p = 5\n[family]\nn = 4\n", "malformed config file"),
    "unclosed": (CONFIG_TEXT.replace("[family]", "[family"),
                 "malformed config file"),
    "duplicate": (CONFIG_TEXT.replace("p = 5\n", "p = 5\np = 7\n"),
                  "malformed config file"),
    "percent": (CONFIG_TEXT.replace("alpha = 0", "alpha = 0%"), "'0%'"),
}


_LINEAR = "r = 3\nrows =\n    1\nalpha = 0\n"


def _linear(body):
    """CONFIG_TEXT with its linear family's r, rows and alpha as body."""
    return CONFIG_TEXT.replace(_LINEAR, body)


def _prescribed(body):
    """CONFIG_TEXT with a prescribed family's indices and alpha as body."""
    return _linear(body).replace("mode = linear", "mode = prescribed")


# (command, config text, what its one error line names) of a readable
# file whose values are not a valid run
CONFIG_ERRORS = {
    "mode": ("census", CONFIG_TEXT.replace("mode = linear", "mode = cubic"),
             "unknown mode 'cubic'"),
    "format": ("census", CONFIG_TEXT.replace("format = json", "format = xml"),
               "unknown format 'xml'"),
    "n-1": ("census", CONFIG_TEXT.replace("n = 4", "n = 1"),
            "family needs n >= 2"),
    "n-41": ("census", CONFIG_TEXT.replace("n = 4", "n = 41")
             .replace("r = 3", "r = 40"), "degree must be in 1..40"),
    "no-indices": ("census", _prescribed("alpha = 0\n"),
                   "prescribed mode needs indices"),
    "no-rows": ("census", _linear("r = 3\nalpha = 0\n"),
                "linear mode needs rows"),
    "census-global": ("census",
                      CONFIG_TEXT.replace("mode = linear", "mode = global"),
                      "mode 'global' does not define a family"),
    "global-n0": ("global", CONFIG_TEXT.replace("mode = linear",
                                                "mode = global")
                  .replace("n = 4\n", ""), "global census needs n >= 1"),
    "row-length": ("census", _linear("r = 3\nrows = 1 2\nalpha = 0\n"),
                   "rows must have n-r = 1 entries"),
    "alpha-count": ("census", _linear("r = 3\nrows = 1\nalpha = 0 1\n"),
                    "alpha must have one entry per row"),
    "many-rows": ("census",
                  _linear("r = 3\nrows =\n    1\n    2\nalpha = 0 1\n"),
                  "more constraints than window coefficients"),
    "dependent": ("census",
                  _linear("r = 2\nrows =\n    1 2\n    2 4\nalpha = 0 1\n"),
                  "constraint rows are linearly dependent"),
    "r-0": ("census", _linear("r = 0\nrows = 1 0 0 0\nalpha = 0\n"),
            "need 1 <= r <= n-1"),
    "r-4": ("census", _linear("r = 4\nrows = 1\nalpha = 0\n"),
            "need 1 <= r <= n-1"),
    "row-value": ("census", _linear("r = 3\nrows = 5\nalpha = 0\n"),
                  "row entry 5 out of range"),
    "alpha-value": ("census", _linear("r = 3\nrows = 1\nalpha = 5\n"),
                    "alpha entry 5 out of range"),
    "prescribed-value": ("census",
                         _prescribed("indices = 1 2\nalpha = 0 5\n"),
                         "prescribed value 5 out of range"),
    "unsorted": ("census", _prescribed("indices = 2 1\nalpha = 0 0\n"),
                 "indices must be strictly increasing"),
    "index-0": ("census", _prescribed("indices = 0 1\nalpha = 0 0\n"),
                "indices must lie in 1..n"),
    "index-5": ("census", _prescribed("indices = 1 5\nalpha = 0 0\n"),
                "indices must lie in 1..n"),
    "value-count": ("census", _prescribed("indices = 1 2\nalpha = 0\n"),
                    "one value per prescribed index required"),
    "p-6": ("census", CONFIG_TEXT.replace("p = 5", "p = 6"),
            "p = 6 is not prime"),
    "s-0": ("census", CONFIG_TEXT.replace("\ns = 1\n", "\ns = 0\n"),
            "s must be >= 1"),
    "int-field": ("census", CONFIG_TEXT.replace("p = 5", "p = five"),
                  "[field] p: 'five' is not an integer"),
    "int-family": ("census", CONFIG_TEXT.replace("n = 4", "n = 4.0"),
                   "[family] n: '4.0' is not an integer"),
    "int-rows": ("census", _linear("r = 3\nrows =\n    1x\nalpha = 0\n"),
                 "[family] rows: '1x' is not an integer"),
    "int-run": ("census", CONFIG_TEXT.replace("workers = 1", "workers = one"),
                "[run] workers: 'one' is not an integer"),
}
CONFIG_CASES = {**{kind: ("census", *case)
                   for kind, case in MALFORMED_INI.items()}, **CONFIG_ERRORS}


@pytest.mark.parametrize("kind", sorted(CONFIG_CASES))
def test_cli_malformed_config_exits_2(tmp_path, capsys, kind):
    # a malformed file, or one whose values are not a valid run, is a
    # configuration error, not a failed check
    command, text, named = CONFIG_CASES[kind]
    ini = tmp_path / f"{kind}.ini"
    ini.write_text(text)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")     # q <= n families warn by design
        assert cli.main([command, "--config", str(ini)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("factpat: ") and err.count("\n") == 1
    assert named in err
    if named == "malformed config file":
        assert str(ini) in err


def test_cli_malformed_config_prints_no_traceback(tmp_path):
    ini = tmp_path / "duplicate.ini"
    ini.write_text(MALFORMED_INI["duplicate"][0])
    proc = _run_cli(["census", "--config", str(ini)], tmp_path)
    assert proc.returncode == 2
    assert proc.stderr.startswith("factpat: ") and proc.stderr.count("\n") == 1
    assert "Traceback" not in proc.stderr


# (call, exception type, its message) of each refusal that no config
# reaches, as the CLI's own checks come first or it never makes the call
REFUSALS = {
    "field-float": (lambda: make_field(5.0), ValueError,
                    "p and s must be integers"),
    "field-no-modulus": (lambda: FieldParams(2, 3), ValueError,
                         "degree-s modulus required when s > 1"),
    "layer-i0": (lambda: ExtCtx(make_field(5), 0), ValueError,
                 "extension degree must be >= 1"),
    "embedding-bases": (lambda: Embedding(ExtCtx(make_field(3), 1),
                                          ExtCtx(make_field(5), 2)),
                        ValueError, "embeddings need a common base field"),
    "pdivmod-zero": (lambda: pdivmod(make_field(5), [1, 2], []),
                     ZeroDivisionError, "polynomial division by zero"),
    "ppowmod-negative": (lambda: ppowmod(make_field(5), [0, 1], -1, [1, 0, 1]),
                         ValueError, "negative exponent"),
    "family-n1": (lambda: new_family(make_field(5), 1, 0, [(1,)], [0]),
                  ValueError, "degree must be >= 2"),
    "prescribed-r-n": (lambda: new_family(make_field(5), 3, 3, [()], [0],
                                          prescribed=True),
                       ValueError, "need 0 <= r <= n-1"),
    "prescribed-r-negative": (lambda: new_family(make_field(5), 3, -1,
                                                 [(1, 0, 0, 0)], [0],
                                                 prescribed=True),
                              ValueError, "need 0 <= r <= n-1"),
    "family-no-rows": (lambda: new_family(make_field(5), 3, 1, [], []),
                       ValueError, "need at least one constraint row"),
    "prescribed-no-indices": (
        lambda: prescribed_family(make_field(5), 3, [], []), ValueError,
        "need at least one prescribed index"),
    "ci-degree-count": (lambda: bound_reference_ci(4, 2, (2,)), ValueError,
                        "one degree per defining equation required"),
    "ci-degree-0": (lambda: bound_reference_ci(4, 2, (2, 0)), ValueError,
                    "degrees must be >= 1"),
}


@pytest.mark.parametrize("kind", sorted(REFUSALS))
def test_engine_refuses_invalid_arguments(kind):
    call, exc, message = REFUSALS[kind]
    with pytest.raises(exc) as info:
        call()
    assert info.type is exc and str(info.value) == message


# (command, config text, its one error line) of a q <= n family that
# would warn that the bounds do not apply, were it built
UNBUILT_FAMILIES = {
    "census-n41": ("census", _prescribed("indices = 1\nalpha = 0\n")
                   .replace("n = 4", "n = 41"),
                   "factpat: degree must be in 1..40\n"),
    "bounds-n41": ("bounds", _prescribed("indices = 1\nalpha = 0\n")
                   .replace("n = 4", "n = 41"),
                   "factpat: degree must be in 1..40\n"),
    "census-dependent-q3": (
        "census", _linear("r = 2\nrows =\n    1 2\n    2 1\nalpha = 0 1\n")
        .replace("p = 5", "p = 3"),
        "factpat: constraint rows are linearly dependent\n"),
}


@pytest.mark.parametrize("kind", sorted(UNBUILT_FAMILIES))
def test_cli_refuses_an_unbuilt_family_without_warning(tmp_path, kind):
    # a family that is refused is never built, so, run in a fresh
    # process, stderr holds the one refusal line and no q <= n warning
    command, text, line = UNBUILT_FAMILIES[kind]
    ini = tmp_path / f"{kind}.ini"
    ini.write_text(text)
    proc = _run_cli([command, "--config", str(ini)], tmp_path)
    assert proc.returncode == 2
    assert proc.stderr == line


@pytest.mark.parametrize("p, err", [
    (3, "factpat: warning: q = 3 <= n = 4: the deviation bounds do not "
        "apply\n"),
    (5, "")], ids=["q<=n", "q>n"])
def test_cli_warns_in_one_line(tmp_path, p, err):
    # a q <= n family still exits 0, with the warning as one factpat:
    # line that names no source file
    ini = tmp_path / f"q{p}.ini"
    ini.write_text(CONFIG_TEXT.replace("p = 5", f"p = {p}"))
    proc = _run_cli(["bounds", "--config", str(ini)], tmp_path)
    assert proc.returncode == 0
    assert proc.stderr == err


@pytest.mark.parametrize("workers", ["0", "-2"])
def test_cli_rejects_workers_below_one(tmp_path, capsys, workers):
    cfgfile = tmp_path / "demo.ini"
    cfgfile.write_text(CONFIG_TEXT)
    assert cli.main(["census", "--config", str(cfgfile),
                     "--workers", workers]) == 2
    assert "workers must be >= 1" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["census", "bounds"])
def test_cli_rejects_budget_below_one(tmp_path, capsys, command):
    # a budget below 1 is a configuration error, not an oversized family
    cfgfile = tmp_path / "demo.ini"
    cfgfile.write_text(CONFIG_TEXT)
    assert cli.main([command, "--config", str(cfgfile), "--budget", "-3"]) == 2
    assert "budget must be >= 1" in capsys.readouterr().err


def test_cli_rejects_a_large_prime_at_once(tmp_path, capsys):
    ini = tmp_path / "large.ini"
    ini.write_text(f"[field]\np = {2 ** 61 - 1}\n\n[family]\nn = 4\nr = 3\n"
                   "rows = 1\nalpha = 0\n")
    start = time.monotonic()
    assert cli.main(["census", "--config", str(ini)]) == 2
    assert time.monotonic() - start < 1
    assert "exceeds the 1048576 limit" in capsys.readouterr().err


def test_cli_budget_override_triggers_guard(tmp_path):
    cfgfile = tmp_path / "demo.ini"
    cfgfile.write_text(CONFIG_TEXT)
    proc = _run_cli(["census", "--config", str(cfgfile), "--budget", "5"],
                    tmp_path)
    assert proc.returncode == 2, proc.stderr
    assert "budget" in proc.stderr.lower()
