"""Acceptance suite: ten named criteria, one test (and one pass/fail
line under pytest -v) per criterion.

Each criterion pins its grid, its tolerance (exact unless a bound says
otherwise), and — where stated — its runtime budget.  Expensive censuses
are computed once in a module-level cache and shared by the criteria
that read different conclusions from the same enumeration.
"""

from __future__ import annotations

import math
import multiprocessing
import time
import warnings
from dataclasses import replace
from fractions import Fraction
from itertools import combinations

from factpat.census import (KERNEL_NS, RunConfig, _chunk_task,
                            build_family, render_json, run_census, run_global,
                            run_verify)
from factpat.family import (MEMBER_BUDGET, bound_fp1, bound_fp2,
                            bound_nonsquarefree, new_family, pattern_tally)
from factpat.ffield import ContextBank, make_field
from factpat.patterns import (Pattern, enumerate_patterns, irreducible_count,
                              pattern_stats, symmetric_group_census)
from factpat.tables import family_tally, table_cost
from factpat.variety import count_points, jacobian_probe, sym_system

_CACHE: dict = {}

GLOBAL_GRID = ((3, 4), (5, 3), (5, 4), (7, 3))

# criterion 6/7/8 family grid: all pivot patterns at r = 3
BOUND_GRID_Q = (7, 11)
BOUND_GRID_N = (5, 6)
BOUND_GRID_M = (1, 2)


def _field(p, s=1):
    key = ("field", p, s)
    if key not in _CACHE:
        _CACHE[key] = make_field(p, s)
    return _CACHE[key]


def _global_reports():
    if "global" not in _CACHE:
        reports = {}
        for q, n in GLOBAL_GRID:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                reports[(q, n)] = run_global(RunConfig(p=q, n=n))
        _CACHE["global"] = reports
    return _CACHE["global"]


def _pivot_rows(n, r, pivots):
    # unit rows in the Z-window select exactly the wanted pivots
    ncols = n - r
    return [[1 if c == piv - 1 else 0 for c in range(ncols)]
            for piv in pivots]


def _grid_families():
    """(q, n, m, pivots) -> (family, tally) over the full bound grid.

    Each tally is pattern_tally's, the oracle's, over chunks of members by
    leading free coefficient on a 2-worker pool (census._chunk_task),
    merged by addition as census_tally merges them.  Meanwhile the table
    route, tables.family_tally, tallies each family: it must agree."""
    if "grid" not in _CACHE:
        families = {}
        for q in BOUND_GRID_Q:
            field = _field(q)
            for n in BOUND_GRID_N:
                for m in BOUND_GRID_M:
                    for pivots in combinations(range(1, n - 3 + 1), m):
                        fam = new_family(field, n, 3,
                                         _pivot_rows(n, 3, pivots),
                                         [0] * m)
                        assert fam.pivots == pivots
                        families[(q, n, m, pivots)] = fam
        tasks = [(fam, first, MEMBER_BUDGET)
                 for fam in families.values() for first in range(fam.q)]
        with multiprocessing.get_context("spawn").Pool(2) as pool:
            pending = pool.map_async(_chunk_task, tasks, chunksize=1)
            tables = {key: family_tally(fam) for key, fam in families.items()}
            parts = iter(pending.get())
        out = {}
        for key, fam in families.items():
            tally: dict[tuple, list] = {}
            for _ in range(fam.q):
                for pat, (cnt, sq) in next(parts).items():
                    slot = tally.setdefault(pat, [0, 0])
                    slot[0] += cnt
                    slot[1] += sq
            assert tally == tables[key], key
            out[key] = (fam, tally)
        _CACHE["grid"] = out
    return _CACHE["grid"]


def _deviation(fam, tally, pat):
    got = Fraction(tally.get(pat.counts, [0, 0])[0])
    return abs(got - pattern_stats(pat).proportion * fam.size)


def test_criterion_01_partition_weight_identities():
    start = time.monotonic()
    for n in range(1, 13):
        pats = enumerate_patterns(n)
        assert sum(math.factorial(n) // pattern_stats(p).weight
                   for p in pats) == math.factorial(n)
        assert sum(pattern_stats(p).proportion for p in pats) == 1
    for n in range(1, 8):
        census = symmetric_group_census(n)
        for pat, freq in census.items():
            assert freq == pattern_stats(pat).perm_count
        assert sum(census.values()) == math.factorial(n)
    assert time.monotonic() - start < 30


def test_criterion_02_exhaustive_pattern_census():
    start = time.monotonic()
    for (q, n), rep in _global_reports().items():
        assert rep["totals"]["count"] == q ** n
        assert sum(row["count"] for row in rep["rows"]) == q ** n
        pure = next(row for row in rep["rows"]
                    if row["lambda"] == str(n))
        assert pure["count"] == irreducible_count(q, n)
        assert rep["checks"]["irreducible_count_matches_necklace"]
    assert time.monotonic() - start < 10


def test_criterion_03_squarefree_count_exact():
    for (q, n), rep in _global_reports().items():
        assert rep["totals"]["sq"] == q ** n - q ** (n - 1)
        assert rep["checks"]["squarefree_count_matches"]


def test_criterion_04_correspondence_exhaustive():
    start = time.monotonic()
    grid = ((5, 3), (5, 4), (7, 3))
    for q, n in grid:
        cfg = RunConfig(p=q, s=1, n=n, r=n - 1,
                        rows=((1,),), alpha=(0,))
        rep = run_verify(cfg, sections=("correspondence",))
        for row in rep["correspondence"]:
            assert row["type_pattern_ok"], (q, n, row["lambda"])
            assert row["type_pattern_counterexample"] is None
            assert row["squarefree_fiber_ok"], (q, n, row["lambda"])
        assert rep["overall_pass"]
    assert time.monotonic() - start < 60


def test_criterion_05_counting_identity_three_families():
    cases = {
        (5, 4): [([[1]], [0]), ([[2]], [3]), ([[1]], [1])],
        (7, 5): [([[1, 0]], [0]), ([[0, 1]], [0]), ([[1, 3]], [2])],
    }
    for (q, n), families in cases.items():
        field = _field(q)
        bank = ContextBank.shared(field)
        canon = set()
        for rows, alpha in families:
            fam = new_family(field, n, 3, rows, alpha)
            canon.add((fam.srows, fam.salpha))
            tally = pattern_tally(fam)
            for pat in enumerate_patterns(n):
                sys_ = sym_system(fam, pat, bank)
                pc = count_points(sys_, member_tally=tally)
                assert pc.a_sq * pc.weight == pc.v_neq
        # canonical reduced forms differ, so the solution sets differ
        assert len(canon) >= 3


def test_criterion_06_fp1_bound_over_grid():
    start = time.monotonic()
    grid = _grid_families()
    checked = 0
    for (q, n, m, pivots), (fam, tally) in grid.items():
        for pat in enumerate_patterns(n):
            rep = bound_fp1(fam, pat)
            assert rep.applicable, (q, n, m, pivots, rep.reason)
            assert rep.allows(_deviation(fam, tally, pat)), \
                (q, n, m, pivots, pat.label())
            checked += 1
    assert checked == sum(len(enumerate_patterns(n))
                          for (_, n, _, _) in grid)
    # the stated runtime gate covers the heaviest grid point (q = 11,
    # n = 6, m = 1), enumerated above through the shared cache
    assert time.monotonic() - start < 300, "grid census exceeded 5 minutes"


def test_criterion_07_fp2_bound_including_char2():
    grid = _grid_families()
    checked = 0
    for (q, n, m, pivots), (fam, tally) in grid.items():
        if m + 2 > 3:          # r = 3 throughout the grid
            continue
        for pat in enumerate_patterns(n):
            rep = bound_fp2(fam, pat)
            assert rep.applicable, (q, n, m, pivots, rep.reason)
            assert rep.allows(_deviation(fam, tally, pat))
            checked += 1
    assert checked > 0
    # characteristic-2 instance: q = 8 = 2^3, n = 5, both pivot choices
    field8 = _field(2, 3)
    for pivots in ((1,), (2,)):
        fam = new_family(field8, 5, 3, _pivot_rows(5, 3, pivots), [0])
        tally = pattern_tally(fam)
        for pat in enumerate_patterns(5):
            rep = bound_fp2(fam, pat)
            assert rep.applicable, rep.reason
            assert rep.allows(_deviation(fam, tally, pat))
        # the first bound stays out of characteristic 2
        assert not bound_fp1(fam, Pattern(5, (5, 0, 0, 0, 0))).applicable


def test_criterion_08_discriminant_locus_bound():
    grid = _grid_families()
    for (q, n, m, pivots), (fam, tally) in grid.items():
        assert q > n
        nsq = sum(tot - sq for tot, sq in tally.values())
        assert nsq <= n * (n - 1) * q ** (n - m - 1)
        assert nsq <= bound_nonsquarefree(fam)
    field8 = _field(2, 3)
    fam8 = new_family(field8, 5, 3, [[1, 0]], [0])
    tally8 = pattern_tally(fam8)
    nsq8 = sum(tot - sq for tot, sq in tally8.values())
    assert nsq8 <= bound_nonsquarefree(fam8)


def test_criterion_09_jacobian_probe_clean():
    field = _field(7)
    bank = ContextBank.shared(field)
    for n in (5, 6):
        fam = new_family(field, n, 3, _pivot_rows(n, 3, (1,)), [0])
        for pat in enumerate_patterns(n):
            sys_ = sym_system(fam, pat, bank)
            probe = jacobian_probe(sys_)
            assert probe.scope == "p>2"
            assert probe.violations == 0, (n, pat.label(),
                                           probe.counterexamples)
            assert probe.confirmed == probe.rank_deficient


def test_criterion_10_reports_byte_identical():
    census_cfg = RunConfig(p=5, s=1, n=4, mode="linear", r=3,
                           rows=((1,),), alpha=(0,))
    assert render_json(run_census(census_cfg)) == render_json(
        run_census(census_cfg))
    # workers split the kernel path alone, which a family takes when its
    # table costs more than the kernel: compare one and two workers there
    kernel = RunConfig(p=3, n=8, r=4, rows=((1, 0, 0, 0), (0, 1, 0, 0),
                                            (0, 0, 1, 0), (0, 0, 0, 1)),
                       alpha=(0,) * 4)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")     # q <= n warns by design
        fam = build_family(kernel, _field(3))
        cost, _ = table_cost(fam.ctx, 8, 4, len(enumerate_patterns(8)))
        assert cost > KERNEL_NS * fam.size
        assert (render_json(run_census(kernel))
                == render_json(run_census(replace(kernel, workers=2))))
    verify_cfg = RunConfig(p=5, s=1, n=3, r=2, rows=((1,),), alpha=(0,))
    assert (render_json(run_verify(verify_cfg))
            == render_json(run_verify(verify_cfg)))
    glob_cfg = RunConfig(p=5, n=3)
    assert render_json(run_global(glob_cfg)) == render_json(run_global(glob_cfg))
