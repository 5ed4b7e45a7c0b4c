"""Window-wise scans checked against the per-point oracles.

scan_G (correspondence) and rational_zeros (variety) compute each
window's polynomial and root values once per call and walk F_q^n window
by window.  Oracles: build_G on a fresh bank with no Zech tables, and a
brute-force filter of eval_R over every x with the per-point root and
symmetric values.  Also here: the descent traps reached through the
scans, the pinned bytes of three verify reports, and the fail-fast on
the common-layer limit.
"""

from __future__ import annotations

import hashlib
import warnings
from itertools import product

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from factpat import census, cli, correspondence
from factpat.census import RunConfig, render_json, run_verify
from factpat.correspondence import (build_G, fiber_map, is_type_lambda,
                                    scan_G)
from factpat.errors import GaloisDescentError
from factpat.family import new_family, pattern_tally, prescribed_family
from factpat.ffield import ContextBank, ExtCtx, make_field
from factpat.patterns import Pattern, enumerate_patterns
from factpat.variety import (_esym_prefix, _root_values, count_points,
                             eval_R, jacobian_probe, rational_zeros,
                             sym_system, variety_pass)

# (p, s) for q in {2, 3, 4, 5, 7, 8, 9}: prime fields, extensions, char 2
FIELDS = ((2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2))


# ---------------------------------------------------------------------------
# the G scan against build_G


@settings(max_examples=30)
@given(st.sampled_from(FIELDS), st.integers(1, 4))
def test_G_scan_matches_build_G_on_a_bank_without_zech_tables(ps, n):
    K = make_field(*ps)
    oracle = ContextBank(K)             # schoolbook arithmetic throughout
    vectors = list(product(range(K.q), repeat=n))
    for pat in enumerate_patterns(n):
        want = [(is_type_lambda(x, pat), build_G(pat, x, oracle).full())
                for x in vectors]
        assert list(scan_G(pat, ContextBank.shared(K))) == want, pat.label()


# ---------------------------------------------------------------------------
# the point generator against a brute-force filter of eval_R


def _draw_family(K, n, data):
    """A random linear or prescribed family of degree n over K."""
    q = K.q
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")     # q <= n families warn by design
        if data.draw(st.booleans(), label="prescribed"):
            idx = sorted(data.draw(st.sets(st.integers(1, n), min_size=1,
                                           max_size=n - 1), label="indices"))
            vals = [data.draw(st.integers(0, q - 1)) for _ in idx]
            return prescribed_family(K, n, idx, vals)
        r = data.draw(st.integers(1, n - 1), label="r")
        m = data.draw(st.integers(1, n - r), label="m")
        rows = [[data.draw(st.integers(0, q - 1)) for _ in range(n - r)]
                for _ in range(m)]
        alpha = [data.draw(st.integers(0, q - 1)) for _ in range(m)]
        try:
            return new_family(K, n, r, rows, alpha)
        except ValueError:                  # dependent rows
            assume(False)


@settings(max_examples=40)
@given(st.sampled_from(FIELDS), st.integers(2, 4), st.data())
def test_rational_zeros_match_brute_force_filter(ps, n, data):
    K = make_field(*ps)
    fam = _draw_family(K, n, data)
    bank = ContextBank.shared(K)
    for pat in enumerate_patterns(n):
        sys_ = sym_system(fam, pat, bank)
        want = []
        for x in product(range(K.q), repeat=n):
            if not any(eval_R(sys_, x)):
                y = _root_values(sys_, x)
                want.append((x, y, _esym_prefix(sys_, y, sys_.nr)))
        got = [(x, list(y), list(e)) for x, y, e in rational_zeros(sys_)]
        assert got == want, pat.label()


def test_one_variety_pass_gives_counts_and_probe():
    F5 = make_field(5)
    bank = ContextBank.shared(F5)
    fam = new_family(F5, 4, 3, [[1]], [0])
    tally = pattern_tally(fam)
    for pat in enumerate_patterns(4):
        sys_ = sym_system(fam, pat, bank)
        assert variety_pass(sys_, member_tally=tally) == (
            count_points(sys_, member_tally=tally), jacobian_probe(sys_))


# ---------------------------------------------------------------------------
# descent traps through the scans (the corrupted layers of the trap tests
# in test_correspondence.py and test_variety.py)


def _bank_with_bad_conjugates():
    base = make_field(5)
    bank = ContextBank(base)
    bad = ExtCtx(base, 2)
    rows = [list(r) for r in bad.A]
    rows[1][1] = bad.add(rows[1][1], 1)   # no longer the Frobenius image
    bad.A = tuple(tuple(r) for r in rows)
    bank.override(2, bad)
    return bank


def _bank_with_bad_embedding_rows():
    base = make_field(5)
    bank = ContextBank(base)
    bad = ExtCtx(base, 2)
    rows = [list(r) for r in bad.A]
    rows[0][1] = bad.add(rows[0][1], base.q)
    bad.A = tuple(tuple(r) for r in rows)
    bank.override(2, bad)
    return bank


@pytest.mark.parametrize("pat", [Pattern(2, (0, 1)),       # streamed window
                                 Pattern(3, (1, 1, 0))])   # stored window
def test_corrupted_conjugate_table_trips_fiber_map(pat):
    with pytest.raises(GaloisDescentError):
        fiber_map(pat, _bank_with_bad_conjugates())


@pytest.mark.parametrize("n, pat", [(2, Pattern(2, (0, 1))),
                                    (4, Pattern(4, (0, 2, 0, 0)))])
def test_corrupted_embedding_layer_trips_point_scans(n, pat):
    base = make_field(5)
    fam = new_family(base, n, n - 1, [[1]], [0])
    sys_ = sym_system(fam, pat, _bank_with_bad_embedding_rows())
    with pytest.raises(GaloisDescentError):
        count_points(sys_)
    with pytest.raises(GaloisDescentError):
        jacobian_probe(sys_)


# ---------------------------------------------------------------------------
# verify reports: pinned bytes, the first type counterexample, fail-fast

# sha256 of render_json(run_verify(cfg)), taken before the scans were
# rewritten window by window
PINNED_VERIFY = [
    (RunConfig(p=5, n=3, r=2, rows=((2,),), alpha=(1,)),
     "eb0e18779bcdbb6794d9f459795cd51ea62d725b0819005ec8f91ed98ac5102f"),
    (RunConfig(p=2, s=2, n=3, r=1, rows=((1, 2),), alpha=(3,)),
     "5dd3257e268b1a28f36139ad11ce369f01861fdc5d9e973f9e7893368a0a5908"),
    (RunConfig(p=3, n=4, mode="prescribed", indices=(1, 3), alpha=(2, 1)),
     "e3034254706abfb8a191b4cda89d4dea872cc56cd55713adb6f481dde5b9d3fb"),
]


@pytest.mark.parametrize("cfg, digest", PINNED_VERIFY)
def test_verify_report_bytes_pinned(cfg, digest):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")     # q <= n families warn by design
        text = render_json(run_verify(cfg))
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_type_counterexample_is_the_first_disagreeing_vector(monkeypatch):
    # flip the typed flag of one vector under pattern 1^3: run_verify must
    # report exactly that vector
    flip = 7                                   # x = (0, 1, 2)
    real = correspondence.scan_G

    def lying_scan(pattern, bank, budget):
        for k, (t, g) in enumerate(real(pattern, bank, budget)):
            lie = k == flip and pattern.counts == (3, 0, 0)
            yield (not t if lie else t), g

    monkeypatch.setattr(correspondence, "scan_G", lying_scan)
    monkeypatch.setattr(census, "scan_G", lying_scan)
    cfg = RunConfig(p=5, n=3, r=2, rows=((1,),), alpha=(0,))
    rep = run_verify(cfg, sections=("correspondence",))
    row = rep["correspondence"][0]             # 1^3: every vector is typed
    assert row["lambda"] == "1^3"
    assert row["type_pattern_ok"] is False
    assert row["type_pattern_counterexample"] == {
        "x": [0, 1, 2], "typed": False, "pattern_matches": True}
    assert all(r["type_pattern_ok"] for r in rep["correspondence"][1:])
    assert rep["overall_pass"] is False


def _refuse(*args, **kwargs):
    raise AssertionError("a scan ran before the limit check")


def test_common_layer_limit_fails_before_any_scan(monkeypatch, tmp_path):
    # pattern 3 4 at n = 7 needs F_(5^12), over the order limit
    for name in ("census_tally", "scan_G", "sym_system", "variety_pass"):
        monkeypatch.setattr(census, name, _refuse)
    cfg = RunConfig(p=5, n=7, r=6, rows=((1,),), alpha=(0,))
    ini = tmp_path / "n7.ini"
    ini.write_text("[field]\np = 5\n\n[family]\nn = 7\nr = 6\n"
                   "rows = 1\nalpha = 0\n")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")     # q <= n families warn by design
        with pytest.raises(ValueError, match=r"extension order 5\^12 "
                                             r"exceeds the 1048576 limit"):
            run_verify(cfg, sections=("variety",))
        assert cli.main(["variety", "--config", str(ini)]) == 2


def test_verify_over_the_two_element_field():
    # the degree-1 layer over F_2 gets Zech tables like every other layer
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")     # q <= n families warn by design
        rep = run_verify(RunConfig(p=2, n=3, r=2, rows=((1,),), alpha=(1,)))
    assert rep["overall_pass"] is True
