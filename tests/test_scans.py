"""Window-wise scans checked against the per-point oracles.

scan_G (correspondence) and rational_zeros (variety) compute each
window's polynomial and E values once per call and walk F_q^n window by
window.  Oracles: build_G on a fresh bank with no Zech tables, and a
brute-force filter of eval_R over every x with the E values of build_G.
The probe's per-zero verdicts are held to a Jacobian interpolated from
eval_R along coordinate lines, to the square-freeness of build_G, and to
root multiplicities read from each window's minimal polynomial.  Also
here: the descent traps reached through the scans, the pinned bytes of
four verify reports, the variety at n = 7 that once needed F_(5^12), and
the fail-fast on a window layer over the order limit.
"""

from __future__ import annotations

import hashlib
import warnings
from itertools import product

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from factpat import census, cli, correspondence, ffield
from factpat.census import RunConfig, render_json, run_verify
from factpat.correspondence import (build_G, fiber_map, is_type_lambda,
                                    scan_G)
from factpat.errors import GaloisDescentError
from factpat.family import new_family, pattern_tally, prescribed_family
from factpat._dense import pmul
from factpat.ffield import ContextBank, ExtCtx, make_field, mat_rank
from factpat.patterns import Pattern, enumerate_patterns
from factpat.poly import is_squarefree
from factpat.variety import (_coincident, _double_collision, _jacobian,
                             count_points, eval_R, jacobian_probe,
                             rational_zeros, sym_system, variety_pass)

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
                # E_k = (-1)^k c_(n-k) of G(x), from the conjugate products
                full = build_G(pat, x, bank).full()
                want.append((x, [1] + [K.neg(full[n - k]) if k % 2
                                       else full[n - k]
                                       for k in range(1, sys_.nr + 1)]))
        got = [(x, list(e)) for x, e in rational_zeros(sys_)]
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
# the per-zero verdicts against independent oracles


def _line_derivative(K, values):
    """The t-coefficient of the polynomial of degree < q over K whose value
    at t = a is values[a], by Lagrange interpolation over all of K."""
    out = 0
    for a, fa in enumerate(values):
        if not fa:
            continue
        basis = [1]
        for b in range(K.q):
            if b != a:
                c = K.inv(K.sub(a, b))
                basis = pmul(K, basis, [K.mul(K.neg(b), c), c])
        if len(basis) > 1:
            out = K.add(out, K.mul(fa, basis[1]))
    return out


def _interpolated_jacobian(sys_, x):
    """dR_j/dx_h at x, from eval_R along each coordinate line."""
    K = sys_.fam.ctx
    cols = []
    for h in range(len(x)):
        line = [eval_R(sys_, x[:h] + (K.add(x[h], a),) + x[h + 1:])
                for a in range(K.q)]
        cols.append([_line_derivative(K, [v[j] for v in line])
                     for j in range(sys_.fam.m)])
    return [[col[j] for col in cols] for j in range(sys_.fam.m)]


def _probe_against_interpolation(fam):
    """Hold every zero's probe rank to the interpolated Jacobian's; return
    how many zeros are rank-deficient.  R_j has degree at most n - r < q
    in t along a line, so the q values at t in F_q give its derivative
    exactly."""
    K = fam.ctx
    bank = ContextBank.shared(K)
    total = 0
    for pat in enumerate_patterns(fam.n):
        sys_ = sym_system(fam, pat, bank)
        deficient = 0
        for x, e in rational_zeros(sys_):
            rank = mat_rank(K, _interpolated_jacobian(sys_, x))
            assert mat_rank(K, _jacobian(sys_, x, e)) == rank, (pat.label(), x)
            deficient += rank < fam.m
        assert jacobian_probe(sys_).rank_deficient == deficient
        total += deficient
    return total


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(FIELDS), st.integers(2, 4), st.data())
def test_probe_jacobian_matches_interpolation_along_lines(ps, n, data):
    K = make_field(*ps)
    assume(K.q ** n <= 2401)
    fam = _draw_family(K, n, data)
    assume(fam.n - fam.r < K.q)
    _probe_against_interpolation(fam)


def test_probe_jacobian_matches_interpolation_at_deficient_zeros():
    # E_1 = E_2 = 0 at n = 5 over F_5: five rank-deficient zeros per pattern
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")     # q <= n families warn by design
        fam = new_family(make_field(5), 5, 3, [[1, 0], [0, 1]], [0, 0])
    assert _probe_against_interpolation(fam) == 5 * len(enumerate_patterns(5))


def _root_multiplicities(sys_, x):
    """Multiplicity of each distinct root value of G(x), from each window's
    minimal polynomial: alpha of degree d (the number of distinct cyclic
    shifts of its coordinates) has d conjugates, each i/d times a root."""
    mult = {}
    for start, size, ctx in sys_.windows:
        win = x[start:start + size]
        d = len({win[k:] + win[:k] for k in range(size)})
        alpha = 0
        for c, conj in zip(win, ctx.conj):
            alpha = ctx.add(alpha, ctx.mul(c, conj))
        minpoly = [1]
        for k in range(d):
            minpoly = pmul(ctx, minpoly, [ctx.neg(ctx.frobenius(alpha, k)), 1])
        key = tuple(minpoly)
        mult[key] = mult.get(key, 0) + size // d
    return [(len(key) - 1, e) for key, e in mult.items()]


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(FIELDS), st.integers(2, 4), st.data())
def test_coincidence_and_double_collision_match_oracles(ps, n, data):
    K = make_field(*ps)
    fam = _draw_family(K, n, data)
    bank = ContextBank.shared(K)
    for pat in enumerate_patterns(n):
        sys_ = sym_system(fam, pat, bank)
        v_eq = 0
        for x, _ in rational_zeros(sys_):
            g = build_G(pat, x, bank)
            assert _coincident(sys_, x) == (not is_squarefree(g)), x
            v_eq += not is_squarefree(g)
            roots = _root_multiplicities(sys_, x)
            double = (any(e >= 4 for _, e in roots)
                      or sum(d for d, e in roots if e >= 2) >= 2)
            assert _double_collision(sys_, x) == double, x
        assert count_points(sys_, member_tally=pattern_tally(fam)).v_eq == v_eq


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


def _bank_with_non_base_shift():
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
    sys_ = sym_system(fam, pat, _bank_with_non_base_shift())
    with pytest.raises(GaloisDescentError):
        count_points(sys_)
    with pytest.raises(GaloisDescentError):
        jacobian_probe(sys_)


# ---------------------------------------------------------------------------
# verify reports: pinned bytes, the first type counterexample, fail-fast

# sha256 of render_json(run_verify(cfg, sections)): the first three taken
# before the scans were rewritten window by window, the variety-only one
# (pattern 2 3 then needed the common layer F_(5^6)) before the variety
# dropped its common layer
BOTH = ("correspondence", "variety")
PINNED_VERIFY = [
    (RunConfig(p=5, n=3, r=2, rows=((2,),), alpha=(1,)), BOTH,
     "eb0e18779bcdbb6794d9f459795cd51ea62d725b0819005ec8f91ed98ac5102f"),
    (RunConfig(p=2, s=2, n=3, r=1, rows=((1, 2),), alpha=(3,)), BOTH,
     "5dd3257e268b1a28f36139ad11ce369f01861fdc5d9e973f9e7893368a0a5908"),
    (RunConfig(p=3, n=4, mode="prescribed", indices=(1, 3), alpha=(2, 1)), BOTH,
     "e3034254706abfb8a191b4cda89d4dea872cc56cd55713adb6f481dde5b9d3fb"),
    (RunConfig(p=5, n=5, r=3, rows=((1, 0),), alpha=(0,)), ("variety",),
     "0e18eb21e1fd062c32a1b59c426be2fdb0f02f25aa1916b893c1475de5705ead"),
]


@pytest.mark.parametrize("cfg, sections, digest", PINNED_VERIFY,
                         ids=[f"cfg{k}-{d}" for k, (_, _, d)
                              in enumerate(PINNED_VERIFY)])
def test_verify_report_bytes_pinned(cfg, sections, digest):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")     # q <= n families warn by design
        text = render_json(run_verify(cfg, sections=sections))
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


def test_variety_pass_at_n7_needs_no_common_layer():
    # pattern 3 4 at n = 7 once needed the common layer F_(5^12), over the
    # order limit; its windows live in F_(5^3) and F_(5^4)
    base = make_field(5)
    bank = ContextBank.shared(base)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")     # q <= n families warn by design
        fam = new_family(base, 7, 6, [[1]], [0])
    pat = Pattern(7, (0, 0, 1, 1, 0, 0, 0))
    pc, probe = variety_pass(sym_system(fam, pat, bank),
                             member_tally=census.census_tally(fam))
    assert pc.identity_holds and pc.v_total == 5 ** 6
    assert probe.points_on_variety == 5 ** 6 and probe.ok


def test_window_layer_limit_fails_before_any_scan(monkeypatch, tmp_path):
    # at (11, 6) the window layer F_(11^6) of pattern 6 is itself over the
    # order limit: the family descriptor fails before anything is scanned
    for name in ("census_tally", "scan_G", "sym_system", "variety_pass"):
        monkeypatch.setattr(census, name, _refuse)
    cfg = RunConfig(p=11, n=6, r=3, rows=((1, 0, 0),), alpha=(0,))
    ini = tmp_path / "q11n6.ini"
    ini.write_text("[field]\np = 11\n\n[family]\nn = 6\nr = 3\n"
                   "rows = 1 0 0\nalpha = 0\n")
    with pytest.raises(ValueError, match=r"extension order 11\^6 "
                                         r"exceeds the 1048576 limit"):
        run_verify(cfg, sections=("variety",))
    assert cli.main(["variety", "--config", str(ini)]) == 2


def test_verify_builds_no_embedding(monkeypatch):
    # every scan and oracle works in the layers of the window sizes
    def no_embedding(*args, **kwargs):
        raise AssertionError("an embedding was built")

    monkeypatch.setattr(ffield.Embedding, "__init__", no_embedding)
    monkeypatch.setattr(ffield.ContextBank, "embedding", no_embedding)
    built = []
    real_init = ffield.ExtCtx.__init__

    def init(ctx, base, i, modulus=None):
        built.append(i)
        real_init(ctx, base, i, modulus)

    monkeypatch.setattr(ffield.ExtCtx, "__init__", init)
    ffield._SHARED_BANKS.clear()            # build every layer afresh
    # pattern 2 3 once needed the common layer F_(5^6)
    cfg = RunConfig(p=5, n=5, r=3, rows=((1, 0),), alpha=(0,))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")     # q <= n families warn by design
        rep = run_verify(cfg)
    assert rep["overall_pass"] is True
    assert sorted(built) == [1, 2, 3, 4, 5]


def test_verify_over_the_two_element_field():
    # the degree-1 layer over F_2 gets Zech tables like every other layer
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")     # q <= n families warn by design
        rep = run_verify(RunConfig(p=2, n=3, r=2, rows=((1,),), alpha=(1,)))
    assert rep["overall_pass"] is True
