"""Window-wise scans checked against the per-point oracles.

walk_blocks (correspondence) computes each window's top digits once per
call and walks F_q^n a block per prefix of the outer windows, which
walk_G expands point by point; rational_zeros (variety) is that walk at
depth n - r, filtered by the windows where the system vanishes.
Oracles: build_G with window_index on a fresh bank with no Zech tables,
a brute-force filter of eval_R over every x with the E values of
build_G, and, for the walk's window tables (one entry per class under
rotation and F_q^* scaling, its orbit summed from two half spans), the
per-vector conjugate-matrix orbit _orbit, _full_shifts and _window_poly,
with the number of entries formed held to the number of those classes,
counted by a union of orbits.
The probe's per-zero verdicts are held to a Jacobian interpolated from
eval_R along coordinate lines, to the rank of its digit rows formed
whole, to the square-freeness of build_G (with the typed flag from
is_type_lambda, and a pinned untyped vector with no conjugate windows),
and to root multiplicities read from each window's minimal polynomial;
its counts and counterexamples, on families with rank-deficient zeros,
to a per-point route over every zero of eval_R.
Also here: the descent traps reached through the scans (a corrupted
entry of A in either half of the split, an A that is not circulant, a
circulant A of wrong conjugates), the pinned bytes of five verify
reports, the walks run_verify makes (per pattern, one at depth n when
the correspondence runs and one at depth n - r when the variety does),
the window tables they read (one per size and depth in a run, built
again by the next run) and their placements (one per distinct
last-window entry and product window of the prefix at every depth, kept
for at most q^(n - r) windows below depth n), every block expanded
against the point oracles, a planted fault in the depth-n table found
at its first vector, the oracles' memos within their bounds all through
a full verify, the variety rows of a full verify against those of the
variety alone, of variety_pass and of a brute-force count over every x,
its membership cells against verify_membership_equivalence (also where
the block oracle zero_block is made to lie), the variety at n = 7 that
once needed F_(5^12), and the fail-fast on a window layer over the order
limit.
"""

from __future__ import annotations

import hashlib
import inspect
import random
import warnings
from itertools import compress, product

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from factpat import census, cli, correspondence, ffield, variety
from factpat.census import (RunConfig, build_family, render_json,
                            run_census, run_verify)
from factpat.correspondence import (build_G, is_type_lambda,
                                    verify_membership_equivalence, walk_G)
from factpat.errors import BudgetError, GaloisDescentError
from factpat.family import (MEMBER_BUDGET, new_family, pattern_tally,
                            prescribed_family)
from factpat._dense import pmul
from factpat.ffield import ContextBank, ExtCtx, make_field, mat_rank
from factpat.patterns import Pattern, enumerate_patterns
from factpat.poly import is_squarefree
from factpat.tables import window_index
from factpat.variety import (_coincident, _double_collision, _full_rank,
                             count_points, eval_R, jacobian_probe,
                             rational_zeros, sym_system, variety_pass)

# (p, s) for q in {2, 3, 4, 5, 7, 8, 9}: prime fields, extensions, char 2
FIELDS = ((2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2))


# ---------------------------------------------------------------------------
# the G scan against build_G


@settings(max_examples=30)
@given(st.sampled_from(FIELDS), st.integers(1, 4), st.data())
def test_G_scan_matches_build_G_on_a_bank_without_zech_tables(ps, n, data):
    K = make_field(*ps)
    k = data.draw(st.integers(1, n), label="depth")
    oracle = ContextBank(K)             # schoolbook arithmetic throughout
    vectors = list(product(range(K.q), repeat=n))
    bank = ContextBank.shared(K)
    for pat in enumerate_patterns(n):
        want = [(x, is_type_lambda(x, pat),
                 window_index(K.q, build_G(pat, x, oracle), k))
                for x in vectors]
        assert list(walk_G(pat, bank, k)) == want, pat.label()
        rng = random.Random(data.draw(st.integers(0, 2 ** 32), label="seed"))
        flags = bytearray(rng.randrange(2) for _ in range(K.q ** k))
        assert list(walk_G(pat, bank, k, flags)) == [
            entry for entry in want if flags[entry[2]]], pat.label()


# every layer with q^i <= 4 * 10^3 over F_3, F_4, F_5, F_7, F_8, F_9, and
# those with 2^i <= 256 over F_2
TABLE_LAYERS = [(ps, i) for ps in ((2, 1), (3, 1), (2, 2), (5, 1), (7, 1),
                                   (2, 3), (3, 2))
                for i in range(1, 9)
                if (ps[0] ** ps[1]) ** i <= (256 if ps == (2, 1) else 4000)]


@pytest.mark.parametrize("ps, i", TABLE_LAYERS,
                         ids=[f"{p ** s}-{i}" for (p, s), i in TABLE_LAYERS])
def test_window_entries_match_the_per_vector_orbit(ps, i):
    # the walk forms one entry per rotation class, its orbit summed from
    # two half spans; the oracle forms every vector's orbit as the
    # conjugate-matrix product, its type from the cyclic shifts, and its
    # digits from the conjugate product _window_poly
    K = make_field(*ps)
    ctx = ContextBank.shared(K).get(i)
    vectors = list(product(range(K.q), repeat=i))
    oracle = [(correspondence._full_shifts(coords),
               correspondence._window_poly(ctx, coords)) for coords in vectors]
    assert [typed for typed, _ in oracle] == [
        is_type_lambda(coords, Pattern(i, (0,) * (i - 1) + (1,)))
        for coords in vectors]
    for k in range(1, i + 1):
        want = [(typed, tuple(poly[i - t] for t in range(1, min(i, k) + 1)))
                for typed, poly in oracle]
        assert correspondence._window_table(ctx, k) == want, k


@pytest.mark.parametrize("ps, i", [((5, 1), 5), ((2, 3), 4), ((7, 1), 5),
                                   ((2, 1), 6)],
                         ids=["5-5", "8-4", "7-5", "2-6"])
def test_window_table_forms_one_entry_per_scaled_necklace(monkeypatch, ps, i):
    # one entry per class of F_q^i under rotation and scaling by F_q^*,
    # counted here as a union of orbits; over F_2, whose F_q^* is {1}, the
    # classes are the necklaces, (1/i) sum over d | i of phi(d) q^(i/d)
    K = make_field(*ps)
    classes, necklaces, seen = 0, set(), set()
    for v in product(range(K.q), repeat=i):
        necklaces.add(min(v[t:] + v[:t] for t in range(i)))
        if v not in seen:
            classes += 1
            for s in range(1, K.q):
                w = tuple(K.mul(s, c) for c in v)
                seen.update(w[t:] + w[:t] for t in range(i))
    assert classes == len(necklaces) if K.q == 2 else classes < len(necklaces)
    real = correspondence._window_esym
    formed = []

    def counting_esym(ctx, orbit, upto):
        formed.append(orbit)
        return real(ctx, orbit, upto)

    monkeypatch.setattr(correspondence, "_window_esym", counting_esym)
    table = correspondence._window_table(ContextBank.shared(K).get(i), i)
    assert len(formed) == classes
    assert len(table) == K.q ** i
    assert len({id(entry) for entry in table}) <= len(necklaces)


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
                full = build_G(pat, x, bank)
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
            assert _full_rank(sys_, x, e) == (rank == fam.m), (pat.label(), x)
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


def _per_point_probe(fam, pat, bank):
    """(rank_deficient, confirmed, violations, counterexamples) from every
    zero of eval_R in product order, each with its E values read off
    build_G and its rank taken by _full_rank on a fresh system."""
    K, nr = fam.ctx, fam.n - fam.r
    deficient = confirmed = 0
    bad = []
    for x in product(range(fam.q), repeat=fam.n):
        if any(eval_R(sym_system(fam, pat, bank), x)):
            continue
        g = build_G(pat, x, bank)
        e = (1, *[K.neg(g[fam.n - t]) if t % 2 else g[fam.n - t]
                  for t in range(1, nr + 1)])
        sys_ = sym_system(fam, pat, bank)
        if not _full_rank(sys_, x, e):
            deficient += 1
            if _double_collision(sys_, x):
                confirmed += 1
            else:
                bad.append(x)
    return deficient, confirmed, len(bad), tuple(bad[:variety.MAX_RECORDED])


def _deficient_families():
    """Families with rank-deficient zeros: two where a single root value
    repeats at some, one m = 2 family over F_9, and one m = 2 family
    whose single-window pattern has zeros of one window with either rank
    (which a rank kept by the zero window alone would miss)."""
    F5 = make_field(5)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")     # q <= n families warn by design
        return [new_family(F5, 3, 1, [[3, 3], [2, 0]], [0, 1]),
                prescribed_family(make_field(3), 2, (2,), (0,)),
                new_family(make_field(3, 2), 3, 1, [[1, 3], [5, 0]], [0, 0]),
                new_family(F5, 4, 2, [[2, 1], [3, 3]], [1, 0])]


@pytest.mark.parametrize("fam", _deficient_families(),
                         ids=["q5n3-m2", "q3n2-c0", "q9n3-m2", "q5n4-m2"])
def test_probe_matches_a_per_point_route_at_deficient_zeros(fam):
    bank = ContextBank.shared(fam.ctx)
    for pat in enumerate_patterns(fam.n):
        probe = variety_pass(sym_system(fam, pat, bank), member_tally={})[1]
        got = (probe.rank_deficient, probe.confirmed, probe.violations,
               probe.counterexamples)
        assert got == _per_point_probe(fam, pat, bank), pat.label()
        assert probe.rank_deficient > 0, pat.label()


def _digit_rows(sys_, x, e):
    """The Jacobian's digit rows at a zero, every window's columns
    concatenated: row j holds the digits of v_j of each window (see
    _full_rank), with the window's element formed afresh."""
    K = sys_.fam.ctx
    rows = [[] for _ in sys_.terms]
    for start, size, ctx in sys_.windows:
        alpha = correspondence._orbit(ctx, ctx.A[:1], x[start:start + size])[0]
        omit = [1]
        for t in range(1, sys_.nr):
            omit.append(ctx.sub(e[t], ctx.mul(alpha, omit[-1])))
        for row, tm in zip(rows, sys_.terms):
            v = 0
            for k, c in tm:
                v = ctx.add(v, ctx.mul(c, omit[k - 1]))
            row.extend(ctx.to_vec(v))
    return rows


def _needs_two_pivots(K, rows):
    """True iff some column, in the span of the columns before it, which
    span two dimensions, is nonzero at the first pivot (the first nonzero
    entry of the first nonzero column) and not a multiple of that column:
    reducing it takes both pivots."""
    cols = [list(c) for c in zip(*rows)]
    first = next(c for c in cols if any(c))
    p0 = next(j for j, a in enumerate(first) if a)

    def rank(cs):
        return mat_rank(K, [list(r) for r in zip(*cs)])

    return any(rank(cols[:j]) == rank(cols[:j + 1]) == 2 and c[p0]
               and rank([first, c]) == 2 for j, c in enumerate(cols) if j)


@pytest.mark.parametrize("r, rows, alpha, ranks", [
    (3, [[1, 0], [0, 1]], [0, 0], {1: 35, 2: 840}),
    (2, [[1, 0, 0], [0, 1, 0], [0, 0, 1]], [1, 2, 3], {2: 18, 3: 147})])
def test_full_rank_matches_rank_of_the_concatenated_digit_rows(r, rows, alpha,
                                                                ranks):
    # the probe reduces one digit column at a time against the pivots
    # found so far; its verdict is the rank of all the rows at once
    K = make_field(5)
    bank = ContextBank.shared(K)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")     # q <= n families warn by design
        fam = new_family(K, 5, r, rows, alpha)
    seen = {}
    for pat in enumerate_patterns(5):
        sys_ = sym_system(fam, pat, bank)
        for x, e in rational_zeros(sys_):
            rank = mat_rank(K, _digit_rows(sys_, x, e))
            assert _full_rank(sys_, x, e) == (rank == fam.m), (pat.label(), x)
            seen[rank] = seen.get(rank, 0) + 1
    assert seen == ranks
    if fam.m == 3:
        sys_ = sym_system(fam, Pattern(5, (5, 0, 0, 0, 0)), bank)
        x, e = next((x, e) for x, e in rational_zeros(sys_)
                    if x == (1, 1, 1, 4, 4))
        digit_rows = _digit_rows(sys_, x, e)
        assert mat_rank(K, digit_rows) == 2 and not _full_rank(sys_, x, e)
        assert _needs_two_pivots(K, digit_rows)


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


def _coincides(sys_, x, typed):
    """The block form of the coincidence check at one x: x is untyped,
    or the shifts of its prefix's windows are None or hold its last."""
    start = sys_.windows[-1][0]
    seen = _coincident(sys_, x[:start])
    return not typed or seen is None or x[start:] in seen


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
            typed = is_type_lambda(x, pat)
            assert _coincides(sys_, x, typed) == (not is_squarefree(K, g)), x
            v_eq += not is_squarefree(K, g)
            roots = _root_multiplicities(sys_, x)
            double = (any(e >= 4 for _, e in roots)
                      or sum(d for d, e in roots if e >= 2) >= 2)
            assert _double_collision(sys_, x) == double, x
        assert count_points(sys_, member_tally=pattern_tally(fam)).v_eq == v_eq


def test_untyped_vector_coincides_without_conjugate_windows():
    # under 1 2 at p = 5, x = (0, 1, 1) has a size-2 window with a short
    # orbit and no two conjugate windows: only the typed flag says that
    # two of its root values coincide
    K = make_field(5)
    pat = Pattern(3, (1, 1, 0))
    x = (0, 1, 1)
    fam = new_family(K, 3, 2, [[1]], [0])
    sys_ = sym_system(fam, pat, ContextBank.shared(K))
    assert not is_type_lambda(x, pat)
    assert not is_squarefree(K, build_G(pat, x, ContextBank(K)))
    assert _coincides(sys_, x, False)
    assert not _coincides(sys_, (0, 1, 2), True)
    assert _coincides(sys_, (0, 1, 2), False)


# ---------------------------------------------------------------------------
# descent traps through the scans (the corrupted layers of the trap tests
# in test_correspondence.py and test_variety.py)


def _bank_with_bad_conjugates(i=2, h=1):
    base = make_field(5)
    bank = ContextBank(base)
    bad = ExtCtx(base, i)
    rows = [list(r) for r in bad.A]
    rows[1][h] = bad.add(rows[1][h], 1)   # no longer the Frobenius image
    bad.A = tuple(tuple(r) for r in rows)
    bank.override(i, bad)
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


def _bank_with_circulant_bad_conjugates(i):
    # conj[1] off by one, and A rebuilt as the circulant of the wrong conj:
    # only the descent check can see it
    base = make_field(5)
    bank = ContextBank(base)
    bad = ExtCtx(base, i)
    conj = list(bad.conj)
    conj[1] = bad.add(conj[1], 1)
    bad.conj = tuple(conj)
    bad.A = tuple(tuple(conj[(k + h) % i] for h in range(i)) for k in range(i))
    bank.override(i, bad)
    return bank


@pytest.mark.parametrize("pat", [Pattern(2, (0, 1)),       # window of size n
                                 Pattern(3, (1, 1, 0))])   # window below n
def test_corrupted_conjugate_table_trips_the_walk(pat):
    with pytest.raises(GaloisDescentError):
        list(walk_G(pat, _bank_with_bad_conjugates(), pat.n))


@pytest.mark.parametrize("h", [0, 2])          # in the first, second half
@pytest.mark.parametrize("pat", [Pattern(3, (0, 0, 1)),      # size n
                                 Pattern(4, (1, 0, 1, 0))])  # below n
def test_corrupted_conjugate_column_trips_the_walk_in_either_half(pat, h):
    # F_(5^3): the half spans split the columns of A as {0, 1}, {2}; an
    # entry off in either leaves A no circulant, which the walk refuses
    with pytest.raises(GaloisDescentError):
        list(walk_G(pat, _bank_with_bad_conjugates(3, h), pat.n))


@pytest.mark.parametrize("pat", [Pattern(2, (0, 1)), Pattern(3, (1, 1, 0)),
                                 Pattern(3, (0, 0, 1)),
                                 Pattern(4, (1, 0, 1, 0))])
def test_non_circulant_conjugate_matrix_raises_before_the_walk_yields(pat):
    i = max(size for size, _ in correspondence.layout(pat))
    yielded = []
    with pytest.raises(GaloisDescentError, match="not circulant"):
        for step in walk_G(pat, _bank_with_bad_conjugates(i, 1), pat.n):
            yielded.append(step)
    assert yielded == []


@pytest.mark.parametrize("pat", [Pattern(2, (0, 1)), Pattern(3, (1, 1, 0)),
                                 Pattern(3, (0, 0, 1)),
                                 Pattern(4, (1, 0, 1, 0))])
def test_circulant_wrong_conjugates_trip_the_descent_check(pat):
    # E_1 = Tr(alpha) stays in F_q (the shift adds sum(x) to it); E_2 not
    i = max(size for size, _ in correspondence.layout(pat))
    bank = _bank_with_circulant_bad_conjugates(i)
    with pytest.raises(GaloisDescentError, match="E_2"):
        list(walk_G(pat, bank, pat.n))


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
# dropped its common layer, the last (r = 0 over F_9: the variety walks
# at depth n with odd-characteristic signs and extension-field digits)
# before both scans became one walk, and the last two (the correspondence
# alone, and an m = 2 family whose probe finds rank-deficient zeros)
# before a pattern's membership check and variety pass shared one system
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
    (RunConfig(p=3, s=2, n=3, mode="prescribed", indices=(3,), alpha=(2,)),
     BOTH, "47a239853adfe91b00cebca284d12af00228e844ae4475fee6aeaf57759349b9"),
    (RunConfig(p=5, n=4, r=2, rows=((1, 3),), alpha=(2,)), ("correspondence",),
     "da4f64ab62455925c864c690ef3197453cd1d8df4f58560a0a6fe631da2edf11"),
    (RunConfig(p=5, n=4, r=1, rows=((1, 0, 2), (0, 1, 3)), alpha=(0, 1)), BOTH,
     "d255b19d68f8cca9a42acb66da6782b596a6aee1637e64a2020db6b16df3b1d7"),
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
    real = correspondence.walk_blocks

    def lying_walk(pattern, bank, k, flags=None,
                   budget=MEMBER_BUDGET):
        step = 0
        for xs, keep, ts, ws in real(pattern, bank, k, flags, budget):
            at = flip - step
            step += len(ts)
            if 0 <= at < len(ts) and pattern.counts == (3, 0, 0):
                ts = ts[:at] + bytes([not ts[at]]) + ts[at + 1:]
            yield xs, keep, ts, ws

    monkeypatch.setattr(correspondence, "walk_blocks", lying_walk)
    monkeypatch.setattr(census, "walk_blocks", lying_walk)
    cfg = RunConfig(p=5, n=3, r=2, rows=((1,),), alpha=(0,))
    rep = run_verify(cfg, sections=("correspondence",))
    row = rep["correspondence"][0]             # 1^3: every vector is typed
    assert row["lambda"] == "1^3"
    assert row["type_pattern_ok"] is False
    assert row["type_pattern_counterexample"] == {
        "x": [0, 1, 2], "typed": False, "pattern_matches": True}
    # a dict holding 1 compares equal; the report must render true
    assert '"pattern_matches": true' in render_json(rep)
    assert all(r["type_pattern_ok"] for r in rep["correspondence"][1:])
    assert rep["overall_pass"] is False


def test_planted_table_fault_is_found_at_its_first_vector(monkeypatch):
    # clear the one bit of the depth-n table that gives G(3, 4, 2, 1) its
    # pattern 1 3 at (5, 4): run_verify must report the first x in product
    # order whose G(x) is that polynomial, found here through build_G
    p, n = 5, 4
    pats = enumerate_patterns(n)
    i = [pat.label() for pat in pats].index("1 3")
    oracle = ContextBank(make_field(p))
    g = window_index(p, build_G(pats[i], (3, 4, 2, 1), oracle), n)
    real = census.pattern_table

    def planted_table(K, patterns, k):
        table = real(K, patterns, k)
        if k == n:
            cells = table[g * 2 * len(pats) + 2 * i:][:2]
            assert sorted(cells) == [0, 1]
            table[g * 2 * len(pats) + 2 * i + cells.index(1)] = 0
        return table

    monkeypatch.setattr(census, "pattern_table", planted_table)
    cfg = RunConfig(p=p, n=n, r=2, rows=((1, 0),), alpha=(0,))
    rows = run_verify(cfg, sections=("correspondence",))["correspondence"]
    first = next(x for x in product(range(p), repeat=n)
                 if window_index(p, build_G(pats[i], x, oracle), n) == g)
    assert first < (3, 4, 2, 1) and first[:1] != (0,)
    assert rows[i]["type_pattern_counterexample"] == {
        "x": list(first), "typed": True, "pattern_matches": False}
    assert [row["type_pattern_ok"] for row in rows] == [
        k != i for k in range(len(pats))]


@pytest.mark.parametrize("sections", [BOTH, ("correspondence",),
                                      ("variety",)])
def test_verify_walks_each_pattern_once_per_section(monkeypatch, sections):
    # the membership check rides on the correspondence walk, P walks at
    # depth n; the variety takes P walks of its own at depth n - r, also
    # with both sections, where each pattern's two walks come in turn.
    # Either way each pattern's symmetric system is built once, and both
    # checks share it
    real_walk, real_system = correspondence.walk_blocks, variety.sym_system
    depths, systems = [], []

    def counting_walk(pattern, bank, k, flags=None,
                      budget=MEMBER_BUDGET):
        depths.append(k)
        return real_walk(pattern, bank, k, flags, budget)

    def counting_system(fam, pattern, bank):
        systems.append(pattern)
        return real_system(fam, pattern, bank)

    for module in (census, correspondence, variety):
        monkeypatch.setattr(module, "walk_blocks", counting_walk)
    for module in (census, variety):
        monkeypatch.setattr(module, "sym_system", counting_system)
    cfg = RunConfig(p=5, n=4, r=2, rows=((1, 0),), alpha=(0,))
    rep = run_verify(cfg, sections=sections)
    patterns = enumerate_patterns(4)
    per_pattern = [d for name, d in (("correspondence", 4), ("variety", 2))
                   if name in sections]
    assert depths == per_pattern * len(patterns)
    assert systems == patterns
    assert rep["overall_pass"] is True


@pytest.mark.parametrize("sections", [BOTH, ("correspondence",),
                                      ("variety",)])
def test_verify_tables_each_window_once_per_run(monkeypatch, sections):
    # every walk of a run reads its plan: one _window_table per window
    # size and depth (depth n for the correspondence, n - r for the
    # variety), and the next run builds them again
    real = correspondence._window_table
    built = []

    def counting_table(ctx, k):
        built.append((ctx.i, k))
        return real(ctx, k)

    monkeypatch.setattr(correspondence, "_window_table", counting_table)
    cfg = RunConfig(p=5, n=4, r=2, rows=((1, 0),), alpha=(0,))
    depths = [d for name, d in (("variety", 2), ("correspondence", 4))
              if name in sections]
    for _ in range(2):
        built.clear()
        assert run_verify(cfg, sections=sections)["overall_pass"] is True
        assert sorted(built) == [(i, d) for i in range(1, 5) for d in depths]


def _windows_of(K, polys, k):
    """The distinct depth-k window indices of the monics polys; T^k f has
    the window of f, so a monic of degree below k is padded with zeros."""
    return {window_index(K.q, [0] * k + f, k) for f in polys}


@pytest.mark.parametrize("sections", [BOTH, ("variety",)])
def test_walk_places_each_distinct_last_window_entry_once_per_prefix(
        monkeypatch, sections):
    # the last window of a walk places each distinct entry (its top k
    # digits) once per distinct depth-k window of the prefix products, at
    # depth n (where that window is the product itself) and below it: the
    # product windows and the last-window entries are read from
    # _window_poly products by window_index.  Per pattern, the
    # correspondence walks at depth n and then the variety at depth n - r
    # with flags
    real = correspondence._multiplier
    placed = []

    def counting_multiplier(K, k):
        start, extend, place = real(K, k)
        placed.append(0)

        def counting_place(rows, b):
            placed[-1] += 1
            return place(rows, b)

        return start, extend, counting_place

    monkeypatch.setattr(correspondence, "_multiplier", counting_multiplier)
    p, n = 5, 4
    cfg = RunConfig(p=p, n=n, r=2, rows=((1, 0),), alpha=(0,))
    assert run_verify(cfg, sections=sections)["overall_pass"] is True
    depths = [d for name, d in (("correspondence", n), ("variety", n - 2))
              if name in sections]
    K = make_field(p)
    bank = ContextBank.shared(K)

    def polys(size):
        return [correspondence._window_poly(bank.get(size), coords)
                for coords in product(range(p), repeat=size)]

    want = []
    for pat in enumerate_patterns(n):
        *outer, i = pat.sizes()
        prefixes = [[1]]
        for size in outer:
            prefixes = [pmul(K, f, g) for f in prefixes for g in polys(size)]
        for depth in depths:
            entries = len(_windows_of(K, polys(i), depth))
            want.append(len(_windows_of(K, prefixes, depth)) * entries)
    assert placed == want
    assert sum(want) < len(want) * p ** n


# ((p, s), n, r): F_5 with n = 4, F_4 with n = 4 and F_9 with n = 3
BLOCK_WALKS = [((5, 1), 4, 2), ((2, 2), 4, 2), ((3, 2), 3, 2)]


@pytest.mark.parametrize("ps, n, r", BLOCK_WALKS, ids=["5-4", "4-4", "9-3"])
def test_blocks_expand_to_the_point_oracles(monkeypatch, ps, n, r):
    # every block of a walk at depth n and n - r, flagged and unflagged,
    # expanded in product order over its last window's kept vectors, is
    # held to is_type_lambda and window_index of build_G on a bank with
    # no Zech tables; its placement memo holds one key per distinct
    # depth-k window of the prefix products, and never more
    K = make_field(*ps)
    q, bank, oracle = K.q, ContextBank.shared(K), ContextBank(K)
    real = correspondence._block
    memos = []

    def recording_block(typed, entries, distinct, place, flags, memo,
                        prefix):
        out = real(typed, entries, distinct, place, flags, memo, prefix)
        memos.append((memo, len(memo)))
        return out

    monkeypatch.setattr(correspondence, "_block", recording_block)
    rng = random.Random(n * q)
    vectors = list(product(range(q), repeat=n))
    for pat in enumerate_patterns(n):
        *outer, size = pat.sizes()
        images = {x: build_G(pat, x, oracle) for x in vectors}
        prefixes = [[1]]
        for i in outer:
            polys = [correspondence._window_poly(oracle.get(i), c)
                     for c in product(range(q), repeat=i)]
            prefixes = [pmul(K, f, g) for f in prefixes for g in polys]
        for k, flags in product((n, n - r), (False, True)):
            flags = flags and bytearray(rng.randrange(2) for _ in range(q ** k))
            memos.clear()
            got = []
            for xs, keep, ts, ws in correspondence.walk_blocks(
                    pat, bank, k, flags or None):
                vs = list(product(range(q), repeat=size))
                vs = vs if keep is None else list(compress(vs, keep))
                assert len(vs) == len(ts) == len(ws), pat.label()
                got += [(xs + v, t, w) for v, t, w in zip(vs, ts, ws)]
            want = [(x, is_type_lambda(x, pat), window_index(q, images[x], k))
                    for x in vectors]
            assert got == [e for e in want if not flags or flags[e[2]]], (
                pat.label(), k, bool(flags))
            windows = len(_windows_of(K, prefixes, k))
            assert len({id(memo) for memo, _ in memos}) == 1
            assert max(keys for _, keys in memos) == windows, pat.label()


def test_flagged_walk_memo_holds_at_most_one_entry_per_window(monkeypatch):
    # below depth n the walk keeps what it forms for the last window by
    # the product window of the prefix: never more than q^(n - r) keys,
    # checked at every prefix of each pattern's variety walk at (5, 5)
    p, n, r = 5, 5, 3
    real = correspondence._block
    sizes = []

    def checked_walk(typed, entries, distinct, place, flags, memo, prefix):
        out = real(typed, entries, distinct, place, flags, memo, prefix)
        assert flags is not None and len(memo) <= p ** (n - r)
        sizes.append(len(memo))
        return out

    monkeypatch.setattr(correspondence, "_block", checked_walk)
    cfg = RunConfig(p=p, n=n, r=r, rows=((1, 0),), alpha=(0,))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")     # q <= n families warn by design
        assert run_verify(cfg, sections=("variety",))["overall_pass"] is True
    assert len(sizes) > p ** (n - r) and max(sizes) > 1


def test_oracle_memos_stay_within_their_bounds(monkeypatch):
    # after every oracle call of a full verify at (5, 5): each block of
    # the membership check (zero_block, one per prefix of every pattern)
    # flags every last-window vector, the plan holds one listing of the
    # q^i windows of each size i, the residue memo holds at most
    # q^(n - r) values of R, the probe's store at most one entry per zero
    # window for each window, its rank of the last window is taken at
    # most once per zero window and rotation class of that window per
    # block, and the coincidence check gives per block the shifts of the
    # windows before the last (or None)
    p, n, r = 5, 5, 3
    real_system = variety.sym_system
    real_block = variety.zero_block
    real_rank, real_coincident = variety._deficient, variety._coincident
    real_full_rank = variety._full_rank
    systems, zero_windows, blocks, last_ranks = [], {}, [], []
    coincident = set()

    def recording_system(fam, pattern, bank):
        systems.append(real_system(fam, pattern, bank))
        return systems[-1]

    def checked_block(sys_, prefix):
        out = real_block(sys_, prefix)
        assert len(out) == p ** sys_.windows[-1][1]
        listings = sys_.bank.values
        assert {(size, n - r) for _, size, _ in sys_.windows} <= set(listings)
        assert {i for i, _ in listings} <= set(range(1, n + 1))
        for (i, _), (values, distinct) in listings.items():
            assert len(values) == p ** i
            assert len(distinct) <= min(p ** i, p ** (n - r))
        assert 0 < len(sys_.blocks) <= p ** (n - r)
        blocks.append(id(sys_))
        return out

    def counted_full_rank(sys_, x, e, basis=None, windows=None):
        if windows == [len(sys_.windows) - 1]:
            last_ranks.append(x)
        return real_full_rank(sys_, x, e, basis, windows)

    def rotation_class(v):
        return min(v[k:] + v[:k] for k in range(len(v)))

    def checked_rank(sys_, xs, vs, ws, zeros):
        vs, before = list(vs), len(last_ranks)
        out = list(real_rank(sys_, xs, vs, ws, zeros))
        if id(sys_) not in zero_windows:
            zero_windows[id(sys_)] = len(variety._zero_windows(sys_))
        assert all(len(kept) <= zero_windows[id(sys_)]
                   for _, kept in sys_.columns.values())
        size = sys_.windows[-1][1]
        classes = {rotation_class(v) for v in product(range(p), repeat=size)}
        keys = {(w, rotation_class(v)) for v, w in zip(vs, ws)}
        assert len(last_ranks) - before <= len(keys) <= (
            len(zeros) * len(classes))
        return out

    def checked_coincident(sys_, xs):
        out = real_coincident(sys_, xs)
        sizes = [size for _, size, _ in sys_.windows]
        assert len(xs) == sum(sizes[:-1])
        assert out is None or len(out) <= sum(sizes[:-1])
        coincident.add(id(sys_))
        return out

    monkeypatch.setattr(census, "sym_system", recording_system)
    monkeypatch.setattr(variety, "zero_block", checked_block)
    monkeypatch.setattr(variety, "_deficient", checked_rank)
    monkeypatch.setattr(variety, "_full_rank", counted_full_rank)
    monkeypatch.setattr(variety, "_coincident", checked_coincident)
    cfg = RunConfig(p=p, n=n, r=r, rows=((1, 0),), alpha=(0,))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")     # q <= n families warn by design
        assert run_verify(cfg)["overall_pass"] is True
    assert [s.pattern for s in systems] == enumerate_patterns(n)
    for sys_ in systems:
        assert 0 < len(sys_.residues) <= p ** (n - r)
        assert sys_.columns
        assert (id(sys_) in coincident) != sys_.distinct
    assert len(zero_windows) == len(systems) and last_ranks
    assert set(blocks) == {id(s) for s in systems}


def test_every_scan_defaults_to_the_one_run_budget():
    # direct API calls get the budget a run defaults to
    scans = (correspondence.walk_G,
             correspondence.verify_membership_equivalence,
             variety.rational_zeros, variety.variety_pass,
             variety.count_points, variety.jacobian_probe)
    for scan in scans:
        default = inspect.signature(scan).parameters["budget"].default
        assert default == MEMBER_BUDGET, scan.__name__
    assert not hasattr(correspondence, "SCAN_BUDGET")


def _variety_routes(cfg):
    """The variety rows of a full verify, of a variety-only verify, and
    of variety_pass per pattern (as run_verify renders them)."""
    field = make_field(cfg.p, cfg.s)
    fam = build_family(cfg, field)
    bank = ContextBank.shared(field)
    tally = census.census_tally(fam)
    alone = []
    for pat in enumerate_patterns(cfg.n):
        pc, probe = variety_pass(sym_system(fam, pat, bank),
                                 member_tally=tally)
        alone.append((pc.v_total, pc.v_eq, pc.a_sq, probe.points_on_variety,
                      probe.rank_deficient, probe.confirmed, probe.violations,
                      [list(c) for c in probe.counterexamples]))
    routes = [run_verify(cfg, sections)["variety"]
              for sections in (BOTH, ("variety",))]
    rows = [[(row["v_total"], row["v_eq"], row["a_sq"],
              *(row["probe"][key] for key in (
                  "points_on_variety", "rank_deficient", "confirmed",
                  "violations", "counterexamples")))
             for row in route] for route in routes]
    return routes, rows, alone


def _verify_rows_against_variety_pass(cfg):
    """Hold the variety rows of a full verify and of a variety-only
    verify to variety_pass's, and its v_total and v_eq to a brute-force
    count over every x (the zeros of eval_R, split by the square-freeness
    of build_G); return variety_pass's rows.  The probe is made to count
    about a third of the zeros as deficient violations, so that its
    counterexamples fill up, in walk order."""
    real = variety._deficient

    def lying_deficient(sys_, xs, vs, ws, zeros):
        vs = list(vs)
        found = set(real(sys_, xs, vs, ws, zeros))
        return [xs + v for v in vs if xs + v in found
                or sum((h + 1) * c for h, c in enumerate(xs + v)) % 3 == 0]

    with pytest.MonkeyPatch.context() as mp, warnings.catch_warnings():
        mp.setattr(variety, "_deficient", lying_deficient)
        mp.setattr(variety, "_double_collision", lambda sys_, x: False)
        warnings.simplefilter("ignore")     # q <= n families warn by design
        (full, alone_run), (full_rows, alone_rows), alone = _variety_routes(cfg)
        fam = build_family(cfg, make_field(cfg.p, cfg.s))
    assert full == alone_run
    assert full_rows == alone_rows == alone
    bank = ContextBank(fam.ctx)
    for pat, row in zip(enumerate_patterns(cfg.n), alone):
        sys_ = sym_system(fam, pat, bank)
        zeros = [x for x in product(range(fam.q), repeat=cfg.n)
                 if not any(eval_R(sys_, x))]
        v_eq = sum(not is_squarefree(fam.ctx, build_G(pat, x, bank))
                   for x in zeros)
        assert row[:2] == (len(zeros), v_eq), pat.label()
    return alone


@settings(max_examples=25, deadline=None)
@given(st.sampled_from(FIELDS), st.integers(2, 4), st.data())
def test_verify_variety_rows_match_variety_pass_and_brute_force(ps, n, data):
    q = ps[0] ** ps[1]
    assume(q ** n <= 729)
    r = data.draw(st.integers(1, n - 1), label="r")
    m = data.draw(st.integers(1, n - r), label="m")
    rows = tuple(tuple(data.draw(st.integers(0, q - 1))
                       for _ in range(n - r)) for _ in range(m))
    alpha = tuple(data.draw(st.integers(0, q - 1)) for _ in range(m))
    cfg = RunConfig(p=ps[0], s=ps[1], n=n, r=r, rows=rows, alpha=alpha)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")     # q <= n families warn by design
        try:
            build_family(cfg, make_field(*ps))
        except ValueError:                  # dependent rows
            assume(False)
    _verify_rows_against_variety_pass(cfg)


def test_variety_pass_records_counterexamples_in_walk_order():
    alone = _verify_rows_against_variety_pass(
        RunConfig(p=5, n=4, r=2, rows=((1, 3),), alpha=(2,)))
    assert max(len(row[-1]) for row in alone) == variety.MAX_RECORDED


MEMBERSHIP_CFGS = [
    RunConfig(p=5, n=3, r=2, rows=((2,),), alpha=(1,)),
    RunConfig(p=5, n=4, r=2, rows=((1, 3),), alpha=(2,)),
    RunConfig(p=5, n=4, mode="prescribed", indices=(1, 3), alpha=(2, 1)),
]


def _membership_routes(cfg):
    """Per pattern: (run_verify's membership cells, the same cells from
    verify_membership_equivalence)."""
    field = make_field(cfg.p, cfg.s)
    fam = build_family(cfg, field)
    bank = ContextBank.shared(field)
    rows = run_verify(cfg, sections=("correspondence",))["correspondence"]
    out = []
    for row, pat in zip(rows, enumerate_patterns(cfg.n)):
        assert row["lambda"] == pat.label()
        ok, bad = verify_membership_equivalence(fam, pat, bank)
        if bad is not None:
            bad = {**bad, "x": list(bad["x"])}
        out.append(((row["membership_equiv_ok"],
                     row["membership_equiv_counterexample"]), (ok, bad)))
    return out


@pytest.mark.parametrize("cfg", MEMBERSHIP_CFGS,
                         ids=["q5n3", "q5n4", "q5n4-prescribed"])
def test_verify_membership_matches_its_own_walk(cfg):
    for in_verify, alone in _membership_routes(cfg):
        assert in_verify == alone == (True, None)


@pytest.mark.parametrize("cfg", MEMBERSHIP_CFGS[1:], ids=["q5n4",
                                                          "q5n4-prescribed"])
def test_membership_counterexample_is_the_first_flipped_vector(monkeypatch,
                                                               cfg):
    # the block oracle lies at two vectors, typed under every pattern; both
    # routes must report the first of them in product order
    real = variety.zero_block
    flipped = {(3, 0, 1, 2), (1, 2, 3, 4)}

    def lying_zero_block(sys_, prefix):
        out = bytearray(real(sys_, prefix))
        for at, v in enumerate(product(range(cfg.p),
                                       repeat=cfg.n - len(prefix))):
            if tuple(prefix) + v in flipped:
                out[at] ^= 1
        return out

    monkeypatch.setattr(variety, "zero_block", lying_zero_block)
    for in_verify, alone in _membership_routes(cfg):
        assert in_verify == alone
        assert in_verify[0] is False
        assert in_verify[1]["x"] == [1, 2, 3, 4]


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
    # order limit: run_verify tables it, and fails, before anything is
    # tallied or scanned
    for name in ("census_tally", "walk_blocks", "sym_system", "variety_pass"):
        monkeypatch.setattr(census, name, _refuse)
    cfg = RunConfig(p=11, n=6, r=3, rows=((1, 0, 0),), alpha=(0,))
    ini = tmp_path / "q11n6.ini"
    ini.write_text("[field]\np = 11\n\n[family]\nn = 6\nr = 3\n"
                   "rows = 1 0 0\nalpha = 0\n")
    with pytest.raises(ValueError, match=r"extension order 11\^6 "
                                         r"exceeds the 1048576 limit"):
        run_verify(cfg, sections=("variety",))
    assert cli.main(["variety", "--config", str(ini)]) == 2


def test_census_budget_fails_before_the_descriptor(monkeypatch):
    # the descriptor builds the tower F_(q^i), i <= n; an over-budget
    # family is refused before any layer
    monkeypatch.setattr(census, "family_descriptor", _refuse)
    cfg = RunConfig(p=65537, n=3, r=2, rows=((1,),), alpha=(0,))
    with pytest.raises(BudgetError, match=r"^family size 4295098369 exceeds "
                                          r"budget 100000000$"):
        run_census(cfg)


@pytest.mark.parametrize("sections", [("correspondence",), ("variety",),
                                      ("correspondence", "variety")])
def test_verify_budget_fails_before_any_table_or_scan(monkeypatch,
                                                      sections):
    # the family's 11^4 members are within the budget and the 11^5
    # monics are not: refused before F_(11^5) is tabled or anything is
    # tallied or scanned
    monkeypatch.setattr(ffield.ExtCtx, "ensure_fast", _refuse)
    for name in ("census_tally", "walk_blocks", "pattern_table"):
        monkeypatch.setattr(census, name, _refuse)
    cfg = RunConfig(p=11, n=5, r=3, rows=((1, 0),), alpha=(0,),
                    budget=20000)
    with pytest.raises(BudgetError, match=r"^global census size 161051 "
                                          r"exceeds budget 20000$"):
        run_verify(cfg, sections=sections)


def test_verify_builds_no_embedding(monkeypatch):
    # every scan and oracle works in the layers of the window sizes
    def no_embedding(*args, **kwargs):
        raise AssertionError("an embedding was built")

    monkeypatch.setattr(ffield.Embedding, "__init__", no_embedding)
    built = []
    real_init = ffield.ExtCtx.__init__

    def init(ctx, base, i):
        built.append(i)
        real_init(ctx, base, i)

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
