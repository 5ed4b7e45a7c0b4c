"""Root-side correspondence: window layouts, type membership, the
conjugate-product polynomial, and fiber counts over pattern classes.

Independent oracles: a local cyclic-shift test for type membership,
direct products of (T - root) computed with plain extension arithmetic,
and exhaustive fiber histograms compared against stabilizer weights.
"""

from __future__ import annotations

from itertools import product

import pytest

from factpat._dense import pmul
from factpat.correspondence import (RootVector, build_G, is_type_lambda,
                                    layout, verify_membership_equivalence,
                                    walk_G)
from factpat.errors import BudgetError, GaloisDescentError
from factpat.family import new_family
from factpat.ffield import ContextBank, ExtCtx, make_field
from factpat.patterns import Pattern, enumerate_patterns, pattern_stats
from factpat.poly import is_squarefree, pattern_of_coeffs
from factpat.tables import window_coeffs


def _local_typed(x, pattern):
    # a vector is typed iff each window's coordinate block has all of its
    # cyclic shifts pairwise distinct
    pos = 0
    for size in pattern.sizes():
        block = tuple(x[pos:pos + size])
        shifts = {block[k:] + block[:k] for k in range(size)}
        if len(shifts) != size:
            return False
        pos += size
    return True


def _orbit_product_poly(ctx, coords):
    # build prod_t (T - sigma^t(alpha)) with plain powering, alpha given
    # by normal-basis coordinates; returns dense coeffs over the layer
    q = ctx.q
    alpha = 0
    for h, c in enumerate(coords):
        alpha = ctx.add(alpha, ctx.mul(c, ctx.pow_(ctx.theta, q ** h)))
    poly = [1]
    conj = alpha
    for _ in range(ctx.i):
        # multiply by (T - conj)
        nxt = [0] * (len(poly) + 1)
        for k, c in enumerate(poly):
            nxt[k + 1] = ctx.add(nxt[k + 1], c)
            nxt[k] = ctx.add(nxt[k], ctx.mul(ctx.neg(conj), c))
        poly = nxt
        conj = ctx.pow_(conj, q)
    return poly


# ---------------------------------------------------------------------------
# layouts


def test_layout_tiles_coordinates_in_order():
    pat = Pattern(4, (2, 1, 0, 0))
    assert layout(pat) == ((1, 0), (1, 1), (2, 2))
    # one window per part, each starting after all smaller windows
    assert layout(Pattern(6, (1, 1, 1, 0, 0, 0))) == ((1, 0), (2, 1), (3, 3))
    assert layout(Pattern(4, (0, 2, 0, 0))) == ((2, 0), (2, 2))


def _starts(pat, i):
    """Start offsets of the windows of size i, in copy order."""
    return [start for size, start in layout(pat) if size == i]


def test_window_start_matches_layout():
    # the j-th (1-based) window of size i starts after every smaller window
    # and the j-1 earlier copies of size i
    pat = Pattern(6, (1, 1, 1, 0, 0, 0))
    for i in (1, 2, 3):
        below = sum(k * c for k, c in enumerate(pat.counts[:i - 1], start=1))
        assert _starts(pat, i) == [below]
    assert _starts(pat, 1)[0] == 0
    assert _starts(pat, 2)[0] == 1
    assert _starts(pat, 3)[0] == 3
    pat2 = Pattern(4, (0, 2, 0, 0))
    assert _starts(pat2, 2)[0] == 0
    assert _starts(pat2, 2)[1] == 2
    # no window (3, 1) and no third copy (2, 3)
    with pytest.raises(IndexError):
        _starts(pat2, 3)[0]
    with pytest.raises(IndexError):
        _starts(pat2, 2)[2]


def test_layout_all_patterns_partition_range():
    for n in (3, 4, 6):
        for pat in enumerate_patterns(n):
            lay = layout(pat)
            covered = []
            for size, start in lay:
                covered.extend(range(start, start + size))
            assert covered == list(range(n))
            sizes = [s for s, _ in lay]
            assert sizes == sorted(sizes)


# ---------------------------------------------------------------------------
# type membership


FROZEN_TYPED_COUNTS_Q5_N4 = {
    "1^4": 625,
    "1^2 2": 500,
    "2^2": 400,
    "1 3": 600,
    "4": 600,
}


def test_type_membership_matches_local_shift_test():
    bank = ContextBank.shared(make_field(5))
    for pat in enumerate_patterns(4):
        count = 0
        for x in product(range(5), repeat=4):
            lib = is_type_lambda(x, pat)
            assert lib == _local_typed(x, pat)
            rv = RootVector(x, pat, bank)
            assert lib == rv.typed()
            count += lib
        assert count == FROZEN_TYPED_COUNTS_Q5_N4[pat.label()]


def test_typed_count_single_window_is_orbit_count():
    # full-orbit elements of F_(q^n) over F_q are those not lying in a
    # proper subfield; count them by inclusion-exclusion over divisors
    q, n = 5, 4
    # elements of F_(q^4) of exact degree 4: q^4 - q^2 = 600
    pat = Pattern(n, (0, 0, 0, 1))
    count = sum(is_type_lambda(x, pat) for x in product(range(q), repeat=n))
    assert count == q ** 4 - q ** 2


# ---------------------------------------------------------------------------
# the conjugate-product polynomial


def test_split_pattern_gives_product_of_linear_factors():
    K = make_field(5)
    bank = ContextBank.shared(K)
    pat = Pattern(3, (3, 0, 0))
    for x in product(range(5), repeat=3):
        g = build_G(pat, x, bank)
        acc = [K.neg(x[0]), 1]
        for root in x[1:]:
            acc = pmul(K, acc, [K.neg(root), 1])
        assert g == acc


def test_single_window_matches_plain_orbit_product():
    K = make_field(5)
    bank = ContextBank.shared(K)
    for n in (2, 3):
        ctx = bank.get(n)
        pat = Pattern(n, tuple(1 if k == n - 1 else 0 for k in range(n)))
        for x in product(range(5), repeat=n):
            g = build_G(pat, x, bank)
            ref = _orbit_product_poly(ctx, x)
            assert all(c < ctx.q for c in ref)
            assert ref == g


def test_mixed_pattern_roots_annihilate_G():
    # each window element is a root of G inside its own layer
    K = make_field(5)
    bank = ContextBank.shared(K)
    pat = Pattern(4, (2, 1, 0, 0))
    for x in [(0, 1, 2, 3), (4, 4, 1, 0), (2, 0, 0, 1), (3, 3, 3, 3)]:
        g = build_G(pat, x, bank)
        rv = RootVector(x, pat, bank)
        for (size, _), orbit in zip(rv.layout, rv.y):
            ctx = bank.get(size)
            for root in orbit:
                acc = 0
                for c in reversed(g):
                    acc = ctx.add(ctx.mul(acc, root), c)
                assert acc == 0


def test_G_pattern_matches_type_exhaustively_n3():
    K = make_field(5)
    bank = ContextBank.shared(K)
    table = {}
    for tail in product(range(5), repeat=3):
        table[tail] = pattern_of_coeffs(K, list(tail) + [1])
    for pat in enumerate_patterns(3):
        for x in product(range(5), repeat=3):
            g = build_G(pat, x, bank)
            counts, _ = table[tuple(g[:-1])]
            assert (counts == pat.counts) == is_type_lambda(x, pat)


# ---------------------------------------------------------------------------
# fibers over pattern classes


def test_squarefree_fibers_carry_weight_n3():
    K = make_field(5)
    bank = ContextBank.shared(K)
    for pat in enumerate_patterns(3):
        w = pattern_stats(pat).weight
        fibers = {}
        for x, t, g in walk_G(pat, bank, 3):
            assert t == is_type_lambda(x, pat)
            if t:
                key = tuple(window_coeffs(5, 3, 3, g)[:-1])
                fibers[key] = fibers.get(key, 0) + 1
        for coeffs, size in fibers.items():
            counts, sqf = pattern_of_coeffs(K, list(coeffs) + [1])
            assert counts == pat.counts
            if sqf:
                assert size == w
            else:
                assert size < w or pat.counts == (3, 0, 0)
        # every square-free member of the class is hit
        for tail in product(range(5), repeat=3):
            counts, sqf = pattern_of_coeffs(K, list(tail) + [1])
            if counts == pat.counts and sqf:
                assert fibers.get(tail, 0) == w


def test_budget_guard_on_scans():
    bank = ContextBank.shared(make_field(5))
    pat = Pattern(3, (1, 1, 0))
    for k in (1, 3):
        with pytest.raises(BudgetError):
            walk_G(pat, bank, k, budget=10)


# ---------------------------------------------------------------------------
# descent trap and the membership equivalence


def test_corrupted_conjugate_table_trips_descent_guard():
    base = make_field(5)
    bank = ContextBank(base)
    bad = ExtCtx(base, 2)
    rows = [list(r) for r in bad.A]
    rows[1][1] = bad.add(rows[1][1], 1)   # no longer the Frobenius image
    bad.A = tuple(tuple(r) for r in rows)
    bank.override(2, bad)
    pat = Pattern(2, (0, 1))
    with pytest.raises(GaloisDescentError):
        for x in product(range(5), repeat=2):
            build_G(pat, x, bank)


def test_membership_equivalence_exhaustive_n3():
    K = make_field(5)
    bank = ContextBank.shared(K)
    fam = new_family(K, 3, 2, [[2]], [1])
    for pat in enumerate_patterns(3):
        ok, witness = verify_membership_equivalence(fam, pat, bank)
        assert ok and witness is None


def test_membership_equivalence_respects_budget():
    K = make_field(5)
    bank = ContextBank.shared(K)
    fam = new_family(K, 3, 2, [[2]], [1])
    with pytest.raises(BudgetError):
        verify_membership_equivalence(fam, Pattern(3, (3, 0, 0)), bank,
                                      budget=10)
