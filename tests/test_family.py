"""Linear coefficient families: canonical reduction, member enumeration,
pattern tallies, and the explicit deviation bounds.

Independent oracles: brute filtering of all q^n monic polynomials
through the raw affine constraints, random row-operations that must not
change the canonical form, and the bound coefficients recomputed from
their closed formulas with Fraction arithmetic.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import product

import pytest

from factpat.errors import BudgetError
from factpat.family import (BoundReport, _member_coeffs, bound_fp1,
                            bound_fp2, bound_nonsquarefree,
                            bound_reference_ci, enumerate_members,
                            new_family, pattern_tally, prescribed_family)
from factpat.ffield import make_field
from factpat.patterns import Pattern, enumerate_patterns, pattern_stats
from factpat.poly import pattern_of_coeffs

SAMPLE_SEED = 424242


def _brute_members(ctx, n, r, rows, alpha):
    """All monic degree-n coefficient lists whose window coefficients
    (c_(n-1), ..., c_r) satisfy row . window + alpha = 0."""
    q = ctx.q
    ncols = n - r
    out = []
    for tail in product(range(q), repeat=n):
        full = list(tail) + [1]
        window = [full[n - 1 - t] for t in range(ncols)]
        ok = True
        for row, a in zip(rows, alpha):
            acc = a
            for c, w in zip(row, window):
                acc = ctx.add(acc, ctx.mul(c, w))
            if acc != 0:
                ok = False
                break
        if ok:
            out.append(tuple(full))
    return out


# ---------------------------------------------------------------------------
# construction and canonical reduction


def test_family_shape_and_frozen_invariants():
    F5 = make_field(5)
    fam = new_family(F5, 4, 3, [[1]], [0])
    assert (fam.n, fam.m, fam.r) == (4, 1, 3)
    assert fam.pivots == (1,)
    assert fam.size == 125
    assert fam.pivot_product == 1
    assert fam.pivot_excess == 0
    assert fam.r_effective == 3


def test_pivot_invariants_with_higher_pivot():
    F7 = make_field(7)
    fam = new_family(F7, 5, 3, [[0, 1]], [0])
    assert fam.pivots == (2,)
    assert fam.pivot_product == 2
    assert fam.pivot_excess == 1
    assert fam.r_effective == 3


def test_reduction_is_invariant_under_row_operations():
    # scale rows, add multiples of one row to another, permute: the
    # canonical form (srows, salpha, pivots) must not move.
    F7 = make_field(7)
    rows = [[1, 2, 0], [0, 3, 1]]
    alpha = [4, 5]
    ref = new_family(F7, 6, 3, rows, alpha)
    rng = random.Random(SAMPLE_SEED)
    for _ in range(40):
        work = [list(r) + [a] for r, a in zip(rows, alpha)]
        for _ in range(6):
            op = rng.randrange(3)
            i, j = rng.randrange(2), rng.randrange(2)
            if op == 0:
                f = rng.randrange(1, 7)
                work[i] = [F7.mul(f, c) for c in work[i]]
            elif op == 1 and i != j:
                f = rng.randrange(7)
                work[i] = [F7.add(c, F7.mul(f, d))
                           for c, d in zip(work[i], work[j])]
            else:
                work.reverse()
        fam = new_family(F7, 6, 3, [w[:-1] for w in work],
                         [w[-1] for w in work])
        assert fam.srows == ref.srows
        assert fam.salpha == ref.salpha
        assert fam.pivots == ref.pivots


def test_dependent_rows_rejected():
    F7 = make_field(7)
    with pytest.raises(ValueError):
        new_family(F7, 6, 3, [[1, 2, 3], [2, 4, 6]], [0, 0])


def test_parameter_validation():
    F5 = make_field(5)
    with pytest.raises(ValueError):
        new_family(F5, 4, 0, [[1, 1, 1, 1]], [0])    # r = 0 needs prescribed
    with pytest.raises(ValueError):
        new_family(F5, 4, 4, [[1]], [0])             # window would be empty
    with pytest.raises(ValueError):
        new_family(F5, 4, 3, [[1, 0]], [0])          # row width mismatch
    with pytest.raises(ValueError):
        new_family(F5, 4, 3, [[7]], [0])             # entry out of range
    with pytest.raises(ValueError):
        new_family(F5, 4, 3, [[1]], [9])             # alpha out of range


def test_small_field_warns():
    F3 = make_field(3)
    with pytest.warns(UserWarning):
        new_family(F3, 4, 3, [[1]], [0])


# ---------------------------------------------------------------------------
# member enumeration against brute filtering


@pytest.mark.parametrize("q,n,r,rows,alpha", [
    (5, 4, 3, [[2]], [3]),
    (5, 4, 2, [[1, 4]], [2]),
    (3, 5, 3, [[1, 2], [0, 1]], [1, 2]),
    (7, 3, 2, [[3]], [6]),
    (4, 4, 2, [[1, 3]], [2]),
    (8, 3, 1, [[5, 1]], [6]),
    (9, 3, 1, [[1, 2], [4, 0]], [3, 7]),
    (2, 6, 2, [[1, 0, 1, 1], [0, 1, 1, 0]], [1, 0]),
    # r = 0 is a prescribed family's: m = n, and two pinned coefficients
    (5, 3, 0, [[1, 2, 3], [0, 1, 4], [2, 0, 1]], [1, 2, 3]),
    (7, 4, 0, [[0, 1, 0, 0], [0, 0, 0, 1]], [3, 5]),
])
def test_members_match_brute_filter(q, n, r, rows, alpha):
    import warnings
    ctx = make_field(*{4: (2, 2), 8: (2, 3), 9: (3, 2)}.get(q, (q, 1)))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        fam = new_family(ctx, n, r, rows, alpha, prescribed=r == 0)
    expected = set(_brute_members(ctx, n, r, rows, alpha))
    got = [tuple(f) for f in enumerate_members(fam)]
    assert len(got) == len(set(got)) == fam.size
    assert set(got) == expected
    assert all(fam.contains_coeffs(list(f)) for f in got)
    # the chunks by leading free code, in order, are the stream
    assert [tuple(f) for first in range(q)
            for f in _member_coeffs(fam, first)] == got


def test_contains_rejects_non_members():
    F5 = make_field(5)
    fam = new_family(F5, 4, 3, [[2]], [3])
    members = {tuple(f) for f in enumerate_members(fam)}
    rejected = 0
    for tail in product(range(5), repeat=4):
        full = list(tail) + [1]
        if tuple(full) not in members:
            assert not fam.contains_coeffs(full)
            rejected += 1
    assert rejected == 5 ** 4 - fam.size


def test_member_stream_is_deterministic_and_chunked():
    F5 = make_field(5)
    fam = new_family(F5, 4, 3, [[2]], [3])
    once = [tuple(f) for f in enumerate_members(fam)]
    again = [tuple(f) for f in enumerate_members(fam)]
    assert once == again
    # chunks keyed by the leading free coefficient partition the tally;
    # a family with no free coefficient (m = n) has its one member in
    # chunk 0 and none in the others
    single = prescribed_family(F5, 3, (1, 2, 3), (2, 0, 4))
    for family in (fam, single):
        parts = [pattern_tally(family, first=first) for first in range(5)]
        merged: dict[tuple, list] = {}
        for part in parts:
            for key, (tot, sq) in part.items():
                slot = merged.setdefault(key, [0, 0])
                slot[0] += tot
                slot[1] += sq
        assert merged == pattern_tally(family)
    assert single.size == 1     # parts are now its chunks
    assert [sum(tot for tot, _ in part.values()) for part in parts] == [
        1, 0, 0, 0, 0]


def test_budget_guard():
    F5 = make_field(5)
    fam = new_family(F5, 4, 3, [[2]], [3])
    with pytest.raises(BudgetError):
        list(enumerate_members(fam, budget=10))
    with pytest.raises(BudgetError):
        pattern_tally(fam, budget=10)


def test_prescribed_family_pins_coefficients():
    F7 = make_field(7)
    fam = prescribed_family(F7, 5, [1, 2], [3, 4])
    assert fam.prescribed
    assert (fam.m, fam.r, fam.pivots) == (2, 3, (1, 2))
    assert fam.size == 7 ** 3
    for full in enumerate_members(fam):
        assert full[5 - 1] == 3 and full[5 - 2] == 4


def test_prescribed_validation():
    F7 = make_field(7)
    with pytest.raises(ValueError):
        prescribed_family(F7, 5, [1, 1], [3, 4])     # repeated index
    with pytest.raises(ValueError):
        prescribed_family(F7, 5, [0], [3])           # index out of range
    with pytest.raises(ValueError):
        prescribed_family(F7, 5, [1, 2], [3])        # length mismatch


# ---------------------------------------------------------------------------
# pattern tallies


def test_tally_matches_direct_kernel():
    F5 = make_field(5)
    fam = new_family(F5, 4, 3, [[2]], [3])
    tally = pattern_tally(fam)
    direct: dict[tuple, list] = {}
    for f in enumerate_members(fam):
        key, sqf = pattern_of_coeffs(F5, f)
        slot = direct.setdefault(key, [0, 0])
        slot[0] += 1
        slot[1] += int(sqf)
    assert tally == direct
    assert sum(v[0] for v in tally.values()) == fam.size


def test_tally_frozen_at_5_4_unit_pivot():
    F5 = make_field(5)
    fam = new_family(F5, 4, 3, [[1]], [0])
    assert pattern_tally(fam) == {
        (4, 0, 0, 0): [14, 1],
        (2, 1, 0, 0): [30, 20],
        (0, 2, 0, 0): [11, 9],
        (1, 0, 1, 0): [40, 40],
        (0, 0, 0, 1): [30, 30],
    }


# ---------------------------------------------------------------------------
# deviation bounds


def test_bound_coefficients_frozen_unit_pivot():
    # pivot 1 means excess D = 0, so only the discriminant term survives
    F5 = make_field(5)
    fam = new_family(F5, 4, 3, [[1]], [0])
    for pat in enumerate_patterns(4):
        b1 = bound_fp1(fam, pat)
        b2 = bound_fp2(fam, pat)
        assert b1.applicable and b2.applicable
        assert (b1.sqrt_coeff, b1.const) == (0, 300)
        assert (b2.sqrt_coeff, b2.const) == (0, 300)
        assert b1.value_str() == "300/1"


def test_bound_coefficients_frozen_pivot_two():
    F7 = make_field(7)
    fam = new_family(F7, 5, 3, [[0, 1]], [0])
    pat = Pattern(5, (5, 0, 0, 0, 0))
    b1 = bound_fp1(fam, pat)
    assert (b1.sqrt_coeff, b1.const) == (Fraction(343, 30),
                                         Fraction(212317, 30))
    assert b1.value_str() == "343/30*sqrt(7)+212317/30"
    b2 = bound_fp2(fam, pat)
    assert (b2.sqrt_coeff, b2.const) == (0, Fraction(71001, 10))
    assert b2.value_str() == "71001/10"


def test_bound_formulas_recomputed_locally():
    # published shapes: q^(n-m-1) (2 T D delta sqrt(q) + 19 T D^2 delta^2
    # + n(n-1)) and q^(n-m-1) (21 T D^3 delta^2 + n(n-1))
    F7 = make_field(7)
    fam = new_family(F7, 6, 3, [[0, 1, 0], [0, 0, 1]], [0, 0])
    delta = 2 * 3
    excess = (2 - 1) + (3 - 1)
    lead = Fraction(7) ** (6 - 2 - 1)
    for pat in enumerate_patterns(6):
        T = pattern_stats(pat).proportion
        b1 = bound_fp1(fam, pat)
        assert b1.sqrt_coeff == lead * 2 * T * excess * delta
        assert b1.const == lead * (19 * T * excess ** 2 * delta ** 2 + 30)
        b2 = bound_fp2(fam, pat)
        assert b2.sqrt_coeff == 0
        assert b2.const == lead * (21 * T * excess ** 3 * delta ** 2 + 30)


def test_bound_applicability_gates():
    F8 = make_field(2, 3)
    fam8 = new_family(F8, 5, 3, [[1, 0]], [0])
    pat5 = Pattern(5, (5, 0, 0, 0, 0))
    b = bound_fp1(fam8, pat5)
    assert not b.applicable and b.reason == "p>2 required"
    assert bound_fp2(fam8, pat5).applicable  # no characteristic restriction

    import warnings
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        F3 = make_field(3)
        fam3 = new_family(F3, 4, 3, [[1]], [0])
    b3 = bound_fp1(fam3, Pattern(4, (4, 0, 0, 0)))
    assert not b3.applicable and b3.reason == "q>n required"

    F7 = make_field(7)
    fam_r2 = new_family(F7, 5, 2, [[1, 0, 0]], [0])
    assert bound_fp1(fam_r2, pat5).reason == "3<=r required"
    assert bound_fp2(fam_r2, pat5).reason == "m+2<=r required"

    fam_deep = new_family(F7, 5, 3, [[1, 0], [0, 1]], [0, 0])  # n-m = 3 = r
    assert bound_fp1(fam_deep, pat5).applicable
    # with m = 2 the second bound needs r >= 4, out of reach at n = 5
    assert bound_fp2(fam_deep, pat5).reason == "m+2<=r required"
    fam_six = new_family(make_field(11), 6, 3, [[1, 0, 0]], [0])
    assert bound_fp2(fam_six, Pattern(6, (6, 0, 0, 0, 0, 0))).applicable


def test_allows_protocol_is_exact():
    # dev <= const passes outright; beyond that the sqrt term is compared
    # by squaring, never by floating point
    b = BoundReport("x", True, "", Fraction(3), Fraction(10), 7)
    assert b.allows(Fraction(10))
    # 10 + 3 sqrt(7) ~ 17.93: 17 passes, 18 fails
    assert b.allows(Fraction(17))
    assert not b.allows(Fraction(18))
    exact = BoundReport("x", True, "", Fraction(0), Fraction(10), 7)
    assert exact.allows(Fraction(10))
    assert not exact.allows(Fraction(10) + Fraction(1, 10 ** 12))
    # squared comparison at the knife edge: dev^2 == coeff^2 q passes
    edge = BoundReport("x", True, "", Fraction(1), Fraction(0), 9)
    assert edge.allows(Fraction(3))
    assert not edge.allows(Fraction(3) + Fraction(1, 10 ** 12))


def test_bounds_hold_on_observed_tallies():
    F7 = make_field(7)
    fam = new_family(F7, 5, 3, [[0, 1]], [0])
    tally = pattern_tally(fam)
    for pat in enumerate_patterns(5):
        got = Fraction(tally.get(pat.counts, [0, 0])[0])
        dev = abs(got - pattern_stats(pat).proportion * fam.size)
        assert bound_fp1(fam, pat).allows(dev)
        assert bound_fp2(fam, pat).allows(dev)


def test_nonsquarefree_bound_value_and_observation():
    F5 = make_field(5)
    fam = new_family(F5, 4, 3, [[1]], [0])
    assert bound_nonsquarefree(fam) == 300
    tally = pattern_tally(fam)
    nsq = sum(tot - sq for tot, sq in tally.values())
    assert nsq <= 300
    # the exact classical count of non-square-free monics restricted by
    # one constraint stays near q^(n-m-1) = 25; the bound is generous
    assert nsq == 25


def test_worst_case_ceilings_dominate():
    F7 = make_field(7)
    fam = new_family(F7, 6, 3, [[0, 1, 0], [0, 0, 1]], [0, 0])
    assert fam.pivot_product <= fam.pivot_product_ceiling()
    assert fam.pivot_excess <= fam.pivot_excess_ceiling()
    tight = new_family(F7, 6, 3, [[0, 1, 0], [0, 0, 1]], [0, 0])
    assert tight.pivot_product_ceiling() >= 6
    assert tight.pivot_excess_ceiling() >= 3


def test_reference_bound_frozen_examples():
    rb = bound_reference_ci(4, 1, (1,))
    assert (rb.sqrt_coeff, rb.plain_coeff) == (0, 0)
    rb2 = bound_reference_ci(8, 2, (2, 3))
    assert (rb2.sqrt_coeff, rb2.plain_coeff) == (8, 4536)
    rb3 = bound_reference_ci(6, 1, (2,))
    # delta 2, D 1: sqrt coeff 2*(1-2)+2 = 0, plain 14*1*4 = 56
    assert (rb3.sqrt_coeff, rb3.plain_coeff) == (0, 56)
