"""Symmetric-function side: elementary symmetric evaluation, the reduced
affine system on root values, exact point counts split by coincidence,
and the Jacobian rank probe.

Independent oracles: combinations-based symmetric sums, Vieta expansion
through the conjugate-product polynomial, and frozen exhaustive counts
for the canonical trace-zero quartic family over F_5.
"""

from __future__ import annotations

import random
from itertools import combinations, product

import pytest

from factpat.correspondence import build_G
from factpat.errors import (BudgetError, CountingIdentityError,
                            GaloisDescentError)
from factpat.family import new_family, pattern_tally
from factpat.ffield import ContextBank, ExtCtx, make_field
from factpat.patterns import Pattern, enumerate_patterns, pattern_stats
from factpat.variety import (PointCounts, count_points, elementary_symmetric,
                             eval_R, g_coeffs, jacobian_probe, sym_system)

SAMPLE_SEED = 77

# exhaustive counts for the trace-zero quartic family over F_5
# (one constraint a_3 = 0): label -> (v_total, v_eq, v_neq, a_sq, a_nsq)
FROZEN_COUNTS_Q5_N4 = {
    "1^4": (125, 101, 24, 1, 13),
    "1^2 2": (125, 45, 80, 20, 10),
    "2^2": (125, 53, 72, 9, 2),
    "1 3": (125, 5, 120, 40, 0),
    "4": (125, 5, 120, 30, 0),
}


def _trace_zero_quartics():
    F5 = make_field(5)
    return F5, new_family(F5, 4, 3, [[1]], [0])


# ---------------------------------------------------------------------------
# elementary symmetric evaluation


def test_elementary_symmetric_matches_combinations():
    K = make_field(7)
    rng = random.Random(SAMPLE_SEED)
    for _ in range(40):
        ys = [rng.randrange(7) for _ in range(5)]
        for k in range(6):
            acc = 0
            for sub in combinations(ys, k):
                term = 1
                for v in sub:
                    term = K.mul(term, v)
                acc = K.add(acc, term)
            assert elementary_symmetric(K, k, ys) == acc


def test_elementary_symmetric_in_extension_layer():
    ctx = ContextBank.shared(make_field(5)).get(2)
    rng = random.Random(SAMPLE_SEED + 1)
    for _ in range(30):
        ys = [rng.randrange(ctx.order) for _ in range(4)]
        for k in (1, 2, 3, 4):
            acc = 0
            for sub in combinations(ys, k):
                term = 1
                for v in sub:
                    term = ctx.mul(term, v)
                acc = ctx.add(acc, term)
            assert elementary_symmetric(ctx, k, ys) == acc


def test_elementary_symmetric_edges():
    K = make_field(5)
    assert elementary_symmetric(K, 0, [2, 3]) == 1
    assert elementary_symmetric(K, 2, [2, 3]) == K.mul(2, 3)
    with pytest.raises(ValueError):
        elementary_symmetric(K, 3, [2, 3])   # k beyond value count
    with pytest.raises(ValueError):
        elementary_symmetric(K, -1, [2, 3])


# ---------------------------------------------------------------------------
# system structure


def test_system_layers_and_weights():
    F5, fam = _trace_zero_quartics()
    bank = ContextBank.shared(F5)
    for pat in enumerate_patterns(4):
        sys_ = sym_system(fam, pat, bank)
        # each window in the layer of its own size, nothing larger
        assert tuple(ctx.i for _, _, ctx in sys_.windows) == pat.sizes()
        assert sys_.nr == 1
        assert sys_.weight == pattern_stats(pat).weight
        assert len(sys_.windows) == len(pat.sizes())


def test_vieta_route_matches_conjugate_product_exhaustive_n3():
    F5 = make_field(5)
    bank = ContextBank.shared(F5)
    fam = new_family(F5, 3, 2, [[1]], [0])
    for pat in enumerate_patterns(3):
        sys_ = sym_system(fam, pat, bank)
        for x in product(range(5), repeat=3):
            assert g_coeffs(sys_, x) == build_G(pat, x, bank).full()


def test_vieta_route_matches_conjugate_product_sampled_n4():
    F5, fam = _trace_zero_quartics()
    bank = ContextBank.shared(F5)
    rng = random.Random(SAMPLE_SEED + 2)
    for pat in enumerate_patterns(4):
        sys_ = sym_system(fam, pat, bank)
        for _ in range(120):
            x = tuple(rng.randrange(5) for _ in range(4))
            assert g_coeffs(sys_, x) == build_G(pat, x, bank).full()


def test_eval_R_vanishes_exactly_on_family_members():
    F5 = make_field(5)
    bank = ContextBank.shared(F5)
    fam = new_family(F5, 3, 2, [[1]], [2])
    for pat in enumerate_patterns(3):
        sys_ = sym_system(fam, pat, bank)
        for x in product(range(5), repeat=3):
            residues = eval_R(sys_, x)
            assert len(residues) == fam.m
            coeffs = g_coeffs(sys_, x)
            assert (all(v == 0 for v in residues)
                    == fam.contains_coeffs(coeffs))


# ---------------------------------------------------------------------------
# point counts and the exact identity


def test_counts_frozen_for_trace_zero_quartics():
    F5, fam = _trace_zero_quartics()
    bank = ContextBank.shared(F5)
    tally = pattern_tally(fam)
    for pat in enumerate_patterns(4):
        sys_ = sym_system(fam, pat, bank)
        pc = count_points(sys_, member_tally=tally)
        assert isinstance(pc, PointCounts)
        frozen = FROZEN_COUNTS_Q5_N4[pat.label()]
        assert (pc.v_total, pc.v_eq, pc.v_neq, pc.a_sq, pc.a_nsq) == frozen
        assert pc.weight == pattern_stats(pat).weight
        assert pc.identity_holds
        assert pc.v_eq + pc.v_neq == pc.v_total


def test_identity_violation_raises():
    F5, fam = _trace_zero_quartics()
    bank = ContextBank.shared(F5)
    pat = Pattern(4, (2, 1, 0, 0))
    sys_ = sym_system(fam, pat, bank)
    broken = {k: [v[0], v[1]] for k, v in pattern_tally(fam).items()}
    broken[pat.counts][1] += 1
    with pytest.raises(CountingIdentityError):
        count_points(sys_, member_tally=broken)


def test_count_points_budget_guard():
    F5, fam = _trace_zero_quartics()
    bank = ContextBank.shared(F5)
    sys_ = sym_system(fam, Pattern(4, (4, 0, 0, 0)), bank)
    with pytest.raises(BudgetError):
        count_points(sys_, budget=10)


def test_corrupted_embedding_layer_trips_descent_guard():
    base = make_field(5)
    bank = ContextBank(base)
    bad = ExtCtx(base, 2)
    rows = [list(r) for r in bad.A]
    # shift by a strictly non-base element so the symmetric values stop
    # descending (a base-field shift would slip through E_1 unnoticed)
    rows[0][1] = bad.add(rows[0][1], base.q)
    bad.A = tuple(tuple(r) for r in rows)
    bank.override(2, bad)
    fam = new_family(base, 4, 3, [[1]], [0])
    sys_ = sym_system(fam, Pattern(4, (0, 2, 0, 0)), bank)
    with pytest.raises(GaloisDescentError):
        for x in product(range(5), repeat=4):
            eval_R(sys_, x)


# ---------------------------------------------------------------------------
# Jacobian probe


def test_probe_clean_on_trace_zero_quartics():
    F5, fam = _trace_zero_quartics()
    bank = ContextBank.shared(F5)
    for pat in enumerate_patterns(4):
        sys_ = sym_system(fam, pat, bank)
        probe = jacobian_probe(sys_)
        assert probe.scope == "p>2"
        assert probe.points_on_variety == 125
        assert probe.violations == 0 and probe.ok
        assert probe.counterexamples == ()
        assert probe.confirmed == probe.rank_deficient


def test_probe_scope_in_characteristic_two():
    F4 = make_field(2, 2)
    bank = ContextBank.shared(F4)
    fam = new_family(F4, 3, 2, [[1]], [0])
    sys_ = sym_system(fam, Pattern(3, (1, 1, 0)), bank)
    probe = jacobian_probe(sys_)
    assert probe.scope == "informational (p=2)"
    assert probe.points_on_variety == 16   # 4^3 / 4: one linear constraint


def test_probe_budget_guard():
    F5, fam = _trace_zero_quartics()
    bank = ContextBank.shared(F5)
    sys_ = sym_system(fam, Pattern(4, (4, 0, 0, 0)), bank)
    with pytest.raises(BudgetError):
        jacobian_probe(sys_, budget=10)


def test_on_variety_total_matches_family_size():
    # summed over one pattern the variety points biject with coefficient
    # solutions; frozen structural fact for these families
    F7 = make_field(7)
    bank = ContextBank.shared(F7)
    fam = new_family(F7, 3, 2, [[3]], [2])
    for pat in enumerate_patterns(3):
        sys_ = sym_system(fam, pat, bank)
        pc = count_points(sys_)
        assert pc.v_total == 7 ** 2
