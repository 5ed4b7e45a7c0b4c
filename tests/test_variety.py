"""Symmetric-function side: elementary symmetric evaluation, the reduced
affine system on root values, exact point counts split by coincidence,
and the Jacobian rank probe.

Independent oracles: combinations-based symmetric sums (and, for the
E_k recurrence through a layer's Zech lists, the same recurrence through
the schoolbook methods of a layer without them), Vieta expansion
through the conjugate-product polynomial, and frozen exhaustive counts
for the canonical trace-zero quartic family over F_5.  The window
listings that the systems of one plan share, one per window size, which
zero_block keeps and eval_R never reads, are held to a fresh system per
call.  eval_R and the probe's rank give, in any call order, what they
give on a fresh system (their memos and kept columns in play), and the
membership check's block oracle zero_block, its prefixes in any order,
flags exactly where eval_R on a fresh system vanishes; the span its
listings come from, of the conjugate matrix's columns, is held to _orbit
for a clean and a corrupted conjugate matrix, which eval_R must refuse,
and every entry of a listing, formed once per class under rotation and
scaling, to E_0..E_(n-r) of the vector's own orbit.
"""

from __future__ import annotations

import random
import warnings
from itertools import combinations, product
from types import SimpleNamespace

import pytest

from factpat import variety
from factpat.correspondence import (Plan, _absorb, _orbit, _window_esym,
                                    build_G)
from factpat.errors import (BudgetError, CountingIdentityError,
                            GaloisDescentError)
from factpat.family import new_family, pattern_tally, prescribed_family
from factpat.ffield import ContextBank, ExtCtx, _span, make_field
from factpat.patterns import Pattern, enumerate_patterns, pattern_stats
from factpat.variety import (PointCounts, _full_rank, count_points, eval_R,
                             jacobian_probe, rational_zeros, sym_system)

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


def _esym_k(K, k, ys):
    # E_k of ys, through the package's one E_k recurrence
    return _absorb(K, [1] + [0] * k, ys)[k]


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
            assert _esym_k(K, k, ys) == acc


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
            assert _esym_k(ctx, k, ys) == acc


@pytest.mark.parametrize("p, s, i", [(2, 1, 1), (2, 1, 3), (5, 1, 2),
                                     (2, 2, 2), (3, 1, 3)])
def test_absorb_through_the_zech_lists_matches_the_field_methods(p, s, i):
    # a layer with exp/log/Zech lists against a fresh one without them
    # (the same codes, schoolbook arithmetic); each draw also holds a
    # value and its negative, so that sums cancel to 0
    base = make_field(p, s)
    slow, fast = ExtCtx(base, i), ExtCtx(base, i)
    fast.ensure_fast()
    assert slow._exp is None and fast._exp is not None
    rng = random.Random(SAMPLE_SEED + i)
    for _ in range(40):
        ys = [rng.randrange(fast.order) for _ in range(rng.randrange(6))]
        ys += [0, *(slow.neg(y) for y in ys[:2])]
        rng.shuffle(ys)
        top = rng.randrange(len(ys) + 2)
        assert _absorb(fast, [1] + [0] * top, ys) \
            == _absorb(slow, [1] + [0] * top, ys)


def test_elementary_symmetric_edges():
    K = make_field(5)
    assert _esym_k(K, 0, [2, 3]) == 1
    assert _esym_k(K, 2, [2, 3]) == K.mul(2, 3)
    assert _esym_k(K, 1, []) == 0


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


def _rows_at_G(fam, coeffs):
    """The reduced rows at E_k = (-1)^k c_(n-k), c the full coefficient
    list of a monic degree-n polynomial (Vieta)."""
    K, n = fam.ctx, fam.n
    out = []
    for a, srow in zip(fam.salpha, fam.srows):
        for k, c in enumerate(srow, start=1):
            e = K.neg(coeffs[n - k]) if k % 2 else coeffs[n - k]
            a = K.add(a, K.mul(c, e))
        out.append(a)
    return tuple(out)


def test_vieta_route_matches_conjugate_product_exhaustive_n3():
    # the prescribed family with r = 0 checks every E_k, E_1..E_n
    F5 = make_field(5)
    bank = ContextBank.shared(F5)
    for fam in (new_family(F5, 3, 2, [[1]], [0]),
                prescribed_family(F5, 3, (1, 2, 3), (2, 0, 4))):
        for pat in enumerate_patterns(3):
            sys_ = sym_system(fam, pat, bank)
            for x in product(range(5), repeat=3):
                assert eval_R(sys_, x) == _rows_at_G(fam,
                                                     build_G(pat, x, bank))


def test_vieta_route_matches_conjugate_product_sampled_n4():
    F5, fam = _trace_zero_quartics()
    bank = ContextBank.shared(F5)
    rng = random.Random(SAMPLE_SEED + 2)
    for pat in enumerate_patterns(4):
        sys_ = sym_system(fam, pat, bank)
        for _ in range(120):
            x = tuple(rng.randrange(5) for _ in range(4))
            assert eval_R(sys_, x) == _rows_at_G(fam, build_G(pat, x, bank))


def test_eval_R_vanishes_exactly_on_family_members():
    F5 = make_field(5)
    bank = ContextBank.shared(F5)
    fam = new_family(F5, 3, 2, [[1]], [2])
    for pat in enumerate_patterns(3):
        sys_ = sym_system(fam, pat, bank)
        for x in product(range(5), repeat=3):
            residues = eval_R(sys_, x)
            assert len(residues) == fam.m
            coeffs = build_G(pat, x, bank)
            assert (all(v == 0 for v in residues)
                    == fam.contains_coeffs(coeffs))


def _kept_family(p, n):
    K = make_field(p)
    return ContextBank.shared(K), new_family(K, n, n - 2, [[1, 2]], [1])


@pytest.mark.parametrize("p, n", [(5, 4), (7, 3)])
def test_kept_window_values_do_not_depend_on_order(p, n):
    # eval_R keeps only R per E value: it must give the same values in
    # either order, and as on a fresh system per call
    bank, fam = _kept_family(p, n)
    xs = list(product(range(p), repeat=n))
    for pat in enumerate_patterns(n):
        sys_ = sym_system(fam, pat, bank)
        forward = [eval_R(sys_, x) for x in xs]
        sys_ = sym_system(fam, pat, bank)
        backward = [eval_R(sys_, x) for x in reversed(xs)][::-1]
        fresh = [eval_R(sym_system(fam, pat, bank), x) for x in xs]
        assert forward == backward == fresh, pat.label()


@pytest.mark.parametrize("p, n", [(5, 4), (7, 3)])
def test_window_values_shared_by_a_plan_match_fresh_systems(p, n):
    # the systems of one run share its plan's window listings.
    # Interleaved in any order, eval_R, zero_block and the probe's rank
    # give what a fresh system per call gives
    bank, fam = _kept_family(p, n)
    plan = Plan(bank)
    calls = []
    for pat in enumerate_patterns(n):
        sys_ = sym_system(fam, pat, plan)
        assert sys_.bank is plan
        start = sys_.windows[-1][0]
        calls += [(sys_, eval_R, (x,)) for x in product(range(p), repeat=n)]
        calls += [(sys_, variety.zero_block, (xs,))
                  for xs in product(range(p), repeat=start)]
        calls += [(sys_, _full_rank, (x, e))
                  for x, e in rational_zeros(sym_system(fam, pat, bank))]
    random.Random(SAMPLE_SEED + 5).shuffle(calls)
    for sys_, oracle, args in calls:
        fresh = sym_system(fam, sys_.pattern, bank)
        assert oracle(sys_, *args) == oracle(fresh, *args), (
            sys_.pattern.label(), oracle.__name__, args)
    assert plan.values


def _block_families():
    """A linear m = 1 and m = 2, a prescribed and an F_8 family."""
    F5, F8 = make_field(5), make_field(2, 3)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")     # q <= n families warn by design
        return [new_family(F5, 4, 2, [[1, 3]], [2]),
                new_family(F5, 4, 1, [[1, 0, 2], [0, 1, 4]], [1, 3]),
                prescribed_family(F5, 4, (1, 3), (2, 1)),
                new_family(F8, 3, 1, [[1, 5]], [3])]


@pytest.mark.parametrize("fam", _block_families(),
                         ids=["m1", "m2", "prescribed", "F8"])
def test_zero_block_matches_eval_R_at_every_vector(fam):
    # the block oracle on one system, its prefixes in shuffled order, flags
    # the x = prefix + v where eval_R, on a fresh system per call, vanishes
    bank = ContextBank.shared(fam.ctx)
    plan = Plan(bank)
    rng = random.Random(SAMPLE_SEED + 7)
    for pat in enumerate_patterns(fam.n):
        sys_ = sym_system(fam, pat, plan)
        start, size, _ = sys_.windows[-1]
        prefixes = list(product(range(fam.q), repeat=start))
        rng.shuffle(prefixes)
        for prefix in prefixes:
            want = [not any(eval_R(sym_system(fam, pat, bank), prefix + v))
                    for v in product(range(fam.q), repeat=size)]
            assert list(map(bool, variety.zero_block(sys_, prefix))) == want, (
                pat.label(), prefix)


def test_a_plan_shared_by_two_families_keeps_each_ones_listings():
    # families with n - r = 1 and 3 share one plan, interleaved pattern
    # by pattern: each block still flags exactly where eval_R vanishes
    bank, _ = _kept_family(5, 4)
    plan = Plan(bank)
    fams = [new_family(bank.base, 4, 3, [[1]], [0]),
            new_family(bank.base, 4, 1, [[1, 0, 2]], [1])]
    for pat in enumerate_patterns(4):
        for fam in fams:
            sys_ = sym_system(fam, pat, plan)
            start, size, _ = sys_.windows[-1]
            for prefix in product(range(5), repeat=start):
                want = [not any(eval_R(sys_, prefix + v))
                        for v in product(range(5), repeat=size)]
                assert list(map(bool, variety.zero_block(sys_, prefix))) == (
                    want), (fam.r, pat.label(), prefix)
    assert {nr for _, nr in plan.values} == {1, 3}


def test_kept_window_values_are_bounded():
    # eval_R keeps nothing in the plan; zero_block keeps one listing per
    # window size of its system, E_0..E_(n-r) of each of the q^i vectors
    # of size i, in product order, with the distinct ones
    p, n = 5, 4
    bank, fam = _kept_family(p, n)
    for pat in enumerate_patterns(n):
        plan = Plan(bank)
        sys_ = sym_system(fam, pat, plan)
        for x in product(range(p), repeat=n):
            eval_R(sys_, x)
        assert plan.values == {}, pat.label()
        for prefix in product(range(p), repeat=sys_.windows[-1][0]):
            variety.zero_block(sys_, prefix)
        assert set(plan.values) == {(i, sys_.nr) for i in pat.sizes()}, (
            pat.label())
        for (i, _), (values, distinct) in plan.values.items():
            assert len(values) == p ** i
            assert {len(e) for e in values} == {sys_.nr + 1}
            assert distinct == tuple(dict.fromkeys(values))


# (p, s, largest window size) of the layers the listing is held to
LISTING_LAYERS = [(2, 1, 4), (3, 1, 4), (2, 2, 4), (5, 1, 5), (2, 3, 4),
                  (3, 2, 4)]


@pytest.mark.parametrize("p, s, top", LISTING_LAYERS,
                         ids=["F2", "F3", "F4", "F5", "F8", "F9"])
def test_window_values_match_the_per_vector_orbit(p, s, top):
    # the listing forms one tuple per class under rotation and scaling:
    # every entry, the zero and the all-(q - 1) codes and i = 1 among
    # them, is E_0..E_(n-r) of the vector's own orbit, for n - r up to
    # one past the window size
    bank = ContextBank.shared(make_field(p, s))
    for i in range(1, top + 1):
        ctx = bank.get(i)
        ctx.ensure_fast()
        orbits = [_orbit(ctx, ctx.A, v)
                  for v in product(range(ctx.q), repeat=i)]
        for nr in range(1, i + 2):
            sys_ = SimpleNamespace(bank=Plan(bank), nr=nr)
            values, distinct = variety._window_values(sys_, ctx)
            assert values == [_window_esym(ctx, orbit, nr)
                              for orbit in orbits], (i, nr)
            assert distinct == tuple(dict.fromkeys(values))


def test_window_values_refuse_a_conjugate_matrix_not_circulant():
    bank = _layer_with_bad_entry(make_field(5), 3, 1, 2)
    with pytest.raises(GaloisDescentError, match="not circulant"):
        variety._window_values(SimpleNamespace(bank=Plan(bank), nr=2),
                               bank.get(3))


# (p, n, r, rows, alpha): small families, the last with m = 2
ORDER_FAMILIES = [(5, 4, 2, [[1, 2]], [1]), (7, 3, 1, [[0, 1]], [3]),
                  (3, 4, 1, [[1, 0, 2], [0, 1, 1]], [0, 2])]


def _layer_with_bad_entry(base, i, k, h):
    """A bank whose layer F_(q^i) has A[k][h] shifted by a non-base
    element, so E_1 stops descending wherever x_h is nonzero."""
    bank = ContextBank(base)
    bad = ExtCtx(base, i)
    rows = [list(r) for r in bad.A]
    rows[k][h] = bad.add(rows[k][h], base.q)
    bad.A = tuple(tuple(r) for r in rows)
    bank.override(i, bad)
    return bank


@pytest.mark.parametrize("p, n, r, rows, alpha", ORDER_FAMILIES,
                         ids=["q5n4", "q7n3", "q3n4-m2"])
def test_oracles_do_not_depend_on_call_order(p, n, r, rows, alpha):
    # eval_R at every x and the probe's rank at every zero, in product
    # order, shuffled (which defeats the prefix products, the memos and
    # the kept columns) and on a fresh system per call
    K = make_field(p)
    bank = ContextBank.shared(K)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")     # q <= n families warn by design
        fam = new_family(K, n, r, rows, alpha)
    rng = random.Random(SAMPLE_SEED + 7)
    xs = list(product(range(p), repeat=n))
    for pat in enumerate_patterns(n):
        zeros = list(rational_zeros(sym_system(fam, pat, bank)))
        calls = [(eval_R, (x,)) for x in xs] + [(_full_rank, z) for z in zeros]
        sys_ = sym_system(fam, pat, bank)
        ordered = [oracle(sys_, *args) for oracle, args in calls]
        order = list(range(len(calls)))
        rng.shuffle(order)
        sys_ = sym_system(fam, pat, bank)
        shuffled = {k: calls[k][0](sys_, *calls[k][1]) for k in order}
        fresh = [oracle(sym_system(fam, pat, bank), *args)
                 for oracle, args in calls]
        assert ordered == [shuffled[k] for k in range(len(calls))] == fresh, (
            pat.label())
        # the m = 2 family has rank-deficient zeros under every pattern
        assert fam.m < 2 or not all(ordered[len(xs):]), pat.label()
    # zero_block's orbits of every size-n vector, one span of A's
    # columns, for a clean and a corrupted A
    for bank_n in (bank, _layer_with_bad_entry(K, n, 1, n - 1)):
        ctx = bank_n.get(n)
        assert _span(list(zip(*ctx.A)), n, p, ctx.add, ctx.mul) == [
            tuple(_orbit(ctx, ctx.A, c)) for c in xs]


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


@pytest.mark.parametrize("k, h", [(0, 1), (1, 2)],
                         ids=["first-row", "later-column"])
def test_corrupted_size_n_window_trips_eval_R(k, h):
    # pattern 3 has one window, of size n: its orbit is summed from the
    # scaled columns of A, and its E values are descent-checked at every x
    base = make_field(5)
    fam = new_family(base, 3, 1, [[1, 0]], [0])
    sys_ = sym_system(fam, Pattern(3, (0, 0, 1)),
                      _layer_with_bad_entry(base, 3, k, h))
    for x in product(range(5), repeat=3):
        if x[h]:
            with pytest.raises(GaloisDescentError, match="E_1"):
                eval_R(sys_, x)
        else:
            assert len(eval_R(sys_, x)) == 1


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
