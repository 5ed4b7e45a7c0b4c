"""The symmetric variety cut out by a family's constraints, and its scans.

For a pattern of degree n and a family with reduced rows S_j, substitute
the elementary symmetric functions of the root forms: each constraint
becomes R_j(x) = alpha'_j + sum_k c'_(j,k) E_k(Y(x)), a polynomial of
degree i_j (the pivot) in the coordinates x.  All root forms are taken
inside one common layer F_(q^N), N = lcm of the active window sizes, so
equality and coincidence of roots across windows are meaningful.

Two exact facts drive the verification:

* counting: w * (number of square-free family members with the pattern)
  equals the number of rational zeros of R with pairwise distinct root
  values, where w is the pattern weight;
* smoothness probe: wherever the Jacobian of R drops rank at a rational
  zero, the root values must collide doubly (one value four times over,
  or two values each repeated).  For p = 2 the probe is informational.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from math import lcm

from .correspondence import SCAN_BUDGET, layout
from .errors import BudgetError, CountingIdentityError, GaloisDescentError
from .family import LinearFamily, pattern_tally
from .ffield import mat_rank
from .patterns import Pattern, pattern_stats


def elementary_symmetric(K, k: int, ys) -> int:
    """E_k of the given values over the scalar context K, exactly.

    Truncated product recurrence: after absorbing each value y the slot
    e[t] holds E_t of the values seen so far.
    """
    ys = list(ys)
    if k < 0 or k > len(ys):
        raise ValueError("k must be in 0..len(ys)")
    add, mul = K.add, K.mul
    e = [1] + [0] * k
    cnt = 0
    for y in ys:
        cnt += 1
        top = k if k < cnt else cnt
        for t in range(top, 0, -1):
            e[t] = add(e[t], mul(y, e[t - 1]))
    return e[k]


@dataclass
class SymSystem:
    fam: LinearFamily
    pattern: Pattern
    common: object            # ExtCtx of degree lcm(active window sizes)
    windows: tuple            # ((start, size, embedded A rows), ...)
    terms: tuple              # per row j: ((k, coeff), ...) nonzero entries
    salpha: tuple
    nr: int                   # n - r, number of symmetric values used
    weight: int               # pattern weight w


def sym_system(fam: LinearFamily, pattern: Pattern, bank) -> SymSystem:
    """Precompute the embedded window matrices and the reduced row data."""
    if pattern.n != fam.n:
        raise ValueError("pattern degree must match the family degree")
    active = [i for i, c in enumerate(pattern.counts, start=1) if c]
    n_common = lcm(*active)
    common = bank.get(n_common)
    common.ensure_fast()
    windows = []
    for size, start in layout(pattern).windows:
        ctx = bank.get(size)
        emb = bank.embedding(size, n_common)
        rows = tuple(tuple(emb.map(a) for a in row) for row in ctx.A)
        windows.append((start, size, rows))
    terms = tuple(tuple((k + 1, c) for k, c in enumerate(srow) if c)
                  for srow in fam.srows)
    return SymSystem(fam, pattern, common, tuple(windows), terms,
                     fam.salpha, fam.n - fam.r, pattern_stats(pattern).weight)


def _root_values(sys_: SymSystem, x):
    """All n root values of x in the common layer, window by window."""
    cadd, cmul = sys_.common.add, sys_.common.mul
    y = []
    for start, size, rows in sys_.windows:
        seg = x[start:start + size]
        for row in rows:
            acc = 0
            for c, a in zip(seg, row):
                if c:
                    acc = cadd(acc, cmul(c, a))
            y.append(acc)
    return y


def _esym_prefix(sys_: SymSystem, y, upto):
    """E_1..E_upto of y in the common layer, with descent check."""
    common = sys_.common
    cadd, cmul = common.add, common.mul
    e = [1] + [0] * upto
    cnt = 0
    for yv in y:
        cnt += 1
        top = upto if upto < cnt else cnt
        for t in range(top, 0, -1):
            e[t] = cadd(e[t], cmul(yv, e[t - 1]))
    q = common.q
    for t in range(1, upto + 1):
        if e[t] >= q:
            raise GaloisDescentError(
                f"symmetric value E_{t} = {e[t]} did not descend to F_q")
    return e


def eval_R(sys_: SymSystem, x):
    """The m reduced constraint values at x, as base-field codes.

    Zero everywhere iff the polynomial built from x lies in the family.
    Raises GaloisDescentError if a symmetric value fails to be
    Frobenius-fixed (corrupted normal-basis data).
    """
    y = _root_values(sys_, x)
    e = _esym_prefix(sys_, y, sys_.nr)
    K = sys_.fam.ctx
    badd, bmul = K.add, K.mul
    out = []
    for a, tm in zip(sys_.salpha, sys_.terms):
        acc = a
        for k, c in tm:
            ek = e[k]
            if ek:
                acc = badd(acc, bmul(c, ek))
        out.append(acc)
    return tuple(out)


def g_coeffs(sys_: SymSystem, x):
    """Full coefficient list of the degree-n image of x, via the
    symmetric route: c_(n-k) = (-1)^k E_k.  Cross-checks build_G."""
    n = sys_.fam.n
    y = _root_values(sys_, x)
    e = _esym_prefix(sys_, y, n)
    K = sys_.fam.ctx
    full = [0] * n + [1]
    for k in range(1, n + 1):
        full[n - k] = K.neg(e[k]) if k % 2 else e[k]
    return full


@dataclass(frozen=True)
class PointCounts:
    v_total: int      # rational zeros of R
    v_eq: int         # zeros with at least one root-value coincidence
    v_neq: int        # zeros with pairwise distinct root values
    a_sq: int         # square-free members with the pattern (census side)
    a_nsq: int        # non-square-free members with the pattern
    weight: int

    @property
    def identity_holds(self) -> bool:
        return self.a_sq * self.weight == self.v_neq


def count_points(sys_: SymSystem, budget: int = SCAN_BUDGET,
                 member_tally=None) -> PointCounts:
    """Exhaustive point count of the variety, split by root coincidence,
    against the independent member census for the same pattern.

    Raises CountingIdentityError if w * a_sq != v_neq; that identity has
    no tolerance.
    """
    fam = sys_.fam
    n = fam.n
    q = fam.q
    total = q ** n
    if total > budget:
        raise BudgetError(f"scan size {total} exceeds budget {budget}")
    v_total = v_eq = 0
    for x in product(range(q), repeat=n):
        y = _root_values(sys_, x)
        e = _esym_prefix(sys_, y, sys_.nr)
        on = True
        for a, tm in zip(sys_.salpha, sys_.terms):
            acc = a
            for k, c in tm:
                ek = e[k]
                if ek:
                    acc = fam.ctx.add(acc, fam.ctx.mul(c, ek))
            if acc != 0:
                on = False
                break
        if not on:
            continue
        v_total += 1
        if len(set(y)) != n:
            v_eq += 1
    v_neq = v_total - v_eq
    if member_tally is None:
        member_tally = pattern_tally(fam)
    cnt, sq = member_tally.get(sys_.pattern.counts, (0, 0))
    counts = PointCounts(v_total, v_eq, v_neq, sq, cnt - sq, sys_.weight)
    if not counts.identity_holds:
        raise CountingIdentityError(
            f"w*a_sq = {counts.weight * counts.a_sq} != v_neq = {counts.v_neq} "
            f"for pattern {sys_.pattern.label()}")
    return counts


@dataclass(frozen=True)
class ProbeReport:
    scope: str                 # "p>2" or "informational (p=2)"
    points_on_variety: int
    rank_deficient: int
    confirmed: int             # rank-deficient points with the double collision
    violations: int            # rank-deficient points without it
    counterexamples: tuple     # up to max_recorded of the violating vectors

    @property
    def ok(self) -> bool:
        return self.violations == 0


def _double_collision(y) -> bool:
    """Some value occurs four times, or two distinct values repeat."""
    mult: dict[int, int] = {}
    for v in y:
        mult[v] = mult.get(v, 0) + 1
    repeated = [c for c in mult.values() if c >= 2]
    return any(c >= 4 for c in repeated) or len(repeated) >= 2


def jacobian_probe(sys_: SymSystem, budget: int = SCAN_BUDGET,
                   max_recorded: int = 10) -> ProbeReport:
    """Scan the rational zeros of R; wherever the Jacobian in the root
    coordinates drops below full rank, check the double-collision
    condition on the root values.  Points violating it are recorded as
    counterexamples (none are expected for p > 2)."""
    fam = sys_.fam
    n = fam.n
    q = fam.q
    total = q ** n
    if total > budget:
        raise BudgetError(f"scan size {total} exceeds budget {budget}")
    common = sys_.common
    csub, cmul = common.sub, common.mul
    cadd = common.add
    m = fam.m
    nr = sys_.nr
    points = deficient = confirmed = violations = 0
    bad = []
    for x in product(range(q), repeat=n):
        y = _root_values(sys_, x)
        e = _esym_prefix(sys_, y, nr)
        on = True
        for a, tm in zip(sys_.salpha, sys_.terms):
            acc = a
            for k, c in tm:
                ek = e[k]
                if ek:
                    acc = fam.ctx.add(acc, fam.ctx.mul(c, ek))
            if acc != 0:
                on = False
                break
        if not on:
            continue
        points += 1
        # Jacobian column for coordinate l: entries sum_k c_(j,k) E_(k-1)
        # of the values with y_l omitted; the omitted-value prefix comes
        # from the downward recurrence E~_t = E_t - y_l E~_(t-1).
        jac_cols = []
        for l in range(n):
            yl = y[l]
            omit = [1]
            prev = 1
            for t in range(1, nr):
                prev = csub(e[t], cmul(yl, prev))
                omit.append(prev)
            col = []
            for tm in sys_.terms:
                acc = 0
                for k, c in tm:
                    ot = omit[k - 1]
                    if ot:
                        acc = cadd(acc, cmul(c, ot))
                col.append(acc)
            jac_cols.append(col)
        jac_rows = [[jac_cols[l][j] for l in range(n)] for j in range(m)]
        if mat_rank(common, jac_rows) >= m:
            continue
        deficient += 1
        if _double_collision(y):
            confirmed += 1
        else:
            violations += 1
            if len(bad) < max_recorded:
                bad.append(tuple(x))
    scope = "p>2" if fam.ctx.p > 2 else "informational (p=2)"
    return ProbeReport(scope, points, deficient, confirmed, violations, tuple(bad))
