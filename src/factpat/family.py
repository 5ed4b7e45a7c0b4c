"""Linear families of monic degree-n polynomials and their pattern bounds.

A family is the set of f = T^n + c_(n-1) T^(n-1) + ... + c_0 over F_q
whose leading coefficient window (c_(n-1), ..., c_r) satisfies m
independent affine equations L_j . (c_(n-1), ..., c_r) + alpha_j = 0.
Internally each constraint is rewritten over the signed power sums
Z_k = (-1)^k c_(n-k) (the elementary symmetric values of the roots) and
brought to a canonical reduced echelon form whose pivots sit at the
*highest* Z index of each row.  The pivot positions i_1 < ... < i_m,
their product and their excess sum (i_j - 1) are the two invariants the
deviation bounds are built from.

Bound evaluators return exact rational data; a bound of the shape
a*sqrt(q) + b is compared against a rational deviation x by the exact
protocol: pass iff x <= b, or (x - b)^2 <= a^2 * q.  A census reads the
same bounds from the integers of bound_terms.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from fractions import Fraction
from itertools import product

from .errors import BudgetError
from .ffield import FieldParams, rref
from .patterns import MAX_N, Pattern, pattern_stats
from .poly import pattern_of_coeffs

MEMBER_BUDGET = 10 ** 8


@dataclass(frozen=True)
class LinearFamily:
    ctx: FieldParams
    n: int
    m: int
    r: int
    rows: tuple                 # original constraint rows over (c_(n-1)..c_r)
    alpha: tuple                # original constants
    srows: tuple                # reduced rows over (Z_1..Z_(n-r)), pivot coeff 1
    salpha: tuple               # reduced constants
    pivots: tuple               # i_1 < ... < i_m, the trailing pivot indices
    prescribed: bool = False

    @property
    def q(self):
        return self.ctx.q

    @property
    def size(self):
        """Number of members, q^(n-m)."""
        return self.q ** (self.n - self.m)

    @property
    def pivot_product(self):
        out = 1
        for i in self.pivots:
            out *= i
        return out

    @property
    def pivot_excess(self):
        return sum(i - 1 for i in self.pivots)

    @property
    def r_effective(self):
        """n - i_m: reduced rows never touch Z beyond the largest pivot."""
        return self.n - self.pivots[-1]

    def pivot_product_ceiling(self):
        """Worst case of pivot_product over families with r >= 3."""
        out = 1
        for i in range(self.n - 3, self.n - 3 - self.m, -1):
            out *= max(i, 1)
        return out

    def pivot_excess_ceiling(self):
        """Coarse worst case of pivot_excess, m(n-2)."""
        return self.m * (self.n - 2)

    def contains_coeffs(self, full) -> bool:
        """Membership check straight from the original rows (no reduction)."""
        K = self.ctx
        ncols = self.n - self.r
        window = [full[self.n - 1 - t] for t in range(ncols)]
        for row, a in zip(self.rows, self.alpha):
            acc = a
            for c, w in zip(row, window):
                if c and w:
                    acc = K.add(acc, K.mul(c, w))
            if acc != 0:
                return False
        return True


def _reduce_rows(K, crows, calpha, ncols, m):
    """Reduced echelon form with pivots chosen right-to-left.

    Returns (rows, consts, pivot_cols) with pivot coefficients 1, each
    pivot column cleared in every other row, rows ordered by pivot column.
    Raises ValueError when the rows are dependent (rank < m).
    """
    # the constants ride along as a last column that is never a pivot
    rows, cols = rref(K, [list(r) + [a] for r, a in zip(crows, calpha)],
                      range(ncols - 1, -1, -1))
    if len(cols) < m:
        raise ValueError("constraint rows are linearly dependent")
    srows = tuple(tuple(r[:ncols]) for r in reversed(rows))
    salpha = tuple(r[ncols] for r in reversed(rows))
    pivots = tuple(col + 1 for col in reversed(cols))
    return srows, salpha, pivots


def new_family(ctx: FieldParams, n: int, r: int, rows, alpha,
               prescribed: bool = False) -> LinearFamily:
    """Build a family from m affine rows over the window (c_(n-1), ..., c_r)."""
    if n < 2:
        raise ValueError("degree must be >= 2")
    if n > MAX_N:       # as the pattern enumeration does, before any warning
        raise ValueError(f"degree must be in 1..{MAX_N}")
    if not prescribed and not 1 <= r <= n - 1:
        raise ValueError("need 1 <= r <= n-1")
    if prescribed and not 0 <= r <= n - 1:
        raise ValueError("need 0 <= r <= n-1")
    rows = tuple(tuple(row) for row in rows)
    alpha = tuple(alpha)
    m = len(rows)
    if m < 1:
        raise ValueError("need at least one constraint row")
    if len(alpha) != m:
        raise ValueError("alpha must have one entry per row")
    ncols = n - r
    if any(len(row) != ncols for row in rows):
        raise ValueError(f"rows must have n-r = {ncols} entries")
    if m > ncols:
        raise ValueError("more constraints than window coefficients")
    q = ctx.q
    for row in rows:
        for c in row:
            if not 0 <= c < q:
                raise ValueError(f"row entry {c} out of range")
    for a in alpha:
        if not 0 <= a < q:
            raise ValueError(f"alpha entry {a} out of range")
    # Z_k = (-1)^k c_(n-k): flip signs of the odd columns.
    neg = ctx.neg
    crows = [tuple(neg(c) if (k % 2 == 1) else c for k, c in enumerate(row, start=1))
             for row in rows]
    srows, salpha, pivots = _reduce_rows(ctx, crows, alpha, ncols, m)
    if q <= n:      # only a family that is built warns
        warnings.warn(f"q = {q} <= n = {n}: the deviation bounds do not apply",
                      stacklevel=2)
    return LinearFamily(ctx, n, m, r, rows, alpha, srows, salpha, pivots,
                        prescribed=prescribed)


def prescribed_family(ctx: FieldParams, n: int, indices, values) -> LinearFamily:
    """The family with c_(n-i_j) forced to the given values, i_1 < ... < i_m.

    This is the prescribed-coefficient special case: each constraint row
    touches a single window coefficient, and r = n - i_m.
    """
    indices = tuple(indices)
    values = tuple(values)
    if not indices:
        raise ValueError("need at least one prescribed index")
    if len(values) != len(indices):
        raise ValueError("one value per prescribed index required")
    if list(indices) != sorted(set(indices)):
        raise ValueError("indices must be strictly increasing")
    if indices[0] < 1 or indices[-1] > n:
        raise ValueError("indices must lie in 1..n")
    r = n - indices[-1]
    ncols = n - r
    rows = []
    alpha = []
    for i, val in zip(indices, values):
        if not 0 <= val < ctx.q:
            raise ValueError(f"prescribed value {val} out of range")
        row = [0] * ncols
        row[i - 1] = 1
        rows.append(tuple(row))
        alpha.append(ctx.neg(val))
    return new_family(ctx, n, r, rows, alpha, prescribed=True)


def _member_coeffs(fam: LinearFamily, first=None):
    """Yield full coefficient lists (c_0..c_(n-1), 1) of the members.

    Free coefficient positions run highest degree first, each over field
    codes in ascending order; when first is given the highest free
    position is pinned to that code (the chunking used for workers).
    """
    K = fam.ctx
    q = fam.q
    n = fam.n
    constrained = {n - i for i in fam.pivots}
    free = [j for j in range(n - 1, -1, -1) if j not in constrained]
    neg = K.neg
    add = K.add
    mul = K.mul
    # Nonzero off-pivot entries of each reduced row, as (Z index, coeff).
    terms = []
    for srow, i in zip(fam.srows, fam.pivots):
        terms.append([(k + 1, c) for k, c in enumerate(srow)
                      if c and (k + 1) != i])
    salpha = fam.salpha
    pivots = fam.pivots
    if first is None:
        wheels = product(range(q), repeat=len(free))
    elif free:
        wheels = ((first,) + rest for rest in product(range(q), repeat=len(free) - 1))
    else:
        wheels = iter(()) if first else iter(((),))
    full_template = [0] * n + [1]
    for combo in wheels:
        full = list(full_template)
        for pos, val in zip(free, combo):
            full[pos] = val
        # Solve each pivot: Z_i = -(alpha' + sum c'_k Z_k), Z_k = (-1)^k c_(n-k).
        for (i, a, tm) in zip(pivots, salpha, terms):
            acc = a
            for k, c in tm:
                ck = full[n - k]
                if ck:
                    zk = neg(ck) if k % 2 else ck
                    acc = add(acc, mul(c, zk))
            zi = neg(acc)
            full[n - i] = neg(zi) if i % 2 else zi
        yield full


def enumerate_members(fam: LinearFamily, budget: int = MEMBER_BUDGET):
    """Yield every member exactly once as its full coefficient list,
    deterministically."""
    if fam.size > budget:
        raise BudgetError(f"family size {fam.size} exceeds budget {budget}")
    yield from _member_coeffs(fam)


def pattern_tally(fam: LinearFamily, budget: int = MEMBER_BUDGET, first=None) -> dict:
    """Pattern counts over the members: counts tuple -> [total, squarefree].

    Runs the census kernel over the raw coefficient stream; with first
    set, only the chunk with that leading free coefficient is tallied.
    """
    if first is None and fam.size > budget:
        raise BudgetError(f"family size {fam.size} exceeds budget {budget}")
    K = fam.ctx
    tally: dict[tuple, list] = {}
    for full in _member_coeffs(fam, first=first):
        key, sqf = pattern_of_coeffs(K, full)
        slot = tally.get(key)
        if slot is None:
            tally[key] = [1, 1 if sqf else 0]
        else:
            slot[0] += 1
            if sqf:
                slot[1] += 1
    return tally


# -- deviation bounds -------------------------------------------------------


@dataclass(frozen=True)
class BoundReport:
    """An exact bound of the form (sqrt_coeff * q^(1/2) + const), with
    applicability hypotheses evaluated for the family it was built from."""

    tag: str
    applicable: bool
    reason: str
    sqrt_coeff: Fraction
    const: Fraction
    q: int

    def allows(self, deviation: Fraction) -> bool:
        """Exact comparison of deviation <= sqrt_coeff*sqrt(q) + const."""
        deviation = Fraction(deviation)
        if deviation <= self.const:
            return True
        if self.sqrt_coeff == 0:
            return False
        return (deviation - self.const) ** 2 <= self.sqrt_coeff ** 2 * self.q

    def value_str(self) -> str:
        c = _frac_str(self.const)
        if self.sqrt_coeff == 0:
            return c
        return f"{_frac_str(self.sqrt_coeff)}*sqrt({self.q})+{c}"


def _frac_str(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def _hypotheses(checks):
    failed = [msg for ok, msg in checks if not ok]
    return (not failed, "; ".join(failed))


def bound_terms(fam: LinearFamily) -> tuple:
    """What fp1 and fp2 share over a family's patterns: (q, den, plain,
    bounds), bounds holding (tag, applicable, reason, a, b) per bound.
    With q^(n-m-1) = num/den (den = q where m = n, else 1) and T = 1/w,
    w * den times the bound is a * sqrt(q) + b + plain * w, in integers."""
    n, m, q, r = fam.n, fam.m, fam.q, fam.r
    d, delta, e = fam.pivot_excess, fam.pivot_product, n - m - 1
    num, dd = q ** max(e, 0), (d * delta) ** 2
    q_big, r_cap = (q > n, "q>n required"), (r <= n - m, "r<=n-m required")
    fp1 = _hypotheses([(fam.ctx.p > 2, "p>2 required"), q_big,
                       (r >= 3, "3<=r required"), r_cap])
    fp2 = _hypotheses([q_big, (r >= m + 2, "m+2<=r required"), r_cap])
    return q, q ** max(-e, 0), n * (n - 1) * num, (
        ("fp1", *fp1, 2 * d * delta * num, 19 * dd * num),
        ("fp2", *fp2, 0, 21 * dd * d * num))


def _bound_report(fam, pattern, k):
    q, den, plain, bounds = bound_terms(fam)
    tag, ok, reason, a, b = bounds[k]
    w = pattern_stats(pattern).weight
    return BoundReport(tag, ok, reason, Fraction(a, w * den),
                       Fraction(b + plain * w, w * den), q)


def bound_fp1(fam: LinearFamily, pattern: Pattern) -> BoundReport:
    """The square-root deviation bound for general linear families.

    Value: q^(n-m-1) * (2 T D delta * q^(1/2) + 19 T D^2 delta^2 + n(n-1))
    with T the pattern proportion, delta the pivot product and D the
    pivot excess.  Requires p > 2, q > n and 3 <= r <= n - m.
    """
    return _bound_report(fam, pattern, 0)


def bound_fp2(fam: LinearFamily, pattern: Pattern) -> BoundReport:
    """The characteristic-free deviation bound (no square-root term).

    Value: q^(n-m-1) * (21 T D^3 delta^2 + n(n-1)); requires q > n and
    m + 2 <= r <= n - m, with no restriction on the characteristic.
    """
    return _bound_report(fam, pattern, 1)


def bound_nonsquarefree(fam: LinearFamily):
    """Upper bound n(n-1) q^(n-m-1) for the non-square-free members."""
    n, m, q = fam.n, fam.m, fam.q
    val = Fraction(n * (n - 1)) * Fraction(q) ** (n - m - 1)
    return int(val) if val.denominator == 1 else val


@dataclass(frozen=True)
class ReferenceBound:
    """Coefficients of the classical complete-intersection point-count bound
    (delta (D-2) + 2) q^(n-l-1/2) + 14 D^2 delta^2 q^(n-l-1), kept symbolic
    in q; used only as a cross-reference annotation in reports."""

    n: int
    l: int
    multidegree: tuple
    sqrt_coeff: int     # multiplies q^(n-l-1/2)
    plain_coeff: int    # multiplies q^(n-l-1)


def bound_reference_ci(n: int, l: int, multidegree) -> ReferenceBound:
    multidegree = tuple(multidegree)
    if len(multidegree) != l:
        raise ValueError("one degree per defining equation required")
    if any(d < 1 for d in multidegree):
        raise ValueError("degrees must be >= 1")
    delta = 1
    for d in multidegree:
        delta *= d
    big_d = sum(d - 1 for d in multidegree)
    return ReferenceBound(n, l, multidegree,
                          delta * (big_d - 2) + 2,
                          14 * big_d ** 2 * delta ** 2)
