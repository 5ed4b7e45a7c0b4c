"""The symmetric variety cut out by a family's constraints, and its scans.

For a pattern of degree n and a family with reduced rows S_j, substitute
the elementary symmetric functions of the root forms: each constraint
becomes R_j(x) = alpha'_j + sum_k c'_(j,k) E_k(Y(x)), a polynomial of
degree i_j (the pivot) in the coordinates x.  Each window's Galois orbit
is taken in its own layer F_(q^i), where its E values are formed and
checked to descend to F_q; across windows everything is over F_q, as
the truncated reversed polynomial sum_t E_t X^t of all the roots is the
product of the windows' ones.

Two exact facts drive the verification:

* counting: w * (number of square-free family members with the pattern)
  equals the number of rational zeros of R with pairwise distinct root
  values (G(x) square-free), where w is the pattern weight;
* smoothness probe: wherever the Jacobian of R in x drops rank at a
  rational zero, the root values must collide doubly (one value four
  times over, or two values each repeated).  For p = 2 the probe is
  informational.

Both are read from one scan, rational_zeros: for each window size below
n the E values of all q^i window vectors are tabled once per call (a
window of size n is streamed), and the walk over F_q^n, window by window
in product order, carries the product of the outer windows' E values as
a prefix.  run_verify takes the counts and the probe from a single pass
(variety_pass); count_points and jacobian_probe read the same scan.
eval_R and g_coeffs stay as the per-point oracles.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from functools import partial
from itertools import product

from .correspondence import SCAN_BUDGET, _check_budget, _orbit, layout
from .errors import CountingIdentityError, GaloisDescentError
from .family import LinearFamily, pattern_tally
from .ffield import mat_rank
from .patterns import Pattern, pattern_stats
from .poly import MonicPoly, squarefree_decompose

# how many violating vectors the Jacobian probe records by default
MAX_RECORDED = 10


def _absorb(K, e, ys):
    """Absorb the values ys into e in place and return it: if e[t] held
    E_t of some values (t = 0 .. len(e) - 1, e[0] = 1), it then holds E_t
    of those values and ys.  The one E_k recurrence of the package."""
    add, mul = K.add, K.mul
    top = len(e) - 1
    for y in ys:
        for t in range(top, 0, -1):
            e[t] = add(e[t], mul(y, e[t - 1]))
    return e


def elementary_symmetric(K, k: int, ys) -> int:
    """E_k of the given values over the scalar context K, exactly."""
    ys = list(ys)
    if k < 0 or k > len(ys):
        raise ValueError("k must be in 0..len(ys)")
    return _absorb(K, [1] + [0] * k, ys)[k]


@dataclass
class SymSystem:
    fam: LinearFamily
    pattern: Pattern
    windows: tuple            # ((start, size, layer F_(q^size)), ...)
    terms: tuple              # per row j: ((k, coeff), ...) nonzero entries
    nr: int                   # n - r, number of symmetric values used
    weight: int               # pattern weight w


def sym_system(fam: LinearFamily, pattern: Pattern, bank) -> SymSystem:
    """The window layers (with their fast tables) and the reduced row data."""
    if pattern.n != fam.n:
        raise ValueError("pattern degree must match the family degree")
    windows = []
    for size, start in layout(pattern).windows:
        ctx = bank.get(size)
        ctx.ensure_fast()
        windows.append((start, size, ctx))
    terms = tuple(tuple((k + 1, c) for k, c in enumerate(srow) if c)
                  for srow in fam.srows)
    return SymSystem(fam, pattern, tuple(windows), terms, fam.n - fam.r,
                     pattern_stats(pattern).weight)


def _window_esym(ctx, coords, upto):
    """E_0..E_upto of one window's Galois orbit, formed in its layer
    F_(q^i) and checked to descend to F_q."""
    e = _absorb(ctx, [1] + [0] * upto, _orbit(ctx, ctx.A, coords))
    for t in range(1, upto + 1):
        if e[t] >= ctx.q:
            raise GaloisDescentError(
                f"symmetric value E_{t} = {e[t]} did not descend to F_q")
    return e


def _times(K, a, b):
    """The product of two truncated reversed polynomials over F_q
    (a[0] = b[0] = 1), to the length of a: the E values of the union of
    two root multisets."""
    add, mul = K.add, K.mul
    out = list(a)
    for t in range(1, len(a)):
        for u in range(t):
            if a[u] and b[t - u]:
                out[t] = add(out[t], mul(a[u], b[t - u]))
    return out


def _esym(sys_: SymSystem, x, upto):
    """E_0..E_upto of all root values of x, window by window."""
    K = sys_.fam.ctx
    e = [1] + [0] * upto
    for start, size, ctx in sys_.windows:
        e = _times(K, e, _window_esym(ctx, x[start:start + size], upto))
    return e


def _residues(sys_: SymSystem, e):
    """R_j = alpha'_j + sum_k c'_(j,k) E_k for each reduced row j."""
    K = sys_.fam.ctx
    badd, bmul = K.add, K.mul
    out = []
    for a, tm in zip(sys_.fam.salpha, sys_.terms):
        acc = a
        for k, c in tm:
            ek = e[k]
            if ek:
                acc = badd(acc, bmul(c, ek))
        out.append(acc)
    return tuple(out)


def eval_R(sys_: SymSystem, x):
    """The m reduced constraint values at x, as base-field codes.

    Zero everywhere iff the polynomial built from x lies in the family.
    Raises GaloisDescentError if a window's symmetric value fails to be
    Frobenius-fixed (corrupted normal-basis data).  The per-point oracle
    for rational_zeros.
    """
    return _residues(sys_, _esym(sys_, x, sys_.nr))


def g_coeffs(sys_: SymSystem, x):
    """Full coefficient list of the degree-n image of x, via the
    symmetric route: c_(n-k) = (-1)^k E_k.  Cross-checks build_G."""
    K, n = sys_.fam.ctx, sys_.fam.n
    e = _esym(sys_, x, n)
    return [K.neg(e[n - j]) if (n - j) % 2 else e[n - j]
            for j in range(n)] + [1]


def _window_entries(ctx, nr, table):
    """(coordinates, E_0..E_nr) of every window vector of the layer in
    product order, from the flat table or, if it is None, computed."""
    step = nr + 1
    vectors = product(range(ctx.q), repeat=ctx.i)
    if table is None:
        return ((c, _window_esym(ctx, c, nr)) for c in vectors)
    return ((c, table[t * step:(t + 1) * step]) for t, c in enumerate(vectors))


def _walk_zeros(sys_, levels, w, xs, prefix):
    """The zeros below window w: levels[w]() yields that window's
    entries; xs and prefix = E_0..E_nr belong to the outer windows."""
    K = sys_.fam.ctx
    last = w == len(levels) - 1
    for coords, ew in levels[w]():
        e = _times(K, prefix, ew)
        if not last:
            yield from _walk_zeros(sys_, levels, w + 1, xs + coords, e)
        elif not any(_residues(sys_, e)):
            yield xs + coords, e


def rational_zeros(sys_: SymSystem, budget: int = SCAN_BUDGET):
    """Every rational zero x of R, in product order, as (x, e) with
    e = E_0..E_(n-r) of the root values of x (as eval_R forms them).

    For each window size below n the E values of all q^i window vectors
    are formed once per call into a flat table; a window of size n is
    streamed.  The walk nests one loop per window in layout order, which
    is product order, so each x costs one truncated product over F_q.
    """
    q, n = sys_.fam.q, sys_.fam.n
    _check_budget(q ** n, budget)
    nr = sys_.nr
    tables = {}
    levels = []
    for _, size, ctx in sys_.windows:
        if size < n and size not in tables:
            tab = array("q")
            for coords in product(range(q), repeat=size):
                tab.extend(_window_esym(ctx, coords, nr))
            tables[size] = tab
        levels.append(partial(_window_entries, ctx, nr, tables.get(size)))
    return _walk_zeros(sys_, levels, 0, (), [1] + [0] * nr)


def _coincident(sys_: SymSystem, x) -> bool:
    """True iff two root values of x coincide (G(x) is not square-free):
    a window's element has a short Galois orbit (its coordinates repeat
    under a cyclic shift), or two windows of one size hold conjugate
    elements (their coordinates are cyclic shifts of each other)."""
    seen = set()
    for start, size, _ in sys_.windows:
        win = x[start:start + size]
        shifts = {win[k:] + win[:k] for k in range(size)}
        if len(shifts) < size or not seen.isdisjoint(shifts):
            return True
        seen |= shifts
    return False


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


def _point_counts(sys_, v_total, v_eq, member_tally) -> PointCounts:
    if member_tally is None:
        member_tally = pattern_tally(sys_.fam)
    cnt, sq = member_tally.get(sys_.pattern.counts, (0, 0))
    return PointCounts(v_total, v_eq, v_total - v_eq, sq, cnt - sq, sys_.weight)


def identity_failure(counts: PointCounts, pattern: Pattern):
    """None if w * a_sq == v_neq, else what CountingIdentityError says."""
    if counts.identity_holds:
        return None
    return (f"w*a_sq = {counts.weight * counts.a_sq} != v_neq = {counts.v_neq} "
            f"for pattern {pattern.label()}")


def count_points(sys_: SymSystem, budget: int = SCAN_BUDGET,
                 member_tally=None) -> PointCounts:
    """Exhaustive point count of the variety, split by root coincidence,
    against the independent member census for the same pattern.

    Raises CountingIdentityError if w * a_sq != v_neq; that identity has
    no tolerance.
    """
    v_total = v_eq = 0
    for x, _ in rational_zeros(sys_, budget):
        v_total += 1
        v_eq += _coincident(sys_, x)
    counts = _point_counts(sys_, v_total, v_eq, member_tally)
    failure = identity_failure(counts, sys_.pattern)
    if failure is not None:
        raise CountingIdentityError(failure)
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


def _double_collision(sys_: SymSystem, x) -> bool:
    """Some root value occurs four times, or two distinct values repeat,
    read from the square-free decomposition G(x) = prod g_k^k: some g_k
    with k >= 4 is not constant, or the g_k with k >= 2 have total
    degree at least 2."""
    parts = squarefree_decompose(MonicPoly.from_full(sys_.fam.ctx,
                                                     g_coeffs(sys_, x)))
    return (any(k >= 4 for _, k in parts)
            or sum(f.degree for f, k in parts if k >= 2) >= 2)


def _jacobian(sys_: SymSystem, x, e):
    """Rows over F_q with the rank of the Jacobian of R in x, at a zero x
    with symmetric values e.

    dR_j/dx_h for coordinate h of window w is Tr(theta^(q^h) v_j), where
    v_j = sum_k c'_(j,k) E_(k-1)(y - alpha) in the window's layer, with
    alpha the window's element (E~_t = E_t - alpha E~_(t-1) drops it).
    The trace pairing is non-degenerate, so the digits of v_j, which
    differ from those entries by an invertible map per window, give the
    same rank.
    """
    rows = [[] for _ in sys_.terms]
    minus_one = sys_.fam.ctx.neg(1)     # the same code in every layer
    for start, size, ctx in sys_.windows:
        add, mul = ctx.add, ctx.mul
        alpha = _orbit(ctx, ctx.A[:1], x[start:start + size])[0]
        neg_alpha = mul(minus_one, alpha)
        omit = [1]
        for t in range(1, sys_.nr):
            omit.append(add(e[t], mul(neg_alpha, omit[-1])))
        for row, tm in zip(rows, sys_.terms):
            v = 0
            for k, c in tm:
                if omit[k - 1]:
                    v = add(v, mul(c, omit[k - 1]))
            row.extend(ctx.to_vec(v))
    return rows


class _Probe:
    """The Jacobian probe's tallies, fed one rational zero at a time."""

    def __init__(self, sys_: SymSystem, max_recorded: int):
        self.sys_ = sys_
        self.max_recorded = max_recorded
        self.points = self.deficient = self.confirmed = self.violations = 0
        self.bad = []

    def add(self, x, e):
        self.points += 1
        sys_ = self.sys_
        if mat_rank(sys_.fam.ctx, _jacobian(sys_, x, e)) == sys_.fam.m:
            return
        self.deficient += 1
        if _double_collision(sys_, x):
            self.confirmed += 1
        else:
            self.violations += 1
            if len(self.bad) < self.max_recorded:
                self.bad.append(tuple(x))

    def report(self) -> ProbeReport:
        scope = "p>2" if self.sys_.fam.ctx.p > 2 else "informational (p=2)"
        return ProbeReport(scope, self.points, self.deficient, self.confirmed,
                           self.violations, tuple(self.bad))


def jacobian_probe(sys_: SymSystem, budget: int = SCAN_BUDGET,
                   max_recorded: int = MAX_RECORDED) -> ProbeReport:
    """Scan the rational zeros of R; wherever the Jacobian in x drops
    below full rank, check the double-collision condition on the root
    values.  Points violating it are recorded as counterexamples (none
    are expected for p > 2)."""
    probe = _Probe(sys_, max_recorded)
    for x, e in rational_zeros(sys_, budget):
        probe.add(x, e)
    return probe.report()


def variety_pass(sys_: SymSystem, budget: int = SCAN_BUDGET,
                 member_tally=None):
    """count_points and jacobian_probe from one scan of the rational
    zeros: (PointCounts, ProbeReport).  The counting identity is not
    enforced here; see identity_failure."""
    probe = _Probe(sys_, MAX_RECORDED)
    v_eq = 0
    for x, e in rational_zeros(sys_, budget):
        probe.add(x, e)
        v_eq += _coincident(sys_, x)
    return _point_counts(sys_, probe.points, v_eq, member_tally), probe.report()
