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

Both are read from one scan, rational_zeros: the root values of a window
depend only on its own coordinates, so for each window size below n the
embedded root values of all q^i window vectors are tabled once per call
(a window of size n is streamed), and the walk over F_q^n, window by
window in product order, carries E_1..E_(n-r) of the outer windows'
roots as a prefix.  run_verify takes the counts and the probe from a
single pass (variety_pass); count_points and jacobian_probe read the
same scan.  eval_R, g_coeffs and _root_values stay as the per-point
oracles.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from functools import partial
from itertools import product
from math import lcm

from .correspondence import SCAN_BUDGET, _check_budget, _orbit, layout
from .errors import CountingIdentityError, GaloisDescentError
from .family import LinearFamily, pattern_tally
from .ffield import mat_rank
from .patterns import Pattern, pattern_stats

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
    common: object            # ExtCtx of degree lcm(active window sizes)
    windows: tuple            # ((start, size, embedded A rows), ...)
    terms: tuple              # per row j: ((k, coeff), ...) nonzero entries
    salpha: tuple
    nr: int                   # n - r, number of symmetric values used
    weight: int               # pattern weight w


def common_degree(pattern: Pattern) -> int:
    """N = lcm of the window sizes: the common layer F_(q^N)."""
    return lcm(*(i for i, c in enumerate(pattern.counts, start=1) if c))


def sym_system(fam: LinearFamily, pattern: Pattern, bank) -> SymSystem:
    """Precompute the embedded window matrices and the reduced row data."""
    if pattern.n != fam.n:
        raise ValueError("pattern degree must match the family degree")
    n_common = common_degree(pattern)
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
    y = []
    for start, size, rows in sys_.windows:
        y += _orbit(sys_.common, rows, x[start:start + size])
    return y


def _check_descent(e, q):
    for t in range(1, len(e)):
        if e[t] >= q:
            raise GaloisDescentError(
                f"symmetric value E_{t} = {e[t]} did not descend to F_q")


def _esym_prefix(sys_: SymSystem, y, upto):
    """E_1..E_upto of y in the common layer, with descent check."""
    e = _absorb(sys_.common, [1] + [0] * upto, y)
    _check_descent(e, sys_.common.q)
    return e


def _residues(sys_: SymSystem, e):
    """R_j = alpha'_j + sum_k c'_(j,k) E_k for each reduced row j."""
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


def eval_R(sys_: SymSystem, x):
    """The m reduced constraint values at x, as base-field codes.

    Zero everywhere iff the polynomial built from x lies in the family.
    Raises GaloisDescentError if a symmetric value fails to be
    Frobenius-fixed (corrupted normal-basis data).  The per-point oracle
    for rational_zeros.
    """
    return _residues(sys_, _esym_prefix(sys_, _root_values(sys_, x), sys_.nr))


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


def _root_entries(K, rows, q, size, table):
    """(coordinates, embedded root values) of every window vector of this
    size in product order, read from the flat table or, when it is None,
    computed as _root_values does."""
    vectors = product(range(q), repeat=size)
    if table is None:
        return ((c, _orbit(K, rows, c)) for c in vectors)
    return ((c, table[t * size:(t + 1) * size]) for t, c in enumerate(vectors))


def _walk_zeros(sys_, levels, w, xs, ys, prefix):
    """The zeros below window w: levels[w]() yields that window's
    entries; xs, ys and prefix = E_0..E_nr belong to the outer windows."""
    common = sys_.common
    last = w == len(levels) - 1
    for coords, roots in levels[w]():
        e = _absorb(common, list(prefix), roots)
        if not last:
            yield from _walk_zeros(sys_, levels, w + 1, xs + coords,
                                   ys + list(roots), e)
            continue
        _check_descent(e, common.q)
        if not any(_residues(sys_, e)):
            yield xs + coords, ys + list(roots), e


def rational_zeros(sys_: SymSystem, budget: int = SCAN_BUDGET):
    """Every rational zero x of R, in product order, as (x, y, e): the
    root values y (as _root_values gives them) and e = E_0..E_(n-r) of y.

    The root values of a window depend only on its own coordinates.  So
    for each window size below n the embedded root values of all q^i
    window vectors are computed once per call into a flat table; a window
    of size n (the pattern n) is streamed.  The walk nests one loop per
    window in layout order, which is product order, and carries E_0..E_nr
    of the outer windows' roots as a prefix, so each window's roots are
    absorbed once per prefix.  At every x the E values are checked to
    descend to F_q (GaloisDescentError otherwise) and R is evaluated once.
    """
    q, n = sys_.fam.q, sys_.fam.n
    _check_budget(q ** n, budget)
    common = sys_.common
    tables = {}
    levels = []
    for _, size, rows in sys_.windows:
        if size < n and size not in tables:
            tab = array("q")
            for coords in product(range(q), repeat=size):
                tab.extend(_orbit(common, rows, coords))
            tables[size] = tab
        levels.append(partial(_root_entries, common, rows, q, size,
                              tables.get(size)))
    return _walk_zeros(sys_, levels, 0, (), [], [1] + [0] * sys_.nr)


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
    for _, y, _ in rational_zeros(sys_, budget):
        v_total += 1
        v_eq += len(set(y)) != len(y)
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


def _double_collision(y) -> bool:
    """Some value occurs four times, or two distinct values repeat."""
    mult: dict[int, int] = {}
    for v in y:
        mult[v] = mult.get(v, 0) + 1
    repeated = [c for c in mult.values() if c >= 2]
    return any(c >= 4 for c in repeated) or len(repeated) >= 2


def _rank_deficient(sys_: SymSystem, y, e) -> bool:
    """True iff the Jacobian of R in the root coordinates has rank below
    m at a zero with root values y and symmetric values e."""
    common = sys_.common
    csub, cmul, cadd = common.sub, common.mul, common.add
    # Jacobian column for coordinate l: entries sum_k c_(j,k) E_(k-1)
    # of the values with y_l omitted; the omitted-value prefix comes
    # from the downward recurrence E~_t = E_t - y_l E~_(t-1).
    jac_cols = []
    for yl in y:
        omit = [1]
        prev = 1
        for t in range(1, sys_.nr):
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
    m = sys_.fam.m
    jac_rows = [[col[j] for col in jac_cols] for j in range(m)]
    return mat_rank(common, jac_rows) < m


class _Probe:
    """The Jacobian probe's tallies, fed one rational zero at a time."""

    def __init__(self, sys_: SymSystem, max_recorded: int):
        self.sys_ = sys_
        self.max_recorded = max_recorded
        self.points = self.deficient = self.confirmed = self.violations = 0
        self.bad = []

    def add(self, x, y, e):
        self.points += 1
        if not _rank_deficient(self.sys_, y, e):
            return
        self.deficient += 1
        if _double_collision(y):
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
    """Scan the rational zeros of R; wherever the Jacobian in the root
    coordinates drops below full rank, check the double-collision
    condition on the root values.  Points violating it are recorded as
    counterexamples (none are expected for p > 2)."""
    probe = _Probe(sys_, max_recorded)
    for x, y, e in rational_zeros(sys_, budget):
        probe.add(x, y, e)
    return probe.report()


def variety_pass(sys_: SymSystem, budget: int = SCAN_BUDGET,
                 member_tally=None):
    """count_points and jacobian_probe from one scan of the rational
    zeros: (PointCounts, ProbeReport).  The counting identity is not
    enforced here; see identity_failure."""
    probe = _Probe(sys_, MAX_RECORDED)
    v_eq = 0
    for x, y, e in rational_zeros(sys_, budget):
        probe.add(x, y, e)
        v_eq += len(set(y)) != len(y)
    return _point_counts(sys_, probe.points, v_eq, member_tally), probe.report()
