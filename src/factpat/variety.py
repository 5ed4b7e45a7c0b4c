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

Both are read from one walk, variety_pass, whatever the verify sections
(count_points and jacobian_probe are its two halves).  R depends on x
only through the depth-(n - r) window of G(x), whose digits are the
signed E_1..E_(n-r), so R is evaluated once per window index, and the
walk at that depth yields only the x whose window is a zero, the
rational zeros, and does no work per vector for the others.  Each
scan's budget defaults to the run's, family.MEMBER_BUDGET.  The walk's
typed flag already says whether some window's orbit is short, so the
coincidence check compares only windows of one size, if any, keeping
the shifts of the windows before the last while they repeat.  The probe
reduces the Jacobian's columns, kept while a window's coordinates
repeat, one at a time against the pivots found so far and stops at full
rank.
eval_R and g_coeffs stay as the per-point oracles, and zero_block, the
membership check's oracle, gives R's zero flags of every last-window
vector under one prefix of the outer windows.  They read nothing of the
walk.  Window values below size n are kept in the plan
(correspondence.Plan), R is formed once per E_0..E_(n-r), and the last
window's orbits are listed once per system as one span of the columns
of its conjugate matrix (ffield._span); the windows' products are formed
per call, zero_block's prefix product (_prefix_esym) once per block.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .correspondence import Plan, _orbit, _window_esym, layout, walk_G
from .errors import CountingIdentityError
from .family import LinearFamily, MEMBER_BUDGET, pattern_tally
from .ffield import _span, _to_vec
from .patterns import Pattern, pattern_stats
from .poly import squarefree_decompose

# how many violating vectors the Jacobian probe records
MAX_RECORDED = 10


@dataclass
class SymSystem:
    fam: LinearFamily
    pattern: Pattern
    bank: Plan                # the run's window layers and stores
    windows: tuple            # ((start, size, layer F_(q^size)), ...)
    terms: tuple              # per row j: ((k, coeff), ...) nonzero entries
    nr: int                   # n - r, number of symmetric values used
    weight: int               # pattern weight w
    distinct: bool            # no two windows of one size
    residues: dict = field(default_factory=dict)  # E_0..E_(n-r) -> R
    columns: dict = field(default_factory=dict)   # w -> (coords, {e: cols})
    shifts: list = field(default_factory=list)    # _coincident's, per window
    last: tuple = ()          # zero_block's last-window values, distinct


def sym_system(fam: LinearFamily, pattern: Pattern, bank) -> SymSystem:
    """The window layers (with their fast tables) and the reduced row data."""
    if pattern.n != fam.n:
        raise ValueError("pattern degree must match the family degree")
    bank = bank if isinstance(bank, Plan) else Plan(bank)
    windows = []
    for size, start in layout(pattern):
        ctx = bank.get(size)
        ctx.ensure_fast()
        windows.append((start, size, ctx))
    terms = tuple(tuple((k + 1, c) for k, c in enumerate(srow) if c)
                  for srow in fam.srows)
    return SymSystem(fam, pattern, bank, tuple(windows), terms, fam.n - fam.r,
                     pattern_stats(pattern).weight,
                     len(set(pattern.sizes())) == len(windows))


def _window_values(sys_: SymSystem, ctx, coords, upto):
    """E_0..E_upto of one window's orbit, descent-checked; kept in the
    plan below size n, where windows repeat across x and patterns."""
    kept = sys_.bank.values
    values = kept.get((coords, upto))
    if values is None:
        values = _window_esym(ctx, _orbit(ctx, ctx.A, coords), upto)
        if ctx.i < sys_.fam.n:
            kept[coords, upto] = values
    return values


def _times(K, a, b):
    """The product of two E_0..E_upto tuples mod X^(upto+1)."""
    e = list(a)
    for t in range(1, len(b)):
        if b[t]:
            for u in range(t, len(b)):
                e[u] = K.add(e[u], K.mul(b[t], a[u - t]))
    return tuple(e)


def _prefix_esym(sys_: SymSystem, xs, upto):
    """The product mod X^(upto+1) of the E_0..E_upto of the windows before
    the last, whose coordinates are the prefix xs."""
    e = (1,) + (0,) * upto
    for s, i, c in sys_.windows[:-1]:
        e = _times(sys_.fam.ctx, e, _window_values(sys_, c, xs[s:s + i], upto))
    return e


def _esym(sys_: SymSystem, x, upto):
    """E_0..E_upto of all root values of x, the windows' product mod
    X^(upto+1)."""
    x = tuple(x)
    start, _, ctx = sys_.windows[-1]
    return _times(sys_.fam.ctx, _prefix_esym(sys_, x[:start], upto),
                  _window_values(sys_, ctx, x[start:], upto))


def _residues(sys_: SymSystem, e):
    """R_j = alpha'_j + sum_k c'_(j,k) E_k for each reduced row j, formed
    once per distinct E_0..E_(n-r) (at most q^(n-r))."""
    out = sys_.residues.get(e)
    if out is None:
        K, out = sys_.fam.ctx, []
        for a, tm in zip(sys_.fam.salpha, sys_.terms):
            for k, c in tm:
                a = K.add(a, K.mul(c, e[k]))
            out.append(a)
        out = sys_.residues[e] = tuple(out)
    return out


def eval_R(sys_: SymSystem, x):
    """The m reduced constraint values at x, as base-field codes.

    Zero everywhere iff the polynomial built from x lies in the family.
    Raises GaloisDescentError if a window's symmetric value fails to be
    Frobenius-fixed (corrupted normal-basis data).  The per-point oracle
    that tests hold zero_block and the variety's zeros to.
    """
    return _residues(sys_, _esym(sys_, x, sys_.nr))


def zero_block(sys_: SymSystem, prefix) -> bytes:
    """The block form of eval_R: per vector v of the last window, in
    product order, 1 iff R vanishes at x = prefix + v, with prefix the
    coordinates of the windows before it.  The last window's values are
    listed once per system, from one span of the columns of its conjugate
    matrix and each descent-checked, the prefix's product formed once and
    its product with each distinct last-window value once."""
    _, size, ctx = sys_.windows[-1]
    if not sys_.last:
        values = [_window_esym(ctx, orbit, sys_.nr) for orbit in _span(
            list(zip(*ctx.A)), size, ctx.q, ctx.add, ctx.mul)]
        sys_.last = values, tuple(dict.fromkeys(values))
    values, distinct = sys_.last
    e = _prefix_esym(sys_, tuple(prefix), sys_.nr)
    flags = {ew: not any(_residues(sys_, _times(sys_.fam.ctx, e, ew)))
             for ew in distinct}
    return bytes(map(flags.__getitem__, values))


def g_coeffs(sys_: SymSystem, x):
    """Full coefficient list of the degree-n image of x, via the
    symmetric route: c_(n-k) = (-1)^k E_k.  Cross-checks build_G."""
    K, n = sys_.fam.ctx, sys_.fam.n
    e = _esym(sys_, x, n)
    return [K.neg(e[n - j]) if (n - j) % 2 else e[n - j]
            for j in range(n)] + [1]


def _zero_windows(sys_: SymSystem):
    """{w: E_0..E_(n-r)} over the depth-(n - r) windows w (their digits
    are (-1)^t E_t) where R vanishes."""
    K, nr = sys_.fam.ctx, sys_.nr
    zeros = {}
    for w in range(K.q ** nr):
        e = (1, *[K.neg(c) if t % 2 else c
                  for t, c in enumerate(_to_vec(w, K.q, nr), start=1)])
        if not any(_residues(sys_, e)):
            zeros[w] = e
    return zeros


def _zero_walk(sys_: SymSystem, budget: int):
    """(walk, zeros): the walk at depth n - r that passes only the x whose
    window is a zero of R, and those zeros (see _zero_windows)."""
    flags = bytearray(sys_.fam.q ** sys_.nr)
    # the walk checks its budget now and reads the flags only when iterated
    scan = walk_G(sys_.pattern, sys_.bank, sys_.nr, flags, budget)
    zeros = _zero_windows(sys_)
    for w in zeros:
        flags[w] = 1
    return scan, zeros


def rational_zeros(sys_: SymSystem, budget: int = MEMBER_BUDGET):
    """Every rational zero x of R, in product order, as (x, e) with
    e = E_0..E_(n-r) of the root values of x (as eval_R forms them),
    read off the depth-(n - r) walk that passes only the zeros."""
    scan, zeros = _zero_walk(sys_, budget)
    return ((x, zeros[w]) for x, _, w in scan)


def _coincident(sys_: SymSystem, x, typed) -> bool:
    """True iff two root values of x coincide (G(x) is not square-free):
    x is untyped (a window's element has a short Galois orbit), or two
    windows of one size hold conjugate elements (their coordinates are
    cyclic shifts of each other; never where the sizes are distinct).
    The shifts of the windows before the last are kept (SymSystem.shifts)
    per window with its coordinates, each with those of the windows
    before it, or None once two of them are conjugate, and dropped from
    the first window whose coordinates change."""
    if sys_.distinct or not typed:
        return not typed
    held = sys_.shifts
    seen = frozenset()
    *lead, (start, size, _) = sys_.windows
    for j, (s, i, _) in enumerate(lead):
        win = x[s:s + i]
        if j < len(held) and held[j][0] == win:
            seen = held[j][1]
        else:
            del held[j:]
            if win in seen:
                seen = None
            else:
                seen = seen.union(win[k:] + win[:k] for k in range(i))
            held.append((win, seen))
        if seen is None:
            return True
    return x[start:start + size] in seen


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


def identity_failure(counts: PointCounts, pattern: Pattern):
    """None if w * a_sq == v_neq, else what CountingIdentityError says."""
    if counts.identity_holds:
        return None
    return (f"w*a_sq = {counts.weight * counts.a_sq} != v_neq = {counts.v_neq} "
            f"for pattern {pattern.label()}")


def count_points(sys_: SymSystem, budget: int = MEMBER_BUDGET,
                 member_tally=None) -> PointCounts:
    """Exhaustive point count of the variety, split by root coincidence,
    against the independent member census for the same pattern.

    Raises CountingIdentityError if w * a_sq != v_neq; that identity has
    no tolerance.
    """
    counts, _ = variety_pass(sys_, budget, member_tally)
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
    counterexamples: tuple     # up to MAX_RECORDED of the violating vectors

    @property
    def ok(self) -> bool:
        return self.violations == 0


def _double_collision(sys_: SymSystem, x) -> bool:
    """Some root value occurs four times, or two distinct values repeat,
    read from the square-free decomposition G(x) = prod g_k^k: some g_k
    with k >= 4 is not constant, or the g_k with k >= 2 have total
    degree at least 2."""
    parts = squarefree_decompose(sys_.fam.ctx, g_coeffs(sys_, x))
    return (any(k >= 4 for _, k in parts)
            or sum(len(g) - 1 for g, k in parts if k >= 2) >= 2)


def _full_rank(sys_: SymSystem, x, e) -> bool:
    """True iff the Jacobian of R in x has rank m at the zero x with
    symmetric values e, read one column at a time.

    dR_j/dx_h for coordinate h of window w is Tr(theta^(q^h) v_j), where
    v_j = sum_k c'_(j,k) E_(k-1)(y - alpha) in the window's layer, with
    alpha the window's element (E~_t = E_t - alpha E~_(t-1) drops it).
    The trace pairing is non-degenerate, so the digits of v_j, which
    differ from those entries by an invertible map per window, give the
    same rank, column rank being row rank.  Each digit column is reduced
    by the pivots in the order found; a nonzero rest, scaled to 1 at its
    first nonzero entry, is a new pivot.
    """
    K, m = sys_.fam.ctx, sys_.fam.m
    bsub, bmul = K.sub, K.mul
    basis = []                          # (pivot, column with a 1 there)
    for w, (start, size, ctx) in enumerate(sys_.windows):
        coords = tuple(x[start:start + size])
        held = sys_.columns.get(w)
        if held is None or held[0] != coords:
            held = sys_.columns[w] = (coords, {})
        if e not in held[1]:
            held[1][e] = _digit_columns(sys_, ctx, coords, e)
        for col in held[1][e]:
            for p, piv in basis:
                if col[p]:
                    col = [bsub(a, bmul(col[p], b)) for a, b in zip(col, piv)]
            for p, a in enumerate(col):
                if a:
                    if len(basis) == m - 1:     # the m-th pivot
                        return True
                    inv = K.inv(a)
                    basis.append((p, [bmul(inv, b) for b in col]))
                    break
    return False


def _digit_columns(sys_: SymSystem, ctx, coords, e):
    """One window's Jacobian columns at a zero with symmetric values e,
    digit h of each v_j (see _full_rank)."""
    neg_alpha = ctx.neg(_orbit(ctx, ctx.A[:1], coords)[0])
    omit = [1]
    for t in range(1, sys_.nr):
        omit.append(ctx.add(e[t], ctx.mul(neg_alpha, omit[-1])))
    return tuple(zip(*map(ctx.to_vec, _orbit(ctx, sys_.fam.srows, omit))))


def jacobian_probe(sys_: SymSystem,
                   budget: int = MEMBER_BUDGET) -> ProbeReport:
    """Scan the rational zeros of R; wherever the Jacobian in x drops
    below full rank, check the double-collision condition on the root
    values.  Points violating it are recorded as counterexamples (none
    are expected for p > 2).  The probe reads no member census, so an
    empty tally stands in for it."""
    return variety_pass(sys_, budget, {})[1]


def variety_pass(sys_: SymSystem, budget: int = MEMBER_BUDGET,
                 member_tally=None):
    """count_points and jacobian_probe from one walk at depth n - r that
    passes only the rational zeros: (PointCounts, ProbeReport).  Every
    verify section choice reads its variety rows from here.  The counting
    identity is not enforced here; see identity_failure."""
    scan, zeros = _zero_walk(sys_, budget)
    points = v_eq = deficient = confirmed = 0
    bad = []
    for x, typed, w in scan:
        points += 1
        v_eq += _coincident(sys_, x, typed)
        if _full_rank(sys_, x, zeros[w]):
            continue
        deficient += 1
        if _double_collision(sys_, x):
            confirmed += 1
        elif len(bad) < MAX_RECORDED:
            bad.append(x)
    if member_tally is None:
        member_tally = pattern_tally(sys_.fam)
    cnt, sq = member_tally.get(sys_.pattern.counts, (0, 0))
    scope = "p>2" if sys_.fam.ctx.p > 2 else "informational (p=2)"
    return (PointCounts(points, v_eq, points - v_eq, sq, cnt - sq,
                        sys_.weight),
            ProbeReport(scope, points, deficient, confirmed,
                        deficient - confirmed, tuple(bad)))
