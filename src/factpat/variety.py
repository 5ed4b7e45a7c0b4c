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
walk at that depth (correspondence.walk_blocks) keeps in each block only
the x whose window is a zero, and does no work per vector for the
others.  Each scan's budget defaults to the run's, family.MEMBER_BUDGET.
The untyped zeros are counted off a block's typed flags; where two
windows have one size, _coincident gives per block the cyclic shifts of
the windows before the last, or None where two are conjugate, and a
typed zero coincides iff its last window is among them.  The probe
(_deficient) reduces the Jacobian's columns one at a time against the
pivots found so far, those of the windows before the last once per block
and zero window, and the last window's (forming x) once per zero window
and rotation class of its coordinates, where the others fall short of m.
eval_R stays as the per-point oracle and keeps nothing but R per
E_0..E_(n-r); zero_block, the membership check's oracle, gives R's zero
flags of every last-window vector under one prefix of the outer windows,
read off one listing per window size in the plan (correspondence.Plan),
formed once per class under rotation and F_q^* scaling from two half
spans of the columns of its layer's conjugate matrix (ffield._span),
and kept by the prefix's E_0..E_(n-r), formed from that listing: at most
q^(n-r) blocks per system, as R is kept.  Neither reads the walk.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import accumulate, compress, product, repeat

from .correspondence import (Plan, _window_esym, build_G, layout,
                             walk_blocks, walk_G)
from .errors import CountingIdentityError, GaloisDescentError
from .family import LinearFamily, MEMBER_BUDGET, pattern_tally
from .ffield import _extend, _from_vec, _orbit, _scaled_codes, _span, _to_vec
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
    blocks: dict = field(default_factory=dict)    # prefix's E -> zero flags
    columns: dict = field(default_factory=dict)   # w -> (coords, {e: cols})


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


def _window_values(sys_: SymSystem, ctx):
    """(values, distinct): E_0..E_(n-r) of every vector of one window
    size's coordinates, in product order, and the distinct ones; listed
    once per plan, window size and n - r.  A rotation of the coordinates
    (c -> c q mod (q^i - 1) on codes) maps the element to a conjugate,
    with the same tuple, and scaling them by s in F_q^* scales E_t by
    s^t: one tuple is formed per class, its orbit summed from the spans
    (ffield._span) of the first ceil(i/2) and the last floor(i/2)
    columns of A, descent-checked, and stored, scaled, at every code of
    the class.  An A not circulant raises GaloisDescentError."""
    key = ctx.i, sys_.nr
    held = sys_.bank.values.get(key)
    if held is None:
        A, i, q, K = ctx.A, ctx.i, ctx.q, ctx.base
        if any(row != A[0][t:] + A[0][:t] for t, row in enumerate(A)):
            raise GaloisDescentError("the conjugate matrix is not circulant")
        cols, h, top = list(zip(*A)), (i + 1) // 2, q ** i - 1
        high, low = (_span(half, i, q, ctx.add, ctx.mul)
                     for half in (cols[:h], cols[h:]))
        scalings = [(_scaled_codes(K, [s] * h),
                     _scaled_codes(K, [s] * (i - h)),
                     list(accumulate(repeat(s, sys_.nr), K.mul, initial=1)))
                    for s in range(1, q)]
        values = [None] * (top + 1)
        for c in range(top + 1):
            if values[c] is None:
                a, b = divmod(c, len(low))
                e = _window_esym(ctx, list(map(ctx.add, high[a], low[b])),
                                 sys_.nr)
                for hs, ls, powers in scalings:
                    r = hs[a] * len(low) + ls[b]
                    entry = tuple(map(K.mul, powers, e))
                    while values[r] is None:
                        values[r] = entry
                        r = r * q % top if r < top else r
        held = sys_.bank.values[key] = values, tuple(dict.fromkeys(values))
    return held


def _times(K, a, b):
    """The product of two E_0..E_(n-r) tuples mod X^(n-r+1)."""
    e = list(a)
    for t in range(1, len(b)):
        if b[t]:
            for u in range(t, len(b)):
                e[u] = K.add(e[u], K.mul(b[t], a[u - t]))
    return tuple(e)


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
    R is read off E_0..E_(n-r) of all root values of x, the product of
    the windows' ones mod X^(n-r+1), each window's formed from its orbit
    (ffield._orbit) at every call; nothing is kept but R per E value.
    Raises GaloisDescentError if a window's symmetric value fails to be
    Frobenius-fixed (corrupted normal-basis data).  The per-point oracle
    that tests hold zero_block and the variety's zeros to.
    """
    K, e = sys_.fam.ctx, (1,) + (0,) * sys_.nr
    for s, i, ctx in sys_.windows:
        e = _times(K, e, _window_esym(ctx, _orbit(ctx, ctx.A, x[s:s + i]),
                                      sys_.nr))
    return _residues(sys_, e)


def zero_block(sys_: SymSystem, prefix) -> bytes:
    """The block form of eval_R: per vector v of the last window, in
    product order, 1 iff R vanishes at x = prefix + v, with prefix the
    coordinates of the windows before it.  Every window's E values are
    read from its size's listing in the plan (_window_values), an outer
    window's at its index in product order (first coordinate most
    significant); the block is formed once per product e of the prefix's
    (SymSystem.blocks), from e times each distinct last-window value."""
    K, e = sys_.fam.ctx, (1,) + (0,) * sys_.nr
    for s, i, ctx in sys_.windows[:-1]:
        at = _from_vec(prefix[s:s + i][::-1], ctx.q)
        e = _times(K, e, _window_values(sys_, ctx)[0][at])
    if e not in sys_.blocks:
        values, distinct = _window_values(sys_, sys_.windows[-1][2])
        flags = {ew: not any(_residues(sys_, _times(K, e, ew)))
                 for ew in distinct}
        sys_.blocks[e] = bytes(map(flags.__getitem__, values))
    return sys_.blocks[e]


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


def _zero_walk(sys_: SymSystem, budget: int, walk):
    """(scan, zeros): walk (walk_blocks or walk_G) at depth n - r passing
    only the x whose window is a zero of R, and those zeros (_zero_windows)."""
    flags = bytearray(sys_.fam.q ** sys_.nr)
    # the walk checks its budget now and reads the flags only when iterated
    scan = walk(sys_.pattern, sys_.bank, sys_.nr, flags, budget)
    zeros = _zero_windows(sys_)
    for w in zeros:
        flags[w] = 1
    return scan, zeros


def rational_zeros(sys_: SymSystem, budget: int = MEMBER_BUDGET):
    """Every rational zero x of R, in product order, as (x, e) with
    e = E_0..E_(n-r) of the root values of x (as eval_R forms them),
    read off the depth-(n - r) walk that passes only the zeros."""
    scan, zeros = _zero_walk(sys_, budget, walk_G)
    return ((x, zeros[w]) for x, _, w in scan)


def _coincident(sys_: SymSystem, xs):
    """The cyclic shifts of the coordinates of the windows before the last
    in a block's prefix xs, or None if two of them hold conjugate elements
    (their coordinates are cyclic shifts of each other).  A typed x =
    xs + v has two coinciding root values (G(x) is not square-free) iff
    this is None or holds v: the root values of typed windows of distinct
    sizes never coincide."""
    seen = set()
    for s, i, _ in sys_.windows[:-1]:
        win = xs[s:s + i]
        if win in seen:
            return None
        seen.update(win[k:] + win[:k] for k in range(i))
    return seen


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
    read from the square-free decomposition prod g_k^k of G(x) as
    correspondence.build_G forms it: some g_k with k >= 4 is not
    constant, or the g_k with k >= 2 have total degree at least 2."""
    parts = squarefree_decompose(sys_.fam.ctx,
                                 build_G(sys_.pattern, x, sys_.bank))
    return (any(k >= 4 for _, k in parts)
            or sum(len(g) - 1 for g, k in parts if k >= 2) >= 2)


def _full_rank(sys_: SymSystem, x, e, basis=None, windows=None) -> bool:
    """True iff the Jacobian of R in x has rank m at the zero x with
    symmetric values e, read one column at a time; given basis, which
    they extend, and the windows' indices, iff those windows' columns
    bring the pivots in basis to m.

    dR_j/dx_h for coordinate h of window w is Tr(theta^(q^h) v_j), where
    v_j = sum_k c'_(j,k) E_(k-1)(y - alpha) in the window's layer, with
    alpha the window's element (E~_t = E_t - alpha E~_(t-1) drops it).
    The trace pairing is non-degenerate, so the digits of v_j, which
    differ from those entries by an invertible map per window, give the
    same rank, column rank being row rank.  Each digit column extends
    the pivots in the order found (ffield._extend); the m-th is not
    scaled, as the rank is then m.
    """
    K, m = sys_.fam.ctx, sys_.fam.m
    basis = [] if basis is None else basis  # (pivot, column with a 1 there)
    for w in range(len(sys_.windows)) if windows is None else windows:
        start, size, ctx = sys_.windows[w]
        coords = tuple(x[start:start + size])
        held = sys_.columns.get(w)
        if held is None or held[0] != coords:
            held = sys_.columns[w] = (coords, {})
        if e not in held[1]:
            held[1][e] = _digit_columns(sys_, ctx, coords, e)
        for col in held[1][e]:
            if _extend(K, basis, col, m) and len(basis) == m:
                return True
    return False


def _deficient(sys_: SymSystem, xs, vs, ws, zeros):
    """The zeros x = xs + v of one block (v in vs, windows ws) where the
    Jacobian of R has rank below m, in order: the windows before the last
    reduced once per zero window w, the last only where they fall short,
    once per w and rotation class of v.  A rotation of v maps the last
    window's element to a conjugate, which maps its digit columns by an
    invertible F_q-linear map (see _full_rank), so their span, and the
    rank, are the same."""
    last, bases, ranks = len(sys_.windows) - 1, {}, {}
    for v, w in zip(vs, ws):
        if w not in bases:
            basis = bases[w] = []
            if _full_rank(sys_, xs, zeros[w], basis, range(last)):
                bases[w] = None
        if bases[w] is not None:
            key = w, min(v[k:] + v[:k] for k in range(len(v)))
            if key not in ranks:
                ranks[key] = _full_rank(sys_, xs + v, zeros[w],
                                        list(bases[w]), [last])
            if not ranks[key]:
                yield xs + v


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
    scan, zeros = _zero_walk(sys_, budget, walk_blocks)
    size = sys_.windows[-1][1]
    points = v_eq = deficient = confirmed = 0
    bad = []
    for xs, keep, ts, ws in scan:
        if not ws:
            continue
        points += len(ws)
        v_eq += ts.count(0)
        vs = compress(product(range(sys_.fam.q), repeat=size), keep)
        if not sys_.distinct:
            vs, seen = list(vs), _coincident(sys_, xs)
            v_eq += sum(ts) if seen is None else sum(
                map(seen.__contains__, compress(vs, ts)))
        for x in _deficient(sys_, xs, vs, ws, zeros):
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
