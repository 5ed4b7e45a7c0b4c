"""Correspondence between coordinate vectors and polynomial factorizations.

Fix a pattern for degree n.  The coordinate space F_q^n is tiled by one
window of length i for each part of size i, in increasing size order; the
window starting at offset ell carries the element
alpha = x_ell theta + x_(ell+1) theta^q + ... over F_(q^i), written in
the normal basis of that layer.  Applying the i Galois automorphisms to
alpha gives i root values per window, and

    G(x, T) = prod over windows, prod over sigma (T - sigma(alpha))

is a monic degree-n polynomial with coefficients in F_q.  A vector is
"typed" when each window's translates are pairwise distinct, i.e. alpha
has a full Galois orbit; typed vectors are exactly those whose G realizes
the pattern, and each square-free polynomial with the pattern is hit by
exactly w (the pattern weight) typed vectors.

All scans over F_q^n go through one walk, walk_blocks.  It yields one
block per prefix of the outer windows, in itertools.product order: the
prefix's coordinates, and for the last window's vectors their typed
flags as bytes and the depth-k window indices of their G(x)
(tables.window_index).  k = n for the correspondence section of
run_verify, and k = n - r for the variety (variety.variety_pass), whose
constraints are linear conditions on that window.  Callers check a block
whole, in C-level passes over its bytes and indices, and form an x only
where a check fails, from its position in the block (block_point);
walk_G expands the blocks point by point for the oracles and tests.  A
walk over more than its budget of vectors, by default the run's one
limit family.MEMBER_BUDGET, raises BudgetError before any is formed.
A window's polynomial depends only on its own q^i coordinates, so for
each window size i the walk tables the top digits of the q^i window
polynomials once per run (see Plan), and multiplies windows through the
start, extend and place of tables._multiplier.  The last window's
entries are placed once per distinct entry and distinct depth-k window
of the prefix's product, of which there are at most q^k, and kept by
that window.  With flags, a block keeps only the last-window vectors
whose window is flagged, so the variety's walk does no work per vector
that is not a zero.  Rotating a window's coordinates maps its element
to a conjugate, with the same polynomial, and scaling them by s in
F_q^* scales each E_t by s^t, so the table forms one entry per class
under rotation and scaling, about q^i / (i (q - 1)) of them; the orbit
of a window vector is F_q-linear in its coordinates, so it is the sum
of two orbits from the spans (ffield._span) of the columns of A over
the first ceil(i/2) and the last floor(i/2) coordinates.
Every first counterexample is the same x as in a per-point scan.
The membership check (membership_block) compares, at a block's typed
positions, the family's flag of each window with the block oracle
variety.zero_block's.  build_G, is_type_lambda, variety.eval_R and
zero_block read nothing of the walk; they form each orbit as the product
_orbit with the conjugate matrix, or the block's orbits, one per class,
from two half spans of its columns.
"""

from __future__ import annotations

from functools import partial
from itertools import accumulate, chain, compress, count, product, repeat
from operator import itemgetter

from ._dense import pmul
from .errors import BudgetError, GaloisDescentError
from .family import MEMBER_BUDGET
from .ffield import _scaled_codes, _span, _to_vec
from .patterns import Pattern
from .tables import _multiplier, family_windows


def layout(pattern: Pattern) -> tuple:
    """The windows ((size, start), ...) in increasing (size, copy) order;
    they tile 0..n-1 in order."""
    sizes = pattern.sizes()
    return tuple(zip(sizes, accumulate(sizes, initial=0)))


def _full_shifts(win) -> bool:
    """True iff the cyclic shifts of one window's coordinates are
    pairwise distinct."""
    return len({win[k:] + win[:k] for k in range(len(win))}) == len(win)


def is_type_lambda(x, pattern: Pattern) -> bool:
    """True iff every window's cyclic shifts are pairwise distinct."""
    x = tuple(x)
    if len(x) != pattern.n:
        raise ValueError("vector length must equal the pattern degree")
    return all(_full_shifts(x[start:start + size])
               for size, start in layout(pattern))


class RootVector:
    """A coordinate vector together with its per-window root values.

    y holds, window by window, the Galois orbit of the window's element:
    y[w][k] = sigma^k(alpha_w) as a code in the window's layer.
    """

    def __init__(self, x, pattern: Pattern, bank):
        self.x = tuple(x)
        self.pattern = pattern
        self.layout = layout(pattern)
        ys = []
        for size, start in self.layout:
            ctx = bank.get(size)
            ys.append(tuple(_orbit(ctx, ctx.A, self.x[start:start + size])))
        self.y = tuple(ys)

    def typed(self) -> bool:
        return all(len(set(win)) == len(win) for win in self.y)


def _orbit(K, rows, coords):
    """The values sum_h coords[h] * row[h] in K, one per row.  With rows
    the circulant conjugate matrix A of a layer this is the Galois orbit
    of alpha = sum coords[h] theta^(q^h): row k gives sigma^k(alpha)."""
    add, mul = K.add, K.mul
    orbit = []
    for row in rows:
        acc = 0
        for c, a in zip(coords, row):
            if c:
                acc = add(acc, mul(c, a))
        orbit.append(acc)
    return orbit


def _absorb(K, e, ys):
    """Absorb the values ys into e in place and return it: if e[t] held
    E_t of some values (t = 0 .. len(e) - 1, e[0] = 1), it then holds E_t
    of those values and ys.  The one E_k recurrence of the package; in a
    layer with exp/log/Zech lists it reads them directly, as K.add and
    K.mul do."""
    top = len(e) - 1
    exp = getattr(K, "_exp", None)
    if exp is not None:
        log, zech, m = K._log, K._zech, K.order - 1
        for y in ys:
            if not y:
                continue
            ly = log[y]
            for t in range(top, 0, -1):
                a = e[t - 1]
                if a:
                    ya = (ly + log[a]) % m          # log of y * a
                    b = e[t]
                    if b:
                        lb = log[b]
                        z = zech[(ya - lb) % m]
                        e[t] = 0 if z < 0 else exp[(lb + z) % m]
                    else:
                        e[t] = exp[ya]
        return e
    add, mul = K.add, K.mul
    for y in ys:
        for t in range(top, 0, -1):
            e[t] = add(e[t], mul(y, e[t - 1]))
    return e


def _window_esym(ctx, orbit, upto):
    """E_0..E_upto of one window's Galois orbit (see _orbit), a tuple formed
    in its layer F_(q^i) and checked to descend to F_q."""
    e = _absorb(ctx, [1] + [0] * upto, orbit)
    for t in range(1, upto + 1):
        if e[t] >= ctx.q:
            raise GaloisDescentError(
                f"symmetric value E_{t} = {e[t]} did not descend to F_q")
    return tuple(e)


def _window_poly(ctx, coords):
    """The monic conjugate product prod_k (T - sigma^k(alpha)) of one
    window element, as a full coefficient list of F_q codes.

    The product is computed inside the window's layer F_(q^i); its
    coefficients must be Frobenius-fixed, and any failure to land in F_q
    raises GaloisDescentError (a corrupted-tables trap).
    """
    win_poly = [1]
    for root in _orbit(ctx, ctx.A, coords):
        win_poly = pmul(ctx, win_poly, [ctx.neg(root), 1])
    for c in win_poly:
        if not ctx.in_base(c):
            raise GaloisDescentError(
                f"window product coefficient {c} is not in F_q")
    return win_poly


def build_G(pattern: Pattern, x, bank) -> list:
    """The monic degree-n image of x, as a full coefficient list: product
    over windows of the full conjugate product of the window element.

    The per-point oracle for walk_G: each window product is computed
    inside its own layer F_(q^i) and descent-checked (see _window_poly).
    """
    x = tuple(x)
    if len(x) != pattern.n:
        raise ValueError("vector length must equal the pattern degree")
    base = bank.base
    out = [1]
    for size, start in layout(pattern):
        out = pmul(base, out, _window_poly(bank.get(size), x[start:start + size]))
    return out


def _window_table(ctx, k):
    """The entry (typed, digits) of each coordinate vector of F_(q^i), by
    its code in product order: the top d = min(i, k) digits of the window
    polynomial, (-1)^t E_t of the orbit, and typed iff the orbit's values
    are distinct (conj is a basis: iff the cyclic shifts are, _full_shifts).
    A is circulant, so a left rotation of the coordinates, on codes
    c -> c q mod (q^i - 1), maps alpha to sigma^(-1)(alpha), and s * v
    for s in F_q^* has the orbit scaled by s, its digits s^t (-1)^t E_t
    (in F_q iff E_t is): one entry is formed per class under rotation and
    scaling, from two half spans of the columns of A (ffield._span),
    checked to descend, and stored, scaled, at every code of the class;
    equal entries are one object.  An A that is not the circulant of its
    first row raises GaloisDescentError."""
    ctx.ensure_fast()
    A, i, q = ctx.A, ctx.i, ctx.q
    if any(row != A[0][t:] + A[0][:t] for t, row in enumerate(A)):
        raise GaloisDescentError("the conjugate matrix is not circulant")
    base = ctx.base
    add, neg, mul = ctx.add, base.neg, base.mul
    d = min(i, k)
    m = (i + 1) // 2
    cols = list(zip(*A))
    high, low = (_span(cols[:m], i, q, add, ctx.mul),
                 _span(cols[m:], i, q, add, ctx.mul))
    # per s in F_q^*: the scaled codes of each half, and s^1 .. s^d
    scalings = [(_scaled_codes(base, [s] * m),
                 _scaled_codes(base, [s] * (i - m)),
                 list(accumulate(repeat(s, d), mul))) for s in range(1, q)]
    top = q ** i - 1
    table = [None] * (top + 1)
    shared = {}
    for c in range(top + 1):
        if table[c] is not None:
            continue
        a, b = divmod(c, len(low))
        orbit = list(map(add, high[a], low[b]))
        e = _window_esym(ctx, orbit, d)
        typed = len(set(orbit)) == i
        digits = [neg(e[t]) if t % 2 else e[t] for t in range(1, d + 1)]
        for hs, ls, powers in scalings:
            sc = hs[a] * len(low) + ls[b]
            if table[sc] is not None:
                continue
            entry = (typed, tuple(map(mul, powers, digits)))
            entry = table[sc] = shared.setdefault(entry, entry)
            r = sc * q % top if sc < top else sc
            while r != sc:
                table[r] = entry
                r = r * q % top
    return table


def _stored(q, size, table):
    return zip(product(range(q), repeat=size), table)


class Plan:
    """What the walks and oracles of one run share, in place of its
    ContextBank: for windows below size n, the walk's tables by (size,
    depth), and the block oracle's E_0..E_(n-r) listings by (size, n - r)
    (variety._window_values).  run_verify makes one per call, other
    callers one per use."""

    def __init__(self, bank):
        self.base, self.get = bank.base, bank.get
        self.tables, self.values = {}, {}


def walk_blocks(pattern: Pattern, bank, k: int, flags=None,
                budget: int = MEMBER_BUDGET):
    """One block (xs, keep, ts, ws) per prefix xs of the outer windows, in
    product order: over the last window's vectors v in product order where
    the selector keep is set (all of them where keep is None, as without
    flags), ts holds the typed flags of x = xs + v as bytes and ws the
    depth-k window indices of G(x) (see tables.window_index); with flags,
    keep selects the v with flags[w] set.

    Each window size's windows of all q^i vectors are tabled once per plan
    (_window_table), descent-checked (GaloisDescentError); a size-n table,
    q^n references like a Zech list, is not kept past the walk.  Each
    prefix's product is extended once (_prefixes), and _block places the
    last window.  Flags are read only when the walk is iterated.
    """
    n = pattern.n
    total = bank.base.q ** n
    if total > budget:
        raise BudgetError(f"scan size {total} exceeds budget {budget}")
    plan = bank if isinstance(bank, Plan) else Plan(bank)
    q = plan.base.q
    levels = []
    for size, _ in layout(pattern):
        table = (plan.tables.get((size, k))
                 or _window_table(plan.get(size), k))
        if size < n:    # no other pattern has a size-n window
            plan.tables[size, k] = table
        levels.append((size, table))
    start, extend, place = _multiplier(plan.base, k)
    prefixes = iter([((), True, start)])
    for size, table in levels[:-1]:
        prefixes = _prefixes(prefixes, extend,
                             partial(_stored, q, size, table))
    entries = list(map(itemgetter(1), levels[-1][1]))
    typed = bytes(map(itemgetter(0), levels[-1][1]))
    return map(partial(_block, typed, entries, tuple(dict.fromkeys(entries)),
                       place, flags, {}), prefixes)


def walk_G(pattern: Pattern, bank, k: int, flags=None,
           budget: int = MEMBER_BUDGET):
    """Every x in F_q^n in product order, as (x, typed, w): walk_blocks'
    blocks point by point, for the oracles and tests."""
    blocks = walk_blocks(pattern, bank, k, flags, budget)
    vs = list(product(range(bank.base.q), repeat=pattern.sizes()[-1]))
    return chain.from_iterable(
        zip(map(xs.__add__, vs if keep is None else compress(vs, keep)),
            map(bool, ts), ws) for xs, keep, ts, ws in blocks)


def block_point(q, size, xs, at):
    """The x at position at of a block with no selector under the prefix
    xs: the last window's coordinates are at's base-q digits, in order."""
    return xs + tuple(reversed(_to_vec(at, q, size)))


def _prefixes(prefixes, extend, level):
    """Each prefix (xs, typed, rows) of the outer windows, rows the plan of
    their product, extended by every entry of one more window (level())
    in product order."""
    for xs, typed, rows in prefixes:
        for coords, (t, b) in level():
            yield xs + coords, typed and t, extend(rows, b)


def _block(typed, entries, distinct, place, flags, memo, prefix):
    """The block of one prefix (xs, t, rows) over the last window, whose
    entries and typed flags by code are entries and typed: the distinct
    entries are placed (tables._multiplier) once per product window of
    the prefix, its k digits, by which memo keeps the windows and typed
    flags (with flags, of the flagged vectors, and their selector keep)."""
    xs, t, rows = prefix
    key = tuple([at for at, _, _ in rows])
    held = memo.get(key)
    if held is None:
        placed = {b: place(rows, b) for b in distinct}
        if flags is None:
            held = None, typed, list(map(placed.__getitem__, entries))
        else:
            hit = {b: w for b, w in placed.items() if flags[w]}
            keep = bytes(map(hit.__contains__, entries))
            held = (keep, bytes(compress(typed, keep)),
                    list(map(hit.__getitem__, compress(entries, keep))))
        memo[key] = held
    keep, ts, ws = held
    return xs, keep, ts if t else bytes(len(ts)), ws


def membership_block(sys_, inside, xs, ts, ws):
    """The membership check on one block with no selector under the prefix
    xs: None if at every typed position the family's flag inside[w], by
    the block's window w (inside spans the walk's depth, n - r or more),
    agrees with variety.zero_block's, else the first x where they
    disagree, with both verdicts."""
    from .variety import zero_block     # read at each call
    flags, zeros = bytes(map(inside.__getitem__, ws)), zero_block(sys_, xs)
    if flags != zeros:
        for at in compress(count(), ts):
            if flags[at] != zeros[at]:
                x = block_point(sys_.fam.q, sys_.windows[-1][1], xs, at)
                return {"x": x, "in_family": bool(flags[at]),
                        "on_variety": bool(zeros[at])}
    return None


def verify_membership_equivalence(fam, pattern: Pattern, bank,
                                  budget: int = MEMBER_BUDGET):
    """Check, over every typed vector, that G(x) lies in the family iff
    the reduced symmetric system vanishes at x, a block of the walk at
    depth n - r at a time (membership_block).  Returns (ok, None) or
    (ok, the counterexample dict with the vector and both verdicts)."""
    from .variety import sym_system
    blocks = walk_blocks(pattern, bank, fam.n - fam.r, budget=budget)
    sys_, inside = sym_system(fam, pattern, bank), family_windows(fam)
    bad = next(filter(None, (membership_block(sys_, inside, xs, ts, ws)
                             for xs, _, ts, ws in blocks)), None)
    return bad is None, bad
