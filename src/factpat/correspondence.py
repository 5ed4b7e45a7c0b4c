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

Scans over F_q^n (scan_G, read by fiber_map, fiber_count, the
membership check and run_verify) never recompute a window per vector:
each window's polynomial depends only on its own q^i coordinates, so
for each window size i below n a flat table of the q^i window
polynomials and typed flags is built once per call, after ensure_fast
on layer i; a window of size n is streamed.  The scan walks the windows
as nested loops in layout order, which is itertools.product order, so
every first counterexample is the same x as in a per-point scan.
build_G and is_type_lambda stay as the per-point oracles.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from functools import partial
from itertools import product

from ._dense import pmul
from .errors import BudgetError, GaloisDescentError
from .patterns import Pattern
from .poly import MonicPoly

SCAN_BUDGET = 10 ** 7


@dataclass(frozen=True)
class PatternLayout:
    pattern: Pattern
    windows: tuple   # ((size, start), ...) in increasing (size, copy) order


def layout(pattern: Pattern) -> PatternLayout:
    """Window sizes and start offsets; windows tile 0..n-1 in order."""
    windows = []
    start = 0
    for i, c in enumerate(pattern.counts, start=1):
        for _ in range(c):
            windows.append((i, start))
            start += i
    assert start == pattern.n
    return PatternLayout(pattern, tuple(windows))


def window_start(pattern: Pattern, i: int, j: int) -> int:
    """Start offset of the j-th (1-based) window of size i:
    sum of k*counts[k-1] below i, plus (j-1)*i."""
    if not 1 <= j <= pattern.counts[i - 1]:
        raise ValueError(f"no window ({i}, {j}) in this pattern")
    below = sum(k * c for k, c in enumerate(pattern.counts[:i - 1], start=1))
    return below + (j - 1) * i


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
               for size, start in layout(pattern).windows)


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
        for size, start in self.layout.windows:
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


def build_G(pattern: Pattern, x, bank) -> MonicPoly:
    """The monic degree-n image of x: product over windows of the full
    conjugate product of the window element.

    The per-point oracle for scan_G: each window product is computed
    inside its own layer F_(q^i) and descent-checked (see _window_poly).
    """
    x = tuple(x)
    if len(x) != pattern.n:
        raise ValueError("vector length must equal the pattern degree")
    base = bank.base
    out = [1]
    for size, start in layout(pattern).windows:
        out = pmul(base, out, _window_poly(bank.get(size), x[start:start + size]))
    return MonicPoly.from_full(base, out)


def _check_budget(total, budget):
    if total > budget:
        raise BudgetError(f"scan size {total} exceeds budget {budget}")


def _window_entries(ctx):
    """(typed, window polynomial) for every coordinate vector of the
    layer F_(q^i), in product order."""
    ctx.ensure_fast()
    for coords in product(range(ctx.q), repeat=ctx.i):
        yield _full_shifts(coords), _window_poly(ctx, coords)


def _window_table(ctx):
    """All window entries of a layer, stored flat: entry t has the full
    coefficient list polys[t*(i+1):(t+1)*(i+1)] and the flag typed[t]."""
    polys, typed = array("q"), bytearray()
    for t, poly in _window_entries(ctx):
        typed.append(t)
        polys.extend(poly)
    return polys, typed


def _stored_entries(table, size):
    polys, typed = table
    step = size + 1
    for t, flag in enumerate(typed):
        yield flag, polys[t * step:(t + 1) * step]


def _walk_G(base, levels, w, prefix, typed):
    """The scan below window w: levels[w]() yields that window's
    entries, prefix is the product of the outer windows' polynomials."""
    last = w == len(levels) - 1
    for flag, poly in levels[w]():
        out = pmul(base, prefix, poly)
        if last:
            yield bool(typed and flag), out
        else:
            yield from _walk_G(base, levels, w + 1, out, typed and flag)


def scan_G(pattern: Pattern, bank, budget: int = SCAN_BUDGET):
    """Every x in F_q^n in product order, as (typed, full coefficient
    list of G(x)): the scan that fiber_map, fiber_count and the
    membership check read.

    G(x) is the product of its windows' polynomials, and each window's
    depends only on its own coordinates.  So for each window size below n
    the polynomials of all q^i window vectors are computed once per call
    (after ensure_fast on that layer) into a flat table, exactly as
    build_G computes and descent-checks them; a window of size n (the
    pattern n) is streamed, since none of its entries is reused.  The
    walk nests one loop per window in layout order, which is product
    order, and multiplies each outer prefix once, so the innermost window
    costs one base-field pmul per x.
    """
    n = pattern.n
    _check_budget(bank.base.q ** n, budget)
    tables = {}
    levels = []
    for size, _ in layout(pattern).windows:
        if size == n:
            levels.append(partial(_window_entries, bank.get(size)))
            continue
        if size not in tables:
            tables[size] = _window_table(bank.get(size))
        levels.append(partial(_stored_entries, tables[size], size))
    return _walk_G(bank.base, levels, 0, [1], True)


def fiber_count(f: MonicPoly, pattern: Pattern, bank,
                budget: int = SCAN_BUDGET) -> int:
    """Number of vectors x with G(x, T) = f, by exhaustive scan."""
    if f.degree != pattern.n:
        raise ValueError("degree mismatch between f and the pattern")
    target = f.full()
    return sum(1 for _, g in scan_G(pattern, bank, budget) if g == target)


def fiber_map(pattern: Pattern, bank, budget: int = SCAN_BUDGET):
    """One scan over F_q^n returning (typed_fibers, untyped_count), where
    typed_fibers maps the coeff tuple of G(x) to the number of typed x."""
    typed: dict[tuple, int] = {}
    untyped = 0
    for t, g in scan_G(pattern, bank, budget):
        if t:
            key = tuple(g[:-1])
            typed[key] = typed.get(key, 0) + 1
        else:
            untyped += 1
    return typed, untyped


def verify_membership_equivalence(fam, pattern: Pattern, bank,
                        budget: int = SCAN_BUDGET):
    """Check, over every typed vector, that G(x) lies in the family iff
    the reduced symmetric system vanishes at x.

    G(x) comes from scan_G and the system from the per-point oracle
    eval_R, so each typed x checks the scan against the oracle.  Returns
    (ok, counterexample) where the counterexample is None or a dict with
    the offending vector and both verdicts.
    """
    scan = scan_G(pattern, bank, budget)
    from .variety import eval_R, sym_system
    sys_ = sym_system(fam, pattern, bank)
    for x, (typed, g) in zip(product(range(bank.base.q), repeat=pattern.n), scan):
        if not typed:
            continue
        in_family = fam.contains_coeffs(g)
        on_variety = all(v == 0 for v in eval_R(sys_, x))
        if in_family != on_variety:
            return False, {"x": tuple(x), "in_family": in_family,
                           "on_variety": on_variety}
    return True, None
