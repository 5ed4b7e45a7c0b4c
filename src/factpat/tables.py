"""Pattern tables built by multiplying irreducibles instead of factoring.

The depth-k window of a monic f = T^n + c_(n-1) T^(n-1) + ... + c_0 is
(c_(n-1), ..., c_(n-k)): the coefficients of X^1 .. X^k in the reversed
polynomial X^n f(1/X) = 1 + c_(n-1) X + ... + c_0 X^n.  Reversal is
multiplicative, so the window of a product is the product of its
factors' windows mod X^(k+1): O(k^2) field operations, no division and
no gcd.  A window is stored as its index sum c_(n-t) q^(t-1), t = 1..k,
so truncating a window to a smaller depth j is the index mod q^j.

pattern_table(K, n, k) counts the monics of degree n by window, pattern
and square-freeness without factoring any of them.  A depth-first search
runs over the multisets of monic irreducibles of degree below n with
total degree n, taking irreducibles in nondecreasing index order: the
multiset gives the pattern, a repeated index makes the product
non-square-free, and the product of the windows places it.  Every window
is shared by exactly q^(n-k) monics, so the degree-n irreducibles with a
window are what the composites leave over.  The same search at degree d
and depth min(d, k) gives, for each degree d below n, how many
irreducibles have each window; a factor that can only come last is taken
once per window with that multiplicity.

k = 0 gives the unconstrained census, k = n - r the windows a linear
family constrains, and k = n one entry per polynomial.  Live state while
a table is built is the recursion (depth below n), the windows of the
irreducibles below degree n, and one flat array of q^k * P * 2 counts.
The table at depth n - r serves every family at (q, n, r), so
family_tally keeps it in the shared ContextBank of its field, keyed by
(n, k), until ffield._SHARED_BANKS is cleared; the tables that
run_global and run_verify read are built per call and dropped.

The verify scans share the window product _multiplier: G(x) is the
product of its windows' conjugate products, so correspondence.walk_G
places each x at its depth-k window index with the same truncated
product, and family_windows flags the indices inside a family for
family_tally and for the membership check.
"""

from __future__ import annotations

from array import array
from itertools import compress
from operator import mul

from .ffield import ContextBank, _to_vec
from .patterns import enumerate_patterns


def window_index(q, full, k):
    """Depth-k window index of a monic given as (c_0, ..., c_(n-1), 1)."""
    n = len(full) - 1
    w = 0
    for t in range(k, 0, -1):
        w = w * q + full[n - t]
    return w


def window_coeffs(q, n, k, w):
    """A monic (c_0, ..., c_(n-1), 1) of degree n whose depth-k window has
    index w; the coefficients below the window are 0."""
    full = [0] * n + [1]
    full[n - k:n] = reversed(_to_vec(w, q, k))
    return full


def _multiplier(K, k):
    """(plan, times, place) for products of windows mod X^(k+1).

    A window is a tuple of digits (c_1, c_2, ...), trimmed to at most k.
    plan(a) turns a into rows: digit t of a*b is a_t + sum_j a_(t-j) b_j,
    j = 1..t, with a_0 = 1.  times(rows, b) is a*b as a digit tuple of
    length k, place(rows, b) its index.
    """
    q = K.q
    qpow = [q ** t for t in range(k)]

    def plan(a):
        a = a + (0,) * (k - len(a))
        return [(a[t], a[t - 1::-1] + (1,) if t else (1,), qpow[t])
                for t in range(k)]

    if K.s == 1:
        p = q

        def times(rows, b):
            return tuple([(at + sum(map(mul, row, b))) % p
                          for at, row, _ in rows])

        def place(rows, b):
            w = 0
            for at, row, qp in rows:
                w += (at + sum(map(mul, row, b))) % p * qp
            return w
    else:
        add, kmul = K.add, K.mul

        def digit(at, row, b):
            for x, y in zip(row, b):
                if x and y:
                    at = add(at, kmul(x, y))
            return at

        def times(rows, b):
            return tuple([digit(at, row, b) for at, row, _ in rows])

        def place(rows, b):
            w = 0
            for at, row, qp in rows:
                w += digit(at, row, b) * qp
            return w

    return plan, times, place


def _composites(K, n, k, hist, slot_of, width):
    """Counts of the products of irreducibles of degree below n with total
    degree n, at index window * width + slot_of[pattern key][square-free].

    hist[d][w] is the number of degree-d irreducibles whose window at
    depth min(d, k) has index w; a pattern key is
    sum counts[d-1] * (n+1)^(d-1).
    """
    q = K.q
    plan, times, place = _multiplier(K, k)
    unit = [(n + 1) ** (d - 1) for d in range(n + 1)]
    # every factor window has an index below q^min(k, n-1)
    digits = [_to_vec(w, q, k) for w in range(q ** min(k, n - 1))]
    # a factor that another can follow has degree at most n/2; irreducibles
    # sharing a window are interchangeable, so list the window once per
    # irreducible
    each = {d: [digits[w] for w, c in enumerate(hist[d]) for _ in range(c)]
            for d in range(1, n // 2 + 1)}
    counts = array("q", bytes(8 * q ** k * width))

    def walk(d0, j0, rem, rows, key, sq):
        # the factors so far multiply to the window planned in rows; the
        # last is entry j0 of degree d0, and further ones come at or after
        if rem < n:
            slots = slot_of[key + unit[rem]]
            if rem == d0:
                lst = each[rem]
                counts[place(rows, lst[j0]) * width + slots[0]] += 1
                s = slots[sq]
                for b in lst[j0 + 1:]:
                    counts[place(rows, b) * width + s] += 1
            else:
                s = slots[sq]
                for w, c in enumerate(hist[rem]):
                    if c:
                        counts[place(rows, digits[w]) * width + s] += c
        for d in range(d0, rem // 2 + 1):
            lst = each[d]
            sub = key + unit[d]
            rep = j0 if d == d0 else -1
            for j in range(max(rep, 0), len(lst)):
                walk(d, j, rem - d, plan(times(rows, lst[j])), sub,
                     sq and j != rep)

    walk(1, -1, n, plan(()), 0, 1)
    del walk    # it refers to itself; free its lists now, not at the next gc
    return counts


def _pattern_keys(n):
    return [sum(c * (n + 1) ** d for d, c in enumerate(pat.counts))
            for pat in enumerate_patterns(n)]


def _irreducible_hist(K, n, k):
    """Degree d -> array whose entry w counts the monic irreducibles of
    degree d with window index w at depth min(d, k), for d = 1 .. n-1."""
    hist = {}
    for d in range(1, n):
        depth = min(d, k)
        zero = {key: (0, 0) for key in _pattern_keys(d)}
        hit = _composites(K, d, depth, hist, zero, 1)
        per_window = K.q ** (d - depth)
        for w, c in enumerate(hit):
            hit[w] = per_window - c
        hist[d] = hit
    return hist


def pattern_table(K, n, k):
    """Counts of the monic degree-n polynomials over K by window, pattern
    and square-freeness: entry (w * P + i) * 2 + sq is the number whose
    depth-k window has index w, whose pattern is enumerate_patterns(n)[i]
    (P patterns in all), and which are square-free iff sq is 1."""
    if not 0 <= k <= n:
        raise ValueError("window depth must lie in 0..n")
    q = K.q
    keys = _pattern_keys(n)
    npat = len(keys)
    slot_of = {key: (2 * i, 2 * i + 1) for i, key in enumerate(keys)}
    hist = _irreducible_hist(K, n, k)
    counts = _composites(K, n, k, hist, slot_of, 2 * npat)
    # the degree-n irreducibles: the last pattern, always square-free
    per_window = q ** (n - k)
    width = 2 * npat
    for w in range(q ** k):
        at = w * width
        counts[at + width - 1] = per_window - sum(counts[at:at + width])
    return counts


def tally_windows(n, counts, windows):
    """pattern_tally-style dict (counts tuple -> [total, square-free]) of a
    pattern table summed over the given window indices."""
    pats = enumerate_patterns(n)
    width = 2 * len(pats)
    totals = [0] * width
    for w in windows:
        at = w * width
        for s in range(width):
            totals[s] += counts[at + s]
    out = {}
    for i, pat in enumerate(pats):
        nsq, sq = totals[2 * i], totals[2 * i + 1]
        if nsq + sq:
            out[pat.counts] = [nsq + sq, sq]
    return out


def family_windows(fam) -> bytearray:
    """Flag per depth-(n - r) window index: 1 iff the window satisfies the
    family's equations, so that its monics are members."""
    n, q, k = fam.n, fam.q, fam.n - fam.r
    return bytearray(fam.contains_coeffs(window_coeffs(q, n, k, w))
                     for w in range(q ** k))


def family_tally(fam) -> dict:
    """The pattern tally of a linear family from the table at depth n - r:
    the sum over the windows that satisfy the family's equations.  The
    table depends on the field, n and r alone, so the first family at a
    (q, n, r) builds it into the field's shared ContextBank and the later
    ones only sum windows; nothing writes to it after it is built."""
    n, k = fam.n, fam.n - fam.r
    kept = ContextBank.shared(fam.ctx).family_tables
    counts = kept.get((n, k))
    if counts is None:
        counts = kept[n, k] = pattern_table(fam.ctx, n, k)
    inside = family_windows(fam)
    return tally_windows(n, counts, compress(range(len(inside)), inside))
