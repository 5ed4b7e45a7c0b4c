"""Pattern tables: monics counted by window and pattern without factoring.

The depth-k window of a monic f = T^n + c_(n-1) T^(n-1) + ... + c_0 is
(c_(n-1), ..., c_(n-k)): the coefficients of X^1 .. X^k in the reversed
polynomial X^n f(1/X) = 1 + c_(n-1) X + ... + c_0 X^n.  Reversal is
multiplicative, so the window of a product is the product of its
factors' windows mod X^(k+1): O(k^2) field operations, no division and
no gcd.  A window is stored as its index sum c_(n-t) q^(t-1), t = 1..k,
so truncating a window to a smaller depth j is the index mod q^j.

pattern_table(K, pats, k) counts the monics of degree n by window,
pattern and square-freeness without factoring any of them, by one of two
routes; pats is enumerate_patterns(n), which its caller forms once and
hands down to the route and to tally_windows.

The search (_search_table, any field and depth) runs depth-first over
the multisets of monic irreducibles of degree below n with total degree
n, taking irreducibles in nondecreasing index order: the multiset gives
the pattern, a repeated index makes the product non-square-free, and the
product of the windows places it.  Every window is shared by exactly
q^(n-k) monics, so the degree-n irreducibles with a window are what the
composites leave over.  The same search at degree d and depth min(d, k)
gives, for each degree d below n, how many irreducibles have each
window; a factor that can only come last is taken once per window with
that multiplicity.  It costs about q^n window products.

The characters (_character_table, p > k; D. R. Hayes, Trans. AMS 117,
1965) work in the window group G_k = (1 + X F_q[X]) / X^(k+1), of order
q^k.  For p > k the truncated logarithm maps G_k onto F_q^k = F_p^(sk)
as an additive group, and the base-p digits of an index are its F_p
coordinates, so the characters are zeta^<b, log g>, one per index b.
Each monic's character value is the product of its factors', so the
transform of a pattern's counts is a product over degrees of symmetric
functions of the prime sums, which the L-functions of the characters
give (see _character_table); the inverse transforms, per pattern and
square-freeness, read the counts back through the logarithm.  All of it
runs per class of indices (_classes) under f(T) -> u^(-n) f(uT), u in
F_p^*, which keeps every pattern; the k forward and up to 2P inverse
transforms run as two batches of packed ints (_batch), on the indices
with lowest digit 0 or 1 only: (2P + k) 2 s k q^k products, no q^n;
the p x p roots zeta^(u x) are built only where a pass runs, s k >= 2.

table_cost prices each route by these counts times a measured constant,
plus a fixed term; pattern_table takes the characters iff p > k and
they cost less, as every depth-0 table past 177 monics does, and
census_tally weighs the same estimate against the kernel.  Each route is
the other's test oracle.  The characters are exact: all arithmetic is
mod one prime l = 1 (mod p), l > 2 q^n, proven prime by Miller-Rabin to
the bases 2..37, with zeta of order p in F_l.  Reduction mod l is a ring
map from Z[zeta_p], where the true transforms lie; the divisions are by
integers up to n and by q^k, all below l and so units mod l; and each
count lies in 0..q^n, below l, so its residue is the count.

k = 0 gives the unconstrained census, k = n - r the windows a linear
family constrains, and k = n one entry per polynomial.  The table is one
flat array of q^k * P * 2 int64 counts, each at most q^(n-k), so
pattern_table refuses q^(n-k) >= 2^63 with ValueError.  The search's
live state besides it is the recursion (depth below n) and the windows
of the irreducibles below degree n; the characters' is a few dozen
lists of one residue per class, then the packed slices (a traced peak
of 13.3 MB, 27 MiB RSS in all, for the 5.2 MB table at (31, 6, 3)).
The table at depth n - r serves every family at (q, n, r), so
family_tally keeps it in the shared ContextBank of its field, keyed by
(n, k), until ffield._SHARED_BANKS is cleared; the tables that
run_global and run_verify read are built per call and dropped.

The search and correspondence.walk_blocks multiply windows through one
interface, _multiplier's (start, extend, place).  G(x) is the product
of its windows' conjugate products, so the walk places each x at its
depth-k window index with the same truncated product, and
family_windows flags the indices inside a family for family_tally and
for the membership check.
"""

from __future__ import annotations

from array import array
from collections import defaultdict
from itertools import accumulate, compress, count
from operator import mul, sub

from .ffield import ContextBank, _prime_factors, _scaled_codes, _to_vec
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
    """(start, extend, place) for products of windows mod X^(k+1).

    A window is a tuple of digits (c_1, c_2, ...), trimmed to at most k.
    A product a is carried as its plan, rows from which digit t of a*b is
    a_t + sum_j a_(t-j) b_j, j = 1..t, with a_0 = 1.  start is the plan of
    the empty product, extend(rows, b) the plan of a*b and place(rows, b)
    the index of a*b.
    """
    q = K.q
    qpow = [q ** t for t in range(k)]

    def plan(a):
        a = a + (0,) * (k - len(a))
        return [(a[t], a[t - 1::-1] + (1,) if t else (1,), qpow[t])
                for t in range(k)]

    if K.s == 1:
        p = q

        def extend(rows, b):
            return plan(tuple([(at + sum(map(mul, row, b))) % p
                               for at, row, _ in rows]))

        def place(rows, b):
            w = 0
            for at, row, qp in rows:
                w += (at + sum(map(mul, row, b))) % p * qp
            return w
    else:
        addt, mult, add, kmul = K._addt, K._mult, K.add, K.mul

        def digit(at, row, b):      # through the flat tables where K has them
            for x, y in zip(row, b):
                if x and y:
                    at = (addt[at * q + mult[x * q + y]] if addt
                          else add(at, kmul(x, y)))
            return at

        def extend(rows, b):
            return plan(tuple([digit(at, row, b) for at, row, _ in rows]))

        def place(rows, b):
            w = 0
            for at, row, qp in rows:
                w += digit(at, row, b) * qp
            return w

    return plan(()), extend, place


def _search(K, n, k, hist, slot_of, width):
    """Counts of the monics of degree n at index window * width + slot:
    the products of irreducibles of degree below n at slot
    slot_of[pattern key][square-free], and in each window's last slot the
    rest of its q^(n-k) monics, the irreducibles of degree n.

    hist[d][w] is the number of degree-d irreducibles whose window at
    depth min(d, k) has index w; a pattern key is
    sum counts[d-1] * (n+1)^(d-1).
    """
    q = K.q
    start, extend, place = _multiplier(K, k)
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
                walk(d, j, rem - d, extend(rows, lst[j]), sub,
                     sq and j != rep)

    walk(1, -1, n, start, 0, 1)
    del walk    # it refers to itself; free its lists now, not at the next gc
    per_window = q ** (n - k)
    for at in range(0, len(counts), width):
        counts[at + width - 1] = per_window - sum(counts[at:at + width])
    return counts


def _pattern_keys(pats):
    n = pats[0].n
    return [sum(c * (n + 1) ** d for d, c in enumerate(pat.counts))
            for pat in pats]


def _irreducible_hist(K, n, k):
    """Degree d -> array whose entry w counts the monic irreducibles of
    degree d with window index w at depth min(d, k), for d = 1 .. n-1:
    the search at width 1, whose last slot is its only one."""
    hist = {}
    zero = defaultdict(lambda: (0, 0))      # every pattern at slot 0
    for d in range(1, n):
        hist[d] = _search(K, d, min(d, k), hist, zero, 1)
    return hist


# Each route's fixed ns, the search's per monic and unit of 3 + 2 k^2, and
# the characters' per transform product: fitted on the tables of
# tests/route_times.py (nproc 2, Python 3.11).
SEARCH_FIXED_NS, CHARACTER_FIXED_NS = 100_000, 140_000
SEARCH_NS, CHARACTER_NS = 75, 60


def table_cost(K, n, k, P):
    """(ns, characters): the estimated time in ns of pattern_table at
    depth k for the P patterns of degree n over K, and whether it takes
    the characters (p > k), priced by their transform products alone:
    none at k = 0, and more than their p x p roots where those are built."""
    search = SEARCH_FIXED_NS + SEARCH_NS * (3 + 2 * k * k) * K.q ** n
    characters = CHARACTER_FIXED_NS + CHARACTER_NS * (
        (2 * P + k) * 2 * K.s * k * K.q ** k)
    if K.p > k and characters < search:
        return characters, True
    return search, False


def pattern_table(K, pats, k):
    """Counts of the monic degree-n polynomials over K by window, pattern
    and square-freeness, pats = enumerate_patterns(n): entry
    (w * P + i) * 2 + sq is the number whose depth-k window has index w,
    whose pattern is pats[i] (P patterns in all), and which are
    square-free iff sq is 1."""
    n = pats[0].n
    if not 0 <= k <= n:
        raise ValueError("window depth must lie in 0..n")
    if K.q ** (n - k) >= 1 << 63:     # a cell counts up to q^(n-k) monics
        raise ValueError(f"table cells of up to {K.q}^{n - k} monics "
                         f"exceed the int64 limit 2^63")
    if table_cost(K, n, k, len(pats))[1]:
        return _character_table(K, pats, k)
    return _search_table(K, pats, k)


def _search_table(K, pats, k):
    """pattern_table by the depth-first search over the products of
    irreducibles; any field and depth.  The last slot is the last pattern,
    the irreducibles, always square-free."""
    n = pats[0].n
    keys = _pattern_keys(pats)
    slot_of = {key: (2 * i, 2 * i + 1) for i, key in enumerate(keys)}
    return _search(K, n, k, _irreducible_hist(K, n, k), slot_of,
                   2 * len(keys))


_MR_LIMIT = 318665857834031151167461


def _proven_prime(l):
    """Whether l is prime, for 2 <= l < _MR_LIMIT, where Miller-Rabin to
    the bases 2..37 is proven (Sorenson and Webster, Math. Comp. 86, 2017)."""
    s = ((l - 1) & (1 - l)).bit_length() - 1       # l - 1 = d 2^s, d odd
    for b in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(b, (l - 1) >> s, l)       # then x^2, x^4, .., x^(2^(s-1))
        steps = accumulate(range(s - 1), lambda y, _: y * y % l, initial=x)
        if x != 1 and l - 1 not in steps:
            return l == b
    return True


def _modulus(p, bound):
    """(l, zeta): the least prime l = 1 (mod p) above bound, proven prime
    by _proven_prime, and an element zeta of order p in F_l."""
    l = bound - bound % p + 1
    while l <= bound or not _proven_prime(l):
        l += p
    if l >= _MR_LIMIT:
        raise ValueError(f"no modulus above {bound} is proven prime")
    g = 2
    while pow(g, (l - 1) // p, l) == 1:
        g += 1
    return l, pow(g, (l - 1) // p, l)


def _classes(K, k):
    """(reps, cls, g): a representative of each class of F_q^k under
    b_t -> u^t b_t, u in F_p^*, and the class of each index: the cycles
    of that scaling at u = g, the least generator of F_p^*, numbered by
    least index.  A class is represented by its least index if b_1 = 0,
    else by its one member whose b_1 has lowest nonzero digit 1."""
    p, q, size = K.p, K.q, K.q ** k
    g = next(g for g in range(1, p) if all(
        pow(g, (p - 1) // f, p) != 1 for f in _prime_factors(p - 1)))
    graded = _scaled_codes(K, [K.of_int(g ** t) for t in range(k, 0, -1)])
    lead = [[d for d in _to_vec(c, p, K.s) if d][:1] == [1] for c in range(q)]
    reps, cls = [], [None] * size
    for w in range(size):
        if cls[w] is None:
            reps.append(w)
            while cls[w] is None:
                reps[-1] = w if lead[w % q] else reps[-1]
                cls[w], w = len(reps) - 1, graded[w]
    return reps, cls, g


def _slice_codes(K, k):
    """codes[u - 2][j] = j', u = 2 .. p-1, where b_t -> u^t b_t takes index
    j p + 1 to j' p + u: slice u of the transform of a vector constant on
    the classes, over all but the lowest digit, is slice 1 read at codes."""
    out, p = [], K.p
    for u in range(2, p):
        low = [K.mul(K.of_int(u), x * p) // p for x in range(K.q // p)]
        high = _scaled_codes(K, [K.of_int(u ** t) for t in range(k, 1, -1)])
        out.append([y * len(low) + z for y in high for z in low])
    return out


def _log_indices(K, k, windows):
    """The truncated logarithm of each of windows, one per class as
    log(g(uX)) = (log g)(uX), in F_q^k indexed like a window: t l_t =
    t g_t - sum_(j<t) j l_j g_(t-j), which needs 1/t for t <= k."""
    q, add, mul = K.q, K.add, K.mul
    qpow = [q ** t for t in range(k)]
    num = [K.of_int(t) for t in range(k + 1)]
    neg_inv = [0] + [K.neg(K.inv(num[t])) for t in range(1, k + 1)]
    out = []
    for w in windows:
        g = (1,) + _to_vec(w, q, k)
        jl = [0] * (k + 1)          # j * l_j
        v = 0
        for t in range(1, k + 1):
            acc = 0
            for j in range(1, t):
                acc = add(acc, mul(jl[j], g[t - j]))
            lt = add(g[t], mul(neg_inv[t], acc))
            jl[t] = mul(num[t], lt)
            v += lt * qpow[t - 1]
        out.append(v)
    return out


def _transform(f, rows, digits):
    """sum_v zeta^<b, v> f[v], unreduced, at every index b, where <b, v>
    pairs the base-p digits of b and v and rows[u][x] = zeta^(u x) mod l.
    Each pass transforms the top digit and moves it to the bottom, so
    after a pass per digit each is transformed and back in its place."""
    p = len(rows[0])
    m = len(f) // p
    for _ in range(digits):
        f = [sum(map(mul, row, col))
             for col in zip(*[f[x * m:(x + 1) * m] for x in range(p)])
             for row in rows]
    return f


def _batch(vectors, rows, digits, l, bound, at, spread):
    """The transforms mod l of vectors with entries below bound, read at
    the indices in at, as packed ints: vector j has bits j width .. (j +
    1) width - 1, width the bit length of bound (p l)^digits, which digits
    passes of sums of p products with row entries below l stay below, so
    no field carries into the next.  p is the length of a row: at
    digits = 1 there are only rows 0 and 1, as every index in at has
    lowest digit 0 or 1.  Vectors are per class, index i taking cls[i]'s
    entry, spread = (cls, codes); _transform runs on slices 0 and 1 of
    the lowest digit, slice a >= 2 is slice 1 read at codes[a - 2]
    (_slice_codes), and the lowest digit runs only at the indices read."""
    p, (cls, codes) = len(rows[0]), spread
    width = (bound * (p * l) ** digits).bit_length()
    vectors = iter(vectors)
    packed, end = list(next(vectors)), width
    for vec in vectors:
        for i, x in enumerate(vec):
            packed[i] |= x << end
        end += width
    out = [_transform(list(map(packed.__getitem__, cls[a::p])), rows,
                      digits - 1) for a in range(p - len(codes))]
    cols = list(zip(*out, *[map(out[1].__getitem__, c) for c in codes]))
    out = [sum(map(mul, rows[b % p], cols[b // p])) for b in at]
    mask = (1 << width) - 1
    return ([(y >> shift & mask) % l for y in out]
            for shift in range(0, end, width))


def _character_table(K, pats, k):
    """pattern_table through the characters of the window group; p > k.

    chi_b(g) = zeta^<b, log g> runs over the characters of G_k as b runs
    over the q^k indices.  a_d(chi), the sum of chi over the monics of
    degree d, is the transform of the windows below q^d pushed through
    the logarithm for d <= k, and 0 for d > k unless chi is trivial.  The
    log-derivative gives c_N = N a_N - sum_(j<N) a_j c_(N-j), and
    c_N(chi) = sum_(d | N) d pi_d(chi^(N/d)) the prime sums pi_d, where
    chi_b^j = chi_(j b).  Per degree d, Newton's identities turn the
    power sums pi_d(chi^i) into h_m and e_m; per pattern the inverse
    transforms of prod_d h_(c_d) and prod_d e_(c_d) are the total and
    the square-free counts at each log g.  All of it is mod l and runs
    per class (_classes), the transforms on two slices (_batch); the
    inverse is read at the representatives' logs."""
    q, p, n = K.q, K.p, pats[0].n
    digits = K.s * k
    l, zeta = _modulus(p, 2 * q ** n)
    reps, cls, g = _classes(K, k) if k else ([0], [0], None)
    logs = _log_indices(K, k, reps)
    # scale[j % p] takes the class of b to that of j b: scaling by g
    # commutes with the classes' scaling, so scale[g^a] is the a-th power
    # of one class permutation; scale[0] sends all to class 0, alone at k = 0
    need = {j % p for j in range(n + 1)}
    if k:
        step = [cls[c] for c in map(_scaled_codes(
            K, [K.of_int(g)] * k).__getitem__, reps)]
        scale, power, u = {0: [0] * len(reps)}, list(range(len(reps))), 1
        while not need <= scale.keys():
            scale[u] = power
            power, u = [step[i] for i in power], u * g % p
    else:
        scale = dict.fromkeys(need, [0])
    a = []
    if k:       # at k = 0 the transform is the identity
        # zeta^(u x); the reads need rows 0 and 1 alone (_batch)
        z = [pow(zeta, x, l) for x in range(p)]
        fwd = [[z[u * x % p] for x in range(p)]
               for u in range(p if digits > 1 else 2)]
        spread = (cls, _slice_codes(K, k))
        at_log = [w for _, w in sorted(zip(map(cls.__getitem__, logs), reps))]
        hits = ([int(w < top) for w in at_log]
                for top in [q ** d for d in range(1, k + 1)])
        a = list(_batch(hits, fwd, digits, l, 2, reps, spread))
    c = {}
    pi = [None]
    for N in range(1, n + 1):
        acc = [N * x for x in a[N - 1]] if N <= k else [0] * len(reps)
        for j in range(1, min(N - 1, k) + 1):
            acc = [s - x * y for s, x, y in zip(acc, a[j - 1], c[N - j])]
        acc[0] = q ** N             # the trivial character
        acc = c[N] = [s % l for s in acc]
        c.pop(N - k, None)          # the recurrence reads the last k only
        for d in range(1, N):
            if N % d == 0:
                pd = pi[d]
                acc = [s - d * pd[i] for s, i in zip(acc, scale[N // d % p])]
        inv = pow(N, -1, l)
        pi.append([s * inv % l for s in acc])
    del a, c, acc
    # h[d][m] and e[d][m]: the complete and the elementary symmetric
    # functions of degree m in chi(P), P irreducible of degree d
    ones = [1] * len(reps)
    h, e = {}, {}
    for d in range(1, n + 1):
        power = [None] + [[pi[d][i] for i in scale[j % p]]
                          for j in range(1, n // d + 1)]
        hd, ed = [ones], [ones]
        for m in range(1, n // d + 1):
            hs, es = [0] * len(reps), [0] * len(reps)
            for i in range(1, m + 1):
                hs = [s + x * y for s, x, y in zip(hs, power[i], hd[m - i])]
                sign = 1 if i % 2 else -1
                es = [s + sign * x * y
                      for s, x, y in zip(es, power[i], ed[m - i])]
            inv = pow(m, -1, l)
            hd.append([s * inv % l for s in hs])
            ed.append([s * inv % l for s in es])
        h[d], e[d] = hd, ed

    def products(h, e):
        # per pattern prod_d h_(c_d), and prod_d e_(c_d) unless the same,
        # each over q^k, the inverse transform's scale
        for pat in pats:
            for sym in (h,) if max(pat.counts) == 1 else (h, e):
                prod = [pow(len(cls), -1, l)] * len(reps)
                for d, cd in enumerate(pat.counts, 1):
                    if cd:
                        prod = [x * y % l for x, y in zip(prod, sym[d][cd])]
                yield prod

    counts = products(h, e)
    del pi, power, h, e, hd, ed, hs, es     # products holds h and e
    if k:       # they are dropped once packed, before the transform
        back = [row[:1] + row[:0:-1] for row in fwd]    # zeta^(-u x)
        counts = _batch(counts, back, digits, l, l, logs, spread)
    width = 2 * len(pats)
    table = array("q", bytes(8 * len(cls) * width))
    for i, pat in enumerate(pats):
        total = next(counts)
        sqf = total if max(pat.counts) == 1 else next(counts)
        nsq = list(map(sub, total, sqf))
        table[2 * i + 1::width] = array("q", map(sqf.__getitem__, cls))
        table[2 * i::width] = array("q", map(nsq.__getitem__, cls))
    return table


def tally_windows(pats, counts, flags=None):
    """pattern_tally-style dict (counts tuple -> [total, square-free]) of a
    pattern table with the patterns pats summed over the window indices
    whose flag is 1, or over every window if flags is None: per slot its
    strided column, or, as a family flags only q^(n-r-m) of its q^(n-r)
    windows, the flagged windows' rows summed column by column."""
    width = 2 * len(pats)
    if flags is None:
        totals = [sum(counts[s::width]) for s in range(width)]
    else:
        totals = list(map(sum, zip(*[counts[w * width:(w + 1) * width]
                                     for w in compress(count(), flags)])))
    out = {}
    for i, pat in enumerate(pats):
        nsq, sq = totals[2 * i], totals[2 * i + 1]
        if nsq + sq:
            out[pat.counts] = [nsq + sq, sq]
    return out


def family_windows(fam) -> bytearray:
    """Flag per depth-(n - r) window index: 1 iff the window satisfies the
    family's equations, so that its monics are members: each equation's
    value at every index, one pass per digit as in _scaled_codes."""
    K, q = fam.ctx, fam.q
    values = []
    for row, alpha in zip(fam.rows, fam.alpha):
        vals = [alpha]
        for c in row:
            vals = ([K.add(v, cy) for cy in [K.mul(c, y) for y in range(q)]
                     for v in vals] if c else vals * q)
        values.append(vals)
    return bytearray(not any(at) for at in zip(*values))


def family_tally(fam, pats=None) -> dict:
    """The pattern tally of a linear family from the table at depth n - r:
    the sum over the windows that satisfy the family's equations.  The
    table depends on the field, n and r alone, so the first family at a
    (q, n, r) builds it into the field's shared ContextBank and the later
    ones only sum windows; nothing writes to it after it is built.  pats
    is enumerate_patterns(n), formed here if the caller has not."""
    n, k = fam.n, fam.n - fam.r
    pats = pats or enumerate_patterns(n)
    kept = ContextBank.shared(fam.ctx).family_tables
    counts = kept.get((n, k))
    if counts is None:
        counts = kept[n, k] = pattern_table(fam.ctx, pats, k)
    return tally_windows(pats, counts, family_windows(fam))
