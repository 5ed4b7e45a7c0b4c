"""Square-free decomposition and factorization patterns over F_q.

A monic f = T^n + c_(n-1) T^(n-1) + ... + c_0 is its full coefficient
list [c_0, ..., c_(n-1), 1], the dense form of _dense, everywhere in the
package.  Pattern extraction never splits factors of equal degree: a
square-free decomposition handles multiplicities (taking p-th roots when
the derivative vanishes) and a distinct-degree stage only counts how
many irreducible factors of each degree occur.
"""

from __future__ import annotations

from ._dense import pderiv, pgcd, pmod, ppowmod, pquo, trim


def _pth_root_poly(K, full):
    """For f with f' = 0, the g with g(T)^p = f(T)."""
    p = K.p
    out = []
    for j in range(0, len(full), p):
        out.append(K.root_p(full[j]))
    for j, c in enumerate(full):
        if j % p and c:
            raise ArithmeticError("not a p-th power despite zero derivative")
    return out


def _sfd_accumulate(K, full, mult, out):
    """Yun-style square-free decomposition, recursing through p-th powers.

    Accumulates into out: coeff-tuple of each square-free part -> its
    exact multiplicity in the original polynomial.
    """
    d = pderiv(K, full)
    if not d:
        _sfd_accumulate(K, _pth_root_poly(K, full), mult * K.p, out)
        return
    c = pgcd(K, full, d)
    w = pquo(K, full, c)
    k = 1
    while len(w) > 1:
        y = pgcd(K, w, c)
        fac = pquo(K, w, y)
        if len(fac) > 1:
            key = tuple(fac)
            out[key] = out.get(key, 0) + mult * k
        w = y
        c = pquo(K, c, y)
        k += 1
    if len(c) > 1:
        _sfd_accumulate(K, _pth_root_poly(K, c), mult * K.p, out)


def squarefree_decompose(K, full) -> list:
    """[(g, k)] with f = prod g^k for the monic f with coefficient list
    full over K: the g square-free, monic, coprime full lists.

    Deterministic order: by multiplicity, then by coefficients.
    """
    if len(full) < 2:
        return []
    out: dict = {}
    _sfd_accumulate(K, full, 1, out)
    items = sorted(out.items(), key=lambda kv: (kv[1], kv[0]))
    return [(list(g), k) for g, k in items]


def is_squarefree(K, full) -> bool:
    """gcd(f, f') test; a vanishing derivative means a p-th power factor."""
    if len(full) < 2:
        return True
    d = pderiv(K, full)
    if not d:
        return False
    return len(pgcd(K, full, d)) == 1


def _ddf_degree_counts(K, q, g):
    """For square-free monic g, the map degree -> number of irreducible
    factors of that degree, found by gcds with T^(q^d) - T."""
    counts: dict[int, int] = {}
    v = list(g)
    w = pmod(K, [0, 1], v)
    d = 0
    while len(v) - 1 >= 2 * (d + 1):
        d += 1
        w = ppowmod(K, w, q, v)
        u = pgcd(K, _sub_x(K, w), v)
        if len(u) > 1:
            deg_u = len(u) - 1
            counts[d] = counts.get(d, 0) + deg_u // d
            v = pquo(K, v, u)
            w = pmod(K, w, v)
    if len(v) > 1:
        deg_v = len(v) - 1
        counts[deg_v] = counts.get(deg_v, 0) + 1
    return counts


def _sub_x(K, w):
    out = list(w) + [0] * (2 - len(w))
    out[1] = K.sub(out[1], 1)
    return trim(out)


def pattern_of_coeffs(K, full):
    """(counts, squarefree) for a monic dense coefficient list over K.

    This is the census kernel, which factors one polynomial at a time:
    one gcd decides square-freeness, then the square-free decomposition
    and degree counts are combined without ever splitting equal-degree
    factors.  Censuses of large-codimension families run it per member;
    elsewhere the pattern table (tables.py) counts by multiplying
    irreducibles instead, and the tests hold that table to this kernel.
    """
    n = len(full) - 1
    if n < 1:
        raise ValueError("pattern extraction needs degree >= 1")
    if full[-1] != 1:
        raise ValueError("pattern extraction needs a monic polynomial")
    counts = [0] * n
    d = pderiv(K, full)
    if d:
        c = pgcd(K, full, d)
        if len(c) == 1:
            for deg, cnt in _ddf_degree_counts(K, K.q, full).items():
                counts[deg - 1] += cnt
            return tuple(counts), True
    parts: dict = {}
    _sfd_accumulate(K, full, 1, parts)
    for g, k in parts.items():
        for deg, cnt in _ddf_degree_counts(K, K.q, list(g)).items():
            counts[deg - 1] += k * cnt
    return tuple(counts), False

