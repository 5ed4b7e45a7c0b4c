"""Monic polynomials over F_q and factorization-pattern extraction.

A MonicPoly of degree n stores the tuple (c_0, ..., c_(n-1)) of
f = T^n + c_(n-1) T^(n-1) + ... + c_0; the leading 1 is implicit.
Pattern extraction never splits factors of equal degree: a square-free
decomposition handles multiplicities (taking p-th roots when the
derivative vanishes) and a distinct-degree stage only counts how many
irreducible factors of each degree occur.
"""

from __future__ import annotations

from ._dense import pderiv, peval, pgcd, pmod, pmul, ppowmod, pquo, trim


class MonicPoly:
    """A monic univariate polynomial tied to its coefficient field."""

    __slots__ = ("ctx", "coeffs")

    def __init__(self, ctx, coeffs):
        coeffs = tuple(coeffs)
        q = ctx.q
        for c in coeffs:
            if not 0 <= c < q:
                raise ValueError(f"coefficient code {c} out of range for q={q}")
        self.ctx = ctx
        self.coeffs = coeffs

    @classmethod
    def from_full(cls, ctx, full):
        full = trim(list(full))
        if not full or full[-1] != 1:
            raise ValueError("polynomial is not monic")
        return cls(ctx, full[:-1])

    @classmethod
    def irreducible(cls, ctx, d):
        from .ffield import find_irreducible
        return cls(ctx, find_irreducible(ctx, d)[:-1])

    @property
    def degree(self):
        return len(self.coeffs)

    def full(self):
        """Dense coefficient list including the leading 1."""
        return list(self.coeffs) + [1]

    def _check(self, other):
        if not isinstance(other, MonicPoly):
            raise TypeError("expected a MonicPoly")
        if self.ctx is not other.ctx and self.ctx != other.ctx:
            raise ValueError("context mismatch")

    def mul(self, other):
        self._check(other)
        return MonicPoly.from_full(self.ctx, pmul(self.ctx, self.full(), other.full()))

    def mod(self, other):
        self._check(other)
        return pmod(self.ctx, self.full(), other.full())

    def gcd(self, other):
        self._check(other)
        g = pgcd(self.ctx, self.full(), other.full())
        return MonicPoly.from_full(self.ctx, g)

    def derivative(self):
        return pderiv(self.ctx, self.full())

    def eval(self, x):
        return peval(self.ctx, self.full(), x)

    def __eq__(self, other):
        return (isinstance(other, MonicPoly)
                and self.ctx == other.ctx and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        terms = [f"T^{self.degree}"]
        for k in range(self.degree - 1, -1, -1):
            c = self.coeffs[k]
            if c:
                terms.append(f"{c}*T^{k}" if k else str(c))
        return " + ".join(terms)


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


def squarefree_decompose(f: MonicPoly) -> list:
    """[(g, k)] with f = prod g^k, the g square-free, monic and coprime.

    Deterministic order: by multiplicity, then by coefficient tuple.
    """
    if f.degree < 1:
        return []
    out: dict = {}
    _sfd_accumulate(f.ctx, f.full(), 1, out)
    items = sorted(out.items(), key=lambda kv: (kv[1], kv[0]))
    return [(MonicPoly.from_full(f.ctx, list(g)), k) for g, k in items]


def is_squarefree(f: MonicPoly) -> bool:
    """gcd(f, f') test; a vanishing derivative means a p-th power factor."""
    if f.degree < 1:
        return True
    d = f.derivative()
    if not d:
        return False
    return len(pgcd(f.ctx, f.full(), d)) == 1


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

