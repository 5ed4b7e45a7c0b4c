"""Two-layer finite-field tower with Frobenius and normal-basis data.

Layers: F_p -> F_q = F_p[u]/(g) -> F_(q^i) = F_q[v]/(h_i).  An element of
a layer is an integer code: its dense coefficient vector over the
immediate base field, read as little-endian digits (base p for F_q, base
q for F_(q^i)).  Code order 0, 1, 2, ... doubles as the enumeration order
behind every deterministic choice in the package:

* moduli are the lexicographically smallest monic irreducibles, comparing
  coefficient tuples highest degree first (constant term varies fastest);
* a normal element is the first code whose Frobenius conjugates are
  linearly independent over F_q.

FieldParams and ExtCtx share one scalar protocol (add/sub/mul/neg/inv/
pow_/of_int on codes) so the dense polynomial kernels and the matrix
helpers below work over either layer.  Extension layers optionally carry
discrete-log tables, built lazily (ensure_fast), which turn their
arithmetic into table lookups for exhaustive scans; no layer is over
ORDER_LIMIT, so every layer can have them.
"""

from __future__ import annotations

import itertools

from ._dense import (padd, peval, pgcd, pmod, pmul, ppowmod,
                     pscale, psub, trim)

ORDER_LIMIT = 1 << 20     # largest layer order the constructors accept
_TABLE_MAX_PRIME = 1024   # op-table cutoffs for base layers
_TABLE_MAX_EXT = 128


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def _prime_factors(n: int) -> list[int]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


class FieldParams:
    """The base layer F_q = F_p[u]/(g), elements as integer codes.

    For s == 1 the modulus is None and codes are residues mod p.  For
    s > 1 a code encodes (a_0, ..., a_(s-1)) as sum a_j p^j, with g monic
    of degree s stored as the tuple (g_0, ..., g_(s-1)) of its non-leading
    coefficients over F_p.  Small fields get flat add/mul lookup tables.
    """

    def __init__(self, p, s=1, modulus=None, prime_ctx=None):
        self.p = p
        self.s = s
        self.q = p ** s
        self.modulus = None if modulus is None else tuple(modulus)
        if s > 1:
            if self.modulus is None or len(self.modulus) != s:
                raise ValueError("degree-s modulus required when s > 1")
            self._prime = prime_ctx if prime_ctx is not None else FieldParams(p, 1)
        else:
            self._prime = None
        self._addt = self._mult = self._negt = self._invt = None
        limit = _TABLE_MAX_PRIME if s == 1 else _TABLE_MAX_EXT
        if self.q <= limit:
            self._build_tables()

    # -- representation ------------------------------------------------

    def to_vec(self, a):
        digits = []
        for _ in range(self.s):
            digits.append(a % self.p)
            a //= self.p
        return tuple(digits)

    def from_vec(self, digits):
        a = 0
        for d in reversed(digits):
            a = a * self.p + d
        return a

    def elements(self):
        return range(self.q)

    # -- scalar protocol -----------------------------------------------

    def add(self, a, b):
        t = self._addt
        if t is not None:
            return t[a * self.q + b]
        if self.s == 1:
            return (a + b) % self.p
        return self._vec_add(a, b)

    def neg(self, a):
        t = self._negt
        if t is not None:
            return t[a]
        if self.s == 1:
            return (-a) % self.p
        K = self._prime
        return self.from_vec([K.neg(d) for d in self.to_vec(a)])

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def mul(self, a, b):
        t = self._mult
        if t is not None:
            return t[a * self.q + b]
        if self.s == 1:
            return (a * b) % self.p
        return self._vec_mul(a, b)

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        t = self._invt
        if t is not None:
            return t[a]
        return self.pow_(a, self.q - 2)

    def pow_(self, a, e):
        if e < 0:
            return self.pow_(self.inv(a), -e)
        if a == 0:
            return 0 if e else 1
        e %= self.q - 1
        result = 1
        while e:
            if e & 1:
                result = self.mul(result, a)
            e >>= 1
            if e:
                a = self.mul(a, a)
        return result

    def of_int(self, k):
        return k % self.p

    def root_p(self, a):
        """The unique p-th root of a (inverse of x -> x^p)."""
        return self.pow_(a, self.p ** (self.s - 1))

    # -- internals -----------------------------------------------------

    def _vec_add(self, a, b):
        K = self._prime
        return self.from_vec([K.add(x, y)
                              for x, y in zip(self.to_vec(a), self.to_vec(b))])

    def _vec_mul(self, a, b):
        K = self._prime
        prod = pmul(K, trim(list(self.to_vec(a))), trim(list(self.to_vec(b))))
        full = list(self.modulus) + [1]
        red = pmod(K, prod, full)
        return self.from_vec(red + [0] * (self.s - len(red)))

    def _build_tables(self):
        q = self.q
        if self.s == 1:
            p = self.p
            self._addt = [(a + b) % p for a in range(q) for b in range(q)]
            self._mult = [(a * b) % p for a in range(q) for b in range(q)]
            self._negt = [(-a) % p for a in range(q)]
        else:
            self._addt = [self._vec_add(a, b) for a in range(q) for b in range(q)]
            self._mult = [self._vec_mul(a, b) for a in range(q) for b in range(q)]
            K = self._prime
            self._negt = [self.from_vec([K.neg(d) for d in self.to_vec(a)])
                          for a in range(q)]
        invt = [0] * q
        for a in range(1, q):
            row = self._mult[a * q:(a + 1) * q]
            invt[a] = row.index(1)
        self._invt = invt

    def __eq__(self, other):
        return (isinstance(other, FieldParams)
                and (self.p, self.s, self.modulus) == (other.p, other.s, other.modulus))

    def __hash__(self):
        return hash((self.p, self.s, self.modulus))

    def __repr__(self):
        if self.s == 1:
            return f"FieldParams(p={self.p})"
        return f"FieldParams(p={self.p}, s={self.s}, g={self.modulus})"


def make_field(p, s=1) -> FieldParams:
    """Construct F_(p^s) with the lexicographically smallest modulus."""
    if not isinstance(p, int) or not isinstance(s, int):
        raise ValueError("p and s must be integers")
    if not _is_prime(p):
        raise ValueError(f"p = {p} is not prime")
    if s < 1:
        raise ValueError("s must be >= 1")
    if p ** s > ORDER_LIMIT:
        raise ValueError(f"field order {p}^{s} exceeds the {ORDER_LIMIT} limit")
    prime = FieldParams(p, 1)
    if s == 1:
        return prime
    g = find_irreducible(prime, s)
    return FieldParams(p, s, g[:-1], prime_ctx=prime)


def _is_irreducible(K, full, q):
    """Rabin's test for a monic polynomial (full coefficient list) over F_q."""
    d = len(full) - 1
    if d == 1:
        return True
    xq = ppowmod(K, [0, 1], q, full)
    # Powers of T^q mod f turn w -> w^q mod f into an F_q-linear combination.
    pows = [[1]]
    for _ in range(d - 1):
        pows.append(pmod(K, pmul(K, pows[-1], xq), full))

    def frob_app(w):
        out = []
        for j, c in enumerate(w):
            if c:
                out = padd(K, out, pscale(K, pows[j], c))
        return out

    checkpoints = {d // l for l in _prime_factors(d)}
    t = xq
    for e in range(1, d):
        if e in checkpoints:
            g = pgcd(K, psub(K, t, [0, 1]), full)
            if len(g) > 1:
                return False
        t = frob_app(t)
    return t == [0, 1]


def find_irreducible(field: FieldParams, d: int) -> tuple:
    """Lexicographically smallest monic irreducible of degree d over field.

    Returns the full coefficient tuple (c_0, ..., c_(d-1), 1).  Candidate
    order compares (c_(d-1), ..., c_0), so the constant term varies fastest.
    """
    if d < 1:
        raise ValueError("degree must be >= 1")
    q = field.q
    for code in range(q ** d):
        digits = []
        c = code
        for _ in range(d):
            digits.append(c % q)
            c //= q
        full = digits + [1]
        if _is_irreducible(field, full, q):
            return tuple(full)
    raise RuntimeError("no irreducible found")  # unreachable


# -- matrix helpers over any scalar context ---------------------------------


def mat_rank(K, rows) -> int:
    rows = [list(r) for r in rows]
    if not rows:
        return 0
    ncols = len(rows[0])
    rank = 0
    for col in range(ncols):
        piv = None
        for r in range(rank, len(rows)):
            if rows[r][col] != 0:
                piv = r
                break
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = K.inv(rows[rank][col])
        rows[rank] = [K.mul(inv, x) for x in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][col] != 0:
                f = rows[r][col]
                rows[r] = [K.sub(x, K.mul(f, y)) for x, y in zip(rows[r], rows[rank])]
        rank += 1
        if rank == len(rows):
            break
    return rank


def mat_nullspace(K, rows):
    """Basis of the right kernel, deterministic (RREF with leftmost pivots)."""
    rows = [list(r) for r in rows]
    ncols = len(rows[0]) if rows else 0
    pivots = []
    rank = 0
    for col in range(ncols):
        piv = None
        for r in range(rank, len(rows)):
            if rows[r][col] != 0:
                piv = r
                break
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = K.inv(rows[rank][col])
        rows[rank] = [K.mul(inv, x) for x in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][col] != 0:
                f = rows[r][col]
                rows[r] = [K.sub(x, K.mul(f, y)) for x, y in zip(rows[r], rows[rank])]
        pivots.append(col)
        rank += 1
    basis = []
    free = [c for c in range(ncols) if c not in pivots]
    for fc in free:
        vec = [0] * ncols
        vec[fc] = 1
        for r, pc in enumerate(pivots):
            vec[pc] = K.neg(rows[r][fc])
        basis.append(tuple(vec))
    return basis


def check_order(q: int, i: int) -> None:
    """Raise ValueError if the layer F_(q^i) is over ORDER_LIMIT."""
    if q ** i > ORDER_LIMIT:
        raise ValueError(f"extension order {q}^{i} exceeds the {ORDER_LIMIT} limit")


class ExtCtx:
    """Extension layer F_(q^i) = F_q[v]/(h) with normal-basis data.

    theta is the first code whose Frobenius conjugates form an F_q-basis;
    conj[t] = theta^(q^t).  A[k][h] = theta^(q^(k+h mod i)) sends the
    coordinate vector of an element in the conjugate basis to its Galois
    orbit under sigma^k, one automorphism per row.  F_q sits inside as
    the codes below q.
    """

    def __init__(self, base: FieldParams, i: int, modulus=None):
        if i < 1:
            raise ValueError("extension degree must be >= 1")
        check_order(base.q, i)
        self.base = base
        self.i = i
        self.q = base.q
        self.order = base.q ** i
        if modulus is None:
            modulus = find_irreducible(base, i)[:-1]
        self.modulus = tuple(modulus)
        if len(self.modulus) != i:
            raise ValueError("modulus degree must equal the extension degree")
        self._red = self._reduction_rows()
        self._exp = self._log = self._zech = None
        self._qpow = None
        self._init_normal_basis()

    # -- representation ------------------------------------------------

    def to_vec(self, x):
        digits = []
        for _ in range(self.i):
            digits.append(x % self.q)
            x //= self.q
        return tuple(digits)

    def from_vec(self, digits):
        x = 0
        for d in reversed(digits):
            x = x * self.q + d
        return x

    def elements(self):
        return range(self.order)

    def in_base(self, x):
        """True iff x lies in F_q (codes below q, the constant digits)."""
        return x < self.q

    def to_base(self, x):
        if x >= self.q:
            raise ValueError(f"code {x} is not in the base field")
        return x

    def of_int(self, k):
        return k % self.base.p

    # -- scalar protocol -----------------------------------------------

    def add(self, x, y):
        exp = self._exp
        if exp is not None:
            if x == 0:
                return y
            if y == 0:
                return x
            log = self._log
            lx = log[x]
            z = self._zech[(log[y] - lx) % (self.order - 1)]
            return 0 if z < 0 else exp[(lx + z) % (self.order - 1)]
        q = self.q
        out = 0
        mult = 1
        badd = self.base.add
        for _ in range(self.i):
            out += badd(x % q, y % q) * mult
            x //= q
            y //= q
            mult *= q
        return out

    def neg(self, x):
        if self.base.p == 2:
            return x
        q = self.q
        out = 0
        mult = 1
        bneg = self.base.neg
        for _ in range(self.i):
            out += bneg(x % q) * mult
            x //= q
            mult *= q
        return out

    def sub(self, x, y):
        return self.add(x, self.neg(y))

    def mul(self, x, y):
        exp = self._exp
        if exp is not None:
            if x == 0 or y == 0:
                return 0
            log = self._log
            return exp[(log[x] + log[y]) % (self.order - 1)]
        if x == 0 or y == 0:
            return 0
        return self.from_vec(self._mul_digits(self.to_vec(x), self.to_vec(y)))

    def inv(self, x):
        if x == 0:
            raise ZeroDivisionError("inverse of zero")
        if self._exp is not None:
            M = self.order - 1
            return self._exp[(M - self._log[x]) % M]
        return self.pow_(x, self.order - 2)

    def pow_(self, x, e):
        if e < 0:
            return self.pow_(self.inv(x), -e)
        if x == 0:
            return 0 if e else 1
        M = self.order - 1
        e %= M
        if self._exp is not None:
            return self._exp[(self._log[x] * e) % M]
        result = 1
        while e:
            if e & 1:
                result = self.mul(result, x)
            e >>= 1
            if e:
                x = self.mul(x, x)
        return result

    def frobenius(self, x, k=1):
        """The k-th power of the relative Frobenius x -> x^q."""
        k %= self.i
        if k == 0 or x == 0 or x == 1:
            return x
        if self._exp is not None:
            M = self.order - 1
            return self._exp[(self._log[x] * self._qpow[k]) % M]
        return self.pow_(x, self.q ** k)

    # -- internals -----------------------------------------------------

    def _reduction_rows(self):
        # rows[t] = digit vector of v^(i+t), t = 0 .. i-2
        base = self.base
        rows = []
        cur = [base.neg(c) for c in self.modulus]
        for _ in range(self.i - 1):
            rows.append(tuple(cur))
            top = cur[-1]
            cur = [0] + cur[:-1]
            if top:
                cur = [base.add(cj, base.mul(top, rj))
                       for cj, rj in zip(cur, rows[0])]
        return tuple(rows)

    def _mul_digits(self, xd, yd):
        base = self.base
        badd, bmul = base.add, base.mul
        i = self.i
        conv = [0] * (2 * i - 1)
        for a, xa in enumerate(xd):
            if xa == 0:
                continue
            for b, yb in enumerate(yd):
                if yb:
                    conv[a + b] = badd(conv[a + b], bmul(xa, yb))
        for t in range(2 * i - 2, i - 1, -1):
            c = conv[t]
            if c:
                row = self._red[t - i]
                for j in range(i):
                    if row[j]:
                        conv[j] = badd(conv[j], bmul(c, row[j]))
        return conv[:i]

    def _init_normal_basis(self):
        i = self.i
        base = self.base
        add, sub, mul = base.add, base.sub, base.mul
        # x -> x^q is F_q-linear; frob[r] is row r of its matrix, whose
        # column j holds the digits of (v^j)^q
        cols = [self.to_vec(self.frobenius(self.q ** j, 1)) for j in range(i)]
        frob = [[col[r] for col in cols] for r in range(i)]
        for cand in range(self.order):
            # conjugates by matrix-vector products, each reduced against
            # the echelon rows of the earlier ones; stop at a dependent one
            x = self.to_vec(cand)
            conj = [x]
            echelon = []
            while True:
                v = list(x)
                for col, row in echelon:
                    c = v[col]
                    if c:
                        v = [sub(a, mul(c, b)) for a, b in zip(v, row)]
                piv = next((j for j, c in enumerate(v) if c), None)
                if piv is None or len(conj) == i:
                    break
                inv = base.inv(v[piv])
                echelon.append((piv, [mul(inv, c) for c in v]))
                nxt = []
                for row in frob:
                    acc = 0
                    for f, c in zip(row, x):
                        if f and c:
                            acc = add(acc, mul(f, c))
                    nxt.append(acc)
                x = tuple(nxt)
                conj.append(x)
            if piv is not None:         # all i conjugates independent
                self.theta = cand
                self.conj = tuple(self.from_vec(r) for r in conj)
                break
        else:  # pragma: no cover - a normal basis always exists
            raise RuntimeError("no normal element found")
        self.A = tuple(tuple(self.conj[(k + h) % i] for h in range(i))
                       for k in range(i))

    def ensure_fast(self):
        """Build the exp/log/Zech tables, once."""
        if self._exp is not None:
            return
        M = self.order - 1
        fac = _prime_factors(M)
        gen = None
        # from 1, so that F_2, whose unit group is {1}, gets its tables
        for cand in range(1, self.order):
            if all(self.pow_(cand, M // f) != 1 for f in fac):
                gen = cand
                break
        if gen is None:  # pragma: no cover - the unit group is cyclic
            raise RuntimeError("no generator found")
        exp = [0] * M
        log = [-1] * self.order
        gd = self.to_vec(gen)
        cur = list(self.to_vec(1))
        for k in range(M):
            code = self.from_vec(cur)
            exp[k] = code
            log[code] = k
            cur = self._mul_digits(cur, gd)
        q = self.q
        badd = self.base.add
        zech = [0] * M
        for k in range(M):
            s = exp[k]
            d0 = s % q
            s2 = s - d0 + badd(d0, 1)
            zech[k] = log[s2] if s2 else -1
        self._exp, self._log, self._zech = exp, log, zech
        self._qpow = [pow(q, k, M) for k in range(self.i)]

    def __eq__(self, other):
        return (isinstance(other, ExtCtx)
                and self.base == other.base
                and (self.i, self.modulus) == (other.i, other.modulus))

    def __hash__(self):
        return hash((self.base, self.i, self.modulus))

    def __repr__(self):
        return f"ExtCtx(q={self.q}, i={self.i}, h={self.modulus}, theta={self.theta})"


class Embedding:
    """The F_q-algebra embedding F_(q^i) -> F_(q^N) for i dividing N.

    The image of the source generator v_i is the smallest-code root of the
    source modulus inside the degree-i subfield of the target, which makes
    the embedding deterministic.  No scan uses it (each works in the layers
    of its window sizes); perfbench/layers.py still wraps its constructor.
    """

    def __init__(self, src: ExtCtx, dst: ExtCtx):
        if src.base != dst.base:
            raise ValueError("embeddings need a common base field")
        if dst.i % src.i != 0:
            raise ValueError(f"F_(q^{src.i}) does not embed in F_(q^{dst.i})")
        self.src = src
        self.dst = dst
        if src.i == dst.i:
            self._rho_pows = None  # identity
            return
        base = src.base
        # The degree-i subfield is the fixed space of x -> x^(q^i),
        # an F_q-linear map; take its kernel basis and enumerate.
        d = dst.i
        cols = []
        for j in range(d):
            img = dst.frobenius(dst.from_vec([0] * j + [1] + [0] * (d - j - 1)),
                                src.i)
            cols.append(dst.to_vec(img))
        rows = [[base.sub(cols[j][r], 1 if j == r else 0) for j in range(d)]
                for r in range(d)]
        kernel = mat_nullspace(base, rows)
        if len(kernel) != src.i:  # pragma: no cover - subfield dimension is i
            raise RuntimeError("unexpected subfield dimension")
        span = [dst.from_vec(vec) for vec in kernel]
        h_full = list(src.modulus) + [1]
        roots = []
        for combo in itertools.product(range(src.q), repeat=len(span)):
            x = 0
            for c, b in zip(combo, span):
                if c:
                    x = dst.add(x, dst.mul(c, b))
            if peval(dst, h_full, x) == 0:
                roots.append(x)
        if len(roots) != src.i:  # pragma: no cover - h splits in its subfield
            raise RuntimeError("modulus did not split in the subfield")
        rho = min(roots)
        pows = [1]
        for _ in range(src.i - 1):
            pows.append(dst.mul(pows[-1], rho))
        self._rho_pows = tuple(pows)

    def map(self, x):
        if self._rho_pows is None:
            return x
        dst = self.dst
        out = 0
        for digit, rp in zip(self.src.to_vec(x), self._rho_pows):
            if digit:
                out = dst.add(out, dst.mul(digit, rp))
        return out


_SHARED_BANKS: dict = {}


class ContextBank:
    """Deterministic cache of extension layers over one base field."""

    def __init__(self, base: FieldParams):
        self.base = base
        self._ctx: dict[int, ExtCtx] = {}
        self._emb: dict[tuple[int, int], Embedding] = {}

    @classmethod
    def shared(cls, base: FieldParams) -> "ContextBank":
        key = (base.p, base.s, base.modulus)
        bank = _SHARED_BANKS.get(key)
        if bank is None:
            bank = cls(base)
            _SHARED_BANKS[key] = bank
        return bank

    def get(self, i: int) -> ExtCtx:
        ctx = self._ctx.get(i)
        if ctx is None:
            ctx = ExtCtx(self.base, i)
            self._ctx[i] = ctx
        return ctx

    def embedding(self, i: int, n: int) -> Embedding:
        key = (i, n)
        emb = self._emb.get(key)
        if emb is None:
            emb = Embedding(self.get(i), self.get(n))
            self._emb[key] = emb
        return emb

    def override(self, i: int, ctx: ExtCtx) -> None:
        """Test hook: install a hand-built layer (e.g. with corrupted data)."""
        self._ctx[i] = ctx
        self._emb = {k: v for k, v in self._emb.items() if i not in k}
