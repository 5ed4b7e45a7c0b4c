"""Two-layer finite-field tower with Frobenius and normal-basis data.

Layers: F_p -> F_q = F_p[u]/(g) -> F_(q^i) = F_q[v]/(h_i).  An element of
a layer is an integer code: its dense coefficient vector over the
immediate base field, read as little-endian digits (base p for F_q, base
q for F_(q^i)).  Code order 0, 1, 2, ... doubles as the enumeration order
behind every deterministic choice in the package:

* moduli are the lexicographically smallest monic irreducibles, comparing
  coefficient tuples highest degree first (constant term varies fastest);
* a normal element is the first code whose Frobenius conjugates are
  linearly independent over F_q.  The search, in code order, skips a
  block of codes when the smallest Frobenius-invariant subspace that
  contains the block is proper: the block's codes and their conjugates
  all lie in it, so none is normal, and the first normal code is never
  skipped (ExtCtx._init_normal_basis).

FieldParams and ExtCtx share one scalar protocol (add/sub/mul/neg/inv/
pow_/of_int on codes) so the dense polynomial kernels and the matrix
helpers below work over either layer.  Both layers are a base field
extended by a monic modulus, so they share one digit arithmetic
(_Digits): the codec, digit-by-digit add and neg, the multiply by
reduction rows, square-and-multiply and the Fermat inverse.  What stays
per layer is the fast path in front of it.  Prime fields and base layers
of order up to _TABLE_MAX_PRIME and _TABLE_MAX_EXT carry flat add/mul
tables; extension layers optionally carry discrete-log (Zech) tables,
built lazily (ensure_fast: (q^i - 1)/(q - 1) powers of a generator,
the rest by scaling), which turn add and mul into table lookups for
exhaustive scans.  A layer of any order can be built; only its tables
are limited, to layers of order at most ORDER_LIMIT.
"""

from __future__ import annotations

import itertools

from ._dense import padd, peval, pgcd, pmod, pmul, ppowmod, pscale, psub

ORDER_LIMIT = 1 << 20     # largest order of a field or of a tabled layer
_TABLE_MAX_PRIME = 256    # op-table cutoffs for base layers; past CPython's
_TABLE_MAX_EXT = 128      # small ints, prime tables are no faster than % p


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


def _is_prime(n: int) -> bool:
    return n >= 2 and _prime_factors(n) == [n]


def _to_vec(code, radix, width):
    """The width little-endian base-radix digits of code: the one codec
    of the package, for layer elements, windows and candidate moduli."""
    digits = []
    for _ in range(width):
        code, d = divmod(code, radix)
        digits.append(d)
    return tuple(digits)


def _from_vec(digits, radix):
    code = 0
    for d in reversed(digits):
        code = code * radix + d
    return code


def _span(cols, width, q, add, mul):
    """sum_j c_j cols[j] for every (c_j) in F_q^len(cols), in product
    order (the first column most significant), each a width-tuple on
    whose entries add and mul act: the table of an F_q-linear map over
    every vector of one coordinate block, from its columns."""
    out = [(0,) * width]
    for col in cols:
        steps = [tuple([mul(c, y) for y in col]) for c in range(q)]
        out = [tuple(map(add, o, t)) for o in out for t in steps]
    return out


def _scaled_codes(K, scalars):
    """The code of (s_1 v_1, ..., s_w v_w) for each vector v of F_q^w, by
    the code of v (both in product order), scalars = (s_1, ..., s_w)."""
    codes = [0]
    for s in scalars:
        scale = [K.mul(s, c) for c in range(K.q)]
        codes = [code * K.q + t for code in codes for t in scale]
    return codes


class _Digits:
    """Polynomial-basis arithmetic of a layer F[v]/(h), shared by both
    layers of the tower: the scalar protocol without tables.  F is
    self._coef with self._radix elements, a code holds self._width digits
    over F, h is monic with non-leading coefficients self.modulus, and
    self._red holds its reduction rows.  Each layer puts its own fast
    path in front of add and mul, and the base layer also in front of
    neg and inv (a Fermat power); pow_ is square-and-multiply over mul."""

    def to_vec(self, a):
        return _to_vec(a, self._radix, self._width)

    def from_vec(self, digits):
        return _from_vec(digits, self._radix)

    def add(self, a, b):
        r = self._radix
        badd = self._coef.add
        out = 0
        mult = 1
        for _ in range(self._width):
            out += badd(a % r, b % r) * mult
            a //= r
            b //= r
            mult *= r
        return out

    def neg(self, a):
        if self._coef.p == 2:
            return a
        r = self._radix
        bneg = self._coef.neg
        out = 0
        mult = 1
        for _ in range(self._width):
            out += bneg(a % r) * mult
            a //= r
            mult *= r
        return out

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def mul(self, a, b):
        if a == 0 or b == 0:
            return 0
        return self.from_vec(self._mul_digits(self.to_vec(a), self.to_vec(b)))

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return self.pow_(a, self._radix ** self._width - 2)

    def pow_(self, a, e):
        if e < 0:
            return self.pow_(self.inv(a), -e)
        if a == 0:
            return 0 if e else 1
        e %= self._radix ** self._width - 1
        result = 1
        while e:
            if e & 1:
                result = self.mul(result, a)
            e >>= 1
            if e:
                a = self.mul(a, a)
        return result

    def _reduction_rows(self):
        # rows[t] = digit vector of v^(i+t), t = 0 .. i-2
        base = self._coef
        rows = []
        cur = [base.neg(c) for c in self.modulus]
        for _ in range(self._width - 1):
            rows.append(tuple(cur))
            top = cur[-1]
            cur = [0] + cur[:-1]
            if top:
                cur = [base.add(cj, base.mul(top, rj))
                       for cj, rj in zip(cur, rows[0])]
        return tuple(rows)

    def _mul_digits(self, xd, yd):
        base = self._coef
        badd, bmul = base.add, base.mul
        i = self._width
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


class FieldParams(_Digits):
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
        self._radix, self._width = p, s
        self._coef = self._red = None
        if s > 1:
            if self.modulus is None or len(self.modulus) != s:
                raise ValueError("degree-s modulus required when s > 1")
            self._coef = prime_ctx if prime_ctx is not None else FieldParams(p, 1)
            self._red = self._reduction_rows()
        self._addt = self._mult = self._negt = self._invt = None
        limit = _TABLE_MAX_PRIME if s == 1 else _TABLE_MAX_EXT
        if self.q <= limit:
            self._build_tables()

    # -- scalar protocol -----------------------------------------------

    def add(self, a, b):
        t = self._addt
        if t is not None:
            return t[a * self.q + b]
        if self.s == 1:
            return (a + b) % self.p
        return super().add(a, b)

    def neg(self, a):
        t = self._negt
        if t is not None:
            return t[a]
        if self.s == 1:
            return (-a) % self.p
        return super().neg(a)

    def mul(self, a, b):
        t = self._mult
        if t is not None:
            return t[a * self.q + b]
        if self.s == 1:
            return (a * b) % self.p
        return super().mul(a, b)

    def inv(self, a):
        t = self._invt
        if t is not None and a:
            return t[a]
        if self.s == 1 and a:
            return pow(a, self.p - 2, self.p)
        return super().inv(a)

    def of_int(self, k):
        return k % self.p

    def root_p(self, a):
        """The unique p-th root of a (inverse of x -> x^p)."""
        return self.pow_(a, self.p ** (self.s - 1))

    # -- internals -----------------------------------------------------

    def _build_tables(self):
        q = self.q
        r = range(q)
        if self.s == 1:
            p = self.p
            self._addt = [(a + b) % p for a in r for b in r]
            self._mult = [(a * b) % p for a in r for b in r]
            self._negt = [(-a) % p for a in r]
        else:
            # the untabled paths, as each table is None while it is built
            self._addt = [self.add(a, b) for a in r for b in r]
            self._mult = [self.mul(a, b) for a in r for b in r]
            self._negt = [self.neg(a) for a in r]
        self._invt = [0] + [self._mult[a * q:(a + 1) * q].index(1)
                            for a in range(1, q)]

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
    if s < 1:
        raise ValueError("s must be >= 1")
    # the limit before the primality test, whose trial division is slow
    # for a large p; any s past the limit's bit length is over it
    if p >= 2 and (s > ORDER_LIMIT.bit_length() or p ** s > ORDER_LIMIT):
        raise ValueError(f"field order {p}^{s} exceeds the {ORDER_LIMIT} limit")
    if not _is_prime(p):
        raise ValueError(f"p = {p} is not prime")
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
        full = [*_to_vec(code, q, d), 1]
        if _is_irreducible(field, full, q):
            return tuple(full)
    raise RuntimeError("no irreducible found")  # unreachable


# -- matrix helpers over any scalar context ---------------------------------


def rref(K, rows, cols):
    """Reduced row echelon form over K with pivots taken in the column
    order cols: (rows, pivots), the pivot rows first in pivot order, each
    with a 1 in its pivot column and that column 0 in every other row.
    For a given column order the result is unique."""
    rows = [list(r) for r in rows]
    pivots = []
    for col in cols:
        rank = len(pivots)
        if rank == len(rows):
            break
        piv = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
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
    return rows, pivots


def mat_rank(K, rows) -> int:
    return len(rref(K, rows, range(len(rows[0]) if rows else 0))[1])


def mat_nullspace(K, rows):
    """Basis of the right kernel, deterministic (RREF with leftmost pivots)."""
    ncols = len(rows[0]) if rows else 0
    rows, pivots = rref(K, rows, range(ncols))
    basis = []
    for fc in range(ncols):
        if fc in pivots:
            continue
        vec = [0] * ncols
        vec[fc] = 1
        for r, pc in enumerate(pivots):
            vec[pc] = K.neg(rows[r][fc])
        basis.append(tuple(vec))
    return basis


class ExtCtx(_Digits):
    """Extension layer F_(q^i) = F_q[v]/(h) with normal-basis data.

    theta is the first code whose Frobenius conjugates form an F_q-basis;
    conj[t] = theta^(q^t).  A[k][h] = theta^(q^(k+h mod i)) sends the
    coordinate vector of an element in the conjugate basis to its Galois
    orbit under sigma^k, one automorphism per row.  F_q sits inside as
    the codes below q.
    """

    def __init__(self, base: FieldParams, i: int):
        if i < 1:
            raise ValueError("extension degree must be >= 1")
        self.base = base
        self.i = i
        self.q = base.q
        self.order = base.q ** i
        self.modulus = find_irreducible(base, i)[:-1]
        self._coef, self._radix, self._width = base, base.q, i
        self._red = self._reduction_rows()
        self._exp = self._log = self._zech = None
        self._init_normal_basis()

    def in_base(self, x):
        """True iff x lies in F_q (codes below q, the constant digits)."""
        return x < self.q

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
        return super().add(x, y)

    def mul(self, x, y):
        exp = self._exp
        if exp is not None:
            if x == 0 or y == 0:
                return 0
            log = self._log
            return exp[(log[x] + log[y]) % (self.order - 1)]
        return super().mul(x, y)

    def frobenius(self, x, k=1):
        """The k-th power of the relative Frobenius x -> x^q."""
        k %= self.i
        if k == 0 or x == 0 or x == 1:
            return x
        return self.pow_(x, self.q ** k)

    # -- internals -----------------------------------------------------

    def _init_normal_basis(self):
        """theta, the first normal code, by a depth-first search over its
        digits, highest first, each from 0 to q-1: that is code order.

        A node fixes the digits at positions pos..i-1 to those of h; its
        codes are the block h + span(v^0, ..., v^(pos-1)).  Let W be the
        smallest Frobenius-invariant subspace that contains h and
        v^0, ..., v^(pos-1).  W contains every code x of the block and so
        every conjugate of x; if dim W < i, no code of the block is
        normal, and the search skips all q^pos of them.  Only blocks
        without a normal code are skipped, so the first leaf accepted is
        the first normal code.  At a leaf (pos = 0) the seed is x alone,
        W is spanned by the conjugates x, x^q, ..., and the test is that
        the first i of them are independent; they are conj.
        """
        i, q = self.i, self.q
        base = self.base
        add, sub, mul = base.add, base.sub, base.mul
        # x -> x^q is F_q-linear; frob[r] is row r of its matrix, whose
        # column j holds the digits of (v^j)^q
        cols = [self.to_vec(self.frobenius(q ** j, 1)) for j in range(i)]
        frob = [[col[r] for col in cols] for r in range(i)]
        nodes = [(i, 0)]                # (pos, code of the fixed digits)
        while nodes:
            pos, code = nodes.pop()
            # W from its seeds: each vector is reduced against the echelon
            # rows of those kept; a kept one queues its image under x -> x^q
            todo = [self.to_vec(code)] + [self.to_vec(q ** j) for j in range(pos)]
            kept = []
            echelon = []
            for x in todo:
                v = list(x)
                for col, row in echelon:
                    c = v[col]
                    if c:
                        v = [sub(a, mul(c, b)) for a, b in zip(v, row)]
                piv = next((j for j, c in enumerate(v) if c), None)
                if piv is None:
                    continue
                kept.append(x)
                if len(kept) == i:
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
                todo.append(tuple(nxt))
            if len(kept) < i:           # dim W < i: no normal code here
                continue
            if pos == 0:
                self.theta = code
                self.conj = tuple(self.from_vec(r) for r in kept)
                break
            step = q ** (pos - 1)       # pushed from q-1 down: 0 pops first
            nodes.extend((pos - 1, code + d * step) for d in range(q - 1, -1, -1))
        else:  # pragma: no cover - a normal basis always exists
            raise RuntimeError("no normal element found")
        self.A = tuple(tuple(self.conj[(k + h) % i] for h in range(i))
                       for k in range(i))

    def ensure_fast(self):
        """Build the exp/log/Zech tables, once: three lists of about
        q^i entries, so a layer over ORDER_LIMIT raises ValueError here.
        exp's first N = (q^i - 1)/(q - 1) entries step by the F_q-linear
        x -> gen x: the images of a code's low ceil(i/2) and high
        floor(i/2) digits come from two tables (_span), summed by one
        digit-wise add in the base field (flat where it is).  gen^N
        generates F_q^* and scales each digit, so each later run of N is
        the run before read through one _scaled_codes map per half."""
        if self._exp is not None:
            return
        if self.order > ORDER_LIMIT:
            raise ValueError(f"extension order {self.q}^{self.i} exceeds "
                             f"the {ORDER_LIMIT} limit")
        M = self.order - 1
        fac = _prime_factors(M)
        gen = None
        # past i = 1 from q, as 1 .. q - 1 lie in F_q^*; from 1 for F_2's {1}
        for cand in range(self.q if self.i > 1 else 1, self.order):
            if all(self.pow_(cand, M // f) != 1 for f in fac):
                gen = cand
                break
        if gen is None:  # pragma: no cover - the unit group is cyclic
            raise RuntimeError("no generator found")
        q, i, badd, bmul = self.q, self.i, self.base.add, self.base.mul
        # column j of the map's matrix: the digits of gen v^j; reversed,
        # so that each half's images come out in code order
        cols = [self._mul_digits(self.to_vec(gen), self.to_vec(q ** j))
                for j in range(i)][::-1]
        m = i // 2
        high, low = (_span(cols[:m], i, q, badd, bmul),
                     _span(cols[m:], i, q, badd, bmul))
        L, N = len(low), M // (q - 1)
        exp, log, code = [0] * M, [-1] * self.order, 1
        for k in range(N):
            exp[k] = code
            a, b = divmod(code, L)
            code = self.from_vec(list(map(badd, high[a], low[b])))
        # code = gen^N lies in F_q^*, so it scales each digit
        hs = [h * L for h in _scaled_codes(self.base, [code] * m)]
        ls = _scaled_codes(self.base, [code] * (i - m))
        for k in range(N, M, N):
            exp[k:k + N] = [hs[x // L] + ls[x % L] for x in exp[k - N:k]]
        for k, x in enumerate(exp):
            log[x] = k
        # log(s + 1) by the constant digit d -> d + 1; log[0] = -1 at s = -1
        inc = [badd(d, 1) - d for d in range(q)]
        zech = [log[s + inc[s % q]] for s in exp]
        self._exp, self._log, self._zech = exp, log, zech

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
    """Deterministic cache of extension layers over one base field, and
    of the pattern tables tables.family_tally reads, by (n, depth)."""

    def __init__(self, base: FieldParams):
        self.base = base
        self._ctx: dict[int, ExtCtx] = {}
        self.family_tables: dict[tuple[int, int], object] = {}

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

    def override(self, i: int, ctx: ExtCtx) -> None:
        """Test hook: install a hand-built layer (e.g. with corrupted data)."""
        self._ctx[i] = ctx
