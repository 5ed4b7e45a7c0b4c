"""Dense univariate polynomial kernels over an integer-coded field.

A polynomial is a list [c_0, c_1, ..., c_d] of coefficient codes with
c_d != 0; the empty list is the zero polynomial.  The coefficient field K
is any scalar context exposing add/mul/neg/inv on integer codes (pderiv
also reads of_int), with codes 0 and 1 the additive and multiplicative
identities.  Everything here is plain quadratic-time arithmetic; callers
work at degree at most a few dozen, so simplicity wins over asymptotics.
"""

from __future__ import annotations


def trim(c: list) -> list:
    while c and c[-1] == 0:
        c.pop()
    return c


def padd(K, a, b):
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    add = K.add
    for i, c in enumerate(b):
        out[i] = add(out[i], c)
    return trim(out)


def psub(K, a, b):
    neg = K.neg
    return padd(K, a, [neg(c) for c in b])


def pmul(K, a, b):
    if not a or not b:
        return []
    add, mul = K.add, K.mul
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x == 0:
            continue
        for j, y in enumerate(b):
            if y:
                out[i + j] = add(out[i + j], mul(x, y))
    return out  # leading coefficient is a product of nonzeros in a field


def pdivmod(K, a, b):
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    r = list(a)
    db = len(b) - 1
    da = len(a) - 1
    if da < db:
        return [], r
    add, neg, mul = K.add, K.neg, K.mul
    lead_inv = 1 if b[-1] == 1 else K.inv(b[-1])
    quo = [0] * (da - db + 1)
    for k in range(da - db, -1, -1):
        c = r[db + k]
        if c == 0:
            continue
        f = mul(c, lead_inv)
        quo[k] = f
        f = neg(f)
        for j in range(db + 1):
            if b[j]:
                r[j + k] = add(r[j + k], mul(f, b[j]))
    return trim(quo), trim(r)


def pmod(K, a, b):
    return pdivmod(K, a, b)[1]


def pquo(K, a, b):
    return pdivmod(K, a, b)[0]


def pmonic(K, a):
    if not a:
        return []
    if a[-1] == 1:
        return list(a)
    mul, inv = K.mul, K.inv(a[-1])
    return [mul(c, inv) for c in a]


def pgcd(K, a, b):
    """Monic gcd by the Euclidean algorithm."""
    a, b = list(a), list(b)
    while b:
        a, b = b, pmod(K, a, b)
    return pmonic(K, a)


def pderiv(K, a):
    mul, of_int = K.mul, K.of_int
    out = [0] * max(len(a) - 1, 0)
    for k in range(1, len(a)):
        out[k - 1] = mul(of_int(k), a[k])
    return trim(out)


def peval(K, a, x):
    add, mul = K.add, K.mul
    acc = 0
    for c in reversed(a):
        acc = add(mul(acc, x), c)
    return acc


def ppowmod(K, base, e, mod):
    """base**e reduced modulo mod, by binary exponentiation."""
    if e < 0:
        raise ValueError("negative exponent")
    result = [1]
    b = pmod(K, base, mod)
    while e:
        if e & 1:
            result = pmod(K, pmul(K, result, b), mod)
        e >>= 1
        if e:
            b = pmod(K, pmul(K, b, b), mod)
    return result
