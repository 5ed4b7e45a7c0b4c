"""Polynomial machinery: square-free decomposition, distinct-degree
pattern extraction, and the dense kernels (pmul, pmod, pgcd, pderiv,
peval) with find_irreducible, on full coefficient lists.

The reference oracle here is full trial-division factorization: divide
by every monic polynomial of lower degree using local school-book long
division.  It is slow and obviously correct, which is the point — the
library's gcd/distinct-degree path must reproduce it exactly.
"""

from __future__ import annotations

import random
from itertools import product

import pytest

from factpat._dense import pderiv, peval, pgcd, pmod, pmul
from factpat.ffield import find_irreducible, make_field
from factpat.patterns import Pattern
from factpat.poly import is_squarefree, pattern_of_coeffs, squarefree_decompose

SAMPLE_SEED = 911


def _poly_divmod(K, num, den):
    # school-book division of dense coefficient lists (lowest first)
    rem = list(num)
    quo = [0] * max(0, len(rem) - len(den) + 1)
    inv_lead = K.inv(den[-1])
    while True:
        while rem and rem[-1] == 0:
            rem.pop()
        if len(rem) < len(den):
            break
        shift = len(rem) - len(den)
        f = K.mul(rem[-1], inv_lead)
        quo[shift] = f
        for k, c in enumerate(den):
            rem[shift + k] = K.sub(rem[shift + k], K.mul(f, c))
    return quo, rem


def _monics(K, degree):
    for tail in product(range(K.q), repeat=degree):
        yield list(tail) + [1]


def _brute_factor(K, full):
    """Factor a monic polynomial by repeated smallest-divisor trial
    division.  Returns a sorted list of (irreducible_full_tuple, mult)."""
    out: dict[tuple, int] = {}
    rest = list(full)
    degree = len(rest) - 1
    d = 1
    while len(rest) - 1 >= 2 * d:
        hit = True
        while hit:
            hit = False
            for cand in _monics(K, d):
                quo, rem = _poly_divmod(K, rest, cand)
                if not rem:
                    key = tuple(cand)
                    out[key] = out.get(key, 0) + 1
                    rest = quo
                    hit = len(rest) - 1 >= d
                    break
        d += 1
    if len(rest) > 1:
        key = tuple(rest)
        out[key] = out.get(key, 0) + 1
    total = sum((len(k) - 1) * m for k, m in out.items())
    assert total == degree, "oracle lost degree"
    return sorted(out.items())


def _brute_pattern(K, full):
    factors = _brute_factor(K, full)
    n = len(full) - 1
    counts = [0] * n
    squarefree = True
    for fac, mult in factors:
        counts[len(fac) - 2] += mult
        if mult > 1:
            squarefree = False
    return tuple(counts), squarefree


# ---------------------------------------------------------------------------
# pattern extraction against the trial-division oracle


def test_pattern_matches_oracle_all_cubics_f5():
    K = make_field(5)
    for full in _monics(K, 3):
        assert pattern_of_coeffs(K, full) == _brute_pattern(K, full)


def test_pattern_matches_oracle_all_quartics_f5():
    K = make_field(5)
    for full in _monics(K, 4):
        assert pattern_of_coeffs(K, full) == _brute_pattern(K, full)


def test_pattern_matches_oracle_all_cubics_f8():
    K = make_field(2, 3)
    for full in _monics(K, 3):
        assert pattern_of_coeffs(K, full) == _brute_pattern(K, full)


def test_pattern_matches_oracle_sampled_f9_and_f4():
    rng = random.Random(SAMPLE_SEED)
    for p, s, degree, trials in ((3, 2, 4, 120), (2, 2, 5, 120)):
        K = make_field(p, s)
        for _ in range(trials):
            full = [rng.randrange(K.q) for _ in range(degree)] + [1]
            assert pattern_of_coeffs(K, full) == _brute_pattern(K, full)


def test_pattern_of_linear_and_constant_edge():
    K = make_field(5)
    assert pattern_of_coeffs(K, (3, 1)) == ((1,), True)
    with pytest.raises(ValueError):
        pattern_of_coeffs(K, (1,))      # degree 0
    with pytest.raises(ValueError):
        pattern_of_coeffs(K, (0, 2))    # not monic


# ---------------------------------------------------------------------------
# square-free decomposition


def _reassemble(K, dec):
    acc = [1]
    for fac, mult in dec:
        for _ in range(mult):
            acc = pmul(K, acc, fac)
    return acc


def test_decomposition_reassembles_all_quartics_f5():
    K = make_field(5)
    for full in _monics(K, 4):
        dec = squarefree_decompose(K, full)
        assert _reassemble(K, dec) == full
        for fac, mult in dec:
            assert mult >= 1 and len(fac) >= 2
            assert is_squarefree(K, fac)
        # components of a square-free decomposition are pairwise coprime
        for i in range(len(dec)):
            for j in range(i + 1, len(dec)):
                assert pgcd(K, dec[i][0], dec[j][0]) == [1]


def test_decomposition_reassembles_sampled_char2():
    K = make_field(2, 3)
    rng = random.Random(SAMPLE_SEED + 1)
    for _ in range(150):
        full = [rng.randrange(K.q) for _ in range(6)] + [1]
        dec = squarefree_decompose(K, full)
        assert _reassemble(K, dec) == full
        assert all(is_squarefree(K, fac) for fac, _ in dec)


def test_decomposition_handles_pth_powers():
    # (T + a)^p has identically-zero derivative; the p-th-root recursion
    # must still recover the base factor with multiplicity p.
    K = make_field(5)
    lin = [3, 1]
    f = lin
    for _ in range(4):
        f = pmul(K, f, lin)
    assert squarefree_decompose(K, f) == [(lin, 5)]

    K2 = make_field(2, 2)
    quad = list(find_irreducible(K2, 2))
    g = pmul(K2, quad, quad)
    assert squarefree_decompose(K2, g) == [(quad, 2)]


def test_decomposition_multiplicity_spectrum():
    K = make_field(5)
    a = [4, 1]                                  # T - 1
    b = [3, 1]                                  # T - 2
    f = pmul(K, pmul(K, a, a), b)
    assert squarefree_decompose(K, f) == [(b, 1), (a, 2)]
    assert pattern_of_coeffs(K, f)[0] == (3, 0, 0)
    assert not is_squarefree(K, f)


def test_is_squarefree_against_oracle_f9():
    K = make_field(3, 2)
    rng = random.Random(SAMPLE_SEED + 2)
    for _ in range(120):
        full = [rng.randrange(K.q) for _ in range(4)] + [1]
        _, sqf = _brute_pattern(K, full)
        assert is_squarefree(K, full) == sqf


# ---------------------------------------------------------------------------
# dense kernels and find_irreducible against local arithmetic


def test_mul_and_mod_match_local_arithmetic():
    K = make_field(7)
    rng = random.Random(SAMPLE_SEED + 3)
    for _ in range(60):
        a = [rng.randrange(7) for _ in range(4)] + [1]
        b = [rng.randrange(7) for _ in range(2)] + [1]
        # local convolution check
        conv = [0] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            for j, cb in enumerate(b):
                conv[i + j] = K.add(conv[i + j], K.mul(ca, cb))
        assert pmul(K, a, b) == conv
        _, rem = _poly_divmod(K, a, b)
        while rem and rem[-1] == 0:
            rem.pop()
        assert pmod(K, a, b) == rem


def test_gcd_is_monic_common_divisor():
    K = make_field(5)
    a = [4, 1]
    b = [3, 1]
    a2 = pmul(K, a, a)
    f = pmul(K, a2, b)
    g = pmul(K, a2, a)
    assert pgcd(K, f, g) == a2
    assert pgcd(K, f, [2, 0, 1]) == [1]


def test_derivative_and_eval():
    K = make_field(5)
    f = [1, 2, 3, 1]                            # T^3 + 3T^2 + 2T + 1
    assert pderiv(K, f) == [2, 1, 3]            # 3T^2 + 6T + 2 mod 5
    for a in range(5):
        expected = (a ** 3 + 3 * a ** 2 + 2 * a + 1) % 5
        assert peval(K, f, a) == expected


def test_irreducible_classmethod_is_irreducible():
    K = make_field(5)
    for d in (2, 3):
        f = find_irreducible(K, d)
        assert len(f) == d + 1 and f[-1] == 1
        assert _brute_factor(K, f) == [(f, 1)]
        assert pattern_of_coeffs(K, f)[0] == tuple(
            1 if k == d - 1 else 0 for k in range(d))
