"""Field-tower tests: prime/extension arithmetic, irreducible search,
normal bases, Frobenius, embeddings, the Zech tables, and the shared
context bank.

Oracles are computed inside this module with deliberately naive code
(root scans, brute independence checks, digit-by-digit arithmetic) so
that table-driven fast paths in the library are checked against slow
reference paths that cannot share a bug with them.
"""

from __future__ import annotations

import random
import time
from itertools import product

import pytest

from factpat._dense import pmod, pmul, trim
from factpat.ffield import (ContextBank, Embedding, ExtCtx, FieldParams,
                            _scaled_codes, _span, find_irreducible,
                            make_field, mat_nullspace, mat_rank)

# Frozen search results.  The library picks the lexicographically least
# monic irreducible (highest-degree coefficient compared first), so these
# values are stable across runs and releases.
FROZEN_MODULI = {
    (3, 2): (1, 0),        # u^2 + 1 over F_3
    (2, 3): (1, 1, 0),     # u^3 + u + 1 over F_2
    (5, 2): (2, 0),        # u^2 + 2 over F_5
    (2, 2): (1, 1),        # u^2 + u + 1 over F_2
}

SAMPLE_SEED = 20260823


def _sample_pairs(rng, q, count):
    return [(rng.randrange(q), rng.randrange(q)) for _ in range(count)]


# ---------------------------------------------------------------------------
# prime fields and extensions as FieldParams


def test_make_field_rejects_bad_parameters():
    with pytest.raises(ValueError, match="p = 4 is not prime"):
        make_field(4)
    with pytest.raises(ValueError):
        make_field(1)
    with pytest.raises(ValueError):
        make_field(2, 0)
    with pytest.raises(ValueError):
        make_field(2, 21)  # 2^21 exceeds the table/order limit
    # the order limit comes before the primality test, so a large prime
    # or a huge degree fails at once, without trial division or p**s
    for p, s in ((2 ** 61 - 1, 1), (2, 10 ** 9)):
        start = time.monotonic()
        with pytest.raises(ValueError, match=r"field order \d+\^\d+ exceeds "
                                             r"the 1048576 limit"):
            make_field(p, s)
        assert time.monotonic() - start < 1, (p, s)


@pytest.mark.parametrize("p,s", sorted(FROZEN_MODULI))
def test_frozen_moduli(p, s):
    field = make_field(p, s)
    assert field.modulus == FROZEN_MODULI[(p, s)]
    assert field.q == p ** s


def test_modulus_is_irreducible_by_root_scan():
    # Degree-2 and degree-3 moduli are irreducible iff they have no root
    # in the prime field: scan every candidate root directly.
    for p, s in ((3, 2), (2, 3), (5, 2)):
        field = make_field(p, s)
        full = field.modulus + (1,)
        for a in range(p):
            value = 0
            for c in reversed(full):
                value = (value * a + c) % p
            assert value != 0, f"modulus of F_{p}^{s} has root {a}"


def test_modulus_is_minimal_in_code_order():
    # Every monic candidate below the chosen modulus must have a root
    # (degrees 2 and 3: reducible iff rooted), so the library's pick is
    # the least irreducible in code order.
    for p, s in ((3, 2), (5, 2), (2, 3)):
        field = make_field(p, s)
        chosen = sum(c * p ** k for k, c in enumerate(field.modulus))
        for code in range(chosen):
            digits = []
            rest = code
            for _ in range(s):
                digits.append(rest % p)
                rest //= p
            full = digits + [1]
            has_root = any(
                sum(c * a ** k for k, c in enumerate(full)) % p == 0
                for a in range(p))
            assert has_root, f"smaller irreducible {digits} missed for ({p},{s})"


# (3, 5) and (2, 8) are over _TABLE_MAX_EXT and 509 and 1031 over
# _TABLE_MAX_PRIME: no flat tables
@pytest.mark.parametrize("p,s", [(5, 1), (3, 2), (2, 3), (5, 2), (3, 5), (2, 8),
                                 (509, 1), (1031, 1)])
def test_field_axioms_sampled(p, s):
    field = make_field(p, s)
    q = field.q
    rng = random.Random((SAMPLE_SEED, p, s).__hash__())
    for _ in range(200):
        a, b, c = rng.randrange(q), rng.randrange(q), rng.randrange(q)
        assert field.add(a, b) == field.add(b, a)
        assert field.mul(a, b) == field.mul(b, a)
        assert field.add(field.add(a, b), c) == field.add(a, field.add(b, c))
        assert field.mul(field.mul(a, b), c) == field.mul(a, field.mul(b, c))
        assert field.mul(a, field.add(b, c)) == field.add(
            field.mul(a, b), field.mul(a, c))
        assert field.add(a, field.neg(a)) == 0
        assert field.sub(a, b) == field.add(a, field.neg(b))
        if a:
            assert field.mul(a, field.inv(a)) == 1


@pytest.mark.parametrize("p,s,tabled", [(2, 3, True), (3, 5, False),
                                         (2, 3, False)])
def test_base_mul_is_polynomial_product_mod_g(p, s, tabled):
    # An independent route for the multiply: the product of the digit
    # vectors over F_p, reduced mod g by polynomial division.
    field = make_field(p, s)
    if not tabled:
        field._addt = field._mult = field._negt = field._invt = None
    assert (field._mult is not None) == tabled
    prime = make_field(p)
    g = list(field.modulus) + [1]
    q = field.q
    rng = random.Random(f"{SAMPLE_SEED}/mul/{p}/{s}")
    pairs = ([(a, b) for a in range(q) for b in range(q)] if q <= 64
             else _sample_pairs(rng, q, 2000))
    for a, b in pairs:
        prod = pmul(prime, trim(list(field.to_vec(a))),
                    trim(list(field.to_vec(b))))
        assert field.mul(a, b) == field.from_vec(pmod(prime, prod, g))


def test_inverse_of_zero_raises():
    field = make_field(5)
    with pytest.raises(ZeroDivisionError):
        field.inv(0)
    ext = make_field(3, 2)
    with pytest.raises(ZeroDivisionError):
        ext.inv(0)
    untabled = make_field(1031)
    with pytest.raises(ZeroDivisionError):
        untabled.inv(0)


@pytest.mark.parametrize("p,s", [(3, 2), (2, 3), (5, 2)])
def test_frobenius_is_field_automorphism(p, s):
    field = make_field(p, s)
    q = field.q
    rng = random.Random((SAMPLE_SEED, "frob", p, s).__hash__())

    def frob_p(a):
        """The absolute Frobenius x -> x^p."""
        return field.pow_(a, p)

    for a, b in _sample_pairs(rng, q, 100):
        fa, fb = frob_p(a), frob_p(b)
        assert frob_p(field.add(a, b)) == field.add(fa, fb)
        assert frob_p(field.mul(a, b)) == field.mul(fa, fb)
        # frob_p iterated s times is the identity on F_{p^s}
        x = a
        for _ in range(s):
            x = frob_p(x)
        assert x == a
        assert field.root_p(frob_p(a)) == a


def test_pow_matches_repeated_multiplication():
    field = make_field(3, 2)
    for a in range(field.q):
        acc = 1
        for e in range(1, 8):
            acc = field.mul(acc, a)
            assert field.pow_(a, e) == acc


def test_vec_roundtrip_and_of_int():
    field = make_field(3, 2)
    for x in range(field.q):
        assert field.from_vec(field.to_vec(x)) == x
    prime = make_field(7)
    for k in range(-10, 30):
        assert prime.of_int(k) == k % 7


# ---------------------------------------------------------------------------
# irreducible search over a non-prime base


FROZEN_IRREDUCIBLE_F5 = {
    2: (2, 0, 1),
    3: (1, 1, 0, 1),
    4: (2, 0, 0, 0, 1),
}


@pytest.mark.parametrize("d", sorted(FROZEN_IRREDUCIBLE_F5))
def test_find_irreducible_frozen_over_f5(d):
    field = make_field(5)
    assert find_irreducible(field, d) == FROZEN_IRREDUCIBLE_F5[d]


def test_find_irreducible_has_no_small_divisor():
    # Independent check by exhaustive trial division with local
    # school-book polynomial division over F_q.
    field = make_field(5)
    q = field.q

    def divides(div, full):
        rem = list(full)
        while len(rem) >= len(div) and any(rem):
            while rem and rem[-1] == 0:
                rem.pop()
            if len(rem) < len(div):
                break
            shift = len(rem) - len(div)
            lead = rem[-1]
            for k, c in enumerate(div):
                rem[shift + k] = field.sub(rem[shift + k], field.mul(lead, c))
            rem.pop()
        return not any(rem)

    for d in (2, 3, 4):
        full = find_irreducible(field, d)
        for deg in range(1, d // 2 + 1):
            for code in range(q ** deg):
                digits, rest = [], code
                for _ in range(deg):
                    digits.append(rest % q)
                    rest //= q
                assert not divides(digits + [1], full)


def test_find_irreducible_over_extension_base():
    # Base F_9: the chosen degree-2 polynomial must have no root in F_9.
    field = make_field(3, 2)
    full = find_irreducible(field, 2)
    assert len(full) == 3 and full[-1] == 1
    for a in range(field.q):
        value = 0
        for c in reversed(full):
            value = field.add(field.mul(value, a), c)
        assert value != 0


# ---------------------------------------------------------------------------
# extension contexts and normal bases


def test_extension_context_frozen_f25():
    bank = ContextBank.shared(make_field(5))
    ctx = bank.get(2)
    assert ctx.modulus == (2, 0)
    assert ctx.order == 25
    assert ctx.theta == 6
    assert ctx.conj == (6, 21)
    assert ctx.A == ((6, 21), (21, 6))


def test_degree_one_context_uses_theta_one():
    bank = ContextBank.shared(make_field(5))
    ctx = bank.get(1)
    assert ctx.theta == 1
    assert ctx.A == ((1,),)


def test_normal_basis_independence_brute_force():
    # theta is normal iff no nontrivial F_q-combination of its Frobenius
    # conjugates vanishes; check all q^i combinations directly.
    base = make_field(5)
    bank = ContextBank.shared(base)
    for i in (2, 3):
        ctx = bank.get(i)
        q = base.q
        for code in range(1, q ** i):
            coeffs, rest = [], code
            for _ in range(i):
                coeffs.append(rest % q)
                rest //= q
            acc = 0
            for c, conj in zip(coeffs, ctx.conj):
                acc = ctx.add(acc, ctx.mul(c, conj))
            assert acc != 0, f"conjugates of theta dependent at i={i}"


def test_theta_is_first_normal_element_in_code_order():
    base = make_field(5)
    ctx = ContextBank.shared(base).get(2)
    q = base.q
    for cand in range(ctx.theta):
        conj = [cand, ctx.frobenius(cand, 1)]
        dependent = False
        for code in range(1, q ** 2):
            c0, c1 = code % q, code // q
            acc = ctx.add(ctx.mul(c0, conj[0]), ctx.mul(c1, conj[1]))
            if acc == 0:
                dependent = True
                break
        assert dependent, f"earlier normal element {cand} was skipped"


def test_normal_element_search_matches_power_conjugates():
    # the reference takes every conjugate with pow_ and the rank of all of
    # them at once; the search must pick the same theta and conjugates
    # the last five have theta far from 0, so the search skips blocks
    for p, s, i in ((5, 1, 4), (3, 1, 4), (7, 1, 3), (2, 2, 3), (2, 3, 3),
                    (3, 2, 2), (2, 3, 4), (3, 1, 6), (5, 1, 5), (3, 1, 8),
                    (2, 2, 6)):
        base = make_field(p, s)
        ctx = ExtCtx(base, i)
        q = base.q
        for cand in range(ctx.order):
            conj = [ctx.pow_(cand, q ** t) for t in range(i)]
            if mat_rank(base, [ctx.to_vec(c) for c in conj]) == i:
                break
        assert (ctx.theta, ctx.conj) == (cand, tuple(conj)), (p, s, i)


def test_theta_on_kummer_layers_is_the_all_ones_code():
    # i | q - 1 makes the modulus a binomial v^i + c; then Frobenius maps
    # v^j to zeta^j v^j with zeta of order i, so a code is normal iff no
    # digit is 0, and the first such code has every digit 1
    fields = [make_field(p, s) for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31)
              for s in range(1, 6) if p ** s <= 32]
    layers = [(base, i) for base in fields for i in range(2, base.q)
              if (base.q - 1) % i == 0 and base.q ** i <= 1 << 20]
    assert {(base.q, i) for base, i in layers} >= {(7, 6), (11, 5)}
    for base, i in layers:
        q = base.q
        t0 = time.perf_counter()
        ctx = ExtCtx(base, i)
        built = time.perf_counter() - t0
        assert ctx.modulus[1:] == (0,) * (i - 1) and ctx.modulus[0], (q, i)
        zeta, rest = divmod(ctx.frobenius(q), q)    # v -> zeta v
        assert rest == 0 and zeta < q, (q, i)
        assert [base.pow_(zeta, k) == 1 for k in range(1, i + 1)] == \
            [False] * (i - 1) + [True], (q, i)
        assert ctx.theta == (q ** i - 1) // (q - 1), (q, i)
        if (q, i) in ((7, 6), (11, 5)):
            assert built < 0.25, (q, i, built)


def test_frobenius_properties_in_extension():
    base = make_field(5)
    ctx = ContextBank.shared(base).get(3)
    q = base.q
    rng = random.Random(SAMPLE_SEED + 3)
    for _ in range(100):
        a, b = rng.randrange(ctx.order), rng.randrange(ctx.order)
        assert ctx.frobenius(a, 1) == ctx.pow_(a, q)
        assert ctx.frobenius(ctx.add(a, b), 1) == ctx.add(
            ctx.frobenius(a, 1), ctx.frobenius(b, 1))
        assert ctx.frobenius(ctx.mul(a, b), 1) == ctx.mul(
            ctx.frobenius(a, 1), ctx.frobenius(b, 1))
        assert ctx.frobenius(a, 3) == a
        assert ctx.frobenius(ctx.frobenius(a, 1), 2) == a
    # base-field elements are exactly the Frobenius fixed points
    fixed = [a for a in range(ctx.order) if ctx.frobenius(a, 1) == a]
    assert fixed == list(range(q))
    assert all(ctx.in_base(a) for a in fixed)


def test_in_base_rejects_proper_extension_elements():
    ctx = ContextBank.shared(make_field(5)).get(2)
    assert not ctx.in_base(5)
    assert not any(ctx.in_base(a) for a in range(5, ctx.order))


def test_fast_tables_agree_with_vector_arithmetic():
    base = make_field(5)
    slow = ExtCtx(base, 3)
    fast = ExtCtx(base, 3)
    fast.ensure_fast()
    rng = random.Random(SAMPLE_SEED + 7)
    for _ in range(300):
        a, b = rng.randrange(slow.order), rng.randrange(slow.order)
        assert slow.add(a, b) == fast.add(a, b)
        assert slow.mul(a, b) == fast.mul(a, b)
        if a:
            assert slow.inv(a) == fast.inv(a)
        assert slow.frobenius(a, 1) == fast.frobenius(a, 1)


def test_fast_tables_on_the_two_element_layer():
    # F_2 as a degree-1 layer: its unit group is {1}, so 1 is the generator
    slow = ExtCtx(make_field(2), 1)
    fast = ExtCtx(make_field(2), 1)
    fast.ensure_fast()
    assert fast._exp == [1]
    for a in range(2):
        for b in range(2):
            assert slow.add(a, b) == fast.add(a, b)
            assert slow.mul(a, b) == fast.mul(a, b)
    assert fast.inv(1) == 1 and fast.frobenius(1) == 1


def _reference_zech(ctx):
    """exp, log and Zech lists the schoolbook way: the first code of full
    multiplicative order, and one digit-vector product by it per step."""
    M = ctx.order - 1
    gen = next(g for g in range(1, ctx.order)
               if all(ctx.pow_(g, M // f) != 1 for f in range(2, M + 1)
                      if M % f == 0 and all(f % d for d in range(2, f))))
    exp, log = [], [-1] * ctx.order
    cur = ctx.to_vec(1)
    for k in range(M):
        exp.append(ctx.from_vec(cur))
        log[exp[-1]] = k
        cur = ctx._mul_digits(cur, ctx.to_vec(gen))
    zech = [log[ctx.add(e, 1)] if ctx.add(e, 1) else -1 for e in exp]
    return exp, log, zech


# F_(5^5), F_(8^4) and F_(4^3) over flat-tabled bases; F_509 and F_1031
# have no flat tables, so their steps go through the base's arithmetic;
# F_(2^6) steps all its units (F_2^* is {1}, so no run is scaled) and
# F_(3^4) scales one run of 40 by gen^40 = -1
@pytest.mark.parametrize("p, s, i", [(5, 1, 5), (2, 3, 4), (2, 2, 3),
                                     (509, 1, 1), (1031, 1, 1), (2, 1, 6),
                                     (3, 1, 4)])
def test_zech_tables_match_the_schoolbook_steps(p, s, i):
    base = make_field(p, s)
    assert (base._addt is None) == (p > 256)
    want = _reference_zech(ExtCtx(base, i))
    fast = ExtCtx(base, i)
    fast.ensure_fast()
    assert (fast._exp, fast._log, fast._zech) == want


# every layer F_(q^i) of order at most 10^4 over q in {2, 3, 4, 5, 7, 8, 9}
GENERATOR_LAYERS = [(p, s, i) for p, s in ((2, 1), (3, 1), (2, 2), (5, 1),
                                           (7, 1), (2, 3), (3, 2))
                    for i in range(1, 14) if p ** (s * i) <= 10 ** 4]


def _order(ctx, code):
    """The multiplicative order of a nonzero code, by stepping its powers
    with schoolbook digit products."""
    step = ctx.to_vec(code)
    cur, k = step, 1
    while ctx.from_vec(cur) != 1:
        cur, k = ctx._mul_digits(cur, step), k + 1
    return k


@pytest.mark.parametrize("p, s, i", GENERATOR_LAYERS,
                         ids=[f"{p ** s}-{i}" for p, s, i in GENERATOR_LAYERS])
def test_zech_generator_is_the_least_code_of_full_order(p, s, i):
    # the search skips the codes below q past i = 1; the generator it
    # finds must still be the least code of order q^i - 1
    ctx = ContextBank.shared(make_field(p, s)).get(i)
    ctx.ensure_fast()
    M = ctx.order - 1
    assert ctx._exp[1 % M] == next(c for c in range(1, ctx.order)
                                   if _order(ctx, c) == M)


@pytest.mark.parametrize("count", [0, 1, 3])
@pytest.mark.parametrize("entries", ["F7", "F8", "layer"])
def test_span_is_every_combination_of_its_columns(entries, count):
    # each vector of coefficients in product order, summed column by
    # column; a layer's span of the columns of A is its orbit table
    rng = random.Random(SAMPLE_SEED + count)
    if entries == "layer":
        K = ExtCtx(make_field(3), 3)
        q, width, cols = 3, 3, list(zip(*K.A))[:count]
    else:
        K = make_field(7) if entries == "F7" else make_field(2, 3)
        q, width = K.q, 2
        cols = [tuple(rng.randrange(K.q) for _ in range(width))
                for _ in range(count)]
    want = []
    for coeffs in product(range(q), repeat=count):
        acc = [0] * width
        for c, col in zip(coeffs, cols):
            acc = [K.add(a, K.mul(c, y)) for a, y in zip(acc, col)]
        want.append(tuple(acc))
    assert _span(cols, width, q, K.add, K.mul) == want


@pytest.mark.parametrize("p, s", [(7, 1), (2, 3), (3, 2)])
def test_scaled_codes_scale_each_coordinate(p, s):
    # per vector of F_q^width in product order, the code of its digits
    # each times its own scalar, one mul at a time: every uniform scalar
    # (the window table's form), the graded u^width .. u^1 (the pattern
    # table's classes) and random per-coordinate scalars
    K = make_field(p, s)
    q = K.q
    rng = random.Random(f"{SAMPLE_SEED} scaled {q}")
    for width in range(4):
        forms = [[c] * width for c in range(q)]
        forms += [[K.of_int(u ** t) for t in range(width, 0, -1)]
                  for u in range(2, p)]
        forms += [[rng.randrange(q) for _ in range(width)] for _ in range(3)]
        for scalars in forms:
            want = []
            for vec in product(range(q), repeat=width):
                code = 0
                for c, v in zip(scalars, vec):
                    code = code * q + K.mul(c, v)
                want.append(code)
            assert _scaled_codes(K, scalars) == want, (width, scalars)


def test_extension_axioms_sampled_char2():
    base = make_field(2, 3)  # tower: F_2 < F_8 < F_8^2
    ctx = ExtCtx(base, 2)
    rng = random.Random(SAMPLE_SEED + 11)
    for _ in range(200):
        a, b, c = (rng.randrange(ctx.order) for _ in range(3))
        assert ctx.mul(a, ctx.add(b, c)) == ctx.add(ctx.mul(a, b),
                                                    ctx.mul(a, c))
        if a:
            assert ctx.mul(a, ctx.inv(a)) == 1
        assert ctx.frobenius(a, 2) == a


# ---------------------------------------------------------------------------
# embeddings between layers


def _embedding(i, n):
    bank = ContextBank.shared(make_field(5))
    return Embedding(bank.get(i), bank.get(n))


def test_embedding_is_injective_ring_hom():
    emb = _embedding(2, 4)
    src, dst = emb.src, emb.dst
    images = [emb.map(x) for x in range(src.order)]
    assert len(set(images)) == src.order
    rng = random.Random(SAMPLE_SEED + 13)
    for _ in range(150):
        a, b = rng.randrange(src.order), rng.randrange(src.order)
        assert emb.map(src.add(a, b)) == dst.add(emb.map(a), emb.map(b))
        assert emb.map(src.mul(a, b)) == dst.mul(emb.map(a), emb.map(b))
    # the shared base field embeds identically
    for a in range(src.q):
        assert emb.map(a) == a


def test_embedding_intertwines_frobenius():
    emb = _embedding(2, 4)
    src, dst = emb.src, emb.dst
    for x in range(src.order):
        assert emb.map(src.frobenius(x, 1)) == dst.frobenius(emb.map(x), 1)


def test_embedding_identity_when_degrees_match():
    emb = _embedding(3, 3)
    for x in (0, 1, 17, 101):
        assert emb.map(x) == x


def test_embedding_requires_divisible_degree():
    with pytest.raises(ValueError):
        _embedding(2, 3)


# ---------------------------------------------------------------------------
# linear algebra helpers


def test_mat_rank_and_nullspace_over_f5():
    K = make_field(5)
    # (2, 4, 1) == 2*(1, 2, 3) mod 5, so the first pair has rank 1
    assert mat_rank(K, ((1, 2, 3), (2, 4, 1))) == 1
    rows = ((1, 2, 3), (0, 1, 4), (0, 0, 0))
    assert mat_rank(K, rows) == 2
    null = mat_nullspace(K, ((1, 2, 3), (0, 0, 0), (0, 0, 0)))
    assert len(null) == 2
    for vec in null:
        acc = 0
        for c, v in zip((1, 2, 3), vec):
            acc = K.add(acc, K.mul(c, v))
        assert acc == 0


# ---------------------------------------------------------------------------
# the context bank


def test_shared_bank_is_cached():
    base = make_field(5)
    assert ContextBank.shared(base) is ContextBank.shared(base)
    bank = ContextBank.shared(base)
    assert bank.get(2) is bank.get(2)


def test_override_installs_replacement_context():
    base = make_field(5)
    bank = ContextBank(base)
    replacement = ExtCtx(base, 2)
    bank.override(2, replacement)
    assert bank.get(2) is replacement
