"""Factorization-pattern combinatorics.

A pattern for degree n prescribes how many factors (or cycles) of each
size occur: counts[i-1] parts of size i, with sum i*counts[i-1] = n.
The stabilizer weight w = prod i^counts[i-1] * counts[i-1]! is the number
of ways to order and rotate the parts; 1/w is the limiting proportion of
monic degree-n polynomials with that pattern, and n!/w counts the
permutations in S_n with that cycle structure.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from .ffield import _prime_factors

MAX_N = 40
MAX_CENSUS_N = 8


@dataclass(frozen=True)
class Pattern:
    n: int
    counts: tuple

    def __post_init__(self):
        if self.n < 1 or self.n > MAX_N:
            raise ValueError(f"degree must be in 1..{MAX_N}")
        if len(self.counts) != self.n:
            raise ValueError("counts must have one slot per size 1..n")
        if any(c < 0 for c in self.counts):
            raise ValueError("negative part count")
        if sum(i * c for i, c in enumerate(self.counts, start=1)) != self.n:
            raise ValueError("part sizes do not sum to the degree")

    def label(self) -> str:
        """Canonical text form, e.g. '1^2 2' for two linear and one quadratic."""
        pieces = []
        for i, c in enumerate(self.counts, start=1):
            if c == 1:
                pieces.append(str(i))
            elif c > 1:
                pieces.append(f"{i}^{c}")
        return " ".join(pieces)

    def sizes(self) -> tuple:
        """All part sizes in increasing order, with repetition."""
        out = []
        for i, c in enumerate(self.counts, start=1):
            out.extend([i] * c)
        return tuple(out)

    def __str__(self):
        return self.label()


@dataclass(frozen=True)
class PatternStats:
    pattern: Pattern
    weight: int              # w = prod i^c_i * c_i!
    perm_count: int          # n!/w

    @property
    def proportion(self) -> Fraction:
        """1/w, formed where read: the census compares in integers."""
        return Fraction(1, self.weight)


def _counts(rest, size):
    """Each (c_1, ..., c_size) with sum i c_i = rest, in ascending order
    of (c_size, ..., c_1): c_size runs up, the sizes below fill the rest."""
    if size == 1:
        yield (rest,)
        return
    for c in range(rest // size + 1):
        for low in _counts(rest - c * size, size - 1):
            yield low + (c,)


def enumerate_patterns(n: int) -> list:
    """All patterns of degree n, ordered by the reversed counts vector.

    The order reads (counts[n-1], ..., counts[0]) as a tuple ascending,
    so for n = 4: 1^4, 1^2 2, 2^2, 1 3, 4; _counts yields them in it.
    """
    if n < 1 or n > MAX_N:
        raise ValueError(f"degree must be in 1..{MAX_N}")
    return [Pattern(n, counts) for counts in _counts(n, n)]


def pattern_stats(pattern: Pattern) -> PatternStats:
    w = math.prod(i ** c * math.factorial(c)
                  for i, c in enumerate(pattern.counts, start=1))
    nfact = math.factorial(pattern.n)
    if nfact % w:  # pragma: no cover - w divides n! by orbit-stabilizer
        raise ArithmeticError("weight does not divide n!")
    return PatternStats(pattern, w, nfact // w)


def cycle_pattern(perm) -> Pattern:
    """The cycle structure of a permutation given in one-line notation."""
    n = len(perm)
    counts = [0] * n
    seen = [False] * n
    for start in range(n):
        if seen[start]:
            continue
        length = 0
        j = start
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        counts[length - 1] += 1
    return Pattern(n, tuple(counts))


def symmetric_group_census(n: int) -> dict:
    """Brute-force tally of cycle patterns over all n! permutations."""
    if n < 1 or n > MAX_CENSUS_N:
        raise ValueError(f"census degree must be in 1..{MAX_CENSUS_N}")
    tally: dict[Pattern, int] = {}
    for perm in itertools.permutations(range(n)):
        pat = cycle_pattern(perm)
        tally[pat] = tally.get(pat, 0) + 1
    return tally


def _mobius(n):
    primes = _prime_factors(n)
    return (-1) ** len(primes) if math.prod(primes) == n else 0


def irreducible_count(q: int, n: int) -> int:
    """Number of monic irreducibles of degree n over F_q (necklace count)."""
    total = 0
    for d in range(1, n + 1):
        if n % d == 0:
            total += _mobius(d) * q ** (n // d)
    assert total % n == 0
    return total // n
