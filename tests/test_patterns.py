"""Pattern combinatorics: enumeration order, stabilizer weights, cycle
types, and the necklace count of monic irreducibles.

Independent oracles: Euler's pentagonal-free partition recurrence for
partition counts, direct iteration over symmetric-group permutations for
cycle-type frequencies, and a local Moebius function for the necklace
formula.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import permutations

import pytest

from factpat.patterns import (MAX_CENSUS_N, MAX_N, Pattern, PatternStats,
                              cycle_pattern, enumerate_patterns,
                              irreducible_count, pattern_stats,
                              symmetric_group_census)


def _partition_count(n: int) -> int:
    # Euler's recurrence p(n) = sum over parts: independent of the
    # library's recursive enumeration.
    table = [[0] * (n + 1) for _ in range(n + 1)]
    for k in range(n + 1):
        table[0][k] = 1
    for total in range(1, n + 1):
        for largest in range(1, n + 1):
            acc = table[total][largest - 1] if largest else 0
            if largest <= total:
                acc += table[total - largest][largest]
            table[total][largest] = acc
    return table[n][n]


def _local_moebius(d: int) -> int:
    out, rest, k = 1, d, 2
    while k * k <= rest:
        if rest % k == 0:
            rest //= k
            if rest % k == 0:
                return 0
            out = -out
        k += 1
    if rest > 1:
        out = -out
    return out


# ---------------------------------------------------------------------------
# construction and validation


def test_pattern_validation():
    Pattern(4, (2, 1, 0, 0))
    with pytest.raises(ValueError):
        Pattern(4, (2, 1, 0))        # wrong length
    with pytest.raises(ValueError):
        Pattern(4, (1, 1, 0, 0))     # weights sum to 3, not 4
    with pytest.raises(ValueError):
        Pattern(4, (2, -1, 0, 1))    # negative multiplicity
    with pytest.raises(ValueError):
        Pattern(0, ())


def test_label_formatting():
    assert Pattern(4, (4, 0, 0, 0)).label() == "1^4"
    assert Pattern(4, (2, 1, 0, 0)).label() == "1^2 2"
    assert Pattern(4, (0, 2, 0, 0)).label() == "2^2"
    assert Pattern(4, (1, 0, 1, 0)).label() == "1 3"
    assert Pattern(4, (0, 0, 0, 1)).label() == "4"
    assert Pattern(1, (1,)).label() == "1"


def test_sizes_lists_parts_with_multiplicity():
    assert Pattern(4, (2, 1, 0, 0)).sizes() == (1, 1, 2)
    assert Pattern(6, (1, 1, 1, 0, 0, 0)).sizes() == (1, 2, 3)


# ---------------------------------------------------------------------------
# enumeration


def test_enumeration_count_matches_partition_recurrence():
    for n in range(1, 13):
        assert len(enumerate_patterns(n)) == _partition_count(n)


def _sorted_partition_counts(n):
    """Counts vectors of the partitions of n, listed by parts ascending
    from a least part, then sorted by (counts[n-1], ..., counts[0])."""
    out = []
    for parts in _ascending_parts(n, 1):
        counts = [0] * n
        for part in parts:
            counts[part - 1] += 1
        out.append(tuple(counts))
    return sorted(out, key=lambda counts: counts[::-1])


def _ascending_parts(rest, least):
    if rest == 0:
        yield ()
    for part in range(least, rest + 1):
        for tail in _ascending_parts(rest - part, part):
            yield (part,) + tail


def test_enumeration_matches_a_sorted_partition_oracle():
    for n in range(1, 21):
        assert [p.counts for p in enumerate_patterns(n)] == \
            _sorted_partition_counts(n)
    assert len(enumerate_patterns(MAX_N)) == _partition_count(MAX_N) == 37338


def test_enumeration_at_n40_is_every_partition_in_report_order():
    # p(40) = 37,338 patterns, in the order reports list them
    want = _sorted_partition_counts(MAX_N)
    assert len(want) == 37338
    assert [p.counts for p in enumerate_patterns(MAX_N)] == want


def test_enumeration_order_frozen_for_n4():
    labels = [pat.label() for pat in enumerate_patterns(4)]
    assert labels == ["1^4", "1^2 2", "2^2", "1 3", "4"]


def test_enumeration_has_no_duplicates():
    for n in (5, 6, 7):
        pats = enumerate_patterns(n)
        assert len({p.counts for p in pats}) == len(pats)
        assert all(p.n == n for p in pats)


def test_enumeration_rejects_out_of_range():
    with pytest.raises(ValueError):
        enumerate_patterns(0)
    with pytest.raises(ValueError):
        enumerate_patterns(MAX_N + 1)


# ---------------------------------------------------------------------------
# weights and proportions


def test_weight_and_proportion_frozen():
    st = pattern_stats(Pattern(4, (2, 1, 0, 0)))
    assert isinstance(st, PatternStats)
    assert st.weight == 4          # 1^2*2! * 2^1*1! = 4
    assert st.proportion == Fraction(1, 4)
    assert st.perm_count == 6      # 4!/4


def test_proportions_sum_to_one():
    for n in range(1, 13):
        total = sum(pattern_stats(p).proportion for p in enumerate_patterns(n))
        assert total == 1


def test_perm_counts_sum_to_factorial():
    for n in range(1, 13):
        total = sum(pattern_stats(p).perm_count for p in enumerate_patterns(n))
        assert total == math.factorial(n)


def test_weight_formula_directly():
    pat = Pattern(6, (1, 1, 1, 0, 0, 0))
    st = pattern_stats(pat)
    assert st.weight == 1 * 2 * 3
    assert st.perm_count == math.factorial(6) // 6


# ---------------------------------------------------------------------------
# cycle types in the symmetric group


def test_cycle_pattern_of_known_permutations():
    assert cycle_pattern((0, 1, 2, 3)).label() == "1^4"
    assert cycle_pattern((1, 2, 3, 0)).label() == "4"
    assert cycle_pattern((1, 0, 3, 2)).label() == "2^2"
    assert cycle_pattern((1, 0, 2, 3)).label() == "1^2 2"


def test_census_matches_direct_permutation_iteration():
    for n in (3, 4, 5):
        census = symmetric_group_census(n)
        direct: dict[tuple, int] = {}
        for perm in permutations(range(n)):
            counts = cycle_pattern(perm).counts
            direct[counts] = direct.get(counts, 0) + 1
        assert {p.counts: c for p, c in census.items()} == direct


def test_census_matches_weight_formula():
    for n in range(1, MAX_CENSUS_N):
        census = symmetric_group_census(n)
        assert sum(census.values()) == math.factorial(n)
        for pat, freq in census.items():
            assert freq == pattern_stats(pat).perm_count


def test_census_rejects_oversized_group():
    with pytest.raises(ValueError):
        symmetric_group_census(MAX_CENSUS_N + 1)


# ---------------------------------------------------------------------------
# necklace count of monic irreducibles


def test_irreducible_count_frozen_values():
    # classical table entries
    assert irreducible_count(2, 1) == 2
    assert irreducible_count(2, 2) == 1
    assert irreducible_count(2, 3) == 2
    assert irreducible_count(2, 4) == 3
    assert irreducible_count(3, 2) == 3
    assert irreducible_count(3, 3) == 8
    assert irreducible_count(5, 4) == 150
    assert irreducible_count(7, 1) == 7


def test_irreducible_count_matches_local_moebius_sum():
    for q in (2, 3, 5, 9):
        for n in range(1, 9):
            acc = 0
            for d in range(1, n + 1):
                if n % d == 0:
                    acc += _local_moebius(d) * q ** (n // d)
            assert irreducible_count(q, n) == acc // n


def test_irreducible_counts_partition_all_elements():
    # summing d * (number of degree-d irreducibles) over d | n gives q^n:
    # every element of F_{q^n} has exactly one minimal polynomial.
    for q in (2, 3, 5):
        for n in (1, 2, 3, 4, 6):
            acc = sum(d * irreducible_count(q, d)
                      for d in range(1, n + 1) if n % d == 0)
            assert acc == q ** n
