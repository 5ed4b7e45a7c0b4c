"""Pattern tables, by the search over products of irreducibles and by the
characters of the window group, checked against each other and against
the census kernel that factors every polynomial on its own.

Oracles: pattern_of_coeffs over all q^n monics (binned by window at
every depth, for both routes), the other route on every small table
where both apply, the closed forms of the global counts past the
search's reach, pattern_tally over random linear and prescribed
families, and the kernel path of census_tally with and without workers.
The family tables kept in the shared ContextBank are checked for reuse,
for a rebuild once the banks are cleared, and for staying unwritten.
"""

from __future__ import annotations

import random
import time
import warnings
from itertools import combinations, product
from math import comb, isqrt, prod
from operator import mul

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from factpat import census, cli, ffield, tables
from factpat.census import (RunConfig, census_tally, run_census, run_global,
                            run_verify)
from factpat.family import new_family, pattern_tally, prescribed_family
from factpat.ffield import make_field
from factpat.patterns import enumerate_patterns, irreducible_count
from factpat.poly import pattern_of_coeffs
from factpat.tables import (_MR_LIMIT, _batch, _character_table, _modulus,
                            _proven_prime, _search_table, family_tally,
                            family_windows, pattern_table, window_coeffs,
                            window_index)

# (p, s) for q in {2, 3, 4, 5, 7, 8, 9}: prime fields, extensions, char 2
FIELDS = ((2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2))


def _kernel_table(K, n, k):
    """The pattern table at depth k, filled by factoring every monic."""
    pats = {p.counts: i for i, p in enumerate(enumerate_patterns(n))}
    width = 2 * len(pats)
    out = [0] * (K.q ** k * width)
    for tail in product(range(K.q), repeat=n):
        full = list(tail) + [1]
        counts, sqf = pattern_of_coeffs(K, full)
        out[window_index(K.q, full, k) * width + 2 * pats[counts] + sqf] += 1
    return out


@settings(max_examples=25)
@given(st.sampled_from(FIELDS), st.integers(1, 6))
def test_table_matches_kernel_at_every_depth(ps, n):
    K = make_field(*ps)
    assume(K.q ** n <= 3000)
    pats = enumerate_patterns(n)
    for k in range(n + 1):      # k = 0 is the global census, k = n per poly
        want = _kernel_table(K, n, k)
        assert list(_search_table(K, pats, k)) == want, k
        if K.p > k:
            assert list(_character_table(K, pats, k)) == want, k


def test_routes_agree_on_every_small_table():
    # every table with p > k and q^n <= 2 * 10^4, for the primes below 14
    # and F_9, F_25, F_27, F_49
    fields = [(p, 1) for p in (2, 3, 5, 7, 11, 13)] + [(3, 2), (5, 2),
                                                       (3, 3), (7, 2)]
    cases = [(p, s, n, k) for p, s in fields
             for n in range(1, 15) if p ** (s * n) <= 2 * 10 ** 4
             for k in range(min(n, p - 1) + 1)]
    assert len(cases) == 154
    for p, s, n, k in cases:
        K = make_field(p, s)
        pats = enumerate_patterns(n)
        assert _search_table(K, pats, k) == _character_table(K, pats, k), \
            (K.q, n, k)


@pytest.mark.parametrize("q, n, k", [(13, 7, 3), (31, 5, 2)])
def test_character_table_meets_the_closed_forms(q, n, k):
    # 13^7 and 31^5 monics are past the search's reach; summed over the
    # windows, the table is the global census, which has closed forms
    pats = enumerate_patterns(n)
    table = _character_table(make_field(q), pats, k)
    width = 2 * len(pats)
    assert len(table) == q ** k * width
    irr = [irreducible_count(q, d) for d in range(1, n + 1)]
    for i, pat in enumerate(pats):
        sqf = sum(table[2 * i + 1::width])
        total = sqf + sum(table[2 * i::width])
        parts = [(irr[d], c) for d, c in enumerate(pat.counts) if c]
        assert total == prod(comb(m + c - 1, c) for m, c in parts), pat
        assert sqf == prod(comb(m, c) for m, c in parts), pat
    assert all(sum(table[at:at + width]) == q ** (n - k)
               for at in range(0, len(table), width))
    assert sum(table[width - 1::width]) == irreducible_count(q, n)


@pytest.mark.parametrize("p, s, n", [(2, 1, 13), (3, 1, 9), (7, 1, 6),
                                     (5, 2, 3), (13, 1, 7), (101, 1, 5)])
def test_modulus_is_a_prime_with_a_pth_root_of_unity(p, s, n):
    bound = 2 * (p ** s) ** n
    l, zeta = _modulus(p, bound)
    assert l > bound and l % p == 1
    assert all(l % d for d in range(2, isqrt(l) + 1))
    assert zeta != 1 and pow(zeta, p, l) == 1      # order p, as p is prime


def _trial_division_modulus(p, bound):
    l = bound - bound % p + 1
    while l <= bound or any(l % d == 0 for d in range(2, isqrt(l) + 1)):
        l += p
    return l


def test_modulus_matches_trial_division():
    rng = random.Random(24)
    primes = [d for d in range(2, 1000) if all(d % e for e in range(2, d))]
    cases = [(p, rng.randrange(2, 10 ** rng.randint(1, 9)))
             for p in rng.sample(primes, 40)]
    cases += [(2, 2), (2, 4), (3, 2), (5, 3), (997, 10 ** 9 - 1)]
    for p, bound in cases:
        l, zeta = _modulus(p, bound)
        assert l == _trial_division_modulus(p, bound), (p, bound)
        assert zeta != 1 and pow(zeta, p, l) == 1
    assert [l for l in range(2, 20000) if _proven_prime(l)] \
        == [l for l in range(2, 20000) if ffield._is_prime(l)]


def test_modulus_stops_at_the_proven_limit():
    # a strong pseudoprime to the bases 2 .. 23 and the least one to the
    # bases 2 .. 37, which is where the proof ends
    assert not _proven_prime(3825123056546413051)
    assert _proven_prime(_MR_LIMIT)
    assert _MR_LIMIT == 399165290221 * 798330580441
    with pytest.raises(ValueError, match="proven prime"):
        _modulus(5, _MR_LIMIT - 7)


def _direct_transforms(batch, rows, digits, l):
    """sum_v zeta^<b, v> f[v] mod l at every index b for each f in batch,
    pairing the base-p digits of b and v one pair at a time, with
    zeta^e = rows[1][e]."""
    p = len(rows)
    vecs = [ffield._to_vec(v, p, digits) for v in range(p ** digits)]
    powers = [[rows[1][sum(map(mul, b, v)) % p] for v in vecs]
              for b in vecs]
    return [[sum(map(mul, at, f)) % l for at in powers] for f in batch]


@pytest.mark.parametrize("p, s, k", [(3, 1, 1), (3, 1, 2), (3, 1, 3),
                                     (3, 1, 4), (5, 1, 1), (5, 1, 2),
                                     (5, 1, 3), (5, 1, 4), (7, 1, 1),
                                     (7, 1, 2), (7, 1, 3), (11, 1, 1),
                                     (11, 1, 2), (13, 1, 1), (13, 1, 2),
                                     (3, 2, 1), (3, 2, 2), (5, 2, 1),
                                     (5, 2, 2)])
def test_batch_matches_the_direct_transform(p, s, k):
    # the modulus of the n = 7 tables over F_(p^s), whose digits = s k;
    # a batch of one and of 2P = 30, each led by a vector of the largest
    # entries (bound - 1), which the field width is sized for
    digits = s * k
    size = p ** digits
    l, zeta = _modulus(p, 2 * p ** (s * 7))
    fwd = [[pow(zeta, u * x % p, l) for x in range(p)] for u in range(p)]
    back = [row[:1] + row[:0:-1] for row in fwd]
    rng = random.Random(f"{p},{s},{k}")
    twice_p = 2 * len(enumerate_patterns(7))
    for rows, bound in ((fwd, 2), (back, l)):
        batch = [[bound - 1] * size] + [
            [rng.choice((0, bound - 1, rng.randrange(bound)))
             for _ in range(size)] for _ in range(twice_p - 1)]
        want = _direct_transforms(batch, rows, digits, l)
        assert list(_batch(batch[:1], rows, digits, l, bound)) == want[:1]
        assert list(_batch(batch, rows, digits, l, bound)) == want
    # read at given indices, as the inverse batch reads at the logarithms
    order = rng.sample(range(size), size)
    assert list(_batch(batch, back, digits, l, l, order)) \
        == [[out[v] for v in order] for out in want]


def test_depth_zero_tables_pack_nothing(monkeypatch):
    monkeypatch.setattr(tables, "_batch", _refuse)
    for p, s, n in ((2, 1, 13), (3, 1, 9), (2, 3, 5), (1009, 1, 4)):
        K = make_field(p, s)
        pats = enumerate_patterns(n)
        table = _character_table(K, pats, 0)
        if K.q ** n <= 10 ** 4:
            assert table == _search_table(K, pats, 0)
        else:       # the closed forms, as in the test above
            assert sum(table) == K.q ** n
            assert table[-1] == irreducible_count(K.q, n)
    with pytest.raises(AssertionError, match="must not run"):
        _character_table(make_field(5), enumerate_patterns(3), 1)


def _windows_by_oracle(fam):
    n, q, k = fam.n, fam.q, fam.n - fam.r
    return bytearray(fam.contains_coeffs(window_coeffs(q, n, k, w))
                     for w in range(q ** k))


@pytest.mark.parametrize("p, s", [(7, 1), (2, 3), (3, 2), (11, 1)])
def test_family_windows_match_contains_coeffs(p, s):
    K = make_field(p, s)
    q = K.q
    rng = random.Random(f"windows {p},{s}")
    families = []
    for n, r in ((6, 3), (6, 2), (5, 1)):
        for m in (1, 2, 3):
            for _ in range(3):
                # random rows, zero entries common, and nonzero alpha
                rows = [[rng.choice((0, 0, rng.randrange(1, q)))
                         for _ in range(n - r)] for _ in range(m)]
                alpha = [rng.randrange(1, q) for _ in range(m)]
                try:
                    families.append(new_family(K, n, r, rows, alpha))
                except ValueError:      # dependent rows
                    pass
    assert {fam.m for fam in families} == {1, 2, 3}
    for indices in ((1,), (2,), (4,), (1, 3), (2, 3), (1, 2, 4)):
        values = [rng.randrange(q) for _ in indices]
        families.append(prescribed_family(K, 6, indices, values))
    for fam in families:
        assert family_windows(fam) == _windows_by_oracle(fam), \
            (fam.rows, fam.alpha)


def test_workload_tables_take_the_named_route(monkeypatch):
    # the census grid's tables and every depth-0 table by characters; the
    # verify depth-n tables, where p <= k, by the search
    by_characters = [(7, 1, 5, 2), (7, 1, 6, 3), (11, 1, 5, 2), (3, 1, 9, 0),
                     (2, 3, 5, 0), (2, 1, 13, 0), (7, 1, 5, 0)]
    by_search = [(5, 1, 5, 5), (2, 3, 4, 4)]
    for refused, cases in (("_search_table", by_characters),
                           ("_character_table", by_search)):
        with monkeypatch.context() as patch:
            patch.setattr(tables, refused, _refuse)
            for p, s, n, k in cases:
                K = make_field(p, s)
                pats = enumerate_patterns(n)
                assert len(pattern_table(K, pats, k)) \
                    == K.q ** k * 2 * len(pats)


def _draw_family(K, n, data):
    """A random linear or prescribed family of at most 2500 members."""
    q = K.q
    if data.draw(st.booleans(), label="prescribed"):
        idx = sorted(data.draw(st.sets(st.integers(1, n), min_size=1,
                                       max_size=n - 1), label="indices"))
        assume(q ** (n - len(idx)) <= 2500)
        vals = [data.draw(st.integers(0, q - 1)) for _ in idx]
        return prescribed_family(K, n, idx, vals)
    r = data.draw(st.integers(1, n - 1), label="r")
    m = data.draw(st.integers(1, n - r), label="m")
    assume(q ** (n - m) <= 2500)
    rows = [[data.draw(st.integers(0, q - 1)) for _ in range(n - r)]
            for _ in range(m)]
    alpha = [data.draw(st.integers(0, q - 1)) for _ in range(m)]
    try:
        return new_family(K, n, r, rows, alpha)
    except ValueError:                  # dependent rows
        assume(False)


@settings(max_examples=40)
@given(st.sampled_from(FIELDS), st.integers(2, 5), st.data())
def test_family_tally_matches_kernel(ps, n, data):
    K = make_field(*ps)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")     # q <= n families warn by design
        fam = _draw_family(K, n, data)
    assert family_tally(fam) == pattern_tally(fam)


def test_window_coeffs_inverts_window_index():
    for k in range(4):
        for w in range(5 ** k):
            assert window_index(5, window_coeffs(5, 4, k, w), k) == w


def _unit_row_families(q, n, r, m, alpha):
    """Every family at (q, n, r) of codimension m whose rows are unit
    vectors, one per choice of pivot columns."""
    field = make_field(q)
    out = []
    for cols in combinations(range(n - r), m):
        rows = [[1 if c == j else 0 for c in range(n - r)] for j in cols]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            out.append(new_family(field, n, r, rows, [alpha] * m))
    return out


def _family(q, n, r, m):
    return _unit_row_families(q, n, r, m, 1)[0]


def _refuse(*args, **kw):
    raise AssertionError("this path must not run")


def test_census_tally_kernel_path_for_large_codimension_or_table(monkeypatch):
    large_codim = _family(5, 6, 2, 4)
    assert large_codim.q ** large_codim.m > census.TABLE_RATIO
    constant_term = prescribed_family(make_field(7), 4, (4,), (3,))
    assert constant_term.q ** (4 - constant_term.r) > constant_term.size
    wants = [pattern_tally(fam) for fam in (large_codim, constant_term)]
    monkeypatch.setattr(census, "family_tally", _refuse)
    for fam, want in zip((large_codim, constant_term), wants):
        assert census_tally(fam, workers=1) == want
        assert census_tally(fam, workers=2) == want


def test_census_tally_table_path_when_codimension_is_small(monkeypatch):
    fam = _family(7, 5, 3, 1)
    assert fam.q ** fam.m <= census.TABLE_RATIO
    want = pattern_tally(fam)
    monkeypatch.setattr(census, "pattern_tally", _refuse)
    assert census_tally(fam, workers=2) == want


def test_census_table_counts_against_the_budget(monkeypatch):
    # within the table rule but for its 13^4 monics, past a budget that
    # the family's 13^3 members are within
    fam = _unit_row_families(13, 4, 1, 1, 1)[0]
    assert fam.size == 13 ** 3 and 13 ** 4 <= census.TABLE_RATIO * fam.size
    assert fam.size <= 10 ** 4 < 13 ** 4
    want = pattern_tally(fam)
    monkeypatch.setattr(census, "family_tally", _refuse)
    assert census_tally(fam, budget=10 ** 4) == want


def test_census_and_bounds_run_past_the_order_limit(tmp_path):
    # the order limit bounds a layer's Zech tables; the descriptor builds
    # the layers F_(11^6) and F_(101^5) but no tables
    cfg = RunConfig(p=11, n=6, r=3, rows=((1, 0, 0),), alpha=(0,))
    rep = run_census(cfg)
    assert rep["overall_pass"]
    assert sum(row["count"] for row in rep["rows"]) == 11 ** 5
    for command, p, n, rows in (("census", 11, 6, "1 0 0"),
                                ("bounds", 101, 5, "1 0")):
        ini = tmp_path / f"q{p}n{n}.ini"
        ini.write_text(f"[field]\np = {p}\n\n[family]\nn = {n}\nr = 3\n"
                       f"rows = {rows}\nalpha = 0\n")
        assert cli.main([command, "--config", str(ini)]) == 0


# table cells of up to q^(n-k) monics: 101^10 >= 2^63 at k = 0 (global)
# and at k = 1 (a census at r = 10)
@pytest.mark.parametrize("command, family", [
    ("global", "mode = global\nn = 10\n"),
    ("census", "n = 11\nr = 10\nrows = 1\nalpha = 0\n")])
def test_cli_refuses_table_counts_past_int64(tmp_path, capsys, command,
                                              family):
    ini = tmp_path / f"{command}.ini"
    ini.write_text(f"[field]\np = 101\n\n[family]\n{family}\n"
                   f"[run]\nbudget = {10 ** 30}\n")
    start = time.monotonic()
    assert cli.main([command, "--config", str(ini)]) == 2
    assert time.monotonic() - start < 1
    err = capsys.readouterr().err
    assert err == ("factpat: table cells of up to 101^10 monics exceed "
                   "the int64 limit 2^63\n")


@pytest.fixture
def built(monkeypatch):
    """Fresh shared banks, and the (q, n, k) of every pattern_table call
    family_tally makes."""
    monkeypatch.setattr(ffield, "_SHARED_BANKS", {})
    calls = []
    build = tables.pattern_table

    def counting(K, pats, k):
        calls.append((K.q, pats[0].n, k))
        return build(K, pats, k)

    monkeypatch.setattr(tables, "pattern_table", counting)
    return calls


def test_families_at_one_grid_point_share_one_table(built):
    families = (_unit_row_families(7, 5, 3, 1, 1)
                + _unit_row_families(7, 5, 3, 2, 1))
    assert len(families) == 3
    for fam in families:
        assert family_tally(fam) == pattern_tally(fam)
    assert built == [(7, 5, 2)]
    kept = ffield.ContextBank.shared(make_field(7)).family_tables
    assert list(kept) == [(5, 2)]
    before = kept[5, 2].tobytes()
    # another r is another depth, so another table
    other = _unit_row_families(7, 5, 2, 1, 3)[0]
    assert family_tally(other) == pattern_tally(other)
    assert built == [(7, 5, 2), (7, 5, 3)]
    # the kept table is read, never written: not by the tallies above,
    # nor by a census that reads it
    cfg = RunConfig(p=7, n=5, r=3, rows=((0, 1),), alpha=(4,))
    assert run_census(cfg)["overall_pass"]
    assert built == [(7, 5, 2), (7, 5, 3)]
    assert kept[5, 2].tobytes() == before
    # clearing the banks, as a fresh process starts, rebuilds on next use
    ffield._SHARED_BANKS.clear()
    assert family_tally(families[0]) == pattern_tally(families[0])
    assert built == [(7, 5, 2), (7, 5, 3), (7, 5, 2)]


def test_global_and_verify_tables_are_not_kept(built):
    cfg = RunConfig(p=5, n=4, r=2, rows=((1, 0),), alpha=(2,))
    assert run_global(cfg)["overall_pass"]
    assert run_verify(cfg)["overall_pass"]
    # run_verify's member tally goes through family_tally; its depth-n
    # table and run_global's depth-0 table are built per call
    assert built == [(5, 4, 2)]
    assert list(ffield.ContextBank.shared(make_field(5)).family_tables) \
        == [(4, 2)]
