"""Census runs, verification drives and deterministic reports.

A run is described by an INI config:

    [field]
    p = 7
    s = 1

    [family]
    n = 5
    mode = linear          ; linear | prescribed | global
    r = 3
    rows = 0, 1            ; one constraint row per line, entries over
                           ;   (c_(n-1), ..., c_r), comma or space separated
    alpha = 0
    ; prescribed mode instead uses:
    ; indices = 2 3        ; positions i_1 < ... < i_m
    ; alpha = 0 0          ; the prescribed coefficient values

    [run]
    budget = 10000000
    workers = 1
    format = json          ; json | csv
    out = report.json

Reports are byte-stable for a given config: rows follow the canonical
pattern order, rationals render as "num/den", JSON keys are sorted, and
no floats or timestamps appear.

Counts come from one of two exact paths.  The pattern table (see
tables.py) multiplies irreducibles and bins the products by their top
window; run_global reads it at depth 0, run_verify at depth n for its
per-polynomial lookups (depth 0 when only the variety section runs), and
census_tally at depth n - r for families of small codimension (see
census_tally).  Other families run the census kernel
(poly.pattern_of_coeffs) member by member.  workers applies only
to that kernel path: it partitions the member stream by the leading free
coefficient, and tallies merge by addition, so every path and worker
count emits identical bytes.

run_verify's scans over F_q^n read per-window tables built once per call
(correspondence.scan_G for the images G(x), variety.rational_zeros for
the zeros of the reduced system), walked in itertools.product order, so
reports are those of a per-point scan; one variety pass per pattern gives
both the counting identity and the Jacobian probe.  Both scans work in
the layers F_(q^i) of the window sizes i <= n alone, which the family
descriptor builds before anything is scanned.
"""

from __future__ import annotations

import configparser
import json
import multiprocessing
from dataclasses import dataclass
from fractions import Fraction
from itertools import product

from .correspondence import scan_G, verify_membership_equivalence
from .errors import BudgetError
from .family import (LinearFamily, MEMBER_BUDGET, _frac_str, bound_fp1,
                     bound_fp2, bound_nonsquarefree, bound_reference_ci,
                     new_family, pattern_tally, prescribed_family)
from .ffield import ContextBank, FieldParams, make_field
from .patterns import enumerate_patterns, irreducible_count, pattern_stats
from .tables import family_tally, pattern_table, tally_windows, window_index
from .variety import SCAN_BUDGET, identity_failure, sym_system, variety_pass

ENGINE_TAG = "factpat 0.1.0"


@dataclass
class RunConfig:
    p: int
    s: int = 1
    n: int = 0
    mode: str = "linear"
    r: int = 0
    rows: tuple = ()
    alpha: tuple = ()
    indices: tuple = ()
    budget_members: int = MEMBER_BUDGET
    budget_scan: int = SCAN_BUDGET
    workers: int = 1
    fmt: str = "json"
    out: str | None = None


def _parse_ints(text):
    return tuple(int(tok) for tok in text.replace(",", " ").split())


def parse_config(path) -> RunConfig:
    cp = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    read = cp.read(path)
    if not read:
        raise ValueError(f"cannot read config file {path}")
    if "field" not in cp or "p" not in cp["field"]:
        raise ValueError("config needs a [field] section with p")
    fld = cp["field"]
    cfg = RunConfig(p=int(fld["p"]), s=int(fld.get("s", "1")))
    if "family" in cp:
        fam = cp["family"]
        cfg.n = int(fam.get("n", "0"))
        cfg.mode = fam.get("mode", "linear").strip()
        if cfg.mode not in ("linear", "prescribed", "global"):
            raise ValueError(f"unknown mode {cfg.mode!r}")
        cfg.r = int(fam.get("r", "0"))
        if "rows" in fam:
            cfg.rows = tuple(_parse_ints(line)
                             for line in fam["rows"].splitlines() if line.strip())
        if "alpha" in fam:
            cfg.alpha = _parse_ints(fam["alpha"])
        if "indices" in fam:
            cfg.indices = _parse_ints(fam["indices"])
    if "run" in cp:
        run = cp["run"]
        if "budget" in run:
            b = int(run["budget"])
            cfg.budget_members = b
            cfg.budget_scan = b
        cfg.workers = int(run.get("workers", "1"))
        cfg.fmt = run.get("format", "json").strip()
        if cfg.fmt not in ("json", "csv"):
            raise ValueError(f"unknown format {cfg.fmt!r}")
        out = run.get("out", "").strip()
        cfg.out = out or None
    return cfg


def build_field(cfg: RunConfig) -> FieldParams:
    return make_field(cfg.p, cfg.s)


def build_family(cfg: RunConfig, field: FieldParams) -> LinearFamily:
    if cfg.n < 2:
        raise ValueError("family needs n >= 2")
    if cfg.mode == "prescribed":
        if not cfg.indices:
            raise ValueError("prescribed mode needs indices")
        return prescribed_family(field, cfg.n, cfg.indices, cfg.alpha)
    if cfg.mode == "linear":
        if not cfg.rows:
            raise ValueError("linear mode needs rows")
        return new_family(field, cfg.n, cfg.r, cfg.rows, cfg.alpha)
    raise ValueError(f"mode {cfg.mode!r} does not define a family")


def family_descriptor(fam: LinearFamily, bank=None) -> dict:
    if bank is None:
        bank = ContextBank.shared(fam.ctx)
    theta = {}
    moduli = {}
    for i in range(1, fam.n + 1):
        ctx = bank.get(i)
        theta[str(i)] = ctx.theta
        moduli[str(i)] = list(ctx.modulus)
    return {
        "p": fam.ctx.p,
        "s": fam.ctx.s,
        "q": fam.q,
        "base_modulus": list(fam.ctx.modulus) if fam.ctx.modulus else None,
        "n": fam.n,
        "m": fam.m,
        "r": fam.r,
        "r_effective": fam.r_effective,
        "mode": "prescribed" if fam.prescribed else "linear",
        "rows": [list(r) for r in fam.rows],
        "alpha": list(fam.alpha),
        "reduced_rows": [list(r) for r in fam.srows],
        "reduced_alpha": list(fam.salpha),
        "pivots": list(fam.pivots),
        "pivot_product": fam.pivot_product,
        "pivot_excess": fam.pivot_excess,
        "pivot_product_ceiling": fam.pivot_product_ceiling(),
        "pivot_excess_ceiling": fam.pivot_excess_ceiling(),
        "family_size": fam.size,
        "theta": theta,
        "ext_moduli": moduli,
    }


# -- member tally -----------------------------------------------------------

# The census kernel takes 67-235 us per member and the pattern table
# 0.6-4.4 us per monic of degree n (ten families with q <= 13, n <= 8 on
# Python 3.11), so the break-even codimension q^m ran from 36 to 332,
# median about 120.  census_tally reads the table when
# q^n <= TABLE_RATIO * |A|, that is q^m <= TABLE_RATIO, and the table's
# q^(n-r) windows are no more than the members, so that its memory stays
# within a constant per member.
TABLE_RATIO = 128


def _chunk_task(args):
    fam, first, budget = args
    return pattern_tally(fam, budget=budget, first=first)


def census_tally(fam: LinearFamily, budget: int = MEMBER_BUDGET,
                 workers: int = 1) -> dict:
    """Pattern tally over the members: counts tuple -> [total, squarefree].

    Families of small codimension (q^n <= TABLE_RATIO * |A|) with no more
    windows than members (q^(n-r) <= |A|) are read off the pattern table;
    the others run the kernel member by member, chunked by the leading
    free coefficient when workers > 1.  Merge order is fixed, so the
    result is independent of the path and of the worker count."""
    if fam.size > budget:
        raise BudgetError(f"family size {fam.size} exceeds budget {budget}")
    q, size = fam.q, fam.size
    if q ** fam.n <= TABLE_RATIO * size and q ** (fam.n - fam.r) <= size:
        return family_tally(fam)
    if workers <= 1 or fam.n - fam.m == 0:
        return pattern_tally(fam, budget=budget)
    chunks = list(range(fam.q))
    with multiprocessing.Pool(min(workers, len(chunks))) as pool:
        parts = pool.map(_chunk_task, [(fam, c, budget) for c in chunks])
    merged: dict[tuple, list] = {}
    for part in parts:
        for key, (cnt, sq) in part.items():
            slot = merged.setdefault(key, [0, 0])
            slot[0] += cnt
            slot[1] += sq
    return merged


# -- run drivers ------------------------------------------------------------


def run_census(cfg: RunConfig) -> dict:
    """Pattern census of a family with bound verdicts per pattern."""
    field = build_field(cfg)
    fam = build_family(cfg, field)
    # the descriptor builds the extension layers, which can exceed the
    # order limit: fail before the tally scans anything
    descriptor = family_descriptor(fam)
    tally = census_tally(fam, cfg.budget_members, cfg.workers)
    rows = []
    bounds_pass = True
    total = sq_total = 0
    for pat in enumerate_patterns(fam.n):
        stats = pattern_stats(pat)
        cnt, sq = tally.get(pat.counts, (0, 0))
        expected = stats.proportion * fam.size
        dev = abs(Fraction(cnt) - expected)
        b1 = bound_fp1(fam, pat)
        b2 = bound_fp2(fam, pat)
        p1 = b1.allows(dev) if b1.applicable else None
        p2 = b2.allows(dev) if b2.applicable else None
        if p1 is False or p2 is False:
            bounds_pass = False
        rows.append({
            "lambda": pat.label(),
            "count": cnt,
            "sq": sq,
            "nsq": cnt - sq,
            "expected": _frac_str(expected),
            "deviation": _frac_str(dev),
            "fp1": {"applicable": b1.applicable, "reason": b1.reason,
                    "value": b1.value_str(), "pass": p1},
            "fp2": {"applicable": b2.applicable, "reason": b2.reason,
                    "value": b2.value_str(), "pass": p2},
        })
        total += cnt
        sq_total += sq
    nsq_total = total - sq_total
    sum_ok = total == fam.size
    discr_applicable = fam.q > fam.n
    discr_value = bound_nonsquarefree(fam)
    discr_pass = (nsq_total <= discr_value) if discr_applicable else None
    ref = bound_reference_ci(fam.n, fam.m, fam.pivots)
    overall = bounds_pass and sum_ok and discr_pass is not False
    return {
        "mode": "census",
        "engine": ENGINE_TAG,
        "family": descriptor,
        "rows": rows,
        "totals": {
            "count": total,
            "sq": sq_total,
            "nsq": nsq_total,
            "family_size": fam.size,
            "discr": {"applicable": discr_applicable,
                      "value": discr_value if isinstance(discr_value, int)
                      else _frac_str(discr_value),
                      "pass": discr_pass},
        },
        "reference_ci": {"sqrt_coeff": ref.sqrt_coeff,
                         "plain_coeff": ref.plain_coeff},
        "checks": {"sum_matches_family_size": sum_ok},
        "overall_pass": overall,
    }


def _global_table(field: FieldParams, n: int, k: int, budget: int):
    """The pattern table of all q^n monics of degree n at depth k."""
    size = field.q ** n
    if size > budget:
        raise BudgetError(f"global census size {size} exceeds budget {budget}")
    return pattern_table(field, n, k)


def run_global(cfg: RunConfig) -> dict:
    """Unconstrained census of all monic degree-n polynomials.

    Deviations from the limiting proportions are reported descriptively
    (no verdicts); the exact identities checked are the pattern partition
    of q^n, the square-free count q^n - q^(n-1), and the necklace count
    of irreducibles.
    """
    field = build_field(cfg)
    n = cfg.n
    if n < 1:
        raise ValueError("global census needs n >= 1")
    q = field.q
    size = q ** n
    tally = tally_windows(n, _global_table(field, n, 0, cfg.budget_members), [0])
    rows = []
    total = sq_total = 0
    irr_count = 0
    for pat in enumerate_patterns(n):
        stats = pattern_stats(pat)
        cnt, sq = tally.get(pat.counts, (0, 0))
        expected = stats.proportion * size
        dev = abs(Fraction(cnt) - expected)
        rows.append({
            "lambda": pat.label(),
            "count": cnt,
            "sq": sq,
            "nsq": cnt - sq,
            "expected": _frac_str(expected),
            "deviation": _frac_str(dev),
        })
        total += cnt
        sq_total += sq
        if pat.counts[-1] == 1:
            irr_count = cnt
    necklace = irreducible_count(q, n)
    sq_expected = size - size // q
    checks = {
        "sum_matches_size": total == size,
        "squarefree_count_matches": sq_total == sq_expected,
        "irreducible_count_matches_necklace": irr_count == necklace,
    }
    return {
        "mode": "global",
        "engine": ENGINE_TAG,
        "field": {"p": field.p, "s": field.s, "q": q,
                  "base_modulus": list(field.modulus) if field.modulus else None},
        "n": n,
        "rows": rows,
        "totals": {"count": total, "sq": sq_total, "nsq": total - sq_total,
                   "size": size, "squarefree_expected": sq_expected,
                   "necklace_expected": necklace, "irreducible_count": irr_count},
        "checks": checks,
        "overall_pass": all(checks.values()),
    }


def run_bounds(cfg: RunConfig) -> dict:
    """Bound values and applicability per pattern, with no enumeration."""
    field = build_field(cfg)
    fam = build_family(cfg, field)
    rows = []
    for pat in enumerate_patterns(fam.n):
        b1 = bound_fp1(fam, pat)
        b2 = bound_fp2(fam, pat)
        rows.append({
            "lambda": pat.label(),
            "fp1": {"applicable": b1.applicable, "reason": b1.reason,
                    "value": b1.value_str()},
            "fp2": {"applicable": b2.applicable, "reason": b2.reason,
                    "value": b2.value_str()},
        })
    discr_value = bound_nonsquarefree(fam)
    ref = bound_reference_ci(fam.n, fam.m, fam.pivots)
    return {
        "mode": "bounds",
        "engine": ENGINE_TAG,
        "family": family_descriptor(fam),
        "rows": rows,
        "discr": {"applicable": fam.q > fam.n,
                  "value": discr_value if isinstance(discr_value, int)
                  else _frac_str(discr_value)},
        "reference_ci": {"sqrt_coeff": ref.sqrt_coeff,
                         "plain_coeff": ref.plain_coeff},
        "overall_pass": True,
    }


def run_verify(cfg: RunConfig, sections=("correspondence", "variety")) -> dict:
    """Exhaustive verification of the correspondence and the variety
    identities for every pattern of the configured degree."""
    field = build_field(cfg)
    fam = build_family(cfg, field)
    bank = ContextBank.shared(field)
    n = fam.n
    q = field.q
    report: dict = {
        "mode": "verify",
        "engine": ENGINE_TAG,
        "family": family_descriptor(fam, bank),
        "sections": sorted(sections),
    }
    patterns = enumerate_patterns(n)
    member_tally = census_tally(fam, cfg.budget_members)
    # one entry per polynomial where the correspondence looks them up,
    # else only the pattern totals
    depth = n if "correspondence" in sections else 0
    table = _global_table(field, n, depth, cfg.budget_scan)
    gtally = tally_windows(n, table, range(q ** depth))
    ok_flags = []
    sq_grouped = Fraction(0)
    if "correspondence" in sections:
        # slot[w] = 2 * (pattern index) + (square-free) of the polynomial
        # with index w: the one nonzero entry of its row
        width = 2 * len(patterns)
        slot = [table[w * width:(w + 1) * width].index(1)
                for w in range(q ** n)]
        rows = []
        for i, pat in enumerate(patterns):
            stats = pattern_stats(pat)
            type_pattern_ok = True
            type_pattern_bad = None
            fib: dict[int, int] = {}
            untyped = 0
            for x, (t, g) in zip(product(range(q), repeat=n),
                                 scan_G(pat, bank, cfg.budget_scan)):
                # G(x), by its index in the table
                g = window_index(q, g, n)
                matches = slot[g] >> 1 == i
                if t != matches and type_pattern_ok:
                    type_pattern_ok = False
                    type_pattern_bad = {"x": list(x), "typed": t,
                                        "pattern_matches": matches}
                if t:
                    fib[g] = fib.get(g, 0) + 1
                else:
                    untyped += 1
            sq_polys = [w for w, s in enumerate(slot) if s == 2 * i + 1]
            fiber_ok = (len(fib) >= len(sq_polys)
                        and all(fib.get(c, 0) == stats.weight for c in sq_polys))
            nsq_sizes: dict[int, int] = {}
            for c, cnt in fib.items():
                if not slot[c] & 1:
                    nsq_sizes[cnt] = nsq_sizes.get(cnt, 0) + 1
            mem_ok, mem_bad = verify_membership_equivalence(fam, pat, bank, cfg.budget_scan)
            typed_sqfree = sum(fib.get(c, 0) for c in sq_polys)
            sq_grouped += Fraction(typed_sqfree, stats.weight)
            rows.append({
                "lambda": pat.label(),
                "typed": sum(fib.values()),
                "untyped": untyped,
                "type_pattern_ok": type_pattern_ok,
                "type_pattern_counterexample": type_pattern_bad,
                "squarefree_polys": len(sq_polys),
                "squarefree_fiber_ok": fiber_ok,
                "nonsquarefree_fiber_sizes":
                    [[k, v] for k, v in sorted(nsq_sizes.items())],
                "membership_equiv_ok": mem_ok,
                "membership_equiv_counterexample":
                    None if mem_bad is None else
                    {"x": list(mem_bad["x"]),
                     "in_family": mem_bad["in_family"],
                     "on_variety": mem_bad["on_variety"]},
            })
            ok_flags += [type_pattern_ok, fiber_ok, mem_ok]
        report["correspondence"] = rows
    if "variety" in sections:
        rows = []
        for pat in patterns:
            sys_ = sym_system(fam, pat, bank)
            # counts and probe from one scan of the rational zeros
            pc, probe = variety_pass(sys_, cfg.budget_scan, member_tally)
            detail = identity_failure(pc, pat)
            row = {
                "lambda": pat.label(),
                "identity_ok": detail is None,
                "identity_detail": detail,
                "probe": {
                    "scope": probe.scope,
                    "points_on_variety": probe.points_on_variety,
                    "rank_deficient": probe.rank_deficient,
                    "confirmed": probe.confirmed,
                    "violations": probe.violations,
                    "counterexamples": [list(c) for c in probe.counterexamples],
                },
            }
            if detail is None:
                row.update({"v_total": pc.v_total, "v_eq": pc.v_eq,
                            "v_neq": pc.v_neq, "a_sq": pc.a_sq,
                            "a_nsq": pc.a_nsq})
            rows.append(row)
            ok_flags.append(detail is None)
            if fam.ctx.p > 2:
                ok_flags.append(probe.ok)
        report["variety"] = rows
    # Exact cross identities from the unconstrained table and the member tally.
    partition_total = sum(gtally.get(pat.counts, (0, 0))[0]
                          for pat in patterns)
    sq_polys_total = sum(sq for _, sq in gtally.values())
    member_total = sum(cnt for cnt, _ in member_tally.values())
    cross = {
        "pattern_partition_ok": partition_total == q ** n,
        "squarefree_total_ok": sq_polys_total == q ** n - q ** (n - 1),
        "family_partition_ok": member_total == fam.size,
    }
    if "correspondence" in sections:
        cross["squarefree_grouped_ok"] = sq_grouped == q ** n - q ** (n - 1)
    ok_flags += list(cross.values())
    report["cross"] = cross
    report["overall_pass"] = all(ok_flags)
    return report


# -- rendering --------------------------------------------------------------


def _bool_str(v) -> str:
    if v is None:
        return ""
    return "true" if v else "false"


def render_json(report: dict) -> str:
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


CENSUS_CSV_HEADER = ("lambda,count,sq,nsq,expected,deviation,"
                     "fp1_applicable,fp1_pass,fp2_applicable,fp2_pass")


def render_csv(report: dict) -> str:
    mode = report["mode"]
    lines = []
    if mode == "census":
        lines.append(CENSUS_CSV_HEADER)
        for row in report["rows"]:
            lines.append(",".join([
                row["lambda"], str(row["count"]), str(row["sq"]),
                str(row["nsq"]), row["expected"], row["deviation"],
                _bool_str(row["fp1"]["applicable"]), _bool_str(row["fp1"]["pass"]),
                _bool_str(row["fp2"]["applicable"]), _bool_str(row["fp2"]["pass"]),
            ]))
        t = report["totals"]
        dev = abs(t["count"] - t["family_size"])
        lines.append(f"TOTAL,{t['count']},{t['sq']},{t['nsq']},"
                     f"{t['family_size']}/1,{dev}/1,,,,")
    elif mode == "global":
        lines.append("lambda,count,sq,nsq,expected,deviation")
        for row in report["rows"]:
            lines.append(",".join([
                row["lambda"], str(row["count"]), str(row["sq"]),
                str(row["nsq"]), row["expected"], row["deviation"]]))
        t = report["totals"]
        lines.append(f"TOTAL,{t['count']},{t['sq']},{t['nsq']},{t['size']}/1,0/1")
    elif mode == "bounds":
        lines.append("lambda,fp1_applicable,fp1_value,fp2_applicable,fp2_value")
        for row in report["rows"]:
            lines.append(",".join([
                row["lambda"], _bool_str(row["fp1"]["applicable"]),
                row["fp1"]["value"], _bool_str(row["fp2"]["applicable"]),
                row["fp2"]["value"]]))
    elif mode == "verify":
        lines.append("section,lambda,check,pass,detail")
        for row in report.get("correspondence", ()):
            lam = row["lambda"]
            lines.append(f"correspondence,{lam},type_pattern,{_bool_str(row['type_pattern_ok'])},"
                         f"typed={row['typed']}")
            lines.append(f"correspondence,{lam},squarefree_fibers,"
                         f"{_bool_str(row['squarefree_fiber_ok'])},"
                         f"polys={row['squarefree_polys']}")
            lines.append(f"correspondence,{lam},membership_equiv,"
                         f"{_bool_str(row['membership_equiv_ok'])},")
        for row in report.get("variety", ()):
            lam = row["lambda"]
            detail = (f"v_neq={row.get('v_neq', '')} a_sq={row.get('a_sq', '')}"
                      if "v_neq" in row else "")
            lines.append(f"variety,{lam},counting_identity,"
                         f"{_bool_str(row['identity_ok'])},{detail}")
            pr = row["probe"]
            lines.append(f"variety,{lam},jacobian_probe,"
                         f"{_bool_str(pr['violations'] == 0)},scope={pr['scope']}")
        for key, val in sorted(report.get("cross", {}).items()):
            lines.append(f"cross,,{key},{_bool_str(val)},")
    else:
        raise ValueError(f"no CSV rendering for mode {mode!r}")
    return "\n".join(lines) + "\n"


def emit_report(report: dict, fmt: str = "json", out=None) -> str:
    """Render and optionally write the report; returns the text."""
    if fmt == "json":
        text = render_json(report)
    elif fmt == "csv":
        text = render_csv(report)
    else:
        raise ValueError(f"unknown format {fmt!r}")
    if out is not None:
        with open(out, "w") as fh:
            fh.write(text)
    return text
