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
    out = report.json      ; the CLI exits 2 if it cannot write it

budget is one limit, MEMBER_BUDGET (10^8) by default, also for the scans
called directly.  Each driver checks it once, before it builds any layer,
table or member: run_census against the members, run_global against the
q^n monics of degree n, run_verify against both; past it BudgetError is
raised.  It chooses no route: see census_tally for the work bound.

Reports are byte-stable for a given config: rows follow the canonical
pattern order, rationals render as "num/den", JSON keys are sorted, and
no floats or timestamps appear: render_json, one walk of the report
equal to json.dumps(sort_keys=True, indent=2), refuses a float, a
Fraction or a non-str key with TypeError.  A row's rationals are
integers over its pattern's weight w, and discr's over 1, times q where
m = n, from the family's bound_terms formed once per call; verdicts
compare integers.

Counts come from one of two exact paths.  The pattern table (see
tables.py) counts the monics by top window and pattern without factoring
them, by a search that multiplies irreducibles or, for p > k where it is
cheaper, through the characters of the window group; run_global reads it
at depth 0, run_verify at depth n for its per-polynomial lookups (depth
0 when only the variety section runs), and census_tally at depth n - r
where the family has no more windows than members and the table is
priced (tables.table_cost) within the kernel's time.  run_global's and
run_verify's tables are built per call; the census table depends only on
(q, n, r), so tables.family_tally keeps it in the field's shared
ContextBank, and a process holds one table per (field, n, depth) it has
tallied.  Other families run the census kernel (poly.pattern_of_coeffs)
member by member.  workers applies only to that kernel path: it
partitions the member stream by the leading free coefficient, and
tallies merge by addition, so every path and worker count emits
identical bytes.

run_verify's scans over F_q^n are one walk, correspondence.walk_G, which
yields each x in itertools.product order with the window index of G(x):
at depth n the correspondence section reads the pattern's two columns
of the table in place at that index, and in the same walk the membership
check compares the family's window flags at that index mod q^(n - r),
the depth-(n - r) window, with the block oracle variety.zero_block's,
one block per prefix of the outer windows.  For every section choice the
variety section is variety.variety_pass, one walk per pattern at depth
n - r that passes only the zeros of the reduced system and gives both
the counting identity and the Jacobian probe.  Reports are those of a
per-point scan.  The walk tables each window size's entries once per
class under rotation and scaling by F_q^* and once per run
(correspondence.Plan), in the layers F_(q^i) of the window sizes i <= n
alone, with their Zech tables (ffield.ExtCtx.ensure_fast).  Those tables
are what the order limit bounds, so run_verify builds the largest,
F_(q^n), after the budget checks and before anything is tallied or
scanned.  run_census and run_bounds build the layers for the descriptor
but no tables, so the order limit does not apply to them.
"""

from __future__ import annotations

import configparser
import multiprocessing
import os
from dataclasses import asdict, dataclass
from itertools import compress, count
from json.encoder import encode_basestring_ascii as _quote
from math import factorial, gcd

from .correspondence import Plan, _Membership, walk_G
from .errors import BudgetError
from .family import (LinearFamily, MEMBER_BUDGET, bound_reference_ci,
                     bound_terms, new_family, pattern_tally,
                     prescribed_family)
from .ffield import ContextBank, FieldParams, make_field
from .patterns import enumerate_patterns, irreducible_count, pattern_stats
from .tables import family_tally, pattern_table, table_cost, tally_windows
from .variety import identity_failure, sym_system, variety_pass

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
    budget: int = MEMBER_BUDGET
    workers: int = 1
    fmt: str = "json"
    out: str | None = None

    def check_limits(self) -> None:
        for name in ("workers", "budget"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")


def _int(sec, key, literal) -> int:
    """int(literal) of config value sec[key], or a ValueError naming it."""
    try:
        return int(literal)
    except ValueError:
        raise ValueError(f"[{sec.name}] {key}: {literal!r} is not an "
                         "integer") from None


def _parse_ints(sec, key, text):
    return tuple(_int(sec, key, tok) for tok in text.replace(",", " ").split())


def parse_config(path) -> RunConfig:
    cp = configparser.ConfigParser(inline_comment_prefixes=(";", "#"),
                                   interpolation=None)
    try:
        read = cp.read(path)
    except configparser.Error as exc:   # on one line, as the CLI prints it
        raise ValueError(f"malformed config file {path}: "
                         + " ".join(str(exc).split())) from None
    if not read:
        raise ValueError(f"cannot read config file {path}")
    if "field" not in cp or "p" not in cp["field"]:
        raise ValueError("config needs a [field] section with p")
    fld = cp["field"]
    cfg = RunConfig(p=_int(fld, "p", fld["p"]),
                    s=_int(fld, "s", fld.get("s", "1")))
    if "family" in cp:
        fam = cp["family"]
        cfg.n = _int(fam, "n", fam.get("n", "0"))
        cfg.mode = fam.get("mode", "linear").strip()
        if cfg.mode not in ("linear", "prescribed", "global"):
            raise ValueError(f"unknown mode {cfg.mode!r}")
        cfg.r = _int(fam, "r", fam.get("r", "0"))
        if "rows" in fam:
            cfg.rows = tuple(_parse_ints(fam, "rows", line)
                             for line in fam["rows"].splitlines() if line.strip())
        if "alpha" in fam:
            cfg.alpha = _parse_ints(fam, "alpha", fam["alpha"])
        if "indices" in fam:
            cfg.indices = _parse_ints(fam, "indices", fam["indices"])
    if "run" in cp:
        run = cp["run"]
        cfg.budget = _int(run, "budget", run.get("budget", cfg.budget))
        cfg.workers = _int(run, "workers", run.get("workers", "1"))
        cfg.check_limits()
        cfg.fmt = run.get("format", "json").strip()
        if cfg.fmt not in ("json", "csv"):
            raise ValueError(f"unknown format {cfg.fmt!r}")
        out = run.get("out", "").strip()
        cfg.out = out or None
    return cfg


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


def family_descriptor(fam: LinearFamily) -> dict:
    bank = ContextBank.shared(fam.ctx)
    theta = {}
    moduli = {}
    for i in range(1, fam.n + 1):
        ctx = bank.get(i)
        theta[str(i)] = ctx.theta
        moduli[str(i)] = list(ctx.modulus)
    return {
        **_field_header(fam.ctx),
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


def _field_header(field: FieldParams) -> dict:
    return {"p": field.p, "s": field.s, "q": field.q,
            "base_modulus": list(field.modulus) if field.modulus else None}


def _ratio(a: int, b: int) -> str:
    """_frac_str(Fraction(a, b)) for integers a >= 0 and b > 0."""
    g = gcd(a, b)
    return f"{a // g}/{b // g}"


def _count_row(pat, w, tally, size):
    """(row, x): the count cells of a pattern of weight w against size / w,
    its limiting share of size, and x = |w * count - size|, w times the
    deviation, so that every cell is an integer over w."""
    cnt, sq = tally.get(pat.counts, (0, 0))
    x = abs(w * cnt - size)
    return {"lambda": pat.label(), "count": cnt, "sq": sq, "nsq": cnt - sq,
            "expected": _ratio(size, w), "deviation": _ratio(x, w)}, x


def _bound_cells(terms, w, x=None) -> dict:
    """The fp1 and fp2 cells of a pattern of weight w from its family's
    bound_terms; given x (a census), each also carries its verdict, None
    where it does not apply: the exact protocol on x * den against
    a * sqrt(q) + b, in integers."""
    q, den, plain, bounds = terms
    cells = {}
    for tag, ok, reason, a, b in bounds:
        b += plain * w
        value = _ratio(b, w * den)
        cell = {"applicable": ok, "reason": reason, "value": value if not a
                else f"{_ratio(a, w * den)}*sqrt({q})+{value}"}
        if x is not None:
            cell["pass"] = (x * den <= b or (x * den - b) ** 2 <= a * a * q
                            if ok else None)
        cells[tag] = cell
    return cells


def _discr_cell(fam, terms, nsq=None) -> dict:
    """n(n-1) q^(n-m-1) = plain / den from bound_terms; given nsq (a
    census), also its verdict in integers, None where q <= n."""
    q, den, plain, _ = terms
    cell = {"applicable": q > fam.n,
            "value": plain // den if plain % den == 0 else _ratio(plain, den)}
    if nsq is not None:
        cell["pass"] = nsq * den <= plain if cell["applicable"] else None
    return cell


def _reference_ci(fam) -> dict:
    ref = bound_reference_ci(fam.n, fam.m, fam.pivots)
    return {"sqrt_coeff": ref.sqrt_coeff, "plain_coeff": ref.plain_coeff}


# -- member tally -----------------------------------------------------------

# The census kernel (poly.pattern_of_coeffs) takes about KERNEL_NS per
# member: 18-69 us on the 124 families of tests/report_bytes.py's 200
# seed-0 configs and the benchmark's workloads (q <= 13, n <= 6), and
# 61-129 us on larger ones up to (31, 5, 3) with m = 2 (nproc 2, Python
# 3.11).  census_tally weighs it against tables.table_cost.
KERNEL_NS = 60_000


def _chunk_task(args):
    fam, first, budget = args
    return pattern_tally(fam, budget=budget, first=first)


def census_tally(fam: LinearFamily, budget: int = MEMBER_BUDGET,
                 workers: int = 1, pats=None) -> dict:
    """Pattern tally over the members: counts tuple -> [total, squarefree].

    Past budget members it refuses before any work.  The pattern table
    is read if m <= r (q^(n-r) <= |A| windows: its memory is within a
    constant per member) and its time (tables.table_cost) is at most the
    kernel's, KERNEL_NS per member, so the work of either route is at
    most KERNEL_NS * |A|.  Else the kernel runs member by member, chunked
    by the leading free coefficient when workers > 1, in a pool of at
    most as many processes as chunks and as CPUs this process may run
    on.  Merge order is fixed, so the result is independent of the path
    and of the worker count.  pats, the patterns of degree n, is formed
    here for the table if the caller has not."""
    if fam.size > budget:
        raise BudgetError(f"family size {fam.size} exceeds budget {budget}")
    n, size = fam.n, fam.size
    if fam.m <= fam.r:
        pats = pats or enumerate_patterns(n)
        if table_cost(fam.ctx, n, n - fam.r, len(pats))[0] <= KERNEL_NS * size:
            return family_tally(fam, pats)
    if workers <= 1 or fam.n - fam.m == 0:
        return pattern_tally(fam, budget=budget)
    chunks = list(range(fam.q))
    affinity = getattr(os, "sched_getaffinity", None)   # not on macOS, Windows
    cpus = len(affinity(0)) if affinity else os.cpu_count() or 1
    processes = min(workers, len(chunks), cpus)
    with multiprocessing.Pool(processes) as pool:
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
    field = make_field(cfg.p, cfg.s)
    fam = build_family(cfg, field)
    pats = enumerate_patterns(fam.n)
    tally = census_tally(fam, cfg.budget, cfg.workers, pats)
    descriptor = family_descriptor(fam)
    terms = bound_terms(fam)
    rows = []
    for pat in pats:
        w = pattern_stats(pat).weight
        row, x = _count_row(pat, w, tally, fam.size)
        row.update(_bound_cells(terms, w, x))
        rows.append(row)
    bounds_pass = all(row[b]["pass"] is not False
                      for row in rows for b in ("fp1", "fp2"))
    total = sum(row["count"] for row in rows)
    sq_total = sum(row["sq"] for row in rows)
    nsq_total = total - sq_total
    sum_ok = total == fam.size
    discr = _discr_cell(fam, terms, nsq_total)
    overall = bounds_pass and sum_ok and discr["pass"] is not False
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
            "discr": discr,
        },
        "reference_ci": _reference_ci(fam),
        "checks": {"sum_matches_family_size": sum_ok},
        "overall_pass": overall,
    }


def run_global(cfg: RunConfig) -> dict:
    """Unconstrained census of all monic degree-n polynomials.

    Deviations from the limiting proportions are reported descriptively
    (no verdicts); the exact identities checked are the pattern partition
    of q^n, the square-free count q^n - q^(n-1) (q at n = 1), and the
    necklace count of irreducibles.
    """
    field = make_field(cfg.p, cfg.s)
    n = cfg.n
    if n < 1:
        raise ValueError("global census needs n >= 1")
    q = field.q
    size = q ** n
    if size > cfg.budget:
        raise BudgetError(f"global census size {size} exceeds budget {cfg.budget}")
    pats = enumerate_patterns(n)
    tally = tally_windows(pats, pattern_table(field, pats, 0))
    rows = [_count_row(pat, pattern_stats(pat).weight, tally, size)[0]
            for pat in pats]
    total = sum(row["count"] for row in rows)
    sq_total = sum(row["sq"] for row in rows)
    # enumerate_patterns ends with the irreducible pattern
    irr_count = rows[-1]["count"]
    necklace = irreducible_count(q, n)
    # q^n - q^(n-1) needs n >= 2: every monic linear is square-free
    sq_expected = size - size // q if n > 1 else q
    checks = {
        "sum_matches_size": total == size,
        "squarefree_count_matches": sq_total == sq_expected,
        "irreducible_count_matches_necklace": irr_count == necklace,
    }
    return {
        "mode": "global",
        "engine": ENGINE_TAG,
        "field": _field_header(field),
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
    field = make_field(cfg.p, cfg.s)
    fam = build_family(cfg, field)
    terms = bound_terms(fam)
    rows = [{"lambda": pat.label(),
             **_bound_cells(terms, pattern_stats(pat).weight)}
            for pat in enumerate_patterns(fam.n)]
    return {
        "mode": "bounds",
        "engine": ENGINE_TAG,
        "family": family_descriptor(fam),
        "rows": rows,
        "discr": _discr_cell(fam, terms),
        "reference_ci": _reference_ci(fam),
        "overall_pass": True,
    }


def run_verify(cfg: RunConfig, sections=("correspondence", "variety")) -> dict:
    """Exhaustive verification of the correspondence and the variety
    identities for every pattern of the configured degree.  sections
    names each part to run once: "correspondence", "variety" or both."""
    sections = tuple(sections)
    if not 0 < len(sections) == len(
            {*sections} & {"correspondence", "variety"}):
        raise ValueError(f"sections {sections!r}: expected distinct names "
                         "from 'correspondence' and 'variety'")
    field = make_field(cfg.p, cfg.s)
    fam = build_family(cfg, field)
    n, q = fam.n, field.q
    for what, size in (("family size", fam.size),
                       ("global census size", q ** n)):
        if size > cfg.budget:
            raise BudgetError(f"{what} {size} exceeds budget {cfg.budget}")
    plan = Plan(ContextBank.shared(field))      # dropped with the call
    report: dict = {
        "mode": "verify",
        "engine": ENGINE_TAG,
        "family": family_descriptor(fam),
        "sections": sorted(sections),
    }
    patterns = enumerate_patterns(n)
    # the scans table every layer they use, up to F_(q^n); tabling that
    # one first fails a layer over the order limit before any tally or scan
    plan.get(n).ensure_fast()
    member_tally = census_tally(fam, cfg.budget, cfg.workers, patterns)
    # one entry per polynomial where the correspondence looks them up,
    # else only the pattern totals
    depth = n if "correspondence" in sections else 0
    table = pattern_table(field, patterns, depth)
    gtally = tally_windows(patterns, table)
    ok_flags = []
    sq_grouped = 0      # sum of typed square-free G(x) times n!/w
    rows = {name: [] for name in sections}
    width, cols = 2 * len(patterns), memoryview(table)
    for i, pat in enumerate(patterns):
        sys_ = sym_system(fam, pat, plan)      # one for both sections
        if "correspondence" in sections:
            # in place; 1 iff polynomial g has pattern i: nsq[g] or sq[g]
            nsq, sq = cols[2 * i::width], cols[2 * i + 1::width]
            type_bad = None
            fib: dict[int, int] = {}
            untyped = 0
            member = _Membership(sys_)
            # G(x), by its index in the table
            for x, t, g in walk_G(pat, plan, n, budget=cfg.budget):
                member.add(x, t, g)
                matches = nsq[g] + sq[g] == 1
                if t != matches and type_bad is None:
                    type_bad = {"x": list(x), "typed": t,
                                "pattern_matches": matches}
                if t:
                    fib[g] = fib.get(g, 0) + 1
                else:
                    untyped += 1
            fiber_ok = all(fib.get(c, 0) == sys_.weight
                           for c in compress(count(), sq))
            nsq_sizes: dict[int, int] = {}
            for c, cnt in fib.items():
                if nsq[c]:
                    nsq_sizes[cnt] = nsq_sizes.get(cnt, 0) + 1
            mem_ok, mem_bad = member.result()
            typed_sqfree = sum(cnt for c, cnt in fib.items() if sq[c])
            sq_grouped += typed_sqfree * pattern_stats(pat).perm_count
            rows["correspondence"].append({
                "lambda": pat.label(),
                "typed": sum(fib.values()),
                "untyped": untyped,
                "type_pattern_ok": type_bad is None,
                "type_pattern_counterexample": type_bad,
                "squarefree_polys": sum(sq),
                "squarefree_fiber_ok": fiber_ok,
                "nonsquarefree_fiber_sizes":
                    [[k, v] for k, v in sorted(nsq_sizes.items())],
                "membership_equiv_ok": mem_ok,
                "membership_equiv_counterexample":
                    None if mem_bad is None else
                    {**mem_bad, "x": list(mem_bad["x"])},
            })
            ok_flags += [type_bad is None, fiber_ok, mem_ok]
        if "variety" in sections:
            # counts and probe from one scan of the rational zeros
            pc, probe = variety_pass(sys_, cfg.budget, member_tally)
            detail = identity_failure(pc, pat)
            row = {
                "lambda": pat.label(),
                "identity_ok": detail is None,
                "identity_detail": detail,
                "probe": {**asdict(probe), "counterexamples":
                          [list(c) for c in probe.counterexamples]},
            }
            if detail is None:
                row.update({"v_total": pc.v_total, "v_eq": pc.v_eq,
                            "v_neq": pc.v_neq, "a_sq": pc.a_sq,
                            "a_nsq": pc.a_nsq})
            rows["variety"].append(row)
            ok_flags.append(detail is None)
            if fam.ctx.p > 2:
                ok_flags.append(probe.ok)
    report.update(rows)
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
        cross["squarefree_grouped_ok"] = \
            sq_grouped == (q ** n - q ** (n - 1)) * factorial(n)
    ok_flags += list(cross.values())
    report["cross"] = cross
    report["overall_pass"] = all(ok_flags)
    return report


# -- rendering --------------------------------------------------------------


def _bool_str(v) -> str:
    return "" if v is None else "true" if v else "false"


def _render(o, pad, put):
    """Put o's pieces of render_json's text, by exact type; pad is the
    newline and indent that close o's brackets."""
    t = type(o)
    if t is str:
        put(_quote(o))
    elif t is int:
        put(int.__repr__(o))
    elif t is dict:
        inner = pad + "  "
        sep = "{" + inner
        for key in sorted(o):   # _quote raises TypeError on a non-str
            put(sep + _quote(key) + ": ")
            _render(o[key], inner, put)
            sep = "," + inner
        put(pad + "}" if o else "{}")
    elif t is list or t is tuple:
        inner = pad + "  "
        sep = "[" + inner
        for item in o:
            put(sep)
            _render(item, inner, put)
            sep = "," + inner
        put(pad + "]" if o else "[]")
    elif o is True or o is False or o is None:
        put("true" if o else "null" if o is None else "false")
    else:
        raise TypeError(f"a report holds no {t.__name__}: {o!r}")


def render_json(report: dict) -> str:
    """json.dumps(report, sort_keys=True, indent=2) + "\\n", its oracle,
    byte for byte, by one walk joined once (json's indent runs its
    pure-Python encoder).  Reports hold dicts with str keys, lists,
    tuples, str, int, bool and None; anything else raises TypeError."""
    pieces = []
    _render(report, "\n", pieces.append)
    return "".join(pieces) + "\n"


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
