"""The benchmark's workloads: their driver calls, cold set-up, unit counts
and report checks.

Every workload is a fixed list of driver calls (one "pass").  The seed
picks each family's alpha and nothing else, so family sizes and unit
counts do not depend on it; seed 0 is the acceptance grid (alpha = 0),
whose report bytes are pinned in digests.json.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from itertools import combinations
from pathlib import Path

from factpat import census, ffield
from factpat.census import RunConfig
from factpat.family import new_family
from factpat.ffield import ContextBank, make_field
from factpat.patterns import enumerate_patterns

WORKLOADS = ("family-grid", "global-small-q", "verify")
DIGESTS = Path(__file__).with_name("digests.json")

# run_census on a (q, n) = (11, 6) family scans every member and then fails
# when family_descriptor builds the degree-6 layer over F_11: "extension
# order 11^6 exceeds the 1048576 limit".  Workloads must not fail, so these
# families stay out of family-grid (with them its fail_ratio is 3/15); the
# traced run counts how many still fail (census.defect_11_6_calls).
DEFECT_FAMILIES = ((11, 6, (1, 2)), (11, 6, (1, 3)), (11, 6, (2, 3)))


@dataclass(frozen=True)
class Call:
    key: str            # names the call in digests.json; seed-independent
    driver: str         # run_census | run_global | run_verify
    cfg: RunConfig
    sections: tuple     # run_verify sections; empty for the other drivers
    units: int          # polynomials and points the call examines

    def run(self):
        """Call the driver; returns its report."""
        driver = getattr(census, self.driver)
        if self.sections:
            return driver(self.cfg, sections=self.sections)
        return driver(self.cfg)


def unit_rows(n, r, pivots):
    """Unit rows over the window (c_(n-1) .. c_r) selecting the pivots."""
    return tuple(tuple(1 if c == piv - 1 else 0 for c in range(n - r))
                 for piv in pivots)


def _alpha(rng, q, m, seed):
    if seed == 0:
        return (0,) * m
    return tuple(rng.randrange(q) for _ in range(m))


def family_grid(seed):
    """run_census on the criterion-06/07 grid at r = 3, without (11, 6)."""
    rng = random.Random(f"family-grid/{seed}")
    calls = []
    for q in (7, 11):
        for n in (5, 6):
            if (q, n) == (11, 6):
                continue
            for m in (1, 2):
                for piv in combinations(range(1, n - 2), m):
                    cfg = RunConfig(p=q, n=n, r=3, rows=unit_rows(n, 3, piv),
                                    alpha=_alpha(rng, q, m, seed))
                    calls.append(Call(f"census q={q} n={n} pivots={list(piv)}",
                                      "run_census", cfg, (), q ** (n - m)))
    return calls


def global_small_q(seed):
    """run_global at q <= n; nothing in it depends on the seed."""
    return [Call(f"global q={p ** s} n={n}", "run_global",
                 RunConfig(p=p, s=s, n=n), (), (p ** s) ** n)
            for p, s, n in ((3, 1, 9), (2, 3, 5), (2, 1, 13))]


def verify(seed):
    """run_verify at r = 3, m = 1 (pivot 1)."""
    rng = random.Random(f"verify/{seed}")
    both = ("correspondence", "variety")
    calls = []
    for p, s, n, sections in ((5, 1, 5, both), (2, 3, 4, both),
                              (7, 1, 5, ("variety",))):
        q = p ** s
        cfg = RunConfig(p=p, s=s, n=n, r=3, rows=unit_rows(n, 3, (1,)),
                        alpha=_alpha(rng, q, 1, seed))
        # the q^n table, the member tally, then two scans of q^n points
        # per pattern and section
        scans = len(enumerate_patterns(n)) * 2 * len(sections)
        units = q ** n + q ** (n - 1) + scans * q ** n
        calls.append(Call(f"verify q={q} n={n} sections={list(sections)}",
                          "run_verify", cfg, sections, units))
    return calls


def calls_for(workload, seed):
    return {"family-grid": family_grid, "global-small-q": global_small_q,
            "verify": verify}[workload](seed)


def cold_start():
    """Drop the extension layers, Zech tables and embeddings that
    ContextBank.shared keeps, so the next set-up and pass start cold as
    in a fresh process."""
    ffield._SHARED_BANKS.clear()


def setup(calls):
    """Build the fields, the families and the ContextBank layers 1..n that
    the calls use.  run_global builds no tower."""
    for call in calls:
        cfg = call.cfg
        field = make_field(cfg.p, cfg.s)
        if call.driver == "run_global":
            continue
        new_family(field, cfg.n, cfg.r, cfg.rows, cfg.alpha)
        bank = ContextBank.shared(field)
        for i in range(1, cfg.n + 1):
            bank.get(i)


def digest(text):
    return hashlib.sha256(text.encode()).hexdigest()


def load_digests():
    return json.loads(DIGESTS.read_text())


def _necklace(q, n):
    """Monic irreducibles of degree n over F_q, by Moebius inversion;
    written out here so the check does not lean on factpat's own count."""
    total = 0
    for d in range(1, n + 1):
        if n % d:
            continue
        mu, k, f = 1, d, 2
        while f * f <= k:
            if k % f == 0:
                k //= f
                if k % f == 0:
                    mu = 0
                    break
                mu = -mu
            f += 1
        if mu and k > 1:
            mu = -mu
        total += mu * q ** (n // d)
    return total // n


def _cross_check(call, rep):
    """Exact checks recomputed here, independent of the report's flags."""
    cfg = call.cfg
    q, n = cfg.p ** cfg.s, cfg.n
    if call.driver == "run_census":
        size = q ** (n - len(cfg.rows))
        t = rep["totals"]
        if not (sum(r["count"] for r in rep["rows"]) == t["count"] == size
                and sum(r["sq"] for r in rep["rows"]) == t["sq"]
                and all(r["count"] == r["sq"] + r["nsq"] for r in rep["rows"])):
            return "census rows do not add up to q^(n-m)"
    elif call.driver == "run_global":
        counts = {r["lambda"]: r["count"] for r in rep["rows"]}
        if sum(counts.values()) != q ** n:
            return "global rows do not add up to q^n"
        if sum(r["sq"] for r in rep["rows"]) != q ** n - q ** (n - 1):
            return "square-free total is not q^n - q^(n-1)"
        if counts.get(str(n)) != _necklace(q, n):
            return "irreducible count differs from the necklace count"
    else:
        if not all(rep["cross"].values()):
            return "a verify cross identity failed"
        for row in rep.get("correspondence", ()):
            if row["typed"] + row["untyped"] != q ** n:
                return "typed + untyped vectors is not q^n"
        for row in rep.get("variety", ()):
            if not row["identity_ok"] or row["v_neq"] != row["v_total"] - row["v_eq"]:
                return "variety counting identity failed"
            if cfg.p > 2 and row["probe"]["violations"]:
                return "Jacobian probe violation at p > 2"
    return None


def check(call, rep, text, seed, pinned):
    """None if the report is right, else why not.  Seed 0 must also match
    its pinned sha256; other seeds have no pinned bytes."""
    if not rep.get("overall_pass"):
        return "overall_pass is false"
    problem = _cross_check(call, rep)
    if problem:
        return problem
    if seed == 0 and digest(text) != pinned.get(call.key):
        return f"sha256 {digest(text)[:16]} does not match the pinned report"
    return None
