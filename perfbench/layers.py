"""Per-layer measurement: spans around calls into factpat's public
functions, and fixed-input microbenchmarks.

Spans are recorded from outside the package: `instrument` rebinds each
wrapped function in every factpat module namespace that holds it, and
wraps three constructors on their classes.  Spans live in memory and are
written out when the benchmark ends.  Hot leaf calls (the census kernel
and build_G) are kept as duration arrays rather than span records; their
time is charged to the enclosing span so self times stay right.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import random
import statistics
import subprocess
import sys
import time
from array import array
from contextlib import contextmanager, nullcontext
from pathlib import Path

import factpat
from factpat import census, correspondence, family, ffield, poly, variety
from factpat._dense import pderiv, pdivmod, pgcd, pmul, ppowmod
from factpat.ffield import ContextBank, make_field
from workloads import DEFECT_FAMILIES, unit_rows

perf = time.perf_counter


class Tracer:
    """In-memory spans: [name, parent index, start, end, child time]."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.leaf = {}          # name -> array of durations (s)
        self.counts = {}

    @contextmanager
    def span(self, name):
        rec = [name, self.stack[-1] if self.stack else -1, perf(), 0.0, 0.0]
        self.spans.append(rec)
        self.stack.append(len(self.spans) - 1)
        try:
            yield
        finally:
            rec[3] = perf()
            self.stack.pop()
            if self.stack:
                self.spans[self.stack[-1]][4] += rec[3] - rec[2]

    def charge(self, name, dt):
        self.leaf.setdefault(name, array("d")).append(dt)
        if self.stack:
            self.spans[self.stack[-1]][4] += dt

    def add(self, name, k):
        self.counts[name] = self.counts.get(name, 0) + k

    def total(self, name):
        return sum(s[3] - s[2] for s in self.spans if s[0] == name)

    def number(self, name):
        return sum(1 for s in self.spans if s[0] == name)

    def dump(self, path):
        self_time = {}
        for name, _, start, end, child in self.spans:
            self_time[name] = self_time.get(name, 0.0) + (end - start - child)
        leaf = {name: {"calls": len(d), "total_s": sum(d)}
                for name, d in self.leaf.items()}
        path.write_text(json.dumps({
            "spans": [{"name": n, "parent": p, "start": a, "end": b}
                      for n, p, a, b, _ in self.spans],
            "self_s": self_time, "leaf": leaf, "counts": self.counts},
            indent=1) + "\n")


class NullTracer:
    def span(self, name):
        return nullcontext()


def _rebind(old, new):
    """Replace old by new in every factpat module namespace; return undo."""
    undo = []
    for mod in list(sys.modules.values()):
        if getattr(mod, "__name__", "").split(".")[0] != "factpat":
            continue
        for attr, val in list(vars(mod).items()):
            if val is old:
                setattr(mod, attr, new)
                undo.append((mod, attr, old))
    return undo


def instrument(tr):
    """Wrap the layer boundaries for one traced pass; returns undo()."""
    undo = []

    def spanned(fn, name, after=None):
        def wrapper(*args, **kw):
            with tr.span(name):
                out = fn(*args, **kw)
            if after is not None:
                after(args, out)
            return out
        return wrapper

    def kernel(fn):
        def wrapper(K, full):
            t0 = perf()
            out = fn(K, full)
            tr.charge("poly.kernel.sq" if out[1] else "poly.kernel.nsq", perf() - t0)
            return out
        return wrapper

    def leaf(fn, name):
        def wrapper(*args, **kw):
            t0 = perf()
            out = fn(*args, **kw)
            tr.charge(name, perf() - t0)
            return out
        return wrapper

    def scanned(args, _):
        fam = args[0].fam
        tr.add("variety.points_scanned", fam.q ** fam.n)

    def probed(args, rep):
        scanned(args, rep)
        tr.add("variety.points_on_variety", rep.points_on_variety)
        tr.add("variety.rank_deficient", rep.rank_deficient)

    for fn, new in (
            (poly.pattern_of_coeffs, kernel(poly.pattern_of_coeffs)),
            (correspondence.build_G, leaf(correspondence.build_G,
                                          "correspondence.build_G")),
            (family.pattern_tally, spanned(family.pattern_tally, "family.tally")),
            (family.bound_fp1, spanned(family.bound_fp1, "family.bounds")),
            (family.bound_fp2, spanned(family.bound_fp2, "family.bounds")),
            (correspondence.verify_membership_equivalence,
             spanned(correspondence.verify_membership_equivalence,
                     "correspondence.membership")),
            (variety.sym_system, spanned(variety.sym_system, "variety.sym_system")),
            (variety.count_points, spanned(variety.count_points,
                                           "variety.count_points", scanned)),
            (variety.jacobian_probe, spanned(variety.jacobian_probe,
                                             "variety.jacobian_probe", probed))):
        undo += _rebind(fn, new)
    for cls, attr, name in ((ffield.ExtCtx, "__init__", "ffield.tower_build"),
                            (ffield.ExtCtx, "ensure_fast", "ffield.zech_build"),
                            (ffield.Embedding, "__init__", "ffield.embedding_build")):
        old = vars(cls)[attr]
        setattr(cls, attr, spanned(old, name))
        undo.append((cls, attr, old))

    def restore():
        for owner, attr, old in reversed(undo):
            setattr(owner, attr, old)
    return restore


def _pct(values, p):
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(p * len(ordered)))]


def span_metrics(tr):
    """Per-layer metrics of one traced pass (a layer the workload does not
    call reports 0)."""
    sq = tr.leaf.get("poly.kernel.sq", array("d"))
    nsq = tr.leaf.get("poly.kernel.nsq", array("d"))
    kern = list(sq) + list(nsq)
    build_g = tr.leaf.get("correspondence.build_G", array("d"))
    points = tr.counts.get("variety.points_scanned", 0)
    censuses = tr.number("census.run_census")
    renders = tr.number("census.render_json")
    us, ms = 1e6, 1e3
    return {
        "ffield.tower_build_s": (tr.total("ffield.tower_build"), "s"),
        "ffield.zech_build_s": (tr.total("ffield.zech_build"), "s"),
        "ffield.embedding_build_s": (tr.total("ffield.embedding_build"), "s"),
        "poly.kernel_us.p50": (_pct(kern, 0.5) * us, "us"),
        "poly.kernel_us.p99": (_pct(kern, 0.99) * us, "us"),
        "poly.kernel_nsq_us.p50": (_pct(nsq, 0.5) * us, "us"),
        "poly.kernel_calls": (len(kern), "count"),
        "poly.sqfree_share": (len(sq) / len(kern) if kern else 0.0, "ratio"),
        "family.tally_s": (tr.total("family.tally"), "s"),
        "family.bounds_ms": (tr.total("family.bounds") / censuses * ms
                             if censuses else 0.0, "ms"),
        "correspondence.build_G_us": (sum(build_g) / len(build_g) * us
                                      if build_g else 0.0, "us"),
        "correspondence.membership_s": (tr.total("correspondence.membership"), "s"),
        "variety.sym_system_s": (tr.total("variety.sym_system"), "s"),
        "variety.count_points_us_per_point": (
            tr.total("variety.count_points") / points * us if points else 0.0, "us"),
        "variety.probe_us_per_point": (
            tr.total("variety.jacobian_probe") / points * us if points else 0.0, "us"),
        "variety.points_on_variety": (tr.counts.get("variety.points_on_variety", 0),
                                      "count"),
        "variety.rank_deficient": (tr.counts.get("variety.rank_deficient", 0), "count"),
        "census.run_census_s": (tr.total("census.run_census"), "s"),
        "census.run_global_s": (tr.total("census.run_global"), "s"),
        "census.run_verify_s": (tr.total("census.run_verify"), "s"),
        "census.render_json_ms": (tr.total("census.render_json") / renders * ms
                                  if renders else 0.0, "ms"),
    }


# -- microbenchmarks on fixed inputs -----------------------------------------


def _per_op(fn, pairs, reps=5, rounds=40):
    """Median over reps of the time per fn(a, b), in ns."""
    samples = []
    for _ in range(reps):
        t0 = perf()
        for _ in range(rounds):
            for a, b in pairs:
                fn(a, b)
        samples.append((perf() - t0) / (rounds * len(pairs)))
    return statistics.median(samples) * 1e9


def _per_call_us(fn, reps=5, calls=400):
    samples = []
    for _ in range(reps):
        t0 = perf()
        for _ in range(calls):
            fn()
        samples.append((perf() - t0) / calls)
    return statistics.median(samples) * 1e6


def micro_metrics(seed, out_dir, failures):
    """Field, dense-polynomial, enumeration, parallel-tally and CLI timings.

    Inputs come from the seed; failures collects any wrong result.
    """
    rng = random.Random(f"micro/{seed}")
    out = {}
    f7, f8 = make_field(7), make_field(2, 3)
    for tag, field in (("q7", f7), ("q8", f8)):
        pairs = [(rng.randrange(field.q), rng.randrange(field.q)) for _ in range(1000)]
        out[f"ffield.base_mul_ns.{tag}"] = (_per_op(field.mul, pairs), "ns")
        out[f"ffield.base_add_ns.{tag}"] = (_per_op(field.add, pairs), "ns")
    ext = ContextBank(make_field(5)).get(5)
    ext.ensure_fast()
    pairs = [(rng.randrange(1, ext.order), rng.randrange(1, ext.order))
             for _ in range(1000)]
    out["ffield.ext_mul_ns"] = (_per_op(ext.mul, pairs), "ns")
    out["ffield.ext_add_ns"] = (_per_op(ext.add, pairs), "ns")

    f = [rng.randrange(7) for _ in range(6)] + [1]
    g = [rng.randrange(7) for _ in range(6)] + [1]
    prod = pmul(f7, f, g)
    df = pderiv(f7, f)
    if pdivmod(f7, prod, f) != (g, []):
        failures.append("dense: pmul then pdivmod does not round-trip")
    out["dense.pmul_us"] = (_per_call_us(lambda: pmul(f7, f, g)), "us")
    out["dense.pdivmod_us"] = (_per_call_us(lambda: pdivmod(f7, prod, f)), "us")
    out["dense.pgcd_us"] = (_per_call_us(lambda: pgcd(f7, f, df)), "us")
    out["dense.ppowmod_us"] = (_per_call_us(lambda: ppowmod(f7, [0, 1], 7, f)), "us")

    fam = family.new_family(f7, 6, 3, ((1, 0, 0),), (rng.randrange(7),))
    samples = []
    for _ in range(3):
        t0 = perf()
        members = sum(1 for _ in family.enumerate_members(fam))
        samples.append((perf() - t0) / members)
    out["family.enum_us_per_member"] = (statistics.median(samples) * 1e6, "us")

    t0 = perf()
    one = census.census_tally(fam, workers=1)
    t1 = perf()
    two = census.census_tally(fam, workers=min(2, len(os.sched_getaffinity(0))))
    t2 = perf()
    if one != two or multiprocessing.active_children():
        failures.append("census_tally: 2 workers differ from 1 or left processes")
    out["census.tally_w2_speedup"] = ((t1 - t0) / (t2 - t1), "x")

    fails = 0
    for q, n, piv in DEFECT_FAMILIES:
        fam11 = family.new_family(make_field(q), n, 3, unit_rows(n, 3, piv),
                                  (0,) * len(piv))
        try:
            census.family_descriptor(fam11)
        except ValueError:
            fails += 1
    out["census.defect_11_6_calls"] = (fails, "count")

    out["cli.bounds_cold_s"] = (_cli_bounds(seed, out_dir, failures), "s")
    return out


def _cli_bounds(seed, out_dir, failures):
    """Wall time of `factpat bounds` on a (7, 6) config in a fresh process."""
    alpha = random.Random(f"cli/{seed}").randrange(7)
    ini = out_dir / f"bounds-{seed}.ini"
    ini.write_text("[field]\np = 7\n\n[family]\nn = 6\nr = 3\nrows = 1 0 0\n"
                   f"alpha = {alpha}\n")
    src = Path(factpat.__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(src))
    t0 = perf()
    try:
        proc = subprocess.run([sys.executable, "-m", "factpat.cli", "bounds",
                               "--config", str(ini)], cwd=out_dir, env=env,
                              capture_output=True, text=True, timeout=150)
    except subprocess.TimeoutExpired:
        failures.append("factpat bounds did not finish within 150 s")
        return perf() - t0
    elapsed = perf() - t0
    try:
        ok = proc.returncode == 0 and json.loads(proc.stdout)["overall_pass"]
    except (ValueError, KeyError):
        ok = False
    if not ok:
        failures.append(f"factpat bounds exited {proc.returncode}: "
                        f"{proc.stderr.strip()[-200:]}")
    return elapsed
