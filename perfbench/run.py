"""factpat benchmark: closed-loop driver workloads with end-to-end and
per-layer metrics.

Run from the repository root:

    python3 perfbench/run.py --workload family-grid --seed 0 --seconds 8 --trace 0

Workloads (see workloads.py): family-grid (run_census over the r = 3
pivot grid), global-small-q (run_global at q <= n) and verify
(run_verify).  One process drives all load, one call at a time, with
workers = 1.

--trace 0 measures the end-to-end metrics.  The process sets up cold
until set-up has taken SETUP_FLOOR_S, runs whole passes over the
workload's calls until --seconds have passed (at least one), then sets
up cold again until set-up has taken 2 * SETUP_FLOOR_S in all; setup_s
is the median of all set-ups.  Before each further pass it sets up cold
again, so every pass pays what a fresh process pays.  run_s is the
median pass time (driver calls plus render_json), units_per_s the units
examined per second of pass time, peak_rss_mb the process's ru_maxrss.
fail_ratio is printed as failed/attempted.

setup_s, run_s and units_per_s are given at a fixed reference speed.  On
a shared host the same code runs 20-35% faster or slower from one minute
to the next, as other tenants come and go.  So while these are measured,
a timer signal runs a speed probe (fixed pure-Python loops that do not
touch factpat) every PROBE_EVERY_S, and each stretch of wall time
between two probes is multiplied by PROBE_REF_S / (the probe time at
its start); probe time itself is left out of every figure.  A slow spell
of the host stretches the work and the probes alike, so the product
stays put, while a change to factpat moves only the work.  Wall times,
unscaled, are printed and kept in the result file as setup_wall_s,
run_wall_s and units_per_wall_s.

--trace 1 measures the per-layer metrics: one untraced and one traced
pass, each after a cold set-up, then fixed-input microbenchmarks.

Every report is checked (workloads.check); a call that raises, fails a
check or, at seed 0, differs from its pinned sha256 counts as failed.
The last line of stdout is the JSON result; a fuller record with machine
information goes to perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import signal
import statistics
import sys
import time
import traceback
import warnings
from contextlib import contextmanager
from pathlib import Path

perf = time.perf_counter
SETUP_FLOOR_S = 1.0      # set-up time sampled before the passes, and half
                         # the least sampled in all
MAX_SETUPS = 2000        # ... in at most this many cold set-ups
PROBE_ARITH = 10_000     # rounds of the speed probe's integer loop ...
PROBE_ALLOC = 4_000      # ... and of its tuple, list and dict loop
PROBE_REF_S = 0.0025     # the probe's time at the reference speed (about
                         # its time between census calls on a 2-vCPU Xeon
                         # VM at the faster of its speeds, Python 3.11)
PROBE_EVERY_S = 0.1      # probe period while the clock is armed


def machine_info():
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "cpu": cpu,
            "loadavg_start": list(os.getloadavg())}


def _arith(rounds):
    s = 0
    for i in range(rounds):
        s = (s * 7 + i) % 1000003
    return s


def _alloc(rounds):
    seen, rows = {}, []
    for i in range(rounds):
        key = (i % 7, i % 11, i * i % 13)
        seen[key] = seen.get(key, 0) + 1
        rows.append([i % 7] * 4)
    return len(seen) + len(rows)


def speed_probe():
    """Time a fixed integer loop and a fixed loop that builds tuples,
    lists and dict entries, as the census kernel does, each after a few
    untimed rounds to warm it: the yardstick for how fast the host runs
    Python at the moment."""
    _arith(PROBE_ARITH // 10)
    _alloc(PROBE_ALLOC // 10)
    t0 = perf()
    _arith(PROBE_ARITH)
    _alloc(PROBE_ALLOC)
    return perf() - t0


class Clock:
    """Wall seconds and reference seconds, both net of the probes.

    While armed, SIGALRM runs the speed probe every PROBE_EVERY_S, between
    two bytecodes of whatever is running.  The wall time from the end of
    one probe to the start of the next counts PROBE_REF_S / (the first
    probe's time) reference seconds per second.  Unarmed, the clock keeps
    wall time and scales it by its first probe."""

    def __init__(self):
        self.scale = PROBE_REF_S / speed_probe()
        self.mark = perf()
        self.ref = self.wall = 0.0
        self.busy = False
        self.probes = []

    def read(self):
        """(reference seconds, wall seconds) so far."""
        self.busy = True
        dt = perf() - self.mark
        ref, wall = self.ref + dt * self.scale, self.wall + dt
        self.busy = False
        return ref, wall

    def _tick(self, signum, frame):
        if self.busy:           # interrupted read() or _tick(); skip a probe
            return
        self.busy = True
        t0 = perf()
        self.ref += (t0 - self.mark) * self.scale
        self.wall += t0 - self.mark
        p = speed_probe()
        self.probes.append(p)
        self.scale = PROBE_REF_S / p
        self.mark = perf()
        self.busy = False

    @contextmanager
    def armed(self):
        old = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, old)


def run_pass(calls, seed, pinned, tracer, failures, clock):
    """Run each call once; returns the pass time in reference and in wall
    seconds, and the per-call wall times."""
    from factpat import census
    from workloads import check
    ref, per_call = 0.0, []
    for call in calls:
        ref0, wall0 = clock.read()
        problem = None
        try:
            with tracer.span("census." + call.driver):
                rep = call.run()
            with tracer.span("census.render_json"):
                text = census.render_json(rep)
        except Exception:
            problem = traceback.format_exc(limit=2).strip()
        ref1, wall1 = clock.read()
        ref += ref1 - ref0
        per_call.append(wall1 - wall0)
        if problem is None:
            problem = check(call, rep, text, seed, pinned)
        if problem:
            failures.append(f"{call.key}: {problem}")
    return ref, sum(per_call), per_call


def timed_setup(calls, clock):
    """One cold set-up: (reference seconds, wall seconds)."""
    from workloads import cold_start, setup
    cold_start()
    ref0, wall0 = clock.read()
    setup(calls)
    ref1, wall1 = clock.read()
    return ref1 - ref0, wall1 - wall0


def set_up(calls, clock, floor=SETUP_FLOOR_S):
    """Cold set-ups until their wall times add up to floor."""
    samples, spent = [], 0.0
    while spent < floor and len(samples) < MAX_SETUPS:
        samples.append(timed_setup(calls, clock))
        spent += samples[-1][1]
    return samples


def measure_e2e(calls, args, pinned, failures, record):
    from layers import NullTracer
    with Clock().armed() as clock:
        setups = set_up(calls, clock)
        passes = []
        start = perf()
        while True:
            ref, wall, per_call = run_pass(calls, args.seed, pinned,
                                           NullTracer(), failures, clock)
            passes.append((ref, wall))
            record["per_call_s"].append(per_call)
            if perf() - start >= args.seconds:
                break
            setups.append(timed_setup(calls, clock))
        # the machine's speed drifts over seconds, so sample set-up on
        # both sides of the passes rather than in one burst
        setups += set_up(calls, clock,
                         2 * SETUP_FLOOR_S - sum(w for _, w in setups))
    units = sum(c.units for c in calls)
    record["setup_samples_s"] = [r for r, _ in setups]
    record["setup_wall_samples_s"] = [w for _, w in setups]
    record["pass_samples_s"] = [r for r, _ in passes]
    record["pass_wall_samples_s"] = [w for _, w in passes]
    record["probes"] = {"count": len(clock.probes),
                        "quartiles_s": statistics.quantiles(clock.probes, n=4)}
    record["wall"] = {
        "setup_wall_s": statistics.median(w for _, w in setups),
        "run_wall_s": statistics.median(w for _, w in passes),
        "units_per_wall_s": units * len(passes) / sum(w for _, w in passes)}
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return len(passes) * len(calls), {
        "setup_s": (statistics.median(r for r, _ in setups), "s"),
        "run_s": (statistics.median(r for r, _ in passes), "s"),
        "units_per_s": (units * len(passes) / sum(r for r, _ in passes), "1/s"),
        "peak_rss_mb": (rss_mb, "MiB"),
    }


def measure_layers(calls, args, pinned, failures, record, out_dir):
    from layers import NullTracer, Tracer, instrument, micro_metrics, span_metrics
    clock = Clock()         # unarmed: wall time only
    timed_setup(calls, clock)
    _, plain, _ = run_pass(calls, args.seed, pinned, NullTracer(), failures,
                           clock)
    tracer = Tracer()
    restore = instrument(tracer)
    try:
        with tracer.span("setup"):
            timed_setup(calls, clock)
        with tracer.span("pass"):
            _, traced, _ = run_pass(calls, args.seed, pinned, tracer,
                                    failures, clock)
    finally:
        restore()
    tracer.dump(out_dir / f"trace-{args.workload}-seed{args.seed}.json")
    record["pass_samples_s"] = {"untraced": plain, "traced": traced}
    metrics = span_metrics(tracer)
    metrics["trace.overhead_s"] = (traced - plain, "s")
    metrics.update(micro_metrics(args.seed, out_dir, failures))
    # two passes, plus the dense round trip, the two-worker tally and the CLI
    return 2 * len(calls) + 3, metrics


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=8)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    src = Path.cwd() / "src"
    if not (src / "factpat" / "__init__.py").is_file():
        print("perfbench: src/factpat not found; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src.resolve()))
    warnings.simplefilter("ignore")       # q <= n families warn by design
    from workloads import WORKLOADS, calls_for, load_digests
    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2

    out_dir = Path(__file__).resolve().parent / "out"
    out_dir.mkdir(exist_ok=True)
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "machine": machine_info(), "per_call_s": []}
    calls = calls_for(args.workload, args.seed)
    pinned = load_digests()
    failures = []
    if args.trace:
        attempted, metrics = measure_layers(calls, args, pinned, failures,
                                            record, out_dir)
    else:
        attempted, metrics = measure_e2e(calls, args, pinned, failures, record)
    record["machine"]["loadavg_end"] = list(os.getloadavg())
    record["failures"] = failures
    record["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    (out_dir / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps(record, indent=1) + "\n")

    print("machine " + json.dumps(record["machine"], sort_keys=True))
    for msg in failures:
        print("FAILED " + msg)
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    for name, value in record.get("wall", {}).items():
        print(f"{name} = {value:.6g} (wall, unscaled)")
    print(f"fail_ratio = {len(failures)}/{attempted} = "
          f"{len(failures) / attempted:.6g}")
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures),
                      "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
