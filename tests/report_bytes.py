"""Print one sha256 per randomly drawn config of the report bytes it yields.

Configs are drawn from random.Random(seed) alone, so two checkouts draw
the same ones: census, global, bounds and each verify section choice,
over F_2 to F_13 with n from 2 to 5, linear, prescribed and global
families, and now and then a budget below the run's size.  Each line
holds the config's number, its driver, the sha256 of render_json +
render_csv of its report (or of the message a CLI run would end with
exit code 2) and the config.  Run from the repository root:

    python3 tests/report_bytes.py --seed 0 --count 200 > before.txt
    python3 tests/report_bytes.py --seed 0 --count 200 --against before.txt

With --against, the lines are compared with those of FILE; the first
config that differs is named on stderr and the exit code is 1, and
otherwise the last line on stderr gives the run's wall time and process
CPU time (the CPU time varies less where the host is shared).  The
engine is read from the src directory beside this file, so to compare
two trees run each tree's copy.  tests/report_bytes_seed0.txt holds the
seed-0 lines that CI compares every Python version with; a change that
alters report bytes on purpose regenerates it and names each config
whose digest changed.

    python3 tests/report_bytes.py --perfbench

instead runs every seed-0 call of the benchmark's workloads
(perfbench/workloads.py, read and never edited) and checks each report
with the benchmark's own check against its digest pinned in
perfbench/digests.json: one line per call, and exit code 1 if any
fails.

    python3 tests/report_bytes.py --tower

instead builds the extension layers of a fixed sweep (TOWER: every base
field of order at most 9, up to degree 30 over F_2) and prints one sha256
over each layer's (p, s, i, modulus, theta, conj); the exit code is 1 if
it differs from the digest in tests/report_bytes_tower.txt.  Standard
library only.
"""

import argparse
import hashlib
import random
import sys
import time
import warnings
from functools import partial
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from factpat import census  # noqa: E402
from factpat.census import RunConfig  # noqa: E402
from factpat.errors import BudgetError  # noqa: E402
from factpat.ffield import ExtCtx, make_field  # noqa: E402

DRIVERS = {
    "census": census.run_census,
    "global": census.run_global,
    "bounds": census.run_bounds,
    "verify": census.run_verify,
    "verify-correspondence": partial(census.run_verify,
                                     sections=("correspondence",)),
    "variety": partial(census.run_verify, sections=("variety",)),
}
VERIFY = ("verify", "verify-correspondence", "variety")
FIELDS = ((2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2), (11, 1),
          (13, 1))
# (p, s, top): the layers F_(q^i), i = 1 .. top, that --tower pins
TOWER = ((2, 1, 30), (3, 1, 20), (2, 2, 16), (5, 1, 20), (7, 1, 12),
         (2, 3, 12), (3, 2, 12))
TOWER_FILE = ROOT / "tests" / "report_bytes_tower.txt"
# the largest q^n drawn; each verify walks q^n vectors per pattern
MAX_POINTS, MAX_VERIFY_POINTS = 200_000, 40_000


def draw(rng):
    """One (driver, RunConfig) pair."""
    driver = rng.choice(sorted(DRIVERS))
    limit = MAX_VERIFY_POINTS if driver in VERIFY else MAX_POINTS
    p, s = rng.choice(FIELDS)
    q = p ** s
    n = rng.choice([n for n in range(2, 6) if q ** n <= limit])
    mode = "global" if driver == "global" else rng.choices(
        ("linear", "prescribed", "global"), (5, 4, 1))[0]
    cfg = RunConfig(p=p, s=s, n=n, mode=mode)
    if mode == "linear":
        cfg.r = rng.randint(1, n - 1)
        m = rng.randint(1, n - cfg.r)
        cfg.rows = tuple(tuple(rng.randrange(q) for _ in range(n - cfg.r))
                         for _ in range(m))
        cfg.alpha = tuple(rng.randrange(q) for _ in range(m))
    elif mode == "prescribed":
        cfg.indices = tuple(sorted(rng.sample(range(1, n + 1),
                                              rng.randint(1, n - 1))))
        cfg.alpha = tuple(rng.randrange(q) for _ in cfg.indices)
    if rng.random() < 0.1:
        cfg.budget = rng.randint(1, q ** n)
    return driver, cfg


def report_bytes(driver, cfg) -> str:
    """The JSON and CSV reports, or the message of an exit-2 run."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")     # q <= n families warn
            report = DRIVERS[driver](cfg)
    except (ValueError, BudgetError) as exc:
        return f"factpat: {exc}\n"
    return census.render_json(report) + census.render_csv(report)


def perfbench_digests() -> int:
    """Check each seed-0 perfbench report against its pinned digest."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    sys.dont_write_bytecode = True      # perfbench/ is read, not written
    import workloads
    pinned = workloads.load_digests()
    failed, keys = 0, []
    for w in workloads.WORKLOADS:
        for call in workloads.calls_for(w, 0):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")     # q <= n families warn
                rep = call.run()
            problem = workloads.check(call, rep, census.render_json(rep), 0,
                                      pinned)
            print(f"{call.key}: {problem or 'ok'}", flush=True)
            failed += problem is not None
            keys.append(call.key)
    if sorted(keys) != sorted(pinned):
        print(f"{len(keys)} calls against {len(pinned)} pinned digests",
              file=sys.stderr)
        return 1
    print(f"{len(keys) - failed} of {len(keys)} pinned digests equal",
          file=sys.stderr)
    return 1 if failed else 0


def tower_digest() -> int:
    """Check the sha256 of the TOWER layers' moduli and normal bases."""
    start, cpu = time.perf_counter(), time.process_time()
    sha = hashlib.sha256()
    for p, s, top in TOWER:
        base = make_field(p, s)
        for i in range(1, top + 1):
            ctx = ExtCtx(base, i)
            sha.update(f"{(p, s, i, ctx.modulus, ctx.theta, ctx.conj)!r}\n"
                       .encode())
    got = sha.hexdigest()
    print(got)
    want = TOWER_FILE.read_text().strip()
    if got != want:
        print(f"tower digest differs from {want}", file=sys.stderr)
        return 1
    print(f"tower digest equal in {time.perf_counter() - start:.1f} s, "
          f"{time.process_time() - cpu:.1f} s CPU", file=sys.stderr)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--count", type=int, default=200)
    parser.add_argument("--against", default=None,
                        help="a file of lines from an earlier run")
    parser.add_argument("--perfbench", action="store_true",
                        help="check the perfbench seed-0 digests instead")
    parser.add_argument("--tower", action="store_true",
                        help="check the digest of the tower sweep instead")
    args = parser.parse_args(argv)
    if args.perfbench:
        return perfbench_digests()
    if args.tower:
        return tower_digest()
    start, cpu = time.perf_counter(), time.process_time()
    rng = random.Random(args.seed)
    lines = []
    for k in range(args.count):
        driver, cfg = draw(rng)
        sha = hashlib.sha256(report_bytes(driver, cfg).encode()).hexdigest()
        lines.append(f"{k} {driver} {sha} {cfg!r}")
        print(lines[-1], flush=True)
    if args.against is None:
        return 0
    want = Path(args.against).read_text().splitlines()
    for k, (got, old) in enumerate(zip(lines, want)):
        if got != old:
            print(f"config {k} differs:\n  was {old}\n  now {got}",
                  file=sys.stderr)
            return 1
    if len(lines) != len(want):
        print(f"{len(lines)} lines against {len(want)}", file=sys.stderr)
        return 1
    print(f"all {len(lines)} digests equal in "
          f"{time.perf_counter() - start:.1f} s, "
          f"{time.process_time() - cpu:.1f} s CPU", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
