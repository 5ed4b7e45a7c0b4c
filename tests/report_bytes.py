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
otherwise the last line on stderr gives the run's wall time.  The
engine is read from the src directory beside this file, so to compare
two trees run each tree's copy.  tests/report_bytes_seed0.txt holds the
seed-0 lines that CI compares every Python version with; a change that
alters report bytes on purpose regenerates it and names each config
whose digest changed.  Standard library only.
"""

import argparse
import hashlib
import random
import sys
import time
import warnings
from functools import partial
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from factpat import census  # noqa: E402
from factpat.census import RunConfig  # noqa: E402
from factpat.errors import BudgetError  # noqa: E402

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


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--count", type=int, default=200)
    parser.add_argument("--against", default=None,
                        help="a file of lines from an earlier run")
    args = parser.parse_args(argv)
    start = time.perf_counter()
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
          f"{time.perf_counter() - start:.1f} s", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
