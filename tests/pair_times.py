"""Time two trees' benchmark runs in alternated pairs and print the ratios.

Each pair runs TREE_A's and TREE_B's own perfbench/run.py, with
--trace 0 --seed 0 and the given workload, in a fresh interpreter started
from that tree's root, and reads the metrics from the JSON line the run
prints last; A runs first in odd pairs and B in even ones.  Each
pair's line gives every metric of both runs, B over A; the last lines
give, per metric, the median of the pairs' ratios B/A and the number of
pairs where B is lower.  A run that exits nonzero or
reports a failed call stops the script with exit code 1.  Run from
anywhere, on two git clones (perfbench's peak_rss_mb depends on the
directory a run starts from, so compare trees checked out alike):

    python3 tests/pair_times.py ../before ../after --workload verify --pairs 5

Standard library only.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def run(tree, workload, seconds):
    """The metrics {name: value} of one run of tree's perfbench."""
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--trace", "0", "--seed", "0", "--seconds", str(seconds)],
        cwd=tree, capture_output=True, text=True)
    if out.returncode:
        sys.exit(f"{tree}: exit {out.returncode}\n{out.stderr}")
    last = json.loads(out.stdout.strip().splitlines()[-1])
    if not last["correct"]:
        sys.exit(f"{tree}: {last['failed']} failed calls\n{out.stdout}")
    return {k: v["value"] for k, v in last["metrics"].items()}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("tree_a", type=Path)
    ap.add_argument("tree_b", type=Path)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, default=5)
    ap.add_argument("--seconds", type=float, default=8)
    args = ap.parse_args(argv)
    ratios = {}
    for k in range(args.pairs):
        trees = (args.tree_a, args.tree_b)
        got = {t: run(t.resolve(), args.workload, args.seconds)
               for t in (trees if k % 2 == 0 else trees[::-1])}
        a, b = got[args.tree_a], got[args.tree_b]
        cells = []
        for name in a:
            ratios.setdefault(name, []).append(b[name] / a[name])
            cells.append(f"{name} {a[name]:.6g} -> {b[name]:.6g} "
                         f"({ratios[name][-1]:.3f}x)")
        print(f"pair {k + 1}: " + "; ".join(cells), flush=True)
    for name, rs in ratios.items():
        print(f"median {name} B/A = {statistics.median(rs):.3f}x "
              f"(B lower in {sum(r < 1 for r in rs)} of {len(rs)})")


if __name__ == "__main__":
    main()
