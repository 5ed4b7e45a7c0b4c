"""Time both routes of the pattern table and print table_cost's pick beside
the faster one.

The tables are every (q, n, k) with q <= 13 prime, 1 <= k < p and
q^n <= 3 * 10^5, where both routes apply: 107 of them, the set that
tables.SEARCH_NS and tables.CHARACTER_NS are fitted on.  Each route is
timed in this process as the best of --repeat calls; a table named on
the command line with q^n past 3 * 10^5 times the characters alone and
prints the search as not run.  Each line holds q, n, k, the search's
and the characters' time in ms, the ns per monic and unit of 3 + 2 k^2
((3 + 2 k^2) q^n of them) and per transform product ((2P + k) 2 k q^k
of them, P patterns), the route that table_cost picks and the faster
one.  The last lines give the time lost to picking the slower route, in
all, and the range of each constant over the tables with k >= 2 on
which both routes take over 5 ms.  Run from the repository root:

    python3 tests/route_times.py
    python3 tests/route_times.py --repeat 1 7,6,3 13,4,3 31,6,3

The engine is read from the src directory beside this file.  Standard
library only.
"""

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from factpat.ffield import make_field  # noqa: E402
from factpat.patterns import enumerate_patterns  # noqa: E402
from factpat.tables import (_character_table, _search_table,  # noqa: E402
                            table_cost)

TABLES = [(q, n, k) for q in (2, 3, 5, 7, 11, 13)
          for n in range(1, 19) if q ** n <= 3 * 10 ** 5
          for k in range(1, min(n, q - 1) + 1)]
SLOW_MS = 5.0
SEARCH_MAX = 3 * 10 ** 5        # the largest q^n whose search is timed


def best_ms(route, K, pats, k, repeat):
    times = []
    for _ in range(repeat):
        start = time.perf_counter()
        route(K, pats, k)
        times.append(time.perf_counter() - start)
    return 1e3 * min(times)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--repeat", type=int, default=3)
    parser.add_argument("tables", nargs="*", metavar="Q,N,K",
                        help="tables to time in place of the 107")
    args = parser.parse_args(argv)
    tables = [tuple(map(int, t.split(","))) for t in args.tables] or TABLES
    lost, per_monic, per_op = 0.0, [], []
    for q, n, k in tables:
        K = make_field(q)
        pats = enumerate_patterns(n)
        characters = best_ms(_character_table, K, pats, k, args.repeat)
        op_ns = 1e6 * characters / ((2 * len(pats) + k) * 2 * k * q ** k)
        rule = "characters" if table_cost(K, n, k, len(pats))[1] \
            else "search"
        if q ** n > SEARCH_MAX:
            print(f"{q} {n} {k} search not run characters {characters:.3f} "
                  f"ms - ns/monic {op_ns:.1f} ns/op rule {rule} faster -",
                  flush=True)
            continue
        search = best_ms(_search_table, K, pats, k, args.repeat)
        monic_ns = 1e6 * search / ((3 + 2 * k * k) * q ** n)
        faster = "characters" if characters < search else "search"
        lost += abs(search - characters) if rule != faster else 0.0
        if k >= 2 and min(search, characters) > SLOW_MS:
            per_monic.append(monic_ns)
            per_op.append(op_ns)
        print(f"{q} {n} {k} search {search:.3f} ms characters "
              f"{characters:.3f} ms {monic_ns:.0f} ns/monic "
              f"{op_ns:.1f} ns/op rule {rule} faster {faster}", flush=True)
    print(f"lost to the slower route: {lost:.3f} ms")
    for name, values in (("ns per monic and unit", per_monic),
                         ("ns per operation", per_op)):
        span = (f"{min(values):.1f}-{max(values):.1f} over {len(values)}"
                if values else "none")
        print(f"{name} where both take over {SLOW_MS:g} ms: {span}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
