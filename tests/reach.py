"""Print, per engine function, the executable lines that no run reached.

The runs are those of tests/report_bytes.py: the first --count configs
it draws for seed 0 (default 200), and with --perfbench also every
seed-0 call of the benchmark's workloads.  A line tracer
(sys.settrace, limited to the files of src/factpat) records each line
they execute.  An engine function is a module-level function or a
method; the lines of what is defined inside it (closures, lambdas,
comprehensions) count as its own.  Each output line names a function
with at least one line not reached, as module.qualname, then those line
numbers, a run of unreached executable lines written first-last, and
"(never called)" if none of its lines ran.  The last line on stderr
counts them and gives the wall time.  Run from the repository root:

    python3 tests/reach.py --count 200 --perfbench > unreached.txt

The drivers are called in process with one worker, as report_bytes.py
calls them, so the CLI (factpat.cli, census.parse_config and
emit_report) is listed as never called.  Module-level and class-body
lines run at import, before tracing starts, and are not listed.  Python
versions differ slightly in which lines they report as executable.
Standard library only.
"""

import argparse
import contextlib
import dis
import inspect
import io
import random
import runpy
import sys
import time
import types
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src" / "factpat"


def _code_lines(code):
    """The line numbers of code and of every code object nested in it."""
    lines = {line for _, line in dis.findlinestarts(code) if line}
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            lines |= _code_lines(const)
    return lines


def engine_functions():
    """{(file, qualname): lines}: each engine function's executable lines,
    read from the compiled modules' code objects."""
    out = {}

    def visit(path, code, prefix):
        for const in code.co_consts:
            if not isinstance(const, types.CodeType):
                continue
            if not const.co_flags & inspect.CO_NEWLOCALS:   # a class body
                visit(path, const, f"{prefix}{const.co_name}.")
            elif not const.co_name.startswith("<"):     # run at import
                out[str(path), prefix + const.co_name] = _code_lines(const)

    for path in sorted(SRC.glob("*.py")):
        visit(path, compile(path.read_text(), str(path), "exec"), "")
    return out


def trace(run):
    """The (file, line) pairs that run() executes in the engine."""
    files = {str(path) for path in SRC.glob("*.py")}
    hits = set()

    def local(frame, event, arg):
        if event == "line":
            hits.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def calls(frame, event, arg):
        if frame.f_code.co_filename not in files:
            return None
        hits.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))
        return local

    sys.settrace(calls)
    try:
        run()
    finally:
        sys.settrace(None)
    return hits


def _ranges(missed, lines):
    """missed as first-last runs of consecutive entries of sorted lines."""
    out, run = [], []
    for line in lines:
        if line in missed:
            run.append(line)
        elif run:
            out.append(run)
            run = []
    if run:
        out.append(run)
    return ", ".join(str(r[0]) if len(r) == 1 else f"{r[0]}-{r[-1]}"
                     for r in out)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--count", type=int, default=200)
    parser.add_argument("--perfbench", action="store_true",
                        help="also run the perfbench seed-0 calls")
    args = parser.parse_args(argv)
    start = time.perf_counter()
    rb = runpy.run_path(str(HERE / "report_bytes.py"))

    def run():
        rng = random.Random(0)
        for _ in range(args.count):
            rb["report_bytes"](*rb["draw"](rng))
        if args.perfbench:
            with contextlib.redirect_stdout(io.StringIO()):
                rb["perfbench_digests"]()

    hits = trace(run)
    unreached = never = 0
    for (path, name), lines in engine_functions().items():
        missed = {line for line in lines if (path, line) not in hits}
        if not missed:
            continue
        unreached += len(missed)
        note = ""
        if missed == lines:
            never += 1
            note = " (never called)"
        print(f"{Path(path).stem}.{name} {_ranges(missed, sorted(lines))}"
              f"{note}")
    print(f"{unreached} lines unreached, {never} functions never called, "
          f"in {time.perf_counter() - start:.1f} s", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
