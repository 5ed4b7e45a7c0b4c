"""Command-line entry point.

Subcommands: census, verify-correspondence, variety, global, bounds.
Each reads an INI config (see the census module docstring), applies any
flag overrides, and emits a deterministic report to stdout or --out.
Exit codes: 0 when every checked identity and applicable bound passed,
1 when a check failed, 2 for configuration or budget errors and for
an --out path that cannot be written.
"""

from __future__ import annotations

import argparse
import sys

from . import census
from .errors import BudgetError


def _add_common(sub):
    sub.add_argument("--config", required=True, help="path to the INI config")
    sub.add_argument("--format", choices=("json", "csv"), default=None,
                     help="report format (overrides [run] format)")
    sub.add_argument("--workers", type=int, default=None,
                     help="parallel workers for member enumeration")
    sub.add_argument("--budget", type=int, default=None,
                     help="run budget (overrides [run] budget)")
    sub.add_argument("--out", default=None,
                     help="write the report to this path instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="factpat",
        description="Factorization-pattern census and verification for "
                    "linear families of monic polynomials over finite fields.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, text in (
            ("census", "pattern census of a family with bound verdicts"),
            ("verify-correspondence", "exhaustive root-vector correspondence checks"),
            ("variety", "point counts and smoothness probe of the symmetric variety"),
            ("global", "unconstrained census of all monic polynomials"),
            ("bounds", "bound values and applicability, no enumeration")):
        _add_common(sub.add_parser(name, help=text))
    return parser


def _load_config(args) -> census.RunConfig:
    cfg = census.parse_config(args.config)
    if args.format is not None:
        cfg.fmt = args.format
    if args.workers is not None:
        cfg.workers = args.workers
    if args.budget is not None:
        cfg.budget = args.budget
    cfg.check_limits()
    if args.out is not None:
        cfg.out = args.out
    return cfg


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _load_config(args)
        if args.command == "census":
            report = census.run_census(cfg)
        elif args.command == "verify-correspondence":
            report = census.run_verify(cfg, sections=("correspondence",))
        elif args.command == "variety":
            report = census.run_verify(cfg, sections=("variety",))
        elif args.command == "global":
            report = census.run_global(cfg)
        else:
            report = census.run_bounds(cfg)
        text = census.emit_report(report, cfg.fmt, cfg.out)
    except (ValueError, OSError, BudgetError) as exc:
        print(f"factpat: {exc}", file=sys.stderr)
        return 2
    if cfg.out is None:
        sys.stdout.write(text)
    return 0 if report["overall_pass"] else 1


if __name__ == "__main__":
    sys.exit(main())
