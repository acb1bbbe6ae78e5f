#!/usr/bin/env python3
"""Observable-diameter decay along the Hamming cube family.

Runs the trend experiment against the documented screen roster (6-point
normalized circle, quarter-side square, singleton) and prints one row per
cube dimension: the exact two-group separation, the roster supremum of the
observable-diameter lower bounds, and the per-screen brackets.  The roster
supremum column should never increase with the dimension.

Deterministic for a fixed seed, regardless of --workers.  The flags get
the CLI's count checks, the report paths its writability check before
the run, and the cube sizes the library's size and member rules at
--min-n/--max-n (cli.family_of), so an input `mmconc levy-run` refuses
is refused here with the same words.

Usage:
  python3 scripts/levy_trend.py
  python3 scripts/levy_trend.py --max-n 10 --kappa 0.1 --kappa 0.05 --workers 4
  python3 scripts/levy_trend.py --out report.json --csv report.csv
"""

import argparse
import sys
from pathlib import Path

from mmconc import report_csv, report_json, run_levy_experiment
from mmconc.cli import check_flags, check_writable, family_of, write_report


def parse_args():
    parser = argparse.ArgumentParser(
        description="Observable-diameter trend along Hamming cubes"
    )
    parser.add_argument("--min-n", type=int, default=2, help="smallest cube dimension")
    parser.add_argument("--max-n", type=int, default=8, help="largest cube dimension")
    parser.add_argument(
        "--kappa",
        type=float,
        action="append",
        help="mass parameter, repeatable (default: 0.1)",
    )
    parser.add_argument("--seed", type=int, default=0, help="master seed")
    parser.add_argument("--samples", type=int, default=64, help="screen maps sampled per cell")
    parser.add_argument("--effort", type=int, default=10_000, help="heuristic search moves")
    parser.add_argument("--workers", type=int, default=1, help="parallel workers")
    parser.add_argument("--out", type=Path, default=None, help="write the JSON report here")
    parser.add_argument("--csv", type=Path, default=None, help="write the flat CSV report here")
    return parser.parse_args()


def main():
    args = parse_args()
    kappas = args.kappa or [0.1]
    try:
        check_flags(args)
        for flag, path in (("--out", args.out), ("--csv", args.csv)):
            if path is not None:
                check_writable(path, flag)
        family = family_of("hamming_cube", range(args.min_n, args.max_n + 1), "--min-n/--max-n")
        report = run_levy_experiment(
            family,
            kappa_grid=kappas,
            seed=args.seed,
            samples=args.samples,
            effort=args.effort,
            workers=args.workers,
        )
    except ValueError as err:
        sys.exit(str(err))

    # a repeated kappa repeats its rows (same seeds), so any of them prints the same
    seps = {(r["member"], r["kappa"]): r for r in report.sep_rows}
    sups = {(r["member"], r["kappa"]): r["roster_sup"] for r in report.suprema}
    cells = {(c["member"], c["screen"], c["kappa"]): c for c in report.cells}
    screens = [row["screen"] for row in report.screens]
    for kappa in kappas:
        print(f"\nkappa = {kappa}")
        columns = "".join(f" {name + ' [lo, up]':>22}" for name in screens)
        print(f"{'n':>3} {'sep':>10} {'roster sup':>11}{columns}")
        for member, spec in enumerate(family):
            sep = seps[member, kappa]
            sep_txt = f"{sep['sep_value']:.4f}" if sep["sep_is_exact"] else f">={sep['sep_lower']:.4f}"
            line = f"{spec.n:>3} {sep_txt:>10} {sups[member, kappa]:>11.4f}"
            for name in screens:
                cell = cells[member, name, kappa]
                bracket = f"[{cell['obsdiam_lower']:.4f}, {cell['obsdiam_upper']:.4f}]"
                line += f" {bracket:>22}"
            print(line)

    try:
        if args.out is not None:
            write_report(args.out, report_json(report.as_dict()))
            print(f"\nJSON report written to {args.out}")
        if args.csv is not None:
            write_report(args.csv, report_csv(report.as_dict()), "--csv")
            print(f"CSV report written to {args.csv}")
    except ValueError as err:
        sys.exit(str(err))


if __name__ == "__main__":
    main()
