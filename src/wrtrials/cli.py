"""Command-line interface.

Subcommands:
  simulate         run one scenario config (JSON file), print the summary
  power            closed-form sample sizes for the binary composite
  reproduce-table  rerun a benchmark table and print per-cell verdicts
  gen              write the cohort of the scenario's first replicate to CSV

Exit codes: 0 success, 1 a reproduced table failed its required checks,
2 configuration error (an unreadable or unwritable path included, and a
config file that does not decode as text; a ``--csv`` path is opened
before the run, so an unwritable one runs and prints nothing, and an existing
file is rewritten only once the run has succeeded),
3 degenerate-only results.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import sys

from .core import ConfigError, DegenerateResultError
from .datagen import cohort_to_csv
from .harness import _streams, monte_carlo, scenario_from_dict, trial_cohort
from .power import ThetaBinary, matched_sample_size, matched_win_probs, unmatched_sample_size
from .presets import TABLE_IDS, reproduce_table


def _csv_row(name: str, summary: dict) -> dict:
    """One ``simulate --csv`` row: the summary's fields in order, ``mean_ci`` split in two."""
    row = {"analysis": name}
    for key, value in summary.items():
        if key == "mean_ci":
            row["mean_ci_low"], row["mean_ci_high"] = value
        else:
            row[key] = value
    return row


def _csv_out(path):
    """``path`` opened for a CSV, or a null context without a path.

    Opened before the run, so an unwritable path is refused (an ``OSError``,
    exit 2) before any replicate runs or anything is printed.  It is opened
    to append and truncated only when the CSV is written, so a run refused
    after the open leaves an existing file as it was.
    """
    return open(path, "a", newline="") if path else contextlib.nullcontext()


def _cmd_simulate(args) -> int:
    with open(args.config) as fh:
        cfg = scenario_from_dict(json.load(fh))
    with _csv_out(args.csv) as out:
        summaries = monte_carlo(cfg, n_jobs=args.jobs)
        payload = {name: s.to_dict() for name, s in summaries.items()}
        print(json.dumps(payload, indent=2))
        if out:
            out.truncate(0)
            rows = [_csv_row(name, summary) for name, summary in payload.items()]
            writer = csv.DictWriter(out, fieldnames=list(rows[0]))
            writer.writeheader()
            writer.writerows(rows)
    return 0


def _cmd_power(args) -> int:
    probs = matched_win_probs(args.pt, args.qt, args.pc, args.qc)
    n = g = c0 = c1 = None
    if args.matched:
        if probs.p_w + probs.p_l <= 0.0:
            raise ConfigError("no effect: every pair ties")
        p_a = max(probs.p_w, probs.p_l) / (probs.p_w + probs.p_l)
        n, total = matched_sample_size(p_a, probs.p_tie, args.alpha, args.power)
    else:
        theta1 = ThetaBinary.from_rates(args.pt, args.qt, args.pc, args.qc)
        total, g, c0, c1 = unmatched_sample_size(theta1, args.alpha, args.power)
    record = {"n": n, "N": total, "p_w": probs.p_w, "p_l": probs.p_l, "p_tie": probs.p_tie,
              "g": g, "C0": c0, "C1": c1}
    print(json.dumps(record, indent=2))
    return 0


def _cmd_reproduce_table(args) -> int:
    with _csv_out(args.csv) as out:
        report = reproduce_table(args.table, reps=args.reps, seed=args.seed, n_jobs=args.jobs)
        for line in report.lines():
            print(line)
        if out:
            out.truncate(0)
            csv.writer(out).writerows(report.to_csv_rows())
    return 0 if report.required_pass else 1


def _cmd_gen(args) -> int:
    with open(args.config) as fh:
        cfg = scenario_from_dict(json.load(fh))
    # replicate 0 of monte_carlo: the first of the master seed's children
    cohort, _ = trial_cohort(cfg, _streams(cfg.master_seed, 1)[0])
    cohort_to_csv(cohort, args.out)
    print(f"wrote {len(cohort)} patients to {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wrtrials",
        description="Win-ratio analyses and clinical-trial design simulation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="run one scenario config")
    p.add_argument("--config", required=True, help="path to a scenario JSON file")
    p.add_argument("--csv", help="also write the summary as CSV")
    p.add_argument("--jobs", type=int, default=1, help="worker processes")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("power", help="closed-form sample size for the binary composite")
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--matched", action="store_true")
    mode.add_argument("--unmatched", action="store_true")
    p.add_argument("--pt", type=float, required=True)
    p.add_argument("--qt", type=float, required=True)
    p.add_argument("--pc", type=float, required=True)
    p.add_argument("--qc", type=float, required=True)
    p.add_argument("--alpha", type=float, default=0.05)
    p.add_argument("--power", type=float, default=0.8)
    p.set_defaults(func=_cmd_power)

    p = sub.add_parser("reproduce-table", help="rerun a benchmark table")
    p.add_argument("table", choices=list(TABLE_IDS))
    p.add_argument("--reps", type=int, default=2000)
    p.add_argument("--seed", type=int, default=20240501)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--csv", help="write cells as CSV")
    p.set_defaults(func=_cmd_reproduce_table)

    p = sub.add_parser("gen", help="write the cohort of the first replicate as CSV")
    p.add_argument("--config", required=True, help="path to a scenario JSON file")
    p.add_argument("--out", required=True, help="output CSV path")
    p.set_defaults(func=_cmd_gen)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, OSError, json.JSONDecodeError, UnicodeDecodeError) as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    except DegenerateResultError as err:
        print(f"degenerate result: {err}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
