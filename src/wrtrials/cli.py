"""Command-line interface.

Subcommands:
  simulate         run one scenario config (JSON file), print the summary
  power            closed-form sample sizes for the binary composite
  reproduce-table  rerun a benchmark table and print per-cell verdicts
  gen              write the cohort of the scenario's first replicate to CSV

Exit codes: 0 success, 2 configuration error, 3 degenerate-only results.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys

from .core import ConfigError, DegenerateResultError
from .datagen import cohort_to_csv
from .harness import monte_carlo, scenario_from_dict, trial_cohort
from .power import (
    THETA_NULL,
    ThetaBinary,
    matched_sample_size,
    matched_win_probs,
    unmatched_g,
    unmatched_sample_size,
    unmatched_variance,
)
from .presets import TABLE_IDS, reproduce_table

import numpy as np


def _cmd_simulate(args) -> int:
    with open(args.config) as fh:
        cfg = scenario_from_dict(json.load(fh))
    summaries = monte_carlo(cfg, n_jobs=args.jobs)
    payload = {name: s.to_dict() for name, s in summaries.items()}
    print(json.dumps(payload, indent=2))
    if args.csv:
        with open(args.csv, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(
                ["analysis", "rejection_rate", "mean_estimate", "mean_ci_low",
                 "mean_ci_high", "reps_used", "degenerate_count"]
            )
            for name, s in summaries.items():
                writer.writerow(
                    [name, s.rejection_rate, s.mean_estimate, s.mean_ci[0],
                     s.mean_ci[1], s.reps_used, s.degenerate_count]
                )
    return 0


def _cmd_power(args) -> int:
    probs = matched_win_probs(args.pt, args.qt, args.pc, args.qc)
    theta1 = ThetaBinary.from_rates(args.pt, args.qt, args.pc, args.qc)
    record = {
        "n": None,
        "N": None,
        "p_w": probs.p_w,
        "p_l": probs.p_l,
        "p_tie": probs.p_tie,
        "g": None,
        "C0": None,
        "C1": None,
    }
    if args.matched:
        p_a = probs.p_w / (1.0 - probs.p_tie)
        if p_a <= 0.5:
            p_a_mirror = probs.p_l / (1.0 - probs.p_tie)
            if p_a_mirror <= 0.5:
                raise ConfigError("no effect: win and loss probabilities are equal")
            p_a = p_a_mirror
        n, total_pairs = matched_sample_size(p_a, probs.p_tie, args.alpha, args.power)
        record["n"] = n
        record["N"] = total_pairs
    else:
        record["g"] = unmatched_g(theta1)
        record["C0"] = unmatched_variance(THETA_NULL, 1, 1) ** 0.5
        record["C1"] = unmatched_variance(theta1, 1, 1) ** 0.5
        record["N"] = unmatched_sample_size(theta1, args.alpha, args.power)
    print(json.dumps(record, indent=2))
    return 0


def _cmd_reproduce_table(args) -> int:
    report = reproduce_table(args.table, reps=args.reps, seed=args.seed, n_jobs=args.jobs)
    for line in report.lines():
        print(line)
    if args.csv:
        with open(args.csv, "w", newline="") as fh:
            csv.writer(fh).writerows(report.to_csv_rows())
    return 0


def _cmd_gen(args) -> int:
    with open(args.config) as fh:
        cfg = scenario_from_dict(json.load(fh))
    # replicate 0 of monte_carlo: the first of the master seed's children
    cohort, _ = trial_cohort(cfg, np.random.SeedSequence(cfg.master_seed).spawn(1)[0])
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
    p.add_argument("--family", choices=["binary"], default="binary")
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
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    except (FileNotFoundError, json.JSONDecodeError) as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    except DegenerateResultError as err:
        print(f"degenerate result: {err}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
