"""The benchmark's workloads: the work one round does, and how its cells are checked.

A round is a fixed unit of work built from a seed; a cell is one
``monte_carlo`` call inside it, and the cell's ``McSummary`` values are the
output that is checked.  Importing this module puts the checkout's ``src``
first on ``sys.path``, so the benchmark always measures the source next to it.
"""

from __future__ import annotations

import json
import math
import os
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

# One BLAS thread, set before numpy loads: the workloads are serial, and
# competing BLAS threads on a small machine make timings unsteady.
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
if not (SRC / "wrtrials" / "__init__.py").is_file():
    raise SystemExit(f"perfbench: no wrtrials source at {SRC}")
sys.path.insert(0, str(SRC))

from wrtrials import harness, presets  # noqa: E402
from wrtrials.datagen import BinaryGenConfig, SubpopMix  # noqa: E402

if not Path(harness.__file__).resolve().is_relative_to(SRC):
    raise SystemExit(f"perfbench: wrtrials was imported from {harness.__file__}, not {SRC}")

# Replicates per cell.  They set the size of one round: one to five seconds
# of work, so that a run holds enough rounds for a steady median.  At
# N=4000 about one Cox fit in 40 stops at the iteration cap and its
# replicate is degenerate; three replicates keep such a cell from having
# no usable replicate, which would make monte_carlo raise.
SURVIVAL_REPS = 20
ENRICHMENT_REPS = 10
LARGE_REPS = 3
LARGE_N = 4000

# Every run re-checks round 0 of both seeds against PINNED_FILE.  Develop
# against "dev"; "held_out" is the check that a change was not tuned to it.
PINNED_SEEDS = {"dev": 11, "held_out": 29}
PINNED_FILE = Path(__file__).resolve().parent / "pinned.json"


@dataclass(frozen=True)
class Cell:
    key: str
    cfg: harness.ScenarioConfig
    summaries: dict


@dataclass(frozen=True)
class Workload:
    name: str
    cells_per_round: int
    run_round: Callable[[int, list], None]  # (seed, sink): appends each Cell to sink
    build_configs: Callable[[int], list]
    expected_bindings: frozenset[str]
    # True when O(N^2) array work dominates a round, so that the machine's
    # speed for it is calibrated with array work, not interpreter work
    array_bound: bool = False


def round_seed(seed: int, index: int) -> int:
    """Seed of round ``index`` of a run with workload seed ``seed``."""
    return (seed % 2**32) * 100_000 + index


def pinned_round_seeds() -> list[int]:
    """Round 0 of each pinned seed, in PINNED_SEEDS order."""
    return [round_seed(seed, 0) for seed in PINNED_SEEDS.values()]


# ---------------------------------------------------------------------------
# survival_tables and enrichment_tables: reproduce_table at reduced reps


def _table_round(tables: tuple[str, ...], reps: int):
    def run(seed: int, sink: list) -> None:
        # reproduce_table keeps only one number per cell, so the full
        # summaries are taken at the binding it resolves
        table_mc = presets.monte_carlo
        table = None

        def recording(cfg, n_jobs=1):
            out = table_mc(cfg, n_jobs=n_jobs)
            sink.append(Cell(f"{table}/{cfg.design}/N={cfg.n_total}", cfg, out))
            return out

        presets.monte_carlo = recording
        try:
            for table in tables:
                presets.reproduce_table(table, reps=reps, seed=seed, n_jobs=1)
        finally:
            presets.monte_carlo = table_mc

    return run


# The configs reproduce_table builds for t6, t10 and t13, rebuilt through the
# public builders for the set-up probe.
_SURV_NS = (60, 100, 200)
_SED_NS = (100, 200, 500)


def _survival_configs(seed: int) -> list:
    return [
        presets.survival_scenario(beta_t=bt, beta_in=bi, n=n, reps=SURVIVAL_REPS,
                                  master_seed=seed, win_priority=priority)
        for bt, bi, priority in ((presets.LOG06, 0.0, "death"), (0.0, presets.LOG018, "hosp"))
        for n in _SURV_NS
    ]


def _enrichment_configs(seed: int) -> list:
    mix = SubpopMix(0.05, 0.05, 0.8, 0.1)
    return [
        presets.sed_scenario(design, -2.0, 0.5, mix, n, reps=ENRICHMENT_REPS, master_seed=seed)
        for design in ("cr", "sed")
        for n in _SED_NS
    ]


# ---------------------------------------------------------------------------
# large_trial: monte_carlo at N=4000


def _large_configs(seed: int) -> list:
    survival = presets.survival_scenario(
        beta_t=presets.LOG06, n=LARGE_N, reps=LARGE_REPS, master_seed=seed)
    binary = harness.ScenarioConfig(
        design="parallel",
        outcome_family="binary",
        generator=BinaryGenConfig(p_t=0.2, q_t=0.3, p_c=0.3, q_c=0.4,
                                  n1=LARGE_N // 2, n0=LARGE_N - LARGE_N // 2),
        analyses=("MatchedWR", "StratUnmatchedWR", "UnstratUnmatchedWR"),
        n_total=LARGE_N,
        reps=LARGE_REPS,
        master_seed=seed,
    )
    return [survival, binary]


def _large_round(seed: int, sink: list) -> None:
    for cfg in _large_configs(seed):
        sink.append(Cell(f"{cfg.outcome_family}/N={cfg.n_total}", cfg, harness.monte_carlo(cfg)))


_TABLE_BINDINGS = {"presets.reproduce_table", "presets.monte_carlo", "harness.run_trial",
                   "harness.form_matched_pairs", "harness.matched_wr_test",
                   "harness.fs_unmatched_test"}
_SURVIVAL_ANALYSIS_BINDINGS = {"harness.gen_survival_cohort", "harness.cox_fit",
                               "classic_tests.cox_loglik", "harness.obrien_first_event",
                               "classic_tests.obrien_test"}

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "survival_tables", 2 * len(_SURV_NS), _table_round(("t6", "t10"), SURVIVAL_REPS),
            _survival_configs, frozenset(_TABLE_BINDINGS | _SURVIVAL_ANALYSIS_BINDINGS),
        ),
        Workload(
            "enrichment_tables", 2 * len(_SED_NS), _table_round(("t13",), ENRICHMENT_REPS),
            _enrichment_configs,
            frozenset(_TABLE_BINDINGS | {"harness.draw_continuous_patients",
                                         "harness.draw_continuous_response",
                                         "harness.contingency_or_test",
                                         "harness.improvement_indicators"}),
        ),
        Workload(
            "large_trial", 2, _large_round, _large_configs,
            frozenset(_SURVIVAL_ANALYSIS_BINDINGS | {
                "harness.monte_carlo", "harness.run_trial", "harness.gen_binary_cohort",
                "harness.form_matched_pairs", "harness.matched_wr_test",
                "harness.fs_unmatched_test"}),
            array_bound=True,
        ),
    )
}


# ---------------------------------------------------------------------------
# checks


def summary_json(cell: Cell) -> str:
    """Canonical text of a cell's summaries; floats keep every digit."""
    return json.dumps({a: s.to_dict() for a, s in cell.summaries.items()}, sort_keys=True)


# How a cell is compared with its pinned summaries.  The counts, and
# rejection_rate (rejections / reps_used), must match exactly.  The float
# means may move in their last digits when a correct change reorders a sum,
# so they match within FLOAT_REL_TOL, and NaN matches NaN.
EXACT_FIELDS = ("reps_used", "degenerate_count", "rejection_rate")
FLOAT_FIELDS = ("mean_estimate", "mean_ci")
FLOAT_REL_TOL = 1e-9


def _floats(summary: dict) -> list[float]:
    out = []
    for field in FLOAT_FIELDS:
        value = summary[field]
        out.extend(value if isinstance(value, list) else [value])
    return out


def _close(a: float, b: float) -> bool:
    return (math.isnan(a) and math.isnan(b)) or math.isclose(a, b, rel_tol=FLOAT_REL_TOL)


def pinned_differences(cell: Cell, pinned: dict) -> list[str]:
    """How a cell's summaries differ from ``pinned`` (one cell of pinned.json)."""
    got = json.loads(summary_json(cell))
    if set(got) != set(pinned):
        return [f"analyses {sorted(got)} != pinned {sorted(pinned)}"]
    problems = []
    for name, g in got.items():
        want = pinned[name]
        if set(g) != set(EXACT_FIELDS + FLOAT_FIELDS) or set(want) != set(g):
            problems.append(f"{name}: fields {sorted(g)} != pinned {sorted(want)}")
        elif (any(g[f] != want[f] for f in EXACT_FIELDS)
              or not all(map(_close, _floats(g), _floats(want)))):
            problems.append(f"{name}: {json.dumps(g)} != pinned {json.dumps(want)}")
    return problems


def exact_differences(cell: Cell, expected: str) -> list[str]:
    """How a cell's summaries differ from ``expected``, a summary_json text, digit for digit."""
    got = summary_json(cell)
    return [] if got == expected else [f"summary {got} != {expected}"]


def cell_problems(cell: Cell) -> list[str]:
    """Structural checks that hold for every seed."""
    cfg = cell.cfg
    problems = []
    if set(cell.summaries) != set(cfg.analyses):
        problems.append(f"analyses {sorted(cell.summaries)} != {sorted(cfg.analyses)}")
    for name, s in cell.summaries.items():
        if s.reps_used + s.degenerate_count != cfg.reps or s.reps_used < 1:
            problems.append(f"{name}: reps_used={s.reps_used} degenerate={s.degenerate_count}")
        if not 0.0 <= s.rejection_rate <= 1.0:
            problems.append(f"{name}: rejection_rate={s.rejection_rate}")
    return problems


def load_pinned() -> dict:
    with open(PINNED_FILE) as fh:
        return json.load(fh)
