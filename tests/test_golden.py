"""Bit-identity of every benchmark-table Monte Carlo cell at a small fixed rep count.

``golden_summaries.json`` holds the full ``McSummary`` of each ``monte_carlo``
cell that ``reproduce_table`` runs for t3..t14 at ``reps=8, seed=1``, plus one
binary parallel cell (no table exercises the binary generator) and one
continuous parallel cell with O'Brien (no table runs the continuous family on
the parallel design or with O'Brien).  Every field must match exactly, NaN
matching NaN; a refactor that moves any digit fails.

Regenerate only when a change is meant to move the numbers, and say so in
CHANGES.md:

    PYTHONPATH=src python tests/test_golden.py

Before it overwrites the file, the command prints every moved field (old ->
new), the largest relative move of the float fields, and whether any count
or rejection rate changed, so the move can be reported with the change.
"""

import json
import math
from pathlib import Path

from wrtrials import presets
from wrtrials.datagen import BinaryGenConfig, ContinuousGenConfig, SubpopMix
from wrtrials.harness import ScenarioConfig, monte_carlo

GOLDEN_FILE = Path(__file__).resolve().parent / "golden_summaries.json"
REPS = 8
SEED = 1

BINARY_CELL = ScenarioConfig(
    design="parallel",
    outcome_family="binary",
    generator=BinaryGenConfig(p_t=0.2, q_t=0.3, p_c=0.3, q_c=0.4, n1=100, n0=100),
    analyses=("MatchedWR", "StratUnmatchedWR", "UnstratUnmatchedWR"),
    n_total=200,
    reps=REPS,
    master_seed=SEED,
)

CONTINUOUS_CELL = ScenarioConfig(
    design="parallel",
    outcome_family="continuous",
    generator=ContinuousGenConfig(beta_t1=-2.0, mix=SubpopMix(0.05, 0.05, 0.8, 0.1)),
    analyses=("MatchedWR", "StratUnmatchedWR", "UnstratUnmatchedWR", "Obrien", "Contingency"),
    n_total=100,
    reps=REPS,
    master_seed=SEED,
)


def _as_json(summaries: dict) -> dict:
    return json.loads(json.dumps({a: s.to_dict() for a, s in summaries.items()}))


def collect_summaries() -> dict:
    """Cell key -> {analysis: McSummary fields} for every golden cell."""
    cells = {}
    table_mc = presets.monte_carlo
    table = None

    def recording(cfg, n_jobs=1):
        out = table_mc(cfg, n_jobs=n_jobs)
        cells[f"{table}/{cfg.design}/N={cfg.n_total}"] = _as_json(out)
        return out

    # reproduce_table keeps one number per cell, so the full summaries are
    # taken at the monte_carlo binding it resolves
    presets.monte_carlo = recording
    try:
        for table in presets.TABLE_IDS:
            presets.reproduce_table(table, reps=REPS, seed=SEED)
    finally:
        presets.monte_carlo = table_mc
    cells["binary/parallel/N=200"] = _as_json(monte_carlo(BINARY_CELL))
    cells["continuous/parallel/N=100"] = _as_json(monte_carlo(CONTINUOUS_CELL))
    return cells


def _same(a, b) -> bool:
    if isinstance(a, float) and isinstance(b, float) and math.isnan(a) and math.isnan(b):
        return True
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(map(_same, a, b))
    return type(a) is type(b) and a == b


def test_golden_summaries_bit_identical():
    with open(GOLDEN_FILE) as fh:
        golden = json.load(fh)
    got = collect_summaries()
    assert len(golden) == 50
    assert sorted(got) == sorted(golden)
    for key, analyses in golden.items():
        assert sorted(got[key]) == sorted(analyses), key
        for analysis, fields in analyses.items():
            for name, want in fields.items():
                assert _same(got[key][analysis][name], want), (key, analysis, name)


# a move in any of these changes what a cell reports, not just its rounding
COUNT_FIELDS = ("reps_used", "degenerate_count", "rejection_rate")


def _relative_move(old: float, new: float) -> float:
    return abs(new - old) / abs(old) if old and not math.isnan(old + new) else math.inf


def report_moves(old: dict, new: dict) -> None:
    """Print every field that differs between two collections of summaries."""
    largest = 0.0
    counts_moved = False
    for key in sorted(set(old) | set(new)):
        for analysis in sorted(set(old.get(key, {})) | set(new.get(key, {}))):
            was = old.get(key, {}).get(analysis, {})
            now = new.get(key, {}).get(analysis, {})
            for name in sorted(set(was) | set(now)):
                a, b = was.get(name), now.get(name)
                if _same(a, b):
                    continue
                print(f"{key} {analysis} {name}: {a!r} -> {b!r}")
                if name in COUNT_FIELDS or a is None or b is None:
                    counts_moved = True
                elif isinstance(a, list):
                    largest = max([largest, *map(_relative_move, a, b)])
                else:
                    largest = max(largest, _relative_move(a, b))
    print(f"largest relative move of a float field: {largest:.3g}")
    print("a count or rejection rate changed, or a cell or field was added or removed"
          if counts_moved else "no count or rejection rate changed")


if __name__ == "__main__":
    summaries = collect_summaries()
    if GOLDEN_FILE.exists():
        with open(GOLDEN_FILE) as fh:
            report_moves(json.load(fh), summaries)
    with open(GOLDEN_FILE, "w") as fh:
        json.dump(summaries, fh, indent=1, sort_keys=True)
        fh.write("\n")
