"""Bit-identity of every benchmark-table Monte Carlo cell at a small fixed rep count.

``golden_summaries.json`` holds the full ``McSummary`` of each ``monte_carlo``
cell that ``reproduce_table`` runs for t3..t14 at ``reps=8, seed=1``, plus one
binary parallel cell (no table exercises the binary generator).  Every field
must match exactly, NaN matching NaN; a refactor that moves any digit fails.

Regenerate only when a change is meant to move the numbers, and say so in
CHANGES.md:

    PYTHONPATH=src python tests/test_golden.py
"""

import json
import math
from pathlib import Path

from wrtrials import presets
from wrtrials.datagen import BinaryGenConfig
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
    assert len(golden) == 49
    assert sorted(got) == sorted(golden)
    for key, analyses in golden.items():
        assert sorted(got[key]) == sorted(analyses), key
        for analysis, fields in analyses.items():
            for name, want in fields.items():
                assert _same(got[key][analysis][name], want), (key, analysis, name)


if __name__ == "__main__":
    with open(GOLDEN_FILE, "w") as fh:
        json.dump(collect_summaries(), fh, indent=1, sort_keys=True)
        fh.write("\n")
