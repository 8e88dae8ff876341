"""Steadiness self-check: repeat each workload and compare spreads with the bounds.

    python3 perfbench/steadiness.py --runs 10
    python3 perfbench/steadiness.py --runs 10 --first-seed 11   # a second set of seeds
    python3 perfbench/steadiness.py --runs 1 --trace    # every metric of every workload once

Each run is ``run.py`` in its own process, for every workload and for the
``run_seconds`` of BENCHMARK.json, with seeds first_seed, first_seed + 1, ...
For every end-to-end metric it prints the median, the
quartiles (``statistics.quantiles(values, n=4)``) and the spread, which is
the distance between the quartiles as a share of the median, against the
metric's bound from BENCHMARK.json.  A spread under a third of the bound is
steady.  ``setup_s`` is reported but not held to its bound.  With
``--trace`` each workload also gets one traced run, whose per-layer metrics
are printed.  Raw results go to .perfbench_out/steadiness.json.  The exit
code is 1 when a run fails its checks or a spread exceeds its bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, list[str]]:
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=True,
    )
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if not result["correct"]:
        print(out.stderr, file=sys.stderr)
    return result, lines[:-1]


def quartile_spread(values: list[float]) -> tuple[float, float, float, float]:
    q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
    return med, q1, q3, (q3 - q1) / med


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args()

    seconds = spec["run_seconds"]
    ok = True
    record = {"seconds": seconds, "runs": {}}
    for workload in (w["name"] for w in spec["workloads"]):
        results = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            result, notes = run_once(workload, seed, seconds, 0)
            results.append({"seed": seed, "result": result, "notes": notes})
            values = {k: v["value"] for k, v in result["metrics"].items()}
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']} {values}", flush=True)
            ok &= result["correct"]
        print(f"{workload}: {'metric':<12} {'unit':<5} {'median':>10} {'q1':>10} {'q3':>10} "
              f"{'spread':>7} {'bound':>6}  verdict")
        for m in spec["end_to_end"]:
            med, q1, q3, spread = quartile_spread(
                [r["result"]["metrics"][m["name"]]["value"] for r in results])
            verdict = ("steady" if spread < m["bound"] / 3 else
                       "within bound" if spread <= m["bound"] else "UNSTEADY")
            if verdict == "UNSTEADY" and m["name"] != "setup_s":
                ok = False
            print(f"{workload}: {m['name']:<12} {m['unit']:<5} {med:>10.4f} {q1:>10.4f} {q3:>10.4f} "
                  f"{spread:>7.4f} {m['bound']:>6}  {verdict}")
        record["runs"][workload] = results
        if args.trace:
            result, notes = run_once(workload, args.first_seed, seconds, 1)
            print("\n".join(notes[1:]))
            ok &= result["correct"]
            record["runs"][workload + ":trace"] = [{"seed": args.first_seed, "result": result,
                                                    "notes": notes}]

    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    (out_dir / "steadiness.json").write_text(json.dumps(record, indent=1))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
