"""wrtrials benchmark: Monte Carlo replicate throughput on three workloads.

    python3 perfbench/run.py --workload survival_tables --seed 1 --seconds 20 --trace 0

Run from anywhere inside a checkout; it measures the ``src`` next to it.

``--trace 0`` measures the end-to-end metrics:

* ``reps_per_s``: replicates per second of a round at the reference
  speed, the median over the rounds of the run (see ``workloads.py``); the
  run lasts ``--seconds`` and at least MIN_ROUNDS rounds;
* ``peak_rss_mb``: the high-water resident memory of this process;
* ``setup_s``: the median over fresh processes of the time to import
  wrtrials and build the workload's configs, at the reference speed.

The reference speed: the machine's speed drifts, so each timing is divided
by the slowdown that fixed calibration work, timed just before and after it,
shows against its reference duration (see ``speed_probe``).  The unscaled
rate and set-up time are printed on ``#`` lines.

``--trace 1`` measures the per-layer metrics from a traced run (see
``spans.py``) and replays its rounds untraced to compare summaries and to
give ``trace.overhead``.

In both modes every run also runs round 0 of the two pinned seeds (the
first two timed rounds with ``--trace 0``) and compares each cell's full
``McSummary`` with ``pinned.json``.  A cell (one
``monte_carlo`` call) fails when it raises, when it breaks a structural
check, or when it differs from the pinned or untraced summary; the failures
go into ``failed`` and ``error_rate``.  The last line of standard output is
the JSON result; the lines before it start with ``#``.
"""

from __future__ import annotations

import os

LOADAVG_AT_START = os.getloadavg()

import argparse  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Callable  # noqa: E402
from time import perf_counter  # noqa: E402

import workloads  # noqa: E402  (pins BLAS threads, puts the checkout's src on sys.path)

import numpy as np  # noqa: E402
import scipy  # noqa: E402
from spans import ROOT_SPAN, SELF_TIME_METRICS, Tracer, layer_metrics, span_problems  # noqa: E402

HERE = Path(__file__).resolve().parent

SETUP_PROBES = 5
MIN_ROUNDS = 5
# The calibration kernels' durations at the reference speed: about their
# durations on the 2-CPU Xeon VM the benchmark was built on when it was
# lightly loaded, so that scaled figures read as if timed then.
INTERPRETER_REF_S = 0.04
ARRAY_REF_S = 0.028
_CALIBRATION_X = np.random.default_rng(0).standard_normal(4000)
# The root spans open just before and close just after each round's own
# timer, a few microseconds in rounds of seconds.
WALL_REL_TOL = 1e-3
OUT_DIR = workloads.ROOT / ".perfbench_out"

_SETUP_PROBE = """\
import time
t0 = time.perf_counter()
import sys
sys.path.insert(0, {here!r})
import workloads
workloads.WORKLOADS[{name!r}].build_configs(0)
print(time.perf_counter() - t0)
"""


class Tally:
    """Cells attempted and failed, and whether a check outside the cells failed."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.checks_ok = True

    def cell(self, where: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            print(f"# FAIL {where}: {'; '.join(problems)}", file=sys.stderr)

    def check(self, where: str, problems: list[str]) -> None:
        if problems:
            self.checks_ok = False
            print(f"# FAIL {where}: {'; '.join(problems)}", file=sys.stderr)


def interpreter_seconds() -> float:
    """Time a fixed pure-Python loop of dict updates and integer arithmetic."""
    t0 = perf_counter()
    counts: dict[int, int] = {}
    total = 0
    for i in range(250_000):
        key = i & 1023
        counts[key] = counts.get(key, 0) + i
        total += i % 7
    return perf_counter() - t0


def array_seconds() -> float:
    """Time a fixed all-pairs comparison of 4000 values, like the O(N^2) kernels at N=4000."""
    t0 = perf_counter()
    for _ in range(2):
        (_CALIBRATION_X[:, None] < _CALIBRATION_X[None, :]).sum()
    return perf_counter() - t0


def speed_probe(array_bound: bool) -> float:
    """How many times slower than the reference speed the machine runs now.

    On a shared machine the speed of the same code drifts by up to a factor
    of two over minutes.  A workload's round times follow the calibration
    work that resembles it: array work for an array-bound workload,
    interpreter work for the others.
    """
    if array_bound:
        return array_seconds() / ARRAY_REF_S
    return interpreter_seconds() / INTERPRETER_REF_S


def run_rounds(workload, round_seeds, tally: Tally, tracer: Tracer | None = None,
               seconds: float | None = None, probe: Callable[[], float] | None = None):
    """Run a round per seed; return lists of each round's cells, elapsed seconds and slowdown.

    With ``seconds``, stop once that much time has passed and MIN_ROUNDS
    rounds are done.  A round that raises counts its missing cells as failed.
    With ``probe``, a speed probe runs before the first round and after each
    round, and a round's slowdown is the mean of the probes around it;
    without, the list of slowdowns is empty.
    """
    rounds, elapsed, slowdowns = [], [], []
    speed = probe() if probe else 0.0
    start = perf_counter()
    for seed in round_seeds:
        if seconds is not None and len(rounds) >= MIN_ROUNDS and perf_counter() - start >= seconds:
            break
        cells: list = []
        idx = tracer.open(ROOT_SPAN) if tracer else None
        t0 = perf_counter()
        try:
            workload.run_round(seed, cells)
        except Exception:  # a failed cell is counted, and the run goes on
            traceback.print_exc()
            for _ in range(workload.cells_per_round - len(cells)):
                tally.cell(f"{workload.name} round seed {seed}", ["raised"])
        elapsed.append(perf_counter() - t0)
        if tracer:
            tracer.close(idx)
        rounds.append(cells)
        if probe:
            before, speed = speed, probe()
            slowdowns.append((before + speed) / 2)
    return rounds, elapsed, slowdowns


def round_rates(rounds, elapsed) -> list[float]:
    """Replicates per second of each round."""
    return [sum(cell.cfg.reps for cell in cells) / s for cells, s in zip(rounds, elapsed)]


def record_cells(workload, rounds, tally: Tally, expected=None, differences=None) -> None:
    """Check every cell.

    ``expected[i]`` maps the cell keys of round i to what
    ``differences(cell, expected_value)`` compares the cell with.
    """
    for i, cells in enumerate(rounds):
        for cell in cells:
            problems = workloads.cell_problems(cell)
            if expected is not None:
                want = expected[i].get(cell.key)
                if want is None:
                    problems.append("no summary to compare with")
                else:
                    problems += differences(cell, want)
            tally.cell(f"{workload.name} round {i} {cell.key}", problems)


def record_pinned_cells(workload, rounds, tally: Tally) -> None:
    """Check the pinned-seed rounds against pinned.json."""
    pinned = workloads.load_pinned().get(workload.name, {})
    expected = [pinned.get(label, {}) for label in workloads.PINNED_SEEDS]
    record_cells(workload, rounds, tally, expected, workloads.pinned_differences)


def seed_rounds(seed: int):
    i = 0
    while True:
        yield workloads.round_seed(seed, i)
        i += 1


def setup_seconds(name: str) -> tuple[float, float]:
    """Median set-up seconds over fresh processes: at the reference speed, and as timed."""
    scaled, times = [], []
    before = speed_probe(array_bound=False)  # importing is interpreter work
    for _ in range(SETUP_PROBES):
        out = subprocess.run(
            [sys.executable, "-c", _SETUP_PROBE.format(here=str(HERE), name=name)],
            cwd=workloads.ROOT, capture_output=True, text=True, timeout=120, check=True,
        )
        times.append(float(out.stdout.strip().splitlines()[-1]))
        after = speed_probe(array_bound=False)
        scaled.append(times[-1] / ((before + after) / 2))
        before = after
    return statistics.median(scaled), statistics.median(times)


def machine() -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas_threads": {v: os.environ[v] for v in workloads.BLAS_THREAD_VARS},
        "loadavg_at_start": LOADAVG_AT_START,
        "platform": platform.platform(),
    }


def measure_end_to_end(workload, seed: int, seconds: float, tally: Tally) -> dict:
    setup, setup_as_timed = setup_seconds(workload.name)
    # the pinned rounds are timed too: they are the first rounds of every run
    pinned = workloads.pinned_round_seeds()
    rounds, elapsed, slowdowns = run_rounds(
        workload, itertools.chain(pinned, seed_rounds(seed)), tally, seconds=seconds,
        probe=lambda: speed_probe(workload.array_bound))
    record_pinned_cells(workload, rounds[:len(pinned)], tally)
    record_cells(workload, rounds[len(pinned):], tally)
    rates = round_rates(rounds, elapsed)
    print(f"# {workload.name} unscaled: reps_per_s = {statistics.median(rates)!r} 1/s, "
          f"setup_s = {setup_as_timed!r} s; median slowdown = {statistics.median(slowdowns)!r} "
          f"over {len(rounds)} rounds")
    return {
        "reps_per_s": statistics.median(r * s for r, s in zip(rates, slowdowns)),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "setup_s": setup,
    }


def measure_layers(workload, seed: int, seconds: float, tally: Tally) -> dict:
    # counts and the fs memory peak: the pinned rounds, a fixed amount of work
    counted = Tracer(measure_memory=True)
    with counted.installed(workload.expected_bindings):
        rounds, _, _ = run_rounds(workload, workloads.pinned_round_seeds(), tally, counted)
    record_pinned_cells(workload, rounds, tally)

    # times: the seed's rounds traced, then the same rounds untraced
    timed = Tracer()
    with timed.installed(workload.expected_bindings):
        traced, traced_elapsed, _ = run_rounds(workload, seed_rounds(seed), tally, timed, seconds)
    replay = itertools.islice(seed_rounds(seed), len(traced))
    untraced, untraced_elapsed, _ = run_rounds(workload, replay, tally)
    record_cells(workload, traced, tally)
    # the same code runs in both, so the summaries must agree digit for digit
    record_cells(workload, untraced, tally,
                 [{c.key: workloads.summary_json(c) for c in cells} for cells in traced],
                 workloads.exact_differences)

    for tracer, label in ((counted, "pinned"), (timed, "timed")):
        missing = workload.expected_bindings - tracer.fired
        tally.check(f"{workload.name} {label} rounds: traced wrappers",
                    [f"never fired: {sorted(missing)}"] if missing else [])
        tally.check(f"{workload.name} {label} rounds: spans nest", span_problems(tracer.spans)[:5])
    metrics = layer_metrics(counted, timed, sum(traced_elapsed),
                            statistics.median(round_rates(traced, traced_elapsed)),
                            statistics.median(round_rates(untraced, untraced_elapsed)))
    # Self times of spans that nest add up to the root spans' wall time by
    # construction.  trace.wall_ms comes from each round's own timer instead,
    # so this compares the spans with a clock they do not share.
    self_sum = sum(metrics[name] for name in SELF_TIME_METRICS.values())
    wall_ms = metrics["trace.wall_ms"]
    tally.check(f"{workload.name}: self times sum to the traced wall time",
                [] if abs(self_sum - wall_ms) <= WALL_REL_TOL * wall_ms
                else [f"{self_sum} ms != {wall_ms} ms"])

    OUT_DIR.mkdir(exist_ok=True)
    with open(OUT_DIR / f"trace-{workload.name}-seed{seed}.json", "w") as fh:
        json.dump({"workload": workload.name, "seed": seed, "machine": machine(),
                   "spans": timed.spans, "counts": counted.counts, "metrics": metrics}, fh)
    return metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    with open(workloads.ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    declared = spec["per_layer" if args.trace else "end_to_end"]

    workload = workloads.WORKLOADS[args.workload]
    tally = Tally()
    measure = measure_layers if args.trace else measure_end_to_end
    values = measure(workload, args.seed, args.seconds, tally)
    if set(values) != {m["name"] for m in declared}:
        raise RuntimeError(f"metrics {sorted(values)} do not match BENCHMARK.json")

    print("# machine " + json.dumps(machine()))
    for m in declared:
        print(f"# {args.workload} {m['name']} = {values[m['name']]!r} {m['unit']}")
    print(f"# {args.workload} error_rate = {tally.failed}/{tally.attempted} cells")
    print(json.dumps({
        "correct": tally.failed == 0 and tally.checks_ok,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
