"""Write pinned.json: every cell's full McSummary at the pinned seeds.

    python3 perfbench/pin.py

Re-pinning changes what the benchmark accepts as correct output.  Do it only
in a change whose purpose is to move the outputs, and report the old and new
summaries there.
"""

from __future__ import annotations

import json

import workloads


def main() -> None:
    pinned = {}
    for name, workload in workloads.WORKLOADS.items():
        pinned[name] = {}
        for label, seed in zip(workloads.PINNED_SEEDS, workloads.pinned_round_seeds()):
            cells: list = []
            workload.run_round(seed, cells)
            pinned[name][label] = {c.key: json.loads(workloads.summary_json(c)) for c in cells}
    with open(workloads.PINNED_FILE, "w") as fh:
        json.dump(pinned, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
