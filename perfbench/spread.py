"""Run-to-run spread of the end-to-end metrics: the check behind the bounds.

Usage (from the repository root)::

    python3 perfbench/spread.py --workload serve_mixed [--runs 10] [--first-seed 1]

Runs the benchmark ``--runs`` times for ``run_seconds`` each, one seed
each, prints every run's notes and result and then, per metric, the median and the
interquartile range as a share of the median
(``statistics.quantiles(values, n=4)``), next to the metric's bound from
``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    arguments = parser.parse_args()
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = benchmark["run_seconds"]
    bounds = {metric["name"]: metric["bound"] for metric in benchmark["end_to_end"]}

    runs = []
    for seed in range(arguments.first_seed, arguments.first_seed + arguments.runs):
        completed = subprocess.run(
            [*benchmark["command"], "--workload", arguments.workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, check=True,
        )
        lines = completed.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        runs.append(result)
        print(lines[-2])  # the run's notes: unscaled figures, tail percentiles, ...
        print(json.dumps({"seed": seed, "correct": result["correct"],
                          **{k: round(v["value"], 4) for k, v in result["metrics"].items()}}),
              flush=True)
    failed_shares = {run["failed"] / run["attempted"] for run in runs}
    print(f"correct in every run: {all(run['correct'] for run in runs)}; "
          f"failed shares: {sorted(failed_shares)}")
    for name in runs[0]["metrics"]:
        values = [run["metrics"][name]["value"] for run in runs]
        middle = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / middle if middle else float("inf")
        print(f"{name:20s} median {middle:14.4f}  IQR/median {spread:7.4f}  "
              f"bound {bounds.get(name)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
