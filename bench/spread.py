"""Run-to-run spread of the end-to-end metrics.

    python3 bench/spread.py --workload NAME

Runs ``run.py --trace 0`` once per seed, 1 to 10, then prints for each
end-to-end metric the median, the distance between the first and third
quartile as a share of the median (``statistics.quantiles(values, n=4)``),
and that share against a third of the metric's bound in ``BENCHMARK.json``.
Exits 1 if any run is incorrect.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys

import run

CONFIG = json.loads((run.ROOT / "BENCHMARK.json").read_text("utf-8"))
SEEDS = range(1, 11)


def collect(workload: str, seeds):
    results = []
    for seed in seeds:
        proc = subprocess.run(
            [sys.executable, str(run.BENCH / "run.py"), "--workload", workload,
             "--seed", str(seed), "--seconds", str(CONFIG["run_seconds"]),
             "--trace", "0"],
            capture_output=True, text=True, check=True)
        results.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return results


def spread(values) -> float:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    args = parser.parse_args()
    results = collect(args.workload, SEEDS)
    ok = all(r["correct"] for r in results)
    print(f"{args.workload}: {len(results)} runs, seeds {SEEDS.start}..{SEEDS.stop - 1}, "
          f"all correct: {ok}")
    for metric in CONFIG["end_to_end"]:
        values = [r["metrics"][metric["name"]]["value"] for r in results]
        s = spread(values)
        flag = "ok" if s < metric["bound"] / 3 else "WIDE"
        print(f"  {metric['name']:14s} median {statistics.median(values):10.4f} "
              f"{metric['unit']:3s} spread {s:6.3f} (bound/3 {metric['bound'] / 3:.3f}) {flag}")
        print("    " + " ".join(f"{v:.4f}" for v in values))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
