"""Every workload, end to end and traced, in one command.

    python3 bench/suite.py

For each workload: one ``--trace 0`` run and two ``--trace 1`` runs at
seed 0, the seed of the known answers.  Prints every end-to-end and
per-layer metric with its unit, and whether every output matched its known
answer and its oracles.  Checks that the work counts of the two traced runs
are identical.  Then times ``duals_dense`` over seeds 0 to 4, because its
coefficient growth depends on the change of basis.  Writes the metrics, op
medians, sample counts and run metadata, with the machine's description, to
``BENCH_seed.json`` (``run.py --details`` gives the raw call times and probe
samples).  Exits 1 when any run is incorrect or any count differs between
runs.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

import run
from spread import CONFIG

COUNT_NAMES = set(run.COUNT_UNITS)
SEED = 0
DENSE_SEEDS = range(5)
OUT = run.BENCH / "BENCH_seed.json"
RAW = ("probe", "timed", "outputs")  # raw traces, left to ``run.py --details``


def one(workload: str, seed: int, trace: int) -> dict:
    (run.BENCH / "work").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.BENCH / "work") as tmp:
        details = Path(tmp) / "details.json"
        subprocess.run(
            [sys.executable, str(run.BENCH / "run.py"), "--workload", workload,
             "--seed", str(seed), "--seconds", str(CONFIG["run_seconds"]),
             "--trace", str(trace), "--details", str(details)],
            check=True, capture_output=True)
        result = json.loads(details.read_text("utf-8"))
    for key in RAW:
        result["details"].pop(key, None)
    return result


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def main() -> int:
    machine = {"python": platform.python_version(), "nproc": os.cpu_count(),
               "cpu": cpu_model(), "platform": platform.platform(),
               "run_seconds": CONFIG["run_seconds"], "seed": SEED}
    print(" ".join(f"{k}={v}" for k, v in machine.items()))
    out = {"machine": machine, "workloads": {}}
    ok = True
    for workload in (w["name"] for w in CONFIG["workloads"]):
        e2e = one(workload, SEED, 0)
        traced = [one(workload, SEED, 1) for _ in range(2)]
        counts = [{k: v["value"] for k, v in t["result"]["metrics"].items() if k in COUNT_NAMES}
                  for t in traced]
        counts_repeat = counts[0] == counts[1]
        correct = e2e["result"]["correct"] and all(t["result"]["correct"] for t in traced)
        ok = ok and correct and counts_repeat
        print(f"\n== {workload}: correct={correct} counts_repeat={counts_repeat} "
              f"calls={e2e['details']['calls']} known_answers={e2e['meta']['known_answers']} "
              f"loadavg {e2e['meta']['loadavg_before'][0]:.2f} -> "
              f"{traced[-1]['meta']['loadavg_after'][0]:.2f}")
        for source in (e2e, traced[0]):
            for name, m in source["result"]["metrics"].items():
                print(f"  {name:30s} {m['value']:>14.6g} {m['unit']}")
        for failure in e2e["failures"] + [f for t in traced for f in t["failures"]]:
            print(f"  FAIL {failure}")
        out["workloads"][workload] = {"end_to_end": e2e, "traced": traced,
                                      "counts_repeat": counts_repeat}

    dense = [one("duals_dense", s, 0) for s in DENSE_SEEDS]
    walls = [d["result"]["metrics"]["wall_s"]["value"] for d in dense]
    ok = ok and all(d["result"]["correct"] for d in dense)
    out["duals_dense_by_seed"] = {str(s): d["details"]["op_median_s"] for s, d in zip(DENSE_SEEDS, dense)}
    print(f"\n== duals_dense wall_s over seeds {list(DENSE_SEEDS)}: "
          + " ".join(f"{w:.3f}" for w in walls)
          + f" (median {statistics.median(walls):.3f}, max/min {max(walls) / min(walls):.3f})")
    OUT.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n", "utf-8")
    print(f"wrote {OUT}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
