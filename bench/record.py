"""Write ``expected.json``: the known answer of every operation at seed 0.

    python3 bench/record.py

Runs each op of every workload once through the CLI and records the SHA-256
of its stdout, its exit code and its byte count, keyed by op and by the
digest of its input files.  An op whose output fails its oracle is not
recorded; the script then exits 1.  Re-record only when the program's
output is meant to change, and say so in the change.
"""

from __future__ import annotations

import json
import shutil
import sys

import run
from workloads import WORKLOADS

SEED = 0


def main() -> int:
    table, bad = {}, []
    for name in sorted(WORKLOADS):
        work = run.BENCH / "work" / f"record-{name}"
        try:
            workload, _ = run.setup(name, SEED, work)
            entries, memo = {}, {}
            for op in workload.ops:
                _, rc, out, err = run.run_cli(work, op)
                reason = run.judge(op, rc, out, err, memo, {})
                if reason:
                    bad.append(f"{name} {op.id}: {reason}")
                    continue
                entries[op.id] = {"inputs": run.inputs_digest(op),
                                  "sha256": run.digest(out), "exit": rc,
                                  "bytes": len(out)}
            table[name] = entries
        finally:
            shutil.rmtree(work, ignore_errors=True)
    for line in bad:
        print("FAIL", line)
    if bad:
        return 1
    run.EXPECTED.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n", "utf-8")
    print(f"wrote {run.EXPECTED} ({sum(map(len, table.values()))} ops)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
