"""Benchmark harness for leibnizalg.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--details FILE]

Builds the workload's inputs from ``--seed`` in a scratch directory under
``bench/work``, then measures for ``--seconds`` seconds:

* ``--trace 0``: a closed loop of CLI calls, one fresh process each
  (``python -m leibnizalg.cli ...``), cycling through the workload's pass.
  Prints the end-to-end metrics.
* ``--trace 1``: the same pass in this process, alternating an untraced pass
  and a pass with the layer entry points wrapped (see ``tracing.py``).
  Prints the per-layer metrics: self times, work counts, coverage and
  tracing overhead.

Times are calibrated for the speed of the machine.  On a shared machine a
CPU's speed can change by a factor of 1.7 from one second to the next, and
two CPUs differ, so the harness and its children are pinned to one CPU (the
first this process may use) and a fixed pure-Python loop of exact
arithmetic (``calibration_loop``) is timed every ``PROBE_EVERY_S`` seconds,
between operations, never inside one.  Each reported time is the measured
time scaled by ``PROBE_REF_S`` over the mean of the probe samples taken
within ``PROBE_WINDOW_S`` seconds of the measurement: seconds at the speed
at which the loop takes ``PROBE_REF_S``.  The raw times and the probe samples are in ``--details``.

Every output is checked against the committed known answer
(``expected.json``) when its input matches the one recorded there, and
always against the workload's oracles.  The last line of stdout is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
Standard library only; single process apart from the CLI calls it waits on.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

import tracing
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
EXPECTED = BENCH / "expected.json"
SETUP_REPEATS = 11
STARTUP_REPEATS = 5
PROBE_EVERY_S = 0.5
PROBE_WINDOW_S = 1.5
PROBE_REF_S = 0.012

CORPUS_DUMP = (
    "import json, leibnizalg.cli; from leibnizalg import corpus; "
    "print(json.dumps({n: corpus.text(n) for n in corpus.names()}))"
)

# Per-layer span names, in report order; each is reported as its self time
# per pass, ``<name>_s``, which is 0 on a workload that never enters it.
LAYERS = (
    "cli.dispatch", "document.parse", "core.classify", "core.adjoint",
    "core.residual", "actions.axioms", "solver.sweep", "solver.assemble",
    "solver.nullspace", "linalg.kernel", "linalg.solve_affine",
    "poly.quadratic", "cohomology.coboundary", "report.selfcheck",
    "rmatrix.cocommutator", "rmatrix.solve", "rmatrix.schouten",
    "rmatrix.gybe", "report.build", "report.duals", "report.render",
)
COUNT_UNITS = {
    "actions.verdicts": "count", "solver.systems": "count",
    "solver.distinct_forms": "count", "solver.rows": "count",
    "solver.nonzero_rows": "count", "solver.nonzero_row_frac": "ratio",
    "linalg.rank": "count", "linalg.kernel_dim": "count",
    "linalg.max_bits": "bits", "poly.terms": "count",
    "report.bytes": "bytes", "trace.spans": "count", "trace.ops": "count",
}


def calibration_loop() -> float:
    """Seconds taken by a fixed contraction of an 8x8x8 rational tensor."""
    t = time.perf_counter()
    n = 8
    f = [[[Fraction((i * 7 + j * 3 + k) % 5 - 2, (i + j + k) % 3 + 1) for k in range(n)]
          for j in range(n)] for i in range(n)]
    out = {}
    for i in range(n):
        for j in range(n):
            for k in range(n):
                s = Fraction(0)
                for p in range(n):
                    s += f[i][j][p] * f[p][k][j]
                out[(i, j, k)] = s
    return time.perf_counter() - t


class SpeedProbe:
    """Timestamped samples of ``calibration_loop``, taken between operations."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []

    def sample(self):
        self.samples.append((time.perf_counter(), calibration_loop()))

    def maybe(self):
        if not self.samples or time.perf_counter() - self.samples[-1][0] >= PROBE_EVERY_S:
            self.sample()

    def scale(self, start: float, end: float) -> float:
        """Factor that turns a time measured from ``start`` to ``end`` into
        seconds at the reference speed.

        Uses the mean, not the median, of the samples taken within
        ``PROBE_WINDOW_S`` of the measurement: the speed flips between two
        levels within a second, and a measurement is slowed by the share of
        its time spent at the slow one."""
        near = [d for t, d in self.samples
                if start - PROBE_WINDOW_S <= t <= end + PROBE_WINDOW_S]
        if not near:
            near = [min(self.samples, key=lambda s: abs(s[0] - start))[1]]
        return PROBE_REF_S / statistics.mean(near)


def cli_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def inputs_digest(op) -> str:
    """Digest of an op's arguments other than file paths, and its input files."""
    paths = {str(p) for p in op.inputs}
    h = hashlib.sha256(json.dumps([a for a in op.argv if a not in paths]).encode())
    for p in op.inputs:
        h.update(Path(p).read_bytes())
    return h.hexdigest()


def setup(name: str, seed: int, work: Path):
    """Generate and write every input, build the expected-answer table and
    import the package once (in a child, so every repeat pays for it)."""
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    proc = subprocess.run([sys.executable, "-c", CORPUS_DUMP], env=cli_env(),
                          capture_output=True, check=True)
    corpus = json.loads(proc.stdout)
    workload = WORKLOADS[name](work, seed, corpus)
    known = json.loads(EXPECTED.read_text("utf-8")).get(name, {}) if EXPECTED.exists() else {}
    expect = {}
    for op in workload.ops:
        entry = known.get(op.id)
        if entry and entry["inputs"] == inputs_digest(op):
            expect[op.id] = entry
    return workload, expect


def judge(op, rc, out: bytes, err: str, memo: dict, expect: dict) -> str | None:
    if "Traceback" in err:
        return "traceback: " + err.strip().splitlines()[-1]
    known = expect.get(op.id)
    if known is not None:
        if rc != known["exit"]:
            return f"exit {rc}, known answer {known['exit']}"
        if digest(out) != known["sha256"]:
            return "output differs from the known answer"
    try:
        payload = json.loads(out.decode("utf-8"))
    except ValueError:
        return "output is not JSON"
    try:
        return op.check(payload, rc, memo)
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        return f"output has an unexpected shape: {type(exc).__name__}: {exc}"


class Run:
    def __init__(self, workload, expect, seconds: float, probe: SpeedProbe):
        self.ops = workload.ops
        self.expect = expect
        self.seconds = seconds
        self.probe = probe
        self.attempted = 0
        self.failures: list[str] = []

    def record(self, op, rc, out, err, memo):
        self.attempted += 1
        reason = judge(op, rc, out, err, memo, self.expect)
        if reason:
            self.failures.append(f"{op.id}: {reason}")


def run_cli(work: Path, op):
    t = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "leibnizalg.cli", *op.argv],
                          env=cli_env(), cwd=work, capture_output=True)
    return time.perf_counter() - t, proc.returncode, proc.stdout, proc.stderr.decode("utf-8", "replace")


def end_to_end(run: Run, work: Path):
    """Closed loop over the pass, one CLI process per op, until the time is up.

    An op is not started when its median so far would overrun the deadline;
    the first pass always completes, so every op is measured and checked.

    Each op's latency is its median over the run.  ``wall_s`` is the sum of
    these medians, the time of one pass.  ``query_p50_s`` and ``query_p90_s``
    are percentiles of the latency of the calls in one pass, each call
    taken at its median: every op occurs once per pass, so these are the
    percentiles of the op medians.  Taking the median per op first keeps a
    burst of interference on the machine out of the tail.
    """
    timed = []  # (op id, start, raw seconds)
    lat = {op.id: [] for op in run.ops}
    outputs = {}
    deadline = time.perf_counter() + run.seconds
    memo: dict = {}
    i = 0
    while True:
        k = i % len(run.ops)
        op = run.ops[k]
        if k == 0:
            memo = {}
        if i >= len(run.ops) and time.perf_counter() + statistics.median(lat[op.id]) > deadline:
            break
        run.probe.maybe()
        start = time.perf_counter()
        dt, rc, out, err = run_cli(work, op)
        lat[op.id].append(dt)
        timed.append((op.id, start, dt))
        outputs.setdefault(op.id, (digest(out), rc, len(out)))
        run.record(op, rc, out, err, memo)
        i += 1
    run.probe.sample()
    rss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    calls = []
    scaled = {op.id: [] for op in run.ops}
    for op_id, start, dt in timed:
        calls.append(dt * run.probe.scale(start, start + dt))
        scaled[op_id].append(calls[-1])
    medians = sorted(statistics.median(v) for v in scaled.values())
    q = statistics.quantiles(medians, n=10, method="inclusive") if len(medians) > 1 else medians * 9
    metrics = {
        "wall_s": (sum(medians), "s"),
        "query_p50_s": (q[4], "s"),
        "query_p90_s": (q[8], "s"),
        "peak_rss_mb": (rss, "MB"),
    }
    details = {
        "calls": len(calls),
        "call_percentiles_s": dict(zip(("p50", "p90"), statistics.quantiles(calls, n=10)[4::4]))
        if len(calls) > 1 else {},
        "passes": len(calls) / len(run.ops),
        "op_median_s": {k: statistics.median(v) for k, v in scaled.items()},
        "op_median_raw_s": {k: statistics.median(v) for k, v in lat.items()},
        "op_samples": {k: len(v) for k, v in lat.items()},
        "outputs": outputs,
        "timed": timed,
    }
    return metrics, details


def in_process_pass(run: Run, cli, tracer):
    """One pass through ``cli.main`` in this process; returns (op seconds, digests, bytes)."""
    total, digests, nbytes, memo = 0.0, [], 0, {}
    for idx, op in enumerate(run.ops):
        run.probe.maybe()
        out, err = io.StringIO(), io.StringIO()

        def call():
            return cli.main(list(op.argv))

        t = time.perf_counter()
        try:
            with redirect_stdout(out), redirect_stderr(err):
                rc = tracer.op(idx, call) if tracer else call()
        except Exception:  # a crash is a failed op, not a crashed benchmark
            rc, err = None, io.StringIO(traceback.format_exc())
        total += time.perf_counter() - t
        data = out.getvalue().encode("utf-8")
        digests.append(digest(data))
        nbytes += len(data)
        run.record(op, rc, data, err.getvalue(), memo)
    return total, digests, nbytes


def per_layer(run: Run, work: Path):
    """Alternate untraced and traced in-process passes until the time is up."""
    startup = []
    for _ in range(STARTUP_REPEATS):
        run.probe.sample()
        t = time.perf_counter()
        subprocess.run([sys.executable, "-m", "leibnizalg.cli", "corpus"],
                       env=cli_env(), cwd=work, capture_output=True, check=True)
        end = time.perf_counter()
        startup.append((end - t) * run.probe.scale(t, end))
    sys.path.insert(0, str(SRC))
    from leibnizalg import cli

    deadline = time.perf_counter() + run.seconds
    plain, traced = [], []
    reference = None
    while True:
        want_traced = len(traced) < len(plain)
        last = (traced if want_traced else plain)
        if plain and traced and time.perf_counter() + last[-1]["wall"] > deadline:
            break
        tracer = tracing.Tracer() if want_traced else None
        if tracer:
            tracer.install()
        start = time.perf_counter()
        try:
            wall, digests, nbytes = in_process_pass(run, cli, tracer)
        finally:
            if tracer:
                tracer.remove()
        run.probe.sample()
        scale = run.probe.scale(start, time.perf_counter())
        if reference is None:
            reference = digests
        elif digests != reference:
            run.failures.append("outputs of in-process passes differ (traced vs untraced)")
        entry = {"wall": wall * scale, "bytes": nbytes}
        if tracer:
            entry["self"] = {k: v * scale for k, v in tracing.self_times(tracer.spans).items()}
            entry["coverage"] = tracing.coverage(tracer.spans)
            entry["counts"] = tracing.counts(tracer.spans)
            entry["spans"] = len(tracer.spans)
        (traced if tracer else plain).append(entry)

    counts = traced[0]["counts"]
    if any(t["counts"] != counts for t in traced):
        run.failures.append("work counts differ between traced passes")
    traced_wall = statistics.median(t["wall"] for t in traced)
    plain_wall = statistics.median(p["wall"] for p in plain)

    def med_self(name):
        return statistics.median(t["self"].get(name, 0.0) for t in traced)

    metrics = {"cli.startup_s": (statistics.median(startup), "s")}
    for name in LAYERS:
        metrics[f"{name}_s"] = (med_self(name), "s")
    metrics["trace.traced_pass_s"] = (traced_wall, "s")
    metrics["trace.overhead_s"] = (traced_wall - plain_wall, "s")
    metrics["trace.coverage_pct"] = (
        100 * statistics.median(t["coverage"] for t in traced), "%")
    counts = dict(counts, **{"report.bytes": traced[0]["bytes"],
                             "trace.spans": traced[0]["spans"],
                             "trace.ops": len(run.ops)})
    for name, unit in COUNT_UNITS.items():
        metrics[name] = (counts[name], unit)
    details = {
        "untraced_pass_s": plain_wall,
        "passes": {"untraced": len(plain), "traced": len(traced)},
        "startup_samples_s": startup,
    }
    return metrics, details


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--details", help="also write the full result as JSON here")
    args = parser.parse_args(argv)

    if not (SRC / "leibnizalg" / "cli.py").is_file():
        print(f"error: package sources not found under {SRC}", file=sys.stderr)
        return 2

    work = BENCH / "work" / f"{args.workload}-{os.getpid()}"
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    load_before = os.getloadavg()
    probe = SpeedProbe()
    try:
        setups = []
        for _ in range(SETUP_REPEATS):
            probe.sample()
            t = time.perf_counter()
            workload, expect = setup(args.workload, args.seed, work)
            setups.append((t, time.perf_counter() - t))
        probe.sample()
        setups = [dt * probe.scale(t, t + dt) for t, dt in setups]
        run = Run(workload, expect, args.seconds, probe)
        if args.trace:
            metrics, details = per_layer(run, work)
        else:
            metrics, details = end_to_end(run, work)
            metrics = {"setup_s": (statistics.median(setups), "s"), **metrics}
        details["probe"] = probe.samples
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:  # another run is still using it
            pass

    meta = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": platform.python_version(),
        "nproc": os.cpu_count(), "loadavg_before": load_before,
        "loadavg_after": os.getloadavg(), "known_answers": len(expect),
        "setup_samples_s": setups,
    }
    for line in [f"# {k}: {v}" for k, v in meta.items()]:
        print(line)
    for name, (value, unit) in metrics.items():
        print(f"{name:32s} {value:>14.6g} {unit}")
    if not args.trace:
        print(f"# {details['calls']} calls, {details['passes']:.2f} passes")
    for failure in run.failures:
        print(f"FAIL {failure}")
    result = {
        "correct": not run.failures,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    if args.details:
        Path(args.details).write_text(
            json.dumps({"meta": meta, "result": result, "details": details,
                        "failures": run.failures}, indent=1, sort_keys=True) + "\n", "utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
