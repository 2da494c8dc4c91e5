"""The benchmark harness times layers by wrapping library functions by
name and reads its work counts from the results; a rename or a change of
result shape in the library must not silently drop a layer or skew a count."""

import hashlib
import importlib
import importlib.util
import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from leibnizalg import LeibnizAlgebra, Side, StructureTensor, scenario, scenario_sweep
from leibnizalg.solver import assemble_cocycle_system, dual_leibniz_residual, nullspace

from oracles import cocycle_residual_matrix, quadratic_by_polarization
from test_cli import HALVES_THIRDS_BASIS, _in_basis

ROOT = Path(__file__).resolve().parents[1]
TRACING = ROOT / "bench" / "tracing.py"
SRC = ROOT / "src"


@pytest.fixture()
def tracing(monkeypatch):
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_every_wrap_point_resolves(tracing):
    assert tracing.WRAPS
    missing = [
        (mod, attr)
        for mod, attr, _ in tracing.WRAPS
        if not hasattr(importlib.import_module(mod), attr)
    ]
    assert missing == []


def nonzero_components(f: StructureTensor, form: int) -> int:
    """Residual components (i, j, m, n) that some basis dual tensor moves,
    from the adjoint-matrix route."""
    n = f.dim
    hit = set()
    for a, b, k in itertools.product(range(1, n + 1), repeat=3):
        grid = cocycle_residual_matrix(f, StructureTensor.from_entries(n, {(a, b, k): 1}), form)
        for i, j, m, q in itertools.product(range(n), repeat=4):
            if grid[m][q][i][j] != 0:
                hit.add((i, j, m, q))
    return len(hit)


def test_assemble_counts(tracing, corpus_algebras):
    # [e1, e2] = e2: under lr-1-r the row (1, 2, 2, 1) has one nonzero, in column 0
    col0 = LeibnizAlgebra.analyze(StructureTensor.from_entries(2, {(1, 2, 2): 1}))
    rows = assemble_cocycle_system(col0, scenario("lr-1-r")).matrix
    assert any(len(row) == 1 and row[0][0] == 0 for row in rows)
    cases = [(col0, "lr-1-r")] + [
        (alg, key) for alg in corpus_algebras.values() for key in ("lr-1-r", "lr-4-l")
    ]
    for alg, key in cases:
        system = assemble_cocycle_system(alg, scenario(key))
        counts = tracing.counts([tracing.Span("solver.assemble", 0.0, result=system)])
        assert counts["solver.rows"] == alg.dim ** 4
        assert counts["solver.nonzero_rows"] == nonzero_components(alg.tensor, system.form)


def test_quadratic_counts(tracing, corpus_algebras):
    # the corpus, the full family of ab_3 (all 27 dual entries free) under
    # both sides, and NF_4 in a basis with halves and thirds, whose
    # polynomials are numerators over a common denominator above 1
    nf4 = StructureTensor.from_entries(
        4, _in_basis({(1, i, i + 1): 1 for i in (1, 2, 3)}, HALVES_THIRDS_BASIS)
    )
    algebras = [*corpus_algebras.values(), LeibnizAlgebra.analyze(nf4)]
    cases = [
        (entry.family, entry.scenario.dual_side, entry.quadratic)
        for alg in algebras
        for entry in scenario_sweep(alg).values()
    ]
    ab3 = LeibnizAlgebra.analyze(StructureTensor.from_entries(3, {}))
    full = nullspace(assemble_cocycle_system(ab3, scenario("lr-1-r")))
    assert len(full) == 27
    cases += [(full, side, dual_leibniz_residual(full, side)) for side in Side]
    assert any(quad.polynomials[0].den > 1 for _, _, quad in cases)
    total = 0
    for family, side, quad in cases:
        counts = tracing.counts([tracing.Span("poly.quadratic", 0.0, result=quad)])
        want = quadratic_by_polarization(family, side)
        assert counts["poly.terms"] == sum(len(terms) for terms in want)
        total += counts["poly.terms"]
    assert total > 0


# One call per command on corpus inputs, each command in a fresh
# interpreter: the wrappers are installed before the first call, the call
# runs traced, then untraced, then traced again, and the two traced span
# lists must agree.  Every span is (span name, parent span name); "-" marks
# the root.
TRACE_ARGV = {
    "check": "check {example1} --format json",
    "adjoint": "adjoint {example1} --format json",
    "actions": "actions {example3} --format json",
    "duals": "duals {example3} --format json",
    "report": "report {example1} --seed 0",
    "rmatrix": "rmatrix {example1} --case left4 --dual {example1} --format json",
    "coboundary": "coboundary {example1} --case left4 --r {r} --format json",
    "schouten": "schouten {example1} --side l --r {r} --format json",
    "ybe": "ybe {example1} --side l --r {r} --format json",
    "gybe": "gybe {example1} --side l --r {r} --format json",
}

TRACE_CHILD = """
import contextlib, importlib.util, io, json, sys
spec = importlib.util.spec_from_file_location("bench_tracing", sys.argv[1])
tracing = importlib.util.module_from_spec(spec)
sys.modules[spec.name] = tracing
spec.loader.exec_module(tracing)
from leibnizalg import cli

def traced(argv):
    tracer = tracing.Tracer()
    tracer.install()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            tracer.op(0, lambda: cli.main(argv))
    finally:
        tracer.remove()
    return [[s.name, tracer.spans[s.parent].name if s.parent >= 0 else "-"]
            for s in tracer.spans]

argv = sys.argv[2:]
first = traced(argv)
with contextlib.redirect_stdout(io.StringIO()):
    cli.main(argv)
print(json.dumps([first, traced(argv)]))
"""

# Recorded before the package loaded its modules per command: each
# command's spans as {(span, parent): count}, and the SHA-256 of the
# ordered list.
TRACE_SPANS = {
    "check": ({
        ("cli.dispatch", "-"): 1,
        ("document.parse", "cli.dispatch"): 1,
        ("core.classify", "cli.dispatch"): 1,
        ("core.residual", "cli.dispatch"): 2,
        ("report.render", "cli.dispatch"): 1,
    }, "19974679608383694f61395de74df0b671220a2513e9cfcc50cb4c359536e7d1"),
    "adjoint": ({
        ("cli.dispatch", "-"): 1,
        ("document.parse", "cli.dispatch"): 1,
        ("core.classify", "cli.dispatch"): 1,
        ("core.adjoint", "cli.dispatch"): 2,
        ("report.render", "cli.dispatch"): 1,
    }, "4cc2ff8de43eb438ffe72b43f5a537966c1fc6b529199969572240accaafbf8b"),
    "actions": ({
        ("cli.dispatch", "-"): 1,
        ("document.parse", "cli.dispatch"): 1,
        ("core.classify", "cli.dispatch"): 1,
        ("actions.axioms", "cli.dispatch"): 4,
        ("report.render", "cli.dispatch"): 1,
    }, "555d8902296322d523566100f4835b7ac7ef68041f923bfff329b45bab74c80c"),
    "duals": ({
        ("cli.dispatch", "-"): 1,
        ("document.parse", "cli.dispatch"): 1,
        ("core.classify", "cli.dispatch"): 1,
        ("report.duals", "cli.dispatch"): 1,
        ("solver.sweep", "report.duals"): 1,
        ("solver.assemble", "solver.sweep"): 4,
        ("solver.nullspace", "solver.sweep"): 4,
        ("linalg.kernel", "solver.nullspace"): 4,
        ("poly.quadratic", "solver.sweep"): 6,
        ("report.render", "cli.dispatch"): 1,
    }, "eb18dbe421c2bc98404ee3c4ad9492349e454a277ded970acc90d7c3d776c279"),
    "report": ({
        ("cli.dispatch", "-"): 1,
        ("document.parse", "cli.dispatch"): 1,
        ("core.classify", "cli.dispatch"): 1,
        ("report.build", "cli.dispatch"): 1,
        ("core.residual", "report.build"): 2,
        ("core.adjoint", "report.build"): 2,
        ("actions.axioms", "report.build"): 3,
        ("report.duals", "report.build"): 1,
        ("solver.sweep", "report.duals"): 1,
        ("solver.assemble", "solver.sweep"): 3,
        ("solver.nullspace", "solver.sweep"): 3,
        ("linalg.kernel", "solver.nullspace"): 3,
        ("poly.quadratic", "solver.sweep"): 4,
        ("report.selfcheck", "report.build"): 1,
        ("cohomology.coboundary", "report.selfcheck"): 30,
        ("rmatrix.cocommutator", "report.selfcheck"): 30,
        ("core.adjoint", "rmatrix.cocommutator"): 20,
        ("rmatrix.gybe", "report.selfcheck"): 5,
        ("rmatrix.cocommutator", "rmatrix.gybe"): 5,
        ("core.residual", "rmatrix.gybe"): 5,
        ("rmatrix.gybe", "rmatrix.gybe"): 5,
        ("rmatrix.schouten", "rmatrix.gybe"): 5,
        ("rmatrix.schouten", "report.selfcheck"): 10,
        ("report.render", "cli.dispatch"): 1,
    }, "039b715c34e1a6b70569f9bb0f8b06888acded43b6f61fb91208acd373c979ee"),
    "rmatrix": ({
        ("cli.dispatch", "-"): 1,
        ("document.parse", "cli.dispatch"): 2,
        ("core.classify", "cli.dispatch"): 1,
        ("rmatrix.solve", "cli.dispatch"): 1,
        ("linalg.solve_affine", "rmatrix.solve"): 1,
        ("report.render", "cli.dispatch"): 1,
    }, "7207aec8b20c97eee580b3896e4b7df264b0dc3ca8b72f97bc18db83f93a47b9"),
    "coboundary": ({
        ("cli.dispatch", "-"): 1,
        ("document.parse", "cli.dispatch"): 2,
        ("core.classify", "cli.dispatch"): 2,
        ("rmatrix.cocommutator", "cli.dispatch"): 1,
        ("report.render", "cli.dispatch"): 1,
    }, "1773c9064bb61bd69001f0889023e9f0b653e9a53fba066c7b82611a7c1a9355"),
    "schouten": ({
        ("cli.dispatch", "-"): 1,
        ("document.parse", "cli.dispatch"): 2,
        ("core.classify", "cli.dispatch"): 1,
        ("rmatrix.schouten", "cli.dispatch"): 1,
        ("report.render", "cli.dispatch"): 1,
    }, "c66240ac59bde6531e5243a8b7b5d6298ceb96f238b03bdc2ce660c2d990442f"),
    "ybe": ({
        ("cli.dispatch", "-"): 1,
        ("document.parse", "cli.dispatch"): 2,
        ("core.classify", "cli.dispatch"): 1,
        ("rmatrix.schouten", "cli.dispatch"): 1,
        ("rmatrix.schouten", "rmatrix.schouten"): 1,
        ("report.render", "cli.dispatch"): 1,
    }, "726bcb3fce7de7686f1a92bd31199463b7b01cb23d8cdd2eb9324141fe7e56db"),
    "gybe": ({
        ("cli.dispatch", "-"): 1,
        ("document.parse", "cli.dispatch"): 2,
        ("core.classify", "cli.dispatch"): 1,
        ("rmatrix.gybe", "cli.dispatch"): 1,
        ("rmatrix.schouten", "rmatrix.gybe"): 1,
        ("report.render", "cli.dispatch"): 1,
    }, "3dbd90b338982e1f6187bdb5decaa9e34454637352338a8db6fd8cff0926fc2c"),
}


def _span_counts(spans):
    counts = {}
    for name, parent in spans:
        counts[name, parent] = counts.get((name, parent), 0) + 1
    return counts


def test_trace_spans_per_command_pinned(corpus_files, tmp_path):
    files = dict(corpus_files, r=tmp_path / "r.rmat")
    files["r"].write_text("dim: 2\nr 1 2 = 1\nr 2 1 = -1\n")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    assert sorted(TRACE_SPANS) == sorted(TRACE_ARGV)
    for name, line in TRACE_ARGV.items():
        proc = subprocess.run(
            [sys.executable, "-S", "-c", TRACE_CHILD, str(TRACING), *line.format(**files).split()],
            capture_output=True, text=True, env=env, check=True,
        )
        first, again = json.loads(proc.stdout)
        assert first == again, name
        digest = hashlib.sha256(json.dumps(first).encode()).hexdigest()
        assert (_span_counts(map(tuple, first)), digest) == TRACE_SPANS[name], name
