"""The benchmark harness times layers by wrapping library functions by
name and reads its work counts from the results; a rename or a change of
result shape in the library must not silently drop a layer or skew a count."""

import importlib
import importlib.util
import itertools
import sys
from pathlib import Path

import pytest

from leibnizalg import LeibnizAlgebra, Side, StructureTensor, scenario, scenario_sweep
from leibnizalg.solver import assemble_cocycle_system, dual_leibniz_residual, nullspace

from oracles import cocycle_residual_matrix, quadratic_by_polarization
from test_cli import HALVES_THIRDS_BASIS, _in_basis

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


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
    col0 = LeibnizAlgebra.analyze(StructureTensor.from_entries(2, {(1, 2, 2): 1}), "col0")
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
