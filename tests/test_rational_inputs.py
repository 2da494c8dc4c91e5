"""Differential tests on structure constants and r-matrices with denominators.

The corpus and every benchmark input have integer structure constants, so a
common denominator dropped from the integer tables of ``actions``,
``cohomology`` or ``rmatrix`` would pass the rest of the suite.  Here the
algebras are NF_3, NF_4 and example3 rewritten in a seeded dense rational
basis, and example1 scaled by 2/3; the r-matrices and cochains have
denominators up to 7.  Each library route is compared with the dense oracle
of ``tests/oracles.py`` that computes the same thing from brackets of basis
vectors.
"""

import random
from fractions import Fraction

import pytest

from leibnizalg.actions import ActionCase, axiom_report
from leibnizalg.cohomology import coboundary0, coboundary1
from leibnizalg.core import LeibnizAlgebra, Side, StructureTensor
from leibnizalg.rmatrix import (
    COMPLEX,
    coboundary_cocommutator,
    gybe_residual,
    schouten,
    triple_products,
)

from oracles import (
    CochainMap,
    coboundary0_dense,
    coboundary1_dense,
    corpus_document,
    dense_cochain,
    dense_kernel_basis,
    from_dense,
    grid3,
    grid4,
    gybe_residual_dense,
    module_axiom_residuals,
    schouten_dense,
    sparse_cochain,
    triple_products_dense,
)
from test_cli import _in_basis

F = Fraction
TRIALS = 2


def _matrix(rng, n, top=7):
    return tuple(
        tuple(F(rng.randint(-5, 5), rng.randint(1, top)) for _ in range(n)) for _ in range(n)
    )


def _dense_basis(rng, n):
    """A seeded invertible matrix of nonzero rationals."""
    while True:
        g = tuple(
            tuple(F(rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(1, 4)) for _ in range(n))
            for _ in range(n)
        )
        if not dense_kernel_basis(g, n):
            return g


def _algebras():
    rng = random.Random(2014)
    tables = {
        "nf3": (3, {(1, i, i + 1): 1 for i in (1, 2)}),
        "nf4": (4, {(1, i, i + 1): 1 for i in (1, 2, 3)}),
        "example3": (2, corpus_document("example3").entries),
    }
    out = {}
    for name, (n, table) in tables.items():
        # every entry of the bracket in the new basis is nonzero
        dense = _in_basis(table, _dense_basis(rng, n))
        out[f"{name}-dense-basis"] = StructureTensor.from_entries(n, dense)
    ex1 = corpus_document("example1").entries
    out["example1-times-2/3"] = StructureTensor.from_entries(
        2, {e: v * F(2, 3) for e, v in ex1.items()}
    )
    return {name: LeibnizAlgebra.analyze(t) for name, t in out.items()}


ALGEBRAS = _algebras()


@pytest.fixture(params=sorted(ALGEBRAS))
def alg(request):
    return ALGEBRAS[request.param]


def test_inputs_have_denominators_and_keep_their_handedness():
    for name, alg in ALGEBRAS.items():
        assert any(v.denominator > 1 for _, v in alg.tensor.items()), name
        assert alg.admits(Side.LEFT), name
    assert not ALGEBRAS["nf4-dense-basis"].admits(Side.RIGHT)


def _complexes(alg):
    return [(case, side) for case in ActionCase for side in case.complexes(alg)]


def test_coboundaries_match_the_dense_routes(alg):
    rng = random.Random(7)
    n = alg.dim
    for case, side in _complexes(alg):
        for _ in range(TRIALS):
            m = _matrix(rng, n)
            d0 = coboundary0(alg, case, side, m)
            assert dense_cochain(d0, n, 1) == coboundary0_dense(alg, case, side, m)
            w = CochainMap(n, 1, tuple(_matrix(rng, n) for _ in range(n)))
            d1 = coboundary1(alg, case, side, sparse_cochain(w))
            assert dense_cochain(d1, n, 2) == coboundary1_dense(alg, case, side, w)


def test_cocommutator_matches_the_dense_coboundary(alg):
    rng = random.Random(8)
    n = alg.dim
    for case, pair in COMPLEX.items():
        if pair and not alg.admits(pair[1]):
            continue
        for _ in range(TRIALS):
            r = _matrix(rng, n)
            got = coboundary_cocommutator(alg, r, case)
            if pair is None:
                assert got.items() == ()
                continue
            d0 = coboundary0_dense(alg, ActionCase(pair[0]), pair[1], r).values
            want = from_dense(tuple(
                tuple(tuple(d0[m][a][b] for m in range(n)) for b in range(n)) for a in range(n)
            ))
            assert got == want, case


def test_triple_sums_match_the_dense_routes(alg):
    rng = random.Random(9)
    n = alg.dim
    for side in Side:
        if not alg.admits(side):
            continue
        for _ in range(TRIALS):
            r = _matrix(rng, n)
            assert grid3(schouten(alg, r, side), n) == schouten_dense(alg, r, side)
            got = tuple(grid3(p, n) for p in triple_products(alg, r, side))
            assert got == triple_products_dense(alg, r, side)
            assert grid4(gybe_residual(alg, r, side), n) == gybe_residual_dense(alg, r, side)


def _vanishes(grid) -> bool:
    if isinstance(grid, tuple):
        return all(_vanishes(x) for x in grid)
    return grid == 0


# the dense module-axiom residuals take seconds at dimension 4
@pytest.mark.parametrize("name", [k for k in sorted(ALGEBRAS) if ALGEBRAS[k].dim <= 3])
def test_axiom_verdicts_match_the_dense_residuals(name):
    alg = ALGEBRAS[name]
    for case in ActionCase:
        if not case.complexes(alg):
            continue
        residuals = module_axiom_residuals(case, alg, case.complexes(alg))
        want = {label: _vanishes(res) for label, res in residuals}
        assert axiom_report(case, alg) == want, case
