"""Change of basis as a metamorphic relation (Chen, Cheung and Yiu, 1998).

Each algebra is rewritten in a seeded dense invertible rational basis g
through ``test_cli._in_basis``: the new basis vectors are the columns of g.
What the toolkit decides about the algebra must not change:

* the chirality;
* the kernel dimension of each dual-structure scenario;
* the module-axiom verdicts of each action case;
* whether d1(d0(m)) vanishes, for each action case and complex side the
  algebra admits (the crossed pairings of a two-sided algebra included),
  with m the same tensor-square element in both bases;
* the CYBE and GYBE verdicts of an r-matrix: r' in the new basis is the
  element whose coordinates in the old basis are (g (x) g) r' = g r' g^T.
"""

import random
from fractions import Fraction

import pytest

from leibnizalg.actions import ActionCase, axiom_report
from leibnizalg.cohomology import coboundary0, coboundary1
from leibnizalg.core import LeibnizAlgebra, Side, StructureTensor
from leibnizalg.linalg import mat, mat_mul, transpose
from leibnizalg.rmatrix import cybe_check, gybe_residual
from leibnizalg.solver import scenario_sweep

from oracles import corpus_document, dense_rref
from test_cli import _in_basis
from test_rational_inputs import _dense_basis, _matrix

F = Fraction

# 1-based bracket tables, and r-matrices (old basis) whose verdicts are
# known: classical r-matrices of the corpus, and one of example3 that
# satisfies the GYBE but not the CYBE (tests/test_rmatrix.py)
TABLES = {name: corpus_document(name).entries for name in ("example1", "example2",
                                                           "example3", "example4")}
TABLES["NF_3"] = {(1, 1, 2): 1, (1, 2, 3): 1}
TABLES["NF_3^op"] = {(1, 1, 2): 1, (2, 1, 3): 1}
KNOWN_R = {
    "example1": [((1, -1), (-1, 1))],
    "example3": [((0, 1), (-1, 5)), ((0, -1), (-1, 3)), ((0, 1), (0, 0))],
}


def _inverse(g):
    n = len(g)
    rows, _ = dense_rref([[F(x) for x in row] + [F(i == j) for j in range(n)]
                          for i, row in enumerate(g)])
    return tuple(tuple(row[n:]) for row in rows)


def _pairs(seed):
    """Per table: (name, algebra, the algebra in the basis g, g, g^-1)."""
    rng = random.Random(seed)
    for name, table in sorted(TABLES.items()):
        n = max(max(key) for key in table)
        g = mat(_dense_basis(rng, n))
        old = LeibnizAlgebra.analyze(StructureTensor.from_entries(n, table))
        new = LeibnizAlgebra.analyze(StructureTensor.from_entries(n, _in_basis(table, g)))
        yield name, old, new, g, _inverse(g)


PAIRS = list(_pairs(1998))


@pytest.fixture(params=range(len(PAIRS)), ids=[p[0] for p in PAIRS])
def pair(request):
    return PAIRS[request.param]


def _moved(g, r):
    """(g (x) g) r: the coordinates g r g^T."""
    return mat_mul(mat_mul(g, mat(r)), transpose(g))


def test_chirality_and_scenario_kernels(pair):
    _, old, new, _, _ = pair
    assert new.chirality is old.chirality
    kernels = [{key: len(e.family) for key, e in scenario_sweep(alg).items()}
               for alg in (old, new)]
    assert kernels[0] and kernels[0] == kernels[1]


def test_axiom_verdicts(pair):
    _, old, new, _, _ = pair
    for case in ActionCase:
        if case.complexes(old):
            assert axiom_report(case, new) == axiom_report(case, old), case


def test_coboundary_composite(pair):
    _, old, new, g, g_inv = pair
    rng = random.Random(7)
    n = old.dim
    for case in ActionCase:
        if case.required_side and not old.admits(case.required_side):
            continue
        for side in Side:
            if not old.admits(side):
                continue
            m = _matrix(rng, n)
            vanish = [
                not coboundary1(alg, case, side, coboundary0(alg, case, side, x))
                for alg, x in ((old, m), (new, _moved(g_inv, m)))
            ]
            assert vanish[0] == vanish[1], (case, side)
            assert vanish[0] == (side in case.complexes(old)), (case, side)


def test_yang_baxter_verdicts(pair):
    name, old, new, g, g_inv = pair
    rng = random.Random(11)
    n = old.dim
    olds = [mat(r) for r in KNOWN_R.get(name, [])]
    olds += [mat([[0] * n] * n), _matrix(rng, n)]
    seen = set()
    for r in olds:
        r_new = _moved(g_inv, r)
        assert _moved(g, r_new) == r
        for side in Side:
            if old.admits(side):
                cybe = cybe_check(old, r, side)
                gybe = not gybe_residual(old, r, side)
                assert (cybe_check(new, r_new, side), not gybe_residual(new, r_new, side)) == (
                    cybe, gybe), (r, side)
                seen.add((cybe, gybe))
    assert (True, True) in seen and (False, False) in seen
