"""Computed values hold only their nonzero components.

The cochains of ``coboundary0/1``, the Schouten tensor and the quadratic
residuals of ``scenario_sweep`` store no zero value and no index outside
the algebra's range, and each equals its dense oracle of
``tests/oracles.py`` on every component, a component the library leaves
out counting as zero.  The algebras are the corpus and the rational ones of
``test_rational_inputs`` up to dimension 3.
"""

import itertools
import random

import pytest

from leibnizalg.actions import ActionCase
from leibnizalg.cohomology import coboundary0, coboundary1
from leibnizalg.core import Side
from leibnizalg.rmatrix import schouten
from leibnizalg.solver import scenario_sweep

from oracles import (
    CochainMap,
    coboundary0_dense,
    coboundary1_dense,
    corpus_document,
    dense_cochain,
    dense_quadratic,
    grid3,
    quadratic_by_polarization,
    schouten_dense,
    sparse_cochain,
)
from test_rational_inputs import ALGEBRAS, _matrix

CASES = {name: corpus_document(name).algebra() for name in ("example1", "example2",
                                                            "example3", "example4")}
CASES.update({name: alg for name, alg in ALGEBRAS.items() if alg.dim <= 3})


@pytest.fixture(params=sorted(CASES))
def alg(request):
    return CASES[request.param]


def _in_range(key, n, base=0):
    return all(base <= i < n + base for i in key)


def test_cochains(alg):
    rng = random.Random(41)
    n = alg.dim
    for case in ActionCase:
        for side in case.complexes(alg):
            m = _matrix(rng, n)
            d0 = coboundary0(alg, case, side, m)
            assert all(len(k) == 3 and _in_range(k, n) and v for k, v in d0.items())
            assert dense_cochain(d0, n, 1) == coboundary0_dense(alg, case, side, m)
            # half of the components zero, and some of those listed as zero
            w = CochainMap(n, 1, tuple(
                tuple(tuple(x if rng.random() < 0.5 else 0 * x for x in row) for row in mm)
                for mm in (_matrix(rng, n) for _ in range(n))
            ))
            listed = {(x, a, b): w.values[x][a][b]
                      for x, a, b in itertools.product(range(n), repeat=3)
                      if w.values[x][a][b] or rng.random() < 0.5}
            d1 = coboundary1(alg, case, side, listed)
            assert all(len(k) == 4 and _in_range(k, n) and v for k, v in d1.items())
            assert dense_cochain(d1, n, 2) == coboundary1_dense(alg, case, side, w)
            assert d1 == coboundary1(alg, case, side, sparse_cochain(w))


def test_schouten(alg):
    rng = random.Random(43)
    n = alg.dim
    for side in Side:
        if alg.admits(side):
            r = _matrix(rng, n)
            s = schouten(alg, r, side)
            assert all(len(k) == 3 and _in_range(k, n, 1) and v for k, v in s)
            assert list(s) == sorted(s) and len(dict(s)) == len(s)
            assert grid3(s, n) == schouten_dense(alg, r, side)


def test_quadratic_residual(alg):
    for entry in scenario_sweep(alg).values():
        quad = entry.quadratic
        assert len(quad.polynomials) == len(quad.provenance)
        assert all(p.terms and all(p.terms.values()) for p in quad.polynomials)
        d = len(entry.family)
        for p in quad.polynomials:
            keys = list(p.terms)
            assert keys == sorted(set(keys))  # strictly ascending: rendering keeps this order
            assert all(0 <= u <= v < d for u, v in (divmod(key, d) for key in keys))
        assert all(_in_range(c, alg.dim, 1) for c in quad.provenance)
        assert list(quad.provenance) == sorted(set(quad.provenance))
        assert quad.is_identically_zero() == (quad.polynomials == ())
        want = quadratic_by_polarization(entry.family, entry.scenario.dual_side)
        assert dense_quadratic(quad, alg.dim, d) == want
