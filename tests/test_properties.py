"""Granular runs of the randomized identity battery (small trial counts;
the acceptance suite runs the full 100-trial version)."""

import pytest

import property_suite as ps


@pytest.fixture(scope="module")
def algebras(request):
    from leibnizalg import LeibnizAlgebra, StructureTensor
    from leibnizalg.corpus import names
    from oracles import corpus_document

    pool = [corpus_document(n).algebra() for n in names()]
    pool.append(LeibnizAlgebra.analyze(StructureTensor.from_entries(2, {}), "zero2"))
    return pool


@pytest.mark.parametrize("name,fn,wants_algebras", ps.ALL_CHECKS, ids=[c[0] for c in ps.ALL_CHECKS])
def test_property(algebras, name, fn, wants_algebras):
    failures = fn(algebras, 2024, 25) if wants_algebras else fn(2024, 25)
    assert failures == 0, f"{name}: {failures} failures"


def test_run_all_is_deterministic(algebras):
    assert ps.run_all(algebras, 99, 10) == ps.run_all(algebras, 99, 10)
