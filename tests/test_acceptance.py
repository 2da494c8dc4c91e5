"""Acceptance suite: exact reproduction of the bundled corpus results.

Every check is exact (tolerance zero).  One PASS/FAIL line is printed per
criterion; run with ``pytest tests/test_acceptance.py -v -s`` to see them.
"""

from fractions import Fraction

import pytest

from leibnizalg import (
    CoboundaryCase,
    LeibnizAlgebra,
    Side,
    StructureTensor,
    coboundary_cocommutator,
    cybe_check,
    solve_rmatrix,
)
from leibnizalg.cli import main
from leibnizalg.core import adjoint_matrices
from leibnizalg.corpus import names
from leibnizalg.linalg import mat
from leibnizalg.solver import SCENARIOS

import property_suite as ps
from families import EX1_FAMILIES, EX2_FAMILIES, EX3_FAMILIES, EX4_FAMILIES
from oracles import family_verdict
from test_core import GOLDEN_ADJOINT

F = Fraction


def _finish(criterion, failures):
    verdict = "PASS" if not failures else "FAIL"
    print(f"{verdict} {criterion}")
    for item in failures:
        print(f"      - {item}")
    assert not failures, f"{criterion}: {failures}"


def _labelled_scenarios(label):
    if label == "left":
        return {sc.key for sc in SCENARIOS if sc.dual_side is Side.LEFT}
    if label == "right":
        return {sc.key for sc in SCENARIOS if sc.dual_side is Side.RIGHT}
    return {sc.key for sc in SCENARIOS}  # lie / both fit either handedness


def _family_checks(alg, refs, failures):
    for ref in refs:
        family = ref.family(alg.dim)
        admitted = set()
        for sc in SCENARIOS:
            if not sc.compatible(alg):
                continue
            ok_cocycle, ok_dual = family_verdict(alg, sc, family)
            if ok_cocycle and ok_dual:
                admitted.add(sc.key)
        if not admitted:
            failures.append(f"{ref.key} admitted by no scenario")
        elif not admitted & _labelled_scenarios(ref.label):
            failures.append(f"{ref.key} admitted only against its {ref.label} tag")


def test_example1_reproduction(corpus_algebras):
    failures = []
    ex1 = corpus_algebras["example1"]
    _family_checks(ex1, EX1_FAMILIES, failures)

    sol = solve_rmatrix(ex1, EX1_FAMILIES[0].member(2, [F(1)]), CoboundaryCase.LEFT_4)
    if (
        sol is None
        or sol.particular != mat([[1, 0], [-1, 0]])
        or sol.kernel != (mat([[0, 1], [0, 0]]), mat([[0, 0], [0, 1]]))
    ):
        failures.append("family-1 r-matrix family mismatch under left4")

    lie = EX1_FAMILIES[1].member(2, [F(1)])
    if solve_rmatrix(ex1, lie, CoboundaryCase.LEFT_1) is not None:
        failures.append("family-2 unexpectedly solvable under left1")
    if solve_rmatrix(ex1, lie, CoboundaryCase.LEFT_4) is not None:
        failures.append("family-2 unexpectedly solvable under left4")

    # classical locus c = a, b = -a, sampled at a = 1 and a = 3
    for a in (F(1), F(3)):
        if not cybe_check(ex1, mat([[a, -a], [-a, a]]), Side.LEFT):
            failures.append(f"classical r at a={a} fails the left CYBE")
    _finish("example1 reproduction", failures)


def test_example2_reproduction(corpus_algebras):
    failures = []
    ex2 = corpus_algebras["example2"]
    _family_checks(ex2, EX2_FAMILIES, failures)

    sol = solve_rmatrix(ex2, EX2_FAMILIES[0].member(2, [F(1)]), CoboundaryCase.RIGHT_4)
    if (
        sol is None
        or sol.particular != mat([[-1, 0], [1, 0]])
        or sol.kernel != (mat([[0, 1], [0, 0]]), mat([[0, 0], [0, 1]]))
    ):
        failures.append("family-1 r-matrix family mismatch under right4")

    # no single r reproduces family 2 or family 3 under both coboundary
    # routes: family 2 is infeasible under each, family 3 under right4,
    # while the right1 system alone does solve family 3.
    lie = EX2_FAMILIES[1].member(2, [F(1)])
    if solve_rmatrix(ex2, lie, CoboundaryCase.RIGHT_1) is not None:
        failures.append("family-2 unexpectedly solvable under right1")
    if solve_rmatrix(ex2, lie, CoboundaryCase.RIGHT_4) is not None:
        failures.append("family-2 unexpectedly solvable under right4")
    f3 = EX2_FAMILIES[2].member(2, [F(1)])
    if solve_rmatrix(ex2, f3, CoboundaryCase.RIGHT_4) is not None:
        failures.append("family-3 unexpectedly solvable under right4")
    sol3 = solve_rmatrix(ex2, f3, CoboundaryCase.RIGHT_1)
    if sol3 is None or sol3.particular != mat([[-1, 1], [0, 0]]):
        failures.append("family-3 right1 recovery mismatch")
    _finish("example2 reproduction", failures)


def test_example3_reproduction(corpus_algebras):
    failures = []
    ex3 = corpus_algebras["example3"]
    _family_checks(ex3, EX3_FAMILIES, failures)

    f2 = EX3_FAMILIES[1].member(2, [F(1)])
    recoveries = {
        CoboundaryCase.RIGHT_1: mat([[0, 1], [0, 0]]),
        CoboundaryCase.LEFT_1: mat([[0, -1], [0, 0]]),
        CoboundaryCase.RIGHT_4: mat([[0, 0], [1, 0]]),
        CoboundaryCase.LEFT_4: mat([[0, 0], [-1, 0]]),
    }
    for case, particular in recoveries.items():
        sol = solve_rmatrix(ex3, f2, case)
        if sol is None or sol.particular != particular or sol.dimension != 2:
            failures.append(f"family-2 recovery mismatch under {case.value}")

    # b = -a members of the first and fourth recovered families
    if not cybe_check(ex3, mat([[0, 1], [-1, 7]]), Side.RIGHT):
        failures.append("first family member b=-a fails the right CYBE")
    if not cybe_check(ex3, mat([[0, -2], [-2, 5]]), Side.LEFT):
        failures.append("fourth family member b=-a fails the left CYBE")
    if cybe_check(ex3, mat([[0, 1], [2, 0]]), Side.RIGHT):
        failures.append("b != -a member unexpectedly passes the right CYBE")
    _finish("example3 reproduction", failures)


def test_example4_reproduction(corpus_algebras):
    failures = []
    ex4 = corpus_algebras["example4"]
    _family_checks(ex4, EX4_FAMILIES, failures)
    if len(EX4_FAMILIES) != 10:
        failures.append("expected ten reference families")

    f1 = EX4_FAMILIES[0].member(3, [F(0), F(1)])
    sol = solve_rmatrix(ex4, f1, CoboundaryCase.RIGHT_4)
    if (
        sol is None
        or sol.particular != mat([[0, 0, 0], [0, 0, 0], [1, 0, 0]])
        or sol.dimension != 6
        or any(k[i][0] != 0 for k in sol.kernel for i in range(3))
    ):
        failures.append("family-1 (a=0) recovery mismatch under right4")

    f3 = EX4_FAMILIES[2].member(3, [F(0), F(1)])
    sol = solve_rmatrix(ex4, f3, CoboundaryCase.RIGHT_1)
    if (
        sol is None
        or sol.particular != mat([[0, 0, 1], [0, 0, 0], [0, 0, 0]])
        or sol.dimension != 6
        or any(k[0][j] != 0 for k in sol.kernel for j in range(3))
    ):
        failures.append("family-3 (a=0) recovery mismatch under right1")
    _finish("example4 reproduction", failures)


def test_adjoint_golden(corpus_algebras):
    failures = []
    for name in names():
        adj = adjoint_matrices(corpus_algebras[name].tensor)
        want = GOLDEN_ADJOINT[name]
        for label, got in (
            ("first_slot", adj.first_slot),
            ("second_slot", adj.second_slot),
            ("output_slot", adj.output_slot),
        ):
            expected = tuple(mat(m) for m in want[label])
            if got != expected:
                failures.append(f"{name} {label} mismatch")
    _finish("adjoint golden matrices", failures)


def test_property_suite(corpus_algebras):
    failures = []
    pool = list(corpus_algebras.values())
    pool.append(LeibnizAlgebra.analyze(StructureTensor.from_entries(2, {})))
    results = ps.run_all(pool, seed=20240809, trials=100)
    for name, count in results.items():
        if count:
            failures.append(f"{name}: {count} failures out of 100")
    _finish("randomized property suite (100 trials each)", failures)


def test_report_determinism(corpus_files, capsys):
    failures = []
    for name in names():
        path = str(corpus_files[name])
        code1 = main(["report", path, "--seed", "3"])
        out1 = capsys.readouterr().out
        code2 = main(["report", path, "--seed", "3"])
        out2 = capsys.readouterr().out
        if code1 != 0 or code2 != 0:
            failures.append(f"{name}: nonzero exit")
        if out1 != out2:
            failures.append(f"{name}: report bytes differ between runs")
    with capsys.disabled():
        _finish("report determinism", failures)
