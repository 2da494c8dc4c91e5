import itertools
import random
from fractions import Fraction

import pytest

from leibnizalg import (
    ChiralityError,
    LeibnizAlgebra,
    CoboundaryCase,
    Side,
    StructureTensor,
    cybe_check,
    scenario_sweep,
    solve_rmatrix,
)
from leibnizalg.core import first_nonzero, leibniz_residual
from leibnizalg.linalg import mat
from leibnizalg.rmatrix import (
    BRACKET_CASE,
    COMPLEX,
    coboundary_cocommutator,
    cocommutator_matrix_route,
    crosscheck_dual_defect,
    dual_bracket_from_r,
    gybe_residual,
    is_antisymmetric_matrix,
    schouten,
    triple_products,
)

from families import EX1_FAMILIES, EX2_FAMILIES, EX3_FAMILIES, EX4_FAMILIES
from test_cli import DENSE_BASIS, _in_basis
from oracles import (
    cocycle_residual_tensor,
    dual_bracket_by_units,
    evaluate_quadratic,
    family_member,
    flatten_tensor,
    grid3,
    grid4,
    gybe_residual_dense,
    opposite,
    schouten_dense,
    sparse4,
    triple_products_dense,
    zeros,
)

F = Fraction


def rand_matrix(rng, n):
    return tuple(
        tuple(F(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(n))
        for _ in range(n)
    )


def sides_with_cases(alg):
    if alg.admits(Side.RIGHT):
        yield Side.RIGHT, (CoboundaryCase.RIGHT_1, CoboundaryCase.RIGHT_4)
    if alg.admits(Side.LEFT):
        yield Side.LEFT, (CoboundaryCase.LEFT_1, CoboundaryCase.LEFT_4)


class TestCoboundaryCocommutator:
    def test_example1_left4_golden(self, ex1):
        r = mat([[1, 0], [-1, 0]])
        ftilde = coboundary_cocommutator(ex1, r, CoboundaryCase.LEFT_4)
        assert ftilde == EX1_FAMILIES[0].member(2, [F(1)])

    def test_example2_right4_golden(self, ex2):
        r = mat([[-1, 0], [1, 0]])
        ftilde = coboundary_cocommutator(ex2, r, CoboundaryCase.RIGHT_4)
        assert ftilde == EX2_FAMILIES[0].member(2, [F(1)])

    def test_zero_r(self, ex2):
        zero = StructureTensor.from_entries(2, {})
        for case in (CoboundaryCase.RIGHT_1, CoboundaryCase.RIGHT_4):
            assert coboundary_cocommutator(ex2, zeros(2, 2), case) == zero

    def test_trivial_cases_yield_zero(self, ex2):
        r = mat([[5, 7], [11, 13]])
        zero = StructureTensor.from_entries(2, {})
        assert coboundary_cocommutator(ex2, r, CoboundaryCase.TRIVIAL_2) == zero
        assert coboundary_cocommutator(ex2, r, CoboundaryCase.TRIVIAL_3) == zero

    def test_chirality_guard(self, ex1):
        with pytest.raises(ChiralityError):
            coboundary_cocommutator(ex1, zeros(2, 2), CoboundaryCase.RIGHT_1)

    def test_matrix_route_agrees(self, corpus_algebras):
        rng = random.Random(41)
        for alg in corpus_algebras.values():
            for _, cases in sides_with_cases(alg):
                for case in cases:
                    for _ in range(10):
                        r = rand_matrix(rng, alg.dim)
                        assert coboundary_cocommutator(
                            alg, r, case
                        ) == cocommutator_matrix_route(alg, r, case)

    def test_output_is_cocycle_for_matching_form(self, corpus_algebras):
        rng = random.Random(43)
        for alg in corpus_algebras.values():
            for _, cases in sides_with_cases(alg):
                for case in cases:
                    for _ in range(10):
                        r = rand_matrix(rng, alg.dim)
                        ftilde = coboundary_cocommutator(alg, r, case)
                        res = cocycle_residual_tensor(alg.tensor, ftilde, COMPLEX[case][0])
                        assert first_nonzero(sparse4(res)) is None


class TestDualBracketFromR:
    def test_equals_cocommutator_right(self, ex3):
        r = mat([[0, 1], [-1, 0]])
        assert dual_bracket_from_r(ex3, r, Side.RIGHT) == coboundary_cocommutator(
            ex3, r, CoboundaryCase.RIGHT_1
        )

    def test_equals_cocommutator_left_golden(self, ex1):
        r = mat([[1, 0], [-1, 0]])
        out = dual_bracket_from_r(ex1, r, Side.LEFT)
        assert out == EX1_FAMILIES[0].member(2, [F(1)])

    def test_zero_r(self, ex4):
        zero = StructureTensor.from_entries(3, {})
        assert dual_bracket_from_r(ex4, zeros(3, 3), Side.RIGHT) == zero

    def test_route_equivalence_random(self, corpus_algebras):
        rng = random.Random(47)
        for alg in corpus_algebras.values():
            for side, cases in sides_with_cases(alg):
                match = cases[0] if side is Side.RIGHT else cases[1]
                for _ in range(10):
                    r = rand_matrix(rng, alg.dim)
                    assert dual_bracket_from_r(alg, r, side) == coboundary_cocommutator(
                        alg, r, match
                    )


class TestSolveRMatrix:
    def test_example1_family1_left4(self, ex1):
        for a in (F(1), F(2)):
            sol = solve_rmatrix(ex1, EX1_FAMILIES[0].member(2, [a]), CoboundaryCase.LEFT_4)
            assert sol is not None
            assert sol.particular == mat([[a, 0], [-a, 0]])
            assert sol.kernel == (mat([[0, 1], [0, 0]]), mat([[0, 0], [0, 1]]))

    def test_example1_family2_infeasible(self, ex1):
        lie = EX1_FAMILIES[1].member(2, [F(1)])
        assert solve_rmatrix(ex1, lie, CoboundaryCase.LEFT_1) is None
        assert solve_rmatrix(ex1, lie, CoboundaryCase.LEFT_4) is None

    def test_example1_family3_left1(self, ex1):
        sol = solve_rmatrix(ex1, EX1_FAMILIES[2].member(2, [F(1)]), CoboundaryCase.LEFT_1)
        assert sol is not None
        assert sol.particular == mat([[1, -1], [0, 0]])
        assert sol.kernel == (mat([[0, 0], [1, 0]]), mat([[0, 0], [0, 1]]))

    def test_example2_family1_right4(self, ex2):
        sol = solve_rmatrix(ex2, EX2_FAMILIES[0].member(2, [F(1)]), CoboundaryCase.RIGHT_4)
        assert sol is not None
        assert sol.particular == mat([[-1, 0], [1, 0]])
        assert sol.kernel == (mat([[0, 1], [0, 0]]), mat([[0, 0], [0, 1]]))

    def test_example2_family2_infeasible_both_cases(self, ex2):
        lie = EX2_FAMILIES[1].member(2, [F(1)])
        assert solve_rmatrix(ex2, lie, CoboundaryCase.RIGHT_1) is None
        assert solve_rmatrix(ex2, lie, CoboundaryCase.RIGHT_4) is None

    def test_example2_family3_right4_infeasible_right1_feasible(self, ex2):
        # No single r satisfies both matrix systems: the second one is
        # inconsistent.  The first one does have solutions ([[-a, a], [*, *]]),
        # which reproduce the family exactly; asserted as the honest outcome.
        f3 = EX2_FAMILIES[2].member(2, [F(1)])
        assert solve_rmatrix(ex2, f3, CoboundaryCase.RIGHT_4) is None
        sol = solve_rmatrix(ex2, f3, CoboundaryCase.RIGHT_1)
        assert sol is not None
        assert sol.particular == mat([[-1, 1], [0, 0]])
        member = sol.member([F(4), F(9)])
        assert coboundary_cocommutator(ex2, member, CoboundaryCase.RIGHT_1) == f3

    def test_example3_four_recoveries(self, ex3):
        f2 = EX3_FAMILIES[1].member(2, [F(1)])
        expected = {
            CoboundaryCase.RIGHT_1: mat([[0, 1], [0, 0]]),
            CoboundaryCase.LEFT_1: mat([[0, -1], [0, 0]]),
            CoboundaryCase.RIGHT_4: mat([[0, 0], [1, 0]]),
            CoboundaryCase.LEFT_4: mat([[0, 0], [-1, 0]]),
        }
        for case, particular in expected.items():
            sol = solve_rmatrix(ex3, f2, case)
            assert sol is not None
            assert sol.particular == particular
            assert sol.dimension == 2

    def test_example4_two_recoveries(self, ex4):
        f1 = EX4_FAMILIES[0].member(3, [F(0), F(1)])  # free constants (a, b) = (0, 1)
        sol = solve_rmatrix(ex4, f1, CoboundaryCase.RIGHT_4)
        assert sol is not None
        assert sol.particular == mat([[0, 0, 0], [0, 0, 0], [1, 0, 0]])
        assert sol.dimension == 6
        constrained = {(0, 0), (1, 0), (2, 0)}
        for k in sol.kernel:
            assert all(k[i][j] == 0 for (i, j) in constrained)

        f3 = EX4_FAMILIES[2].member(3, [F(0), F(1)])
        sol = solve_rmatrix(ex4, f3, CoboundaryCase.RIGHT_1)
        assert sol is not None
        assert sol.particular == mat([[0, 0, 1], [0, 0, 0], [0, 0, 0]])
        assert sol.dimension == 6
        constrained = {(0, 0), (0, 1), (0, 2)}
        for k in sol.kernel:
            assert all(k[i][j] == 0 for (i, j) in constrained)

    def test_solve_apply_round_trip(self, corpus_algebras):
        rng = random.Random(53)
        for alg in corpus_algebras.values():
            for _, cases in sides_with_cases(alg):
                for case in cases:
                    r0 = rand_matrix(rng, alg.dim)
                    ftilde = coboundary_cocommutator(alg, r0, case)
                    sol = solve_rmatrix(alg, ftilde, case)
                    assert sol is not None
                    for _ in range(5):
                        member = sol.member(
                            [F(rng.randint(-3, 3)) for _ in sol.parameters]
                        )
                        assert coboundary_cocommutator(alg, member, case) == ftilde

    def test_trivial_case_semantics(self, ex2):
        assert solve_rmatrix(ex2, StructureTensor.from_entries(2, {}), CoboundaryCase.TRIVIAL_2)
        nonzero = StructureTensor.from_entries(2, {(1, 1, 1): 1})
        assert solve_rmatrix(ex2, nonzero, CoboundaryCase.TRIVIAL_2) is None


class TestSchouten:
    def test_example1_classical_r(self, ex1):
        r = mat([[1, -1], [-1, 1]])  # the a=1 member with b=-a, c=a
        assert schouten(ex1, r, Side.LEFT) == ()
        assert cybe_check(ex1, r, Side.LEFT)

    def test_example1_family_zero_only_at_special_values(self, ex1):
        # with (a, b, c) = (1, 2, 1) the bracket misses the classical locus
        assert not cybe_check(ex1, mat([[1, 2], [-1, 1]]), Side.LEFT)

    def test_example3_right_single_component(self, ex3):
        s = schouten(ex3, mat([[0, 1], [0, 0]]), Side.RIGHT)
        assert grid3(s, 2)[1][1][1] == F(1)
        nonzero = [
            (m, n, p)
            for m, n, p in itertools.product(range(2), repeat=3)
            if grid3(s, 2)[m][n][p] != 0
        ]
        assert nonzero == [(1, 1, 1)]
        assert s == (((2, 2, 2), F(1)),)

    def test_zero_r(self, ex2):
        assert schouten(ex2, zeros(2, 2), Side.RIGHT) == ()

    def test_antisymmetry_reporting(self):
        assert is_antisymmetric_matrix(mat([[0, 1], [-1, 0]]))
        assert not is_antisymmetric_matrix(mat([[0, 1], [1, 0]]))


class TestTripleProducts:
    def test_decomposition_right(self, ex3):
        r = mat([[0, 1], [-1, 0]])
        p1, p2, p3 = triple_products(ex3, r, Side.RIGHT)
        s = schouten_dense(ex3, r, Side.RIGHT)
        n = 2
        p1, p2 = grid3(p1, n), grid3(p2, n)
        total = tuple(
            tuple(
                tuple(p1[a][b][c] + p2[a][b][c] for c in range(n))
                for b in range(n)
            )
            for a in range(n)
        )
        assert total == s

    def test_left_golden_sum_vanishes(self, ex1):
        r = mat([[1, -1], [-1, 1]])
        p1, p2, p3 = triple_products(ex1, r, Side.LEFT)
        n = 2
        p1, p2 = grid3(p1, n), grid3(p2, n)
        for a, b, c in itertools.product(range(n), repeat=3):
            assert p1[a][b][c] + p2[a][b][c] == 0

    def test_zero_r(self, ex4):
        for p in triple_products(ex4, zeros(3, 3), Side.RIGHT):
            assert all(v == 0 for x in grid3(p, 3) for y in x for v in y)
            assert p == ()

    def test_decomposition_random(self, corpus_algebras):
        rng = random.Random(59)
        for alg in corpus_algebras.values():
            for side, _ in sides_with_cases(alg):
                for _ in range(10):
                    r = rand_matrix(rng, alg.dim)
                    p1, p2, _ = triple_products(alg, r, side)
                    s = schouten_dense(alg, r, side)
                    n = alg.dim
                    p1, p2 = grid3(p1, n), grid3(p2, n)
                    for a, b, c in itertools.product(range(n), repeat=3):
                        assert p1[a][b][c] + p2[a][b][c] == s[a][b][c]


def sparse_matrix(rng, n):
    out = [[F(0)] * n for _ in range(n)]
    for _ in range(n):
        v = F(rng.choice((-2, -1, 1, 3)), rng.randint(1, 2))
        out[rng.randrange(n)][rng.randrange(n)] = v
    return tuple(tuple(row) for row in out)


class TestDenseOracles:
    """The term-table products against the dense sums over every (i, j)."""

    def test_matches_dense_oracles(self, corpus_algebras):
        nf4 = StructureTensor.from_entries(4, {(1, i, i + 1): 1 for i in (1, 2, 3)})
        algebras = list(corpus_algebras.values()) + [
            LeibnizAlgebra.analyze(t)
            for t in (nf4, opposite(nf4), StructureTensor.from_entries(3, {}))
        ]
        rng = random.Random(71)
        for alg in algebras:
            for side, _ in sides_with_cases(alg):
                for r in (rand_matrix(rng, alg.dim), sparse_matrix(rng, alg.dim)):
                    n = alg.dim
                    s = schouten(alg, r, side)
                    assert grid3(s, n) == schouten_dense(alg, r, side)
                    assert tuple(
                        grid3(p, n) for p in triple_products(alg, r, side)
                    ) == triple_products_dense(alg, r, side)
                    gybe = gybe_residual(alg, r, side)
                    assert grid4(gybe, n) == gybe_residual_dense(alg, r, side)
                    assert all(gybe.values())  # nonzero components only
                    assert dual_bracket_from_r(alg, r, side) == dual_bracket_by_units(
                        alg, r, side
                    )


class TestYangBaxter:
    def test_example3_golden_values(self, ex3):
        # the two recovered families satisfy the matching classical checks
        # exactly on the locus b = -a
        assert cybe_check(ex3, mat([[0, 1], [-1, 5]]), Side.RIGHT)
        assert cybe_check(ex3, mat([[0, -1], [-1, 3]]), Side.LEFT)
        assert not cybe_check(ex3, mat([[0, 1], [2, 0]]), Side.RIGHT)

    def test_gybe_zero_whenever_cybe_holds(self, ex3):
        r = mat([[0, 1], [-1, 0]])
        assert cybe_check(ex3, r, Side.RIGHT)
        assert first_nonzero(gybe_residual(ex3, r, Side.RIGHT)) is None

    def test_gybe_holds_despite_cybe_failing(self, ex3):
        r = mat([[0, 1], [0, 0]])
        assert not cybe_check(ex3, r, Side.RIGHT)
        assert first_nonzero(gybe_residual(ex3, r, Side.RIGHT)) is None

    def test_gybe_zero_r(self, ex2):
        res = gybe_residual(ex2, zeros(2, 2), Side.RIGHT)
        assert all(v == 0 for a in grid4(res, 2) for b in a for c in b for v in c)
        assert res == {}


class TestDefectIdentity:
    def test_golden_left(self, ex1):
        assert crosscheck_dual_defect(ex1, mat([[1, 0], [-1, 0]]), Side.LEFT)

    def test_random_right(self, ex3):
        rng = random.Random(61)
        for _ in range(20):
            assert crosscheck_dual_defect(ex3, rand_matrix(rng, 2), Side.RIGHT)

    def test_zero_r(self, ex4):
        assert crosscheck_dual_defect(ex4, zeros(3, 3), Side.RIGHT)

    def test_all_corpus_random(self, corpus_algebras):
        rng = random.Random(67)
        for alg in corpus_algebras.values():
            for side, _ in sides_with_cases(alg):
                for _ in range(10):
                    assert crosscheck_dual_defect(alg, rand_matrix(rng, alg.dim), side)

    def test_null_filiform_both_sides(self):
        nf4 = StructureTensor.from_entries(4, {(1, i, i + 1): 1 for i in (1, 2, 3)})
        rng = random.Random(73)
        for t, side in ((nf4, Side.LEFT), (opposite(nf4), Side.RIGHT)):
            alg = LeibnizAlgebra.analyze(t)
            for _ in range(5):
                r = rand_matrix(rng, 4)
                assert gybe_residual(alg, r, side)  # both sides of the identity nonzero
                assert crosscheck_dual_defect(alg, r, side)


def test_cancelling_terms_leave_no_zero_component():
    # NF_3 in a basis where all 27 bracket entries are nonzero: with this r,
    # 18 components of the generalized Yang-Baxter residual gain terms that
    # cancel exactly, and the results must not keep them.
    table = _in_basis({(1, 1, 2): 1, (1, 2, 3): 1}, DENSE_BASIS)
    alg = LeibnizAlgebra.analyze(StructureTensor.from_entries(3, table))
    r = mat([[-1, 1, -1], [0, 0, 1], [-1, -1, 1]])
    gybe = gybe_residual(alg, r, Side.LEFT)
    assert grid4(gybe, 3) == gybe_residual_dense(alg, r, Side.LEFT)
    assert gybe and all(gybe.values())
    s = schouten(alg, r, Side.LEFT)
    assert grid3(s, 3) == schouten_dense(alg, r, Side.LEFT)
    dense = triple_products_dense(alg, r, Side.LEFT)
    for p, want in zip(triple_products(alg, r, Side.LEFT), dense):
        assert grid3(p, 3) == want
    for entries in [s] + list(triple_products(alg, r, Side.LEFT)):
        assert all(v for _, v in entries)
    assert crosscheck_dual_defect(alg, r, Side.LEFT)


def test_coboundary_bialgebra_lies_in_the_matching_kernel(corpus_algebras):
    # delta(r), the degree-0 coboundary of r, is a 1-cocycle: it lies in the
    # kernel of the degree-1 coboundary of the matching form, lr-1-r on the
    # right and lr-4-l on the left (BRACKET_CASE).  Its coordinates in the
    # kernel basis are its values at the free columns, the last nonzero
    # column of each basis vector, and the scenario's quadratic residual
    # there is the dual defect of delta(r).
    algebras = list(corpus_algebras.values())
    for n in range(2, 6):
        nf = StructureTensor.from_entries(n, {(1, i, i + 1): 1 for i in range(1, n)})
        algebras += [LeibnizAlgebra.analyze(t) for t in (nf, opposite(nf))]
    algebras += [LeibnizAlgebra.analyze(StructureTensor.from_entries(n, {})) for n in (2, 3)]
    rng = random.Random(16)
    checked = 0
    for alg in algebras:
        for side, key in ((Side.RIGHT, "lr-1-r"), (Side.LEFT, "lr-4-l")):
            if not alg.admits(side):
                continue
            entry = scenario_sweep(alg, key)[key]
            free = [max(c for c, v in enumerate(flatten_tensor(b)) if v)
                    for b in entry.family.basis]
            for _ in range(3):
                r = rand_matrix(rng, alg.dim)
                delta = coboundary_cocommutator(alg, r, BRACKET_CASE[side])
                flat = flatten_tensor(delta)
                coordinates = [flat[c] for c in free]
                assert family_member(entry.family, coordinates) == delta
                values = evaluate_quadratic(entry.quadratic, coordinates)
                defect = dict(zip(entry.quadratic.provenance, values))
                assert {c: v for c, v in defect.items() if v} == {
                    tuple(x + 1 for x in c): v for c, v in leibniz_residual(delta, side).items()
                }
                assert crosscheck_dual_defect(alg, r, side)
                checked += 1
    assert checked == 57  # 19 (algebra, side) pairs, three r each
