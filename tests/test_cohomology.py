import itertools
import random
import sys
from collections import Counter
from fractions import Fraction
from math import lcm

import pytest

from leibnizalg import Side, StructureTensor
from leibnizalg.actions import ActionCase, action_operators
from leibnizalg.cohomology import coboundary0, coboundary1, coboundary_matrix
from leibnizalg.core import LeibnizAlgebra, adjoint_matrices, bracket_rows
from leibnizalg.errors import DimensionError
from leibnizalg.linalg import mat
from leibnizalg.record import set_field
from leibnizalg.report import build_report

from families import EX1_FAMILIES
from oracles import (
    CochainMap,
    coboundary2,
    cochain_at,
    corpus_document,
    cocommutator_cochain,
    cocycle_residual_matrix,
    cocycle_residual_tensor,
    dense,
    dense_cochain,
    from_dense,
    sparse_cochain,
    zero_cochain,
    zeros,
)
from test_cli import DENSE_BASIS, _in_basis

F = Fraction


def rand_matrix(rng, n):
    return tuple(
        tuple(F(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(n))
        for _ in range(n)
    )


def rand_tensor(rng, n):
    return from_dense(
        tuple(
            tuple(
                tuple(F(rng.randint(-2, 2)) for _ in range(n)) for _ in range(n)
            )
            for _ in range(n)
        ),
    )


def compatible_pairs(alg):
    for case in ActionCase:
        for side in case.complexes(alg):
            yield case, side


class TestCoboundary0:
    def test_zero_element(self, ex2):
        d0 = coboundary0(ex2, ActionCase.CASE1, Side.RIGHT, zeros(2, 2))
        assert d0 == {}

    def test_example2_case1_right(self, ex2):
        d0 = coboundary0(ex2, ActionCase.CASE1, Side.RIGHT, mat([[1, 0], [0, 0]]))
        # e1 -> [e1, e1] (x) e1 = e2 (x) e1, and e2 -> [e2, e1] (x) e1 = e2 (x) e1
        assert d0 == {(0, 1, 0): F(1), (1, 1, 0): F(1)}
        assert cochain_at(dense_cochain(d0, 2, 1), 1) == mat([[0, 0], [1, 0]])

    def test_left_complex_matches_coboundary_cocommutator(self, ex1):
        from leibnizalg import CoboundaryCase
        from leibnizalg.rmatrix import coboundary_cocommutator

        r = mat([[1, 2], [3, "1/2"]])
        d0 = coboundary0(ex1, ActionCase.CASE4, Side.LEFT, r)
        ftilde = coboundary_cocommutator(ex1, r, CoboundaryCase.LEFT_4)
        for k in range(2):
            assert cochain_at(dense_cochain(d0, 2, 1), k + 1) == tuple(
                tuple(dense(ftilde)[a][b][k] for b in range(2)) for a in range(2)
            )


class TestMalformedCochain:
    # example3 has dimension 2: components are (x, a, b) with indices 0..1
    @pytest.mark.parametrize("key", [
        (1,),  # an argument with no tensor-square component
        (0, 1),  # one index short
        (0, 1, 0, 1),  # an arity-2 component
        (2, 0, 0),  # a third argument
        (0, 2, 1),  # a component past the last basis element
        (0, 0, -1),  # a negative index
        (0, 0.5, 0),  # no basis index, though between 0 and 1
    ])
    def test_bad_component_is_rejected(self, ex3, key):
        w = {(0, 0, 0): F(1), key: F(2)}
        with pytest.raises(DimensionError):
            coboundary1(ex3, ActionCase.CASE1, Side.RIGHT, w)

    def test_missing_components_are_zero(self, ex3):
        full = {(x, a, b): F(0) for x, a, b in itertools.product(range(2), repeat=3)}
        full[1, 0, 1] = F(3, 2)
        sparse = {(1, 0, 1): F(3, 2)}
        got = coboundary1(ex3, ActionCase.CASE1, Side.RIGHT, sparse)
        assert got and got == coboundary1(ex3, ActionCase.CASE1, Side.RIGHT, full)

    def test_bad_matrix_shape_is_rejected(self, ex3):
        with pytest.raises(DimensionError):
            coboundary0(ex3, ActionCase.CASE1, Side.RIGHT, mat([[1, 0], [0]]))


class TestComplexProperty:
    def test_d1_after_d0_vanishes(self, corpus_algebras):
        rng = random.Random(11)
        for alg in corpus_algebras.values():
            for case, side in compatible_pairs(alg):
                for _ in range(10):
                    m = rand_matrix(rng, alg.dim)
                    d0 = coboundary0(alg, case, side, m)
                    assert coboundary1(alg, case, side, d0) == {}

    def test_d2_after_d1_vanishes(self, corpus_algebras):
        rng = random.Random(13)
        for alg in corpus_algebras.values():
            for case, side in compatible_pairs(alg):
                for _ in range(5):
                    w = CochainMap(
                        alg.dim,
                        1,
                        tuple(rand_matrix(rng, alg.dim) for _ in range(alg.dim)),
                    )
                    d1 = coboundary1(alg, case, side, sparse_cochain(w))
                    d1 = dense_cochain(d1, alg.dim, 2)  # coboundary2 is dense
                    assert coboundary2(alg, case, side, d1).is_zero()

    def test_crossed_pairings_fail_as_recorded(self, ex3):
        # the two-sided corpus algebra witnesses the crossed-case failure
        rng = random.Random(17)
        for case, side, expect in (
            (ActionCase.CASE2, Side.LEFT, False),
            (ActionCase.CASE3, Side.RIGHT, False),
        ):
            assert (side in case.complexes(ex3)) is expect
            broken = False
            for _ in range(20):
                m = rand_matrix(rng, ex3.dim)
                d0 = coboundary0(ex3, case, side, m)
                if coboundary1(ex3, case, side, d0):
                    broken = True
                    break
            assert broken


class _Builds(dict):
    """A tensor's table memo that counts the tables stored under each key."""

    def __init__(self):
        super().__init__()
        self.stored = Counter()

    def __setitem__(self, key, value):
        self.stored[key] += 1
        super().__setitem__(key, value)


def _copy(t):
    """An equal tensor with no tables built on it."""
    return StructureTensor.from_entries(t.dim, dict(t.items()))


def _counted(t):
    """The algebra of tensor ``t``, which counts the tables built on it
    from here on, its classification included."""
    builds = _Builds()
    set_field(t, "_memo", builds)
    return LeibnizAlgebra.analyze(t), builds


def _per_table(builds):
    assert set(builds.stored.values()) <= {1}, "a table was built twice"
    return Counter(key[0].__name__ for key in builds.stored)


class TestMatrixRows:
    def test_rows_sorted_integer_zero_free_and_summed(self):
        # NF_3 in DENSE_BASIS: every bracket entry is nonzero and has thirds,
        # so the three terms of the degree-1 coboundary meet at many
        # positions (the two action terms wherever x == y), and each such
        # entry is their sum.  The residual oracle shares no code with the
        # matrix: row (i, j, m, n) of the degree-1 matrix, at the column of
        # the dual entry (a, b, k), is den times the (i, j, m, n) component
        # of the coboundary of the unit dual at (a, b, k), which is minus the
        # form's residual.
        n = 3
        t = StructureTensor.from_entries(n, _in_basis({(1, 1, 2): 1, (1, 2, 3): 1}, DENSE_BASIS))
        den = lcm(*(v.denominator for _, v in t.items()))
        assert den > 1
        for case in ActionCase:
            for side in (None, Side.LEFT, Side.RIGHT):
                d, rows = coboundary_matrix(t, case, side)
                assert d == den
                assert len(rows) == n ** (3 if side else 4)
                for row in rows:
                    assert [c for c, _ in row] == sorted({c for c, _ in row})
                    assert all(type(x) is int and x for _, x in row)
            _, rows = coboundary_matrix(t, case, None)
            for a, b, k in itertools.product(range(n), repeat=3):
                unit = StructureTensor.from_entries(n, {(a + 1, b + 1, k + 1): 1})
                res = cocycle_residual_tensor(t, unit, case.value)
                column = (a * n + b) * n + k
                got = [dict(row).get(column, 0) for row in rows]
                assert got == [-den * res[i][j][m][q]
                               for i, j, m, q in itertools.product(range(n), repeat=4)]


class TestMatrixCache:
    def test_one_degree1_matrix_serves_both_complexes(self, ex3):
        alg, builds = _counted(_copy(ex3.tensor))
        w = {(0, 1, 1): F(1)}
        for side in Side:
            coboundary1(alg, ActionCase.CASE1, side, w)
        assert _per_table(builds)["coboundary_matrix"] == 1

    @pytest.mark.parametrize("name, matrices, actions", [
        pytest.param("example3", 10, 8, id="example3"),
        pytest.param("example1", 6, 6, id="example1"),
    ])
    def test_tables_built_per_report(self, name, matrices, actions):
        # example3 (two-sided): 4 degree-1 matrices, read by the duals'
        # cocycle systems and again by the selfcheck's complexes, and 6
        # degree-0 ones, read by the complexes and the cocommutators;
        # example1 (right-handed): 3 and 3
        doc = corpus_document(name)
        alg, builds = _counted(doc.tensor())
        build_report(doc, alg, b"", 0)
        assert _per_table(builds) == {
            "bracket_rows": 1, "adjoint_matrices": 1,
            "action_operators": actions, "coboundary_matrix": matrices,
        }

    def test_equal_tensors_keep_their_own_tables(self, ex3):
        t, u = _copy(ex3.tensor), _copy(ex3.tensor)
        tables = []
        for build, args in ((bracket_rows, ()), (adjoint_matrices, ()),
                            (action_operators, (ActionCase.CASE1, Side.LEFT)),
                            (coboundary_matrix, (ActionCase.CASE1, None))):
            table = build(t, *args)
            assert build(t, *args) is table
            other = build(u, *args)
            assert other == table and other is not table
            tables.append(table)
        del t, table, other
        # nothing at module level keeps a table: with t gone, this list
        # holds the only reference (getrefcount counts its argument too)
        assert all(sys.getrefcount(tables[x]) == 2 for x in range(len(tables)))


class TestCoboundary2:
    def test_zero_cochain(self, ex2):
        w = zero_cochain(2, 2)
        assert coboundary2(ex2, ActionCase.CASE1, Side.RIGHT, w).is_zero()

    def test_constant_cochain_on_zero_algebra(self, zero2):
        cell = mat([[1, 2], [3, 4]])
        w = CochainMap(2, 2, tuple(tuple(cell for _ in range(2)) for _ in range(2)))
        for case in ActionCase:
            for side in Side:
                assert coboundary2(zero2, case, side, w).is_zero()


class TestCocycleResiduals:
    def test_family_member_passes_form4(self, ex1, ex2):
        for alg in (ex1, ex2):
            ftilde = StructureTensor.from_entries(
                2, {(1, 2, 1): -1, (1, 2, 2): -1, (2, 2, 1): 1, (2, 2, 2): 1}
            )
            res = cocycle_residual_tensor(alg.tensor, ftilde, 4)
            assert all(
                v == 0 for a in res for b in a for c in b for v in c
            )

    def test_zero_dual_passes_all_forms(self, ex4):
        z = StructureTensor.from_entries(3, {})
        for form in (1, 2, 3, 4):
            res = cocycle_residual_tensor(ex4.tensor, z, form)
            assert all(v == 0 for a in res for b in a for c in b for v in c)

    def test_example3_case2_dual_passes_form1_matrix_route(self, ex3):
        ftilde = StructureTensor.from_entries(2, {(2, 2, 1): 1})
        grid = cocycle_residual_matrix(ex3.tensor, ftilde, 1)
        assert all(
            v == 0 for row_m in grid for cell in row_m for row in cell for v in row
        )

    def test_tensor_and_matrix_routes_agree(self):
        rng = random.Random(23)
        for dim in (2, 3):
            for _ in range(25):
                f = rand_tensor(rng, dim)
                g = rand_tensor(rng, dim)
                for form in (1, 2, 3, 4):
                    tens = cocycle_residual_tensor(f, g, form)
                    grid = cocycle_residual_matrix(f, g, form)
                    for i, j, m, n in itertools.product(range(dim), repeat=4):
                        assert grid[m][n][i][j] == -tens[i][j][m][n]

    def test_gamma1_of_cocommutator_matches_residual(self, ex1):
        # the arity-1 coboundary under case-4 actions encodes the form-4
        # residual componentwise
        ref = EX1_FAMILIES[0]
        ftilde = ref.member(2, [F(1)])
        w = cocommutator_cochain(ftilde)
        d1 = coboundary1(ex1, ActionCase.CASE4, Side.LEFT, w)
        assert d1 == {}
        res = cocycle_residual_tensor(ex1.tensor, ftilde, 4)
        assert all(v == 0 for a in res for b in a for c in b for v in c)

    def test_gamma1_equals_negated_residual_for_random_dual(self, ex2):
        rng = random.Random(29)
        for _ in range(10):
            g = rand_tensor(rng, 2)
            w = cocommutator_cochain(g)
            d1 = coboundary1(ex2, ActionCase.CASE1, Side.RIGHT, w)
            res = cocycle_residual_tensor(ex2.tensor, g, 1)
            for i, j, m, n in itertools.product(range(2), repeat=4):
                assert d1.get((i, j, m, n), 0) == -res[i][j][m][n]
