import itertools
import random
from fractions import Fraction

import pytest

from leibnizalg import Side, StructureTensor
from leibnizalg.core import (
    Chirality,
    adjoint_matrices,
    bracket_rows,
    classify,
    coadjoint_matrices,
    first_nonzero,
    leibniz_residual,
)
from leibnizalg.errors import DimensionError
from leibnizalg.linalg import mat, mat_neg, transpose

from oracles import (
    bracket,
    from_dense,
    grid4,
    leibniz_residual_by_brackets,
    opposite,
    sparse4,
    tensor_from_first_slot,
    tensor_from_output_slot,
    tensor_from_second_slot,
)

F = Fraction


def rand_tensor(rng, dim):
    return from_dense(
        tuple(
            tuple(
                tuple(F(rng.randint(-2, 2), rng.randint(1, 2)) for _ in range(dim))
                for _ in range(dim)
            )
            for _ in range(dim)
        ),
    )


class TestLeibnizResidual:
    def test_example1_is_left_not_right(self, ex1):
        assert first_nonzero(leibniz_residual(ex1.tensor, Side.LEFT)) is None
        res = leibniz_residual(ex1.tensor, Side.RIGHT)
        assert first_nonzero(res) is not None
        # hand substitution of the first basis vector into the right identity
        assert res[0, 0, 0, 1] == F(-1)
        assert first_nonzero(res) == ((1, 1, 1, 2), F(-1))

    def test_zero_tensor_passes_both_sides(self):
        z = StructureTensor.from_entries(3, {})
        for side in Side:
            assert first_nonzero(leibniz_residual(z, side)) is None

    def test_opposite_bracket_mirrors_residual_components(self):
        rng = random.Random(42)
        for dim in (2, 3):
            for _ in range(25):
                t = rand_tensor(rng, dim)
                left = grid4(leibniz_residual(t, Side.LEFT), dim)
                right_op = grid4(leibniz_residual(opposite(t), Side.RIGHT), dim)
                for i, j, k in itertools.product(range(dim), repeat=3):
                    assert right_op[i][j][k] == left[i][k][j]

    def test_matches_bracket_evaluation(self, corpus_algebras):
        rng = random.Random(17)
        tensors = [a.tensor for a in corpus_algebras.values()]
        tensors += [rand_tensor(rng, d) for d in (1, 2, 3) for _ in range(8)]
        for t in tensors:
            for side in Side:
                expected = leibniz_residual_by_brackets(t, side)
                res = leibniz_residual(t, side)
                assert grid4(res, t.dim) == expected
                assert all(res.values())  # nonzero components only
                assert classify(t).admits(side) == (first_nonzero(sparse4(expected)) is None)


class TestClassify:
    def test_corpus(self, ex1, ex2, ex3, ex4):
        assert ex1.chirality is Chirality.LEFT
        assert ex2.chirality is Chirality.RIGHT
        assert ex3.chirality is Chirality.BOTH
        assert ex4.chirality is Chirality.RIGHT

    def test_zero_tensor_is_lie(self):
        assert classify(StructureTensor.from_entries(2, {})) is Chirality.LIE

    def test_neither(self):
        t = StructureTensor.from_entries(2, {(1, 1, 1): 1, (1, 1, 2): 1, (2, 1, 1): 1})
        assert classify(t) is Chirality.NEITHER


class TestBracket:
    def test_example1_products(self, ex1):
        e1, e2 = (F(1), F(0)), (F(0), F(1))
        assert bracket(ex1.tensor, e1, e2) == (F(0), F(1))
        assert bracket(ex1.tensor, e1, e1) == (F(0), F(1))

    def test_example4_product(self, ex4):
        e1 = (F(1), F(0), F(0))
        e2 = (F(0), F(1), F(0))
        assert bracket(ex4.tensor, e2, e1) == (F(0), F(0), F(1))

    def test_zero_argument(self, ex2):
        assert bracket(ex2.tensor, (F(0), F(0)), (F(3), F(5))) == (F(0), F(0))

    def test_dimension_mismatch(self, ex1):
        with pytest.raises(DimensionError):
            bracket(ex1.tensor, (F(1),), (F(0), F(1)))


# Adjoint slice matrices of the four bundled algebras, entered from the
# published tables; the frozen orientation contract.
GOLDEN_ADJOINT = {
    "example1": {
        "first_slot": [[[0, -1], [0, -1]], [[0, 0], [0, 0]]],
        "second_slot": [[[0, -1], [0, 0]], [[0, -1], [0, 0]]],
        "output_slot": [[[0, 0], [0, 0]], [[-1, -1], [0, 0]]],
    },
    "example2": {
        "first_slot": [[[0, -1], [0, 0]], [[0, -1], [0, 0]]],
        "second_slot": [[[0, -1], [0, -1]], [[0, 0], [0, 0]]],
        "output_slot": [[[0, 0], [0, 0]], [[-1, 0], [-1, 0]]],
    },
    "example3": {
        "first_slot": [[[0, -1], [0, 0]], [[0, 0], [0, 0]]],
        "second_slot": [[[0, -1], [0, 0]], [[0, 0], [0, 0]]],
        "output_slot": [[[0, 0], [0, 0]], [[-1, 0], [0, 0]]],
    },
    "example4": {
        "first_slot": [
            [[0, -1, 0], [0, 0, 0], [0, 0, 0]],
            [[0, 0, -1], [0, 0, 0], [0, 0, 0]],
            [[0, 0, 0], [0, 0, 0], [0, 0, 0]],
        ],
        "second_slot": [
            [[0, -1, 0], [0, 0, -1], [0, 0, 0]],
            [[0, 0, 0], [0, 0, 0], [0, 0, 0]],
            [[0, 0, 0], [0, 0, 0], [0, 0, 0]],
        ],
        "output_slot": [
            [[0, 0, 0], [0, 0, 0], [0, 0, 0]],
            [[-1, 0, 0], [0, 0, 0], [0, 0, 0]],
            [[0, 0, 0], [-1, 0, 0], [0, 0, 0]],
        ],
    },
}


class TestAdjoint:
    @pytest.mark.parametrize("name", sorted(GOLDEN_ADJOINT))
    def test_golden_matrices(self, corpus_algebras, name):
        adj = adjoint_matrices(corpus_algebras[name].tensor)
        want = GOLDEN_ADJOINT[name]
        assert adj.first_slot == tuple(mat(m) for m in want["first_slot"])
        assert adj.second_slot == tuple(mat(m) for m in want["second_slot"])
        assert adj.output_slot == tuple(mat(m) for m in want["output_slot"])

    def test_zero_tensor(self):
        adj = adjoint_matrices(StructureTensor.from_entries(2, {}))
        assert all(
            all(v == 0 for row in m for v in row)
            for fam in (adj.first_slot, adj.second_slot, adj.output_slot)
            for m in fam
        )

    def test_round_trip_from_each_slice_family(self, corpus_algebras):
        rng = random.Random(7)
        tensors = [a.tensor for a in corpus_algebras.values()]
        tensors += [rand_tensor(rng, d) for d in (2, 3) for _ in range(10)]
        for t in tensors:
            adj = adjoint_matrices(t)
            assert tensor_from_first_slot(adj.first_slot) == t
            assert hash(tensor_from_first_slot(adj.first_slot)) == hash(t)
            assert tensor_from_second_slot(adj.second_slot) == t
            assert tensor_from_output_slot(adj.output_slot) == t


class TestCoadjoint:
    def test_negated_transpose_contract(self, corpus_algebras):
        for alg in corpus_algebras.values():
            adj = adjoint_matrices(alg.tensor)
            coad = coadjoint_matrices(adj)
            for i in range(alg.dim):
                assert transpose(coad.left[i]) == mat_neg(adj.first_slot[i])
                assert transpose(coad.right[i]) == mat_neg(adj.second_slot[i])

    def test_example1_left_value(self, ex1):
        coad = coadjoint_matrices(adjoint_matrices(ex1.tensor))
        assert coad.left[0] == mat([[0, 0], [1, 1]])

    def test_example2_right_value(self, ex2):
        coad = coadjoint_matrices(adjoint_matrices(ex2.tensor))
        assert coad.right[0] == mat([[0, 0], [1, 1]])

    def test_zero(self):
        coad = coadjoint_matrices(adjoint_matrices(StructureTensor.from_entries(2, {})))
        assert all(v == 0 for m in coad.left + coad.right for row in m for v in row)


class TestStructureTensor:
    def test_dimension_bound(self):
        with pytest.raises(DimensionError):
            StructureTensor.from_entries(9, {})
        with pytest.raises(DimensionError):
            StructureTensor.from_entries(0, {})
        with pytest.raises(DimensionError):
            StructureTensor.from_entries(2, {(3, 1, 1): 1})
        with pytest.raises(DimensionError):
            StructureTensor.from_entries(9, {(1, 1, 1): 1})

    def test_entry_index_validation(self):
        with pytest.raises(DimensionError):
            StructureTensor.from_entries(2, {(1, 1, 3): 1})
        with pytest.raises(DimensionError):
            StructureTensor.from_entries(2, {(0, 1, 1): 1})
        with pytest.raises(DimensionError):
            StructureTensor.from_entries(2, {(1, 0, 1): 0})  # checked even when zero

    def test_immutable_with_slot_repr(self, ex1):
        t = StructureTensor.from_entries(1, {(1, 1, 1): F(1, 2)})
        with pytest.raises(AttributeError):
            t.dim = 2
        with pytest.raises(AttributeError):
            ex1.tensor = t
        # tables built on t stay outside the fields: t keeps the equality,
        # hash and repr of a fresh equal tensor
        bracket_rows(t), adjoint_matrices(t)
        assert repr(t) == "StructureTensor(dim=1, entries=(((1, 1, 1), Fraction(1, 2)),))"
        same = StructureTensor.from_entries(1, {(1, 1, 1): F(1, 2)})
        assert t == same and hash(t) == hash(same) and repr(t) == repr(same)
        assert repr(StructureTensor.from_entries(1, {})) == "StructureTensor(dim=1, entries=())"

    def test_explicit_zero_dropped(self):
        plain = StructureTensor.from_entries(2, {(1, 2, 1): 3})
        for z in (0, F(0), "0", F(0, 5)):
            t = StructureTensor.from_entries(2, {(1, 1, 2): z, (1, 2, 1): 3})
            assert t == plain and hash(t) == hash(plain)
            assert t.items() == (((1, 2, 1), F(3)),)
        zero = StructureTensor.from_entries(2, {})
        assert StructureTensor.from_entries(2, {(2, 2, 2): 0}) == zero

    def test_insertion_order_does_not_matter(self):
        entries = {(2, 1, 1): F(-1, 3), (1, 1, 2): 1, (1, 2, 2): F(5), (1, 1, 1): 2}
        reversed_order = dict(reversed(list(entries.items())))
        a = StructureTensor.from_entries(2, entries)
        b = StructureTensor.from_entries(2, reversed_order)
        assert a == b and hash(a) == hash(b) and repr(a) == repr(b)
        assert [e for e, _ in a.items()] == sorted(entries)
        assert all(isinstance(v, F) for _, v in a.items())

    def test_items_sorted_and_one_based(self, ex4):
        assert list(ex4.tensor.items()) == [((1, 1, 2), F(1)), ((2, 1, 3), F(1))]
