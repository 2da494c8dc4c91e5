import random
from fractions import Fraction

import pytest

from leibnizalg import linalg
from leibnizalg.linalg import (
    kernel_basis,
    mat,
    mat_mul,
    mat_vec,
    rref,
    solve_affine,
    sparse_rows,
    transpose,
)

from oracles import dense_kernel_basis, dense_solve_affine

F = Fraction


def sparse(a):
    """The sparse rows of a dense matrix."""
    return sparse_rows(
        ((r, c, x) for r, row in enumerate(a) for c, x in enumerate(row)), len(a)
    )


def test_sparse_rows_sum_sort_and_drop_zeros():
    entries = [(0, 2, 1), (0, 0, F(1, 2)), (0, 2, -1), (1, 1, 3), (1, 0, F(-1, 3))]
    assert sparse_rows(entries, 3) == (
        ((0, F(1, 2)),),
        ((0, F(-1, 3)), (1, F(3))),
        (),
    )


def test_rref_pivots_and_normalization():
    rows = sparse(mat([[0, 2, 4], [1, 1, 1], [1, 3, 5]]))
    reduced, pivots = rref(rows)
    assert pivots == [0, 1]
    assert reduced[0] == ((0, F(1)), (2, F(-1)))
    assert reduced[1] == ((1, F(1)), (2, F(2)))
    assert len(reduced) == 2  # the third row reduces to zero


def test_kernel_basis_free_column_order():
    a = mat([[1, 0, 2, 0], [0, 1, 3, 0]])
    basis = kernel_basis(sparse(a), 4)
    assert basis == [
        (F(-2), F(-3), F(1), F(0)),
        (F(0), F(0), F(0), F(1)),
    ]
    for v in basis:
        assert all(x == 0 for x in mat_vec(a, v))


def test_kernel_of_zero_matrix_is_full_space():
    basis = kernel_basis((), ncols=3)
    assert len(basis) == 3


def test_solve_affine_consistent_and_inconsistent():
    a = sparse(mat([[1, 1], [2, 2]]))
    assert solve_affine(a, (F(3), F(6)), 2) is not None
    assert solve_affine(a, (F(3), F(7)), 2) is None
    particular, kernel = solve_affine(a, (F(3), F(6)), 2)
    assert particular == (F(3), F(0))
    assert kernel == [(F(-1), F(1))]


def test_solve_affine_kernel_matches_kernel_basis(monkeypatch):
    rng = random.Random(11)
    calls = []
    counted = linalg.rref
    monkeypatch.setattr(linalg, "rref", lambda rows: calls.append(1) or counted(rows))
    for _ in range(60):
        nrows, ncols = rng.randint(1, 6), rng.randint(1, 6)
        a = mat(
            [[rng.choice((0, 0, 0, 1, -1, 2, "1/3")) for _ in range(ncols)]
             for _ in range(nrows)]
        )
        x = [F(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(ncols)]
        b = mat_vec(a, x)
        calls.clear()
        particular, kernel = solve_affine(sparse(a), b, ncols)
        assert len(calls) == 1  # one elimination of [a | b]
        assert mat_vec(a, particular) == b
        assert kernel == kernel_basis(sparse(a), ncols)


def _entry(rng, kind):
    if kind == "dense":  # every entry nonzero
        return F(rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(1, 4))
    return F(rng.choice((0, 0, 0, 0, 1, -1, 2)), rng.randint(1, 2))


def random_systems(seed, count=60):
    """Seeded (kind, a, b, ncols): sparse, fully dense and rank-deficient
    matrices, each with a right-hand side in the column space and one that is
    almost always outside it."""
    rng = random.Random(seed)
    for kind in ("sparse", "dense", "rank-deficient"):
        for _ in range(count):
            nrows, ncols = rng.randint(1, 8), rng.randint(1, 8)
            if kind == "rank-deficient":
                base = [[_entry(rng, "dense") for _ in range(ncols)]
                        for _ in range(rng.randint(1, max(1, min(nrows, ncols) - 1)))]
                a = []
                for _ in range(nrows):
                    cs = [F(rng.randint(-2, 2)) for _ in base]
                    a.append([sum(c * row[j] for c, row in zip(cs, base)) for j in range(ncols)])
            else:
                a = [[_entry(rng, kind) for _ in range(ncols)] for _ in range(nrows)]
            a = tuple(tuple(row) for row in a)
            x = [F(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(ncols)]
            yield kind, a, mat_vec(a, x), ncols
            yield kind, a, tuple(F(rng.randint(-3, 3)) for _ in range(nrows)), ncols


def test_eliminator_matches_dense_oracle():
    outcomes = {}
    for kind, a, b, ncols in random_systems(2024):
        assert kernel_basis(sparse(a), ncols) == dense_kernel_basis(a, ncols)
        solved = solve_affine(sparse(a), b, ncols)
        assert solved == dense_solve_affine(a, b, ncols)
        outcomes.setdefault(kind, set()).add(solved is None)
    # every kind met both consistent and inconsistent right-hand sides
    assert outcomes == {k: {True, False} for k in ("sparse", "dense", "rank-deficient")}


def test_kernel_matches_sympy_nullspace():
    sympy = pytest.importorskip("sympy")
    for _, a, _, ncols in random_systems(7, count=25):
        expected = [
            tuple(F(int(x.p), int(x.q)) for x in v)
            for v in sympy.Matrix(a).nullspace()
        ]
        assert kernel_basis(sparse(a), ncols) == expected


def test_matrix_helpers_are_exact():
    a = mat([["1/3", 1], [0, "1/2"]])
    b = mat_mul(a, transpose(a))
    assert b[0][0] == F(1, 9) + 1
