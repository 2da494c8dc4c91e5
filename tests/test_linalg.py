import random
from fractions import Fraction

from leibnizalg import linalg
from leibnizalg.linalg import (
    kernel_basis,
    mat,
    mat_mul,
    mat_vec,
    rref,
    solve_affine,
    transpose,
)

F = Fraction


def test_rref_pivots_and_normalization():
    rows = [list(map(F, r)) for r in [[0, 2, 4], [1, 1, 1], [1, 3, 5]]]
    reduced, pivots = rref(rows)
    assert pivots == [0, 1]
    assert reduced[0] == [F(1), F(0), F(-1)]
    assert reduced[1] == [F(0), F(1), F(2)]
    assert reduced[2] == [F(0), F(0), F(0)]


def test_kernel_basis_free_column_order():
    a = mat([[1, 0, 2, 0], [0, 1, 3, 0]])
    basis = kernel_basis(a)
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
    a = mat([[1, 1], [2, 2]])
    assert solve_affine(a, (F(3), F(6))) is not None
    assert solve_affine(a, (F(3), F(7))) is None
    particular, kernel = solve_affine(a, (F(3), F(6)))
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
        particular, kernel = solve_affine(a, b)
        assert len(calls) == 1  # one elimination of [a | b]
        assert mat_vec(a, particular) == b
        assert kernel == kernel_basis(a)


def test_matrix_helpers_are_exact():
    a = mat([["1/3", 1], [0, "1/2"]])
    b = mat_mul(a, transpose(a))
    assert b[0][0] == F(1, 9) + 1
