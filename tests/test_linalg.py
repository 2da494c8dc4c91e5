import random
from fractions import Fraction
from math import lcm

import pytest

from leibnizalg import linalg
from leibnizalg.linalg import (
    kernel_basis,
    mat,
    mat_mul,
    rref,
    solve_affine,
    sparse_rows,
    transpose,
)

from oracles import dense_kernel_basis, dense_rref, dense_solve_affine, mat_vec

F = Fraction


def over_common_denominator(entries):
    """(row, column, value) triples as integer numerators over the lcm of
    their denominators, the input form of ``sparse_rows``."""
    entries = [(r, c, F(x)) for r, c, x in entries]
    den = lcm(*(x.denominator for _, _, x in entries))
    return [(r, c, x.numerator * (den // x.denominator)) for r, c, x in entries], den


def integer_rows(a):
    """The sparse rows of a dense matrix as integer numerators over one
    denominator: (rows, den)."""
    entries, den = over_common_denominator(
        (r, c, x) for r, row in enumerate(a) for c, x in enumerate(row)
    )
    return sparse_rows(entries, len(a)), den


def sparse(a):
    """The sparse rows of a dense matrix, as exact rationals."""
    rows, den = integer_rows(a)
    return tuple(tuple((c, F(x, den)) for c, x in row) for row in rows)


def test_sparse_rows_sum_sort_and_drop_zeros():
    big = (10007, 10009, 2 ** 61 - 1)  # pairwise coprime denominators
    entries = [
        (0, 2, 1), (0, 0, F(1, 2)), (0, 2, -1), (1, 1, 3), (1, 0, F(-1, 3)),
        # int and Fraction terms at one position
        (1, 1, F(1, 2)), (1, 1, -2),
        # terms over different denominators that cancel
        (1, 2, F(1, 6)), (1, 2, F(1, 3)), (1, 2, F(-1, 2)),
        # large coprime denominators
        (2, 0, F(1, big[0])), (2, 0, F(-1, big[1])), (2, 1, F(5, big[2])),
        (2, 1, F(-5, big[2])), (2, 3, F(-7, big[0] * big[1])),
    ]
    numerators, den = over_common_denominator(entries)
    rows = sparse_rows(numerators, 4)
    assert all(type(x) is int for row in rows for _, x in row)
    assert tuple(tuple((c, F(x, den)) for c, x in row) for row in rows) == (
        ((0, F(1, 2)),),
        ((0, F(-1, 3)), (1, F(3, 2))),
        ((0, F(big[1] - big[0], big[0] * big[1])), (3, F(-7, big[0] * big[1]))),
        (),
    )
    assert sparse_rows((), 2) == ((), ())
    # integers stay integers: no denominator divides out
    assert sparse_rows([(0, 1, 3), (0, 0, -4), (1, 1, 6)], 2) == (
        ((0, -4), (1, 3)),
        ((1, 6),),
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


KINDS = ("sparse", "dense", "rank-deficient", "mixed", "coprime", "negative-lead",
         "cancelling", "dependent-tail", "duplicate", "multi-hit", "refresh")
COPRIME = (1, 10007, 10009, 65537, 2 ** 31 - 1, 2 ** 61 - 1)


def _entry(rng, kind):
    if kind in ("dense", "negative-lead"):  # every entry nonzero
        return F(rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(1, 4))
    if kind == "mixed":  # plain ints beside Fractions
        return rng.choice((0, 0, 1, -2, 3, F(-1, 2), F(2, 3), F(5, 4), F(0)))
    if kind == "coprime":
        return F(rng.choice((0, 0, rng.randint(-10 ** 6, 10 ** 6))), rng.choice(COPRIME))
    return F(rng.choice((0, 0, 0, 0, 1, -1, 2)), rng.randint(1, 2))


def _combination(rng, rows):
    """A rational combination of ``rows``; some are exactly zero."""
    cs = [F(rng.randint(-2, 2), rng.randint(1, 3)) for _ in rows]
    return [sum((c * row[j] for c, row in zip(cs, rows)), F(0)) for j in range(len(rows[0]))]


def _nonzero(rng):
    return F(rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(1, 3))


def _matrix(rng, kind, nrows, ncols):
    """One matrix of ``kind`` (see ``random_systems``)."""
    if kind == "rank-deficient":
        base = [[_entry(rng, "dense") for _ in range(ncols)]
                for _ in range(rng.randint(1, max(1, min(nrows, ncols) - 1)))]
        return [_combination(rng, base) for _ in range(nrows)]
    if kind == "dependent-tail":  # rank ncols from the first rows on
        base = [[_entry(rng, "dense") for _ in range(ncols)] for _ in range(ncols)]
        return base + [_combination(rng, base) for _ in range(nrows)]
    if kind == "duplicate":
        a = [[_entry(rng, "sparse") for _ in range(ncols)] for _ in range(nrows)]
        a += [[-x for x in row] if rng.random() < 0.5 else list(row)
              for row in rng.choices(a, k=rng.randint(1, nrows))]
        rng.shuffle(a)
        return a
    if kind == "multi-hit":  # later rows sum two or more earlier ones
        a = [[_entry(rng, "sparse") for _ in range(ncols)] for _ in range(nrows)]
        for _ in range(nrows):
            picked = rng.sample(a, min(len(a), rng.randint(2, 4)))
            row = [sum((_nonzero(rng) * r[j] for r in picked), F(0)) for j in range(ncols)]
            if rng.random() < 0.5:
                row[rng.randrange(ncols)] += _nonzero(rng)
            a.append(row)
        return a
    if kind == "refresh":
        # row i leads at column i and has entries at every later column, so
        # each new pivot sits in the rows found before it; the rows after
        # them meet those pivot rows again
        rank = rng.randint(1, ncols)
        a = [[F(0)] * i + [_nonzero(rng)] + [_entry(rng, "dense") for _ in range(ncols - i - 1)]
             for i in range(rank)]
        return a + [[_entry(rng, "dense") for _ in range(ncols)] if rng.random() < 0.5
                    else _combination(rng, a) for _ in range(nrows)]
    a = [[_entry(rng, kind) for _ in range(ncols)] for _ in range(nrows)]
    if kind == "negative-lead":
        a = [[-x for x in row] if row[0] > 0 else row for row in a]
    if kind == "cancelling":
        a += [[-x for x in a[0]], _combination(rng, a)]
        rng.shuffle(a)
    return a


def random_systems(seed, count=60):
    """Seeded (kind, a, b, ncols): sparse, fully dense and rank-deficient
    matrices; mixed int and Fraction entries; large coprime denominators;
    rows that all lead with a negative entry; rows that cancel to zero
    against earlier rows; dependent rows after the rank is full; exact and
    negated duplicate rows; rows that meet two or more pivots; pivots found
    late at columns that earlier pivot rows hold.  Each comes with a
    right-hand side in the column space and a fractional one that is almost
    always outside it."""
    rng = random.Random(seed)
    for kind in KINDS:
        for _ in range(count):
            nrows, ncols = rng.randint(1, 8), rng.randint(1, 8)
            a = tuple(tuple(row) for row in _matrix(rng, kind, nrows, ncols))
            x = [F(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(ncols)]
            yield kind, a, mat_vec(a, x), ncols
            yield kind, a, tuple(F(rng.randint(-3, 3), rng.randint(1, 5)) for _ in a), ncols


def _as_given(a):
    """Sparse rows that keep the entries' own types (int or Fraction)."""
    return tuple(tuple((c, x) for c, x in enumerate(row) if x) for row in a)


def test_eliminator_matches_dense_oracle():
    outcomes = {}
    for kind, a, b, ncols in random_systems(2024):
        want, want_pivots = dense_rref([[F(x) for x in row] for row in a])
        # rational rows, and integer rows over a denominator with the
        # right-hand side scaled by it
        for rows, den in ((sparse(a), 1), (_as_given(a), 1), integer_rows(a)):
            reduced, pivots = rref(rows)
            assert pivots == want_pivots
            assert reduced == [
                tuple((c, x) for c, x in enumerate(row) if x) for row in want[:len(pivots)]
            ]
            for row, pc in zip(reduced, pivots):
                assert row[0] == (pc, 1)
                assert all(type(x) is F for _, x in row)
            kernel = kernel_basis(rows, ncols)
            assert kernel == dense_kernel_basis(a, ncols)
            solved = solve_affine(rows, [den * y for y in b], ncols)
            assert solved == dense_solve_affine(a, b, ncols)
            values = [x for v in kernel for x in v]
            if solved is not None:
                values += solved[0] + tuple(x for v in solved[1] for x in v)
            assert all(type(x) is F for x in values)
        outcomes.setdefault(kind, set()).add(solved is None)
    # every kind met both consistent and inconsistent right-hand sides
    assert outcomes == {k: {True, False} for k in KINDS}


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
