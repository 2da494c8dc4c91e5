"""Exact rational matrices and Gaussian elimination.

Matrices are immutable nested tuples of ``fractions.Fraction``; no floats
anywhere.  Elimination picks the leftmost pivot column and the topmost
nonzero row, scales pivots to 1 and does nothing else, so the reduced form
(and every kernel basis derived from it) is deterministic.
"""

from __future__ import annotations

from fractions import Fraction

Matrix = tuple[tuple[Fraction, ...], ...]
Vector = tuple[Fraction, ...]


def frac(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (int, str)):
        return Fraction(x)
    raise TypeError(f"not an exact rational: {x!r}")


def mat(rows) -> Matrix:
    return tuple(tuple(frac(x) for x in row) for row in rows)


def zeros(nrows: int, ncols: int) -> Matrix:
    return tuple((Fraction(0),) * ncols for _ in range(nrows))


def transpose(a: Matrix) -> Matrix:
    return tuple(zip(*a)) if a else ()


def mat_add(a: Matrix, b: Matrix) -> Matrix:
    return tuple(tuple(x + y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def mat_sub(a: Matrix, b: Matrix) -> Matrix:
    return tuple(tuple(x - y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def mat_neg(a: Matrix) -> Matrix:
    return tuple(tuple(-x for x in row) for row in a)


def mat_scale(c, a: Matrix) -> Matrix:
    c = frac(c)
    return tuple(tuple(c * x for x in row) for row in a)


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    bt = transpose(b)
    return tuple(
        tuple(sum(x * y for x, y in zip(row, col)) for col in bt) for row in a
    )


def mat_vec(a: Matrix, v: Vector) -> Vector:
    return tuple(sum(x * y for x, y in zip(row, v)) for row in a)


def rref(rows: list[list[Fraction]]) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form in place; returns (rows, pivot columns)."""
    nrows = len(rows)
    ncols = len(rows[0]) if nrows else 0
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pr = None
        for i in range(r, nrows):
            if rows[i][c] != 0:
                pr = i
                break
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        pv = rows[r][c]
        if pv != 1:
            rows[r] = [x / pv for x in rows[r]]
        for i in range(nrows):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return rows, pivots


def kernel_basis(a: Matrix, ncols: int | None = None) -> list[Vector]:
    """Basis of the right kernel, one vector per free column in ascending order."""
    if ncols is None:
        if not a:
            raise ValueError("ncols required for an empty matrix")
        ncols = len(a[0])
    return _kernel_from_rref(*rref([list(row) for row in a]), ncols)


def _kernel_from_rref(rows, pivots: list[int], ncols: int) -> list[Vector]:
    """Kernel basis of the first ``ncols`` columns of a reduced echelon form.

    Extra columns to the right (an augmented right-hand side that is not a
    pivot column) do not change the result.
    """
    pivot_set = set(pivots)
    basis = []
    for fc in range(ncols):
        if fc in pivot_set:
            continue
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -rows[r][fc]
        basis.append(tuple(v))
    return basis


def solve_affine(a: Matrix, b: Vector) -> tuple[Vector, list[Vector]] | None:
    """Solve a x = b exactly.

    Returns (particular solution, kernel basis), or None when inconsistent.
    The particular solution sets every free variable to zero.  One
    elimination of [a | b] yields both: the leftmost-pivot reduced form of a
    is its left part.
    """
    if not a:
        if any(x != 0 for x in b):
            return None
        return (), []
    ncols = len(a[0])
    aug = [list(row) + [rhs] for row, rhs in zip(a, b)]
    rows, pivots = rref(aug)
    if ncols in pivots:
        return None
    particular = [Fraction(0)] * ncols
    for r, pc in enumerate(pivots):
        particular[pc] = rows[r][ncols]
    return tuple(particular), _kernel_from_rref(rows, pivots, ncols)
