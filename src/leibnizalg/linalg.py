"""Exact rational matrices and sparse Gauss-Jordan elimination.

Matrices are immutable nested tuples of ``fractions.Fraction``; no floats
anywhere.  A linear system is a tuple of sparse rows: each row is a tuple of
(column, value) pairs in ascending column order holding only nonzero
values.  ``rref`` is the one eliminator; it returns the reduced row echelon
form, which is unique, so every kernel basis derived from it is
deterministic.
"""

from __future__ import annotations

from fractions import Fraction

Matrix = tuple[tuple[Fraction, ...], ...]
Vector = tuple[Fraction, ...]
Row = tuple[tuple[int, Fraction], ...]


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


def mat_neg(a: Matrix) -> Matrix:
    return tuple(tuple(-x for x in row) for row in a)


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    """a times b, over the nonzero entries of both factors only."""
    lines = [[(j, y) for j, y in enumerate(row) if y] for row in b]
    ncols = len(b[0]) if b else 0
    out = []
    for row in a:
        acc = [Fraction(0)] * ncols
        for x, line in zip(row, lines):
            if x:
                for j, y in line:
                    acc[j] += x * y
        out.append(tuple(acc))
    return tuple(out)


def mat_vec(a: Matrix, v: Vector) -> Vector:
    return tuple(sum(x * y for x, y in zip(row, v)) for row in a)


def sparse_rows(entries, nrows: int) -> tuple[Row, ...]:
    """Sparse rows from (row, column, coefficient) triples; coefficients at
    one position add up, and positions that sum to zero are dropped."""
    acc: list[dict] = [{} for _ in range(nrows)]
    for r, c, v in entries:
        acc[r][c] = acc[r].get(c, 0) + v
    return tuple(
        tuple((c, Fraction(v)) for c, v in sorted(d.items()) if v) for d in acc
    )


def _axpy(v: dict, f: Fraction, row: dict) -> None:
    """v += f * row, dropping entries that cancel."""
    for c, x in row.items():
        y = v.get(c, 0) + f * x
        if y:
            v[c] = y
        else:
            del v[c]


def rref(rows) -> tuple[list[Row], list[int]]:
    """Reduced row echelon form of sparse rows: the nonzero reduced rows in
    pivot order, and their pivot columns in ascending order.

    Each row is reduced on its leading entry against the pivot rows found so
    far, and a leading entry left over starts a new pivot row scaled to 1;
    back-substitution then clears every pivot column outside its own row.
    """
    pivot_rows: dict[int, dict] = {}
    for row in rows:
        v = dict(row)
        while v:
            lead = min(v)
            p = pivot_rows.get(lead)
            if p is None:
                inv = Fraction(1) / v[lead]
                pivot_rows[lead] = {c: x * inv for c, x in v.items()}
                break
            _axpy(v, -v[lead], p)
    pivots = sorted(pivot_rows)
    for pc in reversed(pivots):
        row = pivot_rows[pc]
        for c in [c for c in row if c > pc and c in pivot_rows]:
            _axpy(row, -row[c], pivot_rows[c])
    return [tuple(sorted(pivot_rows[pc].items())) for pc in pivots], pivots


def kernel_basis(rows, ncols: int) -> list[Vector]:
    """Basis of the right kernel, one vector per free column in ascending order."""
    return _kernel_from_rref(*rref(rows), ncols)


def _kernel_from_rref(reduced, pivots: list[int], ncols: int) -> list[Vector]:
    """Kernel basis of the first ``ncols`` columns of a reduced echelon form.

    A column further right (an augmented right-hand side that is not a pivot
    column) does not change the result.
    """
    pivot_set = set(pivots)
    basis = {fc: [Fraction(0)] * ncols for fc in range(ncols) if fc not in pivot_set}
    for fc, v in basis.items():
        v[fc] = Fraction(1)
    for row, pc in zip(reduced, pivots):
        for c, x in row:
            if c in basis:
                basis[c][pc] = -x
    return [tuple(v) for v in basis.values()]


def solve_affine(rows, b: Vector, ncols: int) -> tuple[Vector, list[Vector]] | None:
    """Solve a x = b exactly, a given as sparse rows over ``ncols`` columns.

    Returns (particular solution, kernel basis), or None when inconsistent.
    The particular solution sets every free variable to zero.  One
    elimination of [a | b] yields both: the reduced form of a is its left
    part.
    """
    aug = [row + ((ncols, rhs),) if rhs else row for row, rhs in zip(rows, b)]
    reduced, pivots = rref(aug)
    if ncols in pivots:
        return None
    particular = [Fraction(0)] * ncols
    for row, pc in zip(reduced, pivots):
        if row[-1][0] == ncols:
            particular[pc] = row[-1][1]
    return tuple(particular), _kernel_from_rref(reduced, pivots, ncols)
