"""Exact rational matrices and sparse Gauss-Jordan elimination.

Matrices are immutable nested tuples of ``fractions.Fraction``; no floats
anywhere.  A linear system is a tuple of sparse rows: each row is a tuple of
(column, value) pairs in ascending column order holding only nonzero
values.  ``rref`` is the one eliminator; it returns the reduced row echelon
form, which is unique, so every kernel basis derived from it is
deterministic.

Elimination is fraction-free.  ``rref`` scales each input row to integers by
the lcm of its denominators and works on integer rows (dicts {column: int})
from then on: a reduction step cross-multiplies two rows, a*v - b*p, and
divides the result by its content (the gcd of its entries), which keeps the
integers small.  ``Fraction``s appear only on output, one per entry of a
reduced row.  ``sparse_rows`` likewise takes integer numerators over one
common denominator and sums them as integers, and ``over_lcm`` is how the
other layers put exact rationals on one common denominator.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

Matrix = tuple[tuple[Fraction, ...], ...]
Vector = tuple[Fraction, ...]
Row = tuple[tuple[int, Fraction], ...]


def frac(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (int, str)):
        return Fraction(x)
    raise TypeError(f"not an exact rational: {x!r}")


def over_lcm(values) -> tuple[int, list[int]]:
    """Exact rationals as integer numerators over one common denominator,
    the lcm of theirs: (den, [numerator, ...]) in the order of ``values``."""
    pairs = [(x.numerator, x.denominator) for x in values]
    den = lcm(*(q for _, q in pairs))
    return den, [p * (den // q) for p, q in pairs]


def mat(rows) -> Matrix:
    return tuple(tuple(frac(x) for x in row) for row in rows)


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


def sparse_rows(entries, nrows: int, den: int) -> tuple[Row, ...]:
    """Sparse rows from (row, column, numerator) triples of integer
    numerators over the common denominator ``den``; numerators at one
    position add up, and positions that sum to zero are dropped.

    One ``Fraction`` is built per nonzero entry, not one per term.
    """
    acc: list[dict] = [{} for _ in range(nrows)]
    for r, c, x in entries:
        row = acc[r]
        row[c] = row.get(c, 0) + x
    return tuple(
        tuple((c, Fraction(x, den)) for c, x in sorted(d.items()) if x) for d in acc
    )


def _integer_row(row) -> dict:
    """A nonzero rational row scaled to coprime integers: {column: int}."""
    den = lcm(*(x.denominator for _, x in row))
    return _primitive({c: x.numerator * (den // x.denominator) for c, x in row if x})


def _primitive(v: dict) -> dict:
    """v divided by the gcd of its entries (its content)."""
    g = gcd(*v.values())
    return v if g == 1 else {c: x // g for c, x in v.items()}


def _cancel(v: dict, p: dict, col: int) -> dict:
    """The primitive integer row a*v - b*p (a > 0) with column ``col``
    cancelled; ``v`` is updated in place when a is 1."""
    a, b = p[col], v[col]
    g = gcd(a, b)
    a, b = a // g, b // g
    if a < 0:
        a, b = -a, -b
    if a != 1:
        v = {c: a * x for c, x in v.items()}
    for c, y in p.items():
        z = v.get(c, 0) - b * y
        if z:
            v[c] = z
        else:
            del v[c]
    return _primitive(v) if v else v


def rref(rows) -> tuple[list[Row], list[int]]:
    """Reduced row echelon form of sparse rows: the nonzero reduced rows in
    pivot order, and their pivot columns in ascending order.

    Fraction-free: each row is scaled to coprime integers, reduced on its
    leading entry against the pivot rows found so far by cross-multiplying,
    and a leading entry left over starts a new pivot row; back-substitution
    then clears every pivot column outside its own row.  Only the output
    divides by the pivot entry, one ``Fraction`` per entry.
    """
    pivot_rows: dict[int, dict] = {}
    for row in rows:
        v = _integer_row(row) if row else {}
        while v:
            lead = min(v)
            p = pivot_rows.get(lead)
            if p is None:
                pivot_rows[lead] = v
                break
            v = _cancel(v, p, lead)
    pivots = sorted(pivot_rows)
    for pc in reversed(pivots):
        row = pivot_rows[pc]
        for c in [c for c in row if c > pc and c in pivot_rows]:
            row = _cancel(row, pivot_rows[c], c)
        pivot_rows[pc] = row
    reduced = []
    for pc in pivots:
        row = pivot_rows[pc]
        lead = row[pc]
        reduced.append(tuple((c, Fraction(x, lead)) for c, x in sorted(row.items())))
    return reduced, pivots


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
