"""Exact rational matrices and sparse Gauss-Jordan elimination.

Matrices are immutable nested tuples of ``fractions.Fraction``; no floats
anywhere.  A linear system is a tuple of sparse rows: each row is a tuple of
(column, value) pairs in ascending column order holding only nonzero
values, ints or ``Fraction``s.  ``rref`` is the one eliminator; it returns
the reduced row echelon form, which is unique, so every kernel basis
derived from it is deterministic.

Elimination is fraction-free: ``rref`` scales each input row to integers by
the lcm of its denominators and works on integer rows (dicts {column: int})
from then on, dividing every combination by its content (the gcd of its
entries) to keep the integers small.  ``Fraction``s appear only on output,
one per entry of a reduced row.  ``sparse_rows`` sums integer terms into
integer rows, and ``over_lcm`` is how the other layers put exact rationals
on one common denominator."""

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


def sparse_rows(entries, nrows: int) -> tuple[Row, ...]:
    """Sparse integer rows from (row, column, integer) triples; integers at
    one position add up, and positions that sum to zero are dropped."""
    acc: list[dict] = [{} for _ in range(nrows)]
    for r, c, x in entries:
        row = acc[r]
        row[c] = row.get(c, 0) + x
    return tuple(tuple((c, x) for c, x in sorted(d.items()) if x) for d in acc)


def _integer_row(row) -> dict:
    """A nonzero rational row scaled to coprime integers: {column: int}."""
    den = 1
    for _, x in row:
        den = lcm(den, x.denominator)
    return _primitive({c: x.numerator * (den // x.denominator) for c, x in row if x})


def _primitive(v: dict) -> dict:
    """v divided by the gcd of its entries (its content)."""
    g = gcd(*v.values())
    return v if g == 1 else {c: x // g for c, x in v.items()}


def _combine(v: dict, hits) -> dict:
    """The primitive integer row m*v - sum over (c, p) in ``hits`` of
    (m*v[c]/p[c])*p, with m > 0 the least multiple that keeps it integral,
    for rows p each zero at the other columns c: zero at every c.  ``v``
    may be updated in place."""
    m = 1
    for c, p in hits:
        m = lcm(m, p[c] // gcd(p[c], v[c]))
    if m != 1:
        v = {c: m * x for c, x in v.items()}
    for c, p in hits:
        k = v[c] // p[c]
        for col, y in p.items():
            z = v.get(col, 0) - k * y
            if z:
                v[col] = z
            else:
                del v[col]
    return _primitive(v) if v else v


def rref(rows) -> tuple[list[Row], list[int]]:
    """Reduced row echelon form of sparse rows: the nonzero reduced rows in
    pivot order, and their pivot columns in ascending order.

    Gauss-Jordan, reduced on use: a pivot row is brought up to date (zero
    at every other pivot column) when an incoming row v meets it, and at
    the end.  v is reduced in one integer combination against the pivot
    rows it meets (``_combine``); a nonzero result starts a new pivot row
    at its smallest column.
    """
    pivot_rows: dict[int, dict] = {}
    fresh: dict[int, int] = {}  # pivot column -> pivot count when its row was reduced

    def reduced(pc: int) -> dict:
        # a row is zero at the pivots found before it, so the stale rows it
        # holds are found later and are brought up to date first
        now = len(pivot_rows)
        todo = [pc]
        while todo:
            q = todo[-1]
            held = [c for c in pivot_rows[q] if c != q and c in pivot_rows]
            stale = [c for c in held if fresh[c] != now]
            if stale:
                todo += stale
                continue
            if held:
                pivot_rows[q] = _combine(pivot_rows[q], [(c, pivot_rows[c]) for c in held])
            fresh[q] = now
            todo.pop()
        return pivot_rows[pc]

    for row in rows:
        if not row:
            continue
        v = _integer_row(row)
        now = len(pivot_rows)
        hits = [(c, pivot_rows[c] if fresh[c] == now else reduced(c))
                for c in v if c in pivot_rows]
        if hits:
            v = _combine(v, hits)
        if v:
            pc = min(v)
            pivot_rows[pc] = v
            fresh[pc] = len(pivot_rows)
    pivots = sorted(pivot_rows)
    out = []
    for pc in pivots:
        row = pivot_rows[pc] if fresh[pc] == len(pivots) else reduced(pc)
        lead = row[pc]
        out.append(tuple((c, Fraction(x, lead)) for c, x in sorted(row.items())))
    return out, pivots


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
