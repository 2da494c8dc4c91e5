"""Coboundary operators on tensor-square-valued cochains.

``coboundary_matrix`` is the one encoding of the degree-0 and degree-1
coboundaries, written over the action operators of ``actions``: one sparse
integer matrix per (tensor, action case), and per side in degree 0 (both
complexes share the degree-1 one), stored by rows in the format of
``linalg.rref`` and read as it is by every linear stage.

* ``coboundary0/1`` apply it to a cochain, scaled to integers over its
  lcm, in one dot product per nonzero row, and build one ``Fraction`` per
  nonzero output component.
* ``solver.cocycle_system`` is its degree-1 rows, negated: the cochain
  X_k -> sum ftilde(a, b, k) X_a (x) X_b of a candidate dual bracket is a
  1-cocycle exactly when the dual entries lie in its kernel.
* ``rmatrix.solve_rmatrix`` solves with its degree-0 rows: the
  cocommutator delta(r) of ``rmatrix`` is ``coboundary0`` of r, and
  recovering r from a dual bracket inverts it.

The layout, 0-based, with n the dimension:

* a column is one cochain component: component (a, b) of a tensor-square
  element (degree 0) at column a*n + b; component (x, a, b) of a 1-cochain,
  the coefficient of X_a (x) X_b in the value at X_x, at column
  (a*n + b)*n + x.  Read as dual entries (a+1, b+1, x+1), these are the
  lexicographic columns of the linear systems;
* a row is one component of the coboundary: the coefficient of
  X_a (x) X_b in the value at the basis arguments ``point`` at row
  point*n*n + a*n + b, with point = x in degree 0 and x*n + y at (X_x, X_y)
  in degree 1.

Its coefficients are integers over one common denominator, the lcm of the
bracket's denominators, read off the integer action table.  Each matrix is
built once per tensor and key, kept on the tensor and freed with it.

A cochain is its nonzero components, in the format of
``core.leibniz_residual``: ``coboundary0`` returns {(x, a, b): value} and
``coboundary1`` takes such a dict and returns {(x, y, a, b): value}.  An
empty dict is the zero cochain.

Those are the degrees the bialgebra constructions use.  The degree-2
coboundary, and with it the composite ``d2(d1(w))`` that the tests probe per
action case, is a test oracle in ``tests/oracles.py``.

A coboundary of handedness ``side`` under action case ``case`` needs an
algebra that admits ``side`` (``LeibnizAlgebra.require``) and what the case
needs (``ActionCase.require``).  The complexes proper are the sides of
``ActionCase.complexes``; a crossed pairing (case 2 with the left-handed
complex, case 3 with the right-handed one) on a two-sided algebra passes
both checks and is computed all the same, but it is no complex (see below).
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from .actions import ActionCase, action_operators
from .core import LeibnizAlgebra, Side, StructureTensor, bracket_rows
from .errors import DimensionError
from .linalg import Matrix, over_lcm
from .record import memo

# Observed mechanically on the bundled corpus with random cochains
# (see tests/test_cohomology.py).  Recorded as measurement, not as theorem:
# both composites d1 . d0 and d2 . d1 (d2 from tests/oracles.py)
# vanish identically for cases 1 and 4 on either complex, for case 2 on the
# right-handed complex and for case 3 on the left-handed complex
# (``ActionCase.complexes``).  The crossed pairings (case 2 + left
# complex, case 3 + right complex) violate the matching module axioms on a
# two-sided algebra and neither composite vanishes there.


@memo
def coboundary_matrix(t: StructureTensor, case: ActionCase, side: Side | None):
    """The degree-0 coboundary of the ``side``-handed complex, or for side
    None the degree-1 one, as one sparse integer matrix in the layout of the
    module docstring: (den, rows), den the lcm of the denominators of t and
    ``rows[r]`` the sorted (column, c) pairs of coboundary component r, each
    c a nonzero integer standing for c/den.  No chirality check.  A degree-1
    matrix of a dimension-8 tensor holds up to about 98k entries.
    """
    n = t.dim
    nn = n * n
    den, rows = bracket_rows(t)
    _, L = action_operators(t, case, Side.LEFT)
    _, R = action_operators(t, case, Side.RIGHT)
    out = []
    for point in range(n if side else nn):
        # (column, its (q, coefficient) pairs at this point), per term
        if side is Side.RIGHT:  # X -> [X, m]_L
            terms = [(p, col.items()) for p, col in enumerate(L[point])]
        elif side:  # X -> -[m, X]_R
            terms = [(p, [(q, -c) for q, c in col.items()]) for p, col in enumerate(R[point])]
        else:  # [X, w(Y)]_L + [w(X), Y]_R - w([X, Y]), both complexes
            x, y = divmod(point, n)
            terms = [(p * n + y, col.items()) for p, col in enumerate(L[x])]
            terms += [(p * n + x, col.items()) for p, col in enumerate(R[y])]
            terms += [(q * n + k, ((q, -c),)) for k, c in rows.get((x, y), ()) for q in range(nn)]
        acc = [{} for _ in range(nn)]  # row point*n*n + q as {column: coefficient}
        for column, pairs in terms:
            for q, c in pairs:
                row = acc[q]
                row[column] = row.get(column, 0) + c
        out += [tuple(sorted([e for e in row.items() if e[1]])) if row else () for row in acc]
    return den, tuple(out)


def _coboundary(alg: LeibnizAlgebra, case: ActionCase, side: Side, degree: int, w):
    alg.require(f"the {side.value}-handed complex", side)
    case.require(alg)
    n = alg.dim
    if degree:
        indices = range(n)
        if any(len(key) != 3 or not all(i in indices for i in key) for key in w):
            raise DimensionError(f"coboundary1 expects components (x, a, b) in 0..{n - 1}")
        vec = [w.get((x, a, b), 0) for a, b, x in itertools.product(range(n), repeat=3)]
    elif len(w) != n or any(len(row) != n for row in w):
        raise DimensionError("tensor-square element has wrong shape")
    else:
        vec = [v for row in w for v in row]
    den, rows = coboundary_matrix(alg.tensor, case, None if degree else side)
    # the cochain by column, as integers over its lcm: one dot product per row
    scale, vec = over_lcm(vec)
    den *= scale
    out = {}
    for r, row in enumerate(rows):
        if row:
            x = 0
            for column, c in row:
                x += c * vec[column]
            if x:
                point, q = divmod(r, n * n)
                out[(divmod(point, n) if degree else (point,)) + divmod(q, n)] = Fraction(x, den)
    return out


def coboundary0(alg: LeibnizAlgebra, case: ActionCase, side: Side, m: Matrix) -> dict:
    """Degree-0 coboundary of a tensor-square element, as {(x, a, b): value}
    of its nonzero components, 0-based: the coefficient of X_a (x) X_b in
    the value at X_x.

    Right complex: X maps to [X, m]_L.  Left complex: X maps to -[m, X]_R.
    """
    return _coboundary(alg, case, side, 0, m)


def coboundary1(alg: LeibnizAlgebra, case: ActionCase, side: Side, w: dict) -> dict:
    """(X, Y) maps to [X, w(Y)]_L + [w(X), Y]_R - w([X, Y]); same formula on
    both complexes.  ``w`` and the result are in the format of
    ``coboundary0``: {(x, a, b): value} in, {(x, y, a, b): value} out, each
    key 0-based; a component missing from ``w`` is zero."""
    return _coboundary(alg, case, side, 1, w)
