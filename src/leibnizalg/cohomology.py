"""Coboundary operators on tensor-square-valued cochains.

``coboundary_matrix`` is the one encoding of the degree-0 and degree-1
coboundaries, written over the action operators of ``actions``: one sparse
integer matrix per (tensor, action case), and per side in degree 0 (both
complexes share the degree-1 one), read by every linear stage.

* ``coboundary0/1`` apply it to a cochain: each nonzero component adds its
  column, scaled to an integer over the cochain's lcm, and one ``Fraction``
  is built per nonzero output component.
* ``solver.cocycle_system`` is minus the degree-1 matrix: the cochain
  X_k -> sum ftilde(a, b, k) X_a (x) X_b of a candidate dual bracket is a
  1-cocycle exactly when the dual entries lie in its kernel.
* ``rmatrix.solve_rmatrix`` is the degree-0 matrix: the cocommutator
  delta(r) of ``rmatrix`` is ``coboundary0`` of r, and recovering r from a
  dual bracket inverts it.

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
    module docstring: (den, columns), den the lcm of the denominators of t
    and ``columns[c]`` the (row, coefficient) pairs of cochain component c,
    each a nonzero integer standing for coefficient/den.  No chirality check.
    A degree-1 matrix of a dimension-8 tensor holds up to about 98k entries.
    """
    n = t.dim
    nn = n * n
    den, rows = bracket_rows(t)
    _, L = action_operators(t, case, Side.LEFT)
    _, R = action_operators(t, case, Side.RIGHT)
    columns = [{} for _ in range(nn if side else nn * n)]
    if side:  # right: X -> [X, m]_L; left: X -> -[m, X]_R
        sign, ops = (1, L) if side is Side.RIGHT else (-1, R)
        for x, op in enumerate(ops):
            for p, col in enumerate(op):
                columns[p].update((x * nn + q, sign * c) for q, c in col.items())
    else:  # [X, w(Y)]_L + [w(X), Y]_R - w([X, Y]), both complexes
        for x, y in itertools.product(range(n), repeat=2):
            point = (x * n + y) * nn
            # (column, its (q, coefficient) pairs at this point), per term
            terms = [(p * n + y, col.items()) for p, col in enumerate(L[x])]
            terms += [(p * n + x, col.items()) for p, col in enumerate(R[y])]
            terms += [(q * n + k, ((q, -c),)) for k, c in rows.get((x, y), ()) for q in range(nn)]
            for column, pairs in terms:
                entries = columns[column]
                for q, c in pairs:
                    entries[point + q] = entries.get(point + q, 0) + c
    return den, tuple(tuple((r, c) for r, c in col.items() if c) for col in columns)


def _coboundary(alg: LeibnizAlgebra, case: ActionCase, side: Side, degree: int, w):
    alg.require(f"the {side.value}-handed complex", side)
    case.require(alg)
    n = alg.dim
    if degree:
        indices = range(n)
        if any(len(key) != 3 or not all(i in indices for i in key) for key in w):
            raise DimensionError(f"coboundary1 expects components (x, a, b) in 0..{n - 1}")
        w = {(a * n + b) * n + x: v for (x, a, b), v in w.items()}
    elif len(w) != n or any(len(row) != n for row in w):
        raise DimensionError("tensor-square element has wrong shape")
    else:
        w = {a * n + b: v for a, row in enumerate(w) for b, v in enumerate(row) if v}
    den, columns = coboundary_matrix(alg.tensor, case, None if degree else side)
    # the cochain's values as integers over their lcm, each adding its column
    scale, nums = over_lcm(w.values())
    den *= scale
    acc = {}
    for column, v in zip(w, nums):
        if v:
            for r, c in columns[column]:
                acc[r] = acc.get(r, 0) + c * v
    out = {}
    for r, x in acc.items():
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
