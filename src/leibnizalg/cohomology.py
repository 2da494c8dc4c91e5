"""Coboundary operators on tensor-square-valued cochains.

``coboundary_entries`` is the one encoding of the degree-0 and degree-1
coboundaries, written over the action operators of ``actions``: it gives
``coboundary0/1`` on cochains, the rows of ``solver.cocycle_system`` (minus
the degree-1 coboundary of the cochain X_k -> sum ftilde(a, b, k) X_a (x)
X_b), the cocommutator delta(r) of ``rmatrix`` (``coboundary0`` of r) and
the rows of ``rmatrix.solve_rmatrix``.  Its coefficients are integers over
one common denominator, the lcm of the bracket's denominators, read off the
integer action table; the table is built once per (tensor, case, side,
degree) and kept in a cache of four entries, enough for the selfcheck,
which applies d0 and d1 five times per complex.  Its readers sum the
integers (the cocycle rows) or multiply them into the cochain's values
scaled to integers over their own lcm, and build one ``Fraction`` per
nonzero output entry, not one per term.

A cochain is its nonzero components, in the format of
``core.leibniz_residual``: ``coboundary0`` returns {(x, a, b): value},
0-based, the coefficient of X_a (x) X_b in the value at X_x, and
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

import functools
import itertools
from fractions import Fraction

from .actions import ActionCase, action_operators
from .core import LeibnizAlgebra, Side, StructureTensor, bracket_rows
from .errors import DimensionError
from .linalg import Matrix, over_lcm

# Observed mechanically on the bundled corpus with random cochains
# (see tests/test_cohomology.py).  Recorded as measurement, not as theorem:
# both composites d1 . d0 and d2 . d1 (d2 from tests/oracles.py)
# vanish identically for cases 1 and 4 on either complex, for case 2 on the
# right-handed complex and for case 3 on the left-handed complex
# (``ActionCase.complexes``).  The crossed pairings (case 2 + left
# complex, case 3 + right complex) violate the matching module axioms on a
# two-sided algebra and neither composite vanishes there.


def _terms(rows, L, R, side: Side, point):
    """The coboundary at the basis arguments ``point`` (0-based; its length
    is the degree plus one) as terms (scalar, operator, arguments): the sum
    of scalar * operator(w(arguments)), None standing for the identity.
    ``rows``, ``L`` and ``R`` hold the bracket and the action operators as
    ``core.bracket_rows`` and ``actions.action_operators`` do, over one
    common denominator, and so do the scalars."""
    if len(point) == 1:  # right: X -> [X, m]_L; left: X -> -[m, X]_R
        (x,) = point
        return [(1, L[x], ())] if side is Side.RIGHT else [(-1, R[x], ())]
    # [X, w(Y)]_L + [w(X), Y]_R - w([X, Y]), both complexes
    x, y = point
    minus_w_of_bracket = [(-c, None, (k,)) for k, c in rows.get((x, y), ())]
    return [(1, L[x], (y,)), (1, R[y], (x,))] + minus_w_of_bracket


@functools.lru_cache(maxsize=4)
def coboundary_entries(t: StructureTensor, case: ActionCase, side: Side, degree: int):
    """The coboundary of degree 0 or 1 as a sparse linear map with integer
    coefficients over one common denominator.

    Returns (den, table), den the lcm of the denominators of t.  ``table``
    holds one (point, columns) per basis argument tuple ``point``, 0-based,
    and each column (arguments, p, entries) says: for every (q, c) of
    ``entries``, c a nonzero integer, component q = m*n + n' of the value at
    ``point`` gains c/den times component p of the cochain's value at
    ``arguments``.  No chirality check.

    Built once per (tensor, case, side, degree) and shared through a small
    bounded cache; callers must not mutate it.  The selfcheck applies d0
    and d1 five times per complex, and a degree-1 table of a dense
    dimension-8 tensor holds about 98k terms.
    """
    n = t.dim
    den, rows = bracket_rows(t)
    _, L = action_operators(t, case, Side.LEFT)
    _, R = action_operators(t, case, Side.RIGHT)
    table = []
    for point in itertools.product(range(n), repeat=degree + 1):
        columns = []
        for s, op, args in _terms(rows, L, R, side, point):
            if op is None:
                columns += [(args, q, ((q, s),)) for q in range(n * n)]
            else:
                columns += [
                    (args, p, tuple((q, s * c) for q, c in col.items()))
                    for p, col in enumerate(op)
                    if col
                ]
        table.append((point, tuple(columns)))
    return den, tuple(table)


def _coboundary(alg: LeibnizAlgebra, case: ActionCase, side: Side, degree: int, w):
    alg.require(f"the {side.value}-handed complex", side)
    case.require(alg)
    n = alg.dim
    if degree:
        indices = range(n)
        if any(len(key) != 3 or not all(i in indices for i in key) for key in w):
            raise DimensionError(f"coboundary1 expects components (x, a, b) in 0..{n - 1}")
    elif len(w) != n or any(len(row) != n for row in w):
        raise DimensionError("tensor-square element has wrong shape")
    else:
        w = {(a, b): v for a, row in enumerate(w) for b, v in enumerate(row) if v}
    den, table = coboundary_entries(alg.tensor, case, side, degree)
    # the cochain's values as integers over their lcm, keyed by the argument
    # tuple and the component a*n + b
    scale, nums = over_lcm(w.values())
    cochain = {(key[:-2], key[-2] * n + key[-1]): v for key, v in zip(w, nums) if v}
    den *= scale
    out = {}
    for point, columns in table:
        acc = {}
        for args, p, entries in columns:
            v = cochain.get((args, p))
            if v:
                for q, c in entries:
                    acc[q] = acc.get(q, 0) + c * v
        for q, x in acc.items():
            if x:
                out[point + divmod(q, n)] = Fraction(x, den)
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
