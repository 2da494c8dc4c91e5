"""Coboundary operators on tensor-square-valued cochains.

The first-order compatibility residuals linking a bracket table to a
candidate dual table are encoded once, as the rows of
``solver.cocycle_system``.

Only arities 0, 1 and 2 are instantiated; those are the ones the bialgebra
constructions use.  The degree-2 composite ``coboundary2(coboundary1(w))``
is not assumed to vanish anywhere; ``tests`` probe it per action case and
the observed outcomes are recorded in COMPLEX_NOTES.
"""

from __future__ import annotations

from dataclasses import dataclass

from .actions import ActionCase, act
from .core import LeibnizAlgebra, Side, StructureTensor
from .errors import ChiralityError, DimensionError
from .linalg import Matrix, mat_add, mat_scale, mat_sub, zeros

# Observed mechanically on the bundled corpus with random cochains
# (see tests/test_cohomology.py).  Recorded as measurement, not as theorem:
# both composites coboundary1 . coboundary0 and coboundary2 . coboundary1
# vanish identically for cases 1 and 4 on either complex, for case 2 on the
# right-handed complex and for case 3 on the left-handed complex.  The
# crossed pairings (case 2 + left complex, case 3 + right complex) violate
# the matching module axioms on a two-sided algebra and neither composite
# vanishes there.
COMPLEX_NOTES = {
    ("case1", "right"): True,
    ("case1", "left"): True,
    ("case2", "right"): True,
    ("case2", "left"): False,
    ("case3", "right"): False,
    ("case3", "left"): True,
    ("case4", "right"): True,
    ("case4", "left"): True,
}


@dataclass(frozen=True)
class CochainMap:
    """Multilinear map from basis tuples into the tensor square.

    ``values`` is a Matrix for arity 0, and nests one tuple layer per
    argument for arities 1..3.
    """

    dim: int
    arity: int
    values: object

    def __post_init__(self):
        if self.arity not in (0, 1, 2, 3):
            raise DimensionError("only arities 0..3 are supported")

    def at(self, *indices: int) -> Matrix:
        """Value on basis arguments, 1-based."""
        if len(indices) != self.arity:
            raise DimensionError(f"expected {self.arity} indices")
        v = self.values
        for ix in indices:
            if not 1 <= ix <= self.dim:
                raise DimensionError(f"index {ix} outside 1..{self.dim}")
            v = v[ix - 1]
        return v

    def is_zero(self) -> bool:
        def walk(v, depth):
            if depth == 0:
                return all(x == 0 for row in v for x in row)
            return all(walk(c, depth - 1) for c in v)

        return walk(self.values, self.arity)

    @classmethod
    def zero(cls, dim: int, arity: int) -> "CochainMap":
        def nest(depth):
            if depth == 0:
                return zeros(dim, dim)
            return tuple(nest(depth - 1) for _ in range(dim))

        return cls(dim, arity, nest(arity))


def _check(alg: LeibnizAlgebra, side: Side) -> None:
    if not alg.admits(side):
        raise ChiralityError(
            f"the {side.value}-handed complex needs a {side.value}-compatible "
            f"algebra; got {alg.chirality.value}"
        )


def coboundary0(alg: LeibnizAlgebra, case: ActionCase, side: Side, m: Matrix) -> CochainMap:
    """Degree-0 coboundary of a tensor-square element.

    Right complex: X maps to [X, m]_L.  Left complex: X maps to -[m, X]_R.
    """
    _check(alg, side)
    n = alg.dim
    if side is Side.RIGHT:
        vals = tuple(act(case, Side.LEFT, alg, x, m) for x in range(1, n + 1))
    else:
        vals = tuple(
            mat_scale(-1, act(case, Side.RIGHT, alg, x, m)) for x in range(1, n + 1)
        )
    return CochainMap(n, 1, vals)


def _w_bracket_1(alg, w: CochainMap, i: int, j: int) -> Matrix:
    # w([X_i, X_j]) for arity-1 w, 0-based i, j
    n = alg.dim
    f = alg.tensor.data
    out = zeros(n, n)
    for k in range(n):
        c = f[i][j][k]
        if c != 0:
            out = mat_add(out, mat_scale(c, w.values[k]))
    return out


def coboundary1(alg: LeibnizAlgebra, case: ActionCase, side: Side, w: CochainMap) -> CochainMap:
    """(X, Y) maps to [X, w(Y)]_L + [w(X), Y]_R - w([X, Y]); same formula on
    both complexes."""
    _check(alg, side)
    if w.arity != 1:
        raise DimensionError("coboundary1 expects an arity-1 cochain")
    n = alg.dim
    vals = tuple(
        tuple(
            mat_sub(
                mat_add(
                    act(case, Side.LEFT, alg, x + 1, w.values[y]),
                    act(case, Side.RIGHT, alg, y + 1, w.values[x]),
                ),
                _w_bracket_1(alg, w, x, y),
            )
            for y in range(n)
        )
        for x in range(n)
    )
    return CochainMap(n, 2, vals)


def coboundary2(alg: LeibnizAlgebra, case: ActionCase, side: Side, w: CochainMap) -> CochainMap:
    """Degree-2 coboundary; a cochain is a 2-cocycle iff this vanishes."""
    _check(alg, side)
    if w.arity != 2:
        raise DimensionError("coboundary2 expects an arity-2 cochain")
    n = alg.dim
    f = alg.tensor.data

    def wb_first(i, j, z):
        # w([X_i, X_j], X_z)
        out = zeros(n, n)
        for k in range(n):
            c = f[i][j][k]
            if c != 0:
                out = mat_add(out, mat_scale(c, w.values[k][z]))
        return out

    def wb_second(x, i, j):
        # w(X_x, [X_i, X_j])
        out = zeros(n, n)
        for k in range(n):
            c = f[i][j][k]
            if c != 0:
                out = mat_add(out, mat_scale(c, w.values[x][k]))
        return out

    def value(x, y, z):
        lead = act(case, Side.LEFT, alg, x + 1, w.values[y][z])
        if side is Side.RIGHT:
            t = mat_add(lead, act(case, Side.RIGHT, alg, y + 1, w.values[x][z]))
            t = mat_sub(t, act(case, Side.RIGHT, alg, z + 1, w.values[x][y]))
            t = mat_sub(t, wb_first(x, y, z))
            t = mat_add(t, wb_second(x, y, z))
            t = mat_add(t, wb_first(x, z, y))
        else:
            t = mat_sub(lead, act(case, Side.LEFT, alg, y + 1, w.values[x][z]))
            t = mat_sub(t, act(case, Side.RIGHT, alg, z + 1, w.values[x][y]))
            t = mat_sub(t, wb_first(x, y, z))
            t = mat_add(t, wb_second(x, y, z))
            t = mat_sub(t, wb_second(y, x, z))
        return t

    vals = tuple(
        tuple(tuple(value(x, y, z) for z in range(n)) for y in range(n))
        for x in range(n)
    )
    return CochainMap(n, 3, vals)


def cocommutator_cochain(ftilde: StructureTensor) -> CochainMap:
    """The arity-1 cochain X_k -> sum ftilde(i, j, k) X_i (x) X_j."""
    n = ftilde.dim
    vals = tuple(
        tuple(tuple(ftilde.data[a][b][k] for b in range(n)) for a in range(n))
        for k in range(n)
    )
    return CochainMap(n, 1, vals)
