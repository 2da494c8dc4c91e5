"""Coboundary cocommutators, r-matrix recovery, Schouten brackets and the
classical / generalized Yang-Baxter checks.

An r-matrix is an n x n exact-rational coefficient grid ``r`` for the
element sum r[i][j] X_{i+1} (x) X_{j+1}; it is not required to be
antisymmetric (``is_antisymmetric_matrix`` reports that property when a
caller cares).

The coboundary cocommutator delta(r) is the degree-0 coboundary of r
under action case 1 or 4 on the right- or left-handed complex, one matrix
``cohomology.coboundary_matrix`` with two readers: ``coboundary_cocommutator``
applies it to r (``cohomology.coboundary0``), its nonzero component
(m, a, b) being the dual entry (a+1, b+1, m+1), read straight into
``StructureTensor.from_entries``; ``solve_rmatrix`` inverts it, its rows
being the equations in the unknowns r[i][j].  ``cocommutator_matrix_route``
and ``dual_bracket_from_r`` compute delta(r) by independent routes.  The
table ``COMPLEX`` gives each coboundary case its action case, by number,
and complex side, and with the side what it needs: a complex of side s
needs an algebra that admits s.  ``BRACKET_CASE`` names, per side, the
case whose cocommutator is the dual bracket that r induces.

Of the five r-matrix commands, which never load ``report``, only
``coboundary`` and ``rmatrix`` load ``cohomology`` and ``actions``, inside
``coboundary_cocommutator`` and ``solve_rmatrix``.

The Schouten bracket, the three triple products and the generalized
Yang-Baxter residual are read off one term table, ``TRIPLE``, over the
nonzero entries of the bracket only.  Each holds only its nonzero
components: the Schouten bracket and the triple products as sorted
entries ((m, n, p), value), 1-based, like ``StructureTensor.items``, and
the residual as {(x, m, n, p): value}, 0-based, like
``core.leibniz_residual``; empty means zero.

The cocommutator (through ``cohomology``) and the triple products sum
integers: r, and the bracket, are scaled to integer numerators over the lcm
of their denominators (``linalg.over_lcm``, ``core.bracket_rows``), and one
``Fraction`` is built per nonzero output entry.  The two second routes,
through the adjoint and coadjoint matrices of ``core``, stay rational.

Handedness conventions.  The right-handed component formulas follow the
standard slot-by-slot contractions.  The left-handed Schouten bracket and
triple products are the mirror family obtained by swapping the roles of the
two tensor factors; their exact component form is pinned down by three
requirements that the right-handed family satisfies and that golden tests
enforce here as well:

* the decomposition identity: the Schouten bracket equals the sum of the
  first two triple products, exactly and for every r.  Both are read from
  ``TRIPLE``, so this holds by construction; the dense sums over every index
  pair in ``tests/oracles.py`` are where it is still checked;
* the defect identity: the handedness defect of the bracket induced on the
  dual by r equals the degree-0 coboundary of the Schouten bracket,
  component for component (``crosscheck_dual_defect``);
* the recovered classical r-matrices of the bundled corpus satisfy the
  Yang-Baxter condition exactly where expected.
"""

from __future__ import annotations

import enum
import operator
from fractions import Fraction

from .core import (
    LeibnizAlgebra,
    Side,
    StructureTensor,
    adjoint_matrices,
    bracket_rows,
    coadjoint_matrices,
    leibniz_residual,
)
from .errors import DimensionError, quote
from .linalg import (
    Matrix,
    mat,
    mat_mul,
    mat_neg,
    over_lcm,
    solve_affine,
    transpose,
)
from .record import Frozen

class CoboundaryCase(enum.Enum):
    """Which coboundary formula turns r into a cocommutator.

    RIGHT_1 / RIGHT_4 need a right-handed algebra, LEFT_1 / LEFT_4 a
    left-handed one (``COMPLEX``).  For the two remaining action cases only
    the zero cocommutator is a coboundary; they are kept as explicit
    markers so a report can say so instead of omitting them.
    """

    RIGHT_1 = "right1"
    LEFT_1 = "left1"
    RIGHT_4 = "right4"
    LEFT_4 = "left4"
    TRIVIAL_2 = "trivial2"
    TRIVIAL_3 = "trivial3"


# Each coboundary case as the degree-0 coboundary under an action case (the
# matching compatibility form), given by its number, on the complex of one
# side; None for the two trivial cases.
COMPLEX = {
    CoboundaryCase.RIGHT_1: (1, Side.RIGHT),
    CoboundaryCase.LEFT_1: (1, Side.LEFT),
    CoboundaryCase.RIGHT_4: (4, Side.RIGHT),
    CoboundaryCase.LEFT_4: (4, Side.LEFT),
    CoboundaryCase.TRIVIAL_2: None,
    CoboundaryCase.TRIVIAL_3: None,
}

# Per side, the coboundary case whose cocommutator is the dual bracket of
# ``dual_bracket_from_r``; ``crosscheck_dual_defect`` measures its defect.
BRACKET_CASE = {Side.RIGHT: CoboundaryCase.RIGHT_1, Side.LEFT: CoboundaryCase.LEFT_4}


def coboundary_case(name: str) -> CoboundaryCase:
    try:
        return CoboundaryCase(name.lower())
    except ValueError:
        raise DimensionError(
            f"unknown coboundary case {quote(name)}; choose from "
            + ", ".join(c.value for c in CoboundaryCase)
        ) from None


def _complex(alg: LeibnizAlgebra, case: CoboundaryCase):
    """``COMPLEX[case]``, after checking that ``alg`` admits its side."""
    pair = COMPLEX[case]
    if pair:
        alg.require(f"coboundary case {case.value}", pair[1])
    return pair


def _check_r(alg: LeibnizAlgebra, r: Matrix) -> Matrix:
    r = mat(r)
    if len(r) != alg.dim or any(len(row) != alg.dim for row in r):
        raise DimensionError("r-matrix shape does not match the algebra")
    return r


def is_antisymmetric_matrix(r: Matrix) -> bool:
    n = len(r)
    return all(r[i][j] == -r[j][i] for i in range(n) for j in range(n))


def coboundary_cocommutator(
    alg: LeibnizAlgebra, r: Matrix, case: CoboundaryCase
) -> StructureTensor:
    """Dual bracket table induced by r under the chosen coboundary case: the
    degree-0 coboundary of r under the action case and on the complex of
    ``COMPLEX[case]``, read as the cochain X_m -> sum delta(r)(a, b, m)
    X_a (x) X_b; zero for a trivial case, where only the zero cocommutator
    is a coboundary."""
    pair = _complex(alg, case)
    r = _check_r(alg, r)
    d0 = {}
    if pair:
        from .actions import ActionCase
        from .cohomology import coboundary0
        d0 = coboundary0(alg, ActionCase(pair[0]), pair[1], r)
    return StructureTensor.from_entries(
        alg.dim, {(a + 1, b + 1, m + 1): v for (m, a, b), v in d0.items()}
    )


def cocommutator_matrix_route(
    alg: LeibnizAlgebra, r: Matrix, case: CoboundaryCase
) -> StructureTensor:
    """Same cocommutator through adjoint-matrix products (route crosscheck)."""
    pair = _complex(alg, case)
    r = _check_r(alg, r)
    n = alg.dim
    adj = adjoint_matrices(alg.tensor)
    out = {}
    for m in range(n if pair else 0):
        if case is CoboundaryCase.RIGHT_1:
            y = mat_mul(transpose(adj.first_slot[m]), r)
        elif case is CoboundaryCase.LEFT_1:
            y = mat_neg(mat_mul(transpose(adj.second_slot[m]), r))
        elif case is CoboundaryCase.RIGHT_4:
            y = mat_mul(r, adj.first_slot[m])
        else:
            y = mat_neg(mat_mul(r, adj.second_slot[m]))
        # y[i][j] holds the negated dual entry (i, j, m)
        for i, row in enumerate(y):
            for j, v in enumerate(row):
                if v:
                    out[i + 1, j + 1, m + 1] = -v
    return StructureTensor.from_entries(n, out)


class RMatrixFamily(Frozen):
    """Affine solution set particular + span(kernel), parameters t1..td."""

    __slots__ = ("dim", "particular", "kernel", "parameters")

    def member(self, assignment) -> Matrix:
        if len(assignment) != len(self.parameters):
            raise DimensionError(f"expected {len(self.parameters)} parameters")
        n = self.dim
        out = [list(row) for row in self.particular]
        for c, k in zip(assignment, self.kernel):
            for i in range(n):
                for j in range(n):
                    out[i][j] += Fraction(c) * k[i][j]
        return tuple(tuple(row) for row in out)

    @property
    def dimension(self) -> int:
        return len(self.kernel)


def solve_rmatrix(
    alg: LeibnizAlgebra, ftilde: StructureTensor, case: CoboundaryCase
) -> RMatrixFamily | None:
    """Exact affine family of r with coboundary_cocommutator(r) == ftilde,
    or None when the linear system is inconsistent."""
    pair = _complex(alg, case)
    if ftilde.dim != alg.dim:
        raise DimensionError("dual tensor dimension does not match the algebra")
    n = alg.dim
    # the degree-0 coboundary of r (``coboundary_cocommutator``), rows and
    # columns laid out as ``cohomology`` says
    den, rows = 1, ((),) * n ** 3
    if pair:
        from .actions import ActionCase
        from .cohomology import coboundary_matrix
        den, rows = coboundary_matrix(alg.tensor, ActionCase(pair[0]), pair[1])
    # the rows are integer numerators over den: scale the right-hand side by it
    rhs = [0] * n ** 3
    for (a, b, m), v in ftilde.items():
        rhs[((m - 1) * n + a - 1) * n + b - 1] = den * v
    solved = solve_affine(rows, rhs, n * n)
    if solved is None:
        return None
    particular, kernel = solved

    def unflat(v):
        return tuple(tuple(v[i * n + j] for j in range(n)) for i in range(n))

    kmats = tuple(unflat(v) for v in kernel)
    return RMatrixFamily(
        n,
        unflat(particular),
        kmats,
        tuple(f"t{a + 1}" for a in range(len(kmats))),
    )


def _nonzero_entries(m: Matrix):
    for a, row in enumerate(m):
        for b, v in enumerate(row):
            if v:
                yield a, b, v


def dual_bracket_from_r(alg: LeibnizAlgebra, r: Matrix, side: Side) -> StructureTensor:
    """Dual bracket built through the coadjoint matrices.

    Right-handed: [u, v]^r = -(coadjoint right action of the image of v
    under the transposed contraction map) applied to u.  Left-handed:
    [u, v]^r = +(coadjoint left action of the image of u) applied to v.
    Must agree entrywise with the cocommutator of ``BRACKET_CASE[side]``.
    """
    alg.require("the dual bracket of r", side)
    r = _check_r(alg, r)
    n = alg.dim
    coad = coadjoint_matrices(adjoint_matrices(alg.tensor))
    out = {}
    # entry (k, j, m) is sum_i r[i][j] * coad.right[i][k][m] right-handed and
    # -sum_i r[k][i] * coad.left[i][j][m] left-handed, over the nonzero
    # coadjoint entries only.
    for i in range(n):
        if side is Side.RIGHT:
            for a, b, v in _nonzero_entries(coad.right[i]):
                for j, c in enumerate(r[i]):
                    if c:
                        key = (a + 1, j + 1, b + 1)
                        out[key] = out.get(key, 0) + c * v
        else:
            for a, b, v in _nonzero_entries(coad.left[i]):
                for k in range(n):
                    if r[k][i]:
                        key = (k + 1, a + 1, b + 1)
                        out[key] = out.get(key, 0) - r[k][i] * v
    return StructureTensor.from_entries(n, out)


# The three triple products as a term table, per side.  Product (m, n, p)
# sums sign * f(i, j, k) * r(A) * r(B) over the nonzero entries of f: r(A)
# holds i in slot ``sa`` (0: r[i][x], 1: r[x][i]), r(B) holds j in slot
# ``sb`` the same way with y, and ``pick`` reads (m, n, p) off (k, x, y).
# The Schouten bracket is the sum of the first two products.
TRIPLE = {
    Side.RIGHT: ((1, 0, 0, (0, 1, 2)), (1, 1, 0, (1, 0, 2)), (1, 1, 1, (1, 2, 0))),
    Side.LEFT: ((-1, 1, 1, (2, 1, 0)), (1, 1, 0, (1, 0, 2)), (1, 0, 0, (0, 1, 2))),
}


def _triple_sums(alg: LeibnizAlgebra, r: Matrix, side: Side, terms) -> tuple:
    """The sum of the ``terms`` of TRIPLE as its nonzero entries
    ((m, n, p), value), 1-based and sorted, like ``StructureTensor.items``."""
    alg.require("the Schouten bracket of r", side)
    r = _check_r(alg, r)
    n = alg.dim
    # f and r as integers over their lcms, so a term is a product of ints
    fden, rows = bracket_rows(alg.tensor)
    scale, flat = over_lcm(x for row in r for x in row)
    grid = [flat[i * n:(i + 1) * n] for i in range(n)]
    # lines[0][i] holds the nonzero r[i][x] as (x, value), lines[1][i] the r[x][i]
    lines = tuple(
        tuple(tuple((x, v) for x, v in enumerate(row) if v) for row in g)
        for g in (grid, zip(*grid))
    )
    out = {}
    for sign, sa, sb, pick in terms:
        component = operator.itemgetter(*pick)
        for (i, j), line in rows.items():
            for k, v in line:
                for x, ra in lines[sa][i]:
                    c = sign * v * ra
                    for y, rb in lines[sb][j]:
                        key = component((k + 1, x + 1, y + 1))
                        out[key] = out.get(key, 0) + c * rb
    den = fden * scale * scale
    return tuple(sorted((key, Fraction(x, den)) for key, x in out.items() if x))


def schouten(alg: LeibnizAlgebra, r: Matrix, side: Side) -> tuple:
    """Quadratic obstruction tensor of r as its sorted nonzero entries
    ((m, n, p), value), 1-based, like ``triple_products``; its vanishing
    (an empty tuple) is the classical Yang-Baxter condition for the chosen
    handedness."""
    return _triple_sums(alg, r, side, TRIPLE[side][:2])


def triple_products(alg: LeibnizAlgebra, r: Matrix, side: Side) -> tuple[tuple, tuple, tuple]:
    """The three slot-pairing products for the chosen handedness, each as
    its sorted nonzero entries ((m, n, p), value), 1-based: r12r13, r12r23
    and r13r23 right-handed, r21r31, r21r32 and r31r32 left-handed.

    The Schouten tensor equals the sum of the first two, exactly.
    """
    return tuple(_triple_sums(alg, r, side, (term,)) for term in TRIPLE[side])


def cybe_check(alg: LeibnizAlgebra, r: Matrix, side: Side) -> bool:
    """True iff the Schouten tensor vanishes identically."""
    return not schouten(alg, r, side)


# Where the Schouten tensor S meets f in ``gybe_residual``, per side: S at
# index ``s_slot`` equals f at index ``f_slot``, and ``pick`` reads
# (x, m, n, p) off the six indices of f's entry followed by S's.
_GYBE = {Side.RIGHT: (0, 1, (0, 2, 4, 5)), Side.LEFT: (2, 0, (1, 3, 4, 2))}


def gybe_residual(alg: LeibnizAlgebra, r: Matrix, side: Side) -> dict:
    """Degree-0 coboundary of the Schouten tensor, per basis element, as
    {(x, m, n, p): value} of its nonzero components, 0-based.

    Right-handed, the bracket acts on the first slot (-sum_q f(x,q,m)
    S(q,n,p)); left-handed, mirrored onto the third slot (-sum_q S(m,n,q)
    f(q,x,p)).  Empty means the generalized Yang-Baxter condition holds;
    the orientation makes ``crosscheck_dual_defect`` an exact componentwise
    identity.
    """
    s_slot, f_slot, pick = _GYBE[side]
    component = operator.itemgetter(*pick)
    meet = {}  # meet[q]: the nonzero S entries whose index s_slot is q
    for e, w in schouten(alg, r, side):
        meet.setdefault(e[s_slot], []).append((e, w))
    out = {}
    for a, v in alg.tensor.items():
        for e, w in meet.get(a[f_slot], ()):
            key = component(a + e)
            out[key] = out.get(key, 0) - v * w
    return {tuple(x - 1 for x in c): v for c, v in out.items() if v}


def crosscheck_dual_defect(alg: LeibnizAlgebra, r: Matrix, side: Side) -> bool:
    """Exact identity tying the three routes together: the handedness defect
    of the r-induced dual bracket equals the Schouten coboundary.

    Right-handed: defect[c][a][b][x] == gybe[x][a][b][c] with the dual table
    from RIGHT_1.  Left-handed: defect[a][b][c][x] == gybe[x][a][b][c] with
    the dual table from LEFT_4 (``BRACKET_CASE``).
    """
    alg.require("the dual defect identity", side)
    r = _check_r(alg, r)
    defect = leibniz_residual(coboundary_cocommutator(alg, r, BRACKET_CASE[side]), side)
    if side is Side.RIGHT:
        moved = {(x, a, b, c): v for (c, a, b, x), v in defect.items()}
    else:
        moved = {(x, a, b, c): v for (a, b, c, x), v in defect.items()}
    return moved == gybe_residual(alg, r, side)
