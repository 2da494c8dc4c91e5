"""Coboundary cocommutators, r-matrix recovery, Schouten brackets and the
classical / generalized Yang-Baxter checks.

An r-matrix is an n x n exact-rational coefficient grid ``r`` for the
element sum r[i][j] X_{i+1} (x) X_{j+1}; it is not required to be
antisymmetric (``is_antisymmetric_matrix`` reports that property when a
caller cares).

The coboundary cocommutator delta(r) is the degree-0 coboundary of r
(``cohomology.coboundary_entries``) under action case 1 or 4 on the right-
or left-handed complex; ``cocommutator_matrix_route`` and
``dual_bracket_from_r`` compute it by independent routes.

Handedness conventions.  The right-handed component formulas follow the
standard slot-by-slot contractions.  The left-handed Schouten bracket and
triple products are the mirror family obtained by swapping the roles of the
two tensor factors; their exact component form is pinned down by three
requirements that the right-handed family satisfies and that golden tests
enforce here as well:

* the decomposition identity: the Schouten bracket equals the sum of the
  first two triple products, exactly and for every r;
* the defect identity: the handedness defect of the bracket induced on the
  dual by r equals the degree-0 coboundary of the Schouten bracket,
  component for component (``crosscheck_dual_defect``);
* the recovered classical r-matrices of the bundled corpus satisfy the
  Yang-Baxter condition exactly where expected.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass
from fractions import Fraction

from .actions import ActionCase
from .cohomology import coboundary_entries
from .core import (
    LeibnizAlgebra,
    Side,
    StructureTensor,
    adjoint_matrices,
    coadjoint_matrices,
    leibniz_residual,
)
from .errors import ChiralityError, DimensionError, quote
from .linalg import (
    Matrix,
    mat,
    mat_mul,
    mat_neg,
    mat_vec,
    solve_affine,
    sparse_rows,
    transpose,
    zeros,
)

Rank3 = tuple  # [m][n][p], 0-based
Rank4 = tuple  # [x][m][n][p], 0-based


class CoboundaryCase(enum.Enum):
    """Which coboundary formula turns r into a cocommutator.

    RIGHT_1 / RIGHT_4 need a right-handed algebra, LEFT_1 / LEFT_4 a
    left-handed one.  For the two remaining action cases only the zero
    cocommutator is a coboundary; they are kept as explicit markers so a
    report can say so instead of omitting them.
    """

    RIGHT_1 = "right1"
    LEFT_1 = "left1"
    RIGHT_4 = "right4"
    LEFT_4 = "left4"
    TRIVIAL_2 = "trivial2"
    TRIVIAL_3 = "trivial3"

    @property
    def trivial(self) -> bool:
        return self in (CoboundaryCase.TRIVIAL_2, CoboundaryCase.TRIVIAL_3)

    @property
    def required_side(self) -> Side | None:
        if self in (CoboundaryCase.RIGHT_1, CoboundaryCase.RIGHT_4):
            return Side.RIGHT
        if self in (CoboundaryCase.LEFT_1, CoboundaryCase.LEFT_4):
            return Side.LEFT
        return None

    @property
    def dual_side(self) -> Side | None:
        """Handedness the induced dual bracket is expected to satisfy."""
        if self in (CoboundaryCase.RIGHT_1, CoboundaryCase.LEFT_1):
            return Side.RIGHT
        if self in (CoboundaryCase.RIGHT_4, CoboundaryCase.LEFT_4):
            return Side.LEFT
        return None

    @property
    def form(self) -> int | None:
        """Matching first-order compatibility form."""
        if self in (CoboundaryCase.RIGHT_1, CoboundaryCase.LEFT_1):
            return 1
        if self in (CoboundaryCase.RIGHT_4, CoboundaryCase.LEFT_4):
            return 4
        return None


def coboundary_case(name: str) -> CoboundaryCase:
    try:
        return CoboundaryCase(name.lower())
    except ValueError:
        raise DimensionError(
            f"unknown coboundary case {quote(name)}; choose from "
            + ", ".join(c.value for c in CoboundaryCase)
        ) from None


def _require(alg: LeibnizAlgebra, case: CoboundaryCase) -> None:
    need = case.required_side
    if need is not None and not alg.admits(need):
        raise ChiralityError(
            f"coboundary case {case.value} needs a {need.value}-handed algebra; "
            f"got {alg.chirality.value}"
        )


def _check_r(alg: LeibnizAlgebra, r: Matrix) -> Matrix:
    r = mat(r)
    if len(r) != alg.dim or any(len(row) != alg.dim for row in r):
        raise DimensionError("r-matrix shape does not match the algebra")
    return r


def is_antisymmetric_matrix(r: Matrix) -> bool:
    n = len(r)
    return all(r[i][j] == -r[j][i] for i in range(n) for j in range(n))


def _cocommutator_terms(alg: LeibnizAlgebra, case: CoboundaryCase):
    """Term table of the linear map r -> delta(r): the degree-0 coboundary
    under action case ``case.form`` on the complex of ``case.required_side``,
    read as the cochain of ``cocommutator_cochain``; a trivial case has no
    terms, since only the zero cocommutator is a coboundary there.

    Yields ((a, b, m), (i, j), c), 0-based, for every nonzero coefficient c
    of delta(r)[a][b][m] = sum c * r[i][j].
    """
    if case.trivial:
        return
    n = alg.dim
    entries = coboundary_entries(alg.tensor, ActionCase(case.form), case.required_side, 0)
    for (m,), q, _, p, c in entries:
        yield (q // n, q % n, m), divmod(p, n), c


def coboundary_cocommutator(
    alg: LeibnizAlgebra, r: Matrix, case: CoboundaryCase
) -> StructureTensor:
    """Dual bracket table induced by r under the chosen coboundary case."""
    _require(alg, case)
    r = _check_r(alg, r)
    n = alg.dim
    cube = [[[Fraction(0)] * n for _ in range(n)] for _ in range(n)]
    for (a, b, m), (i, j), c in _cocommutator_terms(alg, case):
        cube[a][b][m] += c * r[i][j]
    return StructureTensor(
        n, tuple(tuple(tuple(row) for row in plane) for plane in cube)
    )


def cocommutator_matrix_route(
    alg: LeibnizAlgebra, r: Matrix, case: CoboundaryCase
) -> StructureTensor:
    """Same cocommutator through adjoint-matrix products (route crosscheck)."""
    _require(alg, case)
    r = _check_r(alg, r)
    n = alg.dim
    adj = adjoint_matrices(alg.tensor)
    ys = []
    for m in range(n):
        if case is CoboundaryCase.RIGHT_1:
            ys.append(mat_mul(transpose(adj.first_slot[m]), r))
        elif case is CoboundaryCase.LEFT_1:
            ys.append(mat_neg(mat_mul(transpose(adj.second_slot[m]), r)))
        elif case is CoboundaryCase.RIGHT_4:
            ys.append(mat_mul(r, adj.first_slot[m]))
        elif case is CoboundaryCase.LEFT_4:
            ys.append(mat_neg(mat_mul(r, adj.second_slot[m])))
        else:
            ys.append(zeros(n, n))
    # ys[m][i][j] holds the negated dual entry (i, j, m)
    cube = tuple(
        tuple(tuple(-ys[m][i][j] for m in range(n)) for j in range(n))
        for i in range(n)
    )
    return StructureTensor(n, cube)


@dataclass(frozen=True)
class RMatrixFamily:
    """Affine solution set particular + span(kernel), parameters t1..td."""

    dim: int
    particular: Matrix
    kernel: tuple[Matrix, ...]
    parameters: tuple[str, ...]

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
    _require(alg, case)
    if ftilde.dim != alg.dim:
        raise DimensionError("dual tensor dimension does not match the algebra")
    n = alg.dim
    # Unknowns r[i][j] flattened as i*n + j; one equation per (m, a, b).
    rows = sparse_rows(
        (((m * n + a) * n + b, i * n + j, c)
         for (a, b, m), (i, j), c in _cocommutator_terms(alg, case)),
        n ** 3,
    )
    rhs = tuple(
        ftilde.data[a][b][m]
        for m, a, b in itertools.product(range(n), repeat=3)
    )
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


def dual_bracket_from_r(alg: LeibnizAlgebra, r: Matrix, side: Side) -> StructureTensor:
    """Dual bracket built through the coadjoint matrices.

    Right-handed: [u, v]^r = -(coadjoint right action of the image of v
    under the transposed contraction map) applied to u.  Left-handed:
    [u, v]^r = +(coadjoint left action of the image of u) applied to v.
    Must agree entrywise with the matching coboundary cocommutator.
    """
    alg.require(side)
    r = _check_r(alg, r)
    n = alg.dim
    coad = coadjoint_matrices(adjoint_matrices(alg.tensor))
    # Column-vector operators on covector coordinates: the left coadjoint of
    # X_i is the negated transpose of coad.left[i], likewise on the right.
    ad_star_left = tuple(mat_neg(transpose(m)) for m in coad.left)
    ad_star_right = tuple(mat_neg(transpose(m)) for m in coad.right)
    cube = [[[Fraction(0)] * n for _ in range(n)] for _ in range(n)]
    for k in range(n):
        unit_k = tuple(Fraction(1 if t == k else 0) for t in range(n))
        for j in range(n):
            unit_j = tuple(Fraction(1 if t == j else 0) for t in range(n))
            if side is Side.RIGHT:
                # carrier = image of the j-th dual basis covector under the
                # transposed contraction map: component i is r[i][j]
                out = [Fraction(0)] * n
                for i in range(n):
                    c = r[i][j]
                    if c != 0:
                        img = mat_vec(ad_star_right[i], unit_k)
                        out = [o - c * v for o, v in zip(out, img)]
            else:
                out = [Fraction(0)] * n
                for i in range(n):
                    c = r[k][i]
                    if c != 0:
                        img = mat_vec(ad_star_left[i], unit_j)
                        out = [o + c * v for o, v in zip(out, img)]
            for m in range(n):
                cube[k][j][m] = out[m]
    return StructureTensor(
        n, tuple(tuple(tuple(row) for row in plane) for plane in cube)
    )


@dataclass(frozen=True)
class SchoutenTensor:
    entries: Rank3  # [m][n][p], 0-based

    def is_zero(self) -> bool:
        return all(v == 0 for a in self.entries for b in a for v in b)


@dataclass(frozen=True)
class TripleProduct:
    which: str
    entries: Rank3


def schouten(alg: LeibnizAlgebra, r: Matrix, side: Side) -> SchoutenTensor:
    """Quadratic obstruction tensor of r; its vanishing is the classical
    Yang-Baxter condition for the chosen handedness."""
    alg.require(side)
    r = _check_r(alg, r)
    n = alg.dim
    f = alg.tensor.data
    out = []
    for m in range(n):
        plane = []
        for ncol in range(n):
            row = []
            for p in range(n):
                s = Fraction(0)
                for i in range(n):
                    for j in range(n):
                        c = f[i][j]
                        if side is Side.RIGHT:
                            s += r[i][ncol] * r[j][p] * c[m]
                            s += r[m][i] * r[j][p] * c[ncol]
                        else:
                            s += r[m][i] * r[j][p] * c[ncol]
                            s -= r[ncol][i] * r[m][j] * c[p]
                row.append(s)
            plane.append(tuple(row))
        out.append(tuple(plane))
    return SchoutenTensor(tuple(out))


_RIGHT_WHICH = ("r12r13", "r12r23", "r13r23")
_LEFT_WHICH = ("r21r31", "r21r32", "r31r32")


def triple_products(
    alg: LeibnizAlgebra, r: Matrix, side: Side
) -> tuple[TripleProduct, TripleProduct, TripleProduct]:
    """The three slot-pairing products for the chosen handedness.

    The Schouten tensor equals the sum of the first two, exactly.
    """
    alg.require(side)
    r = _check_r(alg, r)
    n = alg.dim
    f = alg.tensor.data

    def build(component):
        return tuple(
            tuple(
                tuple(component(m, ncol, p) for p in range(n)) for ncol in range(n)
            )
            for m in range(n)
        )

    def sum_ij(term):
        def component(m, ncol, p):
            s = Fraction(0)
            for i in range(n):
                for j in range(n):
                    s += term(m, ncol, p, i, j)
            return s

        return component

    if side is Side.RIGHT:
        p1 = build(sum_ij(lambda m, nc, p, i, j: r[i][nc] * r[j][p] * f[i][j][m]))
        p2 = build(sum_ij(lambda m, nc, p, i, j: r[m][i] * r[j][p] * f[i][j][nc]))
        p3 = build(sum_ij(lambda m, nc, p, i, j: r[m][i] * r[nc][j] * f[i][j][p]))
        names = _RIGHT_WHICH
    else:
        p1 = build(sum_ij(lambda m, nc, p, i, j: -r[nc][i] * r[m][j] * f[i][j][p]))
        p2 = build(sum_ij(lambda m, nc, p, i, j: r[m][i] * r[j][p] * f[i][j][nc]))
        p3 = build(sum_ij(lambda m, nc, p, i, j: r[i][nc] * r[j][p] * f[i][j][m]))
        names = _LEFT_WHICH
    return tuple(TripleProduct(w, e) for w, e in zip(names, (p1, p2, p3)))


def cybe_check(alg: LeibnizAlgebra, r: Matrix, side: Side) -> bool:
    """True iff the Schouten tensor vanishes identically."""
    return schouten(alg, r, side).is_zero()


def gybe_residual(alg: LeibnizAlgebra, r: Matrix, side: Side) -> Rank4:
    """Degree-0 coboundary of the Schouten tensor, per basis element.

    Indexed [x][m][n][p]: right-handed, the bracket acts on the first slot
    (-sum_q f(x,q,m) S(q,n,p)); left-handed, mirrored onto the third slot
    (-sum_q S(m,n,q) f(q,x,p)).  All zero means the generalized Yang-Baxter
    condition holds; the orientation makes ``crosscheck_dual_defect`` an
    exact componentwise identity.
    """
    alg.require(side)
    r = _check_r(alg, r)
    n = alg.dim
    f = alg.tensor.data
    s = schouten(alg, r, side).entries
    out = []
    for x in range(n):
        cube = []
        for m in range(n):
            plane = []
            for ncol in range(n):
                row = []
                for p in range(n):
                    acc = Fraction(0)
                    if side is Side.RIGHT:
                        for q in range(n):
                            acc -= f[x][q][m] * s[q][ncol][p]
                    else:
                        for q in range(n):
                            acc -= s[m][ncol][q] * f[q][x][p]
                    row.append(acc)
                plane.append(tuple(row))
            cube.append(tuple(plane))
        out.append(tuple(cube))
    return tuple(out)


def gybe_check(alg: LeibnizAlgebra, r: Matrix, side: Side) -> bool:
    return all(
        v == 0 for a in gybe_residual(alg, r, side) for b in a for c in b for v in c
    )


def crosscheck_dual_defect(alg: LeibnizAlgebra, r: Matrix, side: Side) -> bool:
    """Exact identity tying the three routes together: the handedness defect
    of the r-induced dual bracket equals the Schouten coboundary.

    Right-handed: defect[c][a][b][x] == gybe[x][a][b][c] with the dual table
    from RIGHT_1.  Left-handed: defect[a][b][c][x] == gybe[x][a][b][c] with
    the dual table from LEFT_4.
    """
    alg.require(side)
    r = _check_r(alg, r)
    n = alg.dim
    case = CoboundaryCase.RIGHT_1 if side is Side.RIGHT else CoboundaryCase.LEFT_4
    ftilde = coboundary_cocommutator(alg, r, case)
    defect = leibniz_residual(ftilde, side)
    gybe = gybe_residual(alg, r, side)
    for x, a, b, c in itertools.product(range(n), repeat=4):
        expected = gybe[x][a][b][c]
        got = defect[c][a][b][x] if side is Side.RIGHT else defect[a][b][c][x]
        if got != expected:
            return False
    return True
