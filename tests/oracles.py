"""Independent routes the tests check the library against.

``cocycle_residual_matrix`` computes the four compatibility residuals from
products of adjoint slice matrices, with no reference to the rows of
``solver.cocycle_system``; ``bracket`` evaluates a bracket table on
coordinate vectors; ``leibniz_residual_by_brackets`` evaluates the Leibniz
identity on basis vectors through ``bracket``, with no reference to the term
table ``core.LEIBNIZ``, and ``quadratic_by_polarization`` expands a family's
dual defect from it; ``act_by_brackets`` evaluates the four
tensor-square actions through ``bracket``, with no reference to the action
table of ``actions``; the ``tensor_from_*_slot`` functions invert each
adjoint slice family on its own; ``dense_kernel_basis`` and
``dense_solve_affine`` eliminate dense rows column by column, with no
reference to the sparse eliminator of ``linalg``; ``schouten_dense``,
``triple_products_dense`` and ``gybe_residual_dense`` sum the r-matrix
triple products over every index pair, with no reference to the term table
``rmatrix.TRIPLE``, and ``dual_bracket_by_units`` applies the coadjoint
operators to unit covectors.  ``coboundary0_dense``,
``coboundary1_dense``, ``coboundary2`` and ``module_axiom_residuals`` are
the coboundaries and the module-axiom defects through the
bracket-evaluation actions of ``act_by_brackets``.

The rest are checks that only tests use, written on the library's own
routes: ``apply_system`` applies the rows of a linear system to a tensor
flattened in the solver's column order (``flatten_tensor``,
``column_index``), ``evaluate_quadratic`` evaluates a quadratic residual at
parameter values, ``cocycle_residual_tensor`` applies the rows of
``solver.cocycle_system`` to a tensor and ``row_provenance`` names the
residual component of each row, ``verify_bialgebra`` checks one
candidate dual table against a scenario and ``family_verdict`` a whole
family; ``act`` applies the library's integer action operator itself,
summing its columns weighted by the components of u, and ``axioms_hold``
collects the verdicts of ``actions.axiom_report``; ``family_member``,
``opposite`` and ``tensor_sum`` build tensors, ``cochain_at``,
``zero_cochain`` and ``cocommutator_cochain`` handle cochains, and the
serializers write definition files back.  ``dense``/``grid3`` and ``grid4`` spread the
library's sparse tensors and residuals into dense grids for comparison
with the dense routes above (``from_dense`` and ``sparse4`` go back);
``dense_cochain`` and ``dense_quadratic`` do the same for cochains and
quadratic residuals, with every component the library leaves out read as
zero, and ``sparse_cochain`` goes back.  The dense routes take and return
the dense ``CochainMap`` of this module.
"""

import itertools
from dataclasses import dataclass
from fractions import Fraction

from leibnizalg.actions import action_operators, axiom_report
from leibnizalg.core import (
    Side,
    StructureTensor,
    adjoint_matrices,
    coadjoint_matrices,
    first_nonzero,
    leibniz_residual,
)
from leibnizalg.corpus import text
from leibnizalg.document import parse_algebra
from leibnizalg.errors import DimensionError
from leibnizalg.linalg import frac, mat, mat_mul, mat_neg, transpose
from leibnizalg.solver import (
    DualFamily,
    assemble_cocycle_system,
    cocycle_system,
    dual_leibniz_residual,
)


def zeros(nrows: int, ncols: int):
    return tuple((Fraction(0),) * ncols for _ in range(nrows))


def grid3(entries, n):
    """Sparse entries ((i, j, k), value), 1-based, as a dense n x n x n grid
    [i][j][k], 0-based."""
    out = [[[Fraction(0)] * n for _ in range(n)] for _ in range(n)]
    for (i, j, k), v in entries:
        out[i - 1][j - 1][k - 1] = v
    return tuple(tuple(tuple(row) for row in plane) for plane in out)


def dense(t: StructureTensor):
    """The bracket table as a dense grid [i][j][k], 0-based."""
    return grid3(t.items(), t.dim)


def from_dense(grid) -> StructureTensor:
    """The tensor with the dense grid [i][j][k], 0-based, as its entries."""
    n = len(grid)
    return StructureTensor.from_entries(n, {
        (i + 1, j + 1, k + 1): grid[i][j][k]
        for i, j, k in itertools.product(range(n), repeat=3)
    })


def nest4(values, n):
    """Nest a flat stream given in lexicographic index order as [a][b][c][d]."""
    it = iter(values)
    return tuple(
        tuple(
            tuple(tuple(next(it) for _ in range(n)) for _ in range(n))
            for _ in range(n)
        )
        for _ in range(n)
    )


def grid4(res: dict, n):
    """A sparse rank-4 residual {(a, b, c, d): value}, 0-based, as a dense
    grid [a][b][c][d]."""
    zero = Fraction(0)
    return nest4((res.get(c, zero) for c in itertools.product(range(n), repeat=4)), n)


def sparse4(grid) -> dict:
    """A dense rank-4 grid as {(a, b, c, d): value} of its nonzero components."""
    n = len(grid)
    return {
        (a, b, c, d): grid[a][b][c][d]
        for a, b, c, d in itertools.product(range(n), repeat=4)
        if grid[a][b][c][d]
    }


def tensor_sum(a: StructureTensor, b: StructureTensor) -> StructureTensor:
    out = dict(a.items())
    for e, v in b.items():
        out[e] = out.get(e, 0) + v
    return StructureTensor.from_entries(a.dim, out)


def opposite(t: StructureTensor) -> StructureTensor:
    """Swap the two argument slots of the bracket."""
    return StructureTensor.from_entries(t.dim, {(j, i, k): v for (i, j, k), v in t.items()})


def family_member(family: DualFamily, assignment) -> StructureTensor:
    """The member sum_a assignment[a] * basis_a of a dual family."""
    if len(assignment) != len(family.parameters):
        raise DimensionError(f"expected {len(family.parameters)} parameter values")
    out = {}
    for value, b in zip(assignment, family.basis):
        for e, v in b.items():
            out[e] = out.get(e, 0) + frac(value) * v
    return StructureTensor.from_entries(family.dim, out)


@dataclass(frozen=True)
class CochainMap:
    """A dense cochain for the dense routes: ``values`` is an n x n
    coefficient matrix for arity 0 and nests one tuple layer per argument
    for arities 1..3.  The library's cochains are dicts of their nonzero
    components (``sparse_cochain`` and ``dense_cochain`` convert)."""

    dim: int
    arity: int
    values: tuple

    def is_zero(self) -> bool:
        return not sparse_cochain(self)


def sparse_cochain(w: CochainMap) -> dict:
    """The nonzero components {(x, ..., a, b): value}, 0-based, of a dense
    cochain, in the library's format."""
    out = {}
    for args in itertools.product(range(w.dim), repeat=w.arity):
        m = w.values
        for x in args:
            m = m[x]
        out.update({args + (a, b): v for a, row in enumerate(m) for b, v in enumerate(row) if v})
    return out


def dense_cochain(d: dict, n: int, arity: int) -> CochainMap:
    """A library cochain {(x, ..., a, b): value} as a dense cochain; every
    component missing from ``d`` is zero."""
    def nest(args):
        if len(args) == arity:
            return tuple(
                tuple(d.get(args + (a, b), Fraction(0)) for b in range(n)) for a in range(n)
            )
        return tuple(nest(args + (x,)) for x in range(n))

    return CochainMap(n, arity, nest(()))


def dense_quadratic(quadratic, n: int):
    """A ``QuadraticResidual`` as one term dict {monomial: coefficient} per
    component [i][j][k][m] (flattened), in the form of
    ``quadratic_by_polarization``; a component it does not list is {}."""
    listed = {
        prov: {mono: Fraction(x, p.den) for mono, x in p.terms.items()}
        for prov, p in zip(quadratic.provenance, quadratic.polynomials)
    }
    return [
        listed.get(tuple(x + 1 for x in c), {})
        for c in itertools.product(range(n), repeat=4)
    ]


def corpus_document(name: str):
    return parse_algebra(text(name))


def serialize_algebra(doc) -> str:
    lines = []
    if doc.name:
        lines.append(f"name: {doc.name}")
    lines.append(f"dim: {doc.dim}")
    lines.append(f"side: {doc.declared_side}")
    for (i, j, k) in sorted(doc.entries):
        v = doc.entries[(i, j, k)]
        if v != 0:
            lines.append(f"f {i} {j} {k} = {v}")
    return "\n".join(lines) + "\n"


def serialize_rmatrix(doc) -> str:
    lines = []
    if doc.name:
        lines.append(f"name: {doc.name}")
    lines.append(f"dim: {doc.dim}")
    for (i, j) in sorted(doc.entries):
        v = doc.entries[(i, j)]
        if v != 0:
            lines.append(f"r {i} {j} = {v}")
    return "\n".join(lines) + "\n"


def act(case, side: Side, alg, x: int, u):
    """Apply [X_x, u]_L (side LEFT) or [u, X_x]_R (side RIGHT), x 1-based:
    the sum of u's components times the columns of the library's integer
    action operator for X_x, over its denominator."""
    case.require(alg)
    n = alg.dim
    if not 1 <= x <= n:
        raise DimensionError(f"basis index {x} outside 1..{n}")
    if len(u) != n or any(len(row) != n for row in u):
        raise DimensionError("tensor-square element has wrong shape")
    den, ops = action_operators(alg.tensor, case, side)
    col = {}
    for p, v in enumerate(itertools.chain.from_iterable(u)):
        for q, c in ops[x - 1][p].items():
            col[q] = col.get(q, 0) + v * c
    return tuple(
        tuple(Fraction(col.get(a * n + b, 0), den) for b in range(n)) for a in range(n)
    )


def axioms_hold(case, alg) -> bool:
    """Whether every axiom the library checks for the case holds: the sets
    of ``ActionCase.complexes``.  The crossed sets are measured through
    ``module_axiom_residuals`` only."""
    return all(axiom_report(case, alg).values())


def cochain_at(w: CochainMap, *indices: int):
    """Value of a cochain on basis arguments, 1-based."""
    if len(indices) != w.arity:
        raise DimensionError(f"expected {w.arity} indices")
    v = w.values
    for ix in indices:
        if not 1 <= ix <= w.dim:
            raise DimensionError(f"index {ix} outside 1..{w.dim}")
        v = v[ix - 1]
    return v


def zero_cochain(dim: int, arity: int) -> CochainMap:
    def nest(depth):
        if depth == 0:
            return zeros(dim, dim)
        return tuple(nest(depth - 1) for _ in range(dim))

    return CochainMap(dim, arity, nest(arity))


def cocommutator_cochain(ftilde: StructureTensor) -> dict:
    """The arity-1 cochain X_k -> sum ftilde(i, j, k) X_i (x) X_j, in the
    library's format {(k, i, j): value}, 0-based."""
    return {(k - 1, i - 1, j - 1): v for (i, j, k), v in ftilde.items()}


def bracket(t: StructureTensor, x, y):
    """Coordinates of [x, y] for coefficient vectors x, y."""
    n = t.dim
    x = tuple(frac(v) for v in x)
    y = tuple(frac(v) for v in y)
    if len(x) != n or len(y) != n:
        raise DimensionError("coordinate vectors must have length dim")
    return _grid_bracket(dense(t), x, y)


def _grid_bracket(f, x, y):
    """Coordinates of [x, y] on the dense grid ``f`` of a bracket table."""
    n = len(f)
    out = [Fraction(0)] * n
    for i, j in itertools.product(range(n), repeat=2):
        if x[i] and y[j]:
            c = x[i] * y[j]
            for k, v in enumerate(f[i][j]):
                if v:
                    out[k] += c * v
    return tuple(out)


def mat_vec(a, v):
    return tuple(sum(x * y for x, y in zip(row, v)) for row in a)


def column_index(dim: int, m: int, n: int, k: int) -> int:
    """Column of the 1-based dual entry (m, n, k) in the solver's flattening."""
    return ((m - 1) * dim + (n - 1)) * dim + (k - 1)


def flatten_tensor(t: StructureTensor):
    """The entries of ``t`` in lexicographic (m, n, k) order."""
    n = t.dim
    f = dense(t)
    return tuple(
        f[m][ncol][k]
        for m in range(n)
        for ncol in range(n)
        for k in range(n)
    )


def apply_system(system, ftilde: StructureTensor):
    """Residual vector of a candidate dual under the rows of a linear
    system, integer numerators over ``system.den``; independent of
    elimination."""
    if ftilde.dim != system.dim:
        raise DimensionError("tensor dimension does not match system")
    flat = flatten_tensor(ftilde)
    return tuple(
        sum((c * flat[col] for col, c in row), Fraction(0)) / system.den
        for row in system.matrix
    )


def row_provenance(dim: int):
    """The residual component (i, j, m, n), 1-based, of each row of
    ``solver.cocycle_system``, in row order."""
    return tuple(
        (i + 1, j + 1, m + 1, n + 1) for i, j, m, n in itertools.product(range(dim), repeat=4)
    )


def annihilates(system, ftilde: StructureTensor) -> bool:
    return all(v == 0 for v in apply_system(system, ftilde))


def evaluate_quadratic(quadratic, assignment):
    """Every polynomial of a ``QuadraticResidual`` at parameter values."""
    vals = [frac(v) for v in assignment]
    out = []
    for poly in quadratic.polynomials:
        total = Fraction(0)
        for mono, coeff in poly.terms.items():
            prod = Fraction(coeff, poly.den)
            for ix in mono:
                prod *= vals[ix]
            total += prod
        out.append(total)
    return tuple(out)


def mat_add(a, b):
    return tuple(tuple(x + y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def mat_sub(a, b):
    return tuple(tuple(x - y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def mat_scale(c, a):
    c = Fraction(c)
    return tuple(tuple(c * x for x in row) for row in a)


def dense_rref(rows):
    """Reduced row echelon form of dense rows in place: leftmost pivot
    column, topmost nonzero row; returns (rows, pivot columns)."""
    nrows = len(rows)
    ncols = len(rows[0]) if nrows else 0
    pivots = []
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, nrows) if rows[i][c] != 0), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        pv = rows[r][c]
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


def _dense_kernel(rows, pivots, ncols):
    basis = []
    for fc in range(ncols):
        if fc in pivots:
            continue
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -rows[r][fc]
        basis.append(tuple(v))
    return basis


def dense_kernel_basis(a, ncols):
    """Right kernel of a dense matrix, one vector per free column."""
    rows, pivots = dense_rref([[Fraction(x) for x in row] for row in a])
    return _dense_kernel(rows, pivots, ncols)


def dense_solve_affine(a, b, ncols):
    """(particular solution with free variables 0, kernel basis) of a x = b,
    or None when inconsistent."""
    aug = [[Fraction(x) for x in row] + [Fraction(y)] for row, y in zip(a, b)]
    rows, pivots = dense_rref(aug)
    if ncols in pivots:
        return None
    particular = [Fraction(0)] * ncols
    for r, pc in enumerate(pivots):
        particular[pc] = rows[r][ncols]
    return tuple(particular), _dense_kernel(rows, pivots, ncols)


def cocycle_residual_matrix(f: StructureTensor, ftilde: StructureTensor, form: int):
    """Compatibility residual as an n x n grid of matrices indexed (m, n),
    built from adjoint slices of both tensors.

    Relation to the row route (tested, not assumed by callers):
    ``matrix[m][n][i][j] == -cocycle_residual_tensor(f, ftilde, form)[i][j][m][n]``.
    """
    if ftilde.dim != f.dim:
        raise DimensionError("tensor dimensions differ")
    if form not in (1, 2, 3, 4):
        raise DimensionError(f"unknown form {form}")
    n = f.dim
    Y = adjoint_matrices(f).output_slot
    dual = adjoint_matrices(ftilde)
    chi_t = dual.first_slot      # chi_t[m][n][k] == -ftilde(m, n, k)
    chi_tp = dual.second_slot    # chi_tp[n][m][k] == -ftilde(m, n, k)

    def weighted_y(m, ncol):
        out = zeros(n, n)
        for k in range(n):
            c = chi_t[m][ncol][k]
            if c != 0:
                out = mat_add(out, mat_scale(c, Y[k]))
        return out

    def cell(m, ncol):
        if form == 1:
            t = mat_add(
                mat_mul(Y[m], chi_tp[ncol]),
                mat_mul(transpose(chi_tp[ncol]), Y[m]),
            )
        elif form == 2:
            t = mat_add(
                mat_mul(transpose(chi_t[m]), Y[ncol]),
                mat_mul(transpose(chi_tp[ncol]), Y[m]),
            )
        elif form == 3:
            t = mat_add(mat_mul(Y[ncol], chi_t[m]), mat_mul(Y[m], chi_tp[ncol]))
        else:
            t = mat_add(
                mat_mul(Y[ncol], chi_t[m]),
                mat_mul(transpose(chi_t[m]), Y[ncol]),
            )
        return mat_sub(t, weighted_y(m, ncol))

    return tuple(tuple(cell(m, ncol) for ncol in range(n)) for m in range(n))


def leibniz_residual_by_brackets(t: StructureTensor, side: Side):
    """Defect of the Leibniz identity on (X_i, X_j, X_k), as [i][j][k][m]."""
    n = t.dim
    e = [tuple(Fraction(a == b) for a in range(n)) for b in range(n)]
    f = dense(t)

    def br(x, y):
        return _grid_bracket(f, x, y)

    def defect(x, y, z):
        if side is Side.RIGHT:  # [[Y,Z],X] - [[Y,X],Z] - [Y,[Z,X]]
            terms = br(br(y, z), x), br(br(y, x), z), br(y, br(z, x))
        else:  # [X,[Y,Z]] - [[X,Y],Z] - [Y,[X,Z]]
            terms = br(x, br(y, z)), br(br(x, y), z), br(y, br(x, z))
        return tuple(a - b - c for a, b, c in zip(*terms))

    cube = {
        (i, j, k): defect(e[i], e[j], e[k])
        for i, j, k in itertools.product(range(n), repeat=3)
    }
    return tuple(
        tuple(tuple(cube[i, j, k] for k in range(n)) for j in range(n))
        for i in range(n)
    )


def quadratic_by_polarization(family, side: Side):
    """The dual defect of ``family`` as one term dict {(a, b): coefficient}
    per component [i][j][k][m] (flattened), a <= b, by polarization of the
    bracket-evaluation defect D: t_a^2 gains D(B_a) and t_a*t_b gains
    D(B_a + B_b) - D(B_a) - D(B_b)."""
    n = family.dim
    basis = family.basis

    def flat(t):
        res = leibniz_residual_by_brackets(t, side)
        return [
            res[i][j][k][m] for i, j, k, m in itertools.product(range(n), repeat=4)
        ]

    single = [flat(b) for b in basis]
    out = [{} for _ in range(n ** 4)]
    for a, b in itertools.combinations_with_replacement(range(len(basis)), 2):
        if a == b:
            coeffs = single[a]
        else:
            both = flat(tensor_sum(basis[a], basis[b]))
            coeffs = [x - y - z for x, y, z in zip(both, single[a], single[b])]
        for terms, c in zip(out, coeffs):
            if c:
                terms[a, b] = c
    return out


def act_by_brackets(case: int, side: Side, t: StructureTensor, x: int, u):
    """[X_x, u]_L (side LEFT) or [u, X_x]_R (side RIGHT) for action case 1..4,
    x 1-based, from brackets of basis vectors on X_a (x) X_b:

    * case 1: [X, X_a] (x) X_b and [X_a, X] (x) X_b;
    * case 2: zero on the left; [X_a, X] (x) X_b + X_a (x) [X_b, X];
    * case 3: [X, X_a] (x) X_b + X_a (x) [X, X_b]; zero on the right;
    * case 4: X_a (x) [X, X_b] and X_a (x) [X_b, X].
    """
    n = t.dim
    f = dense(t)
    e = [tuple(int(a == b) for a in range(n)) for b in range(n)]
    X = e[x - 1]
    left = side is Side.LEFT
    # with_x[a]: [X, X_a] on the left, [X_a, X] on the right
    with_x = [_grid_bracket(f, X, v) if left else _grid_bracket(f, v, X) for v in e]
    on_first = case == 1 or (case == 2 and not left) or (case == 3 and left)
    on_second = case == 4 or (case == 2 and not left) or (case == 3 and left)
    out = [[0] * n for _ in range(n)]
    for a, b in itertools.product(range(n), repeat=2):
        if not u[a][b]:
            continue
        if on_first:
            for m, c in enumerate(with_x[a]):
                out[m][b] += u[a][b] * c
        if on_second:
            for m, c in enumerate(with_x[b]):
                out[a][m] += u[a][b] * c
    return tuple(tuple(row) for row in out)


def tensor_from_first_slot(mats) -> StructureTensor:
    n = len(mats)
    return from_dense(
        tuple(
            tuple(tuple(-mats[i][j][k] for k in range(n)) for j in range(n))
            for i in range(n)
        ),
    )


def tensor_from_second_slot(mats) -> StructureTensor:
    n = len(mats)
    return from_dense(
        tuple(
            tuple(tuple(-mats[m][i][k] for k in range(n)) for m in range(n))
            for i in range(n)
        ),
    )


def tensor_from_output_slot(mats) -> StructureTensor:
    n = len(mats)
    return from_dense(
        tuple(
            tuple(tuple(-mats[k][i][j] for k in range(n)) for j in range(n))
            for i in range(n)
        ),
    )


def _triple_grid(n, component):
    return tuple(
        tuple(tuple(component(m, nc, p) for p in range(n)) for nc in range(n))
        for m in range(n)
    )


def schouten_dense(alg, r, side: Side):
    """Schouten tensor [m][n][p] of r, summed over every (i, j)."""
    n = alg.dim
    f = dense(alg.tensor)
    r = mat(r)

    def component(m, nc, p):
        s = Fraction(0)
        for i, j in itertools.product(range(n), repeat=2):
            c = f[i][j]
            if side is Side.RIGHT:
                s += r[i][nc] * r[j][p] * c[m]
                s += r[m][i] * r[j][p] * c[nc]
            else:
                s += r[m][i] * r[j][p] * c[nc]
                s -= r[nc][i] * r[m][j] * c[p]
        return s

    return _triple_grid(n, component)


def triple_products_dense(alg, r, side: Side):
    """The three triple products [m][n][p] of r, summed over every (i, j)."""
    n = alg.dim
    f = dense(alg.tensor)
    r = mat(r)
    if side is Side.RIGHT:
        terms = (
            lambda m, nc, p, i, j: r[i][nc] * r[j][p] * f[i][j][m],
            lambda m, nc, p, i, j: r[m][i] * r[j][p] * f[i][j][nc],
            lambda m, nc, p, i, j: r[m][i] * r[nc][j] * f[i][j][p],
        )
    else:
        terms = (
            lambda m, nc, p, i, j: -r[nc][i] * r[m][j] * f[i][j][p],
            lambda m, nc, p, i, j: r[m][i] * r[j][p] * f[i][j][nc],
            lambda m, nc, p, i, j: r[i][nc] * r[j][p] * f[i][j][m],
        )
    return tuple(
        _triple_grid(n, lambda m, nc, p, term=term: sum(
            (term(m, nc, p, i, j) for i, j in itertools.product(range(n), repeat=2)),
            Fraction(0),
        ))
        for term in terms
    )


def gybe_residual_dense(alg, r, side: Side):
    """Degree-0 coboundary [x][m][n][p] of ``schouten_dense``: right-handed
    -sum_q f(x,q,m) S(q,n,p), left-handed -sum_q S(m,n,q) f(q,x,p)."""
    n = alg.dim
    f = dense(alg.tensor)
    s = schouten_dense(alg, r, side)

    def component(x, m, nc, p):
        if side is Side.RIGHT:
            return -sum((f[x][q][m] * s[q][nc][p] for q in range(n)), Fraction(0))
        return -sum((s[m][nc][q] * f[q][x][p] for q in range(n)), Fraction(0))

    return tuple(
        tuple(
            tuple(tuple(component(x, m, nc, p) for p in range(n)) for nc in range(n))
            for m in range(n)
        )
        for x in range(n)
    )


def dual_bracket_by_units(alg, r, side: Side) -> StructureTensor:
    """Dual bracket induced by r: the coadjoint operators (negated
    transposes of ``coadjoint_matrices``) applied to unit covectors."""
    n = alg.dim
    r = mat(r)
    coad = coadjoint_matrices(adjoint_matrices(alg.tensor))
    ad_star_left = tuple(mat_neg(transpose(m)) for m in coad.left)
    ad_star_right = tuple(mat_neg(transpose(m)) for m in coad.right)
    unit = [tuple(Fraction(int(t == k)) for t in range(n)) for k in range(n)]
    cube = [[None] * n for _ in range(n)]
    for k, j in itertools.product(range(n), repeat=2):
        out = [Fraction(0)] * n
        for i in range(n):
            if side is Side.RIGHT and r[i][j]:
                img = mat_vec(ad_star_right[i], unit[k])
                out = [o - r[i][j] * v for o, v in zip(out, img)]
            elif side is Side.LEFT and r[k][i]:
                img = mat_vec(ad_star_left[i], unit[j])
                out = [o + r[k][i] * v for o, v in zip(out, img)]
        cube[k][j] = tuple(out)
    return from_dense(tuple(tuple(plane) for plane in cube))


def _combo(n, terms):
    """sum c * m over the (scalar, n x n matrix) pairs ``terms``."""
    out = zeros(n, n)
    for c, m in terms:
        if c:
            out = mat_add(out, mat_scale(c, m))
    return out


def _actions_by_brackets(case, t: StructureTensor):
    """The pair (L, R): L(x, u) = [X_x, u]_L and R(x, u) = [u, X_x]_R, x
    0-based, through ``act_by_brackets``."""
    return (
        lambda x, u: act_by_brackets(case.value, Side.LEFT, t, x + 1, u),
        lambda x, u: act_by_brackets(case.value, Side.RIGHT, t, x + 1, u),
    )


def coboundary0_dense(alg, case, side: Side, m) -> CochainMap:
    """Degree-0 coboundary through the bracket-evaluation actions: X maps to
    [X, m]_L on the right-handed complex and to -[m, X]_R on the left."""
    n = alg.dim
    L, R = _actions_by_brackets(case, alg.tensor)
    return CochainMap(n, 1, tuple(
        L(x, m) if side is Side.RIGHT else mat_scale(-1, R(x, m)) for x in range(n)
    ))


def coboundary1_dense(alg, case, side: Side, w) -> CochainMap:
    """Degree-1 coboundary through the bracket-evaluation actions:
    (X, Y) maps to [X, w(Y)]_L + [w(X), Y]_R - w([X, Y])."""
    n = alg.dim
    f = dense(alg.tensor)
    L, R = _actions_by_brackets(case, alg.tensor)
    v = w.values
    return CochainMap(n, 2, tuple(
        tuple(
            _combo(n, [(1, L(x, v[y])), (1, R(y, v[x]))]
                   + [(-c, v[k]) for k, c in enumerate(f[x][y])])
            for y in range(n)
        )
        for x in range(n)
    ))


def coboundary2(alg, case, side: Side, w) -> CochainMap:
    """Degree-2 coboundary of an arity-2 cochain, through the
    bracket-evaluation actions: at (X, Y, Z) it is
    [X, w(Y, Z)]_L - [w(X, Y), Z]_R - w([X, Y], Z) + w(X, [Y, Z]), plus
    [w(X, Z), Y]_R + w([X, Z], Y) on the right-handed complex and
    -[Y, w(X, Z)]_L - w(Y, [X, Z]) on the left-handed one."""
    if w.arity != 2:
        raise DimensionError("coboundary2 expects an arity-2 cochain")
    n = alg.dim
    f = dense(alg.tensor)
    L, R = _actions_by_brackets(case, alg.tensor)
    v = w.values

    def at(x, y, z):
        terms = [(1, L(x, v[y][z])), (-1, R(z, v[x][y]))]
        terms += [(-c, v[k][z]) for k, c in enumerate(f[x][y])]
        terms += [(c, v[x][k]) for k, c in enumerate(f[y][z])]
        if side is Side.RIGHT:
            terms += [(1, R(y, v[x][z]))] + [(c, v[k][y]) for k, c in enumerate(f[x][z])]
        else:
            terms += [(-1, L(y, v[x][z]))] + [(-c, v[y][k]) for k, c in enumerate(f[x][z])]
        return _combo(n, terms)

    return CochainMap(n, 3, tuple(
        tuple(tuple(at(x, y, z) for z in range(n)) for y in range(n)) for x in range(n)
    ))


def module_axiom_residuals(case, alg, sides):
    """Module-axiom defects of the case's action pair on the tensor square,
    through the bracket-evaluation actions, for the axiom sets of ``sides``.

    Returns labelled rank-6 arrays, one per axiom, indexed
    ``[x][y][a][b][m][n]``: basis pair (X_x, X_y), module basis element
    X_a (x) X_b, coefficient slot (m, n).  Each axiom reads A - B - C = 0.
    """
    n = alg.dim
    f = dense(alg.tensor)
    L, R = _actions_by_brackets(case, alg.tensor)

    def on(op, x, y, u):  # the action of [X_x, X_y]
        return _combo(n, [(c, op(k, u)) for k, c in enumerate(f[x][y])])

    axioms = []
    if Side.RIGHT in sides:
        axioms += [
            ("right-1", lambda x, y, u: (on(L, x, y, u), R(y, L(x, u)), L(x, L(y, u)))),
            ("right-2", lambda x, y, u: (R(x, R(y, u)), R(y, R(x, u)), on(R, y, x, u))),
            ("right-3", lambda x, y, u: (R(x, L(y, u)), on(L, y, x, u), L(y, R(x, u)))),
        ]
    if Side.LEFT in sides:
        axioms += [
            ("left-1", lambda x, y, u: (on(R, x, y, u), R(y, R(x, u)), L(x, R(y, u)))),
            ("left-2", lambda x, y, u: (L(x, R(y, u)), R(y, L(x, u)), on(R, x, y, u))),
            ("left-3", lambda x, y, u: (L(x, L(y, u)), on(L, x, y, u), L(y, L(x, u)))),
        ]
    units = [[tuple(tuple(int((a, b) == (p, q)) for q in range(n)) for p in range(n))
              for b in range(n)] for a in range(n)]

    def defect(parts):
        a, b, c = parts
        return mat_sub(mat_sub(a, b), c)

    return [
        (label, tuple(
            tuple(
                tuple(tuple(defect(parts(x, y, units[a][b])) for b in range(n))
                      for a in range(n))
                for y in range(n)
            )
            for x in range(n)
        ))
        for label, parts in axioms
    ]


def cocycle_residual_tensor(f: StructureTensor, ftilde: StructureTensor, form: int):
    """Defect of compatibility form 1..4 as a tensor [i][j][m][n], 0-based:
    the rows of ``solver.cocycle_system(f, form)`` applied to ``ftilde``."""
    return nest4(apply_system(cocycle_system(f, form), ftilde), f.dim)


@dataclass(frozen=True)
class BialgebraVerdict:
    scenario_key: str
    cocycle_ok: bool
    dual_leibniz_ok: bool
    witness: tuple | None  # (check-name, (indices), value) for the first defect

    @property
    def ok(self) -> bool:
        return self.cocycle_ok and self.dual_leibniz_ok


def verify_bialgebra(alg, sc, ftilde: StructureTensor) -> BialgebraVerdict:
    """Check one candidate dual table against one scenario."""
    sc.require(alg)
    if ftilde.dim != alg.dim:
        raise DimensionError("dual tensor dimension does not match the algebra")
    hit = first_nonzero(sparse4(cocycle_residual_tensor(alg.tensor, ftilde, sc.form)))
    witness = None if hit is None else ("cocycle", hit[0], hit[1])
    dhit = first_nonzero(leibniz_residual(ftilde, sc.dual_side))
    if witness is None and dhit is not None:
        witness = ("dual-leibniz", dhit[0], dhit[1])
    return BialgebraVerdict(sc.key, hit is None, dhit is None, witness)


def family_is_cocycle(alg, sc, family) -> bool:
    """Every generic member of the family solves the scenario's linear stage."""
    system = assemble_cocycle_system(alg, sc)
    return all(annihilates(system, b) for b in family.basis)


def family_verdict(alg, sc, family):
    """Symbolic ``verify_bialgebra`` for a whole parameterized family."""
    cocycle_ok = family_is_cocycle(alg, sc, family)
    dual_ok = dual_leibniz_residual(family, sc.dual_side).is_identically_zero()
    return cocycle_ok, dual_ok
