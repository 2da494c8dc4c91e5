"""Scenario table, linear cocycle systems, exact nullspaces and the
quadratic residuals that sit on top of them.

Compatibility form k linking a bracket table to a candidate dual table is
the degree-1 cocycle condition under action case k: ``cocycle_system`` is
minus the degree-1 ``cohomology.coboundary_matrix``, read with one
``linalg.sparse_rows`` call.  Its columns are the dual entries, since the
dual entry (a, b, k) is the component (k, a, b) of the cochain
X_k -> sum ftilde(a, b, k) X_a (x) X_b, and its rows the components
(i, j, m, n) of the coboundary, both in lexicographic order.

A scenario picks one of the four compatibility forms together with a
handedness for the dual bracket; the six admissible pairings are fixed
below in the order their defining systems are conventionally listed.  A
scenario of form k applies to an algebra when action case k has a complex
over it (``ActionCase.complexes``): forms 1 and 4 need a left- or
right-handed algebra, form 2 a right-handed one and form 3 a left-handed
one.  The solver handles the linear stage exactly and exposes the quadratic
stage as polynomials in the family parameters; it never attempts to solve
the quadratic variety.

Both stages run on integers over one common denominator and build no
``Fraction`` per term.  The system's rows are integer numerators over its
``den``, which ``rref`` reads as they are: scaling rows keeps the kernel.
The quadratic stage scales the family's basis to integers, accumulates each
coefficient of t_u*t_v under the integer key u*d + v, per component at its
flat index (``core.leibniz_terms``), and hands every nonzero component to
``Poly`` over the square of that scale, one monomial tuple per key.  A
``QuadraticResidual`` lists those components only, like the residual dicts
of ``core.leibniz_residual``: an empty list means the family satisfies the
identity.

Column contract: the unknown dual entries are flattened in lexicographic
(m, n, k) order, 1-based, and parameters are named t1..td in the order of
the free columns.
"""

from __future__ import annotations

import math

from .actions import ActionCase
from .cohomology import coboundary_matrix
from .core import LeibnizAlgebra, Side, StructureTensor, component, leibniz_terms
from .errors import DimensionError, quote
from .linalg import kernel_basis, sparse_rows
from .poly import Poly
from .record import Frozen


class Scenario(Frozen):
    __slots__ = ("key", "form", "dual_side")

    def compatible(self, alg: LeibnizAlgebra) -> bool:
        return bool(ActionCase(self.form).complexes(alg))

    def require(self, alg: LeibnizAlgebra) -> None:
        alg.require(f"scenario {self.key}", *ActionCase(self.form).sides)


SCENARIOS: tuple[Scenario, ...] = (
    Scenario("lr-1-r", 1, Side.RIGHT),
    Scenario("r-2-r", 2, Side.RIGHT),
    Scenario("r-2-l", 2, Side.LEFT),
    Scenario("lr-4-l", 4, Side.LEFT),
    Scenario("l-3-r", 3, Side.RIGHT),
    Scenario("l-3-l", 3, Side.LEFT),
)

SCENARIO_BY_KEY = {sc.key: sc for sc in SCENARIOS}


def scenario(key: str) -> Scenario:
    try:
        return SCENARIO_BY_KEY[key.lower()]
    except KeyError:
        raise DimensionError(
            f"unknown scenario {quote(key)}; choose from "
            + ", ".join(sc.key for sc in SCENARIOS)
        ) from None


class LinearSystem(Frozen):
    """``matrix``: the n^4 sparse rows over n^3 columns of a cocycle system,
    integer numerators over the positive integer ``den``."""

    __slots__ = ("dim", "form", "matrix", "den")


def unflatten_tensor(dim: int, vec) -> StructureTensor:
    """The tensor whose entries, in the column order, are the vector ``vec``."""
    entries = {}
    for x, v in enumerate(vec):
        if v:
            mn, k = divmod(x, dim)
            entries[mn // dim + 1, mn % dim + 1, k + 1] = v
    return StructureTensor.from_entries(dim, entries)


def cocycle_system(t: StructureTensor, form: int) -> LinearSystem:
    """Linear constraints on a dual table imposed by compatibility form 1..4.

    One row per residual component (i, j, m, n), lexicographic and 1-based:
    component (m, n) of minus the degree-1 coboundary, under action case
    ``form``, of the cochain X_k -> sum ftilde(a, b, k) X_a (x) X_b at
    (X_i, X_j).
    """
    if form not in (1, 2, 3, 4):
        raise DimensionError(f"unknown form {form}")
    # the degree-1 coboundary has one formula on both complexes
    den, columns = coboundary_matrix(t, ActionCase(form), None)
    rows = sparse_rows(((r, c, -x) for c, col in enumerate(columns) for r, x in col), t.dim ** 4)
    return LinearSystem(t.dim, form, rows, den)


def assemble_cocycle_system(alg: LeibnizAlgebra, sc: Scenario) -> LinearSystem:
    """The cocycle system of the scenario's form, for a compatible algebra."""
    sc.require(alg)
    return cocycle_system(alg.tensor, sc.form)


class DualFamily(Frozen):
    """Affine-linear family sum_a t_a * basis_a of candidate dual tables."""

    __slots__ = ("dim", "basis", "parameters")

    def __len__(self):
        return len(self.basis)


def nullspace(system: LinearSystem) -> DualFamily:
    """Exact kernel of the linear stage as a parameterized family.

    Deterministic: leftmost-pivot elimination; free columns in ascending
    flattened order become t1..td in that order.  A full-rank system gives
    an empty family.
    """
    vecs = kernel_basis(system.matrix, system.dim ** 3)
    basis = tuple(unflatten_tensor(system.dim, v) for v in vecs)
    params = tuple(f"t{a + 1}" for a in range(len(basis)))
    return DualFamily(system.dim, basis, params)


class QuadraticResidual(Frozen):
    """Dual-handedness defect of a family, componentwise in the parameters.

    Only the nonzero components are listed, in lexicographic order:
    ``polynomials[x]`` is the residual component with 1-based provenance
    ``provenance[x] = (i, j, k, m)``, and a component not listed is zero.
    Evaluating the polynomials at an assignment agrees component for
    component with running ``leibniz_residual`` on the corresponding member
    tensor.
    """

    __slots__ = ("parameters", "polynomials", "provenance")

    def is_identically_zero(self) -> bool:
        return not self.polynomials


def dual_leibniz_residual(family: DualFamily, side: Side) -> QuadraticResidual:
    """Quadratic polynomials whose simultaneous vanishing marks the members
    of the family whose bracket satisfies the requested identity; every
    polynomial is integer numerators over the same denominator.

    A component whose terms all cancel, or that has none, is left out.  An
    empty family (trivial kernel) has nothing to constrain and gets an
    empty polynomial list.
    """
    if not family.basis:
        return QuadraticResidual((), (), ())
    n, d = family.dim, len(family.basis)
    # integer coefficients over a common denominator, so the products below
    # need no Fraction arithmetic
    entries = [
        ((i - 1, j - 1, k - 1), p, v)
        for p, b in enumerate(family.basis)
        for (i, j, k), v in b.items()
    ]
    scale = math.lcm(*(v.denominator for _, _, v in entries))
    forms = {}  # entry (i, j, k), 0-based -> linear form [(parameter, coefficient)]
    for e, p, v in entries:
        forms.setdefault(e, []).append((p, v.numerator * (scale // v.denominator)))
    # flat component -> {u*d + v: coefficient of t_u*t_v}, u <= v
    quad = {}
    for s, a, offset, pairs in leibniz_terms(forms, side, n):
        first = [(u, u * d, s * x) for u, x in forms[a]]
        for b, o in pairs:
            terms = quad.get(offset + o)
            if terms is None:
                terms = quad[offset + o] = {}
            second = forms[b]
            for u, ud, x in first:
                for v, y in second:
                    key = ud + v if u <= v else v * d + u
                    terms[key] = terms.get(key, 0) + x * y
    den = scale * scale
    polys, provenance = [], []
    monomial = {}  # u*d + v -> (u, v): one tuple per monomial, not per term
    for c in sorted(quad):
        monos = {
            monomial.get(key) or monomial.setdefault(key, divmod(key, d)): x
            for key, x in quad[c].items() if x
        }
        if monos:
            polys.append(Poly(monos, den))
            provenance.append(component(c, n, 1))
    return QuadraticResidual(family.parameters, tuple(polys), tuple(provenance))


class SweepEntry(Frozen):
    __slots__ = ("scenario", "family", "quadratic")


def scenario_sweep(alg: LeibnizAlgebra, key: str | None = None) -> dict[str, SweepEntry]:
    """Solve the linear stage of every compatible scenario, in table order,
    or of scenario ``key`` alone.

    Scenarios of one form share one system, solved once.
    """
    out: dict[str, SweepEntry] = {}
    families: dict[int, DualFamily] = {}
    for sc in SCENARIOS:
        if key not in (None, sc.key) or not sc.compatible(alg):
            continue
        if sc.form not in families:
            families[sc.form] = nullspace(assemble_cocycle_system(alg, sc))
        family = families[sc.form]
        quadratic = dual_leibniz_residual(family, sc.dual_side)
        out[sc.key] = SweepEntry(sc, family, quadratic)
    return out
