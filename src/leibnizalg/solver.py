"""Scenario table, linear cocycle systems, exact nullspaces and the
quadratic residuals that sit on top of them.

Compatibility form k linking a bracket table to a candidate dual table is
the degree-1 cocycle condition under action case k: the rows built by
``cocycle_system`` are minus ``cohomology.coboundary_entries`` of degree 1,
read on the cochain X_k -> sum ftilde(a, b, k) X_a (x) X_b.

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
``Fraction`` per term.  The cocycle rows sum the integer coboundary
coefficients into ``linalg.sparse_rows``, which builds one ``Fraction`` per
nonzero entry for ``rref``.  The quadratic stage scales the family's basis
to integers, accumulates each coefficient of t_u*t_v under the integer key
u*d + v, and hands every component to ``Poly`` as sorted monomials with
integer numerators over the square of that scale.

Column contract: the unknown dual entries are flattened in lexicographic
(m, n, k) order, 1-based, and parameters are named t1..td in the order of
the free columns.
"""

from __future__ import annotations

import functools
import itertools
import math
from fractions import Fraction

from .actions import ActionCase
from .cohomology import coboundary_entries
from .core import LeibnizAlgebra, Side, StructureTensor, leibniz_terms
from .errors import DimensionError, quote
from .linalg import Row, kernel_basis, sparse_rows
from .poly import Poly
from .record import Frozen, set_field


class Scenario(Frozen):
    __slots__ = ("key", "form", "dual_side")

    def __init__(self, key: str, form: int, dual_side: Side):
        set_field(self, "key", key)
        set_field(self, "form", form)
        set_field(self, "dual_side", dual_side)

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
    __slots__ = ("dim", "form", "matrix")

    def __init__(self, dim: int, form: int, matrix: tuple[Row, ...]):
        set_field(self, "dim", dim)
        set_field(self, "form", form)
        set_field(self, "matrix", matrix)  # n^4 sparse rows over n^3 columns


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
    n = t.dim
    # the degree-1 coboundary has one formula on both complexes
    den, entries = coboundary_entries(t, ActionCase(form), Side.RIGHT, 1)
    rows = sparse_rows(
        (((i * n + j) * n * n + q, p * n + k, -c) for (i, j), q, (k,), p, c in entries),
        n ** 4,
        den,
    )
    return LinearSystem(n, form, rows)


def assemble_cocycle_system(alg: LeibnizAlgebra, sc: Scenario) -> LinearSystem:
    """The cocycle system of the scenario's form, for a compatible algebra."""
    sc.require(alg)
    return cocycle_system(alg.tensor, sc.form)


class DualFamily(Frozen):
    """Affine-linear family sum_a t_a * basis_a of candidate dual tables."""

    __slots__ = ("dim", "basis", "parameters")

    def __init__(self, dim: int, basis: tuple[StructureTensor, ...], parameters: tuple[str, ...]):
        set_field(self, "dim", dim)
        set_field(self, "basis", basis)
        set_field(self, "parameters", parameters)

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

    ``polynomials[x]`` is the residual component with 1-based provenance
    ``provenance[x] = (i, j, k, m)``; evaluating every polynomial at an
    assignment agrees entry for entry with running ``leibniz_residual`` on
    the corresponding member tensor.
    """

    __slots__ = ("parameters", "polynomials", "provenance")

    def __init__(self, parameters: tuple[str, ...], polynomials: tuple[Poly, ...],
                 provenance: tuple[tuple[int, int, int, int], ...]):
        set_field(self, "parameters", parameters)
        set_field(self, "polynomials", polynomials)
        set_field(self, "provenance", provenance)

    def is_identically_zero(self) -> bool:
        return all(p.is_zero() for p in self.polynomials)


@functools.cache
def _components(n: int):
    """The n^4 residual components, 0-based, and their 1-based provenance."""
    components = tuple(itertools.product(range(n), repeat=4))
    return components, tuple((i + 1, j + 1, k + 1, m + 1) for i, j, k, m in components)


def dual_leibniz_residual(family: DualFamily, side: Side) -> QuadraticResidual:
    """Quadratic polynomials whose simultaneous vanishing marks the members
    of the family whose bracket satisfies the requested identity; every
    polynomial is integer numerators over the same denominator.

    The components with no terms share one empty ``Poly``; nothing mutates
    a ``Poly``.  An empty family (trivial kernel) has nothing to constrain
    and gets an empty polynomial list.
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
    # component -> {u*d + v: coefficient of t_u*t_v}, u <= v
    quad = {}
    for c, s, a, b in leibniz_terms(forms, side):
        terms = quad.get(c)
        if terms is None:
            terms = quad[c] = {}
        second = forms[b]
        for u, x in forms[a]:
            x *= s
            for v, y in second:
                key = u * d + v if u <= v else v * d + u
                terms[key] = terms.get(key, 0) + x * y
    components, provenance = _components(n)
    den = scale * scale
    empty = Poly({}, den)
    # the key u*d + v with u <= v is the monomial (u, v); sorted keys are
    # monomials in ascending order
    polys = tuple(
        Poly({divmod(key, d): x for key, x in sorted(terms.items()) if x}, den)
        if (terms := quad.get(c)) else empty
        for c in components
    )
    return QuadraticResidual(family.parameters, polys, provenance)


class SweepEntry(Frozen):
    __slots__ = ("scenario", "family", "quadratic")

    def __init__(self, scenario: Scenario, family: DualFamily, quadratic: QuadraticResidual):
        set_field(self, "scenario", scenario)
        set_field(self, "family", family)
        set_field(self, "quadratic", quadratic)


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
