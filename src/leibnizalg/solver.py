"""Scenario table, linear cocycle systems, exact nullspaces and the
quadratic residuals that sit on top of them.

Compatibility form k linking a bracket table to a candidate dual table is
the degree-1 cocycle condition under action case k: ``cocycle_system`` is
the rows of the degree-1 ``cohomology.coboundary_matrix``, negated.  Its
columns are the dual entries, since the dual entry (a, b, k) is the
component (k, a, b) of the cochain X_k -> sum ftilde(a, b, k) X_a (x) X_b,
and its rows the components (i, j, m, n) of the coboundary, both in
lexicographic order.

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
``Fraction`` per term.  The system's rows are the coboundary's integer
numerators, which ``rref`` reads as they are: scaling rows keeps the kernel.
The quadratic stage scales the family's basis to integers, runs
``core.leibniz_terms`` with each entry's linear form in t1..td as its value,
accumulates each coefficient of t_u*t_v under the integer key u*d + v, per
component at its flat index, and keeps every nonzero component as a
``Poly``, a quadratic form over the square of that scale, under those keys
in ascending order.  A ``QuadraticResidual`` lists those components only,
like the residual dicts of ``core.leibniz_residual``: an empty list means
the family satisfies the identity.

Column contract: the unknown dual entries are flattened in lexicographic
(m, n, k) order, 1-based, and parameters are named t1..td in the order of
the free columns.
"""

from __future__ import annotations

from math import gcd

from .actions import ActionCase
from .cohomology import coboundary_matrix
from .core import LeibnizAlgebra, Side, StructureTensor, component, leibniz_terms
from .errors import DimensionError, quote
from .linalg import kernel_basis, over_lcm
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
    integers: the system's equations scaled by a positive common factor."""

    __slots__ = ("dim", "form", "matrix")


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
    _, rows = coboundary_matrix(t, ActionCase(form), None)
    return LinearSystem(t.dim, form, tuple(tuple((c, -x) for c, x in row) for row in rows))


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


class Poly:
    """A quadratic form in d parameters: ``terms``, not empty, maps u*d + v
    for each monomial t_u*t_v (0-based, u <= v), in ascending order, to its
    coefficient's nonzero integer numerator over the positive denominator
    ``den``.  Nothing mutates a ``Poly`` once built."""

    __slots__ = ("terms", "den")

    def __init__(self, terms: dict[int, int], den: int):
        self.terms = terms
        self.den = den


class QuadraticResidual(Frozen):
    """Dual-handedness defect of a family, componentwise in the parameters.

    Only the nonzero components are listed, in lexicographic order:
    ``polynomials[x]`` is the residual component with 1-based provenance
    ``provenance[x] = (i, j, k, m)``, and a component not listed is zero.
    Evaluating the polynomials at an assignment agrees component for
    component with running ``leibniz_residual`` on the corresponding member
    tensor; the parameters are those of the family.
    """

    __slots__ = ("polynomials", "provenance")

    def is_identically_zero(self) -> bool:
        return not self.polynomials

    def render(self, names) -> list[str]:
        """Deterministic human/JSON form of each polynomial, e.g. ``t1*t2 -
        2/3*t2*t2``: monomials in stored order, each coefficient as ``p`` or
        ``p/q`` in lowest terms and 1 left out; ``names`` are the family's
        parameters.  The polynomials share one ``den``, so each numerator's
        signed prefix and each monomial's name are built on first use."""
        prefixes, monomials, out = {}, {}, []
        for p in self.polynomials:
            den, parts = p.den, []
            for key, x in p.terms.items():
                head = prefixes.get(x)
                if head is None:
                    if len(prefixes) > 4096:  # dense inputs: numerators seldom repeat
                        prefixes.clear()
                    g = gcd(x, den)
                    size = str(abs(x) // g) if g == den else f"{abs(x) // g}/{den // g}"
                    sign = " - " if x < 0 else " + "
                    head = prefixes[x] = sign if size == "1" else f"{sign}{size}*"
                name = monomials.get(key)
                if name is None:
                    u, v = divmod(key, len(names))
                    name = monomials[key] = f"{names[u]}*{names[v]}"
                parts.append(head + name)
            text = "".join(parts)
            out.append(text[3:] if text[1] == "+" else "-" + text[3:])
        return out


def dual_leibniz_residual(family: DualFamily, side: Side) -> QuadraticResidual:
    """Quadratic polynomials whose simultaneous vanishing marks the members
    of the family whose bracket satisfies the requested identity; every
    polynomial is integer numerators over the same denominator.

    A component whose terms all cancel, or that has none, is left out.  An
    empty family (trivial kernel) has nothing to constrain and gets an
    empty polynomial list.
    """
    if not family.basis:
        return QuadraticResidual((), ())
    n, d = family.dim, len(family.basis)
    # integer coefficients over a common denominator, so the products below
    # need no Fraction arithmetic
    entries = [
        ((i - 1, j - 1, k - 1), p, v)
        for p, b in enumerate(family.basis)
        for (i, j, k), v in b.items()
    ]
    scale, values = over_lcm([v for _, _, v in entries])
    forms = {}  # entry (i, j, k), 0-based -> linear form [(parameter, coefficient)]
    for (e, p, _), x in zip(entries, values):
        forms.setdefault(e, []).append((p, x))
    # flat component -> {u*d + v: coefficient of t_u*t_v}, u <= v
    quad = {}
    for s, form, offset, groups in leibniz_terms(forms, side, n):
        first = [(u, u * d, s * x) for u, x in form]
        for r, pairs in groups.items():
            for second, m in pairs:
                c = offset + r + m
                terms = quad.get(c)
                if terms is None:
                    terms = quad[c] = {}
                for u, ud, x in first:
                    for v, y in second:
                        key = ud + v if u <= v else v * d + u
                        terms[key] = terms.get(key, 0) + x * y
    den = scale * scale
    polys, provenance = [], []
    shared = {}  # one int object per key, held by every polynomial that has it
    for c, acc in sorted(quad.items()):
        terms = {shared.setdefault(key, key): x for key in sorted(acc) if (x := acc[key])}
        if terms:
            polys.append(Poly(terms, den))
            provenance.append(component(c, n, 1))
    return QuadraticResidual(tuple(polys), tuple(provenance))


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
