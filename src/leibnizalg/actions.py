"""The four two-sided actions of an algebra on its tensor square.

Elements of the tensor square are coefficient matrices ``u`` with
``u[a][b]`` multiplying ``X_{a+1} (x) X_{b+1}``.  Per case, with ``L`` the
left bracket slot and ``R`` the right one:

* case 1:  [X, u]_L acts on the first factor from the left,
           [u, X]_R acts on the first factor from the right;
* case 2:  [X, u]_L = 0 (right-handed algebras only),
           [u, X]_R acts on both factors from the right;
* case 3:  [X, u]_L acts on both factors from the left (left-handed only),
           [u, X]_R = 0;
* case 4:  [X, u]_L acts on the second factor from the left,
           [u, X]_R acts on the second factor from the right.

The table ``REACH`` is the one encoding of this list.  ``action_operators``
turns it into one sparse operator per basis element; the module axioms
here, the coboundaries of ``cohomology``, the compatibility rows of
``solver`` and delta(r) in ``rmatrix`` are all built from those operators.
They are the one action table: integer coefficients over one common
denominator, the lcm of the bracket's denominators, built once per
(tensor, case, side) in a bounded cache.  Every module axiom is of degree 2
in the bracket, so its defect on the integer table is den^2 times the
rational one and a verdict needs no division.  The readers that return
rational values (the coboundaries, delta(r)) divide once per nonzero
output entry.

What a case needs is decided in one place: ``ActionCase.required_side``
(case 2 a right-handed algebra, case 3 a left-handed one), from which
``ActionCase.complexes`` derives the handednesses the case acts with on a
given algebra.  The module-axiom sets checked here, the complexes of the
report's selfcheck and the scenarios of ``solver`` all read it.

Each case makes the tensor square a module over a compatible algebra, for
the module-axiom set matching the case's handedness.  The verdict of each
axiom is exposed so that claim is checkable rather than assumed.
Measured outcome on the bundled corpus (see tests): cases 1 and 4 satisfy
the right-handed axiom set on right-compatible algebras and the left-handed
set on left-compatible ones; case 2 satisfies the right-handed set only and
case 3 the left-handed set only.  On a two-sided algebra the crossed sets
(case 2 with the left-handed axioms, case 3 with the right-handed ones) do
fail; the library does not compute them, and the tests measure them through
``tests/oracles.module_axiom_residuals``.
"""

from __future__ import annotations

import enum
import functools
import itertools

from .core import LeibnizAlgebra, Side, StructureTensor, bracket_rows

# A sparse operator on the tensor square: one column dict per basis element
# X_a (x) X_b, at index a*n + b, mapping an output index to its coefficient.
Operator = list


class ActionCase(enum.Enum):
    CASE1 = 1
    CASE2 = 2
    CASE3 = 3
    CASE4 = 4

    @property
    def required_side(self) -> Side | None:
        """The handedness the case needs of the algebra; None for cases 1
        and 4, which act with either.  The one table of what a case needs."""
        if self is ActionCase.CASE2:
            return Side.RIGHT
        if self is ActionCase.CASE3:
            return Side.LEFT
        return None

    @property
    def sides(self) -> tuple[Side, ...]:
        """The handednesses the case acts with on a two-sided algebra: its
        required side, or both."""
        need = self.required_side
        return (need,) if need else tuple(Side)

    def complexes(self, alg: LeibnizAlgebra) -> tuple[Side, ...]:
        """The handednesses, in ``Side`` order, of the complexes and
        module-axiom sets the case has over ``alg``: those of ``sides`` that
        ``alg`` admits.  Empty when there are none, as for cases 1 and 4 on
        a ``neither`` algebra."""
        return tuple(side for side in self.sides if alg.admits(side))

    def require(self, alg: LeibnizAlgebra) -> None:
        if self.required_side:
            alg.require(f"action case {self.value}", self.required_side)


# The one table of the four actions: the tensor factors (0 = first,
# 1 = second) that the bracket with X reaches, per case and side.  Side LEFT
# is [X, u]_L, the bracket [X, .] on each reached factor; side RIGHT is
# [u, X]_R, the bracket [., X].
REACH = {
    (ActionCase.CASE1, Side.LEFT): (0,),
    (ActionCase.CASE1, Side.RIGHT): (0,),
    (ActionCase.CASE2, Side.LEFT): (),
    (ActionCase.CASE2, Side.RIGHT): (0, 1),
    (ActionCase.CASE3, Side.LEFT): (0, 1),
    (ActionCase.CASE3, Side.RIGHT): (),
    (ActionCase.CASE4, Side.LEFT): (1,),
    (ActionCase.CASE4, Side.RIGHT): (1,),
}


@functools.lru_cache(maxsize=32)
def action_operators(
    t: StructureTensor, case: ActionCase, side: Side
) -> tuple[int, tuple[Operator, ...]]:
    """The action of each basis element X_x (0-based x) as a sparse operator
    with integer entries over den, the lcm of the denominators of t: (den,
    ops), an entry c standing for c/den.

    Built once per (tensor, case, side) and shared between callers, which
    must not mutate it; ``compose`` and ``lin`` build new operators.
    """
    n = t.dim
    den, rows = bracket_rows(t)
    reach = REACH[case, side]
    ops = []
    for x in range(n):
        # bracket of X_x with X_a: the nonzero (output index, coefficient)
        br = [rows.get((x, a) if side is Side.LEFT else (a, x), ()) for a in range(n)]
        op = []
        for a, b in itertools.product(range(n), repeat=2):
            col = {}
            for factor in reach:
                for m, c in br[b if factor else a]:
                    q = a * n + m if factor else m * n + b
                    col[q] = col.get(q, 0) + c
            op.append({q: c for q, c in col.items() if c})
        ops.append(op)
    return den, tuple(ops)


def compose(p: Operator, q: Operator) -> Operator:
    """p after q."""
    out = []
    for col in q:
        acc = {}
        for k, c in col.items():
            for r, d in p[k].items():
                acc[r] = acc.get(r, 0) + c * d
        out.append({r: c for r, c in acc.items() if c})
    return out


def lin(size: int, terms) -> Operator:
    """The linear combination of (scalar, operator) pairs, operators with
    ``size`` columns."""
    out = [{} for _ in range(size)]
    for s, op in terms:
        for acc, col in zip(out, op):
            for r, c in col.items():
                acc[r] = acc.get(r, 0) + s * c
    return [{r: c for r, c in acc.items() if c} for acc in out]


def _sparse_residuals(case: ActionCase, alg: LeibnizAlgebra):
    """Yields (label, defects) for the axiom sets of ``case.complexes``:
    defects[x][y] is the axiom's defect on the basis pair (X_x, X_y),
    0-based, as a sparse operator."""
    case.require(alg)
    sides = case.complexes(alg)
    n = alg.dim
    _, rows = bracket_rows(alg.tensor)
    _, L = action_operators(alg.tensor, case, Side.LEFT)
    _, R = action_operators(alg.tensor, case, Side.RIGHT)
    o = compose

    def on(ops, x, y):  # the action of [X_x, X_y]
        return lin(n * n, ((c, ops[k]) for k, c in rows.get((x, y), ())))

    # each axiom reads  A - B - C = 0  for the (A, B, C) listed
    axioms = []
    if Side.RIGHT in sides:
        axioms += [
            ("right-1", lambda x, y: (on(L, x, y), o(R[y], L[x]), o(L[x], L[y]))),
            ("right-2", lambda x, y: (o(R[x], R[y]), o(R[y], R[x]), on(R, y, x))),
            ("right-3", lambda x, y: (o(R[x], L[y]), on(L, y, x), o(L[y], R[x]))),
        ]
    if Side.LEFT in sides:
        axioms += [
            ("left-1", lambda x, y: (on(R, x, y), o(R[y], R[x]), o(L[x], R[y]))),
            ("left-2", lambda x, y: (o(L[x], R[y]), o(R[y], L[x]), on(R, x, y))),
            ("left-3", lambda x, y: (o(L[x], L[y]), on(L, x, y), o(L[y], L[x]))),
        ]
    for label, parts in axioms:
        yield label, [
            [lin(n * n, zip((1, -1, -1), parts(x, y))) for y in range(n)] for x in range(n)
        ]


def _vanish(defects) -> bool:
    return not any(col for row in defects for op in row for col in op)


def axiom_report(case: ActionCase, alg: LeibnizAlgebra) -> dict[str, bool]:
    """Per-axiom verdicts for the case's claimed axiom sets."""
    return {label: _vanish(d) for label, d in _sparse_residuals(case, alg)}
