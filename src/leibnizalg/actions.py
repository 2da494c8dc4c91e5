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
turns it into one sparse operator per basis element, the one action table:
integer coefficients over one common denominator, the lcm of the bracket's
denominators, built once per tensor, case and side and kept on the tensor.
The module axioms (the term table ``AXIOMS``), the coboundaries of
``cohomology``, the compatibility rows of ``solver`` and delta(r) in
``rmatrix`` are all built from those operators.  Every module axiom is of
degree 2 in the bracket, so its defect on the integer table is den^2 times
the rational one and a verdict needs no division.  The readers that return
rational values (the coboundaries, delta(r)) divide once per nonzero
output entry.

What a case needs is decided in one place: ``ActionCase.required_side``
(case 2 a right-handed algebra, case 3 a left-handed one), from which
``ActionCase.complexes`` derives the handednesses the case acts with on a
given algebra.  The module-axiom sets checked here, the complexes of the
report's selfcheck and the scenarios of ``solver`` all read it.

Each case makes the tensor square a module over a compatible algebra, for
the module-axiom set matching the case's handedness; ``axiom_report`` gives
the verdict of each axiom of that set, so the claim is checked, not assumed.
Measured outcome on the bundled corpus (see tests): cases 1 and 4 satisfy
the right-handed axiom set on right-compatible algebras and the left-handed
set on left-compatible ones; case 2 satisfies the right-handed set only and
case 3 the left-handed set only.  On a two-sided algebra the crossed sets
(case 2 with the left-handed axioms, case 3 with the right-handed ones) do
fail; the report leaves them out, and the tests evaluate them with
``axiom_holds`` and ``tests/oracles.module_axiom_residuals``.
"""

from __future__ import annotations

import enum
import itertools

from .core import LeibnizAlgebra, Side, StructureTensor, bracket_rows
from .record import memo


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


@memo
def action_operators(t: StructureTensor, case: ActionCase, side: Side) -> tuple[int, tuple]:
    """The action of each basis element X_x (0-based x) as a sparse operator
    with integer entries over den, the lcm of the denominators of t: (den,
    ops), ``ops[x][a*n + b]`` the column of X_a (x) X_b as {output index: c},
    c standing for c/den."""
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


# The module axioms (Loday and Pirashvili) of the action pair L[x] = [X_x, .]_L,
# R[x] = [., X_x]_R: per axiom (side, label, (A, B, C)), reading A - B - C = 0
# on every basis pair (X_x, X_y), the right-handed rows first.  A term "PaQb"
# is P[a] after Q[b]; a term "P[ab]" is the action P of the bracket [X_a, X_b].
AXIOMS = (
    (Side.RIGHT, "right-1", ("L[xy]", "RyLx", "LxLy")),
    (Side.RIGHT, "right-2", ("RxRy", "RyRx", "R[yx]")),
    (Side.RIGHT, "right-3", ("RxLy", "L[yx]", "LyRx")),
    (Side.LEFT, "left-1", ("R[xy]", "RyRx", "LxRy")),
    (Side.LEFT, "left-2", ("LxRy", "RyLx", "R[xy]")),
    (Side.LEFT, "left-3", ("LxLy", "L[xy]", "LyLx")),
)


def axiom_holds(t: StructureTensor, case: ActionCase, terms) -> bool:
    """Whether A - B - C, the ``terms`` of a row of ``AXIOMS``, vanishes on
    every basis element X_a (x) X_b for every basis pair under the case's
    actions; stops at the first nonzero component.  No chirality check."""
    n = t.dim
    _, rows = bracket_rows(t)
    ops = {side.name[0]: action_operators(t, case, side)[1] for side in Side}
    for x, y in itertools.product(range(n), repeat=2):
        at = {"x": x, "y": y}
        brackets, products = [], []
        for sign, term in zip((1, -1, -1), terms):
            P = ops[term[0]]
            if term[1] == "[":  # c P[k] for each c X_k of the bracket [X_a, X_b]
                brackets += [(sign * c, P[k]) for k, c in rows.get((at[term[2]], at[term[3]]), ())]
            else:  # P[a] after Q[b]
                products.append((sign, P[at[term[1]]], ops[term[2]][at[term[3]]]))
        for p in range(n * n):
            pairs = [(c, op[p]) for c, op in brackets]
            for sign, outer, inner in products:
                pairs += [(sign * c, outer[k]) for k, c in inner[p].items()]
            acc = {}
            for c, col in pairs:
                for q, d in col.items():
                    acc[q] = acc.get(q, 0) + c * d
            if any(acc.values()):
                return False
    return True


def axiom_report(case: ActionCase, alg: LeibnizAlgebra) -> dict[str, bool]:
    """Per-axiom verdicts for the case's claimed axiom sets: the rows of
    ``AXIOMS`` whose side is in ``case.complexes(alg)``."""
    case.require(alg)
    sides = case.complexes(alg)
    return {label: axiom_holds(alg.tensor, case, terms)
            for side, label, terms in AXIOMS if side in sides}
