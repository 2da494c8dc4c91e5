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
The module axioms, the coboundaries of ``cohomology``, the compatibility
rows of ``solver`` and delta(r) in ``rmatrix`` are all built from those
operators.  The readers that return rational values (the coboundaries,
delta(r)) divide once per nonzero output entry.

The module axioms (Loday and Pirashvili) are the Leibniz identity of the
semidirect product g + M (``axiom_verdicts``): M is the tensor square, with
X_a (x) X_b at index n + a*n + b, [X_x, u] = L[x] u, [u, X_x] = R[x] u and
[M, M] = 0.  A nonzero component of the defect whose one M argument u sits
in slot 1, 2 or 3 of the identity (``core.LEIBNIZ``) fails axiom <side>-1,
-2 or -3, read A - B - C = 0 with (x, y) the other two slots in order and
P[xy] the action P of [X_x, X_y]:

  right-1  L[xy] - R[y]L[x] - L[x]L[y]    left-1  R[xy] - R[y]R[x] - L[x]R[y]
  right-2  R[x]R[y] - R[y]R[x] - R[yx]    left-2  L[x]R[y] - R[y]L[x] - R[xy]
  right-3  R[x]L[y] - L[yx] - L[y]R[x]    left-3  L[x]L[y] - L[xy] - L[y]L[x]

Every entry of g + M is an integer over den, so a verdict needs no division.

What a case needs is decided in one place, ``ActionCase.required_side``
(case 2 a right-handed algebra, case 3 a left-handed one); the axiom sets
checked here, the report's selfcheck complexes and the ``solver`` scenarios
all read it through ``ActionCase.complexes``.  ``axiom_report`` gives the
verdict of each axiom of the sets a case claims, so the claim is checked,
not assumed.  Measured on the corpus (see tests): cases 1 and 4 satisfy the
set of each handedness the algebra has, case 2 the right-handed set only and
case 3 the left-handed one only.  The crossed sets fail on a two-sided
algebra; the report leaves them out.
"""

from __future__ import annotations

import enum
import itertools

from .core import (LeibnizAlgebra, Side, StructureTensor, bracket_rows, component,
                   integer_entries, leibniz_defect)
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


def axiom_verdicts(t: StructureTensor, case: ActionCase, side: Side) -> dict[str, bool]:
    """{"<side>-1": ok, "<side>-2": ok, "<side>-3": ok}: the module axioms
    of ``side`` under the case's actions, read off the defect of ``side`` on
    g + M (module notes).  No chirality check."""
    n = t.dim
    _, h = integer_entries(t)  # a fresh dict: the bracket of g
    left, right = (action_operators(t, case, s)[1] for s in (Side.LEFT, Side.RIGHT))
    for x in range(n):  # X_a (x) X_b is X_{n + a*n + b} of h
        for u in range(n * n):
            for q, c in left[x][u].items():
                h[x, n + u, n + q] = c
            for q, c in right[x][u].items():
                h[n + u, x, n + q] = c
    size, failed = n + n * n, set()
    for c, acc in leibniz_defect(h, side, size).items():
        if any(acc.values()):  # no argument in M: g's own defect, no axiom
            failed.update(slot for slot, x in enumerate(component(c, size)[:3]) if x >= n)
    return {f"{side.value}-{slot + 1}": slot not in failed for slot in range(3)}


def axiom_report(case: ActionCase, alg: LeibnizAlgebra) -> dict[str, bool]:
    """Per-axiom verdicts for the case's claimed axiom sets, those of
    ``case.complexes(alg)`` in reverse: the right-handed set first."""
    case.require(alg)
    return {label: ok for side in reversed(case.complexes(alg))
            for label, ok in axiom_verdicts(alg.tensor, case, side).items()}
