"""Structure-constant tensors, Leibniz identities and adjoint matrices.

Conventions frozen across the whole package:

* A bracket table is a rank-3 tensor ``t`` with ``[X_i, X_j] = sum_k
  t(i,j,k) X_k``, stored as its nonzero entries only: a sorted tuple of
  ``((i, j, k), value)`` pairs with 1-based indices.  Zeros are dropped on
  construction, so equal tensors have equal storage and equal hashes.  A dual
  bracket table uses the identical layout, read as two upper indices and one
  lower one.
* A rank-4 residual (the Leibniz defect here, the generalized Yang-Baxter
  residual in ``rmatrix``) is a dict {(i, j, k, m): value} of its nonzero
  components, 0-based.
* Adjoint matrices are stored with row = input basis index and column =
  output coefficient.  ``first_slot[i]`` has entry ``(j, k) = -t(i,j,k)``,
  ``second_slot[m]`` has ``(i, k) = -t(i,m,k)`` and ``output_slot[k]`` has
  ``(i, j) = -t(i,j,k)``; each of the three families reconstructs the tensor
  on its own.
* Coadjoint matrices are the negated transposes of the matching adjoint
  matrices in those coordinates.
* ``bracket_rows`` is the bracket with integer coefficients over one common
  denominator, the lcm of its denominators; the Leibniz defect, the action
  table of ``actions`` and the triple products of ``rmatrix`` read it.

``bracket_rows`` and ``adjoint_matrices`` are built once per tensor, kept on
it and freed with it (``record.memo``); callers must not mutate them.  The
coadjoint matrices, 2n negated transposes, are built afresh on each call.

Supported dimensions are 1 through 8; everything is exact rational.
"""

from __future__ import annotations

import enum
from fractions import Fraction

from .errors import ChiralityError, DimensionError
from .linalg import frac, mat_neg, over_lcm, transpose
from .record import Frozen, Memoized, memo

MAX_DIM = 8

class Side(enum.Enum):
    LEFT = "left"
    RIGHT = "right"


class Chirality(enum.Enum):
    NEITHER = "neither"
    LEFT = "left"
    RIGHT = "right"
    BOTH = "both"
    LIE = "lie"

    def admits(self, side: Side) -> bool:
        if self is Chirality.NEITHER:
            return False
        if self is Chirality.LEFT:
            return side is Side.LEFT
        if self is Chirality.RIGHT:
            return side is Side.RIGHT
        return True


class StructureTensor(Memoized):
    """Rank-3 tensor of exact rationals held as its nonzero entries; build
    it with ``from_entries``."""

    __slots__ = ("dim", "entries")

    @classmethod
    def from_entries(cls, dim: int, entries) -> "StructureTensor":
        """Build from a mapping {(i, j, k): value} with 1-based indices."""
        if not 1 <= dim <= MAX_DIM:
            raise DimensionError(f"dimension {dim} outside 1..{MAX_DIM}")
        for i, j, k in entries:
            for x in (i, j, k):
                if not 1 <= x <= dim:
                    raise DimensionError(f"index {x} outside 1..{dim}")
        values = ((idx, frac(v)) for idx, v in entries.items())
        return cls(dim, tuple(sorted((idx, v) for idx, v in values if v)))

    def items(self):
        """Nonzero entries as ((i, j, k), value) with 1-based indices, sorted."""
        return self.entries


@memo
def bracket_rows(t: StructureTensor) -> tuple[int, dict]:
    """The bracket with integer coefficients over one common denominator:
    (den, {(i, j): [(k, c), ...]}), 0-based, over the nonzero entries, with
    t(i,j,k) = c/den and den the lcm of the denominators of t."""
    den, numerators = over_lcm(v for _, v in t.items())
    rows = {}
    for ((i, j, k), _), c in zip(t.items(), numerators):
        rows.setdefault((i - 1, j - 1), []).append((k - 1, c))
    return den, rows


# The Leibniz identity as a term table, per side.  Component (i, j, k, m) of
# the defect sums sign * f(a) * f(b) over pairs of entries a = (a0, a1, a2)
# and b = (b0, b1, b2) that meet where a2 == b[slot]; ``pick`` reads
# (i, j, k, m) off the six indices of a + b, always with m = b2 and never
# a2.  With (X, Y, Z) = (X_i, X_j, X_k) the right-handed defect is
# [[Y,Z],X] - [[Y,X],Z] - [Y,[Z,X]] and the left-handed one
# [X,[Y,Z]] - [[X,Y],Z] - [Y,[X,Z]]; every component vanishes exactly when
# the identity holds.
LEIBNIZ = {
    Side.RIGHT: ((1, 0, (4, 0, 1, 5)), (-1, 0, (1, 0, 4, 5)), (-1, 1, (1, 3, 0, 5))),
    Side.LEFT: ((1, 1, (3, 0, 1, 5)), (-1, 0, (0, 1, 4, 5)), (-1, 1, (0, 3, 1, 5))),
}


def leibniz_terms(support, side: Side, n: int):
    """Yield (sign, value_a, offset, groups) per term of the identity and
    entry a of ``support``, a mapping {0-based (i, j, k): value} of the
    entries where f may be nonzero.  For each r: pairs of the dict
    ``groups`` and (value_b, m) in ``pairs`` the component at flat index
    offset + r + m, that is n^3*i + n^2*j + n*k + m (``component``), gains
    sign * value_a * value_b: r, the weight of b's argument, fixes (i, j, k)."""
    for sign, slot, pick in LEIBNIZ[side]:
        w = [0] * 6  # the weight of each of the six indices of a + b
        w[pick[0]], w[pick[1]], w[pick[2]] = n ** 3, n * n, n  # and 1 for m = b2
        meet = {}  # meet[x]: {r: [(value, m)]} of the entries b with b[slot] == x
        for b, v in support.items():
            groups = meet.setdefault(b[slot], {})
            groups.setdefault(w[3] * b[0] + w[4] * b[1], []).append((v, b[2]))
        for a, v in support.items():
            groups = meet.get(a[2])
            if groups:  # a2 meets b, so it has no weight
                yield sign, v, w[0] * a[0] + w[1] * a[1], groups


def component(x: int, n: int, base: int = 0) -> tuple[int, int, int, int]:
    """The component (i, j, k, m) at flat index x, counted from ``base``."""
    q, m = divmod(x, n)
    q, k = divmod(q, n)
    i, j = divmod(q, n)
    return i + base, j + base, k + base, m + base


def leibniz_defect(f, side: Side, n: int) -> dict:
    """The defect's components that have terms, {flat index of (i, j, k, 0):
    {m: value}} (small keys in small dicts: fast sums), for integer entries
    ``f`` {0-based (i, j, k): value} of dimension n."""
    rows = {}
    for s, x, offset, groups in leibniz_terms(f, side, n):
        x *= s
        for r, pairs in groups.items():
            acc = rows.get(offset + r)
            if acc is None:
                acc = rows[offset + r] = {}
            for y, m in pairs:
                acc[m] = acc.get(m, 0) + x * y
    return rows


def integer_entries(t: StructureTensor) -> tuple[int, dict]:
    """``bracket_rows`` as entries: (den, {0-based (i, j, k): c})."""
    den, rows = bracket_rows(t)
    return den, {(i, j, k): c for (i, j), line in rows.items() for k, c in line}


def leibniz_residual(t: StructureTensor, side: Side) -> dict:
    """The defect of the Leibniz identity: {(i, j, k, m): value} of its
    nonzero components, 0-based."""
    den, f = integer_entries(t)
    return {component(c + m, t.dim): Fraction(x, den * den)
            for c, acc in leibniz_defect(f, side, t.dim).items() for m, x in acc.items() if x}


def first_nonzero(res: dict):
    """First nonzero residual component as ((i, j, k, m) 1-based, value)."""
    if not res:
        return None
    c = min(res)
    return tuple(x + 1 for x in c), res[c]


def is_antisymmetric(t: StructureTensor) -> bool:
    f = dict(t.items())
    return all(f.get((j, i, k), 0) == -v for (i, j, k), v in f.items())


def classify(t: StructureTensor) -> Chirality:
    """Strongest applicable label for the bracket table."""
    f = integer_entries(t)[1]
    left, right = (not any(any(acc.values()) for acc in leibniz_defect(f, side, t.dim).values())
                   for side in Side)
    if left and right:
        return Chirality.LIE if is_antisymmetric(t) else Chirality.BOTH
    if left:
        return Chirality.LEFT
    if right:
        return Chirality.RIGHT
    return Chirality.NEITHER


class LeibnizAlgebra(Frozen):
    __slots__ = ("tensor", "chirality")

    @classmethod
    def analyze(cls, tensor: StructureTensor) -> "LeibnizAlgebra":
        return cls(tensor, classify(tensor))

    @property
    def dim(self) -> int:
        return self.tensor.dim

    def admits(self, side: Side) -> bool:
        return self.chirality.admits(side)

    def require(self, operation: str, *sides: Side) -> None:
        """Raise ChiralityError unless the algebra admits one of ``sides``.

        The one check of a missing handedness in the package: every
        operation that needs one calls it with its own name.
        """
        if not any(self.admits(side) for side in sides):
            need = " or ".join(f"{side.value}-handed" for side in sides)
            raise ChiralityError(
                f"{operation} needs a {need} algebra; got {self.chirality.value}"
            )


class AdjointMatrices(Frozen):
    """The three families of slice matrices of one tensor (see module notes)."""

    __slots__ = ("first_slot", "second_slot", "output_slot")


@memo
def adjoint_matrices(t: StructureTensor) -> AdjointMatrices:
    n = t.dim
    first, second, output = (
        [[[Fraction(0)] * n for _ in range(n)] for _ in range(n)] for _ in range(3)
    )
    for (i, j, k), v in t.items():
        i, j, k = i - 1, j - 1, k - 1
        first[i][j][k] = second[j][i][k] = output[k][i][j] = -v
    return AdjointMatrices(*(
        tuple(tuple(tuple(row) for row in m) for m in family)
        for family in (first, second, output)
    ))


class CoadjointMatrices(Frozen):
    """Dual-space actions; entrywise the negated transposes of the adjoints."""

    __slots__ = ("left", "right")


def coadjoint_matrices(adj: AdjointMatrices) -> CoadjointMatrices:
    left = tuple(mat_neg(transpose(m)) for m in adj.first_slot)
    right = tuple(mat_neg(transpose(m)) for m in adj.second_slot)
    return CoadjointMatrices(left, right)
