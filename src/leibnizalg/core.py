"""Structure-constant tensors, Leibniz identities and adjoint matrices.

Conventions frozen across the whole package:

* A bracket table is a dense rank-3 tensor ``t`` with ``[X_i, X_j] = sum_k
  t(i,j,k) X_k``.  Public indices are 1-based; internal storage is 0-based.
  A dual bracket table uses the identical layout, read as two upper indices
  and one lower one.
* Adjoint matrices are stored with row = input basis index and column =
  output coefficient.  ``first_slot[i]`` has entry ``(j, k) = -t(i,j,k)``,
  ``second_slot[m]`` has ``(i, k) = -t(i,m,k)`` and ``output_slot[k]`` has
  ``(i, j) = -t(i,j,k)``; each of the three families reconstructs the tensor
  on its own.
* Coadjoint matrices are the negated transposes of the matching adjoint
  matrices in those coordinates.

Supported dimensions are 1 through 8; everything is exact rational.
"""

from __future__ import annotations

import enum
import itertools
import math
import operator
from fractions import Fraction

from .errors import ChiralityError, DimensionError
from .linalg import Matrix, frac, mat_neg, transpose
from .record import CachedHash, Frozen, set_field

MAX_DIM = 8

Rank3 = tuple[tuple[tuple[Fraction, ...], ...], ...]
Rank4 = tuple[tuple[tuple[tuple[Fraction, ...], ...], ...], ...]


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


class StructureTensor(CachedHash):
    """Dense rank-3 tensor of exact rationals; absent entries are zero."""

    __slots__ = ("dim", "data")

    def __init__(self, dim: int, data: Rank3):
        if not 1 <= dim <= MAX_DIM:
            raise DimensionError(f"dimension {dim} outside 1..{MAX_DIM}")
        if len(data) != dim or any(
            len(plane) != dim or any(len(row) != dim for row in plane) for plane in data
        ):
            raise DimensionError("tensor storage does not match dimension")
        set_field(self, "dim", dim)
        set_field(self, "data", data)

    @classmethod
    def zero(cls, dim: int) -> "StructureTensor":
        z = Fraction(0)
        return cls(dim, tuple(tuple((z,) * dim for _ in range(dim)) for _ in range(dim)))

    @classmethod
    def from_entries(cls, dim: int, entries) -> "StructureTensor":
        """Build from a mapping {(i, j, k): value} with 1-based indices."""
        if not 1 <= dim <= MAX_DIM:
            raise DimensionError(f"dimension {dim} outside 1..{MAX_DIM}")
        cube = [[[Fraction(0)] * dim for _ in range(dim)] for _ in range(dim)]
        for (i, j, k), value in entries.items():
            for idx in (i, j, k):
                if not 1 <= idx <= dim:
                    raise DimensionError(f"index {idx} outside 1..{dim}")
            cube[i - 1][j - 1][k - 1] = frac(value)
        return cls(dim, tuple(tuple(tuple(row) for row in plane) for plane in cube))

    def entry(self, i: int, j: int, k: int) -> Fraction:
        """1-based accessor."""
        return self.data[i - 1][j - 1][k - 1]

    def items(self):
        """Nonzero entries as ((i, j, k), value) with 1-based indices, sorted."""
        n = self.dim
        for i, j, k in itertools.product(range(n), repeat=3):
            v = self.data[i][j][k]
            if v != 0:
                yield (i + 1, j + 1, k + 1), v

    def opposite(self) -> "StructureTensor":
        """Swap the two argument slots of the bracket."""
        n = self.dim
        return StructureTensor(
            n,
            tuple(
                tuple(tuple(self.data[j][i][k] for k in range(n)) for j in range(n))
                for i in range(n)
            ),
        )

    def scaled(self, c) -> "StructureTensor":
        c = frac(c)
        return StructureTensor(
            self.dim,
            tuple(
                tuple(tuple(c * v for v in row) for row in plane)
                for plane in self.data
            ),
        )

    def plus(self, other: "StructureTensor") -> "StructureTensor":
        if other.dim != self.dim:
            raise DimensionError("tensor dimensions differ")
        return StructureTensor(
            self.dim,
            tuple(
                tuple(
                    tuple(a + b for a, b in zip(ra, rb))
                    for ra, rb in zip(pa, pb)
                )
                for pa, pb in zip(self.data, other.data)
            ),
        )


# The Leibniz identity as a term table, per side.  Component (i, j, k, m) of
# the defect sums sign * f(a) * f(b) over pairs of entries a = (a0, a1, a2)
# and b = (b0, b1, b2) that meet where a2 == b[slot]; ``pick`` reads
# (i, j, k, m) off the six indices of a + b.  With (X, Y, Z) = (X_i, X_j, X_k)
# the right-handed defect is [[Y,Z],X] - [[Y,X],Z] - [Y,[Z,X]] and the
# left-handed one [X,[Y,Z]] - [[X,Y],Z] - [Y,[X,Z]]; every component
# vanishes exactly when the identity holds.
LEIBNIZ = {
    Side.RIGHT: ((1, 0, (4, 0, 1, 5)), (-1, 0, (1, 0, 4, 5)), (-1, 1, (1, 3, 0, 5))),
    Side.LEFT: ((1, 1, (3, 0, 1, 5)), (-1, 0, (0, 1, 4, 5)), (-1, 1, (0, 3, 1, 5))),
}


def leibniz_terms(support, side: Side):
    """Yield (component, sign, a, b), 0-based: component (i, j, k, m) of the
    defect gains sign * f(a) * f(b), for a, b among the index triples
    ``support`` where f may be nonzero."""
    support = tuple(support)
    meet = ({}, {})  # meet[slot][x]: the entries b with b[slot] == x
    for b in support:
        meet[0].setdefault(b[0], []).append(b)
        meet[1].setdefault(b[1], []).append(b)
    for sign, slot, pick in LEIBNIZ[side]:
        component = operator.itemgetter(*pick)
        for a in support:
            for b in meet[slot].get(a[2], ()):
                yield component(a + b), sign, a, b


def _defect(t: StructureTensor, side: Side):
    """The defect's components that have terms, in integers over a common
    denominator: ({(i, j, k, m): numerator}, denominator), 0-based."""
    f = {(i - 1, j - 1, k - 1): v for (i, j, k), v in t.items()}
    scale = math.lcm(*(v.denominator for v in f.values()))
    f = {e: v.numerator * (scale // v.denominator) for e, v in f.items()}
    out = {}
    for c, s, a, b in leibniz_terms(f, side):
        out[c] = out.get(c, 0) + s * f[a] * f[b]
    return out, scale * scale


def leibniz_residual(t: StructureTensor, side: Side) -> Rank4:
    """The defect of the Leibniz identity as a tensor [i][j][k][m]."""
    d, den = _defect(t, side)
    zero = Fraction(0)
    return rank4(
        (Fraction(d[c], den) if c in d else zero
         for c in itertools.product(range(t.dim), repeat=4)),
        t.dim,
    )


def rank4(values, n: int) -> Rank4:
    """Nest a flat stream given in lexicographic index order as [a][b][c][d]."""
    it = iter(values)
    return tuple(
        tuple(
            tuple(tuple(next(it) for _ in range(n)) for _ in range(n))
            for _ in range(n)
        )
        for _ in range(n)
    )


def first_nonzero(res: Rank4):
    """First nonzero residual component as ((i, j, k, m) 1-based, value)."""
    for i, a in enumerate(res):
        for j, b in enumerate(a):
            for k, c in enumerate(b):
                for m, v in enumerate(c):
                    if v != 0:
                        return (i + 1, j + 1, k + 1, m + 1), v
    return None


def is_antisymmetric(t: StructureTensor) -> bool:
    n = t.dim
    return all(
        t.data[i][j][k] == -t.data[j][i][k]
        for i, j, k in itertools.product(range(n), repeat=3)
    )


def classify(t: StructureTensor) -> Chirality:
    """Strongest applicable label for the bracket table."""
    left, right = (not any(_defect(t, side)[0].values()) for side in (Side.LEFT, Side.RIGHT))
    if left and right:
        return Chirality.LIE if is_antisymmetric(t) else Chirality.BOTH
    if left:
        return Chirality.LEFT
    if right:
        return Chirality.RIGHT
    return Chirality.NEITHER


class LeibnizAlgebra(Frozen):
    __slots__ = ("tensor", "chirality", "name")

    def __init__(self, tensor: StructureTensor, chirality: Chirality, name: str = ""):
        set_field(self, "tensor", tensor)
        set_field(self, "chirality", chirality)
        set_field(self, "name", name)

    @classmethod
    def analyze(cls, tensor: StructureTensor, name: str = "") -> "LeibnizAlgebra":
        return cls(tensor, classify(tensor), name)

    @property
    def dim(self) -> int:
        return self.tensor.dim

    def admits(self, side: Side) -> bool:
        return self.chirality.admits(side)

    def require(self, side: Side) -> None:
        if not self.admits(side):
            raise ChiralityError(
                f"algebra {self.name or '<anonymous>'} is {self.chirality.value}; "
                f"operation needs the {side.value}-handed identity"
            )


class AdjointMatrices(Frozen):
    """The three families of slice matrices of one tensor (see module notes)."""

    __slots__ = ("first_slot", "second_slot", "output_slot")

    def __init__(self, first_slot: tuple[Matrix, ...], second_slot: tuple[Matrix, ...],
                 output_slot: tuple[Matrix, ...]):
        set_field(self, "first_slot", first_slot)
        set_field(self, "second_slot", second_slot)
        set_field(self, "output_slot", output_slot)


def adjoint_matrices(t: StructureTensor) -> AdjointMatrices:
    n = t.dim
    f = t.data
    first = tuple(
        tuple(tuple(-f[i][j][k] for k in range(n)) for j in range(n))
        for i in range(n)
    )
    second = tuple(
        tuple(tuple(-f[i][m][k] for k in range(n)) for i in range(n))
        for m in range(n)
    )
    output = tuple(
        tuple(tuple(-f[i][j][k] for j in range(n)) for i in range(n))
        for k in range(n)
    )
    return AdjointMatrices(first, second, output)


class CoadjointMatrices(Frozen):
    """Dual-space actions; entrywise the negated transposes of the adjoints."""

    __slots__ = ("left", "right")

    def __init__(self, left: tuple[Matrix, ...], right: tuple[Matrix, ...]):
        set_field(self, "left", left)
        set_field(self, "right", right)


def coadjoint_matrices(adj: AdjointMatrices) -> CoadjointMatrices:
    left = tuple(mat_neg(transpose(m)) for m in adj.first_slot)
    right = tuple(mat_neg(transpose(m)) for m in adj.second_slot)
    return CoadjointMatrices(left, right)
