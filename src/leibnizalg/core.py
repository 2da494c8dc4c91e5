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

``bracket_rows`` and ``adjoint_matrices`` are built once per tensor, behind
bounded caches, and shared: callers must not mutate them.  The coadjoint
matrices are not cached: a call builds them afresh, 2n negated transposes.

Supported dimensions are 1 through 8; everything is exact rational.
"""

from __future__ import annotations

import enum
import functools
from fractions import Fraction

from .errors import ChiralityError, DimensionError
from .linalg import frac, mat_neg, over_lcm, transpose
from .record import CachedHash, Frozen

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


class StructureTensor(CachedHash):
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


@functools.lru_cache(maxsize=8)
def bracket_rows(t: StructureTensor) -> tuple[int, dict]:
    """The bracket with integer coefficients over one common denominator:
    (den, {(i, j): [(k, c), ...]}), 0-based, over the nonzero entries, with
    t(i,j,k) = c/den and den the lcm of the denominators of t.  Built once
    per tensor and shared through a bounded cache; callers must not mutate
    it."""
    den, numerators = over_lcm(v for _, v in t.items())
    rows = {}
    for ((i, j, k), _), c in zip(t.items(), numerators):
        rows.setdefault((i - 1, j - 1), []).append((k - 1, c))
    return den, rows


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


def leibniz_terms(support, side: Side, n: int):
    """Yield (sign, a, offset, pairs) per term of the identity and entry a
    of the 0-based index triples ``support`` where f may be nonzero: for
    each (b, o) in ``pairs`` the component at flat index offset + o, that is
    n^3*i + n^2*j + n*k + m (``component``), gains sign * f(a) * f(b)."""
    support = tuple(support)
    for sign, slot, pick in LEIBNIZ[side]:
        w = [0] * 6  # the weight of each of the six indices of a + b
        for place, x in enumerate(pick):
            w[x] += n ** (3 - place)
        meet = {}  # meet[x]: (b, offset of b) for the entries b with b[slot] == x
        for b in support:
            meet.setdefault(b[slot], []).append((b, w[3] * b[0] + w[4] * b[1] + w[5] * b[2]))
        for a in support:
            pairs = meet.get(a[2])
            if pairs:
                yield sign, a, w[0] * a[0] + w[1] * a[1] + w[2] * a[2], pairs


def component(x: int, n: int, base: int = 0) -> tuple[int, int, int, int]:
    """The component (i, j, k, m) at flat index x, counted from ``base``."""
    q, m = divmod(x, n)
    q, k = divmod(q, n)
    i, j = divmod(q, n)
    return i + base, j + base, k + base, m + base


def _defect(t: StructureTensor, side: Side):
    """The defect's components that have terms, in integers over a common
    denominator: ({flat index: numerator}, denominator), 0-based."""
    scale, rows = bracket_rows(t)
    f = {(i, j, k): c for (i, j), line in rows.items() for k, c in line}
    out = {}
    for s, a, offset, pairs in leibniz_terms(f, side, t.dim):
        x = s * f[a]
        for b, o in pairs:
            out[offset + o] = out.get(offset + o, 0) + x * f[b]
    return out, scale * scale


def leibniz_residual(t: StructureTensor, side: Side) -> dict:
    """The defect of the Leibniz identity: {(i, j, k, m): value} of its
    nonzero components, 0-based."""
    d, den = _defect(t, side)
    return {component(c, t.dim): Fraction(x, den) for c, x in d.items() if x}


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
    left, right = (not any(_defect(t, side)[0].values()) for side in (Side.LEFT, Side.RIGHT))
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


@functools.lru_cache(maxsize=8)
def adjoint_matrices(t: StructureTensor) -> AdjointMatrices:
    """Built once per tensor and shared through a bounded cache; callers
    must not mutate it."""
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
