"""Reference dual families for the bundled corpus.

Each family is the span of one generator per free constant, entered from
the published bracket tables for these four algebras.  ``admitted`` records
which scenarios accept the family (machine-verified, frozen here to guard
determinism).  Two entries needed correction before they made sense:

* example1 family 2 is listed with the same brackets as family 1 but
  tagged as a Lie algebra; the antisymmetrized reading (mirroring the
  example2 table) is the one that is actually Lie and solves the systems.
* example4 family 8 as listed breaks antisymmetry in its ``a`` terms and
  fails every scenario; flipping the sign of the (3,2,1) entry makes it
  the Lie algebra its tag promises.  The broken variant is kept below for
  the regression test that documents the defect.
"""

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction

from leibnizalg import StructureTensor
from leibnizalg.solver import DualFamily

from oracles import dense_rref, family_member, opposite


@dataclass(frozen=True)
class ReferenceFamily:
    key: str
    label: str  # handedness tag the family carries: left | right | lie | both
    generators: tuple[dict, ...]
    admitted: frozenset

    def family(self, dim: int) -> DualFamily:
        basis = tuple(
            StructureTensor.from_entries(dim, g) for g in self.generators
        )
        params = tuple(f"t{i + 1}" for i in range(len(basis)))
        return DualFamily(dim, basis, params)

    def member(self, dim: int, values) -> StructureTensor:
        return family_member(self.family(dim), [Fraction(v) for v in values])


def _ref(key, label, generators, admitted):
    return ReferenceFamily(key, label, tuple(generators), frozenset(admitted))


EX1_FAMILIES = (
    _ref(
        "ex1-f1",
        "left",
        [{(1, 2, 1): -1, (1, 2, 2): -1, (2, 2, 1): 1, (2, 2, 2): 1}],
        {"lr-4-l", "l-3-l"},
    ),
    _ref(
        "ex1-f2",
        "lie",
        [{(1, 2, 1): -1, (1, 2, 2): -1, (2, 1, 1): 1, (2, 1, 2): 1}],
        {"l-3-r", "l-3-l"},
    ),
    _ref(
        "ex1-f3",
        "right",
        [{(2, 1, 1): -1, (2, 1, 2): -1, (2, 2, 1): 1, (2, 2, 2): 1}],
        {"lr-1-r", "l-3-r"},
    ),
)

EX2_FAMILIES = (
    _ref(
        "ex2-f1",
        "left",
        [{(2, 2, 1): 1, (2, 2, 2): 1, (1, 2, 1): -1, (1, 2, 2): -1}],
        {"r-2-l", "lr-4-l"},
    ),
    _ref(
        "ex2-f2",
        "lie",
        [{(1, 2, 1): -1, (1, 2, 2): -1, (2, 1, 1): 1, (2, 1, 2): 1}],
        {"r-2-r", "r-2-l"},
    ),
    _ref(
        "ex2-f3",
        "right",
        [{(2, 1, 1): -1, (2, 1, 2): -1, (2, 2, 1): 1, (2, 2, 2): 1}],
        {"lr-1-r", "r-2-r"},
    ),
)

EX3_FAMILIES = (
    _ref(
        "ex3-f1",
        "lie",
        [{(1, 2, 1): -1, (2, 1, 1): 1}],
        {"r-2-r", "r-2-l", "l-3-r", "l-3-l"},
    ),
    _ref(
        "ex3-f2",
        "both",
        [{(2, 2, 1): 1}],
        {"lr-1-r", "r-2-r", "r-2-l", "lr-4-l", "l-3-r", "l-3-l"},
    ),
)

EX4_FAMILIES = (
    _ref(
        "ex4-f1",
        "left",
        [{(3, 3, 1): 1}, {(3, 3, 2): 1, (3, 2, 1): 1}],
        {"r-2-l", "lr-4-l"},
    ),
    _ref("ex4-f2", "left", [{(2, 3, 1): 1}, {(3, 3, 1): 1}], {"lr-4-l"}),
    _ref(
        "ex4-f3",
        "right",
        [{(3, 3, 1): 1}, {(3, 3, 2): 1, (2, 3, 1): 1}],
        {"lr-1-r", "r-2-r"},
    ),
    _ref("ex4-f4", "right", [{(3, 2, 1): 1}, {(3, 3, 1): 1}], {"lr-1-r"}),
    _ref(
        "ex4-f5",
        "left",
        [{(3, 2, 1): 1, (2, 3, 1): -1}, {(3, 3, 1): 1}],
        {"r-2-r", "r-2-l"},
    ),
    _ref(
        "ex4-f6",
        "lie",
        [
            {
                (1, 2, 1): -1,
                (1, 3, 2): -1,
                (2, 1, 1): 1,
                (2, 3, 3): -1,
                (3, 2, 3): 1,
                (3, 1, 2): 1,
            },
            {(2, 3, 1): -1, (3, 2, 1): 1},
        ],
        {"r-2-r", "r-2-l"},
    ),
    _ref(
        "ex4-f7",
        "left",
        [
            {(2, 2, 1): -1, (2, 3, 2): -1, (3, 1, 1): 2, (3, 2, 2): 1},
            {(3, 3, 1): 1},
        ],
        {"r-2-l"},
    ),
    _ref(
        "ex4-f8",
        "lie",
        [
            {(2, 3, 1): 1, (3, 2, 1): -1},
            {(1, 3, 1): -1, (2, 3, 2): -1, (3, 1, 1): 1, (3, 2, 2): 1},
        ],
        {"r-2-r", "r-2-l"},
    ),
    _ref(
        "ex4-f9",
        "right",
        [{(2, 3, 1): -1, (3, 2, 1): 1}, {(3, 3, 1): 1}],
        {"r-2-r", "r-2-l"},
    ),
    _ref(
        "ex4-f10",
        "right",
        [
            {(1, 3, 1): -2, (2, 2, 1): 1, (2, 3, 2): -1, (3, 2, 2): 1},
            {(3, 3, 1): 1},
        ],
        {"r-2-r"},
    ),
)

# example4 family 8 exactly as listed: not antisymmetric, not Leibniz on
# either side, admitted by no scenario.  Kept to document the defect.
EX4_F8_AS_LISTED = _ref(
    "ex4-f8-as-listed",
    "lie",
    [
        {(2, 3, 1): 1, (3, 2, 1): 1},
        {(1, 3, 1): -1, (2, 3, 2): -1, (3, 1, 1): 1, (3, 2, 2): 1},
    ],
    frozenset(),
)

FAMILIES = {
    "example1": EX1_FAMILIES,
    "example2": EX2_FAMILIES,
    "example3": EX3_FAMILIES,
    "example4": EX4_FAMILIES,
}

# Scenario kernel dimensions per corpus algebra (machine facts, frozen).
KERNEL_DIMENSIONS = {
    "example1": {"lr-1-r": 2, "lr-4-l": 2, "l-3-r": 3, "l-3-l": 3},
    "example2": {"lr-1-r": 2, "r-2-r": 3, "r-2-l": 3, "lr-4-l": 2},
    "example3": {
        "lr-1-r": 4,
        "r-2-r": 3,
        "r-2-l": 3,
        "lr-4-l": 4,
        "l-3-r": 3,
        "l-3-l": 3,
    },
    "example4": {"lr-1-r": 9, "r-2-r": 7, "r-2-l": 7, "lr-4-l": 9},
}


# The dense family: the null-filiform algebra NF_n ([e1, e_i] = e_{i+1},
# left-handed) and its opposite in a seeded dense integer basis, the inputs
# on which elimination and the quadratic stage cost most.  The rows of g are
# drawn whole with random.Random(1).choice(DENSE_CHOICES) until g is
# invertible, and the basis vectors are its columns, e'_a = sum_i g[i][a] e_i.
# That leaves 42 / 92 / 180 / 294 nonzero bracket entries at n = 4 / 5 / 6 / 7.
DENSE_CHOICES = (-2, -1, 0, 1, 1, 2)


def dense_basis(n: int):
    rng = random.Random(1)
    while True:
        g = [[rng.choice(DENSE_CHOICES) for _ in range(n)] for _ in range(n)]
        rows, pivots = dense_rref([[Fraction(x) for x in row] + [Fraction(i == j) for j in range(n)]
                                   for i, row in enumerate(g)])
        if pivots == list(range(n)):
            return g, [row[n:] for row in rows]


def nf_dense(n: int, op: bool = False) -> StructureTensor:
    """NF_n, or NF_n^op when ``op``, in the basis ``dense_basis(n)``."""
    g, g_inv = dense_basis(n)
    table = {(1, i, i + 1): 1 for i in range(1, n)}
    entries = {}
    for a, b, c in itertools.product(range(n), repeat=3):
        entries[a + 1, b + 1, c + 1] = sum(g[i - 1][a] * g[j - 1][b] * x * g_inv[c][k - 1]
                                           for (i, j, k), x in table.items())
    t = StructureTensor.from_entries(n, entries)
    return opposite(t) if op else t
