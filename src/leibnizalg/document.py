"""Definition-file grammar for algebras and r-matrices.

Algebra files::

    # comment
    name: heisenberg-ish
    dim: 2
    side: left            # left | right | both | auto
    f 1 1 2 = 1           # [e_1, e_1] = e_2
    f 1 2 2 = 1/1

R-matrix files reuse the same directives with ``r <i> <j> = <p>/<q>``
entry lines and no ``side``.  Lines may appear in any order; duplicate
entries are errors; undeclared entries are zero; indices are 1-based.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .core import MAX_DIM, LeibnizAlgebra, Side, StructureTensor, classify
from .errors import ChiralityError, ParseError, quote
from .linalg import Matrix
from .record import Record

SIDES = ("left", "right", "both", "auto")

# ASCII digits only: str.isdigit and a str-pattern \d also accept other
# Unicode digits, some of which int() rejects.
_RAT = re.compile(r"-?[0-9]+(/[0-9]+)?")
_NATURAL = re.compile(r"[0-9]+")


def _parse_number(text: str, pattern, convert, what: str, line: int, hint=""):
    try:
        if pattern.fullmatch(text):
            return convert(text)
    except (ValueError, ZeroDivisionError):  # q == 0, or too many digits for int()
        pass
    raise ParseError(f"bad {what} {quote(text)}{hint}", line)


class AlgebraDocument(Record):
    __slots__ = ("name", "dim", "declared_side", "entries")
    __hash__ = None  # mutable

    def __init__(self, name: str = "", dim: int = 0, declared_side: str = "auto",
                 entries: dict[tuple[int, int, int], Fraction] | None = None):
        self.name = name
        self.dim = dim
        self.declared_side = declared_side
        self.entries = {} if entries is None else entries

    def tensor(self) -> StructureTensor:
        return StructureTensor.from_entries(self.dim, self.entries)

    def algebra(self) -> LeibnizAlgebra:
        """Build and, when a side is declared, verify it actually holds."""
        t = self.tensor()
        chir = classify(t)
        alg = LeibnizAlgebra(t, chir)
        want = self.declared_side
        if want == "auto":
            return alg
        sides = tuple(Side) if want == "both" else (Side(want),)
        if not all(chir.admits(side) for side in sides):
            raise ChiralityError(
                f"declared side {want!r} does not hold; tensor classifies as "
                f"{chir.value}"
            )
        return alg


class RMatrixDocument(Record):
    __slots__ = ("name", "dim", "entries")
    __hash__ = None  # mutable

    def __init__(self, name: str = "", dim: int = 0,
                 entries: dict[tuple[int, int], Fraction] | None = None):
        self.name = name
        self.dim = dim
        self.entries = {} if entries is None else entries

    def matrix(self) -> Matrix:
        n = self.dim
        return tuple(
            tuple(self.entries.get((i, j), Fraction(0)) for j in range(1, n + 1))
            for i in range(1, n + 1)
        )


def _scan(text: str, kind: str):
    """Common scanner; yields (line-number, directive-or-entry tokens)."""
    doc_dim = None
    name = ""
    side = None
    entries = {}
    # lines end in "\n" only, as the CLI counts them; strip() drops a "\r"
    for ln, raw in enumerate(text.split("\n"), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if ":" in line and not line.startswith(("f ", "r ")):
            key, _, value = line.partition(":")
            key = key.strip().lower()
            value = value.strip()
            if key == "name":
                name = value
            elif key == "dim":
                if doc_dim is not None:
                    raise ParseError("duplicate dim directive", ln)
                doc_dim = _parse_number(value, _NATURAL, int, "dimension", ln)
                if not 1 <= doc_dim <= MAX_DIM:
                    raise ParseError(
                        f"dimension {doc_dim} outside 1..{MAX_DIM}", ln
                    )
            elif key == "side":
                if kind != "f":
                    raise ParseError("side directive not allowed here", ln)
                if value.lower() not in SIDES:
                    raise ParseError(f"bad side {quote(value)}", ln)
                side = value.lower()
            else:
                raise ParseError(f"unknown directive {quote(key)}", ln)
            continue
        tokens = line.split()
        if tokens[0] != kind:
            raise ParseError(f"unrecognized line {quote(raw.strip())}", ln)
        want = 3 if kind == "f" else 2
        if len(tokens) != want + 3 or tokens[want + 1] != "=":
            raise ParseError(f"malformed {kind!r} entry", ln)
        idx = tuple(
            _parse_number(tok, _NATURAL, int, "index", ln) for tok in tokens[1 : want + 1]
        )
        value = _parse_number(
            tokens[want + 2], _RAT, Fraction, "rational", ln, " (want p or p/q, q nonzero)"
        )
        if idx in entries:
            raise ParseError(f"duplicate entry for {idx}", ln)
        entries[idx] = (ln, value)
    if doc_dim is None:
        raise ParseError("missing dim directive")
    for idx, (ln, _) in entries.items():
        for component in idx:
            if not 1 <= component <= doc_dim:
                raise ParseError(
                    f"index {component} outside 1..{doc_dim}", ln
                )
    clean = {idx: value for idx, (_, value) in entries.items()}
    return name, doc_dim, side, clean


def parse_algebra(text: str) -> AlgebraDocument:
    name, dim, side, entries = _scan(text, "f")
    return AlgebraDocument(name, dim, side or "auto", entries)


def parse_rmatrix(text: str) -> RMatrixDocument:
    name, dim, _, entries = _scan(text, "r")
    return RMatrixDocument(name, dim, entries)
