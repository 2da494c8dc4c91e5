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

The JSON forms of what the commands print are here, where ``cli`` and
``report`` both reach them: rationals as ``p`` or ``p/q`` strings, and
``render_json``, the bytes of ``json.dumps(obj, sort_keys=True, indent=2)``
and a newline in one pass, for dicts with string keys, lists, tuples,
strings, ints, booleans and None (other types raise ``TypeError``).
"""

from __future__ import annotations

import re
from fractions import Fraction
from _json import encode_basestring_ascii as _quote  # the C function json.encoder binds

from .core import MAX_DIM, LeibnizAlgebra, Side, StructureTensor, classify
from .errors import ChiralityError, ParseError, quote
from .linalg import Matrix
from .record import Frozen

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


def _shown(x) -> str:
    """A number or an index tuple read from the input, for a one-line error
    message: cut as ``quote`` cuts text when it is long."""
    text = str(x)
    return text if len(text) <= 40 else quote(text)


class AlgebraDocument(Frozen):
    __slots__ = ("name", "dim", "declared_side", "entries")

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


class RMatrixDocument(Frozen):
    __slots__ = ("name", "dim", "entries")

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
                        f"dimension {_shown(doc_dim)} outside 1..{MAX_DIM}", ln
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
            raise ParseError(f"duplicate entry for {_shown(idx)}", ln)
        entries[idx] = (ln, value)
    if doc_dim is None:
        raise ParseError("missing dim directive")
    for idx, (ln, _) in entries.items():
        for component in idx:
            if not 1 <= component <= doc_dim:
                raise ParseError(
                    f"index {_shown(component)} outside 1..{doc_dim}", ln
                )
    clean = {idx: value for idx, (_, value) in entries.items()}
    return name, doc_dim, side, clean


def parse_algebra(text: str) -> AlgebraDocument:
    name, dim, side, entries = _scan(text, "f")
    return AlgebraDocument(name, dim, side or "auto", entries)


def parse_rmatrix(text: str) -> RMatrixDocument:
    name, dim, _, entries = _scan(text, "r")
    return RMatrixDocument(name, dim, entries)


def matrix_json(m):
    return [[str(v) for v in row] for row in m]


def tensor_json(t: StructureTensor):
    return [[i, j, k, str(v)] for (i, j, k), v in t.items()]


def render_json(obj) -> str:
    """``json.dumps(obj, sort_keys=True, indent=2)`` and a newline (see the
    module notes)."""
    out = []
    _write(obj, "\n", out.append)
    out.append("\n")
    return "".join(out)


def _write(obj, newline: str, emit) -> None:
    """Emit ``obj`` as indented JSON; ``newline`` is a newline followed by
    the indent of the line ``obj`` starts on."""
    kind = type(obj)
    if kind is str:
        emit(_quote(obj))
    elif kind is int:
        emit(int.__repr__(obj))
    elif kind is dict:
        if not obj:
            emit("{}")
            return
        inner = newline + "  "
        head = "{" + inner
        for key in sorted(obj):
            if type(key) is not str:
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            value = obj[key]
            if type(value) is str:
                emit(head + _quote(key) + ": " + _quote(value))
            else:
                emit(head + _quote(key) + ": ")
                _write(value, inner, emit)
            head = "," + inner
        emit(newline + "}")
    elif kind is list or kind is tuple:
        if not obj:
            emit("[]")
            return
        inner = newline + "  "
        head = "[" + inner
        for item in obj:
            if type(item) is str:
                emit(head + _quote(item))
            elif type(item) is int:
                emit(head + int.__repr__(item))
            else:
                emit(head)
                _write(item, inner, emit)
            head = "," + inner
        emit(newline + "]")
    elif obj is None or kind is bool:
        emit("null" if obj is None else "true" if obj else "false")
    else:
        raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")
