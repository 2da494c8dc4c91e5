"""Command-line interface.

Exit codes: 0 success, 1 verification failure, 2 input/usage error.

A call loads only the modules its command uses: ``check`` and ``adjoint``
load the core, the parser and a light ``report``; the r-matrix commands bind
the ``rmatrix`` names, and ``duals`` the ``solver`` names, on first use.
Those names are called as ``_lazy.name``, looked up on this module at call
time.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import _on_first_use
from . import corpus as corpus_mod
from .core import Side
from .document import parse_algebra
from .errors import ChiralityError, LeibnizError, ParseError, quote
from .report import (
    actions_section,
    adjoint_section,
    build_report,
    chirality_section,
    duals_section,
    matrix_json,
    rational_str,
    render_json,
    tensor_json,
)

__getattr__ = _on_first_use(globals(), [
    # the r-matrix commands.  parse_rmatrix is in this group because
    # bench/tracing.py looks it up before it wraps any rmatrix function, so
    # the group binds the unwrapped functions and each wrapper runs once.
    {".document": ("parse_rmatrix",),
     ".rmatrix": ("coboundary_case", "coboundary_cocommutator", "cybe_check",
                  "gybe_residual", "is_antisymmetric_matrix", "schouten",
                  "solve_rmatrix")},
    {".solver": ("SCENARIOS", "scenario")},
])
_lazy = sys.modules[__name__]

OK, FAIL, BAD_INPUT = 0, 1, 2


class _Verification(Exception):
    """Declared property of the input does not hold."""


def _read(path: str) -> tuple[bytes, str]:
    """A definition file's bytes and UTF-8 text; other encodings are input errors."""
    raw = Path(path).read_bytes()
    try:
        return raw, raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = raw.count(b"\n", 0, exc.start) + 1
        raise ParseError(f"{path}: not UTF-8 ({exc.reason})", line) from None


def _load_algebra(path: str):
    raw, text = _read(path)
    doc = parse_algebra(text)
    try:
        alg = doc.algebra()
    except ChiralityError as exc:
        raise _Verification(str(exc)) from None
    return doc, alg, raw


def _load_rmatrix(path: str, dim: int):
    doc = _lazy.parse_rmatrix(_read(path)[1])
    if doc.dim != dim:
        raise ParseError(
            f"r-matrix dimension {doc.dim} does not match algebra dimension {dim}"
        )
    return doc.matrix()


def _side(arg: str) -> Side:
    key = arg.lower()
    if key in ("l", "left"):
        return Side.LEFT
    if key in ("r", "right"):
        return Side.RIGHT
    raise ParseError(f"bad side {quote(arg)}; want l|r|left|right")


def _emit(payload, fmt: str, text_lines):
    if fmt == "json":
        sys.stdout.write(render_json(payload))
    else:
        for line in text_lines:
            sys.stdout.write(line + "\n")


def _cmd_check(args) -> int:
    doc, alg, _ = _load_algebra(args.file)
    section = chirality_section(alg)
    lines = [f"chirality: {section['chirality']}"]
    for w in section["witnesses"]:
        comp = ",".join(str(x) for x in w["component"])
        lines.append(f"defect {w['check']} at ({comp}) = {w['value']}")
    _emit(section, args.format, lines)
    if doc.declared_side == "auto" and section["chirality"] == "neither":
        return FAIL
    return OK


def _cmd_adjoint(args) -> int:
    _, alg, _ = _load_algebra(args.file)
    section = adjoint_section(alg)
    lines = []
    for label in ("first_slot", "second_slot", "output_slot"):
        for idx, m in enumerate(section[label], start=1):
            lines.append(f"{label}[{idx}]:")
            lines.extend("  [" + ", ".join(row) + "]" for row in m)
    _emit(section, args.format, lines)
    return OK


def _cmd_actions(args) -> int:
    _, alg, _ = _load_algebra(args.file)
    section = actions_section(alg)
    lines = []
    failed = False
    for case, axioms in section.items():
        for label, verdict in axioms.items():
            lines.append(f"{case} {label}: {verdict}")
            failed = failed or verdict != "pass"
    _emit(section, args.format, lines)
    return FAIL if failed else OK


def _cmd_duals(args) -> int:
    _, alg, _ = _load_algebra(args.file)
    key = None
    if args.scenario != "all":
        sc = _lazy.scenario(args.scenario)
        sc.require(alg)
        key = sc.key
    section = duals_section(alg, key=key)
    lines = []
    for key, entry in section.items():
        lines.append(
            f"{key}: kernel dimension {entry['kernel_dimension']}, "
            f"dual side {entry['dual_side']}, quadratic identically zero: "
            f"{entry['quadratic_identically_zero']}"
        )
        for b, tensor in enumerate(entry["basis"]):
            terms = " ".join(f"({i},{j},{k})={v}" for i, j, k, v in tensor)
            lines.append(f"  {entry['parameters'][b]}: {terms}")
    _emit(section, args.format, lines)
    return OK


def _cmd_rmatrix(args) -> int:
    _, alg, _ = _load_algebra(args.file)
    dual_doc = parse_algebra(_read(args.dual)[1])
    if dual_doc.dim != alg.dim:
        raise ParseError("dual tensor dimension does not match the algebra")
    case = _lazy.coboundary_case(args.case)
    family = _lazy.solve_rmatrix(alg, dual_doc.tensor(), case)
    if family is None:
        _emit(
            {"case": case.value, "solvable": False},
            args.format,
            [f"case {case.value}: infeasible (no r-matrix reproduces this dual)"],
        )
        return FAIL
    payload = {
        "case": case.value,
        "solvable": True,
        "particular": matrix_json(family.particular),
        "kernel": [matrix_json(m) for m in family.kernel],
        "parameters": list(family.parameters),
    }
    lines = [f"case {case.value}: affine family with {family.dimension} parameters"]
    lines.append("particular:")
    lines.extend("  [" + ", ".join(row) + "]" for row in payload["particular"])
    for name, m in zip(family.parameters, payload["kernel"]):
        lines.append(f"{name}:")
        lines.extend("  [" + ", ".join(row) + "]" for row in m)
    _emit(payload, args.format, lines)
    return OK


def _cmd_coboundary(args) -> int:
    _, alg, _ = _load_algebra(args.file)
    r = _load_rmatrix(args.r, alg.dim)
    case = _lazy.coboundary_case(args.case)
    ftilde = _lazy.coboundary_cocommutator(alg, r, case)
    from .core import classify

    payload = {
        "case": case.value,
        "dual_tensor": tensor_json(ftilde),
        "dual_chirality": classify(ftilde).value,
        "r_antisymmetric": _lazy.is_antisymmetric_matrix(r),
    }
    lines = [
        "dual tensor: "
        + (" ".join(f"({i},{j},{k})={v}" for i, j, k, v in payload["dual_tensor"]) or "0"),
        f"dual chirality: {payload['dual_chirality']}",
        f"r antisymmetric: {payload['r_antisymmetric']}",
    ]
    _emit(payload, args.format, lines)
    return OK


def _cmd_ybe(args) -> int:
    _, alg, _ = _load_algebra(args.file)
    r = _load_rmatrix(args.r, alg.dim)
    side = _side(args.side)
    ok = _lazy.cybe_check(alg, r, side)
    payload = {
        "side": side.value,
        "cybe": "satisfied" if ok else "violated",
        "r_antisymmetric": _lazy.is_antisymmetric_matrix(r),
    }
    _emit(payload, args.format, [f"CYBE: {payload['cybe']}"])
    return OK if ok else FAIL


def _cmd_gybe(args) -> int:
    _, alg, _ = _load_algebra(args.file)
    r = _load_rmatrix(args.r, alg.dim)
    side = _side(args.side)
    ok = not _lazy.gybe_residual(alg, r, side)
    payload = {"side": side.value, "gybe": "satisfied" if ok else "violated"}
    _emit(payload, args.format, [f"GYBE: {payload['gybe']}"])
    return OK if ok else FAIL


def _cmd_schouten(args) -> int:
    _, alg, _ = _load_algebra(args.file)
    r = _load_rmatrix(args.r, alg.dim)
    side = _side(args.side)
    s = _lazy.schouten(alg, r, side)
    entries = [[m, p, q, rational_str(v)] for (m, p, q), v in s.entries]
    payload = {
        "side": side.value,
        "entries": entries,
        "zero": s.is_zero(),
        "r_antisymmetric": _lazy.is_antisymmetric_matrix(r),
    }
    lines = (
        ["schouten: 0"]
        if s.is_zero()
        else ["schouten: " + " ".join(f"({a},{b},{c})={v}" for a, b, c, v in entries)]
    )
    _emit(payload, args.format, lines)
    return OK


def _cmd_report(args) -> int:
    doc, alg, raw = _load_algebra(args.file)
    payload = build_report(doc, alg, raw, args.seed)
    sys.stdout.write(render_json(payload))
    return FAIL if payload["check"]["chirality"] == "neither" else OK


def _cmd_corpus(args) -> int:
    if not args.name:
        for name in corpus_mod.names():
            sys.stdout.write(name + "\n")
        return OK
    try:
        text = corpus_mod.text(args.name)
    except KeyError as exc:
        raise ParseError(str(exc)) from None
    if args.dest:
        dest = Path(args.dest)
        dest.mkdir(parents=True, exist_ok=True)
        target = dest / f"{args.name}.leib"
        target.write_text(text, "utf-8")
        sys.stdout.write(str(target) + "\n")
    else:
        sys.stdout.write(text)
    return OK


class _ScenarioOption(argparse.Action):
    """``duals --scenario``: the help lists the solver's scenario keys and is
    built only when it is printed, so that parsing loads no solver."""

    help = property(
        lambda self: "scenario key ("
        + ", ".join(sc.key for sc in _lazy.SCENARIOS) + ") or 'all'",
        lambda self, value: None,
    )

    def __call__(self, parser, namespace, values, option_string):
        setattr(namespace, self.dest, values)


_FILE = ("file", {"help": "algebra definition file"})
_FORMAT = ("--format", {"choices": ("json", "text"), "default": "text"})
_SIDE = ("--side", {"required": True})
_R = ("--r", {"required": True})

# The commands: name, help, handler and arguments, in help order.
COMMANDS = (
    ("check", "classify the bracket and verify the declared side", _cmd_check,
     (_FILE, _FORMAT)),
    ("adjoint", "print the adjoint slice matrices", _cmd_adjoint, (_FILE, _FORMAT)),
    ("actions", "verify the module axioms per action case", _cmd_actions,
     (_FILE, _FORMAT)),
    ("duals", "solve the dual-structure scenarios", _cmd_duals, (
        _FILE, _FORMAT,
        ("--scenario", {"default": "all", "action": _ScenarioOption}),
    )),
    ("rmatrix", "recover r-matrices for a given dual tensor", _cmd_rmatrix, (
        _FILE, _FORMAT,
        ("--case", {"required": True, "help": "coboundary case (right1|left1|right4|left4)"}),
        ("--dual", {"required": True, "help": "dual tensor definition file"}),
    )),
    ("coboundary", "cocommutator induced by an r-matrix", _cmd_coboundary, (
        _FILE, _FORMAT, ("--case", {"required": True}),
        ("--r", {"required": True, "help": "r-matrix definition file"}),
    )),
    ("ybe", "classical Yang-Baxter check", _cmd_ybe,
     (_FILE, _FORMAT, ("--side", {"required": True, "help": "l|r"}), _R)),
    ("gybe", "generalized Yang-Baxter check", _cmd_gybe, (_FILE, _FORMAT, _SIDE, _R)),
    ("schouten", "Schouten bracket of an r-matrix with itself", _cmd_schouten,
     (_FILE, _FORMAT, _SIDE, _R)),
    ("report", "run everything and emit the JSON report", _cmd_report,
     (("file", {}), ("--seed", {"type": int, "default": 0}))),
    ("corpus", "list or extract the bundled examples", _cmd_corpus, (
        ("name", {"nargs": "?", "default": ""}),
        ("--dest", {"default": "", "help": "directory to extract into"}),
    )),
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="leibnizalg",
        description="Exact verification toolkit for Leibniz algebras, their "
        "dual (bialgebra) structures and classical r-matrices.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text, fn, arguments in COMMANDS:
        p = sub.add_parser(name, help=help_text)
        for flag, options in arguments:
            p.add_argument(flag, **options)
        p.set_defaults(fn=fn)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else BAD_INPUT
    try:
        return args.fn(args)
    except _Verification as exc:
        print(f"verification failed: {exc}", file=sys.stderr)
        return FAIL
    except (LeibnizError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return BAD_INPUT


if __name__ == "__main__":
    sys.exit(main())
