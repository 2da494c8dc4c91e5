"""Command-line interface.

Exit codes: 0 success, 1 verification failure, 2 input/usage error.

Importing this module loads no other package module but ``errors``; the
rest is bound on first use and called as ``_lazy.name``, looked up on this
module at call time.  So ``corpus`` loads only ``corpus``, and a command
that reads an algebra loads ``document`` (the parser and the JSON forms)
with ``core``, ``linalg`` and ``record``, then ``report`` or, for the five
r-matrix commands, ``rmatrix``; those two modules say what each adds.
"""

import argparse
import sys
from pathlib import Path

from . import _on_first_use
from .errors import ChiralityError, LeibnizError, ParseError, quote

__getattr__ = _on_first_use(globals(), [
    # every command that reads an algebra
    {".core": ("Side",), ".document": ("matrix_json", "parse_algebra", "rational_str",
                                       "render_json", "tensor_json")},
    # the r-matrix commands.  parse_rmatrix is in this group because
    # bench/tracing.py looks it up before it wraps any rmatrix function, so
    # the group binds the unwrapped functions and each wrapper runs once.
    {".document": ("parse_rmatrix",),
     ".rmatrix": ("coboundary_case", "coboundary_cocommutator", "cybe_check",
                  "gybe_residual", "is_antisymmetric_matrix", "schouten",
                  "solve_rmatrix")},
    {".report": ("actions_section", "adjoint_section", "build_report",
                 "chirality_section", "duals_section")},
    {".solver": ("scenario",)},
    {".corpus": ("names", "text")},
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
    doc = _lazy.parse_algebra(text)
    try:
        alg = doc.algebra()
    except ChiralityError as exc:
        raise _Verification(str(exc)) from None
    return doc, alg, raw


def _load_rmatrix(path: str, dim: int):
    doc = _lazy.parse_rmatrix(_read(path)[1])
    if doc.dim != dim:
        raise ParseError(f"r-matrix dimension {doc.dim} does not match algebra dimension {dim}")
    return doc.matrix()


def _side(arg: str) -> "Side":
    key = arg.lower()
    if key in ("l", "left"):
        return _lazy.Side.LEFT
    if key in ("r", "right"):
        return _lazy.Side.RIGHT
    raise ParseError(f"bad side {quote(arg)}; want l|r|left|right")


def _emit(payload, fmt: str, text_lines):
    if fmt == "json":
        sys.stdout.write(_lazy.render_json(payload))
    else:
        for line in text_lines:
            sys.stdout.write(line + "\n")


def _cmd_check(args) -> int:
    doc, alg, _ = _load_algebra(args.file)
    section = _lazy.chirality_section(alg)
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
    section = _lazy.adjoint_section(alg)
    lines = []
    for label in ("first_slot", "second_slot", "output_slot"):
        for idx, m in enumerate(section[label], start=1):
            lines.append(f"{label}[{idx}]:")
            lines.extend("  [" + ", ".join(row) + "]" for row in m)
    _emit(section, args.format, lines)
    return OK


def _cmd_actions(args) -> int:
    _, alg, _ = _load_algebra(args.file)
    section = _lazy.actions_section(alg)
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
    if args.scenario.lower() != "all":
        sc = _lazy.scenario(args.scenario)
        sc.require(alg)
        key = sc.key
    section = _lazy.duals_section(alg, key=key)
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
    dual_doc = _lazy.parse_algebra(_read(args.dual)[1])
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
        "particular": _lazy.matrix_json(family.particular),
        "kernel": [_lazy.matrix_json(m) for m in family.kernel],
        "parameters": list(family.parameters),
    }
    lines = [f"case {case.value}: affine family with {family.dimension} parameters",
             "particular:"]
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
    from .core import classify  # at call time: bench/tracing.py wraps core.classify

    payload = {
        "case": case.value,
        "dual_tensor": _lazy.tensor_json(ftilde),
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
    entries = [[m, p, q, _lazy.rational_str(v)] for (m, p, q), v in s]
    payload = {
        "side": side.value,
        "entries": entries,
        "zero": not s,
        "r_antisymmetric": _lazy.is_antisymmetric_matrix(r),
    }
    lines = (
        ["schouten: 0"]
        if not s
        else ["schouten: " + " ".join(f"({a},{b},{c})={v}" for a, b, c, v in entries)]
    )
    _emit(payload, args.format, lines)
    return OK


def _cmd_report(args) -> int:
    doc, alg, raw = _load_algebra(args.file)
    payload = _lazy.build_report(doc, alg, raw, args.seed)
    sys.stdout.write(_lazy.render_json(payload))
    return FAIL if payload["check"]["chirality"] == "neither" else OK


def _cmd_corpus(args) -> int:
    if not args.name:
        for name in _lazy.names():
            sys.stdout.write(name + "\n")
        return OK
    try:
        text = _lazy.text(args.name)
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


_FILE = ("file", {"help": "algebra definition file"})
_FORMAT = ("--format", {"type": str.lower, "choices": ("json", "text"), "default": "text"})
_SIDE = ("--side", {"required": True})
_R = ("--r", {"required": True})


def _scenario_help() -> str:
    from .solver import SCENARIOS
    return "scenario key (" + ", ".join(sc.key for sc in SCENARIOS) + ") or 'all'"


# The commands: name, help, handler and a function that returns the
# arguments, in help order.
COMMANDS = (
    ("check", "classify the bracket and verify the declared side", _cmd_check,
     lambda: (_FILE, _FORMAT)),
    ("adjoint", "print the adjoint slice matrices", _cmd_adjoint, lambda: (_FILE, _FORMAT)),
    ("actions", "verify the module axioms per action case", _cmd_actions,
     lambda: (_FILE, _FORMAT)),
    ("duals", "solve the dual-structure scenarios", _cmd_duals, lambda: (
        _FILE, _FORMAT, ("--scenario", {"default": "all", "help": _scenario_help()}),
    )),
    ("rmatrix", "recover r-matrices for a given dual tensor", _cmd_rmatrix, lambda: (
        _FILE, _FORMAT,
        ("--case", {"required": True, "help": "coboundary case (right1|left1|right4|left4)"}),
        ("--dual", {"required": True, "help": "dual tensor definition file"}),
    )),
    ("coboundary", "cocommutator induced by an r-matrix", _cmd_coboundary, lambda: (
        _FILE, _FORMAT, ("--case", {"required": True}),
        ("--r", {"required": True, "help": "r-matrix definition file"}),
    )),
    ("ybe", "classical Yang-Baxter check", _cmd_ybe,
     lambda: (_FILE, _FORMAT, ("--side", {"required": True, "help": "l|r"}), _R)),
    ("gybe", "generalized Yang-Baxter check", _cmd_gybe, lambda: (_FILE, _FORMAT, _SIDE, _R)),
    ("schouten", "Schouten bracket of an r-matrix with itself", _cmd_schouten,
     lambda: (_FILE, _FORMAT, _SIDE, _R)),
    ("report", "run everything and emit the JSON report", _cmd_report,
     lambda: (("file", {}), ("--seed", {"type": int, "default": 0}))),
    ("corpus", "list or extract the bundled examples", _cmd_corpus, lambda: (
        ("name", {"nargs": "?", "default": ""}),
        ("--dest", {"default": "", "help": "directory to extract into"}),
    )),
)


def _one_line(message: str) -> str:
    """``message`` on one short line: words cut to 40 characters, the line to 280."""
    line = " ".join(w if len(w) <= 40 else w[:40] + "..." for w in message.split())
    return line if len(line) <= 280 else line[:280] + "..."


def _usage_error(message: str):
    """Raise an argparse usage error as ParseError, on one short line."""
    raise ParseError(_one_line(message))


class _Parser(argparse.ArgumentParser):
    error = staticmethod(_usage_error)  # the subparsers are built with this class too


def build_parser(argv) -> argparse.ArgumentParser:
    """The parser with the arguments of only the command that ``argv``
    names, its first token that is a command name, and with that command
    alone when it is ``argv[0]``: the help, usage and error texts are those
    of a parser with every command and argument."""
    names = {name for name, *_ in COMMANDS}
    command = next((a for a in argv if a in names), None)
    alone = argv[:1] == [command]
    parser = _Parser(
        prog="leibnizalg",
        description="Exact verification toolkit for Leibniz algebras, their "
        "dual (bialgebra) structures and classical r-matrices.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text, fn, arguments in COMMANDS:
        if alone and name != command:
            continue
        p = sub.add_parser(name, help=help_text)
        for flag, options in arguments() if name == command else ():
            p.add_argument(flag, **options)
        p.set_defaults(fn=fn)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        args = build_parser(argv).parse_args(argv)
        return args.fn(args)
    except SystemExit:  # --help; usage errors raise ParseError
        return OK
    except _Verification as exc:
        print(f"verification failed: {exc}", file=sys.stderr)
        return FAIL
    except (LeibnizError, OSError) as exc:  # an OSError names its file whole
        text = str(exc) if isinstance(exc, LeibnizError) else _one_line(str(exc))
        print(f"error: {text}", file=sys.stderr)
        return BAD_INPUT


if __name__ == "__main__":
    sys.exit(main())
