import contextlib
import errno
import hashlib
import io
import itertools
import json
import os
import random
import re
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

from leibnizalg import cli
from leibnizalg.cli import main
from leibnizalg.errors import ParseError

from families import nf_dense
from oracles import dense_rref

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"


def child_env(buffered=True) -> dict:
    """The environment of every CLI child: the package on the path and
    ``PYTHONUNBUFFERED`` unset, so stdout into a pipe or file is block-buffered
    as users get it; set to 1 when ``buffered`` is false."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("PYTHONUNBUFFERED", None)
    return env if buffered else dict(env, PYTHONUNBUFFERED="1")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCheck:
    def test_example2_right_exit_zero(self, corpus_files, capsys):
        code, out, _ = run(capsys, "check", str(corpus_files["example2"]))
        assert code == 0
        assert "chirality: right" in out

    def test_wrong_declared_side_fails(self, tmp_path, capsys):
        bad = tmp_path / "bad.leib"
        bad.write_text("dim: 2\nside: right\nf 1 1 2 = 1\nf 1 2 2 = 1\n")
        code, _, err = run(capsys, "check", str(bad))
        assert code == 1
        assert "verification failed" in err

    def test_auto_neither_fails(self, tmp_path, capsys):
        bad = tmp_path / "bad.leib"
        bad.write_text("dim: 2\nf 1 1 1 = 1\nf 1 1 2 = 1\nf 2 1 1 = 1\n")
        code, out, _ = run(capsys, "check", str(bad))
        assert code == 1
        assert "chirality: neither" in out

    def test_parse_error_is_exit_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.leib"
        bad.write_text("dim: 2\nf 1 1 = nope\n")
        code, _, err = run(capsys, "check", str(bad))
        assert code == 2
        assert "error" in err

    def test_missing_file_is_exit_two(self, capsys):
        code, _, err = run(capsys, "check", "/nonexistent/x.leib")
        assert code == 2

    def test_long_file_name_is_one_short_line_exit_two(self, capsys):
        # the OSError message holds the whole name; the system refuses it
        code, out, err = run(capsys, "check", "x" * 400)
        assert (code, out) == (2, "")
        assert err.startswith("error: [Errno ")
        assert err.count("\n") == 1
        assert len(err) < 300


# Bad definition files and the line their error names; "{e}" stands for the
# entry head ("f 1 1" in an algebra file, "r 1" in an r-matrix file).
BAD_FILES = {
    "zero-denominator": ("dim: 2\n{e} 2 = 1/0\n", 2),
    "superscript-dim": ("dim: \u00b2\n", 1),
    "superscript-index": ("dim: 2\n{e} \u00b2 = 1\n", 2),
    "over-long-integer": ("dim: 2\n{e} 2 = 1/" + "9" * 5000 + "\n", 2),
    "latin-1-byte": ("dim: 2\n# caf\udce9\n{e} 2 = 1\n", 2),
    # characters that str.splitlines() also breaks at; lines end in "\n" only
    "form-feed": ("dim: 2\x0c\n{e} 9 = 1\n", 2),
    "next-line": ("dim: 2\x85\n{e} 9 = 1\n", 2),
    "line-separator": ("dim: 2\u2028\n{e} 9 = 1\n", 2),
    # one long rejected text per place that quotes it in its error
    "long-index": ("dim: 2\n{e} " + "x" * 5000 + " = 1\n", 2),
    "long-side": ("dim: 2\nside: " + "q" * 5000 + "\n", 2),
    "long-directive": ("dim: 2\n" + "k" * 5000 + ": 1\n", 2),
    "long-line": ("dim: 2\n" + "z" * 5000 + "\n", 2),
    # one long number per place that shows a number read from the input
    "long-dimension": ("dim: " + "9" * 400 + "\n", 1),
    "long-index-number": ("dim: 2\n{e} " + "1" * 400 + " = 1\n", 2),
    "long-duplicate": ("dim: 2\n{e} " + "1" * 400 + " = 1\n{e} " + "1" * 400 + " = 2\n", 3),
}


@pytest.mark.parametrize("slot", ["algebra", "r", "dual"])
@pytest.mark.parametrize("bad", sorted(BAD_FILES))
def test_bad_file_is_one_line_exit_two(corpus_files, tmp_path, slot, bad):
    template, line = BAD_FILES[bad]
    head = "r 1" if slot == "r" else "f 1 1"
    path = tmp_path / "bad.txt"
    path.write_bytes(template.format(e=head).encode("utf-8", "surrogateescape"))
    good = str(corpus_files["example2"])
    argv = {
        "algebra": ["check", str(path)],
        "r": ["ybe", good, "--side", "r", "--r", str(path)],
        "dual": ["rmatrix", good, "--case", "right1", "--dual", str(path)],
    }[slot]
    proc = subprocess.run(
        [sys.executable, "-m", "leibnizalg.cli", *argv],
        capture_output=True, text=True, env=child_env(),
    )
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith(f"error: line {line}: ")
    assert proc.stderr.count("\n") == 1
    assert len(proc.stderr) < 300


def _entries():
    """The process entries, as argv heads: ``python -m leibnizalg.cli`` and the
    console script that pyproject.toml names, run as its generated wrapper runs it."""
    text = (ROOT / "pyproject.toml").read_text("utf-8")
    module, name = re.search(r'^leibnizalg = "([\w.]+):(\w+)"$', text, re.M).groups()
    script = f"import sys; from {module} import {name}; sys.exit({name}())"
    return {"module": ["-m", "leibnizalg.cli"], "script": ["-c", script]}


# Calls that a buffered child must answer as cli.main answers in process:
# the duals output is past the 8 KiB stdout buffer, the neither algebra
# prints its verdict and exits 1, and help leaves argparse by SystemExit.
DIFFERENTIAL = {
    "duals": "duals {example3} --format json",
    "report": "report {example1} --seed 0",
    "neither": "check {neither}",
    "bad-file": "check {bad}",
    "usage": "ybe {example1} --side l",
    "help": "check --help",
}


@pytest.mark.parametrize("entry", ["module", "script"])
@pytest.mark.parametrize("name", sorted(DIFFERENTIAL))
def test_buffered_child_matches_main_in_process(corpus_files, tmp_path, monkeypatch, capsys,
                                                name, entry):
    monkeypatch.setenv("COLUMNS", "80")
    files = dict(corpus_files, neither=tmp_path / "neither.leib", bad=tmp_path / "bad.leib")
    files["neither"].write_text("dim: 2\nf 1 1 1 = 1\nf 1 1 2 = 1\nf 2 1 1 = 1\n")
    files["bad"].write_text("dim: 2\nf 1 1 = nope\n")
    argv = DIFFERENTIAL[name].format(**files).split()
    child = subprocess.run([sys.executable, *_entries()[entry], *argv],
                           capture_output=True, env=child_env())
    code, out, err = run(capsys, *argv)
    assert (child.returncode, child.stdout, child.stderr.decode("utf-8")) == (
        code, out.encode("utf-8"), err)
    if name == "duals":
        assert len(out) > 8192


@contextlib.contextmanager
def _failed_stdout(kind):
    """Popen keywords that give the child the stdout ``kind`` names."""
    if kind == "closed":  # the child starts with sys.stdout None
        yield {"preexec_fn": lambda: os.close(1)}
        return
    if kind == "full":
        if not Path("/dev/full").exists():
            pytest.skip("no /dev/full")
        out = open("/dev/full", "wb")
    else:  # a pipe whose reader has closed
        reader, writer = os.pipe()
        os.close(reader)
        out = os.fdopen(writer, "wb")
    with out:
        yield {"stdout": out}


FAILED_STDOUT = {
    "full": ("corpus", f"[Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}"),
    "closed-pipe": ("check {example1} --format json",
                    f"[Errno {errno.EPIPE}] {os.strerror(errno.EPIPE)}"),
    "closed": ("corpus", "stdout is closed"),
}


@pytest.mark.parametrize("entry", ["module", "script"])
@pytest.mark.parametrize("buffered", [True, False])
@pytest.mark.parametrize("kind", sorted(FAILED_STDOUT))
def test_failed_or_closed_stdout_is_one_line_exit_two(corpus_files, kind, buffered, entry):
    line, message = FAILED_STDOUT[kind]
    with _failed_stdout(kind) as stdout:
        proc = subprocess.run(
            [sys.executable, *_entries()[entry], *line.format(**corpus_files).split()],
            stderr=subprocess.PIPE, text=True, env=child_env(buffered), **stdout)
    assert (proc.returncode, proc.stderr) == (2, f"error: {message}\n")


# With stderr closed, sys.stderr is None and print() writes the error line
# to stdout, after whatever the command wrote there.
@pytest.mark.parametrize("buffered", [True, False])
@pytest.mark.parametrize("line", ["check {example2}", "check {example2}.missing"])
def test_closed_stderr_keeps_every_line_and_exit_code(corpus_files, capsys, line, buffered):
    argv = line.format(**corpus_files).split()
    proc = subprocess.run([sys.executable, "-m", "leibnizalg.cli", *argv], stdout=subprocess.PIPE,
                          text=True, env=child_env(buffered), preexec_fn=lambda: os.close(2))
    code, out, err = run(capsys, *argv)
    assert (proc.returncode, proc.stdout) == (code, out + err)


# With stderr on a full device the error line is lost, and the exit code
# still tells an input error (2) from a verification failure (1).
@pytest.mark.parametrize("buffered", [True, False])
@pytest.mark.parametrize("line", ["check {example2}", "check {example2}.missing",
                                  "check {claims_right}"])
def test_full_stderr_keeps_every_line_and_exit_code(corpus_files, tmp_path, capsys, line,
                                                    buffered):
    if not Path("/dev/full").exists():
        pytest.skip("no /dev/full")
    claims_right = tmp_path / "claims_right.leib"
    claims_right.write_text("dim: 2\nside: right\nf 1 1 2 = 1\nf 1 2 2 = 1\n")
    argv = line.format(claims_right=claims_right, **corpus_files).split()
    with open("/dev/full", "wb") as full:
        proc = subprocess.run([sys.executable, "-m", "leibnizalg.cli", *argv],
                              stdout=subprocess.PIPE, stderr=full, text=True,
                              env=child_env(buffered))
    code, out, err = run(capsys, *argv)
    assert (proc.returncode, proc.stdout) == (code, out)
    assert code == 0 or err


# A reader that takes the first 100 bytes of a 2.6 MB report (ab_6, every
# dual entry free) and closes the pipe while the report is being written.
# Unbuffered, a bare stdout file takes the short write that the closing pipe
# allows and drops the rest, so the call would exit 0 with a cut output.
@pytest.mark.parametrize("buffered", [True, False])
def test_reader_closing_early_is_one_line_exit_two(tmp_path, buffered):
    path = tmp_path / "ab6.leib"
    path.write_text("dim: 6\n")
    with subprocess.Popen([sys.executable, "-m", "leibnizalg.cli", "report", str(path),
                           "--seed", "0"], stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          env=child_env(buffered)) as proc:
        assert len(proc.stdout.read(100)) == 100
        proc.stdout.close()
        err = proc.stderr.read().decode("utf-8")
    assert (proc.returncode, err) == (2, f"error: [Errno {errno.EPIPE}] {os.strerror(errno.EPIPE)}\n")


# A child whose address space is capped at 64 MiB: the interpreter starts
# and runs `corpus`, but `duals` on NF_6 dense, about 320 MB at its peak,
# cannot finish.
MEMORY_CAP = 64 << 20


def test_out_of_memory_is_one_line_exit_two(tmp_path):
    resource = pytest.importorskip("resource")
    path = tmp_path / "dense6.leib"
    path.write_text("dim: 6\n" + "".join(
        f"f {i} {j} {k} = {v}\n" for (i, j, k), v in nf_dense(6).items()))

    def capped(*argv):
        return subprocess.run(
            [sys.executable, "-m", "leibnizalg.cli", *argv], stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE, text=True, env=child_env(),
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (MEMORY_CAP, MEMORY_CAP)))

    proc = capped("corpus")
    assert (proc.returncode, proc.stderr) == (0, "")
    proc = capped("duals", str(path), "--format", "json")
    assert (proc.returncode, proc.stderr) == (2, "error: out of memory\n")


# Imports every package module, then runs report and corpus --dest through
# cli.main, and prints every handler registered on atexit meanwhile: the
# process entry ends with os._exit, which runs none.
ATEXIT_CHILD = """
import atexit, contextlib, importlib, io, pkgutil, sys
registered = []
atexit.register = lambda fn, *args, **kwargs: registered.append(repr(fn)) or fn
import leibnizalg
for module in pkgutil.iter_modules(leibnizalg.__path__):
    importlib.import_module("leibnizalg." + module.name)
from leibnizalg import cli
with contextlib.redirect_stdout(io.StringIO()):
    assert cli.main(["report", sys.argv[1], "--seed", "0"]) == 0
    assert cli.main(["corpus", "example1", "--dest", sys.argv[2]]) == 0
print(registered)
"""


def test_package_registers_no_atexit_handler(corpus_files, tmp_path):
    out = _child("-c", ATEXIT_CHILD, str(corpus_files["example2"]), str(tmp_path / "out"))
    assert out == "[]\n"
    assert (tmp_path / "out" / "example1.leib").exists()


# One long value per command-line flag whose rejected value an error quotes.
LONG_FLAGS = {
    "side": ["ybe", "{alg}", "--side", "{long}", "--r", "{r}"],
    "case": ["rmatrix", "{alg}", "--case", "{long}", "--dual", "{alg}"],
    "scenario": ["duals", "{alg}", "--scenario", "{long}"],
}


# Runs one command through cli.main, then prints the package modules,
# `random` and the argument and JSON parsers that the call loaded.
MODULES_CHILD = """
import contextlib, io, sys
from leibnizalg import cli
with contextlib.redirect_stdout(io.StringIO()):
    assert cli.main(sys.argv[1:]) in (0, 1)
print(" ".join(m.removeprefix("leibnizalg.") for m in sorted(sys.modules)
               if m.startswith("leibnizalg.")
               or m.partition(".")[0] in ("random", "argparse", "gettext", "locale", "json")))
"""

# argparse with what its messages load, and the json package: a plain call
# loads none of them
PARSERS = {"argparse", "gettext", "locale", "json"}
# the package's modules, `random` and PARSERS, as MODULES_CHILD prints them
MODULES = ({p.stem for p in (SRC / "leibnizalg").glob("*.py") if p.stem != "__init__"}
           | {"random"} | PARSERS)
# the r-matrix commands load no report, and only the two that apply or invert
# the coboundary load cohomology and actions
COBOUNDARY = ({"rmatrix", "actions", "cohomology"}, {"solver", "report"} | PARSERS)
CHECKS = ({"rmatrix"}, {"solver", "report", "actions", "cohomology"} | PARSERS)
# the layers that neither check nor adjoint loads
LAYERS = {"actions", "cohomology", "solver", "rmatrix", "random"}

# command line -> modules the command must load, modules it must not
COMMAND_MODULES = {
    "check {example1}": ({"report"}, LAYERS | PARSERS),
    "adjoint {example1}": ({"report"}, LAYERS | PARSERS),
    "actions {example1} --format json": ({"report", "actions"}, LAYERS - {"actions"} | PARSERS),
    "rmatrix {example1} --case left4 --dual {example1}": COBOUNDARY,
    "coboundary {example1} --case left4 --r {r}": COBOUNDARY,
    "schouten {example1} --side l --r {r}": CHECKS,
    "ybe {example1} --side l --r {r}": CHECKS,
    "gybe {example1} --side l --r {r}": CHECKS,
    "corpus": ({"cli", "corpus", "errors"}, MODULES - {"cli", "corpus", "errors"}),
    "duals {example3}": ({"solver"}, {"rmatrix", "random"} | PARSERS),
    "duals {example3} --scenario l-3-l": ({"solver"}, {"rmatrix", "random"} | PARSERS),
    "report {example1} --seed 3": (MODULES - {"corpus"} - PARSERS, PARSERS),
    # help goes through argparse, and the scenario keys in the duals help
    # are written out, so it loads no solver
    "check --help": ({"argparse"}, MODULES - {"cli", "errors", "argparse", "gettext", "locale"}),
    "duals --help": ({"argparse"}, LAYERS | {"core", "document", "json", "report"}),
}


def _child(*args):
    return subprocess.run(
        [sys.executable, "-S", *args], capture_output=True, text=True, env=child_env(), check=True
    ).stdout


def test_import_skips_start_up_heavy_modules(corpus_files, tmp_path):
    # every CLI call imports the package; these cost milliseconds to load
    # (inspect and its parsers, OpenSSL) and no command needs them at import
    heavy = ("dataclasses", "inspect", "hashlib", "argparse", "json")
    probe = f"import sys, leibnizalg.cli; print([m for m in {heavy!r} if m in sys.modules])"
    assert _child("-c", probe) == "[]\n"
    # the parser, --help and usage errors need no other package module and
    # no exact arithmetic
    probe = ("import sys, leibnizalg.cli; print(sorted(m for m in sys.modules "
             "if m.startswith('leibnizalg.') or m in ('fractions', 'decimal')))")
    assert _child("-c", probe) == "['leibnizalg.cli', 'leibnizalg.errors']\n"
    # the package alone loads none of its modules; each export loads on use
    probe = ("import sys, leibnizalg; before = [m for m in sys.modules if '.' in m "
             "and m.startswith('leibnizalg')]; "
             "[getattr(leibnizalg, name) for name in leibnizalg.__all__]; print(before)")
    assert _child("-c", probe) == "[]\n"
    # each command loads only the modules it uses; every set (LAYERS,
    # COBOUNDARY and CHECKS among them) names only modules that exist, so
    # that no "must not load" check passes on a deleted module
    assert all(need | skip <= MODULES for need, skip in COMMAND_MODULES.values())
    files = dict(corpus_files, r=tmp_path / "r.rmat")
    files["r"].write_text("dim: 2\nr 1 2 = 1\nr 2 1 = -1\n")
    for line, (need, skip) in COMMAND_MODULES.items():
        loaded = set(_child("-c", MODULES_CHILD, *line.format(**files).split()).split())
        assert need <= loaded and not skip & loaded, (line, sorted(loaded))


# Runs one `report` through cli.main, then prints which of hashlib and its
# OpenSSL backend the call loaded.
REPORT_HASH_CHILD = """
import contextlib, io, sys
from leibnizalg import cli
with contextlib.redirect_stdout(io.StringIO()):
    assert cli.main(sys.argv[1:]) == 0
print([m for m in ("_hashlib", "hashlib") if m in sys.modules])
"""


def test_report_loads_no_openssl(corpus_files):
    # the input digest comes from the interpreter's own sha256 module
    loaded = _child("-c", REPORT_HASH_CHILD, "report", str(corpus_files["example1"]),
                    "--seed", "0")
    assert loaded == "[]\n"


def test_report_digest_is_the_sha256_of_the_input(corpus_files, capsys):
    from leibnizalg.report import _sha256

    for data in (b"", b"abc", bytes(range(256)) * 300):
        assert _sha256(data) == hashlib.sha256(data).hexdigest()
    path = corpus_files["example3"]
    code, out, _ = run(capsys, "report", str(path), "--seed", "0")
    assert code == 0
    assert json.loads(out)["input"]["digest"] == hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("flag", sorted(LONG_FLAGS))
def test_long_flag_value_is_one_short_line_exit_two(corpus_files, tmp_path, capsys, flag):
    rfile = tmp_path / "r.rmat"
    rfile.write_text("dim: 2\nr 1 2 = 1\n")
    alg = str(corpus_files["example2"])
    argv = [a.format(alg=alg, long="q" * 5000, r=rfile) for a in LONG_FLAGS[flag]]
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert err.startswith("error: ")
    assert err.count("\n") == 1
    assert len(err) < 300


# Exit code and SHA-256 of stdout, a NUL and stderr, for help, usage and
# error texts (argparse of Python 3.11, COLUMNS=80).  The help texts were
# recorded while the parser built every command's arguments, as it does
# again now that plain calls skip it, and they must not change.  The usage
# errors were recorded when they became one ``error:`` line.
PARSER_TEXTS = {
    "": (2, "dd9d12e69f049b4a9d48fe09798144d18ee21ee9fd53664fc5da95022d02c726"),
    "--help": (0, "faa7c7845db16214e2ecc9546f99a87f5fc67c267eb3f5f51bfba77d4dada392"),
    "-h": (0, "faa7c7845db16214e2ecc9546f99a87f5fc67c267eb3f5f51bfba77d4dada392"),
    "bogus": (2, "3eaa8c8d9a91d9390c9a1071f4d6b0fa06904169a82b8ba8677af8f785a099e6"),
    "duals": (2, "ee20af3a88db1fc08647334080196b417d30180c04017e7e5c5de33e4efaef33"),
    "check x.leib --format xml": (2, "cf6707ac8aaea32b0624ce5310eb272e49694f503cbc20ae71188422d638fb61"),
    "report x.leib --format json": (2, "6b436eae5ef843a705805d206ca001f27b0c894f02367e7ec0f19ee6f202c65b"),
    "corpus --format json": (2, "ed287c6541bfb6bf31e5ce2859ad1d27f2081b55eff49ab9558fdacabe735814"),
    "ybe x.leib": (2, "0631abd845e6bedbf3fa740450b7f0e934ee0ca3b0841d376c3a3c38c2cb3bc2"),
    "--format json check": (2, "afc9d457572f78b8c8e6207c86feec9033b7f0ab0c2d80a3f37fd3013e327445"),
    "duals x.leib --scenario": (2, "98b3993cbae022201773bd9a0957d074201024862adcaf38aa36860c409f8c14"),
    "check --help": (0, "100820d1fb58671c35ab48506fb9a05098c42b00621c017a31a860aebf4470c6"),
    "adjoint --help": (0, "69d014b077179ccbd1ea1e50be571530378203ddb76b237547e794ed7a087144"),
    "actions --help": (0, "955dd8637d06694004efa540157d43dc1d59efaf97ee8609bab82c58f0e52778"),
    "duals --help": (0, "f896be12a4ec9f04e1c514372a755ba4003c9b0780b55701818ce3f664a53d2f"),
    "rmatrix --help": (0, "bca96987a5f119f93a43dc28128f32693d884f20b3232117cfc4592cc35511e3"),
    "coboundary --help": (0, "df7afa3df010720eb7d25467f22e6875c336fbd9ac9f13928355053a5f0d9f78"),
    "ybe --help": (0, "162206b0b6af00c34e1d2609ac229529180cb21c5f34687f4b202047710f59e4"),
    "gybe --help": (0, "50ae2d340b529abc1f1d1c36d7cf9eb68b0a5d14e4687bd30d17573545ebd431"),
    "schouten --help": (0, "67ae6d1697abc91a5f8eefed414333378c432bd858d7d2bfe64bc1d76c7903be"),
    "report --help": (0, "76dccf664fc2209130ea8c2d03594d6116fb07c37b21ab131f770c9956d4c38a"),
    "corpus --help": (0, "1f92824193165fde73e06588d075e98ae39c81a74f8d49eeee4ae02a63f74c7e"),
}


@pytest.mark.skipif(sys.version_info[:2] != (3, 11),
                    reason="argparse lays out help differently in other Python versions")
@pytest.mark.parametrize("line", sorted(PARSER_TEXTS))
def test_parser_texts_pinned(monkeypatch, capsys, line):
    monkeypatch.setenv("COLUMNS", "80")
    code, out, err = run(capsys, *line.split())
    digest = hashlib.sha256(f"{out}\0{err}".encode("utf-8")).hexdigest()
    assert (code, digest) == PARSER_TEXTS[line]


# Usage errors, rejected tokens long or holding newlines among them: one
# ``error:`` line under 300 characters, exit 2.
USAGE_ERRORS = (
    [], ["bogus"], ["z" * 400], ["check"], ["check", "x", "--format", "xml"],
    ["report", "x", "--seed", "abc"], ["check", "x", "--bogus", "q" * 400],
    ["check", "x", *["--zz"] * 100], ["check", "a\nb", "--zz", "c\nd"],
    ["duals", "x", "--scenario"], ["check", "x", "--format", "q" * 400],
)


@pytest.mark.parametrize("argv", USAGE_ERRORS, ids=range(len(USAGE_ERRORS)))
def test_usage_error_is_one_short_line_exit_two(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: ")
    assert err.count("\n") == 1
    assert len(err) < 300


# Tokens of the random command lines: every flag of every command, and
# values that pass or fail the type and choices of some flag.
FLAGS = sorted({flag for *_, arguments in cli.COMMANDS for flag, _ in arguments
                if flag.startswith("-")})
VALUES = ["x.leib", "json", "JSON", "text", "xml", "", "all", "l-3-l", "left4", "l",
          "7", "1_0", " 5", "0x1", "abc", "-3"]


def _random_argv(rng):
    """A command line near a plain call: a command, its positional and some
    of its flags in random order, then up to three random edits."""
    name, _, _, arguments = rng.choice(cli.COMMANDS)
    flags = [flag for flag, _ in arguments if flag.startswith("-")]
    argv = [name] + [rng.choice(VALUES)] * (rng.random() < 0.9)
    for flag in rng.sample(flags, rng.randint(0, len(flags))):
        argv += [flag, rng.choice(VALUES)]
    for _ in range(rng.choice((0, 0, 1, 1, 2, 3))):
        at = rng.randrange(len(argv) + 1)
        edit = rng.randrange(8)
        if edit == 0:  # a missing token
            del argv[at - 1:at]
        elif edit == 1:  # an extra token
            argv.insert(at, rng.choice(VALUES))
        elif edit == 2:
            argv.insert(at, rng.choice(("-h", "--help", "--", "-")))
        elif edit == 3:  # a flag and value, maybe repeated or of another command
            argv[at:at] = [rng.choice(FLAGS + flags), rng.choice(VALUES)]
        elif edit == 4:
            argv.insert(at, f"{rng.choice(flags or FLAGS)}={rng.choice(VALUES)}")
        elif edit == 5:  # an abbreviated flag
            argv[at:at] = [rng.choice(FLAGS)[:rng.randint(3, 5)], rng.choice(VALUES)]
        elif edit == 6:  # the positional after the flags
            argv = argv[:1] + argv[2:] + argv[1:2]
        else:  # a command name that is not the first token
            argv.insert(at, rng.choice(cli.COMMANDS)[0])
    return argv


def test_plain_calls_read_as_argparse_reads_them():
    """Wherever the plain reader accepts a command line, argparse accepts it
    and builds the same namespace; the rest is left to argparse."""
    rng = random.Random(0)
    parser = cli.build_parser()
    accepted, by_argparse = set(), 0
    for _ in range(4000):
        argv = _random_argv(rng)
        plain = cli._plain_call(argv)
        if plain is not None:
            assert vars(plain) == vars(parser.parse_args(argv)), argv
            accepted.add(argv[0])
            continue
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                parser.parse_args(argv)
            by_argparse += 1
        except (ParseError, SystemExit):
            pass
    assert accepted == {name for name, *_ in cli.COMMANDS}
    assert by_argparse > 100  # abbreviations, --flag=value, repeats, -- and the like


def test_plain_call_reads_defaults_types_and_choices():
    args = cli._plain_call(["report", "x.leib"])
    assert vars(args) == {"command": "report", "fn": cli._cmd_report, "file": "x.leib", "seed": 0}
    args = cli._plain_call(["ybe", "x", "--r", "y", "--format", "JSON", "--side", "l"])
    assert (args.file, args.format, args.side, args.r) == ("x", "json", "l", "y")
    assert vars(cli._plain_call(["corpus"])) == {"command": "corpus", "fn": cli._cmd_corpus,
                                                 "name": "", "dest": ""}
    for argv in (["check", "x", "--format", "xml"], ["ybe", "x", "--r", "y"],
                 ["report", "x", "--seed", "abc"], ["check"], ["check", "x", "--format"],
                 ["check", "x", "--format=json"], ["check", "x", "--form", "json"],
                 ["check", "x", "--format", "json", "--format", "text"], ["check", "x", "--"],
                 ["check", "x", "y"], ["bogus", "x"], []):
        assert cli._plain_call(argv) is None, argv


def test_scenario_help_lists_the_solver_keys_in_order():
    from leibnizalg.solver import SCENARIOS

    duals = next(arguments for name, *_, arguments in cli.COMMANDS if name == "duals")
    keys = ", ".join(sc.key for sc in SCENARIOS)
    assert dict(duals)["--scenario"]["help"] == f"scenario key ({keys}) or 'all'"


@pytest.mark.parametrize("command", ["check", "adjoint", "actions", "duals"])
def test_format_in_any_case(corpus_files, capsys, command):
    path = str(corpus_files["example1"])
    want = run(capsys, command, path, "--format", "json")
    assert want[0] == 0 and want[1].startswith("{")
    for value in ("JSON", "Json"):
        assert run(capsys, command, path, "--format", value) == want


class TestDuals:
    def test_all_scenarios(self, corpus_files, capsys):
        code, out, _ = run(
            capsys, "duals", str(corpus_files["example1"]), "--format", "json"
        )
        assert code == 0
        payload = json.loads(out)
        assert sorted(payload) == ["l-3-l", "l-3-r", "lr-1-r", "lr-4-l"]
        assert payload["lr-4-l"]["kernel_dimension"] == 2

    def test_single_scenario(self, corpus_files, capsys):
        code, out, _ = run(
            capsys, "duals", str(corpus_files["example3"]), "--scenario", "lr-1-r"
        )
        assert code == 0
        assert "lr-1-r" in out

    def test_scenario_all_in_any_case(self, corpus_files, capsys):
        path = str(corpus_files["example1"])
        want = run(capsys, "duals", path, "--scenario", "all")
        assert want[0] == 0
        for key in ("ALL", "All"):
            assert run(capsys, "duals", path, "--scenario", key) == want

    def test_incompatible_scenario_is_input_error(self, corpus_files, capsys):
        code, _, err = run(
            capsys, "duals", str(corpus_files["example2"]), "--scenario", "l-3-r"
        )
        assert code == 2

    def test_dim9_rejected(self, tmp_path, capsys):
        big = tmp_path / "big.leib"
        big.write_text("dim: 9\n")
        code, _, err = run(capsys, "duals", str(big), "--scenario", "all")
        assert code == 2
        assert "outside 1..8" in err


class TestRMatrixCommands:
    def test_ybe_satisfied(self, corpus_files, tmp_path, capsys):
        rfile = tmp_path / "r.rmat"
        rfile.write_text("dim: 2\nr 1 2 = 1\nr 2 1 = -1\n")
        code, out, _ = run(
            capsys,
            "ybe",
            str(corpus_files["example3"]),
            "--side",
            "r",
            "--r",
            str(rfile),
        )
        assert code == 0
        assert "CYBE: satisfied" in out

    def test_ybe_violated_exit_one(self, corpus_files, tmp_path, capsys):
        rfile = tmp_path / "r.rmat"
        rfile.write_text("dim: 2\nr 1 2 = 1\n")
        code, out, _ = run(
            capsys,
            "ybe",
            str(corpus_files["example3"]),
            "--side",
            "r",
            "--r",
            str(rfile),
        )
        assert code == 1
        assert "CYBE: violated" in out

    def test_gybe_despite_cybe(self, corpus_files, tmp_path, capsys):
        rfile = tmp_path / "r.rmat"
        rfile.write_text("dim: 2\nr 1 2 = 1\n")
        code, out, _ = run(
            capsys,
            "gybe",
            str(corpus_files["example3"]),
            "--side",
            "r",
            "--r",
            str(rfile),
        )
        assert code == 0
        assert "GYBE: satisfied" in out

    def test_solve_recovers_family(self, corpus_files, tmp_path, capsys):
        dual = tmp_path / "dual.leib"
        dual.write_text("dim: 2\nf 1 2 1 = -1\nf 1 2 2 = -1\nf 2 2 1 = 1\nf 2 2 2 = 1\n")
        code, out, _ = run(
            capsys,
            "rmatrix",
            str(corpus_files["example1"]),
            "--case",
            "left4",
            "--dual",
            str(dual),
            "--format",
            "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["solvable"] is True
        assert payload["particular"] == [["1", "0"], ["-1", "0"]]

    def test_solve_infeasible_exit_one(self, corpus_files, tmp_path, capsys):
        dual = tmp_path / "dual.leib"
        dual.write_text("dim: 2\nf 1 2 1 = -1\nf 1 2 2 = -1\nf 2 1 1 = 1\nf 2 1 2 = 1\n")
        code, out, _ = run(
            capsys,
            "rmatrix",
            str(corpus_files["example1"]),
            "--case",
            "left4",
            "--dual",
            str(dual),
        )
        assert code == 1
        assert "infeasible" in out

    def test_coboundary_output(self, corpus_files, tmp_path, capsys):
        rfile = tmp_path / "r.rmat"
        rfile.write_text("dim: 2\nr 1 1 = 1\nr 2 1 = -1\n")
        code, out, _ = run(
            capsys,
            "coboundary",
            str(corpus_files["example1"]),
            "--case",
            "left4",
            "--r",
            str(rfile),
            "--format",
            "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["dual_chirality"] == "left"
        assert ["1", "2", "1", "-1"] in [
            [str(x) for x in row] for row in payload["dual_tensor"]
        ]

    def test_schouten_text(self, corpus_files, tmp_path, capsys):
        rfile = tmp_path / "r.rmat"
        rfile.write_text("dim: 2\nr 1 2 = 1\n")
        code, out, _ = run(
            capsys,
            "schouten",
            str(corpus_files["example3"]),
            "--side",
            "r",
            "--r",
            str(rfile),
        )
        assert code == 0
        assert "(2,2,2)=1" in out


class TestReportAndCorpus:
    def test_report_deterministic(self, corpus_files, capsys):
        code1, out1, _ = run(capsys, "report", str(corpus_files["example4"]))
        code2, out2, _ = run(capsys, "report", str(corpus_files["example4"]))
        assert code1 == code2 == 0
        assert out1 == out2
        payload = json.loads(out1)
        assert payload["tool"]["name"] == "leibnizalg"
        assert payload["check"]["chirality"] == "right"
        assert payload["selfcheck"]["dual_defect_identity"] is True

    def test_report_seed_recorded(self, corpus_files, capsys):
        _, out, _ = run(capsys, "report", str(corpus_files["example1"]), "--seed", "9")
        assert json.loads(out)["selfcheck"]["seed"] == 9

    def test_corpus_list_and_extract(self, tmp_path, capsys):
        code, out, _ = run(capsys, "corpus")
        assert code == 0
        assert out.split() == ["example1", "example2", "example3", "example4"]
        code, out, _ = run(capsys, "corpus", "example3", "--dest", str(tmp_path))
        assert code == 0
        assert (tmp_path / "example3.leib").read_text().startswith("#")

    def test_corpus_dest_without_name_is_one_line_exit_two(self, tmp_path, capsys):
        dest = tmp_path / "out"
        code, out, err = run(capsys, "corpus", "--dest", str(dest))
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not dest.exists()

    def test_corpus_unknown_name(self, capsys):
        code, _, err = run(capsys, "corpus", "example9")
        assert code == 2

    def test_unknown_flag_exit_two(self, corpus_files, capsys):
        code, _, _ = run(capsys, "check", str(corpus_files["example1"]), "--bogus")
        assert code == 2

    def test_adjoint_matches_goldens(self, corpus_files, capsys):
        code, out, _ = run(
            capsys, "adjoint", str(corpus_files["example1"]), "--format", "json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["first_slot"][0] == [["0", "-1"], ["0", "-1"]]
        assert payload["output_slot"][1] == [["-1", "-1"], ["0", "0"]]

    def test_actions_verdicts(self, corpus_files, capsys):
        code, out, _ = run(
            capsys, "actions", str(corpus_files["example2"]), "--format", "json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["case1"] == {
            "right-1": "pass",
            "right-2": "pass",
            "right-3": "pass",
        }


# SHA-256 of the stdout of `report --seed 0` on the null-filiform algebra NF_6
# ([X_1, X_i] = X_{i+1}, left-handed) and on its opposite: whole reports of
# dimension 6, past the dimension-3 inputs of the benchmark's report workload.
REPORT_DIGESTS = {
    "NF_6": ("f 1 {i} {j} = 1\n",
             "6a656d4ed574752ea4dac96b8d88e614d77127de24ffc6f4ecf0fdd1284a8030"),
    "NF_6^op": ("f {i} 1 {j} = 1\n",
                "bb0cce9c8219a9de9543e7b575b25b0eb1578c7914c162b1b93687b9dcaffd76"),
}


@pytest.mark.parametrize("name", sorted(REPORT_DIGESTS))
def test_report_bytes_pinned_at_dimension_6(tmp_path, capsys, name):
    entry, digest = REPORT_DIGESTS[name]
    path = tmp_path / "nf6.leib"
    entries = "".join(entry.format(i=i, j=i + 1) for i in range(1, 6))
    path.write_text(f"name: {name}\ndim: 6\n" + entries)
    code, out, _ = run(capsys, "report", str(path), "--seed", "0")
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


# SHA-256 of the stdout of `report --seed 0` at MAX_DIM = 8 on NF_8, NF_8^op
# and the abelian ab_8 (every dual entry free; a 10 MB report), each file
# written as `name`, `dim: 8`, `side: auto` and its sorted `f` lines.
DIM8_REPORT_DIGESTS = {
    "nf8": ({(1, i, i + 1): 1 for i in range(1, 8)},
            "cf95e4ae338f24faed343e321364a3156be5e8e871dce37d64864fd806bd6648"),
    "nf8op": ({(i, 1, i + 1): 1 for i in range(1, 8)},
              "e949f48e229821642ea6d1873726799c2ecb8e9bd7a8f4c8f7d9f8b729950d17"),
    "ab8": ({}, "ae67c4ed7594ee08f7acec0d869a703e516ac123f21b040b689a3de9d6214313"),
}


@pytest.mark.parametrize("name", sorted(DIM8_REPORT_DIGESTS))
def test_report_bytes_pinned_at_dimension_8(tmp_path, capsys, name):
    table, digest = DIM8_REPORT_DIGESTS[name]
    path = tmp_path / f"{name}.leib"
    path.write_text(f"name: {name}\ndim: 8\nside: auto\n" + "".join(
        f"f {i} {j} {k} = {v}\n" for (i, j, k), v in sorted(table.items())))
    code, out, _ = run(capsys, "report", str(path), "--seed", "0")
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


# SHA-256 of the stdout of `duals --scenario all --format json` on NF_3 and
# NF_3^op rewritten in the basis e'_a = sum_i G[i][a] e_i.  G is a fixed
# integer matrix of determinant 3 in which every one of the 27 bracket
# entries is nonzero, and thirds appear, so every row of every cocycle system
# is nonzero and carries fractions: the dense case of the eliminator.
# Two more inputs pin the quadratic stage's integer numerators and common
# denominator.  ab_3 (every bracket zero) has full kernels in all six
# scenarios, so every parameter appears and every coefficient is an integer.
# NF_4 rewritten in the basis HALVES_THIRDS_BASIS (determinant -6, all 64
# bracket entries nonzero) has halves and thirds in its kernels: the common
# denominator of the quadratic stage is 12 under forms 1 and 4 and 54 under
# form 3, and coefficients such as 22/9 are reduced from it.
DENSE_BASIS = ((2, -1, 1), (-1, -1, 1), (0, -1, 0))
HALVES_THIRDS_BASIS = ((-1, -2, 1, 2), (1, 1, -2, -2), (1, 2, 2, -1), (-1, -1, -1, -1))


def _in_basis(table, g):
    """The bracket table ``table`` (1-based, {(i, j, k): value}) in the basis
    whose vectors are the columns of ``g``."""
    n = len(g)
    rows, _ = dense_rref([[F(x) for x in row] + [F(i == j) for j in range(n)]
                          for i, row in enumerate(g)])
    g_inv = [row[n:] for row in rows]
    out = {}
    for a, b, c in itertools.product(range(n), repeat=3):
        v = sum(g[i - 1][a] * g[j - 1][b] * x * g_inv[c][k - 1]
                for (i, j, k), x in table.items())
        assert v != 0  # dense: every entry nonzero
        out[(a + 1, b + 1, c + 1)] = v
    return out


DENSE_DUALS_DIGESTS = {
    "NF_3": (3, _in_basis({(1, 1, 2): 1, (1, 2, 3): 1}, DENSE_BASIS),
             "eb0293ce67f660bd31b333c107bbf4e122f7527f478cd1dbaf5bec015e1c1d8d"),
    "NF_3^op": (3, _in_basis({(1, 1, 2): 1, (2, 1, 3): 1}, DENSE_BASIS),
                "f7c6530115bc5aaa3327f549d3cde5d2f957993f37864afa78ceb054bbd5c5ee"),
    "NF_4": (4, _in_basis({(1, i, i + 1): 1 for i in (1, 2, 3)}, HALVES_THIRDS_BASIS),
             "58998b18e3679e7f7b3cff0ff3c2f114bfca16e5d597511331a609837e171961"),
    "ab_3": (3, {}, "cda1e0e14ae6122c9e1a0ce86c285de98726d58eb6b7bcd78a5097d4c633a4a0"),
}


@pytest.mark.parametrize("name", sorted(DENSE_DUALS_DIGESTS))
def test_dense_duals_bytes_pinned(tmp_path, capsys, name):
    dim, table, digest = DENSE_DUALS_DIGESTS[name]
    path = tmp_path / "dense.leib"
    entries = "".join(f"f {i} {j} {k} = {v}\n" for (i, j, k), v in table.items())
    path.write_text(f"name: {name}\ndim: {dim}\n" + entries)
    code, out, _ = run(capsys, "duals", str(path), "--scenario", "all", "--format", "json")
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


# SHA-256 of the stdout of `actions`, text and `--format json`, on NF_4 and
# NF_4^op in the dense basis of tests/families.py, recorded before the module
# axioms became the Leibniz identity of the semidirect product.
DENSE_ACTIONS_DIGESTS = {
    ("NF_4", "text"): "ea63302efe67043251c0cefe120eee5d2dbafa81a770f5a73601ac360aca488f",
    ("NF_4", "json"): "902e61851aa17a98a4ef95df6adfbc9a04366513e29eb3023fe0ecad68dc8b3c",
    ("NF_4^op", "text"): "c62b55b63ef9307c924248a14025d60981da55ee4ba592bde0393ac6c900dd2b",
    ("NF_4^op", "json"): "9236d29d909890094825b38811810426924cd82718287958d8e6d09fdc884be6",
}


@pytest.mark.parametrize("name, fmt", sorted(DENSE_ACTIONS_DIGESTS))
def test_dense_actions_bytes_pinned(tmp_path, capsys, name, fmt):
    path = tmp_path / "dense.leib"
    path.write_text("dim: 4\n" + "".join(
        f"f {i} {j} {k} = {v}\n" for (i, j, k), v in nf_dense(4, name.endswith("op")).items()))
    code, out, _ = run(capsys, "actions", str(path), "--format", fmt)
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == DENSE_ACTIONS_DIGESTS[name, fmt]


# SHA-256 of the stdout of `duals --scenario all --format json` on the dense
# family of tests/families.py: NF_n and NF_n^op in a seeded dense integer
# basis.  The digests were recorded before elimination reduced pivot rows on
# use and the cocycle rows stayed integers.  NF_5 (seconds) and NF_6 (about
# half a minute) are marked slow.
DENSE_FAMILY_DIGESTS = {
    (4, False): "55b6c385714a55893b47f8a56db61cc6f0e9458a314e85f05c51911b0baa69b6",
    (4, True): "ed9e241844e8a016230afcf81e0e2c34ed966bf2777847e362b8da0ac2556ff8",
    (5, False): "83c1c84d9e78f37e58e31db816472c7b2255bc08485cc37e8b09818bab46000f",
    (5, True): "29e8590599596d01ac5ae563360a4a122d1aad3f45afba0b7d14c15cbf04cebc",
    (6, False): "965493fba7354f54fcfac4d17a136a8992cb75786bf970080df9401221de0550",
    (6, True): "0f91c6eef9d8298286b6af3a59bf6e2af2a767e08bc5638b7c516c67d229b4fb",
}


@pytest.mark.parametrize("n, op", [
    pytest.param(n, op, id=f"NF_{n}{'^op' if op else ''}",
                 marks=[pytest.mark.slow] if n > 4 else [])
    for n, op in DENSE_FAMILY_DIGESTS
])
def test_dense_family_duals_bytes_pinned(tmp_path, capsys, n, op):
    path = tmp_path / "dense.leib"
    path.write_text(f"dim: {n}\n" + "".join(
        f"f {i} {j} {k} = {v}\n" for (i, j, k), v in nf_dense(n, op).items()))
    code, out, _ = run(capsys, "duals", str(path), "--scenario", "all", "--format", "json")
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == DENSE_FAMILY_DIGESTS[n, op]


# SHA-256 and exit code of the stdout of each r-matrix command with
# `--format json` on NF_6 (left-handed: `--case left4`, `--side l`) and on
# NF_6^op (right-handed: `--case right1`, `--side r`), for one dense rational
# r in which all 36 entries are nonzero; `rmatrix` reads back, as its
# `--dual`, the dual tensor that `coboundary` printed.  The digests were
# recorded before the bracket tables and residuals became sparse.
RMATRIX_SIDES = {"NF_6": ("left4", "l"), "NF_6^op": ("right1", "r")}
RMATRIX_DIGESTS = {
    ("NF_6", "coboundary"):
        (0, "bfc81af3ed89594efa6c4f0cb2eb41bae64311f75a4af6d59420610caf2bc12b"),
    ("NF_6", "rmatrix"):
        (0, "7cbf80588753b94ee3a487ca6b6222beb338d866ea992bc224bf162a0a520580"),
    ("NF_6", "schouten"):
        (0, "608740422209fe66a6bca236f3367bcf7d49b9b96f7bff54980e692b2d21d681"),
    ("NF_6", "ybe"):
        (1, "94d2a8e4327719600595de77ddf51ad3286ef122badcf856af2225a3854e0678"),
    ("NF_6", "gybe"):
        (1, "d78c66c5e9dc88dfb184f0c257cb17c72529c4cd3eda71397529fb2590d8c837"),
    ("NF_6^op", "coboundary"):
        (0, "96fbc5a31b71bb9443636860be1c8b1f9e3dfaf8183be1958d83ee942287c03b"),
    ("NF_6^op", "rmatrix"):
        (0, "1dd34b01d247f13a6da8d58931ccfa2779840e1fa86d375ab91836f4ea3ab274"),
    ("NF_6^op", "schouten"):
        (0, "f413735738dbe70d1a86b50d939f01912fe5dc1baa8480113abcbe3fe66ecc45"),
    ("NF_6^op", "ybe"):
        (1, "ad9db20d27c729a62d34f3cf7b1f4c563a74fef09818eca92ce590a7414bc4ac"),
    ("NF_6^op", "gybe"):
        (1, "6337696ba3e3585e40b4a12a755ccce1dffb66c37cd2b58fbf9e9f50153d947b"),
}


def _dense_r(n):
    return {(i, j): F((-1) ** (i + j) * (1 + (i + 2 * j) % 4), 1 + (i * j) % 3)
            for i in range(1, n + 1) for j in range(1, n + 1)}


@pytest.mark.parametrize("name, command", sorted(RMATRIX_DIGESTS))
def test_rmatrix_commands_bytes_pinned_at_dimension_6(tmp_path, capsys, name, command):
    code_want, digest = RMATRIX_DIGESTS[name, command]
    case, side = RMATRIX_SIDES[name]
    alg = tmp_path / "nf6.leib"
    entry = REPORT_DIGESTS[name][0]
    alg.write_text(f"name: {name}\ndim: 6\n"
                   + "".join(entry.format(i=i, j=i + 1) for i in range(1, 6)))
    r = tmp_path / "r.rmat"
    r.write_text("dim: 6\n" + "".join(f"r {i} {j} = {v}\n"
                                      for (i, j), v in _dense_r(6).items()))
    args = {"coboundary": ("--case", case, "--r", str(r)),
            "schouten": ("--side", side, "--r", str(r)),
            "ybe": ("--side", side, "--r", str(r)),
            "gybe": ("--side", side, "--r", str(r))}
    if command == "rmatrix":
        code, out, _ = run(capsys, "coboundary", str(alg), *args["coboundary"],
                           "--format", "json")
        assert code == 0
        dual = tmp_path / "dual.leib"
        dual.write_text("dim: 6\n" + "".join(
            f"f {i} {j} {k} = {v}\n" for i, j, k, v in json.loads(out)["dual_tensor"]))
        args["rmatrix"] = ("--case", case, "--dual", str(dual))
    code, out, _ = run(capsys, command, str(alg), *args[command], "--format", "json")
    assert code == code_want
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


# Every command-line path that meets a missing handedness, and the commands
# that still run on a `neither` algebra: argv (with {left} example1, {right}
# example2, {neither} a two-dimensional `neither` tensor, {r} an r-matrix and
# {claims_*} files whose declared side does not hold) -> (exit code, stdout
# or the SHA-256 of a long stdout, stderr).
CLAIMS = {
    "claims_right": "dim: 2\nside: right\nf 1 1 2 = 1\nf 1 2 2 = 1\n",
    "claims_left": "dim: 2\nside: left\nf 1 1 2 = 1\nf 2 1 2 = 1\n",
    "claims_both": "dim: 2\nside: both\nf 1 1 2 = 1\nf 1 2 2 = 1\n",
}
HANDEDNESS = {
    'duals {neither} --scenario lr-1-r': (2, '', 'error: scenario lr-1-r needs a left-handed or right-handed algebra; got neither\n'),
    'duals {neither} --scenario lr-4-l': (2, '', 'error: scenario lr-4-l needs a left-handed or right-handed algebra; got neither\n'),
    'duals {left} --scenario r-2-r': (2, '', 'error: scenario r-2-r needs a right-handed algebra; got left\n'),
    'duals {left} --scenario r-2-l': (2, '', 'error: scenario r-2-l needs a right-handed algebra; got left\n'),
    'duals {right} --scenario l-3-r': (2, '', 'error: scenario l-3-r needs a left-handed algebra; got right\n'),
    'duals {right} --scenario l-3-l': (2, '', 'error: scenario l-3-l needs a left-handed algebra; got right\n'),
    'duals {neither} --scenario r-2-r': (2, '', 'error: scenario r-2-r needs a right-handed algebra; got neither\n'),
    'coboundary {left} --case right1 --r {r}': (2, '', 'error: coboundary case right1 needs a right-handed algebra; got left\n'),
    'rmatrix {left} --case right1 --dual {left}': (2, '', 'error: coboundary case right1 needs a right-handed algebra; got left\n'),
    'coboundary {left} --case right4 --r {r}': (2, '', 'error: coboundary case right4 needs a right-handed algebra; got left\n'),
    'rmatrix {left} --case right4 --dual {left}': (2, '', 'error: coboundary case right4 needs a right-handed algebra; got left\n'),
    'coboundary {right} --case left1 --r {r}': (2, '', 'error: coboundary case left1 needs a left-handed algebra; got right\n'),
    'rmatrix {right} --case left1 --dual {right}': (2, '', 'error: coboundary case left1 needs a left-handed algebra; got right\n'),
    'coboundary {right} --case left4 --r {r}': (2, '', 'error: coboundary case left4 needs a left-handed algebra; got right\n'),
    'rmatrix {right} --case left4 --dual {right}': (2, '', 'error: coboundary case left4 needs a left-handed algebra; got right\n'),
    'coboundary {neither} --case right1 --r {r}': (2, '', 'error: coboundary case right1 needs a right-handed algebra; got neither\n'),
    'rmatrix {neither} --case right1 --dual {neither}': (2, '', 'error: coboundary case right1 needs a right-handed algebra; got neither\n'),
    'ybe {left} --side r --r {r}': (2, '', 'error: the Schouten bracket of r needs a right-handed algebra; got left\n'),
    'ybe {right} --side l --r {r}': (2, '', 'error: the Schouten bracket of r needs a left-handed algebra; got right\n'),
    'ybe {neither} --side r --r {r}': (2, '', 'error: the Schouten bracket of r needs a right-handed algebra; got neither\n'),
    'gybe {left} --side r --r {r}': (2, '', 'error: the Schouten bracket of r needs a right-handed algebra; got left\n'),
    'gybe {right} --side l --r {r}': (2, '', 'error: the Schouten bracket of r needs a left-handed algebra; got right\n'),
    'gybe {neither} --side r --r {r}': (2, '', 'error: the Schouten bracket of r needs a right-handed algebra; got neither\n'),
    'schouten {left} --side r --r {r}': (2, '', 'error: the Schouten bracket of r needs a right-handed algebra; got left\n'),
    'schouten {right} --side l --r {r}': (2, '', 'error: the Schouten bracket of r needs a left-handed algebra; got right\n'),
    'schouten {neither} --side r --r {r}': (2, '', 'error: the Schouten bracket of r needs a right-handed algebra; got neither\n'),
    'check {claims_right}': (1, '', "verification failed: declared side 'right' does not hold; tensor classifies as left\n"),
    'check {claims_left}': (1, '', "verification failed: declared side 'left' does not hold; tensor classifies as right\n"),
    'check {claims_both}': (1, '', "verification failed: declared side 'both' does not hold; tensor classifies as left\n"),
    'actions {neither} --format text': (0, '', ''),
    'duals {neither} --format text': (0, '', ''),
    'actions {neither} --format json': (0, '{\n  "case1": {},\n  "case4": {}\n}\n', ''),
    'duals {neither} --format json': (0, '{}\n', ''),
    'report {neither} --seed 0': (1, 'sha256:865a2a51ae8db0ca8b8f64d92131f1bb54ea05824953242b5908cde2bb33db56', ''),
}


@pytest.mark.parametrize("argv", sorted(HANDEDNESS))
def test_handedness_paths_pinned(corpus_files, tmp_path, capsys, argv):
    files = {"left": corpus_files["example1"], "right": corpus_files["example2"]}
    for name, text in {"neither": "dim: 2\nf 1 1 1 = 1\nf 1 1 2 = 1\nf 2 1 1 = 1\n",
                       "r": "dim: 2\nr 1 2 = 1\nr 2 1 = -1\n", **CLAIMS}.items():
        files[name] = tmp_path / name
        files[name].write_text(text)
    code, out, err = run(capsys, *(a.format(**files) for a in argv.split()))
    if len(out) > 80:
        out = "sha256:" + hashlib.sha256(out.encode("utf-8")).hexdigest()
    assert (code, out, err) == HANDEDNESS[argv]
