"""Seeded byte-mutation fuzzing of the command line, in process.

Each input is a corpus file or an r-matrix file with one to three seeded
mutations: a byte changed, inserted or deleted, a line doubled, or a token
inserted (zero, huge and negative-denominator-looking numbers among them).
Every command runs through ``cli.main`` on such inputs, the mutated file in
each slot a command has.  The contract checked:

* the exit code is 0, 1 or 2, and nothing escapes ``main`` (no traceback);
* stderr is at most one line, under 300 characters, and an exit code of 2
  comes with an ``error:`` line;
* where the error names a line, that line exists and is at fault: with the
  line blanked, the same call no longer names it.

``fuzz(seeds, directory)`` runs any range of seeds; the test runs a slice
that fits the tier-1 budget.  A longer run, from the repository root:

    PYTHONPATH=src:tests python -c "import test_fuzz, tempfile, pathlib; \\
        test_fuzz.fuzz(range(3000), pathlib.Path(tempfile.mkdtemp()))"
"""

import contextlib
import io
import random
import re
from pathlib import Path

from leibnizalg import cli, corpus
from leibnizalg.document import parse_algebra
from leibnizalg.errors import LeibnizError

TOKENS = (
    b"0", b"-0", b"00", b"9" * 40, b"-" + b"9" * 40, b"1" * 400, b"/", b"/0", b"1/0",
    b"0/0", b"/-7", b"3/-4", b"-3/-4", b"--3", b"+5", b"1.5", b"1e9", b"-", b"=", b":",
    b"#", b" ", b"\t", b"\r", b"\n", b"\x00", b"\xff", b"\xc3", b"\xe2\x80\xa8", b"\xc2\xb2",
    b"dim: 8\n", b"dim: 0\n", b"side: both\n", b"f 1 1 1 = 1\n", b"f 3 3 3 = -1/7\n",
    b"r 1 1 = 1/7\n", b"r 2 9 = 1\n",
)

RMATRICES = {
    2: b"name: r2\ndim: 2\nr 1 1 = 1/7\nr 1 2 = -3\nr 2 1 = 5/2\n",
    3: b"name: r3\ndim: 3\nr 1 2 = -2/7\nr 2 3 = 4\nr 3 1 = 1/3\nr 3 3 = -1\n",
}

# commands on an algebra file, "{a}" standing for it; "{r}" is a good
# r-matrix and "{g}" a good algebra of the base file's dimension
ALGEBRA_COMMANDS = (
    ["check", "{a}"],
    ["adjoint", "{a}", "--format", "json"],
    ["actions", "{a}"],
    ["duals", "{a}", "--format", "json"],
    ["report", "{a}", "--seed", "1"],
    ["coboundary", "{a}", "--case", "right1", "--r", "{r}"],
    ["ybe", "{a}", "--side", "l", "--r", "{r}"],
    ["gybe", "{a}", "--side", "r", "--r", "{r}", "--format", "json"],
    ["schouten", "{a}", "--side", "l", "--r", "{r}"],
    ["rmatrix", "{g}", "--case", "left4", "--dual", "{a}"],
)
# commands on an r-matrix file, "{m}" standing for it
RMATRIX_COMMANDS = (
    ["coboundary", "{g}", "--case", "left1", "--r", "{m}", "--format", "json"],
    ["ybe", "{g}", "--side", "r", "--r", "{m}"],
    ["gybe", "{g}", "--side", "l", "--r", "{m}"],
    ["schouten", "{g}", "--side", "r", "--r", "{m}", "--format", "json"],
)
# commands whose cost grows fast with the dimension a mutation may declare
HEAVY = {"actions", "duals", "report"}

LINE = re.compile(r"error: line ([0-9]+): ")


def mutate(rng, data: bytes) -> bytes:
    for _ in range(rng.randint(1, 3)):
        at = rng.randrange(len(data) + 1)
        kind = rng.randrange(5)
        if kind == 0 and at < len(data):
            data = data[:at] + bytes([rng.randrange(256)]) + data[at + 1:]
        elif kind == 1:
            data = data[:at] + bytes([rng.randrange(256)]) + data[at:]
        elif kind == 2:
            data = data[:at] + data[at + 1:]
        elif kind == 3:
            lines = data.split(b"\n")
            k = rng.randrange(len(lines))
            data = b"\n".join(lines[:k + 1] + lines[k:])
        else:
            data = data[:at] + rng.choice(TOKENS) + data[at:]
    return data


def call(argv) -> tuple[int, str]:
    """``cli.main(argv)``'s exit code and stderr, checked against the
    contract."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    message = err.getvalue()
    assert code in (0, 1, 2), (argv, code)
    assert "Traceback" not in message, argv
    assert message.count("\n") <= 1 and len(message) < 300, (argv, message)
    if code == 2:
        assert message.startswith("error: ") and message.endswith("\n"), (argv, message)
    return code, message


def _declared_dim(data: bytes):
    try:
        return parse_algebra(data.decode("utf-8")).dim
    except (UnicodeDecodeError, LeibnizError):
        return None


def check_input(argv, path: Path, data: bytes) -> None:
    """Run ``argv`` on ``data`` written at ``path``; where the error names a
    line, blank that line and run again."""
    path.write_bytes(data)
    _, message = call(argv)
    hit = LINE.match(message)
    if not hit:
        return
    line = int(hit.group(1))
    lines = data.split(b"\n")
    assert 1 <= line <= len(lines), (argv, message, data)
    lines[line - 1] = b""
    path.write_bytes(b"\n".join(lines))
    _, again = call(argv)
    assert not again.startswith(f"error: line {line}: "), (argv, message, data)


def fuzz(seeds, directory: Path) -> int:
    """Fuzz every seed of ``seeds``; returns the number of calls made."""
    names = corpus.names()
    good = {}
    for name in names:
        dim = parse_algebra(corpus.text(name)).dim
        good.setdefault(dim, directory / f"{name}.good")
        (directory / f"{name}.good").write_text(corpus.text(name))
    goodr = {}
    for dim, text in RMATRICES.items():
        goodr[dim] = directory / f"r{dim}.good"
        goodr[dim].write_bytes(text)
    path = directory / "fuzzed.txt"
    calls = 0
    for seed in seeds:
        rng = random.Random(seed)
        if seed % 3 == 2:
            dim = rng.choice(sorted(RMATRICES))
            data = mutate(rng, RMATRICES[dim])
            template = RMATRIX_COMMANDS[seed // 3 % len(RMATRIX_COMMANDS)]
        else:
            name = rng.choice(names)
            base = corpus.text(name).encode("utf-8")
            dim = parse_algebra(corpus.text(name)).dim
            data = mutate(rng, base)
            template = ALGEBRA_COMMANDS[seed % len(ALGEBRA_COMMANDS)]
            declared = _declared_dim(data)
            if template[0] in HEAVY and declared is not None and declared > 4:
                template = ALGEBRA_COMMANDS[0]
            if seed % 7 == 0:
                call(["corpus", data.decode("latin-1").splitlines()[0] if data else ""])
                calls += 1
        fill = {"{a}": str(path), "{m}": str(path), "{g}": str(good[dim]), "{r}": str(goodr[dim])}
        check_input([fill.get(x, x) for x in template], path, data)
        calls += 1
    return calls


def test_fuzzed_inputs_keep_the_exit_code_contract(tmp_path):
    assert fuzz(range(240), tmp_path) >= 240
