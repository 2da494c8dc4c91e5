import hashlib
import itertools
import json
import os
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

from leibnizalg.cli import main

from oracles import dense_rref

SRC = Path(__file__).resolve().parents[1] / "src"


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
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-m", "leibnizalg.cli", *argv],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith(f"error: line {line}: ")
    assert proc.stderr.count("\n") == 1
    assert len(proc.stderr) < 300


# One long value per command-line flag whose rejected value an error quotes.
LONG_FLAGS = {
    "side": ["ybe", "{alg}", "--side", "{long}", "--r", "{r}"],
    "case": ["rmatrix", "{alg}", "--case", "{long}", "--dual", "{alg}"],
    "scenario": ["duals", "{alg}", "--scenario", "{long}"],
}


# Runs one command through cli.main, then prints the package modules and
# `random` that the call loaded.
MODULES_CHILD = """
import contextlib, io, sys
from leibnizalg import cli
with contextlib.redirect_stdout(io.StringIO()):
    assert cli.main(sys.argv[1:]) in (0, 1)
print(" ".join(m.removeprefix("leibnizalg.") for m in sorted(sys.modules)
               if m.startswith("leibnizalg.") or m == "random"))
"""

# command line -> modules the command must load, modules it must not
COMMAND_MODULES = {
    "check {example1}": ({"report"}, {"actions", "cohomology", "solver", "poly", "rmatrix", "random"}),
    "adjoint {example1}": ({"report"}, {"actions", "cohomology", "solver", "poly", "rmatrix", "random"}),
    "rmatrix {example1} --case left4 --dual {example1}": ({"rmatrix"}, {"solver", "poly"}),
    "coboundary {example1} --case left4 --r {r}": ({"rmatrix"}, {"solver", "poly"}),
    "schouten {example1} --side l --r {r}": ({"rmatrix"}, {"solver", "poly"}),
    "ybe {example1} --side l --r {r}": ({"rmatrix"}, {"solver", "poly"}),
    "gybe {example1} --side l --r {r}": ({"rmatrix"}, {"solver", "poly"}),
    "duals {example3}": ({"solver", "poly"}, {"rmatrix", "random"}),
    "duals {example3} --scenario l-3-l": ({"solver", "poly"}, {"rmatrix", "random"}),
}


def _child(*args):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run(
        [sys.executable, "-S", *args], capture_output=True, text=True, env=env, check=True
    ).stdout


def test_import_skips_start_up_heavy_modules(corpus_files, tmp_path):
    # every CLI call imports the package; these cost milliseconds to load
    # (inspect and its parsers, OpenSSL) and no command needs them at import
    heavy = ("dataclasses", "inspect", "hashlib")
    probe = f"import sys, leibnizalg.cli; print([m for m in {heavy!r} if m in sys.modules])"
    assert _child("-c", probe) == "[]\n"
    # the package alone loads none of its modules; each export loads on use
    probe = ("import sys, leibnizalg; before = [m for m in sys.modules if '.' in m "
             "and m.startswith('leibnizalg')]; "
             "[getattr(leibnizalg, name) for name in leibnizalg.__all__]; print(before)")
    assert _child("-c", probe) == "[]\n"
    # each command loads only the modules it uses
    files = dict(corpus_files, r=tmp_path / "r.rmat")
    files["r"].write_text("dim: 2\nr 1 2 = 1\nr 2 1 = -1\n")
    for line, (need, skip) in COMMAND_MODULES.items():
        loaded = set(_child("-c", MODULES_CHILD, *line.format(**files).split()).split())
        assert need <= loaded and not skip & loaded, (line, sorted(loaded))


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
