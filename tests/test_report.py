"""``report.render_json`` writes the bytes of ``json.dumps(obj,
sort_keys=True, indent=2)`` and a newline for every payload the commands
emit, and refuses the types no payload holds."""

import json
from fractions import Fraction

import pytest

from leibnizalg import cli
from leibnizalg.corpus import CORPUS
from leibnizalg.document import parse_algebra
from leibnizalg.report import render_json


def reference(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _algebra_files(tmp_path):
    """The corpus and NF_2..NF_4, each with its opposite, as definition
    files: {name: (path, dimension)}."""
    tables = {name: (doc.dim, doc.entries)
              for name, doc in ((n, parse_algebra(t)) for n, t in CORPUS.items())}
    for n in (2, 3, 4):
        tables[f"NF_{n}"] = (n, {(1, i, i + 1): 1 for i in range(1, n)})
    paths = {}
    for name, (dim, entries) in tables.items():
        for suffix, swap in (("", False), ("^op", True)):
            path = tmp_path / f"{name}{suffix}.leib"
            paths[name + suffix] = path, dim
            path.write_text(f"dim: {dim}\n" + "".join(
                f"f {j} {i} {k} = {v}\n" if swap else f"f {i} {j} {k} = {v}\n"
                for (i, j, k), v in entries.items()))
    return paths


def test_every_command_payload_matches_json_dumps(tmp_path, monkeypatch, capsys):
    payloads = []

    def checked(obj):
        payloads.append(obj)
        out = render_json(obj)
        assert out == reference(obj)
        return out

    monkeypatch.setattr(cli, "render_json", checked)
    commands = []
    for path, dim in _algebra_files(tmp_path).values():
        r = tmp_path / f"r{dim}.rmat"
        r.write_text(f"dim: {dim}\n" + "".join(
            f"r {i} {j} = {(-1) ** (i + j) * (1 + (i + 2 * j) % 4)}/{1 + (i * j) % 3}\n"
            for i in range(1, dim + 1) for j in range(1, dim + 1)))
        a = str(path)
        json_commands = [("check", a), ("adjoint", a), ("actions", a), ("duals", a)]
        json_commands += [("duals", a, "--scenario", key) for key in
                          ("lr-1-r", "r-2-r", "r-2-l", "lr-4-l", "l-3-r", "l-3-l")]
        for case in ("right1", "left1", "right4", "left4"):
            json_commands += [("coboundary", a, "--case", case, "--r", str(r)),
                              ("rmatrix", a, "--case", case, "--dual", a)]
        for side in ("l", "r"):
            json_commands += [(cmd, a, "--side", side, "--r", str(r))
                              for cmd in ("schouten", "ybe", "gybe")]
        commands += [(*c, "--format", "json") for c in json_commands]
        commands.append(("report", a, "--seed", "0"))
    ran = [argv[0] for argv in commands if cli.main(list(argv)) != 2]
    capsys.readouterr()
    # one payload per call that did not stop on a handedness error, and
    # every command emitted some
    assert len(payloads) == len(ran)
    assert set(ran) == {"check", "adjoint", "actions", "duals", "coboundary", "rmatrix",
                        "schouten", "ybe", "gybe", "report"}


ADVERSARIAL = [
    "",
    "plain",
    "café über 中文 \U0001f600",
    'quote " and backslash \\ and slash /',
    "controls \x00\x01\x08\t\n\x0b\x0c\r\x1f\x7f",
    {"": "empty key", "é": 1, "Z": 2, "a": 3, "\"q\"": 4, "\\b": 5, "\n": 6, "\x00": 7},
    [],
    {},
    [[]],
    [{}],
    {"a": [], "b": {}, "c": [[], {}], "d": {"e": {"f": []}}},
    [[[[[]]]]],
    (1, "two", (3, ()), [4]),
    [True, 1, False, 0, None, -1],
    {"t": True, "one": 1, "f": False, "zero": 0, "none": None},
    [10 ** 40, -(10 ** 40), 0],
    None,
    True,
    False,
    7,
    -3,
]


@pytest.mark.parametrize("obj", ADVERSARIAL, ids=range(len(ADVERSARIAL)))
def test_adversarial_values_match_json_dumps(obj):
    assert render_json(obj) == reference(obj)
    assert render_json({"wrapped": [obj, {"again": obj}]}) == reference(
        {"wrapped": [obj, {"again": obj}]}
    )


@pytest.mark.parametrize("obj", [1.5, Fraction(1, 2), {1, 2}, [0.0], {"x": Fraction(3)},
                                 {1: "int key"}, [{"a"}]])
def test_types_no_payload_holds_raise(obj):
    with pytest.raises(TypeError):
        render_json(obj)
