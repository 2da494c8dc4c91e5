"""Workload definitions: seeded inputs, the operations run on them and the
oracles that judge each output.

A workload is a list of ``Op``s, one pass.  Every op is one CLI call with
``--format json`` (``report`` always prints JSON).  Each op's ``check``
returns ``None`` when the output is right and a one-line reason otherwise;
it may read and write ``memo``, which lives for one pass, so that ops later
in the pass can be compared with earlier ones.

The oracles use ``exact`` only, never the package.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable

import exact

SCENARIO_KEYS = {
    "left": ("lr-1-r", "lr-4-l", "l-3-r", "l-3-l"),
    "right": ("lr-1-r", "r-2-r", "r-2-l", "lr-4-l"),
    "both": ("lr-1-r", "r-2-r", "r-2-l", "lr-4-l", "l-3-r", "l-3-l"),
}
SCENARIO_KEYS["lie"] = SCENARIO_KEYS["both"]

# Per-scenario kernel dimensions of NF_n and NF_n^op, keyed by (n, side).
# A change of basis preserves them, so they are the oracle for every seeded
# basis change of NF_n.
KERNEL_DIMS = {
    (3, "left"): {"lr-1-r": 9, "lr-4-l": 9, "l-3-r": 7, "l-3-l": 7},
    (3, "right"): {"lr-1-r": 9, "r-2-r": 7, "r-2-l": 7, "lr-4-l": 9},
    (5, "left"): {"lr-1-r": 25, "lr-4-l": 25, "l-3-r": 19, "l-3-l": 19},
    (5, "right"): {"lr-1-r": 25, "r-2-r": 19, "r-2-l": 19, "lr-4-l": 25},
}


@dataclass
class Op:
    id: str
    argv: list[str]
    inputs: list[Path]
    check: Callable[[dict, int, dict], str | None]


@dataclass
class Workload:
    name: str
    ops: list[Op] = field(default_factory=list)


@dataclass
class Algebra:
    key: str
    dim: int
    table: dict
    chirality: str
    path: Path


def _write(work: Path, key: str, text: str, suffix: str = ".leib") -> Path:
    path = work / f"{key}{suffix}"
    path.write_text(text, "utf-8")
    return path


def _algebra(work: Path, key: str, n: int, table: dict) -> Algebra:
    return Algebra(key, n, table, exact.chirality(n, table),
                   _write(work, key, exact.algebra_text(key, n, table)))


def parse_table(text: str):
    """(dim, table) of an algebra file; the benchmark's own reader."""
    dim, table = 0, {}
    for line in text.splitlines():
        line = line.split("#", 1)[0].strip()
        if line.startswith("dim:"):
            dim = int(line[4:])
        elif line.startswith("f "):
            _, i, j, k, _, v = line.split()
            table[(int(i), int(j), int(k))] = Fraction(v)
    return dim, table


def _nf(work: Path, n: int, side: str) -> Algebra:
    table = exact.null_filiform(n)
    if side == "right":
        table = exact.opposite(table)
    alg = _algebra(work, f"nf{n}" + ("op" if side == "right" else ""), n, table)
    if not exact.satisfies(n, table, side):
        raise RuntimeError(f"generator: {alg.key} fails the {side} Leibniz identity")
    return alg


def _basis_changed(work: Path, key: str, base: Algebra, table: dict) -> Algebra:
    """``base`` rewritten in another basis; a change of basis keeps chirality."""
    alg = _algebra(work, key, base.dim, table)
    if alg.chirality != base.chirality:
        raise RuntimeError(f"generator: {key} changed chirality")
    return alg


def _kernel_dims(payload: dict) -> dict:
    return {k: v["kernel_dimension"] for k, v in payload.items()}


def _duals_shape(payload: dict, chirality: str) -> str | None:
    if set(payload) != set(SCENARIO_KEYS[chirality]):
        return f"scenarios {sorted(payload)} do not fit a {chirality} algebra"
    for key, entry in payload.items():
        if not entry["kernel_dimension"] == len(entry["basis"]) == len(entry["parameters"]):
            return f"{key}: kernel dimension disagrees with its basis"
    return None


def _signs(rng, n: int, table: dict) -> dict:
    """``table`` in the seeded basis e'_i = d_i e_i with signs d_i = +-1.

    The zero pattern and the sizes of the coefficients, and so the work,
    stay those of the base algebra, while the signs in the table and in the
    program's output depend on the seed.  (Scaling by 2 already moves the
    cost with the seed, and a dense change of basis moves it up to 1.7
    times.)"""
    d = [Fraction(rng.choice((-1, 1))) for _ in range(n)]
    g = [[d[i] if i == j else Fraction(0) for j in range(n)] for i in range(n)]
    return exact.change_basis(n, table, g)


# --- report_mixed ---------------------------------------------------------

HEISENBERG3 = {(1, 2, 3): Fraction(1), (2, 1, 3): Fraction(-1)}
# sl_2 in the basis (h, e, f): [h, e] = 2e, [h, f] = -2f, [e, f] = h.
SL2 = {(1, 2, 2): Fraction(2), (2, 1, 2): Fraction(-2), (1, 3, 3): Fraction(-2),
       (3, 1, 3): Fraction(2), (2, 3, 1): Fraction(1), (3, 2, 1): Fraction(-1)}


def _report_check(alg: Algebra, reference: str | None = None):
    def check(out: dict, rc: int, memo: dict) -> str | None:
        if rc != 0:
            return f"exit {rc}"
        if out["check"]["chirality"] != alg.chirality:
            return f"chirality {out['check']['chirality']} != {alg.chirality}"
        failed = [k for k, v in out["selfcheck"].items() if v is False]
        if failed:
            return f"selfcheck false: {failed}"
        err = _duals_shape(out["duals"], alg.chirality)
        if err:
            return err
        dims = _kernel_dims(out["duals"])
        if alg.key.startswith("abelian"):
            want = alg.dim ** 3
            if set(dims.values()) != {want}:
                return f"abelian kernel dimensions {dims} != {want}"
        memo[alg.key] = (out["actions"], dims)
        if reference in memo and memo[reference] != memo[alg.key]:
            return f"action verdicts or kernel dimensions differ from {reference}"
        return None

    return check


def report_mixed(work: Path, seed: int, corpus: dict[str, str]) -> Workload:
    """The corpus, example4^op, NF_3, NF_3^op, NF_3 with seeded basis signs,
    and three dim-3 algebras that admit every action case: abelian_3,
    Heisenberg and sl_2.  The seed also feeds ``report --seed``, which seeds
    the report's selfcheck.

    The eleven calls form three groups of like cost: three dim-2 reports,
    five one-sided dim-3 reports and the three two-sided dim-3 reports.  The
    median and the 90th percentile of the eleven call latencies are then
    the middle call of the second and of the third group, not a point on
    the edge between two groups, where they would jump from run to run."""
    rng = random.Random(seed)
    algs = []
    for name, text in sorted(corpus.items()):
        dim, table = parse_table(text)
        algs.append((Algebra(name, dim, table, exact.chirality(dim, table),
                             _write(work, name, text)), None))
    ex4 = algs[-1][0]
    nf3 = _nf(work, 3, "left")
    algs += [(_algebra(work, "example4op", 3, exact.opposite(ex4.table)), None),
             (nf3, None), (_nf(work, 3, "right"), None),
             (_basis_changed(work, "dnf3", nf3, _signs(rng, 3, nf3.table)), nf3.key),
             (_algebra(work, "abelian3", 3, {}), None),
             (_algebra(work, "heisenberg3", 3, HEISENBERG3), None),
             (_algebra(work, "sl2", 3, SL2), None)]
    ops = [
        Op(f"report:{a.key}", ["report", str(a.path), "--seed", str(seed)], [a.path],
           _report_check(a, ref))
        for a, ref in algs
    ]
    return Workload("report_mixed", ops)


# --- duals_sparse / duals_dense ------------------------------------------


def _duals_check(alg: Algebra, want_dims: dict):
    def check(out: dict, rc: int, memo: dict) -> str | None:
        if rc != 0:
            return f"exit {rc}"
        err = _duals_shape(out, alg.chirality)
        if err:
            return err
        if _kernel_dims(out) != want_dims:
            return f"kernel dimensions {_kernel_dims(out)} != {want_dims}"
        return None

    return check


def _duals_op(alg: Algebra, want_dims: dict) -> Op:
    return Op(f"duals:{alg.key}",
              ["duals", str(alg.path), "--scenario", "all", "--format", "json"],
              [alg.path], _duals_check(alg, want_dims))


def duals_sparse(work: Path, seed: int, corpus) -> Workload:
    """NF_5 and NF_5^op, each with seeded basis signs."""
    rng = random.Random(seed)
    ops = []
    for side in ("left", "right"):
        base = _nf(work, 5, side)
        alg = _basis_changed(work, f"d_{base.key}", base, _signs(rng, 5, base.table))
        ops.append(_duals_op(alg, KERNEL_DIMS[(5, side)]))
    return Workload("duals_sparse", ops)


DENSE_BASES = 12
DENSE_PANEL_SEED = 0


def _dense_basis_change(rng, base: Algebra) -> dict:
    """``base`` in a seeded basis in which every bracket entry is nonzero."""
    n = base.dim
    while True:
        table = exact.change_basis(n, base.table, exact.random_basis_change(rng, n))
        if len(table) == n ** 3:
            return table


def duals_dense(work: Path, seed: int, corpus) -> Workload:
    """NF_3 and NF_3^op, alternately, in twelve dense bases g_b . d.

    The g_b are a fixed panel of random integer changes of basis in which
    every bracket entry is nonzero, so every assembled row is nonzero; the
    seed picks the signs d.  The cost of one g . NF_3 varies up to 1.7
    times with g (see BASELINE.md), so drawing g from the seed would make
    the pass time move with the seed; signs keep it."""
    panel, rng = random.Random(DENSE_PANEL_SEED), random.Random(seed)
    ops = []
    for b in range(DENSE_BASES):
        side = ("left", "right")[b % 2]
        base = _nf(work, 3, side)
        table = _signs(rng, 3, _dense_basis_change(panel, base))
        alg = _basis_changed(work, f"g{b}_{base.key}", base, table)
        ops.append(_duals_op(alg, KERNEL_DIMS[(3, side)]))
    return Workload("duals_dense", ops)


# --- rmatrix_queries ------------------------------------------------------

QUERY_DIMS = (4, 5, 6)
QUERY_COMMANDS = ("check", "rmatrix", "coboundary", "schouten", "ybe", "gybe")


def _tensor_entries(rows) -> dict:
    return {(i, j, k): Fraction(v) for i, j, k, v in rows}


def _flat(m) -> list:
    return [Fraction(x) for row in m for x in row]


def _query_check(cmd: str, alg: Algebra, r, dual: dict):
    key = alg.key
    antisym = all(r[i][j] == -r[j][i] for i in range(len(r)) for j in range(len(r)))

    def check(out: dict, rc: int, memo: dict) -> str | None:
        if cmd == "check":
            if rc != 0 or out["chirality"] != alg.chirality:
                return f"exit {rc}, chirality {out['chirality']} != {alg.chirality}"
        elif cmd == "rmatrix":
            if rc != 0 or not out["solvable"]:
                return f"exit {rc}: no r-matrix for a dual built from one"
            if not exact.in_affine_span(_flat(r), _flat(out["particular"]),
                                        [_flat(k) for k in out["kernel"]]):
                return "recovered family does not contain r"
        elif cmd == "coboundary":
            if rc != 0 or _tensor_entries(out["dual_tensor"]) != dual:
                return f"exit {rc} or cocommutator differs from the oracle"
            if out["r_antisymmetric"] != antisym:
                return "antisymmetry flag wrong"
        elif cmd == "schouten":
            if rc != 0 or out["zero"] != (not out["entries"]):
                return f"exit {rc} or zero flag disagrees with entries"
            memo[key] = out["zero"]
        elif cmd == "ybe":
            ok = out["cybe"] == "satisfied"
            if rc != (0 if ok else 1):
                return f"exit {rc} with verdict {out['cybe']}"
            if key in memo and memo[key] != ok:
                return "CYBE verdict disagrees with the Schouten bracket"
        elif cmd == "gybe":
            ok = out["gybe"] == "satisfied"
            if rc != (0 if ok else 1):
                return f"exit {rc} with verdict {out['gybe']}"
            if memo.get(key) and not ok:
                return "GYBE violated although the Schouten bracket vanishes"
        return None

    return check


def rmatrix_queries(work: Path, seed: int, corpus) -> Workload:
    """NF_4..NF_6 and their opposites, each with a seeded r-matrix and the
    dual that r induces (left1 on NF_n, right1 on NF_n^op).  The pass runs
    each command on every algebra before the next command, so that a pass
    cut short by the deadline still mixes all dimensions."""
    rng = random.Random(seed)
    cases = []
    for n in QUERY_DIMS:
        for side, case in (("left", "left1"), ("right", "right1")):
            alg = _nf(work, n, side)
            r = exact.random_rmatrix(rng, n)
            dual = exact.cocommutator(n, alg.table, r, case)
            rpath = _write(work, f"r_{alg.key}", exact.rmatrix_text(f"r_{alg.key}", r), ".rmat")
            dpath = _write(work, f"dual_{alg.key}", exact.algebra_text(f"dual_{alg.key}", n, dual))
            cases.append((alg, side, case, r, dual, rpath, dpath))
    ops = []
    for cmd in QUERY_COMMANDS:
        for alg, side, case, r, dual, rpath, dpath in cases:
            if cmd == "check":
                argv, inputs = ["check", str(alg.path)], [alg.path]
            elif cmd == "rmatrix":
                argv = ["rmatrix", str(alg.path), "--case", case, "--dual", str(dpath)]
                inputs = [alg.path, dpath]
            elif cmd == "coboundary":
                argv = ["coboundary", str(alg.path), "--case", case, "--r", str(rpath)]
                inputs = [alg.path, rpath]
            else:
                argv = [cmd, str(alg.path), "--side", side, "--r", str(rpath)]
                inputs = [alg.path, rpath]
            ops.append(Op(f"{cmd}:{alg.key}", argv + ["--format", "json"], inputs,
                          _query_check(cmd, alg, r, dual)))
    return Workload("rmatrix_queries", ops)


WORKLOADS = {
    "report_mixed": report_mixed,
    "duals_sparse": duals_sparse,
    "duals_dense": duals_dense,
    "rmatrix_queries": rmatrix_queries,
}
