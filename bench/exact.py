"""Exact rational helpers for the benchmark's inputs and oracles.

Nothing here imports ``leibnizalg``: the generators and the oracles that
judge the program's outputs are written from the definitions, so a defect
in the package cannot hide behind shared code.

A bracket table is a dict ``{(i, j, k): Fraction}`` with 1-based indices
meaning ``[e_i, e_j] = sum_k t[i, j, k] e_k``; absent entries are zero.
"""

from __future__ import annotations

import itertools
from fractions import Fraction


def null_filiform(n: int) -> dict:
    """NF_n, the null-filiform left Leibniz algebra: [e1, e_i] = e_{i+1}."""
    return {(1, i, i + 1): Fraction(1) for i in range(1, n)}


def opposite(t: dict) -> dict:
    """Swap the two bracket arguments."""
    return {(j, i, k): v for (i, j, k), v in t.items()}


def _dense(n: int, t: dict):
    f = [[[Fraction(0)] * n for _ in range(n)] for _ in range(n)]
    for (i, j, k), v in t.items():
        f[i - 1][j - 1][k - 1] = Fraction(v)
    return f


def _bracket(f, n, u, v):
    out = [Fraction(0)] * n
    for a in range(n):
        if u[a] == 0:
            continue
        for b in range(n):
            c = u[a] * v[b]
            if c == 0:
                continue
            for k in range(n):
                if f[a][b][k]:
                    out[k] += c * f[a][b][k]
    return out


def satisfies(n: int, t: dict, side: str) -> bool:
    """Left: [x,[y,z]] = [[x,y],z] + [y,[x,z]].  Right: [[y,z],x] = [[y,x],z] + [y,[z,x]]."""
    f = _dense(n, t)
    basis = [[Fraction(int(a == b)) for a in range(n)] for b in range(n)]

    def br(u, v):
        return _bracket(f, n, u, v)

    for x, y, z in itertools.product(basis, repeat=3):
        if side == "left":
            lhs = br(x, br(y, z))
            rhs = [p + q for p, q in zip(br(br(x, y), z), br(y, br(x, z)))]
        else:
            lhs = br(br(y, z), x)
            rhs = [p + q for p, q in zip(br(br(y, x), z), br(y, br(z, x)))]
        if lhs != rhs:
            return False
    return True


def chirality(n: int, t: dict) -> str:
    """Strongest label: lie, both, left, right or neither."""
    left, right = satisfies(n, t, "left"), satisfies(n, t, "right")
    if left and right:
        antisym = all(
            t.get((i, j, k), 0) == -t.get((j, i, k), 0)
            for i, j, k in itertools.product(range(1, n + 1), repeat=3)
        )
        return "lie" if antisym else "both"
    return "left" if left else "right" if right else "neither"


def rref(rows, ncols):
    """Reduced row echelon form of a list of Fraction rows; returns (rows, pivots)."""
    rows = [list(r) for r in rows]
    pivots = []
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        pv = rows[r][c]
        rows[r] = [x / pv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                g = rows[i][c]
                rows[i] = [x - g * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    return rows, pivots


def inverse(g):
    """Inverse of a square Fraction matrix, or None when singular."""
    n = len(g)
    aug = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
           for i, row in enumerate(g)]
    rows, pivots = rref(aug, n)
    if pivots != list(range(n)):
        return None
    return [row[n:] for row in rows[:n]]


def random_basis_change(rng, n: int):
    """Seeded invertible integer matrix with entries in [-2, 2]."""
    while True:
        g = [[Fraction(rng.randint(-2, 2)) for _ in range(n)] for _ in range(n)]
        if inverse(g) is not None:
            return g


def change_basis(n: int, t: dict, g) -> dict:
    """Bracket table in the basis e'_a = sum_i g[i][a] e_i."""
    gi = inverse(g)
    f = _dense(n, t)
    out = {}
    for a in range(n):
        for b in range(n):
            col_a = [g[i][a] for i in range(n)]
            col_b = [g[j][b] for j in range(n)]
            v = _bracket(f, n, col_a, col_b)
            for c in range(n):
                s = sum((gi[c][k] * v[k] for k in range(n)), Fraction(0))
                if s:
                    out[(a + 1, b + 1, c + 1)] = s
    return out


def random_rmatrix(rng, n: int):
    """Seeded n x n matrix with small integer and half-integer entries."""
    return [[Fraction(rng.randint(-3, 3), rng.choice((1, 2))) for _ in range(n)]
            for _ in range(n)]


def cocommutator(n: int, t: dict, r, case: str) -> dict:
    """Dual bracket induced by r.

    right1: ft[a, b, m] = sum_i r[i][b] * [e_m, e_i]_a
    left1:  ft[a, b, m] = -sum_i r[i][b] * [e_i, e_m]_a
    """
    f = _dense(n, t)
    out = {}
    for a, b, m in itertools.product(range(n), repeat=3):
        if case == "right1":
            s = sum((r[i][b] * f[m][i][a] for i in range(n)), Fraction(0))
        elif case == "left1":
            s = -sum((r[i][b] * f[i][m][a] for i in range(n)), Fraction(0))
        else:
            raise ValueError(case)
        if s:
            out[(a + 1, b + 1, m + 1)] = s
    return out


def in_affine_span(point, particular, directions) -> bool:
    """Whether point - particular is a rational combination of directions."""
    target = [p - q for p, q in zip(point, particular)]
    if not directions:
        return all(x == 0 for x in target)
    k = len(directions)
    rows = [[d[x] for d in directions] + [target[x]] for x in range(len(target))]
    _, pivots = rref(rows, k + 1)
    return k not in pivots


def algebra_text(name: str, n: int, t: dict) -> str:
    lines = [f"name: {name}", f"dim: {n}", "side: auto"]
    lines += [f"f {i} {j} {k} = {v}" for (i, j, k), v in sorted(t.items()) if v]
    return "\n".join(lines) + "\n"


def rmatrix_text(name: str, r) -> str:
    n = len(r)
    lines = [f"name: {name}", f"dim: {n}"]
    lines += [f"r {i + 1} {j + 1} = {r[i][j]}"
              for i in range(n) for j in range(n) if r[i][j]]
    return "\n".join(lines) + "\n"


