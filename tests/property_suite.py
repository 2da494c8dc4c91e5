"""Seeded randomized identity battery shared by the property tests and the
acceptance suite.  Every function runs ``trials`` independent draws and
returns the number of failures; the expected count is always zero.
"""

import itertools
import random
from fractions import Fraction

from leibnizalg import CoboundaryCase, Side, solve_rmatrix
from leibnizalg.actions import ActionCase
from leibnizalg.cohomology import coboundary0, coboundary1
from leibnizalg.core import first_nonzero
from leibnizalg.rmatrix import (
    COMPLEX,
    coboundary_cocommutator,
    cocommutator_matrix_route,
    crosscheck_dual_defect,
    dual_bracket_from_r,
    triple_products,
)
from leibnizalg.solver import SCENARIOS, assemble_cocycle_system, nullspace

from oracles import (
    annihilates,
    cocycle_residual_matrix,
    cocycle_residual_tensor,
    family_member,
    from_dense,
    grid3,
    schouten_dense,
    sparse4,
)

F = Fraction


def rand_matrix(rng, n):
    return tuple(
        tuple(F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(n))
        for _ in range(n)
    )


def rand_tensor(rng, n):
    return from_dense(
        tuple(
            tuple(
                tuple(F(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(n))
                for _ in range(n)
            )
            for _ in range(n)
        ),
    )


def _compatible_complex_pairs(alg):
    return [(case, side) for case in ActionCase for side in case.complexes(alg)]


def _coboundary_cases(alg):
    out = []
    if alg.admits(Side.RIGHT):
        out += [CoboundaryCase.RIGHT_1, CoboundaryCase.RIGHT_4]
    if alg.admits(Side.LEFT):
        out += [CoboundaryCase.LEFT_1, CoboundaryCase.LEFT_4]
    return out


def check_complex_property(algebras, seed, trials):
    rng = random.Random(seed)
    pool = [(alg, pair) for alg in algebras for pair in _compatible_complex_pairs(alg)]
    failures = 0
    for _ in range(trials):
        alg, (case, side) = pool[rng.randrange(len(pool))]
        m = rand_matrix(rng, alg.dim)
        d0 = coboundary0(alg, case, side, m)
        if coboundary1(alg, case, side, d0):
            failures += 1
    return failures


def check_residual_routes(seed, trials):
    rng = random.Random(seed)
    failures = 0
    for _ in range(trials):
        dim = rng.choice((2, 3))
        f = rand_tensor(rng, dim)
        g = rand_tensor(rng, dim)
        for form in (1, 2, 3, 4):
            tens = cocycle_residual_tensor(f, g, form)
            grid = cocycle_residual_matrix(f, g, form)
            for i, j, m, n in itertools.product(range(dim), repeat=4):
                if grid[m][n][i][j] != -tens[i][j][m][n]:
                    failures += 1
                    break
            else:
                continue
            break
    return failures


def check_coboundary_is_cocycle(algebras, seed, trials):
    rng = random.Random(seed)
    pool = [(alg, case) for alg in algebras for case in _coboundary_cases(alg)]
    failures = 0
    for _ in range(trials):
        alg, case = pool[rng.randrange(len(pool))]
        r = rand_matrix(rng, alg.dim)
        ftilde = coboundary_cocommutator(alg, r, case)
        if first_nonzero(sparse4(cocycle_residual_tensor(alg.tensor, ftilde, COMPLEX[case][0]))):
            failures += 1
    return failures


def check_bracket_routes(algebras, seed, trials):
    rng = random.Random(seed)
    pool = []
    for alg in algebras:
        if alg.admits(Side.RIGHT):
            pool.append((alg, Side.RIGHT, CoboundaryCase.RIGHT_1))
        if alg.admits(Side.LEFT):
            pool.append((alg, Side.LEFT, CoboundaryCase.LEFT_4))
    failures = 0
    for _ in range(trials):
        alg, side, case = pool[rng.randrange(len(pool))]
        r = rand_matrix(rng, alg.dim)
        direct = coboundary_cocommutator(alg, r, case)
        if dual_bracket_from_r(alg, r, side) != direct:
            failures += 1
        if cocommutator_matrix_route(alg, r, case) != direct:
            failures += 1
    return failures


def check_schouten_decomposition(algebras, seed, trials):
    rng = random.Random(seed)
    pool = [
        (alg, side)
        for alg in algebras
        for side in Side
        if alg.admits(side)
    ]
    failures = 0
    for _ in range(trials):
        alg, side = pool[rng.randrange(len(pool))]
        r = rand_matrix(rng, alg.dim)
        s = schouten_dense(alg, r, side)
        p1, p2, _ = triple_products(alg, r, side)
        n = alg.dim
        p1, p2 = grid3(p1, n), grid3(p2, n)
        ok = all(
            p1[a][b][c] + p2[a][b][c] == s[a][b][c]
            for a, b, c in itertools.product(range(n), repeat=3)
        )
        failures += 0 if ok else 1
    return failures


def check_defect_identity(algebras, seed, trials):
    rng = random.Random(seed)
    pool = [
        (alg, side) for alg in algebras for side in Side if alg.admits(side)
    ]
    failures = 0
    for _ in range(trials):
        alg, side = pool[rng.randrange(len(pool))]
        if not crosscheck_dual_defect(alg, rand_matrix(rng, alg.dim), side):
            failures += 1
    return failures


def check_kernel_soundness(algebras, seed, trials):
    rng = random.Random(seed)
    systems = []
    for alg in algebras:
        for sc in SCENARIOS:
            if sc.compatible(alg):
                system = assemble_cocycle_system(alg, sc)
                family = nullspace(system)
                if family.parameters:
                    systems.append((system, family))
    failures = 0
    for _ in range(trials):
        system, family = systems[rng.randrange(len(systems))]
        member = family_member(family, [F(rng.randint(-5, 5)) for _ in family.parameters])
        if not annihilates(system, member):
            failures += 1
    return failures


def check_solve_apply_round_trip(algebras, seed, trials):
    rng = random.Random(seed)
    pool = [(alg, case) for alg in algebras for case in _coboundary_cases(alg)]
    failures = 0
    for _ in range(trials):
        alg, case = pool[rng.randrange(len(pool))]
        r0 = rand_matrix(rng, alg.dim)
        ftilde = coboundary_cocommutator(alg, r0, case)
        sol = solve_rmatrix(alg, ftilde, case)
        if sol is None:
            failures += 1
            continue
        member = sol.member([F(rng.randint(-3, 3)) for _ in sol.parameters])
        if coboundary_cocommutator(alg, member, case) != ftilde:
            failures += 1
    return failures


ALL_CHECKS = (
    ("complex property (degree 0)", check_complex_property, True),
    ("cocycle residual tensor/matrix agreement", check_residual_routes, False),
    ("coboundary is a cocycle", check_coboundary_is_cocycle, True),
    ("dual bracket route equivalence", check_bracket_routes, True),
    ("schouten decomposition", check_schouten_decomposition, True),
    ("dual defect identity", check_defect_identity, True),
    ("nullspace kernel soundness", check_kernel_soundness, True),
    ("solve/apply round trip", check_solve_apply_round_trip, True),
)


def run_all(algebras, seed, trials):
    """Returns {check name: failure count}."""
    results = {}
    for offset, (name, fn, wants_algebras) in enumerate(ALL_CHECKS):
        if wants_algebras:
            results[name] = fn(algebras, seed + offset, trials)
        else:
            results[name] = fn(seed + offset, trials)
    return results
