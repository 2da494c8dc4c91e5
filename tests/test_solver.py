import itertools
import math
import random
from fractions import Fraction

import pytest

from leibnizalg import (
    ChiralityError,
    LeibnizAlgebra,
    Side,
    StructureTensor,
    scenario,
    scenario_sweep,
)
from leibnizalg.core import leibniz_residual
from leibnizalg.solver import (
    SCENARIOS,
    DualFamily,
    Poly,
    QuadraticResidual,
    assemble_cocycle_system,
    cocycle_system,
    dual_leibniz_residual,
    nullspace,
    unflatten_tensor,
)

from families import EX1_FAMILIES, EX3_FAMILIES, FAMILIES, KERNEL_DIMENSIONS, nf_dense
from oracles import (
    annihilates,
    apply_system,
    cocycle_residual_matrix,
    cocycle_residual_tensor,
    column_index,
    dense_quadratic,
    evaluate_quadratic,
    family_member,
    family_verdict,
    flatten_tensor,
    from_dense,
    leibniz_residual_by_brackets,
    nest4,
    opposite,
    quadratic_by_polarization,
    row_provenance,
    sparse4,
    verify_bialgebra,
)
from property_suite import rand_tensor
from test_cli import DENSE_BASIS, HALVES_THIRDS_BASIS, _in_basis

F = Fraction


def rand_tensor(rng, n):
    return from_dense(
        tuple(
            tuple(tuple(F(rng.randint(-2, 2)) for _ in range(n)) for _ in range(n))
            for _ in range(n)
        ),
    )


def reference_render(quadratic, names):
    """Each polynomial's text, built term by term from ``Fraction(x, den)``
    and ``divmod(key, d)`` in ascending key order."""
    out = []
    for p in quadratic.polynomials:
        text = ""
        for key, x in sorted(p.terms.items()):
            u, v = divmod(key, len(names))
            c = Fraction(x, p.den)
            body = ("" if abs(c) == 1 else f"{abs(c)}*") + f"{names[u]}*{names[v]}"
            sign = "-" if c < 0 else "+"
            text += f" {sign} {body}" if text else ("-" if c < 0 else "") + body
        out.append(text)
    return out


def every_component(quadratic, values, n):
    """The residual at parameter ``values`` as a dense grid [i][j][k][m],
    0-based: the listed polynomials evaluated, every other component zero."""
    got = dict(zip(quadratic.provenance, evaluate_quadratic(quadratic, values)))
    components = itertools.product(range(n), repeat=4)
    return nest4((got.get(tuple(x + 1 for x in c), 0) for c in components), n)


class TestScenarioTable:
    def test_six_scenarios_in_fixed_order(self):
        assert [sc.key for sc in SCENARIOS] == [
            "lr-1-r",
            "r-2-r",
            "r-2-l",
            "lr-4-l",
            "l-3-r",
            "l-3-l",
        ]
        assert [sc.form for sc in SCENARIOS] == [1, 2, 2, 4, 3, 3]
        assert [sc.dual_side.value for sc in SCENARIOS] == [
            "right",
            "right",
            "left",
            "left",
            "right",
            "left",
        ]

    def test_compatibility(self, ex1, ex2, ex3):
        assert [sc.key for sc in SCENARIOS if sc.compatible(ex1)] == [
            "lr-1-r",
            "lr-4-l",
            "l-3-r",
            "l-3-l",
        ]
        assert [sc.key for sc in SCENARIOS if sc.compatible(ex2)] == [
            "lr-1-r",
            "r-2-r",
            "r-2-l",
            "lr-4-l",
        ]
        assert all(sc.compatible(ex3) for sc in SCENARIOS)


class TestAssemble:
    def test_rows_encode_the_residual(self, corpus_algebras):
        rng = random.Random(5)
        cases = [
            (alg.tensor, assemble_cocycle_system(alg, sc))
            for alg in corpus_algebras.values()
            for sc in SCENARIOS
            if sc.compatible(alg)
        ]
        # NF_3 and NF_3^op in a basis with thirds, under all four forms:
        # every row is nonzero and the coefficients have denominators, so the
        # sign and the common denominator of every coboundary term count
        nf3 = StructureTensor.from_entries(
            3, _in_basis({(1, 1, 2): 1, (1, 2, 3): 1}, DENSE_BASIS)
        )
        for t in (nf3, opposite(nf3)):
            assert any(v.denominator > 1 for _, v in t.items())
            for form in (1, 2, 3, 4):
                system = cocycle_system(t, form)
                assert all(system.matrix)
                cases.append((t, system))
        for t, system in cases:
            assert len(system.matrix) == t.dim ** 4
            # integer numerators over the lcm of the bracket's denominators
            assert all(type(x) is int for row in system.matrix for _, x in row)
            g = rand_tensor(rng, t.dim)
            applied = apply_system(system, g, math.lcm(*(v.denominator for _, v in t.items())))
            # the adjoint-matrix route shares no code with the rows
            grid = cocycle_residual_matrix(t, g, system.form)
            oracle = [
                -grid[m - 1][n - 1][i - 1][j - 1]
                for (i, j, m, n) in row_provenance(system.dim)
            ]
            assert list(applied) == oracle

    def test_zero_algebra_gives_zero_matrix(self, zero2):
        for sc in SCENARIOS:
            system = assemble_cocycle_system(zero2, sc)
            assert all(v == 0 for row in system.matrix for v in row)

    def test_chirality_guard(self, ex2):
        with pytest.raises(ChiralityError):
            assemble_cocycle_system(ex2, scenario("l-3-r"))

    def test_example3_kernel_contains_case2_direction(self, ex3):
        system = assemble_cocycle_system(ex3, scenario("lr-1-r"))
        member = StructureTensor.from_entries(2, {(2, 2, 1): 1})
        assert annihilates(system, member)

    def test_example1_system_annihilates_family1(self, ex1):
        system = assemble_cocycle_system(ex1, scenario("lr-4-l"))
        for a in (F(1), F(-3), F("7/2")):
            member = EX1_FAMILIES[0].member(2, [a])
            assert annihilates(system, member)


class TestNullspace:
    def test_zero_matrix_system_gives_full_space(self, zero2):
        system = assemble_cocycle_system(zero2, scenario("lr-1-r"))
        family = nullspace(system)
        assert len(family) == 8
        assert family.parameters == tuple(f"t{i}" for i in range(1, 9))

    def test_kernel_dimensions_frozen(self, corpus_algebras):
        for name, alg in corpus_algebras.items():
            sweeps = scenario_sweep(alg)
            assert {k: len(e.family) for k, e in sweeps.items()} == KERNEL_DIMENSIONS[name]

    def test_deterministic_output(self, ex4):
        system = assemble_cocycle_system(ex4, scenario("lr-1-r"))
        fam1 = nullspace(system)
        fam2 = nullspace(assemble_cocycle_system(ex4, scenario("lr-1-r")))
        assert fam1 == fam2

    def test_kernel_members_annihilated(self, corpus_algebras):
        rng = random.Random(31)
        for alg in corpus_algebras.values():
            for sc in SCENARIOS:
                if not sc.compatible(alg):
                    continue
                system = assemble_cocycle_system(alg, sc)
                family = nullspace(system)
                for _ in range(5):
                    member = family_member(
                        family, [F(rng.randint(-3, 3)) for _ in family.parameters]
                    )
                    assert annihilates(system, member)

    def test_column_flattening_contract(self):
        assert column_index(3, 1, 1, 1) == 0
        assert column_index(3, 1, 1, 2) == 1
        assert column_index(3, 2, 1, 1) == 9
        t = StructureTensor.from_entries(2, {(2, 1, 2): 5})
        assert flatten_tensor(t)[column_index(2, 2, 1, 2)] == F(5)
        assert unflatten_tensor(2, flatten_tensor(t)) == t  # the solver's order

    def test_full_rank_system_gives_empty_family(self):
        from leibnizalg.solver import LinearSystem

        n = 8  # identity over the 2**3 unknowns of a dim-2 tensor
        rows = tuple(((r, 1),) for r in range(n))
        system = LinearSystem(2, 1, rows)
        family = nullspace(system)
        assert len(family) == 0
        assert family.parameters == ()
        quad = dual_leibniz_residual(family, Side.RIGHT)
        assert quad.polynomials == ()
        assert quad.is_identically_zero()


class TestQuadraticResidual:
    def test_render_reduces_each_coefficient(self):
        names = ("t1", "t2", "t3")
        # numerators over 12 under keys u*3 + v: -9/12 = -3/4 leads, 12/12 =
        # 1 is left out, 24/12 = 2 reduces to an integer and 7/12 keeps its
        # denominator
        quad = QuadraticResidual(
            (Poly({0: -9, 2: 24, 4: 7, 5: 12}, 12), Poly({5: -12}, 12)),
            ((1, 1, 1, 1), (1, 1, 1, 2)),
        )
        assert quad.render(names) == ["-3/4*t1*t1 + 2*t1*t3 + 7/12*t2*t2 + t2*t3", "-t2*t3"]
        # the same numerators over 1 in a second residual
        quad = QuadraticResidual((Poly({1: -4, 5: 12, 8: 1}, 1),), ((1, 1, 1, 1),))
        assert quad.render(names) == ["-4*t1*t2 + 12*t2*t3 + t3*t3"]
        assert QuadraticResidual((), ()).render(names) == []

    def test_render_matches_a_reference_renderer(self, corpus_algebras):
        # the corpus, NF_4 in a basis with halves and thirds (den > 1), NF_3
        # in a dense basis and the full family of ab_3 under both sides, in
        # one process: some numerator comes over two denominators, so a
        # coefficient table shared across residuals renders it wrongly
        nf4 = StructureTensor.from_entries(
            4, _in_basis({(1, i, i + 1): 1 for i in (1, 2, 3)}, HALVES_THIRDS_BASIS)
        )
        algebras = [*corpus_algebras.values(), *map(LeibnizAlgebra.analyze, (nf4, nf_dense(3)))]
        cases = [
            (entry.quadratic, entry.family.parameters)
            for alg in algebras
            for entry in scenario_sweep(alg).values()
        ]
        ab3 = LeibnizAlgebra.analyze(StructureTensor.from_entries(3, {}))
        full = nullspace(assemble_cocycle_system(ab3, scenario("lr-1-r")))
        assert len(full) == 27
        cases += [(dual_leibniz_residual(full, side), full.parameters) for side in Side]
        dens = {}
        for quad, names in cases:
            for p in quad.polynomials:
                for x in p.terms.values():
                    dens.setdefault(x, set()).add(p.den)
            assert quad.render(names) == reference_render(quad, names)
        assert any(len(over) > 1 for over in dens.values())

    def test_family1_identically_left(self):
        quad = dual_leibniz_residual(EX1_FAMILIES[0].family(2), Side.LEFT)
        assert quad.is_identically_zero()

    def test_family1_not_identically_right(self):
        quad = dual_leibniz_residual(EX1_FAMILIES[0].family(2), Side.RIGHT)
        assert not quad.is_identically_zero()

    def test_evaluation_matches_direct_residual(self, corpus_algebras):
        rng = random.Random(37)
        for alg in corpus_algebras.values():
            sweeps = scenario_sweep(alg)
            for entry in sweeps.values():
                for _ in range(3):
                    values = [F(rng.randint(-2, 2)) for _ in entry.family.parameters]
                    member = family_member(entry.family, values)
                    direct = leibniz_residual_by_brackets(member, entry.scenario.dual_side)
                    assert every_component(entry.quadratic, values, alg.dim) == direct

    def test_matches_polarization_oracle(self, corpus_algebras):
        nf4 = StructureTensor.from_entries(4, {(1, i, i + 1): 1 for i in (1, 2, 3)})
        algebras = [*corpus_algebras.values()]
        algebras += [LeibnizAlgebra.analyze(t) for t in (nf4, opposite(nf4))]
        cases = [
            (entry.family, entry.scenario.dual_side)
            for alg in algebras
            for entry in scenario_sweep(alg).values()
        ]
        for n in (2, 3):
            zero = LeibnizAlgebra.analyze(StructureTensor.from_entries(n, {}))
            full = nullspace(assemble_cocycle_system(zero, scenario("lr-1-r")))
            assert len(full) == n ** 3
            cases += [(full, side) for side in Side]
        for family, side in cases:
            assert family.basis
            got = dual_leibniz_residual(family, side)
            want = quadratic_by_polarization(family, side)
            assert dense_quadratic(got, family.dim, len(family)) == want

    def test_opposite_family_mirrors_components(self, corpus_algebras):
        # L_{f^op}(X, Y, Z) = R_f(X, Z, Y): component (i, j, k, m) of the
        # left-handed residual of the opposite family is component
        # (i, k, j, m) of the right-handed residual of the family, and the
        # same holds with the sides swapped
        nf4 = StructureTensor.from_entries(4, {(1, i, i + 1): 1 for i in (1, 2, 3)})
        algebras = [*corpus_algebras.values()]
        algebras += [LeibnizAlgebra.analyze(t) for t in (nf4, opposite(nf4))]
        families = [entry.family for alg in algebras for entry in scenario_sweep(alg).values()]
        for n in (2, 3):
            zero = LeibnizAlgebra.analyze(StructureTensor.from_entries(n, {}))
            families.append(nullspace(assemble_cocycle_system(zero, scenario("lr-1-r"))))
        assert len(families) == 28
        nonzero = 0
        for family in families:
            mirror = DualFamily(
                family.dim, tuple(opposite(b) for b in family.basis), family.parameters
            )
            for side, other in ((Side.LEFT, Side.RIGHT), (Side.RIGHT, Side.LEFT)):
                got = dual_leibniz_residual(mirror, side)
                want = dual_leibniz_residual(family, other)
                nonzero += not want.is_identically_zero()
                assert {
                    (i, k, j, m): (p.terms, p.den)
                    for (i, j, k, m), p in zip(got.provenance, got.polynomials)
                } == {c: (q.terms, q.den) for c, q in zip(want.provenance, want.polynomials)}
        assert nonzero > 28

    def test_generic_quadratic_system_detects_non_leibniz(self, zero2):
        system = assemble_cocycle_system(zero2, scenario("lr-1-r"))
        family = nullspace(system)
        quad = dual_leibniz_residual(family, Side.RIGHT)
        bad = StructureTensor.from_entries(
            2, {(1, 1, 1): 1, (1, 1, 2): 1, (2, 1, 1): 1}
        )
        values = flatten_tensor(bad)  # full space: coordinates = parameters
        evaluated = evaluate_quadratic(quad, values)
        assert any(v != 0 for v in evaluated)
        direct = leibniz_residual_by_brackets(bad, Side.RIGHT)
        assert every_component(quad, values, 2) == direct


class TestVerifyAndSweep:
    def test_reference_families_membership(self, corpus_algebras):
        for name, refs in FAMILIES.items():
            alg = corpus_algebras[name]
            for ref in refs:
                admitted = set()
                for sc in SCENARIOS:
                    if not sc.compatible(alg):
                        continue
                    ok_cocycle, ok_dual = family_verdict(alg, sc, ref.family(alg.dim))
                    if ok_cocycle and ok_dual:
                        admitted.add(sc.key)
                assert admitted == set(ref.admitted), ref.key

    def test_verify_bialgebra_golden(self, ex1):
        member = EX1_FAMILIES[0].member(2, [F(1)])
        verdict = verify_bialgebra(ex1, scenario("lr-4-l"), member)
        assert verdict.ok and verdict.witness is None
        verdict = verify_bialgebra(ex1, scenario("lr-1-r"), member)
        assert not verdict.dual_leibniz_ok  # left family, right dual demanded
        assert verdict.witness is not None

    def test_zero_dual_verifies_everywhere(self, ex3):
        z = StructureTensor.from_entries(2, {})
        for sc in SCENARIOS:
            verdict = verify_bialgebra(ex3, sc, z)
            assert verdict.ok

    def test_example4_family1_member_verifies(self, ex4):
        from families import EX4_FAMILIES

        member = EX4_FAMILIES[0].member(3, [F(1), F(1)])
        verdict = verify_bialgebra(ex4, scenario("lr-4-l"), member)
        assert verdict.ok

    def test_sweep_scenario_keys(self, ex1):
        assert list(scenario_sweep(ex1)) == ["lr-1-r", "lr-4-l", "l-3-r", "l-3-l"]

    def test_one_scenario_solves_one_system(self, corpus_algebras, monkeypatch):
        import leibnizalg.solver as solver_mod

        assembled = []

        def counting(alg, sc):
            assembled.append(sc.form)
            return assemble_cocycle_system(alg, sc)

        for alg in corpus_algebras.values():
            whole = scenario_sweep(alg)
            for key, entry in whole.items():
                assembled.clear()
                with monkeypatch.context() as m:
                    m.setattr(solver_mod, "assemble_cocycle_system", counting)
                    alone = scenario_sweep(alg, key=key)
                assert assembled == [entry.scenario.form]
                assert list(alone) == [key]
                got = alone[key]
                assert (got.scenario, got.family) == (entry.scenario, entry.family)
                assert got.quadratic.provenance == entry.quadratic.provenance
                assert [(p.terms, p.den) for p in got.quadratic.polynomials] == [
                    (p.terms, p.den) for p in entry.quadratic.polynomials
                ]

    def test_ex3_lie_family_admitted_by_four(self, ex3):
        ref = EX3_FAMILIES[0]
        assert ref.admitted == {"r-2-r", "r-2-l", "l-3-r", "l-3-l"}
        admitted = {
            sc.key
            for sc in SCENARIOS
            if all(family_verdict(ex3, sc, ref.family(2)))
        }
        assert admitted == ref.admitted


# The opposite algebra f^op (the two argument slots swapped) mirrors the
# scenarios: form k on f becomes form 5 - k on f^op, with the dual side
# flipped.
MIRROR = {
    "lr-1-r": "lr-4-l", "lr-4-l": "lr-1-r",
    "r-2-r": "l-3-l", "l-3-l": "r-2-r",
    "r-2-l": "l-3-r", "l-3-r": "r-2-l",
}


class TestOppositeMirror:
    def test_scenarios_mirror_on_the_opposite_algebra(self, corpus_algebras):
        tensors = [alg.tensor for alg in corpus_algebras.values()]
        for n in (2, 3, 4, 5):
            nf = StructureTensor.from_entries(n, {(1, i, i + 1): 1 for i in range(1, n)})
            tensors += [nf, opposite(nf)]
        tensors += [StructureTensor.from_entries(n, {}) for n in (2, 3)]
        for f in tensors:
            sweep = scenario_sweep(LeibnizAlgebra.analyze(f))
            mirrored = scenario_sweep(LeibnizAlgebra.analyze(opposite(f)))
            # a wrong compatibility rule breaks this key mapping
            assert {MIRROR[key] for key in sweep} == set(mirrored), f
            for key, entry in sweep.items():
                assert len(entry.family) == len(mirrored[MIRROR[key]].family), (f, key)
                system = cocycle_system(opposite(f), scenario(MIRROR[key]).form)
                for g in entry.family.basis:
                    assert annihilates(system, opposite(g)), (f, key)


# The paper's dual correspondence on the compatibility forms: with B_k(f, g)
# the residual [i][j][m][n] of form k, primal bracket f and dual bracket g,
#   dual swap:  B_k(f, g)[i, j, m, n] = B_s(k)(g, f)[m, n, i, j],
#   opposite:   B_k(f, g)[i, j, m, n] = B_o(k)(f^op, g^op)[j, i, n, m],
# with s = (1 2)(3 4) and o = (1 4)(2 3): the four forms are one form under
# a Klein four-group.  The identities are bilinear and need no Leibniz
# identity, so random dense pairs test them.
SWAP = {1: 2, 2: 1, 3: 4, 4: 3}
OPPOSITE = {1: 4, 4: 1, 2: 3, 3: 2}


class TestKleinFour:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_dual_swap_and_opposite(self, n):
        rng = random.Random(n)
        for _ in range(2):
            f, g = rand_tensor(rng, n), rand_tensor(rng, n)
            for k in (1, 2, 3, 4):
                b = cocycle_residual_tensor(f, g, k)
                assert sparse4(b), (n, k)  # not a vacuous identity
                swapped = cocycle_residual_tensor(g, f, SWAP[k])
                mirrored = cocycle_residual_tensor(opposite(f), opposite(g), OPPOSITE[k])
                for i, j, m, q in itertools.product(range(n), repeat=4):
                    assert b[i][j][m][q] == swapped[m][q][i][j], (n, k)
                    assert b[i][j][m][q] == mirrored[j][i][q][m], (n, k)

    def test_dual_swap_at_the_scenario_level(self, corpus_algebras):
        # A member g of the kernel of scenario S = (k, s) on f that is itself
        # s-handed Leibniz is a dual bracket of f.  Swapping the roles, f lies
        # in the kernel, computed on g, of every scenario of form SWAP[k]
        # whose dual side f admits: f is the family member at its values on
        # the free columns (the last nonzero column of each basis vector), and
        # the quadratic residual vanishes there.  The s-handedness of g is
        # what form SWAP[k] needs, so no member is skipped.  Members: the
        # kernel basis and three seeded rational combinations of it.
        algebras = list(corpus_algebras.values())
        for n in range(2, 6):
            nf = StructureTensor.from_entries(n, {(1, i, i + 1): 1 for i in range(1, n)})
            algebras += [LeibnizAlgebra.analyze(t) for t in (nf, opposite(nf))]
        algebras += [LeibnizAlgebra.analyze(StructureTensor.from_entries(n, {})) for n in (2, 3)]
        rng = random.Random(18)
        checked = 0
        for alg in algebras:
            flat = flatten_tensor(alg.tensor)
            for key, entry in scenario_sweep(alg).items():
                family = entry.family
                combinations = [
                    family_member(family, [F(rng.randint(-3, 3), rng.randint(1, 3))
                                           for _ in family.basis])
                    for _ in range(3)
                ]
                for g in family.basis + tuple(combinations):
                    if leibniz_residual(g, entry.scenario.dual_side):
                        continue
                    dual = LeibnizAlgebra.analyze(g)
                    for sc in SCENARIOS:
                        if sc.form != SWAP[entry.scenario.form] or not alg.admits(sc.dual_side):
                            continue
                        assert sc.compatible(dual), (key, sc.key)
                        swapped = scenario_sweep(dual, sc.key)[sc.key]
                        free = [max(c for c, v in enumerate(flatten_tensor(b)) if v)
                                for b in swapped.family.basis]
                        values = [flat[c] for c in free]
                        assert family_member(swapped.family, values) == alg.tensor, (key, sc.key)
                        assert not any(evaluate_quadratic(swapped.quadratic, values))
                        checked += 1
        assert checked == 378
