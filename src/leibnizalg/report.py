"""Deterministic report assembly: the sections of ``check``, ``adjoint``,
``actions`` and ``duals``, and the whole ``report``.

Reports are plain dicts serialized with sorted keys by
``document.render_json``; every rational is a ``p`` or ``p/q`` string,
never a float, so byte-identical inputs (and seed) give byte-identical
reports.

On top of the parser's modules, ``check`` and ``adjoint`` load this module
alone.  The action, cohomology, r-matrix and solver layers and ``random``
are bound on first use and called as ``_lazy.name``: ``actions`` adds
``actions``, ``duals`` the solver (with ``actions``, ``cohomology`` and
``poly``) but no r-matrix code, and ``report`` every layer.  The r-matrix
commands do not load this module.
"""

from __future__ import annotations

import sys
from fractions import Fraction

from . import __version__ as _version
from . import _on_first_use
from .core import (
    LeibnizAlgebra,
    Side,
    adjoint_matrices,
    coadjoint_matrices,
    first_nonzero,
    leibniz_residual,
)
from .document import AlgebraDocument, matrix_json, tensor_json

__getattr__ = _on_first_use(globals(), [
    {".actions": ("ActionCase", "axiom_report")},
    {".cohomology": ("coboundary0", "coboundary1")},
    {".rmatrix": ("BRACKET_CASE", "COMPLEX", "coboundary_cocommutator",
                  "cocommutator_matrix_route", "crosscheck_dual_defect",
                  "dual_bracket_from_r", "schouten", "triple_products")},
    {".solver": ("scenario_sweep",)},
    {"random": ("Random",)},
])
_lazy = sys.modules[__name__]


def chirality_section(alg: LeibnizAlgebra):
    out = {"chirality": alg.chirality.value, "witnesses": []}
    for side in (Side.LEFT, Side.RIGHT):
        hit = first_nonzero(leibniz_residual(alg.tensor, side))
        if hit is not None:
            out["witnesses"].append({"check": f"{side.value}-identity",
                                     "component": list(hit[0]), "value": str(hit[1])})
    return out


def adjoint_section(alg: LeibnizAlgebra):
    adj = adjoint_matrices(alg.tensor)
    coad = coadjoint_matrices(adj)
    return {
        "first_slot": [matrix_json(m) for m in adj.first_slot],
        "second_slot": [matrix_json(m) for m in adj.second_slot],
        "output_slot": [matrix_json(m) for m in adj.output_slot],
        "coadjoint_left": [matrix_json(m) for m in coad.left],
        "coadjoint_right": [matrix_json(m) for m in coad.right],
    }


def actions_section(alg: LeibnizAlgebra):
    out = {}
    for case in _lazy.ActionCase:
        # cases 1 and 4 keep their key, empty, on a `neither` algebra
        if case.required_side and not case.complexes(alg):
            continue
        out[f"case{case.value}"] = {
            label: ("pass" if ok else "fail")
            for label, ok in _lazy.axiom_report(case, alg).items()
        }
    return out


def duals_section(alg: LeibnizAlgebra, key: str | None = None):
    """Every compatible scenario's entry, or only scenario ``key``'s."""
    out = {}
    for name, entry in _lazy.scenario_sweep(alg, key=key).items():
        quad = entry.quadratic
        starred = [t + "*" for t in quad.parameters]
        nonzero = [
            {
                "component": list(prov),
                "polynomial": poly.render(quad.parameters, starred),
            }
            for prov, poly in zip(quad.provenance, quad.polynomials)
        ]
        out[name] = {
            "form": entry.scenario.form,
            "dual_side": entry.scenario.dual_side.value,
            "kernel_dimension": len(entry.family),
            "parameters": list(entry.family.parameters),
            "basis": [tensor_json(b) for b in entry.family.basis],
            "quadratic_identically_zero": quad.is_identically_zero(),
            "quadratic_nonzero_components": nonzero,
        }
    return out


def _random_matrix(rng, n: int):
    return tuple(
        tuple(Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(n))
        for _ in range(n)
    )


# Random draws per identity and side in the selfcheck.
SELFCHECK_TRIALS = 5


def selfcheck_section(alg: LeibnizAlgebra, seed: int):
    """Seeded randomized identity battery recorded inside the report."""
    rng = _lazy.Random(seed)
    n = alg.dim
    complex_ok = True
    for case in _lazy.ActionCase:
        for side in case.complexes(alg):
            for _ in range(SELFCHECK_TRIALS):
                m = _random_matrix(rng, n)
                d0 = _lazy.coboundary0(alg, case, side, m)
                if _lazy.coboundary1(alg, case, side, d0):
                    complex_ok = False
    route_ok = True
    defect_ok = True
    decomp_ok = True
    for side in (Side.LEFT, Side.RIGHT):
        if not alg.admits(side):
            continue
        cases = [case for case, pair in _lazy.COMPLEX.items() if pair and pair[1] is side]
        for _ in range(SELFCHECK_TRIALS):
            r = _random_matrix(rng, n)
            for case in cases:
                if _lazy.coboundary_cocommutator(
                    alg, r, case
                ) != _lazy.cocommutator_matrix_route(alg, r, case):
                    route_ok = False
            if _lazy.dual_bracket_from_r(alg, r, side) != _lazy.coboundary_cocommutator(
                alg, r, _lazy.BRACKET_CASE[side]
            ):
                route_ok = False
            if not _lazy.crosscheck_dual_defect(alg, r, side):
                defect_ok = False
            p1, p2, _ = _lazy.triple_products(alg, r, side)
            total = dict(p1)
            for c, v in p2:
                total[c] = total.get(c, 0) + v
            total = {c: v for c, v in total.items() if v}
            if total != dict(_lazy.schouten(alg, r, side)):
                decomp_ok = False
    return {"coboundary_squares_to_zero": complex_ok, "cocommutator_routes_agree": route_ok,
            "dual_defect_identity": defect_ok, "schouten_decomposition": decomp_ok,
            "seed": seed, "trials": SELFCHECK_TRIALS}


def _sha256(data: bytes) -> str:
    """The SHA-256 hex digest from the interpreter's own module, ``_sha2``
    (3.12+) or ``_sha256``, which unlike ``hashlib`` loads no OpenSSL."""
    for name in ("_sha2", "_sha256", "hashlib"):
        try:
            return __import__(name).sha256(data).hexdigest()
        except ImportError:
            pass


def build_report(doc: AlgebraDocument, alg: LeibnizAlgebra, raw: bytes, seed: int):
    return {
        "tool": {"name": "leibnizalg", "version": _version},
        "input": {
            "digest": _sha256(raw),
            "name": doc.name,
            "dim": doc.dim,
            "declared_side": doc.declared_side,
        },
        "check": chirality_section(alg),
        "adjoint": adjoint_section(alg),
        "actions": actions_section(alg),
        "duals": duals_section(alg),
        "selfcheck": selfcheck_section(alg, seed),
    }
