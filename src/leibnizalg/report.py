"""Deterministic report assembly.

Reports are plain dicts serialized with sorted keys; every rational is a
``p`` or ``p/q`` string, never a float, so byte-identical inputs (and seed)
give byte-identical reports.

``render_json`` writes them in one recursive pass.  Its bytes are those of
``json.dumps(obj, sort_keys=True, indent=2)`` plus a newline, for the types
a report holds: dicts with string keys, lists and tuples, strings, ints,
booleans and None; any other type raises ``TypeError``.  (``json.dumps``
with an indent runs the standard library's pure-Python encoder; the C
encoder ignores ``indent``.)

The module loads only what ``check`` and ``adjoint`` need.  The action,
cohomology, r-matrix and solver layers and ``random`` are bound on first
use and called as ``_lazy.name``, so ``duals`` loads no r-matrix code.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _quote

from . import __version__ as _version
from . import _on_first_use
from .core import (
    LeibnizAlgebra,
    Side,
    StructureTensor,
    adjoint_matrices,
    coadjoint_matrices,
    first_nonzero,
    leibniz_residual,
)
from .document import AlgebraDocument

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


def rational_str(x: Fraction) -> str:
    return str(x)


def matrix_json(m):
    return [[rational_str(v) for v in row] for row in m]


def tensor_json(t: StructureTensor):
    return [[i, j, k, rational_str(v)] for (i, j, k), v in t.items()]


def witness_json(hit, label):
    if hit is None:
        return None
    indices, value = hit
    return {"check": label, "component": list(indices), "value": rational_str(value)}


def chirality_section(alg: LeibnizAlgebra):
    out = {"chirality": alg.chirality.value, "witnesses": []}
    for side in (Side.LEFT, Side.RIGHT):
        hit = first_nonzero(leibniz_residual(alg.tensor, side))
        if hit is not None:
            out["witnesses"].append(witness_json(hit, f"{side.value}-identity"))
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
        nonzero = [
            {
                "component": list(prov),
                "polynomial": poly.render(quad.parameters),
            }
            for prov, poly in zip(quad.provenance, quad.polynomials)
            if not poly.is_zero()
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
    results = {}
    complex_ok = True
    for case in _lazy.ActionCase:
        for side in case.complexes(alg):
            for _ in range(SELFCHECK_TRIALS):
                m = _random_matrix(rng, n)
                d0 = _lazy.coboundary0(alg, case, side, m)
                if not _lazy.coboundary1(alg, case, side, d0).is_zero():
                    complex_ok = False
    results["coboundary_squares_to_zero"] = complex_ok
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
            if total != dict(_lazy.schouten(alg, r, side).entries):
                decomp_ok = False
    results["cocommutator_routes_agree"] = route_ok
    results["dual_defect_identity"] = defect_ok
    results["schouten_decomposition"] = decomp_ok
    results["seed"] = seed
    results["trials"] = SELFCHECK_TRIALS
    return results


def build_report(doc: AlgebraDocument, alg: LeibnizAlgebra, raw: bytes, seed: int):
    import hashlib  # loads OpenSSL; imported here so that other commands skip it

    return {
        "tool": {"name": "leibnizalg", "version": _version},
        "input": {
            "digest": hashlib.sha256(raw).hexdigest(),
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


def render_json(obj) -> str:
    """``json.dumps(obj, sort_keys=True, indent=2)`` and a newline (see the
    module notes)."""
    out = []
    _write(obj, "\n", out.append)
    out.append("\n")
    return "".join(out)


def _write(obj, newline: str, emit) -> None:
    """Emit ``obj`` as indented JSON; ``newline`` is a newline followed by
    the indent of the line ``obj`` starts on."""
    kind = type(obj)
    if kind is str:
        emit(_quote(obj))
    elif kind is int:
        emit(int.__repr__(obj))
    elif kind is dict:
        if not obj:
            emit("{}")
            return
        inner = newline + "  "
        head = "{" + inner
        for key in sorted(obj):
            if type(key) is not str:
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            emit(head + _quote(key) + ": ")
            _write(obj[key], inner, emit)
            head = "," + inner
        emit(newline + "}")
    elif kind is list or kind is tuple:
        if not obj:
            emit("[]")
            return
        inner = newline + "  "
        head = "[" + inner
        for item in obj:
            emit(head)
            _write(item, inner, emit)
            head = "," + inner
        emit(newline + "]")
    elif obj is None or kind is bool:
        emit("null" if obj is None else "true" if obj else "false")
    else:
        raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")
