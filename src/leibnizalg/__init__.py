"""Exact-arithmetic toolkit for finite-dimensional Leibniz algebras:
bracket-identity verification, adjoint/coadjoint matrices, module actions
and coboundaries, dual-structure (bialgebra) solving, classical r-matrices
and Yang-Baxter checks.

The package exports what the README's "Library use" and the command line
use; everything else is reached through its module.
"""

__version__ = "0.1.0"  # before the imports: ``report`` reads it

from .core import LeibnizAlgebra, Side, StructureTensor, classify
from .document import parse_algebra, parse_rmatrix
from .errors import ChiralityError, LeibnizError, ParseError, quote
from .report import (
    actions_section,
    adjoint_section,
    build_report,
    chirality_section,
    duals_section,
    matrix_json,
    rational_str,
    render_json,
    tensor_json,
)
from .rmatrix import (
    CoboundaryCase,
    coboundary_case,
    coboundary_cocommutator,
    cybe_check,
    gybe_residual,
    is_antisymmetric_matrix,
    schouten,
    solve_rmatrix,
)
from .solver import SCENARIOS, scenario, scenario_sweep

__all__ = [
    # Library use
    "CoboundaryCase",
    "LeibnizAlgebra",
    "Side",
    "StructureTensor",
    "cybe_check",
    "scenario",
    "scenario_sweep",
    "solve_rmatrix",
    # the command line, besides those
    "ChiralityError",
    "LeibnizError",
    "ParseError",
    "SCENARIOS",
    "actions_section",
    "adjoint_section",
    "build_report",
    "chirality_section",
    "classify",
    "coboundary_case",
    "coboundary_cocommutator",
    "duals_section",
    "gybe_residual",
    "is_antisymmetric_matrix",
    "matrix_json",
    "parse_algebra",
    "parse_rmatrix",
    "quote",
    "rational_str",
    "render_json",
    "schouten",
    "tensor_json",
]
