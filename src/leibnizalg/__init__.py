"""Exact-arithmetic toolkit for finite-dimensional Leibniz algebras:
bracket-identity verification, adjoint/coadjoint matrices, module actions
and coboundaries, dual-structure (bialgebra) solving, classical r-matrices
and Yang-Baxter checks.
"""

from .actions import ActionCase, act, axioms_hold, module_axiom_residuals
from .cohomology import (
    CochainMap,
    coboundary0,
    coboundary1,
    coboundary2,
    cocommutator_cochain,
)
from .core import (
    AdjointMatrices,
    Chirality,
    CoadjointMatrices,
    LeibnizAlgebra,
    Side,
    StructureTensor,
    adjoint_matrices,
    classify,
    coadjoint_matrices,
    first_nonzero,
    is_antisymmetric,
    leibniz_residual,
)
from .errors import ChiralityError, DimensionError, LeibnizError, ParseError
from .poly import Poly
from .rmatrix import (
    CoboundaryCase,
    RMatrixFamily,
    SchoutenTensor,
    TripleProduct,
    coboundary_case,
    coboundary_cocommutator,
    cocommutator_matrix_route,
    crosscheck_dual_defect,
    cybe_check,
    dual_bracket_from_r,
    gybe_residual,
    is_antisymmetric_matrix,
    schouten,
    solve_rmatrix,
    triple_products,
)
from .solver import (
    BialgebraVerdict,
    DualFamily,
    LinearSystem,
    QuadraticResidual,
    SCENARIOS,
    Scenario,
    SweepEntry,
    assemble_cocycle_system,
    cocycle_residual_tensor,
    dual_leibniz_residual,
    family_from_tensors,
    family_is_cocycle,
    family_verdict,
    nullspace,
    scenario,
    scenario_sweep,
    verify_bialgebra,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
