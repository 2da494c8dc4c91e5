"""Exact-arithmetic toolkit for finite-dimensional Leibniz algebras:
bracket-identity verification, adjoint/coadjoint matrices, module actions
and coboundaries, dual-structure (bialgebra) solving, classical r-matrices
and Yang-Baxter checks.

The package exports what the README's "Library use" and the command line
use; everything else is reached through its module.  Importing the package
loads none of its modules: each export is imported on first use.
"""

import importlib

__version__ = "0.1.0"

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


def _on_first_use(namespace: dict, groups):
    """A module ``__getattr__`` (PEP 562) that binds names of other modules
    into ``namespace`` when one of them is first looked up.

    ``groups`` is a sequence of {module: names} dicts, a module name
    relative to this package when it starts with a dot.  Looking up a name
    imports the modules of its group and binds every name of the group,
    keeping a binding already there.  Code that calls such a name looks it
    up on the module object at call time, so a wrapper set on the module
    attribute is the function that runs.
    """

    def __getattr__(name):
        for group in groups:
            if any(name in names for names in group.values()):
                for module, names in group.items():
                    found = importlib.import_module(module, __name__)
                    for each in names:
                        namespace.setdefault(each, getattr(found, each))
                return namespace[name]
        raise AttributeError(f"module {namespace['__name__']!r} has no attribute {name!r}")

    return __getattr__


__getattr__ = _on_first_use(globals(), [
    {".core": ("LeibnizAlgebra", "Side", "StructureTensor", "classify")},
    {".document": ("parse_algebra", "parse_rmatrix")},
    {".errors": ("ChiralityError", "LeibnizError", "ParseError", "quote")},
    {".report": ("actions_section", "adjoint_section", "build_report", "chirality_section",
                 "duals_section", "matrix_json", "rational_str", "render_json", "tensor_json")},
    {".rmatrix": ("CoboundaryCase", "coboundary_case", "coboundary_cocommutator", "cybe_check",
                  "gybe_residual", "is_antisymmetric_matrix", "schouten", "solve_rmatrix")},
    {".solver": ("SCENARIOS", "scenario", "scenario_sweep")},
])
