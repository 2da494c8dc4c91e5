"""Exact-arithmetic toolkit for finite-dimensional Leibniz algebras:
bracket-identity verification, adjoint/coadjoint matrices, module actions
and coboundaries, dual-structure (bialgebra) solving, classical r-matrices
and Yang-Baxter checks.

The package exports the names of the README's "Library use" and three
error classes; the command line and everything else import the rest from
its module.  Importing the package loads none of its modules: each export
is imported on first use.
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
    # the errors
    "ChiralityError",
    "LeibnizError",
    "ParseError",
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
    {".core": ("LeibnizAlgebra", "Side", "StructureTensor")},
    {".errors": ("ChiralityError", "LeibnizError", "ParseError")},
    {".rmatrix": ("CoboundaryCase", "cybe_check", "solve_rmatrix")},
    {".solver": ("scenario", "scenario_sweep")},
])
