"""In-process span recorder for the traced run.

The program is not instrumented.  Instead, ``Tracer.install`` replaces the
public entry points listed in ``WRAPS`` with timing wrappers, at the module
attribute where the caller looks the name up, and ``Tracer.remove`` puts the
originals back.  Only coarse boundaries are wrapped; nothing called per
tensor entry (``act``, ``Poly`` arithmetic) is touched.

Each span records its name, start, end, parent and the operation it belongs
to.  Spans stay in memory; counts are read from the returned objects after
the pass, so reading them costs no span any time.
"""

from __future__ import annotations

import importlib
import time
from dataclasses import dataclass, field

# (module, attribute, span name).  Several names map to one span name when
# the same layer is reached from different callers.
WRAPS = (
    ("leibnizalg.cli", "parse_algebra", "document.parse"),
    ("leibnizalg.cli", "parse_rmatrix", "document.parse"),
    ("leibnizalg.document", "classify", "core.classify"),
    ("leibnizalg.core", "classify", "core.classify"),
    ("leibnizalg.report", "adjoint_matrices", "core.adjoint"),
    ("leibnizalg.report", "coadjoint_matrices", "core.adjoint"),
    ("leibnizalg.rmatrix", "adjoint_matrices", "core.adjoint"),
    ("leibnizalg.rmatrix", "coadjoint_matrices", "core.adjoint"),
    ("leibnizalg.report", "leibniz_residual", "core.residual"),
    ("leibnizalg.rmatrix", "leibniz_residual", "core.residual"),
    ("leibnizalg.report", "axiom_report", "actions.axioms"),
    ("leibnizalg.report", "scenario_sweep", "solver.sweep"),
    ("leibnizalg.solver", "assemble_cocycle_system", "solver.assemble"),
    ("leibnizalg.solver", "nullspace", "solver.nullspace"),
    ("leibnizalg.solver", "kernel_basis", "linalg.kernel"),
    ("leibnizalg.solver", "dual_leibniz_residual", "poly.quadratic"),
    ("leibnizalg.rmatrix", "solve_affine", "linalg.solve_affine"),
    ("leibnizalg.report", "coboundary0", "cohomology.coboundary"),
    ("leibnizalg.report", "coboundary1", "cohomology.coboundary"),
    ("leibnizalg.report", "selfcheck_section", "report.selfcheck"),
    ("leibnizalg.report", "coboundary_cocommutator", "rmatrix.cocommutator"),
    ("leibnizalg.report", "cocommutator_matrix_route", "rmatrix.cocommutator"),
    ("leibnizalg.report", "dual_bracket_from_r", "rmatrix.cocommutator"),
    ("leibnizalg.rmatrix", "coboundary_cocommutator", "rmatrix.cocommutator"),
    ("leibnizalg.cli", "coboundary_cocommutator", "rmatrix.cocommutator"),
    ("leibnizalg.cli", "solve_rmatrix", "rmatrix.solve"),
    ("leibnizalg.cli", "schouten", "rmatrix.schouten"),
    ("leibnizalg.cli", "cybe_check", "rmatrix.schouten"),
    ("leibnizalg.report", "schouten", "rmatrix.schouten"),
    ("leibnizalg.report", "triple_products", "rmatrix.schouten"),
    ("leibnizalg.rmatrix", "schouten", "rmatrix.schouten"),
    ("leibnizalg.cli", "gybe_residual", "rmatrix.gybe"),
    ("leibnizalg.rmatrix", "gybe_residual", "rmatrix.gybe"),
    ("leibnizalg.report", "crosscheck_dual_defect", "rmatrix.gybe"),
    ("leibnizalg.cli", "build_report", "report.build"),
    ("leibnizalg.cli", "duals_section", "report.duals"),
    ("leibnizalg.report", "duals_section", "report.duals"),
    ("leibnizalg.cli", "render_json", "report.render"),
)

# Root span of one CLI operation; its self time is argument parsing, file
# reads and writes to stdout.
OP_SPAN = "cli.dispatch"

# Span names whose results carry work counts.
COUNTED = {"solver.assemble", "linalg.kernel", "poly.quadratic", "actions.axioms"}


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1
    op: int = -1
    result: object = None
    args: tuple = ()


@dataclass
class Tracer:
    spans: list[Span] = field(default_factory=list)
    _stack: list[int] = field(default_factory=list)
    _saved: list = field(default_factory=list)
    _op: int = -1

    def _wrap(self, name, fn):
        tracer = self

        def traced(*args, **kwargs):
            span = Span(name, 0.0, parent=tracer._stack[-1] if tracer._stack else -1,
                        op=tracer._op)
            tracer.spans.append(span)
            tracer._stack.append(len(tracer.spans) - 1)
            span.start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                tracer._stack.pop()
            if name in COUNTED:
                span.result, span.args = out, args
            return out

        return traced

    def install(self):
        for mod_name, attr, name in WRAPS:
            mod = importlib.import_module(mod_name)
            fn = getattr(mod, attr)
            self._saved.append((mod, attr, fn))
            setattr(mod, attr, self._wrap(name, fn))

    def remove(self):
        for mod, attr, fn in reversed(self._saved):
            setattr(mod, attr, fn)
        self._saved.clear()

    def op(self, index: int, fn):
        """Run one operation under a root span and return its result."""
        self._op = index
        return self._wrap(OP_SPAN, fn)()


def self_times(spans) -> dict[str, float]:
    """Self time per span name: duration minus the time its children cover."""
    child = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            child[s.parent] += s.end - s.start
    out: dict[str, float] = {}
    for i, s in enumerate(spans):
        out[s.name] = out.get(s.name, 0.0) + (s.end - s.start) - child[i]
    return out


def coverage(spans) -> float:
    """Time covered by the layer spans directly under an operation ÷ operation time."""
    roots = {i for i, s in enumerate(spans) if s.parent < 0}
    total = sum(spans[i].end - spans[i].start for i in roots)
    covered = sum(s.end - s.start for s in spans if s.parent in roots)
    return covered / total if total else 0.0


def _bits(x) -> int:
    return max(abs(x.numerator).bit_length(), x.denominator.bit_length())


def counts(spans) -> dict[str, float]:
    """Work counts read from the results the wrapped calls returned."""
    c = {
        "actions.verdicts": 0,
        "solver.systems": 0,
        "solver.distinct_forms": 0,
        "solver.rows": 0,
        "solver.nonzero_rows": 0,
        "linalg.rank": 0,
        "linalg.kernel_dim": 0,
        "linalg.max_bits": 0,
        "poly.terms": 0,
    }
    forms = set()
    for s in spans:
        if s.name == "actions.axioms":
            c["actions.verdicts"] += len(s.result)
        elif s.name == "solver.assemble":
            m = s.result.matrix
            c["solver.systems"] += 1
            c["solver.rows"] += len(m)
            c["solver.nonzero_rows"] += sum(1 for row in m if any(row))
            forms.add((s.op, s.result.form))
        elif s.name == "linalg.kernel":
            ncols = s.args[1] if len(s.args) > 1 else len(s.args[0][0])
            c["linalg.kernel_dim"] += len(s.result)
            c["linalg.rank"] += ncols - len(s.result)
            for v in s.result:
                for x in v:
                    if x:
                        c["linalg.max_bits"] = max(c["linalg.max_bits"], _bits(x))
        elif s.name == "poly.quadratic":
            c["poly.terms"] += sum(len(p.terms) for p in s.result.polynomials)
    c["solver.distinct_forms"] = len(forms)
    c["solver.nonzero_row_frac"] = (
        c["solver.nonzero_rows"] / c["solver.rows"] if c["solver.rows"] else 0.0
    )
    return c
