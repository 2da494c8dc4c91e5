"""Sparse multivariate polynomials with exact rational coefficients.

Monomials are sorted tuples of variable indices (a variable appears once
per power), so ``(0, 0, 2)`` is t1*t1*t3; no coefficient is zero.
The solver builds its quadratic residuals directly as term dicts; ``Poly``
only stores and renders them.
"""

from __future__ import annotations

from fractions import Fraction


class Poly:
    __slots__ = ("terms",)

    def __init__(self, terms=None):
        """``terms`` maps sorted monomials to nonzero Fractions."""
        self.terms: dict[tuple[int, ...], Fraction] = terms or {}

    def is_zero(self) -> bool:
        return not self.terms

    def render(self, names) -> str:
        """Deterministic human/JSON form, e.g. ``t1*t2 - 2*t3``."""
        if not self.terms:
            return "0"
        parts = []
        for mono in sorted(self.terms, key=lambda m: (len(m), m)):
            size = str(self.terms[mono])
            sign, size = ("-", size[1:]) if size[0] == "-" else ("+", size)
            body = "*".join(names[i] for i in mono)
            parts.append((sign, f"{size}*{body}" if body and size != "1" else body or size))
        out = ("-" if parts[0][0] == "-" else "") + parts[0][1]
        return out + "".join(f" {sign} {text}" for sign, text in parts[1:])

    def __repr__(self):
        top = max((max(m) for m in self.terms if m), default=-1)
        return f"Poly({self.render([f't{i + 1}' for i in range(top + 1)])})"
