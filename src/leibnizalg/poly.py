"""Sparse multivariate polynomials with exact rational coefficients.

Monomials are sorted tuples of variable indices (a variable appears once
per power), so ``(0, 0, 2)`` is t1*t1*t3.  Degrees stay tiny here: the
solver only ever multiplies two linear forms.
"""

from __future__ import annotations

from fractions import Fraction

from .linalg import frac


class Poly:
    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms: dict[tuple[int, ...], Fraction] = {}
        if terms:
            for mono, coeff in terms.items():
                c = frac(coeff)
                if c != 0:
                    self.terms[tuple(sorted(mono))] = c

    @classmethod
    def const(cls, c) -> "Poly":
        c = frac(c)
        return cls({(): c} if c != 0 else None)

    @classmethod
    def var(cls, index: int) -> "Poly":
        return cls({(index,): Fraction(1)})

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other: "Poly") -> "Poly":
        out = dict(self.terms)
        for mono, c in other.terms.items():
            s = out.get(mono, Fraction(0)) + c
            if s == 0:
                out.pop(mono, None)
            else:
                out[mono] = s
        p = Poly()
        p.terms = out
        return p

    def __neg__(self) -> "Poly":
        p = Poly()
        p.terms = {m: -c for m, c in self.terms.items()}
        return p

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __mul__(self, other: "Poly") -> "Poly":
        out: dict[tuple[int, ...], Fraction] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                mono = tuple(sorted(m1 + m2))
                s = out.get(mono, Fraction(0)) + c1 * c2
                if s == 0:
                    out.pop(mono, None)
                else:
                    out[mono] = s
        p = Poly()
        p.terms = out
        return p

    def evaluate(self, values) -> Fraction:
        vals = [frac(v) for v in values]
        total = Fraction(0)
        for mono, coeff in self.terms.items():
            prod = coeff
            for ix in mono:
                prod *= vals[ix]
            total += prod
        return total

    def __eq__(self, other) -> bool:
        return isinstance(other, Poly) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def render(self, names) -> str:
        """Deterministic human/JSON form, e.g. ``t1*t2 - 2*t3``."""
        if not self.terms:
            return "0"
        parts = []
        for mono in sorted(self.terms, key=lambda m: (len(m), m)):
            coeff = self.terms[mono]
            body = "*".join(names[i] for i in mono)
            if not body:
                text = str(abs(coeff))
            elif abs(coeff) == 1:
                text = body
            else:
                text = f"{abs(coeff)}*{body}"
            sign = "-" if coeff < 0 else "+"
            parts.append((sign, text))
        first_sign, first = parts[0]
        out = (("-" if first_sign == "-" else "") + first)
        for sign, text in parts[1:]:
            out += f" {sign} {text}"
        return out

    def __repr__(self):
        top = max((max(m) for m in self.terms if m), default=-1)
        return f"Poly({self.render([f't{i + 1}' for i in range(top + 1)])})"
