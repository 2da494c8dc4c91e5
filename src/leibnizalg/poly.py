"""Sparse multivariate polynomials with exact rational coefficients.

A polynomial is integer numerators over one positive denominator: ``terms``
maps monomials to nonzero integers, each coefficient being its integer
divided by ``den``.  Monomials are sorted tuples of variable indices (a
variable appears once per power), so ``(0, 0, 2)`` is t1*t1*t3.  The solver
builds its quadratic residuals directly in this form, over the square of
the common denominator of the family; ``Poly`` only stores and renders
them, reducing each coefficient by one ``gcd`` (none when ``den`` is 1).
Nothing mutates a ``Poly`` once built, and every ``Poly`` has terms: a
residual lists only its nonzero components.
"""

from __future__ import annotations

from math import gcd


class Poly:
    __slots__ = ("terms", "den")

    def __init__(self, terms: dict[tuple[int, ...], int], den: int):
        """``terms``, not empty, maps sorted monomials to nonzero integer
        numerators over the positive denominator ``den``."""
        self.terms = terms
        self.den = den

    def render(self, names, starred) -> str:
        """Deterministic human/JSON form, e.g. ``t1*t2 - 2*t3``: constant
        first, then by degree and monomial; each coefficient as ``p`` or
        ``p/q`` in lowest terms.  ``starred[i]`` is ``names[i] + "*"``, built
        once per parameter list: a quadratic monomial's name is one ``+``."""
        den, terms = self.den, self.terms
        parts = []
        # by monomial, then stably by degree: cheaper than one sort keyed in Python
        for mono in sorted(sorted(terms), key=len):
            x = terms[mono]
            g = 1 if den == 1 else gcd(x, den)
            size = str(abs(x) // g) if g == den else f"{abs(x) // g}/{den // g}"
            if len(mono) == 2:
                body = starred[mono[0]] + names[mono[1]]
            else:
                body = "*".join([names[i] for i in mono])
            text = f"{size}*{body}" if body and size != "1" else body or size
            parts.append(f" - {text}" if x < 0 else f" + {text}")
        head = parts[0]
        return ("-" if head[1] == "-" else "") + head[3:] + "".join(parts[1:])

    def __repr__(self):
        top = max((max(m) for m in self.terms if m), default=-1)
        names = [f"t{i + 1}" for i in range(top + 1)]
        return f"Poly({self.render(names, [n + '*' for n in names])})"
