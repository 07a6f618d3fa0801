"""Exact Q/Z arithmetic, quadratic forms, Gauss sums and Jacobi symbols.

A quadratic form here is a function q: G -> Q/Z with q(-g) = q(g) whose
boundary

    dq(g, h) := q(g + h) - q(g) - q(h)

is bi-additive.  The sign convention matters: with this choice the diagonal
of the associated bicharacter satisfies <g, g> = e^{2 pi i * 2 q(g)} for
monomial forms, which is the identity the indicator formulas rely on.

Values in Q/Z are plain ``fractions.Fraction`` objects normalized to [0, 1);
only the final exponentials and sums are floating point.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction

from .abelian import (
    FiniteAbelianGroup,
    GroupElement,
    direct_sum,
    group_from_json,
    group_to_json,
)


def qz(value) -> Fraction:
    """Normalize a rational to its representative in [0, 1)."""
    return Fraction(value) % 1


def phase_to_complex(a: Fraction) -> complex:
    """e^{2 pi i a} for an exact phase a."""
    return cmath.exp(2j * math.pi * float(a % 1))


@dataclass(frozen=True)
class QuadraticForm:
    """Total map q: G -> Q/Z stored densely in element order."""

    group: FiniteAbelianGroup
    values: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        values = tuple(qz(v) for v in self.values)
        object.__setattr__(self, "values", values)
        if len(values) != self.group.order:
            raise ValueError("value table does not match group order")
        if values[0] != 0:
            raise ValueError("quadratic form must vanish at the identity")
        for g in self.group.elements():
            if self.value(g) != self.value(self.group.neg(g)):
                raise ValueError(f"q(-g) != q(g) at g={g}")

    def value(self, g: GroupElement) -> Fraction:
        return self.values[self.group.index(g)]

    def boundary(self, g: GroupElement, h: GroupElement) -> Fraction:
        grp = self.group
        return (self.value(grp.add(g, h)) - self.value(g) - self.value(h)) % 1

    def bicharacter(self, g: GroupElement, h: GroupElement) -> complex:
        return phase_to_complex(self.boundary(g, h))

    def scaled(self, k: int) -> "QuadraticForm":
        return QuadraticForm(self.group, tuple((k * v) % 1 for v in self.values))

    def negated(self) -> "QuadraticForm":
        return self.scaled(-1)

    def radical(self) -> list[GroupElement]:
        """Elements h with dq(., h) identically zero."""
        elems = self.group.elements()
        return [h for h in elems if all(self.boundary(g, h) == 0 for g in elems)]

    def is_nondegenerate(self) -> bool:
        return len(self.radical()) == 1

    def boundary_is_biadditive(self) -> bool:
        """Exhaustive bi-additivity check of dq (cubic in |G|; test use)."""
        grp = self.group
        elems = grp.elements()
        for g1 in elems:
            for g2 in elems:
                for h in elems:
                    lhs = self.boundary(grp.add(g1, g2), h)
                    rhs = (self.boundary(g1, h) + self.boundary(g2, h)) % 1
                    if lhs != rhs:
                        return False
        return True


def monomial_form(group: FiniteAbelianGroup, coeffs) -> QuadraticForm:
    """q(g) = sum_i c_i * g_i^2 / n_i for per-factor integer coefficients."""
    coeffs = tuple(int(c) for c in coeffs)
    if len(coeffs) != group.rank:
        raise ValueError(f"expected {group.rank} coefficients, got {coeffs!r}")
    values = []
    for g in group.elements():
        total = sum(
            (Fraction(c * r * r, n) for c, r, n in zip(coeffs, g, group.cyclic_factors)),
            start=Fraction(0),
        )
        values.append(total % 1)
    return QuadraticForm(group, tuple(values))


def half_form(q: QuadraticForm) -> QuadraticForm:
    """The unique form f with 2f = q on a group of odd exponent."""
    exponent = q.group.exponent
    if exponent % 2 == 0:
        raise ValueError("halving a form requires odd group exponent")
    return q.scaled(pow(2, -1, exponent))


def gauss_sum(q: QuadraticForm) -> complex:
    """Theta(G, q) = |G|^{-1/2} sum_g e^{2 pi i q(g)}."""
    total = sum(phase_to_complex(v) for v in q.values)
    return total / math.sqrt(q.group.order)


def orthogonal_sum(q1: QuadraticForm, q2: QuadraticForm) -> QuadraticForm:
    """(G1 x G2, q1 + q2); the Gauss sum is multiplicative over this."""
    group = direct_sum(q1.group, q2.group)
    values = tuple(v1 + v2 for v1 in q1.values for v2 in q2.values)
    return QuadraticForm(group, values)


def jacobi_symbol(a: int, n: int) -> int:
    """Jacobi symbol (a/n) for odd n >= 1, via quadratic reciprocity."""
    if n < 1 or n % 2 == 0:
        raise ValueError("Jacobi symbol requires odd positive n")
    a %= n
    result = 1
    while a != 0:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def form_to_json(q: QuadraticForm) -> dict:
    data: dict = {"group": group_to_json(q.group)}
    coeffs = _monomial_coefficients(q)
    if coeffs is not None:
        data["monomial"] = [
            {"factor": i, "coeff": c} for i, c in enumerate(coeffs) if c != 0
        ]
    else:
        data["table"] = [f"{v.numerator}/{v.denominator}" for v in q.values]
    return data


def form_from_json(data: dict, group: FiniteAbelianGroup | None = None) -> QuadraticForm:
    if group is None:
        if "group" not in data:
            raise ValueError("form spec needs a group")
        group = group_from_json(data["group"])
    elif "group" in data and group_from_json(data["group"]) != group:
        raise ValueError("form group does not match the ambient group")
    if "table" in data:
        return QuadraticForm(group, tuple(Fraction(v) for v in data["table"]))
    coeffs = [0] * group.rank
    for entry in data.get("monomial", ()):
        coeffs[int(entry["factor"])] += int(entry["coeff"])
    return monomial_form(group, coeffs)


def _monomial_coefficients(q: QuadraticForm) -> tuple[int, ...] | None:
    """Recover per-factor coefficients if q is monomial, else None."""
    group = q.group
    coeffs = []
    for i, n in enumerate(group.cyclic_factors):
        gen = tuple(1 if j == i else 0 for j in range(group.rank))
        c = q.value(gen) * n
        if c.denominator != 1:
            return None
        coeffs.append(int(c) % n)
    if monomial_form(group, coeffs).values == q.values:
        return tuple(coeffs)
    return None
