"""Finite abelian groups presented as explicit products of cyclic groups.

Elements are tuples of residues, one entry per cyclic factor, in the order of
``cyclic_factors``.  The group law is written additively.  Everything here is
immutable and pure, so values can be shared freely between threads.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

GroupElement = tuple[int, ...]


def format_element(a: GroupElement) -> str:
    """Render an element as ``(1,2)`` (no spaces, stable across runs)."""
    return "(" + ",".join(str(r) for r in a) + ")"


@dataclass(frozen=True)
class FiniteAbelianGroup:
    """Z/n_1 x ... x Z/n_r with n_i >= 1; the trivial group is () or (1,)."""

    cyclic_factors: tuple[int, ...]

    def __post_init__(self) -> None:
        factors = tuple(int(n) for n in self.cyclic_factors)
        if any(n < 1 for n in factors):
            raise ValueError(f"cyclic factors must be >= 1, got {factors}")
        object.__setattr__(self, "cyclic_factors", factors)

    def __str__(self) -> str:
        if self.order == 1:
            return "Z1"
        return "x".join(f"Z{n}" for n in self.cyclic_factors if n > 1)

    @property
    def rank(self) -> int:
        return len(self.cyclic_factors)

    @property
    def order(self) -> int:
        return math.prod(self.cyclic_factors)

    @property
    def exponent(self) -> int:
        return math.lcm(*self.cyclic_factors) if self.cyclic_factors else 1

    @property
    def identity(self) -> GroupElement:
        return (0,) * self.rank

    def contains(self, a: GroupElement) -> bool:
        return len(a) == self.rank and all(
            0 <= r < n for r, n in zip(a, self.cyclic_factors)
        )

    def check_element(self, a: GroupElement) -> None:
        if not self.contains(a):
            raise ValueError(f"{a!r} is not an element of {self}")

    def element(self, residues) -> GroupElement:
        """Reduce an integer vector mod the factor orders."""
        residues = tuple(residues)
        if len(residues) != self.rank:
            raise ValueError(f"expected {self.rank} residues, got {residues!r}")
        return tuple(r % n for r, n in zip(residues, self.cyclic_factors))

    def add(self, a: GroupElement, b: GroupElement) -> GroupElement:
        self.check_element(a)
        self.check_element(b)
        return tuple((x + y) % n for x, y, n in zip(a, b, self.cyclic_factors))

    def neg(self, a: GroupElement) -> GroupElement:
        self.check_element(a)
        return tuple((-x) % n for x, n in zip(a, self.cyclic_factors))

    def scalar_mul(self, k: int, a: GroupElement) -> GroupElement:
        self.check_element(a)
        return tuple((k * x) % n for x, n in zip(a, self.cyclic_factors))

    def elements(self) -> list[GroupElement]:
        """All elements in lexicographic order, identity first."""
        return [tuple(g) for g in itertools.product(*(range(n) for n in self.cyclic_factors))]

    def index(self, a: GroupElement) -> int:
        """Position of ``a`` in :meth:`elements` (mixed-radix expansion)."""
        self.check_element(a)
        idx = 0
        for r, n in zip(a, self.cyclic_factors):
            idx = idx * n + r
        return idx

    def power_count(self, k: int, h: GroupElement) -> int:
        """Number of g with k*g = h."""
        self.check_element(h)
        if k < 0:
            raise ValueError("k must be non-negative")
        return sum(1 for g in self.elements() if self.scalar_mul(k, g) == h)

    def character_value(self, h: GroupElement, g: GroupElement) -> Fraction:
        """Phase of the standard pairing: chi_h(g) = e^{2 pi i phase}."""
        self.check_element(h)
        self.check_element(g)
        total = sum(
            (Fraction(hi * gi, n) for hi, gi, n in zip(h, g, self.cyclic_factors)),
            start=Fraction(0),
        )
        return total % 1


def cyclic(n: int) -> FiniteAbelianGroup:
    return FiniteAbelianGroup((n,))


def direct_sum(g1: FiniteAbelianGroup, g2: FiniteAbelianGroup) -> FiniteAbelianGroup:
    return FiniteAbelianGroup(g1.cyclic_factors + g2.cyclic_factors)


def factor_prime_power(q: int) -> tuple[int, int]:
    """Return (p, l) with q = p^l, or raise if q is not a prime power."""
    if q < 2:
        raise ValueError(f"{q} is not a prime power")
    p = next((d for d in range(2, math.isqrt(q) + 1) if q % d == 0), q)
    rest, ell = q, 0
    while rest % p == 0:
        rest //= p
        ell += 1
    if rest != 1:
        raise ValueError(f"{q} is not a prime power")
    return p, ell


def group_to_json(group: FiniteAbelianGroup) -> dict:
    return {"cyclic_factors": list(group.cyclic_factors)}


def group_from_json(data: dict) -> FiniteAbelianGroup:
    return FiniteAbelianGroup(tuple(data["cyclic_factors"]))
