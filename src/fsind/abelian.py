"""Finite abelian groups presented as explicit products of cyclic groups.

Elements are tuples of residues, one entry per cyclic factor, in the order of
``cyclic_factors``.  The group law is written additively.  Everything here is
immutable and pure, so values can be shared freely between threads.  The
arithmetic does not validate its arguments: elements are never read from
input, and every element the package builds is a valid residue tuple.
"""

from __future__ import annotations

import itertools
import math
from collections import namedtuple

GroupElement = tuple[int, ...]
MAX_ORDER = 10**6  # bounds the time and memory of enumerating one group read from input


def format_element(a: GroupElement) -> str:
    """Render an element as ``(1,2)`` (no spaces, stable across runs)."""
    return "(" + ",".join(str(r) for r in a) + ")"


# labels of the simple objects g, g*rho and rho, shared by centers and rings
def group_label(g: GroupElement) -> str:
    return "g:" + format_element(g)


def grho_label(g: GroupElement) -> str:
    return "grho:" + format_element(g)


RHO_LABEL = "rho"


class FiniteAbelianGroup(namedtuple("FiniteAbelianGroup", "cyclic_factors")):
    """Z/n_1 x ... x Z/n_r with n_i >= 1; the trivial group is () or (1,)."""

    __slots__ = ()

    def __new__(cls, cyclic_factors):
        factors = tuple(int(n) for n in cyclic_factors)
        if any(n < 1 for n in factors):
            raise ValueError(f"cyclic factors must be >= 1, got {factors}")
        return super().__new__(cls, factors)

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
    def key(self) -> tuple[int, ...]:
        """Sorted prime-power invariants, 1s dropped: equal exactly on isomorphic groups."""
        return tuple(sorted(p**e for n in self.cyclic_factors for p, e in prime_factors(n)))

    @property
    def identity(self) -> GroupElement:
        return (0,) * self.rank

    def add(self, a: GroupElement, b: GroupElement) -> GroupElement:
        return tuple((x + y) % n for x, y, n in zip(a, b, self.cyclic_factors))

    def elements(self) -> list[GroupElement]:
        """All elements in lexicographic order, identity first."""
        return [tuple(g) for g in itertools.product(*(range(n) for n in self.cyclic_factors))]

    def index(self, a: GroupElement) -> int:
        """Position of ``a`` in :meth:`elements` (mixed-radix expansion)."""
        idx = 0
        for r, n in zip(a, self.cyclic_factors):
            idx = idx * n + r
        return idx

    def negation(self) -> list[int]:
        """negation[x] is the position of -g for the element g at position x."""
        positions = [0]
        for n in self.cyclic_factors:
            positions = [p * n + -r % n for p in positions for r in range(n)]
        return positions

    def pairs(self) -> list[int]:
        """One position per unordered pair {g, -g}, g != e: the smaller one, so an
        element of order 2 is its own pair."""
        return [x for x, y in enumerate(self.negation()) if 0 < x <= y]

    def power_count(self, k: int, h: GroupElement) -> int:
        """Number of g with k*g = h: per factor, gcd(k, n) solutions if that
        gcd divides the residue of h, else none; k may be any integer."""
        gcds = [math.gcd(k, n) for n in self.cyclic_factors]
        return math.prod(d if r % d == 0 else 0 for r, d in zip(h, gcds))


def cyclic(n: int) -> FiniteAbelianGroup:
    return FiniteAbelianGroup((n,))


def prime_factors(n: int) -> list[tuple[int, int]]:
    """[(p, e), ...] with n = prod p^e over increasing primes p, by trial division."""
    factors = []
    p = 2
    while n > 1:
        p = p if p * p <= n else n  # no divisor up to sqrt(n) left: n is prime
        e = 0
        while n % p == 0:
            n, e = n // p, e + 1
        if e:
            factors.append((p, e))
        p += 1
    return factors


def factor_prime_power(q: int) -> tuple[int, int]:
    """Return (p, l) with q = p^l, or raise if q is not a prime power."""
    factors = prime_factors(q)
    if len(factors) != 1:
        raise ValueError(f"{q} is not a prime power")
    return factors[0]


def group_to_json(group: FiniteAbelianGroup) -> dict:
    return {"cyclic_factors": list(group.cyclic_factors)}


def is_json_int(value) -> bool:
    """True for a JSON integer (``bool`` is an ``int`` subclass but not one)."""
    return isinstance(value, int) and not isinstance(value, bool)


def group_from_json(data: dict) -> FiniteAbelianGroup:
    """Read a group; ``ValueError`` unless ``data`` is {"cyclic_factors": [int, ...]},
    with no other key, of order at most :data:`MAX_ORDER`, checked before anything
    is enumerated.

    It lists at most ``MAX_ORDER.bit_length()`` factors: a group of order at most
    :data:`MAX_ORDER` has fewer above 1, and a form reads rank^2 generator pairs, 1s included."""
    only_factors = isinstance(data, dict) and data.keys() == {"cyclic_factors"}
    factors = data["cyclic_factors"] if only_factors else None
    if not isinstance(factors, list) or not all(is_json_int(n) for n in factors):
        raise ValueError('a group must be {"cyclic_factors": [int, ...]}')
    if len(factors) > MAX_ORDER.bit_length():
        raise ValueError(
            f"a group may list at most {MAX_ORDER.bit_length()} cyclic factors, got {len(factors)}"
        )
    group = FiniteAbelianGroup(tuple(factors))
    if group.order > MAX_ORDER:
        raise ValueError(f"group order {group.order} exceeds {MAX_ORDER}")
    return group
