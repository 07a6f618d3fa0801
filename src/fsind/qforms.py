"""Exact Q/Z arithmetic, quadratic forms, Gauss sums and Jacobi symbols.

A quadratic form here is a function q: G -> Q/Z with q(0) = 0 and
q(-g) = q(g) whose boundary

    dq(g, h) := q(g + h) - q(g) - q(h)

is bi-additive.  The sign convention matters: with this choice the diagonal
of the associated bicharacter satisfies <g, g> = e^{2 pi i * 2 q(g)} for
monomial forms, which is the identity the indicator formulas rely on.

Since 2 q(g) = dq(g, g) has order dividing ord(g), every value is a multiple
of 1/den with den = 2 * exponent(G).  Forms are stored as integer numerators
over den, checked once by the constructor; exact ``Fraction`` phases appear
only in :func:`qz`, ``value``, ``boundary`` and the JSON ``table`` format, and
each of these imports ``fractions`` when it runs, so a command that reads or
prints no exact rational never loads it (nor its ``decimal`` and ``numbers``).

The one float threshold ``DEFAULT_TOL`` and :func:`format_real`, the decimal
format of every command's output, live here too: ``fsind gauss`` loads nothing
above this module.
"""

from __future__ import annotations

import cmath
import math
from collections import Counter, namedtuple
from collections.abc import Iterable, Iterator, Mapping

from .abelian import (
    FiniteAbelianGroup,
    GroupElement,
    direct_sum,
    group_from_json,
    group_to_json,
    is_json_int,
)


DEFAULT_TOL = 1e-9  # absorbs float64 noise in every float comparison and printed value


def format_real(x: float) -> str:
    """``x`` to 12 significant digits, or ``0`` if ``|x| < DEFAULT_TOL``."""
    if abs(x) < DEFAULT_TOL:
        x = 0.0
    return f"{x:.12g}"


def qz(value) -> Fraction:
    """Normalize a rational to its representative in [0, 1)."""
    from fractions import Fraction

    return Fraction(value) % 1


def phase_to_complex(a: Fraction | float) -> complex:
    """e^{2 pi i a} for a phase a, exact or a float such as m/8."""
    return cmath.exp(2j * math.pi * float(a % 1))


class QuadraticForm(namedtuple("QuadraticForm", "group values")):
    """q: G -> Q/Z as integer numerators over :attr:`den`, in element order;
    ``ValueError`` unless q(0) = 0, q(-g) = q(g) and dq is bi-additive."""

    __slots__ = ()

    def __new__(cls, group, values):
        den = 2 * group.exponent
        return super().__new__(cls, group, tuple(v % den for v in values))

    def __init__(self, group, values) -> None:
        den, group, values = self.den, self.group, self.values  # as reduced by __new__
        if len(values) != group.order:
            raise ValueError("value table does not match group order")
        if values[0] != 0:
            raise ValueError("quadratic form must vanish at the identity")
        if any(values[x] != values[y] for x, y in enumerate(group.negation())):
            raise ValueError("q(-g) != q(g)")
        # dq is bi-additive iff dq(e_i, g + e_j) = dq(e_i, g) + dq(e_i, e_j) for
        # all i, j, g: the cocycle identity dq(a + b, c) + dq(a, b) =
        # dq(a, b + c) + dq(b, c) carries additivity from generators to all of G.
        shifts = group.shifts()
        for row in self._generator_boundaries(shifts):
            for shift in shifts:
                step = row[shift[0]]
                if any(row[s] != (row[x] + step) % den for x, s in enumerate(shift)):
                    raise ValueError("the boundary dq is not bi-additive")

    @property
    def den(self) -> int:
        return 2 * self.group.exponent

    def _generator_boundaries(self, shifts) -> list[list[int]]:
        """rows[i][x] = den * dq(e_i, g) mod den for the element g at position x."""
        v, den = self.values, self.den
        return [[(v[s] - v[x] - v[shift[0]]) % den for x, s in enumerate(shift)] for shift in shifts]

    def value(self, g: GroupElement) -> Fraction:
        from fractions import Fraction

        return Fraction(self.values[self.group.index(g)], self.den)

    def boundary(self, g: GroupElement, h: GroupElement) -> Fraction:
        from fractions import Fraction

        grp, v = self.group, self.values
        numerator = v[grp.index(grp.add(g, h))] - v[grp.index(g)] - v[grp.index(h)]
        return Fraction(numerator % self.den, self.den)

    def bicharacter(self, g: GroupElement, h: GroupElement) -> complex:
        return phase_to_complex(self.boundary(g, h))

    def scaled(self, k: int) -> "QuadraticForm":
        return QuadraticForm(self.group, tuple(k * v for v in self.values))

    def negated(self) -> "QuadraticForm":
        return self.scaled(-1)

    def is_nondegenerate(self) -> bool:
        """True when e is the only h with dq(., h) identically zero."""
        rows = self._generator_boundaries(self.group.shifts())
        return sum(not any(row[x] for row in rows) for x in range(self.group.order)) == 1


def monomial_form(group: FiniteAbelianGroup, coeffs) -> QuadraticForm:
    """q(g) = sum_i c_i * g_i^2 / n_i for per-factor integer coefficients."""
    coeffs = tuple(int(c) for c in coeffs)
    if len(coeffs) != group.rank:
        raise ValueError(f"expected {group.rank} coefficients, got {coeffs!r}")
    den = 2 * group.exponent
    values = [0]
    for c, n in zip(coeffs, group.cyclic_factors):
        step = c * (den // n)
        values = [v + step * r * r for v in values for r in range(n)]
    return QuadraticForm(group, tuple(values))


def half_form(q: QuadraticForm) -> QuadraticForm:
    """The unique form f with 2f = q on a group of odd exponent."""
    exponent = q.group.exponent
    if exponent % 2 == 0:
        raise ValueError("halving a form requires odd group exponent")
    return q.scaled(pow(2, -1, exponent))


def root_sums(weights: Mapping[int, complex], n: int, ks: Iterable[int]) -> Iterator[complex]:
    """Yield sum_r weights[r] * e^{2 pi i k r / n} for each k in ``ks``, in order.

    Each term reads one table of the n-th roots of unity, built on the first
    draw, at the exact integer index k*r mod n, and each residue of k mod n is
    summed once, so the values are exactly periodic in k with period n.  A
    caller that stops drawing early pays for the table and the k it drew.
    """
    roots = [cmath.exp(2j * math.pi * (r / n)) for r in range(n)]
    buckets = [(r, w) for r, w in weights.items() if w]
    sums: dict[int, complex] = {}
    for k in ks:
        k %= n
        if k not in sums:
            sums[k] = sum((w * roots[k * r % n] for r, w in buckets), 0j)
        yield sums[k]


def gauss_sums(q: QuadraticForm, scales: Iterable[int]) -> list[complex]:
    """Theta(G, k q) = |G|^{-1/2} sum_g e^{2 pi i k q(g)} for each k in ``scales``,
    from one histogram of q's numerators."""
    norm = math.sqrt(q.group.order)
    return [total / norm for total in root_sums(Counter(q.values), q.den, scales)]


def gauss_sum(q: QuadraticForm) -> complex:
    """Theta(G, q) = |G|^{-1/2} sum_g e^{2 pi i q(g)}."""
    return gauss_sums(q, (1,))[0]


def orthogonal_sum(q1: QuadraticForm, q2: QuadraticForm) -> QuadraticForm:
    """(G1 x G2, q1 + q2); the Gauss sum is multiplicative over this."""
    group = direct_sum(q1.group, q2.group)
    den = 2 * group.exponent
    s1, s2 = den // q1.den, den // q2.den
    values = tuple(v1 * s1 + v2 * s2 for v1 in q1.values for v2 in q2.values)
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
        from fractions import Fraction

        phases = (Fraction(v, q.den) for v in q.values)
        data["table"] = [f"{a.numerator}/{a.denominator}" for a in phases]
    return data


def form_from_json(data: dict, group: FiniteAbelianGroup | None = None) -> QuadraticForm:
    """Read a form; ``ValueError`` for any JSON that is not a valid form."""
    if not isinstance(data, dict):
        raise ValueError("a form must be a JSON object")
    if group is None:
        if "group" not in data:
            raise ValueError("form spec needs a group")
        group = group_from_json(data["group"])
    elif "group" in data and group_from_json(data["group"]) != group:
        raise ValueError("form group does not match the ambient group")
    if "table" in data:
        table = data["table"]
        if not isinstance(table, list) or not all(
            isinstance(entry, (int, float, str)) and not isinstance(entry, bool)
            for entry in table
        ):
            raise ValueError("a form table must be a list of numbers or fraction strings")
        from fractions import Fraction

        den = 2 * group.exponent
        try:
            numerators = [Fraction(entry) * den for entry in table]
        except (ZeroDivisionError, OverflowError) as exc:  # "1/0", Infinity
            raise ValueError(f"bad form table entry: {exc}") from exc
        if any(a.denominator != 1 for a in numerators):
            raise ValueError(f"table values must be multiples of 1/{den}")
        return QuadraticForm(group, tuple(int(a) for a in numerators))
    monomial = data.get("monomial", [])
    if not isinstance(monomial, list) or not all(
        isinstance(entry, dict) and all(is_json_int(entry.get(key)) for key in ("factor", "coeff"))
        for entry in monomial
    ):
        raise ValueError('a monomial form must be a list of {"factor": int, "coeff": int}')
    coeffs = [0] * group.rank
    for entry in monomial:
        factor = entry["factor"]
        if not 0 <= factor < group.rank:
            raise ValueError(f"no cyclic factor {factor} in {list(group.cyclic_factors)}")
        coeffs[factor] += entry["coeff"]
    return monomial_form(group, coeffs)


def describe_form(q: QuadraticForm) -> str:
    """``[c_1/n_1,...]`` for a monomial form, ``<table>`` for any other."""
    coeffs = _monomial_coefficients(q)
    if coeffs is None:
        return "<table>"
    return "[" + ",".join(f"{c}/{n}" for c, n in zip(coeffs, q.group.cyclic_factors)) + "]"


def _monomial_coefficients(q: QuadraticForm) -> tuple[int, ...] | None:
    """Recover per-factor coefficients if q is monomial, else None."""
    group = q.group
    coeffs = tuple(  # from q(e_i) = c_i / n_i
        q.values[shift[0]] * n // q.den % n
        for shift, n in zip(group.shifts(), group.cyclic_factors)
    )
    return coeffs if monomial_form(group, coeffs).values == q.values else None
