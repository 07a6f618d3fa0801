"""Exact Q/Z arithmetic, quadratic forms, Gauss sums and Jacobi symbols.

A quadratic form here is a function q: G -> Q/Z with q(0) = 0 and
q(-g) = q(g) whose boundary

    dq(g, h) := q(g + h) - q(g) - q(h)

is bi-additive.  The sign convention matters: with this choice the diagonal
of the associated bicharacter satisfies <g, g> = e^{2 pi i * 2 q(g)} for
monomial forms, which is the identity the indicator formulas rely on.

Since 2 q(g) = dq(g, g) has order dividing ord(g), every value is a multiple
of 1/den with den = 2 * exponent(G).  Forms are stored as integer numerators
over den, checked once by the constructor, and every command reads them as
numerators: exact ``Fraction`` phases appear only in :func:`qz`, in
:func:`rational_from_json`, the one place where JSON text becomes a
``Fraction`` (a ``zeta1``), and in the printed ``table`` format; each of these
imports ``fractions`` when it runs, so a command that reads or prints no exact
rational never loads it (nor its ``decimal`` and ``numbers``).  A ``table``
entry is read by the same strict reader, as an integer numerator and
denominator, and never becomes a ``Fraction``.  The exact values, boundaries
and bicharacter of a form, and orthogonal sums, are reference code in the test
suite's ``oracles`` module, which no command runs.

Gauss sums and the center formula are both root-of-unity sums over a
histogram: :func:`root_sums` makes the one map k -> sum_r w_r e^{2 pi i k r / n}
that every such value is read from, summing each residue of k once, on first
use; :func:`gauss_values` is its Gauss-sum map.

The one float threshold ``DEFAULT_TOL`` and :func:`format_real`, the decimal
format of every command's output, live here too: ``fsind gauss`` loads nothing
above this module.
"""

from __future__ import annotations

import cmath
import math
import re
from collections import Counter, namedtuple
from collections.abc import Callable, Mapping

from .abelian import FiniteAbelianGroup, group_from_json, group_to_json, is_json_int


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


_RATIO = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")


def _ratio_from_json(data) -> tuple[int, int]:
    """(a, b) for the rational a/b that a JSON integer (b = 1), or a string ``a`` or
    ``a/b`` of decimal digits with b != 0 and an optional ``-`` before a, stands
    for, unreduced; ``ValueError`` for any other JSON, such as floats or decimal
    and exponent notation, and for more digits than the interpreter converts to
    an integer."""
    if is_json_int(data):
        return data, 1
    match = _RATIO.fullmatch(data) if isinstance(data, str) else None
    try:
        numerator, denominator = map(int, match.groups("1")) if match else (0, 0)
    except ValueError:  # over sys.get_int_max_str_digits()
        raise ValueError(f"fraction string {data[:20]!r}... of {len(data)} characters "
                         "has too many digits") from None
    if denominator == 0:
        raise ValueError(f"expected an integer or a fraction string, got {data!r}")
    return numerator, denominator


def rational_from_json(data) -> Fraction:
    """The rational :func:`_ratio_from_json` reads, as a ``Fraction``."""
    from fractions import Fraction

    return Fraction(*_ratio_from_json(data))


def phase_to_complex(a: Fraction | float) -> complex:
    """e^{2 pi i a} for a phase a, exact or a float such as m/8."""
    return cmath.exp(2j * math.pi * float(a % 1))


class QuadraticForm(namedtuple("QuadraticForm", "group values")):
    """q: G -> Q/Z as integer numerators over :attr:`den`, in element order;
    ``ValueError`` unless q(g) = sum_i q(e_i) g_i^2 + sum_{i<j} dq(e_i, e_j) g_i g_j
    on the generators e_i, of orders n_i, and that sum is well defined on G: each
    n_j kills every dq(e_i, e_j) and n_j^2 q(e_j).  This holds exactly when
    q(0) = 0, q(-g) = q(g) and dq is bi-additive."""

    __slots__ = ()

    def __new__(cls, group, values):
        den = 2 * group.exponent
        return super().__new__(cls, group, tuple(v % den for v in values))

    def __init__(self, group, values) -> None:
        den, group, values = self.den, self.group, self.values  # as reduced by __new__
        if len(values) != group.order:
            raise ValueError("value table does not match group order")
        (diagonal, gram), factors = self._generator_data(), group.cyclic_factors
        if any(n * b % den for row in gram for b, n in zip(row, factors)) or any(
            n * n * a % den for a, n in zip(diagonal, factors)
        ) or _expand(factors, diagonal, gram, den) != list(values):
            raise ValueError("not a quadratic form: q(0) = 0, q(-g) = q(g) and a "
                             "bi-additive boundary dq do not all hold")

    @property
    def den(self) -> int:
        return 2 * self.group.exponent

    def _generator_data(self) -> tuple[list[int], list[list[int]]]:
        """([q(e_i) for each i], [[dq(e_i, e_j) for each j] for each i]) as numerators."""
        group, factors, v = self.group, self.group.cyclic_factors, self.values
        basis = [tuple(int(k == i) % n for k, n in enumerate(factors)) for i in range(len(factors))]
        diagonal = [v[group.index(e)] for e in basis]
        return diagonal, [[(v[group.index(group.add(e, f))] - a - b) % self.den
                           for f, b in zip(basis, diagonal)] for e, a in zip(basis, diagonal)]

    def scaled(self, k: int) -> "QuadraticForm":
        k %= self.den  # the values do not change, and no product outgrows den^2
        return QuadraticForm(self.group, tuple(k * v for v in self.values))

    def is_nondegenerate(self) -> bool:
        """True when h = e alone has each row dq(e_i, h) = sum_j dq(e_i, e_j) h_j zero."""
        factors, zero = self.group.cyclic_factors, [True] * self.group.order
        for row in self._generator_data()[1]:
            zero = [z and not r for z, r in zip(zero, _linear(factors, row, self.den))]
        return sum(zero) == 1


def _linear(factors, coeffs, den: int) -> list[int]:
    """sum_i coeffs[i] g_i mod den at each g of the first len(coeffs) factors, in order."""
    values = [0]
    for c, n in zip(coeffs, factors):
        values = [(v + c * r) % den for v in values for r in range(n)]
    return values


def _expand(factors, diagonal, gram, den: int) -> list[int]:
    """sum_j g_j (diagonal[j] g_j + sum_{i<j} gram[j][i] g_i) mod den at each g, in order."""
    values = [0]
    for j, (a, n) in enumerate(zip(diagonal, factors)):
        cross = _linear(factors, gram[j][:j], den)
        values = [(v + r * (a * r + c)) % den for v, c in zip(values, cross) for r in range(n)]
    return values


def monomial_form(group: FiniteAbelianGroup, coeffs) -> QuadraticForm:
    """q(g) = sum_i c_i * g_i^2 / n_i for per-factor integer coefficients."""
    coeffs = tuple(int(c) for c in coeffs)
    if len(coeffs) != group.rank:
        raise ValueError(f"expected {group.rank} coefficients, got {coeffs!r}")
    den, factors = 2 * group.exponent, group.cyclic_factors
    diagonal = [c % n * (den // n) for c, n in zip(coeffs, factors)]  # c mod n: the same form
    return QuadraticForm(group, _expand(factors, diagonal, [[0] * group.rank] * group.rank, den))


def root_sums(weights: Mapping[int, float], n: int) -> Callable[[int], complex]:
    """The map k -> sum_r weights[r] * e^{2 pi i k r / n}, for real weights.

    Each residue j = min(k mod n, n - k mod n) is summed once, on first use, and
    k reads it as its conjugate when j != k mod n, since the weights are real.
    Each sum reads one table of the n-th roots of unity, built on the first
    residue, at the exact integer index j*r mod n, in ascending r.  So the values
    are exactly periodic in k with period n, a full period costs about half its
    residues, and a value depends only on the weights and k, not on the order in
    which the mapping lists them or in which the k are asked.
    """
    buckets = sorted((r, w) for r, w in weights.items() if w)
    roots: list[complex] = []
    sums: dict[int, complex] = {}

    def value(k: int) -> complex:
        k %= n
        j = min(k, n - k)
        if j not in sums:
            if not roots:
                roots.extend(cmath.exp(2j * math.pi * (r / n)) for r in range(n))
            sums[j] = sum((w * roots[j * r % n] for r, w in buckets), 0j)
        return sums[j] if j == k else sums[j].conjugate()

    return value


def gauss_values(q: QuadraticForm) -> Callable[[int], complex]:
    """The map k -> Theta(G, k q) = |G|^{-1/2} sum_g e^{2 pi i k q(g)}, from one
    histogram of q's numerators."""
    theta = root_sums(Counter(q.values), q.den)
    norm = math.sqrt(q.group.order)
    return lambda k: theta(k) / norm


def gauss_sum(q: QuadraticForm) -> complex:
    """Theta(G, q) = |G|^{-1/2} sum_g e^{2 pi i q(g)}."""
    return gauss_values(q)(1)


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


def form_from_json(data: dict, group: FiniteAbelianGroup) -> QuadraticForm:
    """Read a form on ``group``; ``ValueError`` for any JSON that is not a valid
    form, whose own ``"group"``, if it has one, is another group, or that has a key
    but ``group`` and one of ``table`` and ``monomial``."""
    if not isinstance(data, dict):
        raise ValueError("a form must be a JSON object")
    if unknown := sorted(set(data) - {"group", "table", "monomial"}, key=str):
        raise ValueError(f"form has unknown key(s) {', '.join(map(repr, unknown))}")
    if "table" in data and "monomial" in data:
        raise ValueError("a form is given by a table or a monomial, not both")
    if "group" in data and group_from_json(data["group"]) != group:
        raise ValueError("form group does not match the ambient group")
    if "table" in data:
        if not isinstance(data["table"], list):
            raise ValueError("a form table must be a list")
        den = 2 * group.exponent
        numerators = [_numerator(entry, den) for entry in data["table"]]
        if None in numerators:  # after every entry is read, so a malformed one is named first
            raise ValueError(f"table values must be multiples of 1/{den}")
        return QuadraticForm(group, numerators)
    monomial = data.get("monomial", [])
    if not isinstance(monomial, list) or not all(
        isinstance(entry, dict) and entry.keys() == {"factor", "coeff"}
        and all(is_json_int(value) for value in entry.values())
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


def _numerator(entry, den: int) -> int | None:
    """den * a/b for the entry a/b, or None unless b divides a * den."""
    a, b = _ratio_from_json(entry)
    numerator, rest = divmod(a * den, b)
    return None if rest else numerator


def describe_form(q: QuadraticForm) -> str:
    """``[c_1/n_1,...]`` for a monomial form, ``<table>`` for any other."""
    coeffs = _monomial_coefficients(q)
    if coeffs is None:
        return "<table>"
    return "[" + ",".join(f"{c}/{n}" for c, n in zip(coeffs, q.group.cyclic_factors)) + "]"


def _monomial_coefficients(q: QuadraticForm) -> tuple[int, ...] | None:
    """c_i = n_i q(e_i) if dq(e_i, e_j) = 0 for i != j and each n_i q(e_i) is an integer."""
    diagonal, gram = q._generator_data()
    coeffs = [divmod(a * n, q.den) for a, n in zip(diagonal, q.group.cyclic_factors)]
    if any(any(row[:i]) for i, row in enumerate(gram)) or any(r for _, r in coeffs):
        return None
    return tuple(c for c, _ in coeffs)
