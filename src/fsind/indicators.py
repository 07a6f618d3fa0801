"""Frobenius-Schur indicators of the distinguished non-invertible object rho.

Three independent evaluation routes are provided and cross-checked:

* :func:`nu_from_center` sums twists over a center presentation,
* the per-family closed forms (``nu_ng1_closed``, ``nu_ng2_closed``, ...),
* :func:`nu_agl_bruteforce`, the classical character-theoretic indicator of
  the affine group AGL_1(F_q), computed in exact rational arithmetic.

A :class:`CategorySpec` pins down one monoidal-equivalence class; its full
indicator vector over one period is the invariant used for rigidity
comparisons.  Everything that differs between the four families (their
parameters, ring, rho, center and closed form) is one :class:`Family` record
in the table :data:`FAMILIES`.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Callable
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import lru_cache

from .abelian import (
    FiniteAbelianGroup,
    cyclic,
    factor_prime_power,
    group_from_json,
    group_to_json,
)
from .center import (
    CenterPresentation,
    center_hi,
    center_ng1,
    center_ng1_exceptional7,
    center_ng2,
    indicator_period,
)
from .fusion import (
    RHO_LABEL,
    FusionRing,
    grho_label,
    make_hi_ring,
    make_near_group_ring,
)
from .qforms import (
    QuadraticForm,
    form_from_json,
    form_to_json,
    gauss_sum,
    jacobi_symbol,
    phase_to_complex,
    qz,
)

DEFAULT_TOL = 1e-9


# ---------------------------------------------------------------------------
# Category specifications


@dataclass(frozen=True)
class CategorySpec:
    """One monoidal-equivalence class of a singly-generated fusion category.

    Families: NG1 (near group, m = |G| - 1), NG1X (the exceptional |G| = 7
    class with s = -1), NG2 (near group, m = |G|), HI (Haagerup-Izumi); the
    fields each family uses are listed in :data:`FAMILIES`.
    ``labels`` carries opaque equivalence-class tags (signs, roots of unity,
    matrix names); they never enter any numeric formula.
    """

    family: str
    group: FiniteAbelianGroup
    p: int | None = None
    zeta1: Fraction | None = None
    q: QuadraticForm | None = None
    gp: FiniteAbelianGroup | None = None
    qp: QuadraticForm | None = None
    h: FiniteAbelianGroup | None = None
    qpp: QuadraticForm | None = None
    labels: tuple[tuple[str, str], ...] = ()
    provenance: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")
        family = FAMILIES[self.family]
        if any(getattr(self, par.name) is None for par in family.params):
            raise ValueError(family.needs)
        if family.group is not None and self.group != family.group:
            raise ValueError(f"{family.name} lives over {family.group}")
        n = self.group.order
        if family.odd and n % 2 == 0:
            raise ValueError(f"{family.name} requires |G| odd")
        for par in family.params:
            value = getattr(self, par.name)
            if par.kind is PHASE:
                object.__setattr__(self, par.name, qz(value))
            if par.order is not None and value.order != par.order(n):
                raise ValueError(f"|{par.shown}| must be {par.order(n)}, got {value.order}")

    def base_ring(self) -> FusionRing:
        return FAMILIES[self.family].ring(self.group)

    def rho_label(self) -> str:
        return FAMILIES[self.family].rho_label(self.group)

    def center(self) -> CenterPresentation:
        return _build_center(self)

    def period(self) -> int:
        return indicator_period(self.center())

    def describe(self) -> str:
        parts = [str(self.group)] + [
            f"{par.shown}={par.kind.show(getattr(self, par.name))}"
            for par in FAMILIES[self.family].params
        ]
        tags = ",".join(f"{k}={v}" for k, v in self.labels)
        suffix = f";{tags}" if tags else ""
        return f"{self.family}({','.join(parts)}{suffix})"


def _describe_form(q: QuadraticForm) -> str:
    data = form_to_json(q)
    if "monomial" in data:
        coeffs = {e["factor"]: e["coeff"] for e in data["monomial"]}
        parts = [
            f"{coeffs.get(i, 0)}/{n}" for i, n in enumerate(q.group.cyclic_factors)
        ]
        return "[" + ",".join(parts) + "]"
    return "<table>"


# ---------------------------------------------------------------------------
# Evaluation routes


def nu_from_center(presentation: CenterPresentation, target: str, k: int) -> complex:
    """The center-summation formula; twist powers are exact phases."""
    if target not in presentation.base_ring.labels:
        raise ValueError(f"unknown base simple {target!r}")
    total = 0j
    for obj in presentation.objects:
        mult = obj.mult.get(target, 0)
        if mult:
            total += phase_to_complex((k * obj.twist) % 1) * obj.qdim * mult
    return total / presentation.global_qdim


def theta_count(group: FiniteAbelianGroup, k: int) -> int:
    """theta_k^G(e), the number of solutions of k*g = e."""
    return group.power_count(k, group.identity)


def nu_ng1_closed(group: FiniteAbelianGroup, p: int, zeta1: Fraction, k: int) -> complex:
    """(theta_k(e) - 1) + conj(zeta1)^k [p | k] for the m = |G| - 1 family."""
    value = complex(theta_count(group, k) - 1)
    if k % p == 0:
        value += phase_to_complex((-k * qz(zeta1)) % 1)
    return value


def nu_ng1x_closed(k: int) -> complex:
    """The |G| = 7, s = -1 closed form."""
    value = theta_count(cyclic(7), k) - 1
    if k % 2 == 0:
        value += (-1) ** (k // 2)
    return complex(value)


def nu_ng2_closed(
    group: FiniteAbelianGroup,
    q: QuadraticForm,
    gp: FiniteAbelianGroup,
    qp: QuadraticForm,
    k: int,
) -> complex:
    """theta_k(e)/2 + Theta(G, 2kq) Theta(G', 2kq')/2 for the m = |G| family."""
    if gp.order != group.order + 4:
        raise ValueError("|G'| must equal |G| + 4")
    theta = theta_count(group, k)
    product = gauss_sum(q.scaled(2 * k)) * gauss_sum(qp.scaled(2 * k))
    return theta / 2 + product / 2


def nu_ng2_jacobi(group: FiniteAbelianGroup, gp: FiniteAbelianGroup, k: int) -> float:
    """(1 - (k / |G||G'|)) / 2, valid for gcd(k, |G||G'|) = 1."""
    modulus = group.order * gp.order
    if math.gcd(k, modulus) != 1:
        raise ValueError(f"k = {k} is not coprime to {modulus}")
    return (1 - jacobi_symbol(k, modulus)) / 2


def nu_hi_closed(
    group: FiniteAbelianGroup,
    h_group: FiniteAbelianGroup,
    qpp: QuadraticForm,
    k: int,
) -> complex:
    """theta_k(e)/2 + Theta(H, k m q'')/2 with |H| = 2m + 1."""
    if h_group.order != group.order**2 + 4:
        raise ValueError("|H| must equal |G|^2 + 4")
    m = (h_group.order - 1) // 2
    theta = theta_count(group, k)
    return theta / 2 + gauss_sum(qpp.scaled(k * m)) / 2


# ---------------------------------------------------------------------------
# The family table


@dataclass(frozen=True)
class ParamKind:
    """How one kind of family parameter is written, read, shown and conjugated."""

    to_json: Callable
    from_json: Callable  # (JSON value, the group it lives on) -> value
    show: Callable
    conjugate: Callable


INT = ParamKind(int, lambda data, _: int(data), str, lambda value: value)
PHASE = ParamKind(
    lambda value: f"{value.numerator}/{value.denominator}",
    lambda data, _: Fraction(data),
    str,
    lambda value: -value % 1,
)
GROUP = ParamKind(group_to_json, lambda data, _: group_from_json(data), str, lambda value: value)
FORM = ParamKind(form_to_json, form_from_json, _describe_form, QuadraticForm.negated)


@dataclass(frozen=True)
class Param:
    """One family parameter: a CategorySpec field, also its JSON key."""

    name: str
    kind: ParamKind
    label: str | None = None  # its name in describe(), if not ``name``
    on: str = "group"  # for a form: the field holding the group it lives on
    order: Callable[[int], int] | None = None  # for a group: its order given |G|

    @property
    def shown(self) -> str:
        return self.label or self.name


@dataclass(frozen=True)
class Family:
    name: str
    params: tuple[Param, ...]
    ring: Callable[[FiniteAbelianGroup], FusionRing]
    rho_label: Callable[[FiniteAbelianGroup], str]
    center: Callable[[CategorySpec], CenterPresentation]
    closed: Callable[[CategorySpec, int], complex]  # the closed form of nu_k(rho)
    odd: bool = False  # |G| must be odd
    group: FiniteAbelianGroup | None = None  # the only group allowed, if any

    @property
    def needs(self) -> str:
        return f"{self.name} needs " + ", ".join(par.name for par in self.params)


FAMILIES: dict[str, Family] = {
    family.name: family
    for family in (
        Family(
            "NG1",
            (Param("p", INT), Param("zeta1", PHASE)),
            ring=lambda group: make_near_group_ring(group, group.order - 1),
            rho_label=lambda group: RHO_LABEL,
            center=lambda s: center_ng1(s.group, s.p, s.zeta1, s.provenance),
            closed=lambda s, k: nu_ng1_closed(s.group, s.p, s.zeta1, k),
        ),
        Family(
            "NG1X",
            (),
            ring=lambda group: make_near_group_ring(group, group.order - 1),
            rho_label=lambda group: RHO_LABEL,
            center=lambda s: center_ng1_exceptional7(s.provenance),
            closed=lambda s, k: nu_ng1x_closed(k),
            group=cyclic(7),
        ),
        Family(
            "NG2",
            (
                Param("q", FORM),
                Param("gp", GROUP, "Gp", order=lambda n: n + 4),
                Param("qp", FORM, on="gp"),
            ),
            ring=lambda group: make_near_group_ring(group, group.order),
            rho_label=lambda group: RHO_LABEL,
            center=lambda s: center_ng2(s.group, s.q, s.gp, s.qp, s.provenance),
            closed=lambda s, k: nu_ng2_closed(s.group, s.q, s.gp, s.qp, k),
            odd=True,
        ),
        Family(
            "HI",
            (
                Param("h", GROUP, "H", order=lambda n: n * n + 4),
                Param("qpp", FORM, on="h"),
            ),
            ring=make_hi_ring,
            rho_label=lambda group: grho_label(group.identity),
            center=lambda s: center_hi(s.group, s.h, s.qpp, s.provenance),
            closed=lambda s, k: nu_hi_closed(s.group, s.h, s.qpp, k),
            odd=True,
        ),
    )
}


@lru_cache(maxsize=None)
def _build_center(spec: CategorySpec) -> CenterPresentation:
    return FAMILIES[spec.family].center(spec)


def closed_form_nu(spec: CategorySpec, k: int) -> complex:
    return FAMILIES[spec.family].closed(spec, k)


def conjugate_spec(spec: CategorySpec) -> CategorySpec:
    """The complex-conjugate class: all forms and zeta1 negated."""
    flipped = {
        par.name: par.kind.conjugate(getattr(spec, par.name))
        for par in FAMILIES[spec.family].params
    }
    return replace(spec, provenance=(), **flipped)


# ---------------------------------------------------------------------------
# Indicator vectors and rigidity


@dataclass(frozen=True)
class IndicatorVector:
    spec: CategorySpec
    period: int
    values: tuple[complex, ...]  # values[k - 1] = nu_k(rho), k = 1..period

    def value(self, k: int) -> complex:
        return self.values[(k - 1) % self.period]


def indicator_vector(spec: CategorySpec, path: str = "center") -> IndicatorVector:
    presentation = spec.center()
    period = indicator_period(presentation)
    target = spec.rho_label()
    if path == "center":
        values = tuple(
            nu_from_center(presentation, target, k) for k in range(1, period + 1)
        )
    elif path == "closed":
        values = tuple(closed_form_nu(spec, k) for k in range(1, period + 1))
    else:
        raise ValueError(f"unknown path {path!r}")
    return IndicatorVector(spec, period, values)


@dataclass(frozen=True)
class RigidityReport:
    period: int
    classes: tuple[tuple[int, ...], ...]  # partition of spec indices
    separators: tuple[tuple[int, int, int], ...]  # (i, j, smallest separating k)
    descriptions: tuple[str, ...]

    @property
    def distinguished(self) -> bool:
        return all(len(c) == 1 for c in self.classes)


def rigidity_report(
    specs, ring: FusionRing, tol: float = DEFAULT_TOL
) -> RigidityReport:
    """Partition specs by pointwise equality of full-period indicator vectors.

    All specs must share the given Grothendieck ring; the comparison period is
    the lcm of the individual periods.

    The known inseparable pairs (the two |G| = 13 near-group pairs and the
    Haagerup-Izumi pairs) also share their centers' modular data; it is an
    open question whether Morita-equivalent categories with the same
    Grothendieck ring can ever be separated by indicators.
    """
    specs = list(specs)
    for spec in specs:
        if spec.base_ring() != ring:
            raise ValueError(f"{spec.describe()} does not have the given ring")
    period = math.lcm(*(spec.period() for spec in specs)) if specs else 1
    vectors = []
    for spec in specs:
        presentation = spec.center()
        target = spec.rho_label()
        vectors.append(
            [nu_from_center(presentation, target, k) for k in range(1, period + 1)]
        )

    def first_separator(i: int, j: int) -> int | None:
        for k in range(1, period + 1):
            if abs(vectors[i][k - 1] - vectors[j][k - 1]) > tol:
                return k
        return None

    classes: list[list[int]] = []
    for i in range(len(specs)):
        for cls in classes:
            if first_separator(i, cls[0]) is None:
                cls.append(i)
                break
        else:
            classes.append([i])
    separators = []
    for a, b in itertools.combinations(range(len(specs)), 2):
        k = first_separator(a, b)
        if k is not None:
            separators.append((a, b, k))
    return RigidityReport(
        period,
        tuple(tuple(c) for c in classes),
        tuple(separators),
        tuple(spec.describe() for spec in specs),
    )


def ng1_equivalence_classes(order: int) -> list[CategorySpec]:
    """The known monoidal-equivalence classes of NG(G, |G| - 1) for small G.

    Only |G| in {1, 2, 3, 7} admits classes beyond the affine-group one.  The
    s = -1 classes (|G| = 1, 3, 7) have zeta1^2 = s, realized as phase 1/4;
    for |G| = 7 that class carries the exceptional center.  The two extra
    |G| = 2 classes are tagged by a primitive third root of unity mu with
    nu_3(rho) = mu, forcing conj(zeta1)^3 = mu (phase -1/9 for mu = zeta_3).
    """
    if order not in (1, 2, 3, 7):
        raise ValueError("extra equivalence classes exist only for |G| in {1,2,3,7}")
    group = cyclic(order)
    p = {1: 2, 2: 3, 3: 2, 7: 2}[order]
    base = CategorySpec(
        "NG1", group, p=p, zeta1=Fraction(0), labels=(("class", "AGL"),)
    )
    if order == 2:
        return [
            base,
            CategorySpec("NG1", group, p=3, zeta1=Fraction(8, 9), labels=(("mu", "zeta3"),)),
            CategorySpec("NG1", group, p=3, zeta1=Fraction(1, 9), labels=(("mu", "zeta3bar"),)),
        ]
    base = replace(base, labels=(("s", "+1"),))
    if order == 7:
        minus = CategorySpec("NG1X", group, labels=(("s", "-1"),))
    else:
        minus = CategorySpec("NG1", group, p=p, zeta1=Fraction(1, 4), labels=(("s", "-1"),))
    return [base, minus]


# ---------------------------------------------------------------------------
# Classical brute force over AGL_1(F_q)


@dataclass(frozen=True)
class AGLGroup:
    """AGL_1(F_q) = F_q x| F_q^*, elements (a, b) with (a,b)(c,d) = (a+bc, bd)."""

    q: int
    p: int
    ell: int
    modulus: tuple[int, ...]  # lower coefficients of the monic defining polynomial
    field_elements: tuple[tuple[int, ...], ...]
    elements: tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]

    @property
    def order(self) -> int:
        return self.q * (self.q - 1)

    @property
    def zero(self) -> tuple[int, ...]:
        return (0,) * self.ell

    @property
    def one(self) -> tuple[int, ...]:
        return (1,) + (0,) * (self.ell - 1)

    def field_add(self, a, b):
        return tuple((x + y) % self.p for x, y in zip(a, b))

    def field_mul(self, a, b):
        prod = [0] * (2 * self.ell - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    prod[i + j] = (prod[i + j] + x * y) % self.p
        # reduce modulo the defining polynomial
        for i in range(len(prod) - 1, self.ell - 1, -1):
            c = prod[i]
            if c:
                prod[i] = 0
                for j in range(self.ell):
                    prod[i - self.ell + j] = (prod[i - self.ell + j] - c * self.modulus[j]) % self.p
        return tuple(prod[: self.ell])

    def mul(self, x, y):
        (a, b), (c, d) = x, y
        return (self.field_add(a, self.field_mul(b, c)), self.field_mul(b, d))

    def identity_element(self):
        return (self.zero, self.one)

    def power(self, x, k: int):
        result = self.identity_element()
        base = x
        while k > 0:
            if k & 1:
                result = self.mul(result, base)
            base = self.mul(base, base)
            k >>= 1
        return result


def _poly_mod(num: list[int], den: list[int], p: int) -> list[int]:
    num = list(num)
    dn = len(den) - 1
    inv_lead = pow(den[-1], -1, p)
    for i in range(len(num) - 1, dn - 1, -1):
        c = num[i] * inv_lead % p
        if c:
            for j in range(dn + 1):
                num[i - dn + j] = (num[i - dn + j] - c * den[j]) % p
    while len(num) > 1 and num[-1] == 0:
        num.pop()
    return num


def _is_irreducible(poly: list[int], p: int) -> bool:
    degree = len(poly) - 1
    for d in range(1, degree // 2 + 1):
        for lower in itertools.product(range(p), repeat=d):
            divisor = list(lower) + [1]
            remainder = _poly_mod(poly, divisor, p)
            if remainder == [0]:
                return False
    return True


@lru_cache(maxsize=None)
def build_agl(q: int) -> AGLGroup:
    """Explicit AGL_1(F_q) for a prime power q <= 64."""
    if q > 64:
        raise ValueError("q is capped at 64")
    p, ell = factor_prime_power(q)
    modulus: tuple[int, ...]
    if ell == 1:
        modulus = (0, 1)
    else:
        for lower in itertools.product(range(p), repeat=ell):
            candidate = list(lower) + [1]
            if _is_irreducible(candidate, p):
                modulus = tuple(candidate[:-1] + [1])
                break
        else:  # pragma: no cover - every F_p admits irreducibles of any degree
            raise AssertionError("no irreducible polynomial found")
    field_elements = tuple(itertools.product(range(p), repeat=ell))
    zero = (0,) * ell
    elements = tuple(
        (a, b) for a in field_elements for b in field_elements if b != zero
    )
    return AGLGroup(q, p, ell, tuple(modulus[:ell]), field_elements, elements)


def agl_rho_character(agl: AGLGroup, x) -> int:
    """The degree q-1 irreducible character, integer valued."""
    a, b = x
    if b != agl.one:
        return 0
    return agl.q - 1 if a == agl.zero else -1


def nu_agl_bruteforce(q: int, k: int) -> Fraction:
    """Classical indicator sum (1/|Gamma|) sum_gamma rho(gamma^k), exactly."""
    agl = build_agl(q)
    total = sum(agl_rho_character(agl, agl.power(x, k)) for x in agl.elements)
    return Fraction(total, agl.order)


def nu_agl_closed_exact(q: int, k: int) -> int:
    """gcd(k, q-1) - 1 + [p | k], the closed form in exact arithmetic."""
    p, _ = factor_prime_power(q)
    return math.gcd(k, q - 1) - 1 + (1 if k % p == 0 else 0)


# ---------------------------------------------------------------------------
# JSON serialization of specs


def spec_to_json(spec: CategorySpec) -> dict:
    data: dict = {"family": spec.family, "group": group_to_json(spec.group)}
    for par in FAMILIES[spec.family].params:
        data[par.name] = par.kind.to_json(getattr(spec, par.name))
    if spec.labels:
        data["labels"] = dict(spec.labels)
    return data


def spec_from_json(data: dict) -> CategorySpec:
    """Parse a spec; only a family with one allowed group may omit ``group``."""
    name = data["family"]
    if name not in FAMILIES:
        raise ValueError(f"unknown family {name!r}")
    family = FAMILIES[name]
    if "group" in data:
        group = group_from_json(data["group"])
    elif family.group is not None:
        group = family.group
    else:
        raise ValueError(f"{name} needs group")
    if any(par.name not in data for par in family.params):
        raise ValueError(family.needs)
    values = {"group": group}
    for par in family.params:
        values[par.name] = par.kind.from_json(data[par.name], values.get(par.on))
    labels = tuple(sorted((str(k), str(v)) for k, v in data.get("labels", {}).items()))
    return CategorySpec(name, labels=labels, **values)
