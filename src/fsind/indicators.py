"""Frobenius-Schur indicators of the distinguished non-invertible object rho.

Three independent evaluation routes are provided and cross-checked, each a
map k -> nu_k(rho) made once per spec or q:

* :func:`center_values` sums rho's twist histogram, counted by the center
  builders (:func:`nu_from_center` is its one-k, term-by-term reference),
* :func:`closed_values`, the per-family closed forms (:func:`closed_form_nu`
  is its one-k case),
* :func:`nu_agl_bruteforce`, the classical character-theoretic indicator of
  the affine group AGL_1(F_q), computed in exact rational arithmetic.

The first two read every root-of-unity sum from maps k -> value made by
:func:`fsind.qforms.root_sums`, which sums each residue of k once, on first
use: the center route's on its twist histogram, the closed route's
(:func:`fsind.qforms.gauss_values`) on the histograms of its forms' values.
They share nothing else, and ``tests/test_routes.py`` pins that by the names
each route's code reads.  :data:`ROUTES` names the first two.

A :class:`CategorySpec` pins down one monoidal-equivalence class; its full
indicator vector over one period is the invariant rigidity compares, decided
exactly by the twist histogram it is the Fourier transform of.  Everything
that differs between the four families (their parameters, ring, rho, center
and closed form) is one :class:`Family` record in the table :data:`FAMILIES`.
"""

from __future__ import annotations

import cmath
import itertools
import math
from collections import Counter, namedtuple
from collections.abc import Callable

from .abelian import (
    MAX_ORDER,
    RHO_LABEL,
    FiniteAbelianGroup,
    cyclic,
    factor_prime_power,
    grho_label,
    group_from_json,
    group_to_json,
    is_json_int,
)
from .center import (
    CenterPresentation,
    center_hi,
    center_ng1,
    center_ng1_exceptional7,
    center_ng2,
)
from .qforms import (
    DEFAULT_TOL,
    QuadraticForm,
    describe_form,
    form_from_json,
    form_to_json,
    gauss_values,
    phase_to_complex,
    qz,
    rational_from_json,
    root_sums,
)


# ---------------------------------------------------------------------------
# Category specifications


class CategorySpec(namedtuple(
    "CategorySpec",
    "family group p zeta1 q gp qp h qpp labels",
    defaults=(None,) * 7 + ((),),
)):
    """One monoidal-equivalence class of a singly-generated fusion category.

    Families: NG1 (near group, m = |G| - 1), NG1X (the exceptional |G| = 7
    class with s = -1), NG2 (near group, m = |G|), HI (Haagerup-Izumi); the
    fields each family uses are listed in :data:`FAMILIES`.
    ``labels`` carries opaque equivalence-class tags (signs, roots of unity,
    matrix names); they never enter any numeric formula.  The fields are
    exactly the keys of a spec's JSON, so :func:`spec_from_json` inverts
    :func:`spec_to_json`.  The Grothendieck ring is fixed by the family and G,
    so it is only named, by ``Family.ring``.

    Every spec is checked here: a known family with all its parameters, the
    shape rules of :meth:`Family.check_shape` (which :func:`spec_from_json`
    also runs before it reads any form), and each form on its group and
    non-degenerate.  Fields past ``group`` default to None, ``labels`` to ().
    Copy a spec as ``CategorySpec(**{**spec._asdict(), **changes})``, which
    makes these checks again; ``_replace`` skips them.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")
        family = FAMILIES[self.family]
        if any(getattr(self, par.name) is None for par in family.params):
            raise ValueError(family.needs)
        family.check_shape(**self._asdict())
        phases = {}
        for par in family.params:
            value = getattr(self, par.name)
            if par.kind is PHASE:
                phases[par.name] = qz(value)
            if par.kind is FORM and value.group != getattr(self, par.on):
                raise ValueError(f"{par.name} must live on {par.on}")
            if par.kind is FORM and not value.is_nondegenerate():
                raise ValueError(f"{par.name} must be non-degenerate")
        return super().__new__(cls, **{**self._asdict(), **phases}) if phases else self

    def rho_label(self) -> str:
        return FAMILIES[self.family].rho_label(self.group)

    def center(self) -> CenterPresentation:
        """rho's twist histogram of the center, counted anew on each call: a spec keeps nothing."""
        return FAMILIES[self.family].center(self)

    def period(self) -> int:
        """N, the order of the center's T-matrix, by the family's formula: no center is built."""
        return FAMILIES[self.family].period(**self._asdict())

    def describe(self) -> str:
        parts = [str(self.group)] + [
            f"{par.shown}={par.kind.show(getattr(self, par.name))}"
            for par in FAMILIES[self.family].params
        ]
        tags = ",".join(f"{k}={v}" for k, v in self.labels)
        suffix = f";{tags}" if tags else ""
        return f"{self.family}({','.join(parts)}{suffix})"


# ---------------------------------------------------------------------------
# Evaluation routes


def nu_from_center(presentation: CenterPresentation, target: str, k: int) -> complex:
    """The center-summation formula for one k, term by term over rho's twist
    histogram; k * twist is reduced in integers.

    The scalar reference for :func:`center_values`.  ``target`` is rho's label:
    a presentation holds rho's histogram only, so it is not read.
    """
    period = presentation.period
    total = 0j
    for twist, pair in sorted(presentation.histogram.items()):
        phase = k * twist % period / period
        total += cmath.exp(2j * math.pi * phase) * presentation.at_d(pair)
    return total / presentation.at_d(presentation.dim)


def center_values(presentation: CenterPresentation) -> Callable[[int], complex]:
    """The map k -> nu_k(rho) by the center formula, from rho's twist histogram
    read at d."""
    weights = {twist: presentation.at_d(pair) for twist, pair in presentation.histogram.items()}
    total = root_sums(weights, presentation.period)
    dim = presentation.at_d(presentation.dim)
    return lambda k: total(k) / dim


def ng1_closed_values(
    group: FiniteAbelianGroup, p: int, zeta1: Fraction
) -> Callable[[int], complex]:
    """The map k -> (theta_k(e) - 1) + conj(zeta1)^k [p | k], the m = |G| - 1 family."""
    zeta1, e = qz(zeta1), group.identity

    def nu(k: int) -> complex:
        value = complex(group.power_count(k, e) - 1)
        if k % p == 0:
            phase = (-k * zeta1) % 1
            # exact at phase 1/2, where e^{pi i} carries 1.2e-16 imaginary noise
            value += -1 if 2 * phase == 1 else phase_to_complex(phase)
        return value

    return nu


def ng2_closed_values(
    group: FiniteAbelianGroup, q: QuadraticForm, qp: QuadraticForm
) -> Callable[[int], complex]:
    """The map k -> theta_k(e)/2 + Theta(G, 2kq) Theta(G', 2kq')/2, the m = |G|
    family, from one Gauss-sum map per form."""
    theta, theta_p = gauss_values(q), gauss_values(qp)
    e = group.identity
    return lambda k: group.power_count(k, e) / 2 + theta(2 * k) * theta_p(2 * k) / 2


def hi_closed_values(group: FiniteAbelianGroup, qpp: QuadraticForm) -> Callable[[int], complex]:
    """The map k -> theta_k(e)/2 + Theta(H, k m q'')/2 with |H| = 2m + 1, H the
    group of q'', from one Gauss-sum map."""
    m = (qpp.group.order - 1) // 2
    theta, e = gauss_values(qpp), group.identity
    return lambda k: group.power_count(k, e) / 2 + theta(k * m) / 2


# ---------------------------------------------------------------------------
# The family table


class ParamKind(namedtuple("ParamKind", (
    "to_json",
    "from_json",  # (JSON value, the group it lives on) -> value
    "show",
))):
    """How one kind of family parameter is written, read and shown."""

    __slots__ = ()


def _int_from_json(data, _) -> int:
    if not is_json_int(data):
        raise ValueError(f"expected an integer, got {data!r}")
    return data


INT = ParamKind(int, _int_from_json, str)
PHASE = ParamKind(lambda value: f"{value.numerator}/{value.denominator}",
                  lambda data, _: rational_from_json(data), str)
GROUP = ParamKind(group_to_json, lambda data, _: group_from_json(data), str)
FORM = ParamKind(form_to_json, form_from_json, describe_form)


class Param(namedtuple("Param", (
    "name",
    "kind",  # a ParamKind
    "label",  # its name in describe(), if not ``name``
    "on",  # for a form: the field holding the group it lives on
    "order",  # for a group: its order given |G|
), defaults=(None, "group", None))):
    """One family parameter: a CategorySpec field, also its JSON key."""

    __slots__ = ()

    @property
    def shown(self) -> str:
        return self.label or self.name


class Family(namedtuple("Family", (
    "name",
    "params",  # a tuple of Param
    "ring",  # the Grothendieck ring's name; with G it fixes the ring
    "rho_label",  # G -> the label of rho
    "center",  # CategorySpec -> CenterPresentation
    "closed",  # CategorySpec -> the map k -> nu_k(rho) by the closed form
    "period",  # the spec's fields but its forms, as keywords -> N, the order of T
    "odd",  # |G| must be odd
    "field",  # G must be F^* for a field F of characteristic p
    "group",  # the only group allowed, if any
), defaults=(False, False, None))):
    __slots__ = ()

    @property
    def needs(self) -> str:
        return f"{self.name} needs " + ", ".join(par.name for par in self.params)

    def check_shape(self, group: FiniteAbelianGroup, **values) -> None:
        """``ValueError`` unless G and the parameters in ``values`` that are not forms
        fit the family: its one group if it fixes one, |G| odd where required,
        G = F_{p^l}^* where required (NG1), each companion group (G', H) of its order."""
        if self.group is not None and group.key != self.group.key:
            raise ValueError(f"{self.name} lives over {self.group}")
        n = group.order
        if self.odd and n % 2 == 0:
            raise ValueError(f"{self.name} requires |G| odd")
        if self.field and math.lcm(*group.key) != n:  # cyclic iff its primes are distinct
            raise ValueError("m = |G| - 1 near groups require a cyclic group")
        if self.field and factor_prime_power(n + 1)[0] != values["p"]:  # G = F^*, |F| = |G| + 1
            raise ValueError(f"|G| + 1 = {n + 1} is not a power of p = {values['p']}")
        for par in (par for par in self.params if par.order is not None):
            if (order := values[par.name].order) != par.order(n):
                raise ValueError(f"|{par.shown}| must be {par.order(n)}, got {order}")


# A period is the order of the twists, fixed by the groups: on an odd group the
# values of a non-degenerate form generate (1/exp)Z/Z, and so does the character
# pairing of G; m = (|H| - 1)/2 is -1/2 mod |H|, a unit.
FAMILIES: dict[str, Family] = {
    family.name: family
    for family in (
        Family(
            "NG1",
            (Param("p", INT), Param("zeta1", PHASE)),
            ring="NG(G,|G|-1)",
            rho_label=lambda group: RHO_LABEL,
            center=lambda s: center_ng1(s.group, s.p, s.zeta1),
            closed=lambda s: ng1_closed_values(s.group, s.p, s.zeta1),
            period=lambda group, p, zeta1, **_: math.lcm(group.order, p, zeta1.denominator),
            field=True,
        ),
        Family(
            "NG1X",
            (),
            ring="NG(G,|G|-1)",
            rho_label=lambda group: RHO_LABEL,
            center=lambda s: center_ng1_exceptional7(),
            # NG1's closed form at p = 2, zeta1 = 1/4; NG1X's center keeps E1, E2
            closed=lambda s: ng1_closed_values(s.group, 2, qz("1/4")),
            period=lambda **_: 28,
            group=cyclic(7),
        ),
        Family(
            "NG2",
            (
                Param("q", FORM),
                Param("gp", GROUP, "Gp", order=lambda n: n + 4),
                Param("qp", FORM, on="gp"),
            ),
            ring="NG(G,|G|)",
            rho_label=lambda group: RHO_LABEL,
            center=lambda s: center_ng2(s.group, s.q, s.gp, s.qp),
            closed=lambda s: ng2_closed_values(s.group, s.q, s.qp),
            period=lambda group, gp, **_: math.lcm(group.exponent, gp.exponent),
            odd=True,
        ),
        Family(
            "HI",
            (
                Param("h", GROUP, "H", order=lambda n: n * n + 4),
                Param("qpp", FORM, on="h"),
            ),
            ring="HI(G)",
            rho_label=lambda group: grho_label(group.identity),
            center=lambda s: center_hi(s.group, s.h, s.qpp),
            closed=lambda s: hi_closed_values(s.group, s.qpp),
            period=lambda group, h, **_: math.lcm(group.exponent, h.exponent),
            odd=True,
        ),
    )
}


def closed_values(spec: CategorySpec) -> Callable[[int], complex]:
    """The map k -> nu_k(rho) by the family's closed form."""
    return FAMILIES[spec.family].closed(spec)


def closed_form_nu(spec: CategorySpec, k: int) -> complex:
    return closed_values(spec)(k)


# ---------------------------------------------------------------------------
# Routes and rigidity


ROUTES = {  # route -> (spec -> the map k -> nu_k(rho))
    "center": lambda spec: center_values(spec.center()),
    "closed": closed_values,
}


class RigidityReport(namedtuple("RigidityReport", (
    "period",
    "classes",  # partition of spec indices
    "separators",  # (i, j, smallest separating k)
))):
    __slots__ = ()

    @property
    def distinguished(self) -> bool:
        return all(len(c) == 1 for c in self.classes)


def rigidity_report(specs) -> RigidityReport:
    """Partition specs into classes of equal indicator vectors, decided exactly.

    All specs must share the first one's ring: the family's ring name and G up
    to isomorphism (no ring is built).  Equal vectors are then exactly equal
    twist histograms of rho over equal periods.  Floats enter only the smallest
    separating k, the first k where two classes differ by more than
    ``DEFAULT_TOL``, scanned once per pair of classes up to the lcm of their
    periods; a pair with no such k raises ``ValueError``.  Each spec's center is
    counted, looked up by that exact key and dropped, so what is held at once
    grows with the classes, not the specs: each class keeps its period and one
    map k -> nu_k (:func:`center_values`) for all its pairs, so it sums each
    residue it reads once, and reads k only up to the largest smallest
    separating k of its pairs: at most period // 2 + 1 residues.

    The known inseparable pairs (the two |G| = 13 near-group pairs and the
    Haagerup-Izumi pairs) also share their centers' modular data; it is an
    open question whether Morita-equivalent categories with the same
    Grothendieck ring can ever be separated by indicators.
    """
    specs = list(specs)
    rings = [(FAMILIES[spec.family].ring, spec.group.key) for spec in specs]
    for spec, ring in zip(specs, rings):
        if ring != rings[0]:
            raise ValueError(f"{spec.describe()} does not have the ring of {specs[0].describe()}")
    # exact key -> (period, map k -> nu_k, spec indices) of each class, in
    # first-occurrence order; each spec's counted center is dropped after its lookup
    by_key: dict[tuple, tuple[int, Callable[[int], complex], list[int]]] = {}
    for i, spec in enumerate(specs):
        center = spec.center()
        key = (frozenset(center.histogram.items()), center.period, center.dim)
        if key not in by_key:
            by_key[key] = (center.period, center_values(center), [])
        by_key[key][2].append(i)
    classes = list(by_key.values())
    smallest = {}  # (a, b) and (b, a) for classes a < b -> smallest separating k
    for a, b in itertools.combinations(range(len(classes)), 2):
        (period_a, nu_a, members_a), (period_b, nu_b, members_b) = classes[a], classes[b]
        ks = range(1, math.lcm(period_a, period_b) + 1)
        k = next((k for k in ks if abs(nu_a(k) - nu_b(k)) > DEFAULT_TOL), None)
        if k is None:
            first_a, first_b = specs[members_a[0]], specs[members_b[0]]
            raise ValueError(f"{first_a.describe()} and {first_b.describe()} differ, "
                             f"but by at most {DEFAULT_TOL} at every k")
        smallest[a, b] = smallest[b, a] = k
    owner = {i: a for a, (_, _, members) in enumerate(classes) for i in members}
    pairs = itertools.combinations(range(len(specs)), 2)
    return RigidityReport(
        math.lcm(*(spec.period() for spec in specs)),
        tuple(tuple(members) for _, _, members in classes),
        tuple((i, j, smallest[owner[i], owner[j]]) for i, j in pairs if owner[i] != owner[j]),
    )


# ---------------------------------------------------------------------------
# Classical brute force over AGL_1(F_q)


class AGLGroup(namedtuple("AGLGroup", "q add times elements")):
    """AGL_1(F_q) = F_q x| F_q^*, elements (a, b) with (a,b)(c,d) = (a+bc, bd)
    and identity (0, 1).

    A field element is the integer 0..q-1 whose base-p digits are its
    coefficients as a polynomial in x modulo the modulus :func:`build_agl`
    chooses, constant term lowest, so 0 is zero and 1 is one; ``add`` and
    ``times`` are the q x q addition and multiplication tables.
    """

    __slots__ = ()

    @property
    def order(self) -> int:
        return self.q * (self.q - 1)

    def mul(self, x, y):
        (a, b), (c, d) = x, y
        return (self.add[a][self.times[b][c]], self.times[b][d])


def build_agl(q: int) -> AGLGroup:
    """Explicit AGL_1(F_q) for a prime power q = p^ell <= 64.

    F_q is F_p[x] modulo the first monic x^ell + f, f in digit order, in
    which x has order q - 1; such a primitive modulus exists in every degree.
    Its powers x^0 .. x^(q-2) are then all of F_q^*, so a product of units
    is the power of x at the sum of their exponents.
    """
    if q > 64:
        raise ValueError("q is capped at 64")
    p, ell = factor_prime_power(q)
    places = [p**i for i in range(ell)]
    add = tuple(
        tuple(sum((u // b + v // b) % p * b for b in places) for v in range(q)) for u in range(q)
    )
    top = q // p  # the place of x^(ell - 1)
    for f in range(q):
        fold = [sum(-c * (f // b) % p * b for b in places) for c in range(p)]  # c x^ell = -c f
        powers = [1]  # x^0 .. x^(q-1): shift each digit up one place, fold x^ell back
        for _ in range(q - 1):
            n = powers[-1]
            powers.append(add[n % top * p][fold[n // top]])
        if powers[-1] == 1 and 1 not in powers[1:-1]:  # x has order q - 1
            break
    log = {n: i for i, n in enumerate(powers[:-1])}
    units = range(1, q)
    times = ((0,) * q,) + tuple(
        (0, *(powers[(log[u] + log[v]) % (q - 1)] for v in units)) for u in units
    )
    elements = tuple((a, b) for a in range(q) for b in units)
    return AGLGroup(q, add, times, elements)


def agl_rho_character(agl: AGLGroup, x) -> int:
    """The degree q-1 irreducible character, integer valued."""
    a, b = x
    if b != 1:
        return 0
    return agl.q - 1 if a == 0 else -1


def nu_agl_bruteforce(q: int) -> Callable[[int], Fraction]:
    """The map k -> (1/|Gamma|) sum_gamma rho(gamma^k), exact.

    Each element's powers e, x, x^2, ... are walked once, by group
    multiplication until they return to e, and the map reads every cycle at k
    mod its length; rho is real, so nu_{-k} = nu_k.
    """
    from fractions import Fraction

    agl = build_agl(q)
    e = (0, 1)
    cycles: Counter[tuple[int, ...]] = Counter()  # rho along one cycle -> its elements
    for x in agl.elements:
        values, power = [agl_rho_character(agl, e)], x
        while power != e:
            values.append(agl_rho_character(agl, power))
            power = agl.mul(power, x)
        cycles[tuple(values)] += 1
    return lambda k: Fraction(
        sum(n * values[k % len(values)] for values, n in cycles.items()), agl.order
    )


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
    """Parse a spec; only a family with one allowed group may omit ``group``, and
    no key but ``family``, ``group``, ``labels`` and the family's parameters is taken.

    Every size a spec enumerates is bounded by :data:`MAX_ORDER` before any form is
    read: each group, |G|^2 (a center's rank, counted, not listed) and the period.  The
    family's shape rules (:meth:`Family.check_shape`) run between the last two, so
    a companion group of the wrong order is refused before its form is built."""
    if not isinstance(data, dict):
        raise ValueError("a spec must be a JSON object")
    if "family" not in data:
        raise ValueError("a spec needs family")
    name = data["family"]
    if not isinstance(name, str) or name not in FAMILIES:
        raise ValueError(f"unknown family {name!r}")
    family = FAMILIES[name]
    keys = {"family", "group", "labels", *(par.name for par in family.params)}
    if unknown := sorted(set(data) - keys, key=str):
        raise ValueError(f"{name} spec has unknown key(s) {', '.join(map(repr, unknown))}")
    if "group" in data:
        group = group_from_json(data["group"])
    elif family.group is not None:
        group = family.group
    else:
        raise ValueError(f"{name} needs group")
    if group.order**2 > MAX_ORDER:
        raise ValueError(f"|G|^2 = {group.order**2} exceeds {MAX_ORDER}")
    if any(par.name not in data for par in family.params):
        raise ValueError(family.needs)
    values = {"group": group}
    for par in family.params:
        if par.kind is not FORM:
            values[par.name] = par.kind.from_json(data[par.name], None)
    family.check_shape(**values)
    if (period := family.period(**values)) > MAX_ORDER:
        raise ValueError(f"period {period} exceeds {MAX_ORDER}")
    for par in family.params:
        if par.kind is FORM:
            values[par.name] = par.kind.from_json(data[par.name], values[par.on])
    labels = data.get("labels", {})
    if not isinstance(labels, dict):
        raise ValueError("spec labels must be a JSON object")
    labels = tuple(sorted((str(k), str(v)) for k, v in labels.items()))
    return CategorySpec(name, labels=labels, **values)
