"""Frobenius-Schur indicators of the distinguished non-invertible object rho.

Three independent evaluation routes are provided and cross-checked:

* :func:`center_vector` sums twists over a center presentation
  (:func:`nu_from_center` is its one-k, per-object reference),
* :func:`closed_vector`, the per-family closed forms (:func:`closed_form_nu`
  is its one-k case),
* :func:`nu_agl_bruteforce`, the classical character-theoretic indicator of
  the affine group AGL_1(F_q), computed in exact rational arithmetic.

The first two evaluate many k at once through :func:`fsind.qforms.root_sums`,
the center route on its twist histogram and the closed route on the
histograms of its forms' values; they share nothing else.

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
from collections.abc import Iterable, Iterator

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
    twist_histogram,
)
from .qforms import (
    DEFAULT_TOL,
    QuadraticForm,
    describe_form,
    form_from_json,
    form_to_json,
    gauss_sums,
    phase_to_complex,
    qz,
    root_sums,
)


# ---------------------------------------------------------------------------
# Category specifications


class CategorySpec(namedtuple(
    "CategorySpec",
    "family group p zeta1 q gp qp h qpp labels provenance",
    defaults=(None,) * 7 + ((), ()),
)):
    """One monoidal-equivalence class of a singly-generated fusion category.

    Families: NG1 (near group, m = |G| - 1), NG1X (the exceptional |G| = 7
    class with s = -1), NG2 (near group, m = |G|), HI (Haagerup-Izumi); the
    fields each family uses are listed in :data:`FAMILIES`.
    ``labels`` carries opaque equivalence-class tags (signs, roots of unity,
    matrix names); they never enter any numeric formula.  ``provenance`` holds
    the table loader's notes, which ``verify-tables --format json`` prints as
    ``calibration``; a spec read from JSON carries none.  The Grothendieck
    ring is fixed by the family and G, so it is only named, by ``Family.ring``.

    The only place a category's shape is checked: a known family with all
    its parameters, the family's group if it fixes one, |G| odd where
    required, G = F_{p^l}^* where required (NG1), each companion group (G', H)
    of its order given |G|, each form on its group and non-degenerate.
    Fields past ``group`` default to None, ``labels`` and ``provenance`` to ().
    Copy a spec with :func:`replace`, which makes these checks again.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")
        family = FAMILIES[self.family]
        if any(getattr(self, par.name) is None for par in family.params):
            raise ValueError(family.needs)
        if family.group is not None and self.group.key != family.group.key:
            raise ValueError(f"{family.name} lives over {family.group}")
        n = self.group.order
        if family.odd and n % 2 == 0:
            raise ValueError(f"{family.name} requires |G| odd")
        if family.field and math.lcm(*self.group.key) != n:  # cyclic iff its primes are distinct
            raise ValueError("m = |G| - 1 near groups require a cyclic group")
        if family.field and factor_prime_power(n + 1)[0] != self.p:  # G = F^*, |F| = |G| + 1
            raise ValueError(f"|G| + 1 = {n + 1} is not a power of p = {self.p}")
        phases = {}
        for par in family.params:
            value = getattr(self, par.name)
            if par.kind is PHASE:
                phases[par.name] = qz(value)
            if par.order is not None and value.order != par.order(n):
                raise ValueError(f"|{par.shown}| must be {par.order(n)}, got {value.order}")
            if par.kind is FORM and value.group != getattr(self, par.on):
                raise ValueError(f"{par.name} must live on {par.on}")
            if par.kind is FORM and not value.is_nondegenerate():
                raise ValueError(f"{par.name} must be non-degenerate")
        return super().__new__(cls, **{**self._asdict(), **phases}) if phases else self

    def rho_label(self) -> str:
        return FAMILIES[self.family].rho_label(self.group)

    def center(self) -> CenterPresentation:
        """The center's modular data, built anew on each call: a spec keeps nothing."""
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


def replace(spec: CategorySpec, **changes) -> CategorySpec:
    """A copy of ``spec`` with some fields changed, checked like any new spec."""
    return CategorySpec(**{**spec._asdict(), **changes})


# ---------------------------------------------------------------------------
# Evaluation routes


def nu_from_center(presentation: CenterPresentation, target: str, k: int) -> complex:
    """The center-summation formula for one k; k * twist is reduced in integers.

    The scalar reference for :func:`center_vector`.
    """
    objects = [obj for obj in presentation.objects if obj.mult.get(target)]
    if not objects:
        raise ValueError(f"unknown base simple {target!r}")
    period = presentation.period
    total = 0j
    for obj in objects:
        qdim = presentation.at_d(obj.qdim)
        phase = k * obj.twist % period / period
        total += cmath.exp(2j * math.pi * phase) * qdim * obj.mult[target]
    return total / presentation.at_d(presentation.dim)


def center_vector(
    presentation: CenterPresentation, target: str, ks: Iterable[int]
) -> list[complex]:
    """nu_k(target) for each k in ``ks`` by the center formula."""
    return list(histogram_vector(presentation, twist_histogram(presentation, target), ks))


def histogram_vector(
    presentation: CenterPresentation, histogram: dict, ks: Iterable[int]
) -> Iterator[complex]:
    """Yield the center formula for each k in ``ks``, in order, from a twist
    histogram of the presentation, read at d and keyed by twist numerator over
    the period."""
    weights = {twist: presentation.at_d(pair) for twist, pair in histogram.items()}
    dim = presentation.at_d(presentation.dim)
    return (total / dim for total in root_sums(weights, presentation.period, ks))


def nu_ng1_closed(group: FiniteAbelianGroup, p: int, zeta1: Fraction, k: int) -> complex:
    """(theta_k(e) - 1) + conj(zeta1)^k [p | k] for the m = |G| - 1 family."""
    value = complex(group.power_count(k, group.identity) - 1)
    if k % p == 0:
        phase = (-k * qz(zeta1)) % 1
        # exact at phase 1/2, where e^{pi i} carries 1.2e-16 imaginary noise
        value += -1 if 2 * phase == 1 else phase_to_complex(phase)
    return value


def ng2_closed_vector(
    group: FiniteAbelianGroup,
    q: QuadraticForm,
    gp: FiniteAbelianGroup,
    qp: QuadraticForm,
    ks: Iterable[int],
) -> list[complex]:
    """theta_k(e)/2 + Theta(G, 2kq) Theta(G', 2kq')/2 for each k in ``ks``, the
    m = |G| family, from one Gauss-sum vector per form."""
    ks = list(ks)
    scales = [2 * k for k in ks]
    products = (a * b for a, b in zip(gauss_sums(q, scales), gauss_sums(qp, scales)))
    return _half_sums(group, ks, products)


def hi_closed_vector(
    group: FiniteAbelianGroup,
    h_group: FiniteAbelianGroup,
    qpp: QuadraticForm,
    ks: Iterable[int],
) -> list[complex]:
    """theta_k(e)/2 + Theta(H, k m q'')/2 with |H| = 2m + 1 for each k in ``ks``,
    from one Gauss-sum vector."""
    ks = list(ks)
    m = (h_group.order - 1) // 2
    return _half_sums(group, ks, gauss_sums(qpp, [k * m for k in ks]))


def _ng1x_closed(spec: CategorySpec, ks: Iterable[int]) -> list[complex]:
    """NG1's closed form at p = 2, zeta1 = 1/4; NG1X's center keeps E1, E2."""
    from fractions import Fraction

    zeta1 = Fraction(1, 4)
    return [nu_ng1_closed(spec.group, 2, zeta1, k) for k in ks]


def _half_sums(group: FiniteAbelianGroup, ks: list[int], gauss: Iterable[complex]) -> list[complex]:
    """theta_k(e)/2 + Gauss/2 for each k in ``ks`` and its Gauss term."""
    return [group.power_count(k, group.identity) / 2 + term / 2 for k, term in zip(ks, gauss)]


# ---------------------------------------------------------------------------
# The family table


class ParamKind(namedtuple("ParamKind", (
    "to_json",
    "from_json",  # (JSON value, the group it lives on) -> value
    "show",
    "conjugate",
))):
    """How one kind of family parameter is written, read, shown and conjugated."""

    __slots__ = ()


def _int_from_json(data, _) -> int:
    if not is_json_int(data):
        raise ValueError(f"expected an integer, got {data!r}")
    return data


def _phase_from_json(data, _) -> Fraction:
    if not (is_json_int(data) or isinstance(data, str)):
        raise ValueError(f"expected an integer or a fraction string, got {data!r}")
    from fractions import Fraction

    try:
        return Fraction(data)
    except ZeroDivisionError as exc:  # "1/0"
        raise ValueError(f"bad phase {data!r}: {exc}") from exc


INT = ParamKind(int, _int_from_json, str, lambda value: value)
PHASE = ParamKind(
    lambda value: f"{value.numerator}/{value.denominator}",
    _phase_from_json,
    str,
    lambda value: -value % 1,
)
GROUP = ParamKind(group_to_json, lambda data, _: group_from_json(data), str, lambda value: value)
FORM = ParamKind(form_to_json, form_from_json, describe_form, QuadraticForm.negated)


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
    "closed",  # (CategorySpec, ks) -> nu_k(rho) for each k
    "period",  # the spec's fields but its forms, as keywords -> N, the order of T
    "odd",  # |G| must be odd
    "field",  # G must be F^* for a field F of characteristic p
    "group",  # the only group allowed, if any
), defaults=(False, False, None))):
    __slots__ = ()

    @property
    def needs(self) -> str:
        return f"{self.name} needs " + ", ".join(par.name for par in self.params)


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
            closed=lambda s, ks: [nu_ng1_closed(s.group, s.p, s.zeta1, k) for k in ks],
            period=lambda group, p, zeta1, **_: math.lcm(group.order, p, zeta1.denominator),
            field=True,
        ),
        Family(
            "NG1X",
            (),
            ring="NG(G,|G|-1)",
            rho_label=lambda group: RHO_LABEL,
            center=lambda s: center_ng1_exceptional7(),
            closed=_ng1x_closed,
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
            closed=lambda s, ks: ng2_closed_vector(s.group, s.q, s.gp, s.qp, ks),
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
            closed=lambda s, ks: hi_closed_vector(s.group, s.h, s.qpp, ks),
            period=lambda group, h, **_: math.lcm(group.exponent, h.exponent),
            odd=True,
        ),
    )
}


def closed_form_nu(spec: CategorySpec, k: int) -> complex:
    return closed_vector(spec, (k,))[0]


def closed_vector(spec: CategorySpec, ks: Iterable[int]) -> list[complex]:
    """nu_k(rho) for each k in ``ks`` by the family's closed form."""
    return FAMILIES[spec.family].closed(spec, ks)


def conjugate_spec(spec: CategorySpec) -> CategorySpec:
    """The complex-conjugate class: all forms and zeta1 negated."""
    flipped = {
        par.name: par.kind.conjugate(getattr(spec, par.name))
        for par in FAMILIES[spec.family].params
    }
    return replace(spec, provenance=(), **flipped)


# ---------------------------------------------------------------------------
# Indicator vectors and rigidity


class IndicatorVector(namedtuple("IndicatorVector", (
    "period",
    "values",  # values[k - 1] = nu_k(rho), k = 1..period
))):
    __slots__ = ()

    def value(self, k: int) -> complex:
        return self.values[(k - 1) % self.period]


ROUTES = {  # route -> nu_k(rho) for each k
    "center": lambda spec, ks: center_vector(spec.center(), spec.rho_label(), ks),
    "closed": closed_vector,
}


def indicator_vector(spec: CategorySpec, path: str = "center") -> IndicatorVector:
    if path not in ROUTES:
        raise ValueError(f"unknown path {path!r}")
    period = spec.period()
    return IndicatorVector(period, tuple(ROUTES[path](spec, range(1, period + 1))))


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
    periods; a pair with no such k raises ``ValueError``.  Each class draws its
    values in order k = 1, 2, ... as its pairs read them and keeps them for
    its other pairs, so it is evaluated only up to the largest smallest
    separating k of its pairs (and over one whole period at most).

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
    centers = [spec.center() for spec in specs]
    keys = [(twist_histogram(c, s.rho_label()), c.period, c.dim) for c, s in zip(centers, specs)]
    first = [keys.index(key) for key in keys]  # the first spec of each spec's class
    drawn = {}  # first spec of each class -> (period, values drawn so far, the rest)
    for i in sorted(set(first)):  # each class's values from the histogram of its key
        histogram, period, _ = keys[i]
        drawn[i] = period, [], histogram_vector(centers[i], histogram, range(1, period + 1))

    def value(i: int, k: int) -> complex:  # nu_k of class i, drawn on first read
        period, values, rest = drawn[i]
        while len(values) < min(k, period):
            values.append(next(rest))
        return values[(k - 1) % period]

    smallest = {}  # (i, j) and (j, i) for first specs i < j -> smallest separating k
    for i, j in itertools.combinations(drawn, 2):
        ks = range(1, math.lcm(drawn[i][0], drawn[j][0]) + 1)
        k = next((k for k in ks if abs(value(i, k) - value(j, k)) > DEFAULT_TOL), None)
        if k is None:
            raise ValueError(f"{specs[i].describe()} and {specs[j].describe()} differ, "
                             f"but by at most {DEFAULT_TOL} at every k")
        smallest[i, j] = smallest[j, i] = k
    pairs = itertools.combinations(range(len(specs)), 2)
    return RigidityReport(
        math.lcm(*(spec.period() for spec in specs)),
        tuple(tuple(j for j, f in enumerate(first) if f == i) for i in drawn),
        tuple((i, j, smallest[first[i], first[j]]) for i, j in pairs if first[i] != first[j]),
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
    from fractions import Fraction

    group = cyclic(order)
    p = factor_prime_power(order + 1)[0]
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


def nu_agl_bruteforce(q: int, ks: Iterable[int]) -> list[Fraction]:
    """(1/|Gamma|) sum_gamma rho(gamma^k) for each k in ``ks``, exactly.

    Each element's powers e, x, x^2, ... are walked once by group
    multiplication until they return to e, and each k reads every cycle at k
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
    return [
        Fraction(sum(n * values[k % len(values)] for values, n in cycles.items()), agl.order)
        for k in ks
    ]


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
    """Parse a spec; only a family with one allowed group may omit ``group``.

    Every size a spec enumerates is bounded by :data:`MAX_ORDER` before any form is
    read: each group, |G|^2 (a center has about |G|^2 objects) and the period."""
    if not isinstance(data, dict):
        raise ValueError("a spec must be a JSON object")
    if "family" not in data:
        raise ValueError("a spec needs family")
    name = data["family"]
    if not isinstance(name, str) or name not in FAMILIES:
        raise ValueError(f"unknown family {name!r}")
    family = FAMILIES[name]
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
