"""Reference code that only the tests call.

Each function here is an independent restatement that some test checks the
program against: exact Q/Z values, boundaries and bicharacters of a form,
orthogonal sums, Weil modular data, the complex-conjugate class of a spec,
whole-period indicator vectors and the small NG1 equivalence classes.  No
command runs any of it, so none of it lives in ``src/fsind``, and no module
there imports this one (``tests/test_routes.py`` pins that).

Two kinds of reference code stay in ``src/fsind``: :mod:`fsind.fusion` and
:func:`fsind.indicators.nu_from_center`.  The benchmark's scripts wrap the
ring builders by module path and import ``nu_from_center`` to capture their
reference values, so they keep their module and signature until a change to
the benchmark moves them.
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction

from fsind.abelian import FiniteAbelianGroup, GroupElement, cyclic, factor_prime_power
from fsind.indicators import FAMILIES, FORM, PHASE, ROUTES, CategorySpec, replace
from fsind.qforms import QuadraticForm, phase_to_complex


# ---------------------------------------------------------------------------
# Groups and forms


def direct_sum(g1: FiniteAbelianGroup, g2: FiniteAbelianGroup) -> FiniteAbelianGroup:
    return FiniteAbelianGroup(g1.cyclic_factors + g2.cyclic_factors)


def value(q: QuadraticForm, g: GroupElement) -> Fraction:
    """q(g) in [0, 1)."""
    return Fraction(q.values[q.group.index(g)], q.den)


def boundary(q: QuadraticForm, g: GroupElement, h: GroupElement) -> Fraction:
    """dq(g, h) = q(g + h) - q(g) - q(h) in [0, 1)."""
    grp, v = q.group, q.values
    numerator = v[grp.index(grp.add(g, h))] - v[grp.index(g)] - v[grp.index(h)]
    return Fraction(numerator % q.den, q.den)


def bicharacter(q: QuadraticForm, g: GroupElement, h: GroupElement) -> complex:
    return phase_to_complex(boundary(q, g, h))


def orthogonal_sum(q1: QuadraticForm, q2: QuadraticForm) -> QuadraticForm:
    """(G1 x G2, q1 + q2); the Gauss sum is multiplicative over this."""
    group = direct_sum(q1.group, q2.group)
    den = 2 * group.exponent
    s1, s2 = den // q1.den, den // q2.den
    values = tuple(v1 * s1 + v2 * s2 for v1 in q1.values for v2 in q2.values)
    return QuadraticForm(group, values)


def weil_modular_data(q: QuadraticForm) -> tuple[list[list[complex]], list[list[complex]]]:
    """(S, T) of the pointed modular category attached to a metric group.

    S = |G|^{-1/2} (conj <g,h>)_{g,h} and T = diag(e^{2 pi i q(g)}), in
    element order, as nested lists.
    """
    if not q.is_nondegenerate():
        raise ValueError("Weil modular data requires a non-degenerate form")
    elems = q.group.elements()
    root = math.sqrt(len(elems))
    S = [[bicharacter(q, g, h).conjugate() / root for h in elems] for g in elems]
    phases = [phase_to_complex(value(q, g)) for g in elems]
    T = [[phase if i == j else 0j for j in range(len(elems))] for i, phase in enumerate(phases)]
    return S, T


# ---------------------------------------------------------------------------
# Specs and indicator vectors


def conjugate_spec(spec: CategorySpec) -> CategorySpec:
    """The complex-conjugate class: all forms and zeta1 negated."""
    flipped = {}
    for par in FAMILIES[spec.family].params:
        if par.kind is FORM:
            flipped[par.name] = getattr(spec, par.name).scaled(-1)
        elif par.kind is PHASE:
            flipped[par.name] = -getattr(spec, par.name) % 1
    return replace(spec, **flipped)


class IndicatorVector(namedtuple("IndicatorVector", (
    "period",
    "values",  # values[k - 1] = nu_k(rho), k = 1..period
))):
    __slots__ = ()

    def value(self, k: int) -> complex:
        return self.values[(k - 1) % self.period]


def indicator_vector(spec: CategorySpec, path: str = "center") -> IndicatorVector:
    if path not in ROUTES:
        raise ValueError(f"unknown path {path!r}")
    period = spec.period()
    return IndicatorVector(period, tuple(ROUTES[path](spec, range(1, period + 1))))


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
