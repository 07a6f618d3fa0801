"""Modular-data summaries of Drinfel'd centers.

A :class:`CenterPresentation` is modular data only: the simple objects of the
center of a category together with their exact twist phases, quantum
dimensions and the multiplicities of their images under the forgetful
functor.  That is exactly the data consumed by the indicator summation formula

    nu_k(X) = (1/qdim C) * sum_V  theta_V^k * qdim(V) * dim Hom(F(V), X),

which never reads the fusion ring of C.  A presentation holds that data and
nothing else.  The ring is only named, by the family of a
:class:`fsind.indicators.CategorySpec`; the spec also keeps the table
loader's notes and makes every check on the category's shape, and the
builders below take the groups and forms it has checked.

Each twist is an integer numerator over the presentation's ``period`` N, the
order of the T-matrix, so the periodicity of nu_k in k is exact: a builder
writes its twists over one common denominator and divides out their gcd.
Objects are tagged by sector, in the element order of the indices below.

Conventions.  For the m = |G| family the builder takes the quadratic form q
with bicharacter diagonal <g, g> = e^{2 pi i * 2 q(g)}; twists are

    A_g, B_g: 2 q(g)        C_{g,h}: dq(g, h)       E_{g,x}: 2 q(g) + 2 q'(x)

with C indexed by g < h in G and E by g in G and unordered pairs {x, -x},
x != e in G'.  For the Haagerup-Izumi family the D-object twists are
m * q''(x) with |H| = 2m + 1.
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction

from .abelian import (
    RHO_LABEL,
    FiniteAbelianGroup,
    cyclic,
    factor_prime_power,
    grho_label,
    group_label,
)
from .qforms import QuadraticForm, phase_to_complex


class CenterObject(namedtuple("CenterObject", (
    "sector",  # A, Sigma, B, C, E, E1, E2, unit or D
    "twist",  # theta_X = e^{2 pi i twist / period}
    "qdim",  # (a, b): qdim(X) = a + b * d
    "mult",  # base simple label -> multiplicity of F(X)
))):
    __slots__ = ()


class CenterPresentation(namedtuple("CenterPresentation", (
    "objects",  # a tuple of CenterObject
    "period",  # the order of the T-matrix, over which every twist is written
    "d",  # the Frobenius-Perron dimension of rho, at which every (a, b) is read
    "dim",  # dim C = A + B * d, so qdim(Z(C)) = (dim C)^2
))):
    __slots__ = ()

    @property
    def rank(self) -> int:
        return len(self.objects)

    def at_d(self, pair: tuple[int, int]) -> float:
        return pair[0] + pair[1] * self.d


def _presentation(rows, den: int, d: float, dim: tuple[int, int]) -> CenterPresentation:
    """Objects from rows (sector, twist numerator over den, qdim, mult), with
    den and every numerator divided by their gcd, so the period is exact."""
    step = math.gcd(den, *(row[1] for row in rows))
    period = den // step
    objects = tuple(
        CenterObject(sector, twist // step % period, qdim, mult)
        for sector, twist, qdim, mult in rows
    )
    return CenterPresentation(objects, period, d, dim)


def twist_histogram(presentation: CenterPresentation, target: str) -> dict:
    """Each twist numerator -> qdim(V) * [F(V) : target] summed over its
    objects V, as a pair (a, b).  Over one period, d and dim C, equal
    histograms are exactly equal nu_k(target) at every k."""
    histogram: dict[int, tuple[int, int]] = {}
    for obj in presentation.objects:
        mult = obj.mult.get(target, 0)
        if mult:
            a, b = histogram.get(obj.twist, (0, 0))
            histogram[obj.twist] = (a + obj.qdim[0] * mult, b + obj.qdim[1] * mult)
    if not histogram:
        raise ValueError(f"unknown base simple {target!r}")
    return histogram


def _ng1_rows(group: FiniteAbelianGroup, den: int) -> list:
    """The A, Sigma and B rows of an m = |G| - 1 center, G cyclic, twists over
    den: B_{g,phi} for g in G and each nontrivial character phi of G."""
    n = group.order
    elems = group.elements()
    labels = [group_label(g) for g in elems]
    rows = [("A", 0, (1, 0), {label: 1}) for label in labels]
    rows.append(("Sigma", 0, (n, 0), dict.fromkeys(labels, 1)))
    for g, label in zip(elems, labels):
        mult = {RHO_LABEL: 1, label: 1}
        rows += [
            ("B", int(-den * group.character_value(phi, g)), (n + 1, 0), mult)
            for phi in elems[1:]
        ]
    return rows


def center_ng1(group: FiniteAbelianGroup, p: int, zeta1: Fraction) -> CenterPresentation:
    """Center data for the near-group family with m = |G| - 1.

    Requires G cyclic with |G| + 1 a power of the prime p (G is then the
    multiplicative group of the field with |G| + 1 elements).  Here d = |G|,
    so every dimension is an integer, written with b = 0.  ``zeta1`` is
    the exact phase of the half-braiding scalar entering the C-object twists.
    """
    n = group.order
    if math.lcm(*group.key) != n:  # cyclic iff the primes of its key are distinct
        raise ValueError("m = |G| - 1 near groups require a cyclic group")
    prime, ell = factor_prime_power(n + 1)
    if prime != p:
        raise ValueError(f"|G| + 1 = {n + 1} is not a power of p = {p}")
    den = math.lcm(n, p, zeta1.denominator)
    rows = _ng1_rows(group, den)
    # C^psi for psi in the dual of the additive group (Z/p)^ell; psi(1) pairs
    # psi with the multiplicative unit, i.e. with coordinate vector (1,0,...,0).
    zeta = int(zeta1 * den)
    rows += [
        ("C", -zeta - f[0] * (den // p), (n, 0), {RHO_LABEL: 1})
        for f in FiniteAbelianGroup((p,) * ell).elements()
    ]
    return _presentation(rows, den, n, (n * (n + 1), 0))


def center_ng1_exceptional7() -> CenterPresentation:
    """The exceptional |G| = 7 center: C-objects replaced by E_1, E_2."""
    rows = _ng1_rows(cyclic(7), 28)
    rows += [("E1", 7, (14, 0), {RHO_LABEL: 2}), ("E2", 21, (14, 0), {RHO_LABEL: 2})]
    return _presentation(rows, 28, 7, (56, 0))


def center_ng2(
    group: FiniteAbelianGroup,
    q: QuadraticForm,
    gp: FiniteAbelianGroup,
    qp: QuadraticForm,
) -> CenterPresentation:
    """Center data for the near-group family with m = |G|, |G| odd.

    The second metric group (G', q') has order |G| + 4 and supplies the
    E-object twists; q and q' are non-degenerate forms on G and G'.
    """
    n = group.order
    den = math.lcm(q.den, qp.den)
    v = [value * (den // q.den) for value in q.values]
    vp = [value * (den // qp.den) for value in qp.values]
    elems = group.elements()
    labels = [group_label(g) for g in elems]
    rho = {RHO_LABEL: 1}
    rows = [("A", 2 * v[i], (1, 0), {label: 1}) for i, label in enumerate(labels)]
    rows += [("B", 2 * v[i], (1, 1), {RHO_LABEL: 1, label: 1}) for i, label in enumerate(labels)]
    for i, g in enumerate(elems):
        rows += [
            ("C", v[group.index(group.add(g, elems[j]))] - v[i] - v[j], (2, 1),
             {RHO_LABEL: 1, labels[i]: 1, labels[j]: 1})
            for j in range(i + 1, n)
        ]
    e_twists = [2 * vp[x] for x in gp.pairs()]
    rows += [("E", 2 * v[i] + t, (0, 1), rho) for i in range(n) for t in e_twists]
    return _presentation(rows, den, (n + math.sqrt(n * n + 4 * n)) / 2, (2 * n, n))


def center_hi(
    group: FiniteAbelianGroup, h_group: FiniteAbelianGroup, qpp: QuadraticForm
) -> CenterPresentation:
    """Center data for a Haagerup-Izumi category with |G| odd.

    The metric group (H, q'') has order |G|^2 + 4 = 2m + 1 and the D-object
    twists are m * q''(x) on unordered pairs {x, -x}; q'' is non-degenerate.
    C_{h,phi} runs over pairs {h, -h} of G and all characters phi of G.
    """
    n = group.order
    m = (h_group.order - 1) // 2
    den = math.lcm(group.exponent, qpp.den)
    elems = group.elements()
    unit_label = group_label(group.identity)
    all_grho = {grho_label(g): 1 for g in elems}
    rows = [("unit", 0, (1, 0), {unit_label: 1}), ("B", 0, (1, n), {unit_label: 1, **all_grho})]
    # characters psi != trivial of G, one per pair {psi, conj(psi)}
    rows += [("A", 0, (2, n), {unit_label: 2, **all_grho})] * ((n - 1) // 2)
    for h in (elems[x] for x in group.pairs()):
        mult = {group_label(h): 1, group_label(group.neg(h)): 1, **all_grho}
        rows += [("C", int(den * group.character_value(phi, h)), (2, n), mult) for phi in elems]
    rows += [
        ("D", m * qpp.values[x] * (den // qpp.den), (0, n), all_grho) for x in h_group.pairs()
    ]
    return _presentation(rows, den, (n + math.sqrt(n * n + 4)) / 2, (2 * n, n * n))


def weil_modular_data(q: QuadraticForm) -> tuple[list[list[complex]], list[list[complex]]]:
    """(S, T) of the pointed modular category attached to a metric group.

    S = |G|^{-1/2} (conj <g,h>)_{g,h} and T = diag(e^{2 pi i q(g)}), in
    element order, as nested lists.
    """
    if not q.is_nondegenerate():
        raise ValueError("Weil modular data requires a non-degenerate form")
    elems = q.group.elements()
    root = math.sqrt(len(elems))
    S = [[q.bicharacter(g, h).conjugate() / root for h in elems] for g in elems]
    phases = [phase_to_complex(q.value(g)) for g in elems]
    T = [[phase if i == j else 0j for j in range(len(elems))] for i, phase in enumerate(phases)]
    return S, T

