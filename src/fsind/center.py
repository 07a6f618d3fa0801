"""Modular-data summaries of Drinfel'd centers.

A :class:`CenterPresentation` lists the simple objects of the center of a
category together with their exact twist phases, quantum dimensions and the
multiplicities of their images under the forgetful functor.  That is exactly
the data consumed by the indicator summation formula

    nu_k(X) = (1/qdim C) * sum_V  theta_V^k * qdim(V) * dim Hom(F(V), X).

Twists are stored as exact rational phases (all of them are roots of unity),
which keeps the periodicity of nu_k in k exact.

Conventions.  For the m = |G| family the builder takes the quadratic form q
with bicharacter diagonal <g, g> = e^{2 pi i * 2 q(g)}; twists are

    A_g, B_g: 2 q(g)        C_{g,h}: dq(g, h)       E_{g,x}: 2 q(g) + 2 q'(x)

with E indexed by g in G and unordered pairs {x, -x}, x != e in G'.  For the
Haagerup-Izumi family the D-object twists are m * q''(x) with |H| = 2m + 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .abelian import FiniteAbelianGroup, cyclic, factor_prime_power, format_element
from .fusion import (
    RHO_LABEL,
    FusionRing,
    group_label,
    grho_label,
    hi_rho_dim,
    make_hi_ring,
    make_near_group_ring,
    near_group_rho_dim,
)
from .qforms import QuadraticForm, phase_to_complex, qz


@dataclass(frozen=True)
class CenterObject:
    label: str
    twist: Fraction  # theta_X = e^{2 pi i twist}
    qdim: float
    mult: dict  # base simple label -> multiplicity of F(X)


@dataclass(frozen=True)
class CenterPresentation:
    base_ring: FusionRing
    objects: tuple[CenterObject, ...]
    global_qdim: float
    provenance: tuple[str, ...] = ()

    @property
    def rank(self) -> int:
        return len(self.objects)


def indicator_period(presentation: CenterPresentation) -> int:
    """lcm of the twist denominators (the order of the T-matrix)."""
    return math.lcm(*(obj.twist.denominator for obj in presentation.objects))


def center_ng1(
    group: FiniteAbelianGroup, p: int, zeta1: Fraction, provenance: tuple[str, ...] = ()
) -> CenterPresentation:
    """Center data for the near-group family with m = |G| - 1.

    Requires G cyclic with |G| + 1 a power of the prime p (G is then the
    multiplicative group of the field with |G| + 1 elements).  ``zeta1`` is
    the exact phase of the half-braiding scalar entering the C-object twists.
    """
    n = group.order
    if group.rank > 1 and n > 1:
        raise ValueError("m = |G| - 1 near groups require a cyclic group")
    prime, ell = factor_prime_power(n + 1)
    if prime != p:
        raise ValueError(f"|G| + 1 = {n + 1} is not a power of p = {p}")
    zeta1 = qz(zeta1)
    ring = make_near_group_ring(group, n - 1)
    d_rho = float(n)
    elems = group.elements()
    objects: list[CenterObject] = []
    for g in elems:
        objects.append(CenterObject("A:" + format_element(g), Fraction(0), 1.0, {group_label(g): 1}))
    objects.append(CenterObject("Sigma", Fraction(0), float(n), {group_label(x): 1 for x in elems}))
    for g in elems:
        for j in range(1, n):  # nontrivial characters of the cyclic group
            twist = (-group.character_value((j,), g)) % 1
            objects.append(
                CenterObject(
                    f"B:{format_element(g)},w{j}",
                    twist,
                    n + 1.0,
                    {RHO_LABEL: 1, group_label(g): 1},
                )
            )
    # C^psi for psi in the dual of the additive group (Z/p)^ell; psi(1) pairs
    # psi with the multiplicative unit, i.e. with coordinate vector (1,0,...,0).
    for f in FiniteAbelianGroup((prime,) * ell).elements():
        twist = (-(zeta1 + Fraction(f[0], prime))) % 1
        objects.append(
            CenterObject("C:f=" + format_element(f), twist, d_rho, {RHO_LABEL: 1})
        )
    return CenterPresentation(ring, tuple(objects), n * (n + 1.0), provenance)


def center_ng1_exceptional7(provenance: tuple[str, ...] = ()) -> CenterPresentation:
    """The exceptional |G| = 7 center: C-objects replaced by E_1, E_2."""
    group = cyclic(7)
    base = center_ng1(group, 2, Fraction(0))
    kept = tuple(obj for obj in base.objects if not obj.label.startswith("C:"))
    e1 = CenterObject("E1", Fraction(1, 4), 14.0, {RHO_LABEL: 2})
    e2 = CenterObject("E2", Fraction(3, 4), 14.0, {RHO_LABEL: 2})
    return CenterPresentation(base.base_ring, kept + (e1, e2), base.global_qdim, provenance)


def center_ng2(
    group: FiniteAbelianGroup,
    q: QuadraticForm,
    gp: FiniteAbelianGroup,
    qp: QuadraticForm,
    provenance: tuple[str, ...] = (),
) -> CenterPresentation:
    """Center data for the near-group family with m = |G|, |G| odd.

    The second metric group (G', q') has order |G| + 4 and supplies the
    E-object twists.
    """
    n = group.order
    if n % 2 == 0:
        raise ValueError("this family requires |G| odd")
    if gp.order != n + 4:
        raise ValueError(f"|G'| must be |G| + 4 = {n + 4}, got {gp.order}")
    if q.group != group or qp.group != gp:
        raise ValueError("forms must live on the given groups")
    if not q.is_nondegenerate() or not qp.is_nondegenerate():
        raise ValueError("both quadratic forms must be non-degenerate")
    ring = make_near_group_ring(group, n)
    d = near_group_rho_dim(n, n)
    elems = group.elements()
    objects: list[CenterObject] = []
    for g in elems:
        twist = (2 * q.value(g)) % 1
        objects.append(CenterObject("A:" + format_element(g), twist, 1.0, {group_label(g): 1}))
    for g in elems:
        twist = (2 * q.value(g)) % 1
        objects.append(
            CenterObject(
                "B:" + format_element(g), twist, 1.0 + d, {RHO_LABEL: 1, group_label(g): 1}
            )
        )
    for i, g in enumerate(elems):
        for h in elems[i + 1 :]:
            objects.append(
                CenterObject(
                    f"C:{format_element(g)},{format_element(h)}",
                    q.boundary(g, h),
                    2.0 + d,
                    {RHO_LABEL: 1, group_label(g): 1, group_label(h): 1},
                )
            )
    for g in elems:
        for x in _pair_representatives(gp):
            twist = (2 * q.value(g) + 2 * qp.value(x)) % 1
            objects.append(
                CenterObject(
                    f"E:{format_element(g)},{format_element(x)}", twist, d, {RHO_LABEL: 1}
                )
            )
    return CenterPresentation(ring, tuple(objects), n * (2.0 + d), provenance)


def center_hi(
    group: FiniteAbelianGroup,
    h_group: FiniteAbelianGroup,
    qpp: QuadraticForm,
    provenance: tuple[str, ...] = (),
) -> CenterPresentation:
    """Center data for a Haagerup-Izumi category with |G| odd.

    The metric group (H, q'') has order |G|^2 + 4 = 2m + 1 and the D-object
    twists are m * q''(x) on unordered pairs {x, -x}.
    """
    n = group.order
    if n % 2 == 0:
        raise ValueError("this family requires |G| odd")
    if h_group.order != n * n + 4:
        raise ValueError(f"|H| must be |G|^2 + 4 = {n * n + 4}, got {h_group.order}")
    if qpp.group != h_group:
        raise ValueError("q'' must live on H")
    if not qpp.is_nondegenerate():
        raise ValueError("q'' must be non-degenerate")
    ring = make_hi_ring(group)
    d = hi_rho_dim(n)
    m = (h_group.order - 1) // 2
    elems = group.elements()
    unit_label = group_label(group.identity)
    all_grho = {grho_label(g): 1 for g in elems}
    objects: list[CenterObject] = []
    objects.append(CenterObject("unit", Fraction(0), 1.0, {unit_label: 1}))
    objects.append(CenterObject("B", Fraction(0), 1.0 + n * d, {unit_label: 1, **all_grho}))
    n_pairs = (n - 1) // 2
    for j in range(1, n_pairs + 1):  # characters psi mod conjugation, psi != trivial
        objects.append(
            CenterObject(f"A:psi{j}", Fraction(0), 2.0 + n * d, {unit_label: 2, **all_grho})
        )
    for h in _pair_representatives(group):
        for j, phi in enumerate(elems):  # all characters phi of G
            twist = group.character_value(phi, h)
            objects.append(
                CenterObject(
                    f"C:{format_element(h)},phi{j}",
                    twist,
                    2.0 + n * d,
                    {group_label(h): 1, group_label(group.neg(h)): 1, **all_grho},
                )
            )
    for x in _pair_representatives(h_group):
        twist = (m * qpp.value(x)) % 1
        objects.append(CenterObject("D:" + format_element(x), twist, n * d, dict(all_grho)))
    return CenterPresentation(ring, tuple(objects), 2.0 * n + d * n * n, provenance)


def weil_modular_data(q: QuadraticForm) -> tuple[np.ndarray, np.ndarray]:
    """(S, T) of the pointed modular category attached to a metric group.

    S = |G|^{-1/2} (conj <g,h>)_{g,h} and T = diag(e^{2 pi i q(g)}), in
    element order.
    """
    if not q.is_nondegenerate():
        raise ValueError("Weil modular data requires a non-degenerate form")
    group = q.group
    elems = group.elements()
    n = group.order
    S = np.empty((n, n), dtype=complex)
    for i, g in enumerate(elems):
        for j, h in enumerate(elems):
            S[i, j] = q.bicharacter(g, h).conjugate()
    S /= math.sqrt(n)
    T = np.diag([phase_to_complex(v) for v in q.values])
    return S, T


def _pair_representatives(group: FiniteAbelianGroup) -> list:
    """One representative per unordered pair {x, -x}, x != e (lex smaller)."""
    reps = []
    for x in group.elements():
        if x == group.identity:
            continue
        if x <= group.neg(x):
            reps.append(x)
    return reps
