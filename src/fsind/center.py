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

Twists are stored as exact rational phases (all of them are roots of unity),
which keeps the periodicity of nu_k in k exact; quantum dimensions are exact too.

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

from .abelian import FiniteAbelianGroup, cyclic, factor_prime_power, format_element
from .fusion import RHO_LABEL, group_label, grho_label
from .qforms import QuadraticForm, phase_to_complex, qz


@dataclass(frozen=True)
class CenterObject:
    label: str
    twist: Fraction  # theta_X = e^{2 pi i twist}
    qdim: tuple[int, int]  # (a, b): qdim(X) = a + b * d
    mult: dict  # base simple label -> multiplicity of F(X)


@dataclass(frozen=True)
class CenterPresentation:
    objects: tuple[CenterObject, ...]
    d: float  # the Frobenius-Perron dimension of rho, at which every (a, b) is read
    dim: tuple[int, int]  # dim C = A + B * d, so qdim(Z(C)) = (dim C)^2

    @property
    def rank(self) -> int:
        return len(self.objects)

    @property
    def period(self) -> int:
        """lcm of the twist denominators (the order of the T-matrix)."""
        return math.lcm(*(obj.twist.denominator for obj in self.objects))

    def at_d(self, pair: tuple[int, int]) -> float:
        return pair[0] + pair[1] * self.d


def twist_histogram(presentation: CenterPresentation, target: str) -> dict:
    """Each twist -> qdim(V) * [F(V) : target] summed over its objects V, as a
    pair (a, b).  Over one d and dim C, equal histograms are exactly equal
    nu_k(target) at every k."""
    histogram: dict[Fraction, tuple[int, int]] = {}
    for obj in presentation.objects:
        mult = obj.mult.get(target, 0)
        if mult:
            a, b = histogram.get(obj.twist, (0, 0))
            histogram[obj.twist] = (a + obj.qdim[0] * mult, b + obj.qdim[1] * mult)
    if not histogram:
        raise ValueError(f"unknown base simple {target!r}")
    return histogram


def center_ng1(group: FiniteAbelianGroup, p: int, zeta1: Fraction) -> CenterPresentation:
    """Center data for the near-group family with m = |G| - 1.

    Requires G cyclic with |G| + 1 a power of the prime p (G is then the
    multiplicative group of the field with |G| + 1 elements).  Here d = |G|,
    so every dimension is an integer, written with b = 0.  ``zeta1`` is
    the exact phase of the half-braiding scalar entering the C-object twists.
    """
    n = group.order
    if group.rank > 1 and n > 1:
        raise ValueError("m = |G| - 1 near groups require a cyclic group")
    prime, ell = factor_prime_power(n + 1)
    if prime != p:
        raise ValueError(f"|G| + 1 = {n + 1} is not a power of p = {p}")
    zeta1 = qz(zeta1)
    elems = group.elements()
    objects = [
        CenterObject("A:" + format_element(g), Fraction(0), (1, 0), {group_label(g): 1})
        for g in elems
    ]
    objects.append(CenterObject("Sigma", Fraction(0), (n, 0), {group_label(x): 1 for x in elems}))
    for g in elems:
        for j in range(1, n):  # nontrivial characters of the cyclic group
            twist = (-group.character_value((j,), g)) % 1
            objects.append(
                CenterObject(
                    f"B:{format_element(g)},w{j}",
                    twist,
                    (n + 1, 0),
                    {RHO_LABEL: 1, group_label(g): 1},
                )
            )
    # C^psi for psi in the dual of the additive group (Z/p)^ell; psi(1) pairs
    # psi with the multiplicative unit, i.e. with coordinate vector (1,0,...,0).
    for f in FiniteAbelianGroup((prime,) * ell).elements():
        twist = (-(zeta1 + Fraction(f[0], prime))) % 1
        objects.append(
            CenterObject("C:f=" + format_element(f), twist, (n, 0), {RHO_LABEL: 1})
        )
    return CenterPresentation(tuple(objects), n, (n * (n + 1), 0))


def center_ng1_exceptional7() -> CenterPresentation:
    """The exceptional |G| = 7 center: C-objects replaced by E_1, E_2."""
    group = cyclic(7)
    base = center_ng1(group, 2, Fraction(0))
    kept = tuple(obj for obj in base.objects if not obj.label.startswith("C:"))
    e1 = CenterObject("E1", Fraction(1, 4), (14, 0), {RHO_LABEL: 2})
    e2 = CenterObject("E2", Fraction(3, 4), (14, 0), {RHO_LABEL: 2})
    return CenterPresentation(kept + (e1, e2), base.d, base.dim)


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
    elems = group.elements()
    objects: list[CenterObject] = []
    for g in elems:
        twist = (2 * q.value(g)) % 1
        objects.append(CenterObject("A:" + format_element(g), twist, (1, 0), {group_label(g): 1}))
    for g in elems:
        twist = (2 * q.value(g)) % 1
        objects.append(
            CenterObject(
                "B:" + format_element(g), twist, (1, 1), {RHO_LABEL: 1, group_label(g): 1}
            )
        )
    for i, g in enumerate(elems):
        for h in elems[i + 1 :]:
            objects.append(
                CenterObject(
                    f"C:{format_element(g)},{format_element(h)}",
                    q.boundary(g, h),
                    (2, 1),
                    {RHO_LABEL: 1, group_label(g): 1, group_label(h): 1},
                )
            )
    for g in elems:
        for x in _pair_representatives(gp):
            twist = (2 * q.value(g) + 2 * qp.value(x)) % 1
            objects.append(
                CenterObject(
                    f"E:{format_element(g)},{format_element(x)}", twist, (0, 1), {RHO_LABEL: 1}
                )
            )
    return CenterPresentation(tuple(objects), (n + math.sqrt(n * n + 4 * n)) / 2, (2 * n, n))


def center_hi(
    group: FiniteAbelianGroup, h_group: FiniteAbelianGroup, qpp: QuadraticForm
) -> CenterPresentation:
    """Center data for a Haagerup-Izumi category with |G| odd.

    The metric group (H, q'') has order |G|^2 + 4 = 2m + 1 and the D-object
    twists are m * q''(x) on unordered pairs {x, -x}; q'' is non-degenerate.
    """
    n = group.order
    m = (h_group.order - 1) // 2
    elems = group.elements()
    unit_label = group_label(group.identity)
    all_grho = {grho_label(g): 1 for g in elems}
    objects: list[CenterObject] = []
    objects.append(CenterObject("unit", Fraction(0), (1, 0), {unit_label: 1}))
    objects.append(CenterObject("B", Fraction(0), (1, n), {unit_label: 1, **all_grho}))
    n_pairs = (n - 1) // 2
    for j in range(1, n_pairs + 1):  # characters psi mod conjugation, psi != trivial
        objects.append(
            CenterObject(f"A:psi{j}", Fraction(0), (2, n), {unit_label: 2, **all_grho})
        )
    for h in _pair_representatives(group):
        for j, phi in enumerate(elems):  # all characters phi of G
            twist = group.character_value(phi, h)
            objects.append(
                CenterObject(
                    f"C:{format_element(h)},phi{j}",
                    twist,
                    (2, n),
                    {group_label(h): 1, group_label(group.neg(h)): 1, **all_grho},
                )
            )
    for x in _pair_representatives(h_group):
        twist = (m * qpp.value(x)) % 1
        objects.append(CenterObject("D:" + format_element(x), twist, (0, n), dict(all_grho)))
    return CenterPresentation(tuple(objects), (n + math.sqrt(n * n + 4)) / 2, (2 * n, n * n))


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


def _pair_representatives(group: FiniteAbelianGroup) -> list:
    """One representative per unordered pair {x, -x}, x != e (lex smaller)."""
    reps = []
    for x in group.elements():
        if x == group.identity:
            continue
        if x <= group.neg(x):
            reps.append(x)
    return reps
