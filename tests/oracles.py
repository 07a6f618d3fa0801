"""Reference code that only the tests call.

Each function here is an independent restatement that some test checks the
program against, or a helper only tests need: the negative of an element, the
character pairing of a group, exact Q/Z values, boundaries and bicharacters
of a form, the rank^2 |G| check of a quadratic table, a form table read one
``Fraction`` per entry, the order of a form's radical, orthogonal sums, Weil
modular data, the axioms and Frobenius-Perron dimensions of a based ring, the
simple objects of each family's Drinfeld center with their twist histograms,
a checked copy of a spec, NG2 and HI specs from printed coefficients, the
complex-conjugate class of a spec, whole-period indicator vectors and the
small NG1 equivalence classes.
No command runs any of it, so none of it lives in ``src/fsind``, and no module
there imports this one (``tests/test_routes.py`` pins that).

Two kinds of code that no command runs stay in ``src/fsind``: the ring
constructors of :mod:`fsind.fusion` and :func:`fsind.indicators.nu_from_center`.
The benchmark's scripts wrap the ring constructors by module path and import
``nu_from_center`` to capture their reference values, so they keep their
module and signature until a change to the benchmark moves them.  The ring
checks import numpy when they run, so the rest of this module loads without it.
"""

from __future__ import annotations

import math
import re
from collections import namedtuple
from fractions import Fraction

from fsind.abelian import (
    RHO_LABEL,
    FiniteAbelianGroup,
    GroupElement,
    cyclic,
    factor_prime_power,
    grho_label,
    group_label,
)
from fsind.fusion import FusionRing
from fsind.indicators import FAMILIES, FORM, PHASE, ROUTES, CategorySpec
from fsind.qforms import QuadraticForm, monomial_form, phase_to_complex


# ---------------------------------------------------------------------------
# Groups and forms


def neg(group: FiniteAbelianGroup, a: GroupElement) -> GroupElement:
    return tuple(-x % n for x, n in zip(a, group.cyclic_factors))


def character_value(group: FiniteAbelianGroup, h: GroupElement, g: GroupElement) -> int:
    """Phase of the standard pairing as an integer numerator over the group's
    exponent: chi_h(g) = e^{2 pi i character_value(group, h, g) / exponent},
    with the numerator in [0, exponent)."""
    e = group.exponent
    return sum(hi * gi * (e // n) for hi, gi, n in zip(h, g, group.cyclic_factors)) % e


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


def is_quadratic_table(group: FiniteAbelianGroup, values) -> bool:
    """Whether numerators over 2 * exponent, in element order, form a quadratic
    form, checked as the constructor once did in rank^2 |G| steps: q(0) = 0 and
    q(-g) = q(g), then dq(e_i, g + e_j) = dq(e_i, g) + dq(e_i, e_j) for all i, j
    and g, since the cocycle identity dq(a + b, c) + dq(a, b) = dq(a, b + c) +
    dq(b, c) carries additivity from the generators to all of G."""
    den, elems = 2 * group.exponent, group.elements()
    values = [v % den for v in values]
    if values[0] != 0 or any(values[group.index(neg(group, g))] != v
                             for g, v in zip(elems, values)):
        return False
    basis = [tuple(int(i == j) % n for i, n in enumerate(group.cyclic_factors))
             for j in range(group.rank)]
    shifts = [[group.index(group.add(g, e)) for g in elems] for e in basis]
    rows = [[(values[s] - values[x] - values[shift[0]]) % den for x, s in enumerate(shift)]
            for shift in shifts]
    return all(
        row[s] == (row[x] + row[shift[0]]) % den
        for row in rows for shift in shifts for x, s in enumerate(shift)
    )


def table_form_by_fractions(table, group: FiniteAbelianGroup) -> QuadraticForm:
    """The form a JSON ``table`` stands for on ``group``, read one ``Fraction``
    per entry, as the reader once did: each entry a JSON integer (not a bool) or a
    string a or a/b of decimal digits with b != 0 and an optional ``-`` before a,
    and only then each a multiple of 1/den, den = 2 * exponent.  The same
    ``ValueError`` text as the program's reader for any other table."""
    values = []
    for entry in table:
        if isinstance(entry, int) and not isinstance(entry, bool):
            values.append(Fraction(entry))
            continue
        match = re.fullmatch(r"(-?[0-9]+)(?:/([0-9]+))?", entry) if isinstance(entry, str) else None
        try:
            a, b = (int(match[1]), int(match[2] or 1)) if match else (0, 0)
        except ValueError:
            raise ValueError(f"fraction string {entry[:20]!r}... of {len(entry)} characters "
                             "has too many digits") from None
        if b == 0:
            raise ValueError(f"expected an integer or a fraction string, got {entry!r}")
        values.append(Fraction(a, b))
    den = 2 * group.exponent
    if any((v * den).denominator != 1 for v in values):
        raise ValueError(f"table values must be multiples of 1/{den}")
    return QuadraticForm(group, tuple(int(v * den) for v in values))


def radical_order(q: QuadraticForm) -> int:
    """|rad q|: the number of h with dq(g, h) = 0 for every g."""
    elems = q.group.elements()
    return sum(all(boundary(q, g, h) == 0 for g in elems) for h in elems)


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
# Based rings


def verify_ring(ring: FusionRing) -> list[str]:
    """Check unit, associativity, duality and the dual involution; both sides of
    associativity by einsum.

    Returns a list of violation descriptions; an empty list means the ring
    satisfies all axioms.
    """
    import numpy as np

    problems: list[str] = []
    N = np.array(ring.N, dtype=np.int64)
    rank = ring.rank
    u = ring.unit
    eye = np.eye(rank, dtype=np.int64)
    if not np.array_equal(N[u], eye):
        problems.append("unit: N[unit][j][k] != delta_jk")
    if not np.array_equal(N[:, u, :], eye):
        problems.append("unit: N[j][unit][k] != delta_jk")
    left = np.einsum("ijm,mkl->ijkl", N, N)
    right = np.einsum("jkm,iml->ijkl", N, N)
    if not np.array_equal(left, right):
        bad = np.argwhere(left != right)
        i, j, k, l = (int(x) for x in bad[0])
        problems.append(
            f"associativity violated at (i,j,k,l)=({i},{j},{k},{l}) "
            f"[{len(bad)} quadruples total]"
        )
    expected = np.zeros((rank, rank), dtype=np.int64)
    for i, di in enumerate(ring.dual):
        expected[i, di] = 1
    if not np.array_equal(N[:, :, u], expected):
        problems.append("duality: N[i][j][unit] != delta_{j, dual(i)}")
    if ring.dual[u] != u or any(ring.dual[ring.dual[i]] != i for i in range(rank)):
        problems.append("dual is not an involution fixing the unit")
    if (N < 0).any():
        problems.append("negative structure constant")
    return problems


def fp_dims(ring: FusionRing) -> list[float]:
    """Frobenius-Perron dimensions: the Perron eigenvector of left multiplication
    by sum_i b_i, M[k][j] = sum_i N[i][j][k], scaled to 1 at the unit."""
    import numpy as np

    values, vectors = np.linalg.eig(np.array(ring.N).sum(axis=0).T.astype(float))
    perron = np.abs(vectors[:, np.argmax(values.real)].real)
    return (perron / perron[ring.unit]).tolist()


# ---------------------------------------------------------------------------
# Center objects
#
# Each family's Drinfeld center as its list of simple objects, each with its
# sector, twist, quantum dimension and the multiplicities of its image under
# the forgetful functor: the tube-algebra centers that ``fsind.center`` counts
# rho's twist histogram from without listing them.  The tests read every
# simple's multiplicities off these lists, and check each counted histogram
# against :func:`twist_histogram` of the list.


class CenterObject(namedtuple("CenterObject", (
    "sector",  # A, Sigma, B, C, E, E1, E2, unit or D
    "twist",  # theta_X = e^{2 pi i twist / period}
    "qdim",  # (a, b): qdim(X) = a + b * d
    "mult",  # base simple label -> multiplicity of F(X)
))):
    __slots__ = ()


class CenterObjects(namedtuple("CenterObjects", (
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


def _objects(rows, den: int, d: float, dim: tuple[int, int]) -> CenterObjects:
    """Objects from rows (sector, twist numerator over den, qdim, mult), with
    den and every numerator divided by their gcd, so the period is exact."""
    step = math.gcd(den, *(row[1] for row in rows))
    period = den // step
    objects = tuple(
        CenterObject(sector, twist // step % period, qdim, mult)
        for sector, twist, qdim, mult in rows
    )
    return CenterObjects(objects, period, d, dim)


def twist_histogram(objects: CenterObjects, target: str) -> dict:
    """Each twist numerator -> qdim(V) * [F(V) : target] summed over its
    objects V, as a pair (a, b).  Over one period, d and dim C, equal
    histograms are exactly equal nu_k(target) at every k."""
    histogram: dict[int, tuple[int, int]] = {}
    for obj in objects.objects:
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
    n, scale = group.order, den // group.exponent
    elems = group.elements()
    labels = [group_label(g) for g in elems]
    rows = [("A", 0, (1, 0), {label: 1}) for label in labels]
    rows.append(("Sigma", 0, (n, 0), dict.fromkeys(labels, 1)))
    for g, label in zip(elems, labels):
        mult = {RHO_LABEL: 1, label: 1}
        rows += [
            ("B", -character_value(group, phi, g) * scale, (n + 1, 0), mult)
            for phi in elems[1:]
        ]
    return rows


def ng1_objects(group: FiniteAbelianGroup, p: int, zeta1: Fraction) -> CenterObjects:
    """The center of the near-group family with m = |G| - 1, object by object.

    Takes G cyclic with |G| + 1 = p^ell, the unit group of F_{p^ell}, as
    :class:`CategorySpec` checks, and reads only ell.  Here d = |G|, so every
    dimension is an integer, written with b = 0.  ``zeta1`` is the exact
    phase of the half-braiding scalar entering the C-object twists.
    """
    n = group.order
    ell = factor_prime_power(n + 1)[1]
    den = math.lcm(n, p, zeta1.denominator)
    rows = _ng1_rows(group, den)
    # C^psi for psi in the dual of the additive group (Z/p)^ell; psi(1) pairs
    # psi with the multiplicative unit, i.e. with coordinate vector (1,0,...,0).
    zeta = int(zeta1 * den)
    rows += [
        ("C", -zeta - f[0] * (den // p), (n, 0), {RHO_LABEL: 1})
        for f in FiniteAbelianGroup((p,) * ell).elements()
    ]
    return _objects(rows, den, n, (n * (n + 1), 0))


def ng1x_objects() -> CenterObjects:
    """The exceptional |G| = 7 center, object by object: C-objects replaced by
    E_1, E_2."""
    rows = _ng1_rows(cyclic(7), 28)
    rows += [("E1", 7, (14, 0), {RHO_LABEL: 2}), ("E2", 21, (14, 0), {RHO_LABEL: 2})]
    return _objects(rows, 28, 7, (56, 0))


def ng2_objects(
    group: FiniteAbelianGroup,
    q: QuadraticForm,
    gp: FiniteAbelianGroup,
    qp: QuadraticForm,
) -> CenterObjects:
    """The center of the near-group family with m = |G|, |G| odd, object by object.

    The second metric group (G', q') has order |G| + 4 and supplies the
    E-object twists; q and q' are non-degenerate forms on G and G'.
    """
    n = group.order
    den = math.lcm(q.den, qp.den)
    v = [x * (den // q.den) for x in q.values]
    vp = [x * (den // qp.den) for x in qp.values]
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
    return _objects(rows, den, (n + math.sqrt(n * n + 4 * n)) / 2, (2 * n, n))


def hi_objects(
    group: FiniteAbelianGroup, h_group: FiniteAbelianGroup, qpp: QuadraticForm
) -> CenterObjects:
    """The center of a Haagerup-Izumi category with |G| odd, object by object.

    The metric group (H, q'') has order |G|^2 + 4 = 2m + 1 and the D-object
    twists are m * q''(x) on unordered pairs {x, -x}; q'' is non-degenerate.
    C_{h,phi} runs over pairs {h, -h} of G and all characters phi of G.
    """
    n = group.order
    m = (h_group.order - 1) // 2
    den = math.lcm(group.exponent, qpp.den)
    scale = den // group.exponent
    elems = group.elements()
    unit_label = group_label(group.identity)
    all_grho = {grho_label(g): 1 for g in elems}
    rows = [("unit", 0, (1, 0), {unit_label: 1}), ("B", 0, (1, n), {unit_label: 1, **all_grho})]
    # characters psi != trivial of G, one per pair {psi, conj(psi)}
    rows += [("A", 0, (2, n), {unit_label: 2, **all_grho})] * ((n - 1) // 2)
    for h in (elems[x] for x in group.pairs()):
        mult = {group_label(h): 1, group_label(neg(group, h)): 1, **all_grho}
        rows += [("C", character_value(group, phi, h) * scale, (2, n), mult) for phi in elems]
    rows += [
        ("D", m * qpp.values[x] * (den // qpp.den), (0, n), all_grho) for x in h_group.pairs()
    ]
    return _objects(rows, den, (n + math.sqrt(n * n + 4)) / 2, (2 * n, n * n))


def center_objects(spec: CategorySpec) -> CenterObjects:
    """The object list of ``spec``'s center."""
    if spec.family == "NG1":
        return ng1_objects(spec.group, spec.p, spec.zeta1)
    if spec.family == "NG1X":
        return ng1x_objects()
    if spec.family == "NG2":
        return ng2_objects(spec.group, spec.q, spec.gp, spec.qp)
    return hi_objects(spec.group, spec.h, spec.qpp)


# ---------------------------------------------------------------------------
# Specs and indicator vectors


def replace(spec: CategorySpec, **changes) -> CategorySpec:
    """A copy of ``spec`` with some fields changed, checked like any new spec."""
    return CategorySpec(**{**spec._asdict(), **changes})


def ng2_spec(
    group: FiniteAbelianGroup, q_printed, gp: FiniteAbelianGroup, qp_printed
) -> CategorySpec:
    """The NG2 spec of printed (twist-convention) monomial coefficients, each
    halved mod its cyclic factor as the bundled rows store them."""
    def halved(on, coeffs):
        factors = on.cyclic_factors
        return monomial_form(on, (c * pow(2, -1, n) for c, n in zip(coeffs, factors, strict=True)))

    return CategorySpec("NG2", group, q=halved(group, q_printed), gp=gp, qp=halved(gp, qp_printed))


def hi_spec(group: FiniteAbelianGroup, h: FiniteAbelianGroup, qpp_printed) -> CategorySpec:
    """The HI spec of printed monomial coefficients of q'', stored as printed."""
    return CategorySpec("HI", group, h=h, qpp=monomial_form(h, qpp_printed))


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
    return IndicatorVector(period, tuple(map(ROUTES[path](spec), range(1, period + 1))))


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
