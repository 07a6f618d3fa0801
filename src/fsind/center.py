"""rho's twist histograms of Drinfel'd centers, counted without their objects.

The indicator summation formula (Ng & Schauenburg, Adv. Math. 2007)

    nu_k(rho) = (1/qdim C) * sum_V  theta_V^k * qdim(V) * [F(V) : rho]

reads a center only through rho's twist histogram: each twist of the simple
objects V of Z(C), summed with weight qdim(V) [F(V) : rho].  A
:class:`CenterPresentation` holds that histogram, with d, dim C and the
center's rank, and nothing else: no object, no fusion ring.  The ring is only
named, by the family of a :class:`fsind.indicators.CategorySpec`; the spec
makes every check on the category's shape, and the builders below take the
groups and forms it has checked.

Each twist is an integer numerator over the presentation's ``period`` N, the
order of the T-matrix, so the periodicity of nu_k in k is exact: a builder
counts its twists over one common denominator and divides out their gcd
(every twist of a center is one of rho's, or 0).

Conventions.  The centers are those of Izumi and of Evans & Gannon
(*Near-group fusion categories and their doubles*, Adv. Math. 2014).  For the
m = |G| family the builder takes the quadratic form q with bicharacter
diagonal <g, g> = e^{2 pi i * 2 q(g)}; twists are

    A_g, B_g: 2 q(g)        C_{g,h}: dq(g, h)       E_{g,x}: 2 q(g) + 2 q'(x)

with C indexed by g < h in G and E by g in G and unordered pairs {x, -x},
x != e in G'.  For the Haagerup-Izumi family the D-object twists are
m * q''(x) with |H| = 2m + 1.  All objects of one sector share their
quantum dimension and their multiplicity of rho, so a sector's share of the
histogram is one count over form values or element orders.  The object lists
themselves, with every simple's multiplicity, are reference code in the test
suite's ``oracles`` module, which the tests check each count against.

Every builder reads forms as integer numerators only.  The S- and T-matrices
of a metric group (Weil modular data) are reference code there too: no
command reads an S-matrix.
"""

from __future__ import annotations

import math
from collections import Counter, namedtuple

from .abelian import FiniteAbelianGroup, cyclic
from .qforms import QuadraticForm


class CenterPresentation(namedtuple("CenterPresentation", (
    "histogram",  # twist numerator -> (a, b): qdim(V) [F(V) : rho] = a + b * d summed over its V
    "period",  # the order of the T-matrix, over which every twist is written
    "d",  # the Frobenius-Perron dimension of rho, at which every (a, b) is read
    "dim",  # dim C = A + B * d, so qdim(Z(C)) = (dim C)^2
    "rank",  # the number of simple objects of the center, by the family's count
))):
    __slots__ = ()

    def at_d(self, pair: tuple[int, int]) -> float:
        return pair[0] + pair[1] * self.d


def _presentation(sectors, den: int, d: float, dim: tuple[int, int], rank: int):
    """rho's histogram from ``sectors``, pairs (one object's qdim(V) [F(V) : rho]
    as (a, b), twist numerator over den -> that sector's object count), with den
    and every numerator divided by their gcd, so the period is exact."""
    sectors = [(weight, {t: n for t, n in counts.items() if n}) for weight, counts in sectors]
    step = math.gcd(den, *(t for _, counts in sectors for t in counts))
    period = den // step
    histogram: dict[int, tuple[int, int]] = {}
    for (a, b), counts in sectors:
        for twist, n in counts.items():
            x, y = histogram.get(twist // step, (0, 0))
            histogram[twist // step] = (x + a * n, y + b * n)
    return CenterPresentation(histogram, period, d, dim, rank)


def _pairing_counts(group: FiniteAbelianGroup, den: int) -> Counter:
    """Numerator over den -> the number of ordered pairs (g, h) of G at which a
    non-degenerate pairing G x G -> Q/Z takes that value; den is a multiple of
    exp G.  h -> <g, h> is a character of order ord(g), so it takes each multiple
    of 1/ord(g) exactly |G|/ord(g) times, whatever the pairing: the counts, each
    also that of its negative, read the element orders alone."""
    factors = group.cyclic_factors
    orders = Counter(
        math.lcm(*(n // math.gcd(r, n) for r, n in zip(g, factors))) for g in group.elements()
    )
    counts: Counter = Counter()
    for order, elements in orders.items():
        for j in range(order):
            counts[j * (den // order)] += elements * (group.order // order)
    return counts


def _ng1_b(group: FiniteAbelianGroup, den: int):
    """The B sector of an m = |G| - 1 center, twists -<phi, g> over den for g in G
    and each nontrivial character phi: the pairing's counts less phi = 1, which
    gives 0 at every g.  Each object has qdim |G| + 1 and maps to rho once."""
    counts = _pairing_counts(group, den)
    counts[0] -= group.order
    return (group.order + 1, 0), counts


def center_ng1(group: FiniteAbelianGroup, p: int, zeta1: Fraction) -> CenterPresentation:
    """Center data for the near-group family with m = |G| - 1.

    Takes G cyclic with |G| + 1 = p^ell, the unit group of F_{p^ell}, as
    :class:`CategorySpec` checks.  Here d = |G|, so every dimension is an
    integer, written with b = 0.  ``zeta1`` is the exact phase of the
    half-braiding scalar entering the C-object twists.  rho's sectors are B
    and C; A_g and Sigma do not map to rho.
    """
    n = group.order
    den = math.lcm(n, p, zeta1.denominator)
    # C^psi for psi in the dual of the additive group (Z/p)^ell, twist
    # -zeta1 - psi(1)/p: psi(1) takes each value of Z/p exactly p^ell / p times
    zeta = int(zeta1 * den)
    c = {(-zeta - f * (den // p)) % den: (n + 1) // p for f in range(p)}
    sectors = [_ng1_b(group, den), ((n, 0), c)]
    rank = n + 1 + n * (n - 1) + n + 1  # A, Sigma, B, C
    return _presentation(sectors, den, n, (n * (n + 1), 0), rank)


def center_ng1_exceptional7() -> CenterPresentation:
    """The exceptional |G| = 7 center: C-objects replaced by E_1, E_2, each of
    qdim 14 with [F(E_i) : rho] = 2, twists 1/4 and 3/4."""
    sectors = [_ng1_b(cyclic(7), 28), ((28, 0), {7: 1, 21: 1})]
    return _presentation(sectors, 28, 7, (56, 0), 7 + 1 + 7 * 6 + 2)


def center_ng2(
    group: FiniteAbelianGroup,
    q: QuadraticForm,
    gp: FiniteAbelianGroup,
    qp: QuadraticForm,
) -> CenterPresentation:
    """Center data for the near-group family with m = |G|, |G| odd.

    The second metric group (G', q') has order |G| + 4 and supplies the
    E-object twists; q and q' are non-degenerate forms on G and G'.  rho's
    sectors are B, C and E; A_g maps to g only.
    """
    n = group.order
    den = math.lcm(q.den, qp.den)
    twice = Counter(2 * value * (den // q.den) % den for value in q.values)  # 2 q(g)
    twice_p = Counter(2 * qp.values[x] * (den // qp.den) % den for x in gp.pairs())
    # dq is a non-degenerate pairing: its ordered pairs (g, h) less the diagonal
    # dq(g, g) = 2 q(g), halved, since dq is symmetric
    c = {t: count // 2 for t, count in (_pairing_counts(group, den) - twice).items()}
    e: Counter = Counter()  # the convolution of 2 q on G and 2 q' on the pairs of G'
    for s, i in twice.items():
        for t, j in twice_p.items():
            e[(s + t) % den] += i * j
    sectors = [((1, 1), twice), ((2, 1), c), ((0, 1), e)]
    rank = 2 * n + n * (n - 1) // 2 + n * (gp.order - 1) // 2  # A, B, C, E
    return _presentation(sectors, den, (n + math.sqrt(n * n + 4 * n)) / 2, (2 * n, n), rank)


def center_hi(
    group: FiniteAbelianGroup, h_group: FiniteAbelianGroup, qpp: QuadraticForm
) -> CenterPresentation:
    """Center data for a Haagerup-Izumi category with |G| odd.

    The metric group (H, q'') has order |G|^2 + 4 = 2m + 1 and the D-object
    twists are m * q''(x) on unordered pairs {x, -x}; q'' is non-degenerate.
    C_{h,phi} runs over pairs {h, -h} of G and all characters phi of G.
    Every object but the unit maps to each g rho once, so rho's histogram is
    that of every g rho.
    """
    n = group.order
    m = (h_group.order - 1) // 2
    den = math.lcm(group.exponent, qpp.den)
    # h and -h pair alike with the characters: half the pairing's counts at h != e
    c = _pairing_counts(group, den)
    c[0] -= n
    d = Counter(m * qpp.values[x] * (den // qpp.den) % den for x in h_group.pairs())
    sectors = [
        ((1, n), {0: 1}),  # B
        ((2, n), {0: (n - 1) // 2}),  # A, one per pair {psi, conj(psi)} of characters psi != 1
        ((2, n), {t: count // 2 for t, count in c.items()}),  # C
        ((0, n), d),  # D
    ]
    rank = 2 + (n - 1) // 2 + n * (n - 1) // 2 + (h_group.order - 1) // 2  # unit, B, A, C, D
    return _presentation(sectors, den, (n + math.sqrt(n * n + 4)) / 2, (2 * n, n * n), rank)
