import functools
import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from conftest import p_plus
from fsind.abelian import (
    RHO_LABEL,
    FiniteAbelianGroup,
    cyclic,
    factor_prime_power,
    group_label,
    grho_label,
    prime_factors,
)
from fsind.center import (
    CenterPresentation,
    center_hi,
    center_ng1,
    center_ng1_exceptional7,
    center_ng2,
)
from fsind.fusion import make_hi_ring, make_near_group_ring
from fsind.indicators import CategorySpec, center_values
from fsind.qforms import DEFAULT_TOL, monomial_form, phase_to_complex
from fsind.tables import builtin_rows, load_hi_spec, load_ng2_spec
from oracles import (
    boundary,
    center_objects,
    character_value,
    fp_dims,
    hi_objects,
    indicator_vector,
    ng1_equivalence_classes,
    ng1_objects,
    ng1x_objects,
    ng2_objects,
    neg,
    twist_histogram,
    value,
    weil_modular_data,
)

TOL = 1e-9

Q3 = monomial_form(cyclic(3), (1,))
Q7NEG = monomial_form(cyclic(7), (-1,))


def _twists(pres, sector):
    """The exact phases of one sector's objects, in builder order."""
    return [Fraction(o.twist, pres.period) for o in pres.objects if o.sector == sector]


def test_center_ng1_object_count_and_twists():
    pres = ng1_objects(cyclic(2), 3, Fraction(0))
    assert pres.rank == 2 + 1 + 2 * 1 + 3 == 8 == center_ng1(cyclic(2), 3, Fraction(0)).rank
    # B-objects at g = e carry trivial twist for every character
    assert _twists(pres, "B")[:1] == [0]
    # C twists collapse to equal values at p | k
    c_twists = _twists(pres, "C")
    assert len(c_twists) == 3
    powers = {(3 * t) % 1 for t in c_twists}
    assert powers == {Fraction(0)}


def test_center_ng1_rejects_bad_shapes():
    # the spec checks NG1's field; the center builder only reads ell
    with pytest.raises(ValueError, match=r"\|G\| \+ 1 = 5 is not a power of p = 3"):
        CategorySpec("NG1", cyclic(4), p=3, zeta1=Fraction(0))
    with pytest.raises(ValueError, match="require a cyclic group"):
        CategorySpec("NG1", FiniteAbelianGroup((2, 2)), p=5, zeta1=Fraction(0))
    # |G| + 1 = 5 = 5^1 is admissible: Rep(AGL_1(F_5))
    assert center_ng1(cyclic(4), 5, Fraction(0)).rank == 4 + 1 + 4 * 3 + 5


@pytest.mark.parametrize(
    "factors,cyclic_order,p", [((1, 3), 3, 2), ((3, 1), 3, 2), ((3, 5), 15, 2)]
)
def test_center_ng1_accepts_cyclic_groups_with_trivial_or_coprime_factors(
    factors, cyclic_order, p
):
    """Z/3 written [1, 3] or [3, 1], and Z/15 = F_16^* written [3, 5]."""
    for zeta1 in (Fraction(0), Fraction(1, 4)):
        spec = CategorySpec("NG1", FiniteAbelianGroup(factors), p=p, zeta1=zeta1)
        reference = CategorySpec("NG1", cyclic(cyclic_order), p=p, zeta1=zeta1)
        assert spec.center() == reference.center()
        for path in ("center", "closed"):
            vec, ref_vec = indicator_vector(spec, path), indicator_vector(reference, path)
            assert vec.period == ref_vec.period
            assert all(abs(z - w) < 1e-12 for z, w in zip(vec.values, ref_vec.values))


def test_center_ng1_exceptional7():
    pres = ng1x_objects()
    assert pres.rank == 7 + 1 + 7 * 6 + 2 == 52 == center_ng1_exceptional7().rank
    e1 = next(o for o in pres.objects if o.sector == "E1")
    e2 = next(o for o in pres.objects if o.sector == "E2")
    assert e1.mult == {"rho": 2} and e2.mult == {"rho": 2}
    t1, t2 = _twists(pres, "E1") + _twists(pres, "E2")
    assert (t1, t2) == (Fraction(1, 4), Fraction(3, 4))
    for k in range(1, 9):
        total = phase_to_complex(k * t1) + phase_to_complex(k * t2)
        expected = 1j**k * (1 + (-1) ** k)
        assert abs(total - expected) < TOL


def test_center_ng2_counts_and_twists():
    pres = ng2_objects(cyclic(3), Q3, cyclic(7), Q7NEG)
    sectors = [obj.sector for obj in pres.objects]
    assert sectors.count("A") == 3
    assert sectors.count("B") == 3
    assert sectors.count("C") == 3
    assert sectors.count("E") == 9  # |G| (|G|+3) / 2
    assert _twists(pres, "A")[0] == 0  # A_(0)
    assert _twists(pres, "B")[1] == Fraction(2, 3)  # B_(1): 2 q(1)
    assert pres.period == 21 == center_ng2(cyclic(3), Q3, cyclic(7), Q7NEG).period


def test_center_ng2_count_formula_g5():
    q5 = monomial_form(cyclic(5), (1,))
    q9 = monomial_form(cyclic(9), (1,))
    pres = ng2_objects(cyclic(5), q5, cyclic(9), q9)
    sectors = [obj.sector for obj in pres.objects]
    assert sectors.count("C") == 5 * 4 // 2
    assert sectors.count("E") == 5 * 8 // 2
    assert pres.rank == 5 + 5 + 10 + 20 == center_ng2(cyclic(5), q5, cyclic(9), q9).rank


def test_center_ng2_validation():
    # the spec owns these checks; the center builder takes checked data
    with pytest.raises(ValueError, match="odd"):
        CategorySpec(
            "NG2", cyclic(2),
            q=monomial_form(cyclic(2), (0,)), gp=cyclic(6), qp=monomial_form(cyclic(6), (0,)),
        )
    with pytest.raises(ValueError, match=r"\|Gp\| must be 7"):
        CategorySpec("NG2", cyclic(3), q=Q3, gp=cyclic(9), qp=monomial_form(cyclic(9), (1,)))
    with pytest.raises(ValueError, match="qp must be non-degenerate"):
        CategorySpec("NG2", cyclic(3), q=Q3, gp=cyclic(7), qp=monomial_form(cyclic(7), (0,)))


def test_spec_checks_each_form_on_its_group():
    # G' = Z/3 x Z/3 has the order |G| + 4 = 9 of Z/9, but q' lives on Z/9
    q5 = monomial_form(cyclic(5), (1,))
    with pytest.raises(ValueError, match="qp must live on gp"):
        CategorySpec("NG2", cyclic(5), q=q5, gp=FiniteAbelianGroup((3, 3)),
                     qp=monomial_form(cyclic(9), (1,)))
    with pytest.raises(ValueError, match="q must live on group"):
        CategorySpec("NG2", cyclic(5), q=monomial_form(cyclic(9), (1,)), gp=cyclic(9), qp=q5)
    with pytest.raises(ValueError, match="qpp must be non-degenerate"):
        CategorySpec("HI", cyclic(3), h=cyclic(13), qpp=monomial_form(cyclic(13), (0,)))


def test_center_hi_counts_and_mults():
    pres = hi_objects(cyclic(3), cyclic(13), monomial_form(cyclic(13), (1,)))
    sectors = [obj.sector for obj in pres.objects]
    assert sectors.count("D") == 6  # (|G|^2 + 3) / 2
    assert sectors.count("C") == 3  # one pair, three chars
    assert sectors.count("A") == 1
    b = next(o for o in pres.objects if o.sector == "B")
    assert b.mult["g:(0)"] == 1 and b.mult["grho:(0)"] == 1
    assert len(b.mult) == 4


def test_center_hi_yang_lee_has_four_objects():
    pres = hi_objects(cyclic(1), cyclic(5), monomial_form(cyclic(5), (1,)))
    assert pres.rank == 4 == center_hi(cyclic(1), cyclic(5), monomial_form(cyclic(5), (1,))).rank
    assert sorted(o.sector for o in pres.objects) == ["B", "D", "D", "unit"]


@pytest.mark.parametrize(
    "pres,ring",
    [
        (ng1_objects(cyclic(2), 3, Fraction(0)), make_near_group_ring(cyclic(2), 1)),
        (ng1x_objects(), make_near_group_ring(cyclic(7), 6)),
        (ng2_objects(cyclic(3), Q3, cyclic(7), Q7NEG), make_near_group_ring(cyclic(3), 3)),
        (
            hi_objects(cyclic(3), cyclic(13), monomial_form(cyclic(13), (1,))),
            make_hi_ring(cyclic(3)),
        ),
    ],
    ids=["ng1", "ng1x7", "ng2", "hi"],
)
def test_qdims_match_forgetful_multiplicities(pres, ring):
    dims = fp_dims(ring)
    labels = ring.labels
    total = sum(d * d for d in dims)
    assert abs(total - pres.at_d(pres.dim)) < 1e-7
    for obj in pres.objects:
        expected = sum(m * dims[labels.index(s)] for s, m in obj.mult.items())
        assert abs(expected - pres.at_d(obj.qdim)) < 1e-7, obj.sector


# (m, c) with d^2 = m d + c for the root d of each family, given |G|
ROOT_POLYNOMIAL = {
    "NG1": lambda n: (n - 1, n),
    "NG1X": lambda n: (n - 1, n),
    "NG2": lambda n: (n, n),
    "HI": lambda n: (n, 1),
}


def _times(x, y, m, c):
    """(a + b d)(a' + b' d) as a pair, reduced with d^2 = m d + c."""
    (a, b), (a2, b2) = x, y
    return (a * a2 + b * b2 * c, a * b2 + a2 * b + b * b2 * m)


def _squared(pair, m, c):
    """(a + b d)^2 as a pair, reduced with d^2 = m d + c."""
    return _times(pair, pair, m, c)


def _same_number(x, y, m, c) -> bool:
    """x = y as numbers a + b d, d the positive root of d^2 = m d + c, exactly.

    An irrational d (NG2, HI) is independent of 1 over Q, so the pairs must
    agree; a rational d is an integer (d = |G| for NG1), and the values must.
    """
    root = math.isqrt(m * m + 4 * c)
    if root * root != m * m + 4 * c:
        return x == y
    d = (m + root) // 2
    return x[0] + x[1] * d == y[0] + y[1] * d


def _identity_specs():
    specs = [row.spec for row in builtin_rows()]
    specs += [spec for n in (1, 2, 3, 7) for spec in ng1_equivalence_classes(n)]
    for g, gp in (((1,), (5,)), ((3,), (7,)), ((5,), (9,)), ((5,), (3, 3)), ((3, 3), (13,))):
        group, gp = FiniteAbelianGroup(g), FiniteAbelianGroup(gp)
        for q, qp in itertools.product(_unit_forms(group), _unit_forms(gp)):
            specs.append(CategorySpec("NG2", group, q=q, gp=gp, qp=qp))
    for n in (1, 3, 5):
        h = cyclic(n * n + 4)
        specs += [CategorySpec("HI", cyclic(n), h=h, qpp=qpp) for qpp in _unit_forms(h)]
    return specs


def _unit_forms(group):
    units = [[c for c in range(n) if math.gcd(c, n) == 1] for n in group.cyclic_factors]
    return [monomial_form(group, coeffs) for coeffs in itertools.product(*units)]


def test_center_dimension_identity_is_exact():
    """sum_V qdim(V)^2 = (dim C)^2 in Z[d] for every center builder."""
    specs = _identity_specs()
    assert {spec.family for spec in specs} == set(ROOT_POLYNOMIAL)
    for spec in specs:
        pres = center_objects(spec)
        m, c = ROOT_POLYNOMIAL[spec.family](spec.group.order)
        assert abs(pres.d**2 - (m * pres.d + c)) < 1e-9 * pres.d**2, spec.describe()
        squares = [_squared(obj.qdim, m, c) for obj in pres.objects]
        total = (sum(a for a, _ in squares), sum(b for _, b in squares))
        assert total == _squared(pres.dim, m, c), spec.describe()


def test_induction_dimension_identity_is_exact():
    """sum_V qdim(V) [F(V) : X] = d_X dim C in Z[d] for every simple X of C,
    the dimension of the induction of X."""
    for spec in _identity_specs():
        pres = center_objects(spec)
        m, c = ROOT_POLYNOMIAL[spec.family](spec.group.order)
        totals = {}  # simple X -> sum_V qdim(V) [F(V) : X]
        for obj in pres.objects:
            for label, mult in obj.mult.items():
                a, b = totals.get(label, (0, 0))
                totals[label] = (a + mult * obj.qdim[0], b + mult * obj.qdim[1])
        elements = spec.group.elements()
        invertible = {group_label(g) for g in elements}
        others = {grho_label(g) for g in elements} if spec.family == "HI" else {RHO_LABEL}
        assert set(totals) == invertible | others, spec.describe()
        for label, total in totals.items():
            d_x = (1, 0) if label in invertible else (0, 1)
            expected = _times(d_x, pres.dim, m, c)
            assert _same_number(total, expected, m, c), (spec.describe(), label)


def test_object_dimension_is_its_image_dimension():
    """qdim(V) = sum_X d_X [F(V) : X] in Z[d] for every object V of C: the
    forgetful functor keeps dimensions."""
    objects = 0
    for spec in _identity_specs():
        pres = center_objects(spec)
        m, c = ROOT_POLYNOMIAL[spec.family](spec.group.order)
        invertible = {group_label(g) for g in spec.group.elements()}
        for obj in pres.objects:
            image = [(mult, 0) if label in invertible else (0, mult)
                     for label, mult in obj.mult.items()]
            total = (sum(a for a, _ in image), sum(b for _, b in image))
            assert _same_number(obj.qdim, total, m, c), (spec.describe(), obj.sector)
        objects += pres.rank
    assert objects == 10_358


def test_p_plus_equals_dim_exactly_when_nu1_vanishes():
    """p+ = sum_V theta_V qdim(V)^2 equals dim C, to relative DEFAULT_TOL,
    exactly when nu_1(rho) = 0: a center datum that decides what nu_1 does."""
    specs = _identity_specs()
    unequal = 0
    for spec in specs:
        pres = center_objects(spec)
        dim = pres.at_d(pres.dim)
        equal = abs(p_plus(pres) - dim) <= DEFAULT_TOL * abs(dim)
        nu1 = center_values(spec.center())(1)
        assert equal == (abs(nu1) < DEFAULT_TOL), spec.describe()
        unequal += not equal
    assert (len(specs), unequal) == (183, 78)  # both outcomes occur


def _period_specs():
    """Specs beyond the identity specs: seeded unit-form NG2 specs, HI specs
    for |G| <= 9 and NG1 over every Z/n with n + 1 = p^l <= 32 at five zeta1."""
    rng = random.Random(22)
    specs = []
    for g in ((21,), (3, 7), (51,), (9,), (3, 3), (15,), (5, 5), (27,), (3, 9)):
        group = FiniteAbelianGroup(g)
        gp = cyclic(group.order + 4)
        for _ in range(4):
            q, qp = rng.choice(_unit_forms(group)), rng.choice(_unit_forms(gp))
            specs.append(CategorySpec("NG2", group, q=q, gp=gp, qp=qp))
    for g in ((1,), (3,), (5,), (7,), (9,), (3, 3)):
        group = FiniteAbelianGroup(g)
        h = cyclic(group.order**2 + 4)
        specs += [CategorySpec("HI", group, h=h, qpp=rng.choice(_unit_forms(h))) for _ in range(3)]
    zetas = [Fraction(z) for z in ("0", "1/4", "2/9", "1/12", "5/6")]
    for n in range(1, 32):
        field = prime_factors(n + 1)
        if len(field) == 1:
            specs += [CategorySpec("NG1", cyclic(n), p=field[0][0], zeta1=z) for z in zetas]
    return specs


def test_period_formula_is_the_center_period():
    """The family's period formula, read from the spec's groups alone, is the
    gcd-reduced twist denominator of the center, on every spec checked."""
    specs = _identity_specs() + _period_specs()
    for spec in specs:
        assert spec.period() == spec.center().period, spec.describe()
    assert len(specs) == 183 + 36 + 18 + 90


def _ladder_specs():
    """Seeded NG2 specs over the benchmark's ladder groups, unit coefficients
    drawn for each cyclic factor of G and then of G'."""
    rng = random.Random(31)
    specs = []
    for g, gp in (((21,), (25,)), ((3, 7), (5, 5)), ((51,), (55,))):
        group, gp = FiniteAbelianGroup(g), FiniteAbelianGroup(gp)
        for _ in range(3):
            q, qp = rng.choice(_unit_forms(group)), rng.choice(_unit_forms(gp))
            specs.append(CategorySpec("NG2", group, q=q, gp=gp, qp=qp))
    return specs


def test_counted_histogram_is_the_listed_one():
    """Each builder's counted histogram, period, d, dim C and rank are those
    summed from the center's object list, on every identity spec (the bundled
    rows among them) and on seeded ladder specs; the center vectors of the two
    histograms are the same floats over a whole period."""
    specs = _identity_specs() + _ladder_specs()
    for spec in specs:
        counted, listed = spec.center(), center_objects(spec)
        summed = CenterPresentation(
            twist_histogram(listed, spec.rho_label()),
            listed.period, listed.d, listed.dim, listed.rank,
        )
        assert counted == summed, spec.describe()
        ks = range(1, spec.period() + 1)
        counted_nu, summed_nu = center_values(counted), center_values(summed)
        assert [*map(counted_nu, ks)] == [*map(summed_nu, ks)], spec.describe()
    assert len(specs) == 183 + 9


@functools.cache
def _simple_vectors():
    """(spec, its center, nu_k(X) for k = 0..N-1 for every simple X) for each
    identity spec, by one FFT per simple of its twist histogram read at d; the
    value of k lies at index k mod N."""
    data = []
    for spec in _identity_specs():
        pres = center_objects(spec)
        labels = {label for obj in pres.objects for label in obj.mult}
        vectors = {}
        for label in labels:
            weights = np.zeros(pres.period, complex)
            for twist, pair in twist_histogram(pres, label).items():
                weights[twist] = pres.at_d(pair)
            vectors[label] = np.fft.ifft(weights) * pres.period / pres.at_d(pres.dim)
        data.append((spec, pres, vectors))
    return data


def test_frobenius_schur_exponent_is_the_period():
    """The smallest n with nu_n(X) = d_X for every simple X is N, the order
    of T (Ng & Schauenburg 2007: FSexp = ord T)."""
    for spec, pres, vectors in _simple_vectors():
        dims = {x: 1 if x.startswith("g:") else pres.d for x in vectors}
        exponent = next(
            n for n in range(1, pres.period + 1)
            if all(abs(v[n % pres.period] - dims[x]) < TOL for x, v in vectors.items())
        )
        assert exponent == pres.period, spec.describe()


def test_period_primes_are_the_primes_of_the_norm_of_dim():
    """Cauchy's theorem: N and Norm(dim C) have the same primes (Bruillard,
    Ng, Rowell & Wang 2016), with Norm(A + B d) = A^2 + A B m - B^2 c for
    d^2 = m d + c, exact; for NG1, B = 0 and the norm A^2 has the primes of A."""
    for spec, pres, _ in _simple_vectors():
        m, c = ROOT_POLYNOMIAL[spec.family](spec.group.order)
        a, b = pres.dim
        norm = a * a + a * b * m - b * b * c
        primes = [{p for p, _ in prime_factors(abs(x))} for x in (pres.period, norm)]
        assert primes[0] == primes[1], spec.describe()


def test_second_indicator_is_zero_or_a_sign():
    """nu_2(X) lies in {0, 1, -1} for every simple X."""
    for spec, pres, vectors in _simple_vectors():
        for label, vector in vectors.items():
            nu2 = vector[2 % pres.period]
            assert min(abs(nu2 - e) for e in (0, 1, -1)) < TOL, (spec.describe(), label)


def test_invertible_indicators_count_roots_of_unity():
    """nu_k(g) = [k g = e] for every invertible g and k over one period: the
    pointed part is Vec_G with trivial associator."""
    for spec, pres, vectors in _simple_vectors():
        ks = np.arange(pres.period)
        for g in spec.group.elements():
            killed = np.ones(pres.period, bool)
            for x, n in zip(g, spec.group.cyclic_factors):
                killed &= ks * x % n == 0
            assert np.abs(vectors[group_label(g)] - killed).max() < TOL, spec.describe()


def test_higher_central_charges_are_positive_reals():
    """p_n = sum_V theta_V^n qdim(V)^2 over the simples V of the center is a
    positive real for every n coprime to N, on each bundled row: a Drinfeld
    center is Witt-trivial, so each of its higher central charges is 1 (Ng,
    Rowell, Wang & Zhang, *Higher central charges and Witt groups*, 2022).
    It holds on the rows of the nu_1 red set too, so it cannot see them."""
    rows = builtin_rows()
    for row in rows:
        pres = center_objects(row.spec)
        period = pres.period
        weights = {}  # twist numerator -> sum of qdim(V)^2 over its simples V
        for obj in pres.objects:
            weights[obj.twist] = weights.get(obj.twist, 0) + pres.at_d(obj.qdim) ** 2
        for n in (n for n in range(1, period + 1) if math.gcd(n, period) == 1):
            p = sum(w * phase_to_complex(n * t % period / period) for t, w in weights.items())
            assert p.real > 0 and abs(p.imag) <= TOL * p.real, (row.spec.describe(), n, p)
    assert len(rows) == 26


def test_first_indicator_is_one_on_the_unit_only_but_the_red_set():
    """nu_1(X) = [X = 1] for every simple X of the 26 rows and the 9 NG1
    classes, but on every g rho of hi3 and hi5 rows 3-4, where it is 1: the
    red set of criterion 5, pinned so that a new failure cannot hide in it."""
    rows = builtin_rows()
    names = [(row.table_id, row.row_id) for row in rows] + [("ng1", i) for i in range(9)]
    red = {("hi3", 3), ("hi3", 4), ("hi5", 3), ("hi5", 4)}
    failing = set()
    for name, (spec, pres, vectors) in zip(names, _simple_vectors()):
        unit = group_label(spec.group.identity)
        nu1 = {x: v[1 % pres.period] for x, v in vectors.items()}
        failing |= {(name, x) for x, nu in nu1.items() if abs(nu - (x == unit)) >= TOL}
    assert [spec for spec, _, _ in _simple_vectors()[26:35]] == [
        spec for n in (1, 2, 3, 7) for spec in ng1_equivalence_classes(n)
    ]
    expected = {(name, grho_label((g,))) for name in red for g in range(int(name[0][2:]))}
    assert len(expected) == 16 and failing == expected


def _pairs(group):
    """One element of each pair {x, -x}, x != e, the lex smaller."""
    return [x for x in group.elements()[1:] if x <= neg(group, x)]


def _expected_twists(spec):
    """Each sector's twists in builder order, from the exact form values of
    ``oracles`` and the character pairing of abelian: the formulas of the
    center module's docstring."""
    group = spec.group
    elems = group.elements()

    def character(h, g):
        return Fraction(character_value(group, h, g), group.exponent)

    if spec.family in ("NG1", "NG1X"):
        twists = {
            "A": [0] * len(elems),
            "Sigma": [0],
            "B": [-character(phi, g) for g in elems for phi in elems[1:]],
        }
        if spec.family == "NG1X":
            return twists | {"E1": [Fraction(1, 4)], "E2": [Fraction(3, 4)]}
        p, ell = factor_prime_power(len(elems) + 1)
        field = FiniteAbelianGroup((p,) * ell).elements()
        return twists | {"C": [-(spec.zeta1 + Fraction(f[0], p)) for f in field]}
    if spec.family == "NG2":
        q, qp = spec.q, spec.qp
        return {
            "A": [2 * value(q, g) for g in elems],
            "B": [2 * value(q, g) for g in elems],
            "C": [boundary(q, g, h) for i, g in enumerate(elems) for h in elems[i + 1 :]],
            "E": [2 * value(q, g) + 2 * value(qp, x) for g in elems for x in _pairs(spec.gp)],
        }
    m = (spec.h.order - 1) // 2
    return {
        "unit": [0],
        "B": [0],
        "A": [0] * ((len(elems) - 1) // 2),
        "C": [character(phi, h) for h in _pairs(group) for phi in elems],
        "D": [m * value(spec.qpp, x) for x in _pairs(spec.h)],
    }


def test_integer_twists_match_exact_phases():
    """Fraction(twist, period) is each sector's formula, and the period is
    exactly the T-matrix order: no common factor is left in the numerators."""
    specs = _identity_specs()
    assert {spec.family for spec in specs} == {"NG1", "NG1X", "NG2", "HI"}
    for spec in specs:
        pres = center_objects(spec)
        assert math.gcd(pres.period, *(obj.twist for obj in pres.objects)) == 1
        assert all(0 <= obj.twist < pres.period for obj in pres.objects)
        sectors = {obj.sector: _twists(pres, obj.sector) for obj in pres.objects}
        expected = {s: [t % 1 for t in ts] for s, ts in _expected_twists(spec).items() if ts}
        assert sectors == expected, spec.describe()


def test_weil_modular_data_examples():
    S, T = map(np.array, weil_modular_data(Q3))
    expected_diag = [1, np.exp(2j * np.pi / 3), np.exp(2j * np.pi / 3)]
    assert np.allclose(np.diag(T), expected_diag, atol=TOL)
    assert np.allclose(S, S.T, atol=TOL)
    S5, T5 = map(np.array, weil_modular_data(monomial_form(cyclic(5), (2,))))
    assert np.abs(S5 @ S5.conj().T - np.eye(5)).max() < TOL
    assert np.abs(np.abs(np.diag(T5)) - 1).max() < TOL
    with pytest.raises(ValueError):
        weil_modular_data(monomial_form(cyclic(9), (3,)))


def test_orientation_calibration_keeps_the_forms_as_loaded():
    # the wrong orientation of q' on Z/11 fails the nu_1 oracle and is kept as printed
    spec, notes = load_ng2_spec(cyclic(7), (1,), cyclic(11), (2,))
    assert notes[-1] == "orientation: calibration failed, nu_1(rho) != 0 with forms as loaded"
    assert spec.qp.scaled(2).values == monomial_form(cyclic(11), (2,)).values
    _, reference_notes = load_ng2_spec(cyclic(7), (1,), cyclic(11), (-2,))
    assert reference_notes[-1] == "orientation: nu_1(rho) = 0 with forms as loaded"


def test_orientation_calibration_failure_is_recorded():
    # the sign '-' Haagerup-Izumi data admits no orientation with nu_1 = 0
    _, notes = load_hi_spec(cyclic(3), cyclic(13), (2,))
    assert any("calibration failed" in note for note in notes)
