import itertools
import math
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
)
from fsind.center import (
    center_hi,
    center_ng1,
    center_ng1_exceptional7,
    center_ng2,
    twist_histogram,
    weil_modular_data,
)
from fsind.fusion import fp_dims, make_hi_ring, make_near_group_ring
from fsind.indicators import (
    CategorySpec,
    center_vector,
    indicator_vector,
    ng1_equivalence_classes,
)
from fsind.qforms import DEFAULT_TOL, monomial_form, phase_to_complex
from fsind.tables import builtin_rows, load_hi_spec, load_ng2_spec

TOL = 1e-9

Q3 = monomial_form(cyclic(3), (1,))
Q7NEG = monomial_form(cyclic(7), (-1,))


def _twists(pres, sector):
    """The exact phases of one sector's objects, in builder order."""
    return [Fraction(o.twist, pres.period) for o in pres.objects if o.sector == sector]


def test_center_ng1_object_count_and_twists():
    pres = center_ng1(cyclic(2), 3, Fraction(0))
    assert pres.rank == 2 + 1 + 2 * 1 + 3 == 8
    # B-objects at g = e carry trivial twist for every character
    assert _twists(pres, "B")[:1] == [0]
    # C twists collapse to equal values at p | k
    c_twists = _twists(pres, "C")
    assert len(c_twists) == 3
    powers = {(3 * t) % 1 for t in c_twists}
    assert powers == {Fraction(0)}


def test_center_ng1_rejects_bad_shapes():
    with pytest.raises(ValueError):
        center_ng1(cyclic(4), 3, Fraction(0))  # |G| + 1 = 5 is not a power of 3
    with pytest.raises(ValueError, match="require a cyclic group"):
        center_ng1(FiniteAbelianGroup((2, 2)), 5, Fraction(0))  # not cyclic
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
        pres, ref = spec.center(), reference.center()
        assert (pres.rank, pres.period, pres.dim) == (ref.rank, ref.period, ref.dim)
        assert twist_histogram(pres, "rho") == twist_histogram(ref, "rho")
        for path in ("center", "closed"):
            vec, ref_vec = indicator_vector(spec, path), indicator_vector(reference, path)
            assert vec.period == ref_vec.period
            assert all(abs(z - w) < 1e-12 for z, w in zip(vec.values, ref_vec.values))


def test_center_ng1_exceptional7():
    pres = center_ng1_exceptional7()
    assert pres.rank == 7 + 1 + 7 * 6 + 2 == 52
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
    pres = center_ng2(cyclic(3), Q3, cyclic(7), Q7NEG)
    sectors = [obj.sector for obj in pres.objects]
    assert sectors.count("A") == 3
    assert sectors.count("B") == 3
    assert sectors.count("C") == 3
    assert sectors.count("E") == 9  # |G| (|G|+3) / 2
    assert _twists(pres, "A")[0] == 0  # A_(0)
    assert _twists(pres, "B")[1] == Fraction(2, 3)  # B_(1): 2 q(1)
    assert pres.period == 21


def test_center_ng2_count_formula_g5():
    q5 = monomial_form(cyclic(5), (1,))
    q9 = monomial_form(cyclic(9), (1,))
    pres = center_ng2(cyclic(5), q5, cyclic(9), q9)
    sectors = [obj.sector for obj in pres.objects]
    assert sectors.count("C") == 5 * 4 // 2
    assert sectors.count("E") == 5 * 8 // 2


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
    pres = center_hi(cyclic(3), cyclic(13), monomial_form(cyclic(13), (1,)))
    sectors = [obj.sector for obj in pres.objects]
    assert sectors.count("D") == 6  # (|G|^2 + 3) / 2
    assert sectors.count("C") == 3  # one pair, three chars
    assert sectors.count("A") == 1
    b = next(o for o in pres.objects if o.sector == "B")
    assert b.mult["g:(0)"] == 1 and b.mult["grho:(0)"] == 1
    assert len(b.mult) == 4


def test_center_hi_yang_lee_has_four_objects():
    pres = center_hi(cyclic(1), cyclic(5), monomial_form(cyclic(5), (1,)))
    assert pres.rank == 4
    assert sorted(o.sector for o in pres.objects) == ["B", "D", "D", "unit"]


@pytest.mark.parametrize(
    "pres,ring",
    [
        (center_ng1(cyclic(2), 3, Fraction(0)), make_near_group_ring(cyclic(2), 1)),
        (center_ng1_exceptional7(), make_near_group_ring(cyclic(7), 6)),
        (center_ng2(cyclic(3), Q3, cyclic(7), Q7NEG), make_near_group_ring(cyclic(3), 3)),
        (
            center_hi(cyclic(3), cyclic(13), monomial_form(cyclic(13), (1,))),
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
        pres = spec.center()
        m, c = ROOT_POLYNOMIAL[spec.family](spec.group.order)
        assert abs(pres.d**2 - (m * pres.d + c)) < 1e-9 * pres.d**2, spec.describe()
        squares = [_squared(obj.qdim, m, c) for obj in pres.objects]
        total = (sum(a for a, _ in squares), sum(b for _, b in squares))
        assert total == _squared(pres.dim, m, c), spec.describe()


def test_induction_dimension_identity_is_exact():
    """sum_V qdim(V) [F(V) : X] = d_X dim C in Z[d] for every simple X of C,
    the dimension of the induction of X."""
    for spec in _identity_specs():
        pres = spec.center()
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


def test_p_plus_equals_dim_exactly_when_nu1_vanishes():
    """p+ = sum_V theta_V qdim(V)^2 equals dim C, to relative DEFAULT_TOL,
    exactly when nu_1(rho) = 0: a center datum that decides what nu_1 does."""
    specs = _identity_specs()
    unequal = 0
    for spec in specs:
        pres = spec.center()
        dim = pres.at_d(pres.dim)
        equal = abs(p_plus(pres) - dim) <= DEFAULT_TOL * abs(dim)
        nu1 = center_vector(pres, spec.rho_label(), [1])[0]
        assert equal == (abs(nu1) < DEFAULT_TOL), spec.describe()
        unequal += not equal
    assert (len(specs), unequal) == (183, 78)  # both outcomes occur


def _pairs(group):
    """One element of each pair {x, -x}, x != e, the lex smaller."""
    return [x for x in group.elements()[1:] if x <= group.neg(x)]


def _expected_twists(spec):
    """Each sector's twists in builder order, from the Fraction API of
    qforms and abelian: the formulas of the center module's docstring."""
    group = spec.group
    elems = group.elements()
    if spec.family in ("NG1", "NG1X"):
        twists = {
            "A": [0] * len(elems),
            "Sigma": [0],
            "B": [-group.character_value(phi, g) for g in elems for phi in elems[1:]],
        }
        if spec.family == "NG1X":
            return twists | {"E1": [Fraction(1, 4)], "E2": [Fraction(3, 4)]}
        p, ell = factor_prime_power(len(elems) + 1)
        field = FiniteAbelianGroup((p,) * ell).elements()
        return twists | {"C": [-(spec.zeta1 + Fraction(f[0], p)) for f in field]}
    if spec.family == "NG2":
        q, qp = spec.q, spec.qp
        return {
            "A": [2 * q.value(g) for g in elems],
            "B": [2 * q.value(g) for g in elems],
            "C": [q.boundary(g, h) for i, g in enumerate(elems) for h in elems[i + 1 :]],
            "E": [2 * q.value(g) + 2 * qp.value(x) for g in elems for x in _pairs(spec.gp)],
        }
    m = (spec.h.order - 1) // 2
    return {
        "unit": [0],
        "B": [0],
        "A": [0] * ((len(elems) - 1) // 2),
        "C": [group.character_value(phi, h) for h in _pairs(group) for phi in elems],
        "D": [m * spec.qpp.value(x) for x in _pairs(spec.h)],
    }


def test_integer_twists_match_exact_phases():
    """Fraction(twist, period) is each sector's formula, and the period is
    exactly the T-matrix order: no common factor is left in the numerators."""
    specs = _identity_specs()
    assert {spec.family for spec in specs} == {"NG1", "NG1X", "NG2", "HI"}
    for spec in specs:
        pres = spec.center()
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


def test_orientation_calibration_flips_and_logs():
    # feed the wrong orientation of q' on Z/11; the nu_1 oracle must flip it
    spec = load_ng2_spec(cyclic(7), (1,), cyclic(11), (2,))
    assert any("replaced q' by -q'" in note for note in spec.provenance)
    reference = load_ng2_spec(cyclic(7), (1,), cyclic(11), (-2,))
    assert not any("replaced" in note for note in reference.provenance)
    assert spec.qp.values == reference.qp.values


def test_orientation_calibration_failure_is_recorded():
    # the sign '-' Haagerup-Izumi data admits no orientation with nu_1 = 0
    spec = load_hi_spec(cyclic(3), cyclic(13), (2,))
    assert any("calibration failed" in note for note in spec.provenance)
