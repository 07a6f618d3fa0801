import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from fsind.abelian import FiniteAbelianGroup, cyclic
from fsind.center import (
    center_hi,
    center_ng1,
    center_ng1_exceptional7,
    center_ng2,
    weil_modular_data,
)
from fsind.fusion import fp_dims, make_hi_ring, make_near_group_ring
from fsind.indicators import CategorySpec, ng1_equivalence_classes
from fsind.qforms import monomial_form, phase_to_complex
from fsind.tables import builtin_rows, load_hi_spec, load_ng2_spec

TOL = 1e-9

Q3 = monomial_form(cyclic(3), (1,))
Q7NEG = monomial_form(cyclic(7), (-1,))


def test_center_ng1_object_count_and_twists():
    pres = center_ng1(cyclic(2), 3, Fraction(0))
    assert pres.rank == 2 + 1 + 2 * 1 + 3 == 8
    # B-objects at g = e carry trivial twist for every character
    for obj in pres.objects:
        if obj.label.startswith("B:(0)"):
            assert obj.twist == 0
    # C twists collapse to equal values at p | k
    c_twists = [obj.twist for obj in pres.objects if obj.label.startswith("C:")]
    assert len(c_twists) == 3
    powers = {(3 * t) % 1 for t in c_twists}
    assert powers == {Fraction(0)}


def test_center_ng1_rejects_bad_shapes():
    with pytest.raises(ValueError):
        center_ng1(cyclic(4), 3, Fraction(0))  # |G| + 1 = 5 is not a power of 3
    with pytest.raises(ValueError):
        center_ng1(FiniteAbelianGroup((2, 2)), 5, Fraction(0))  # not cyclic
    # |G| + 1 = 5 = 5^1 is admissible: Rep(AGL_1(F_5))
    assert center_ng1(cyclic(4), 5, Fraction(0)).rank == 4 + 1 + 4 * 3 + 5


def test_center_ng1_exceptional7():
    pres = center_ng1_exceptional7()
    assert pres.rank == 7 + 1 + 7 * 6 + 2 == 52
    e1 = next(o for o in pres.objects if o.label == "E1")
    e2 = next(o for o in pres.objects if o.label == "E2")
    assert e1.mult == {"rho": 2} and e2.mult == {"rho": 2}
    assert (e1.twist, e2.twist) == (Fraction(1, 4), Fraction(3, 4))
    for k in range(1, 9):
        total = phase_to_complex(k * e1.twist) + phase_to_complex(k * e2.twist)
        expected = 1j**k * (1 + (-1) ** k)
        assert abs(total - expected) < TOL


def test_center_ng2_counts_and_twists():
    pres = center_ng2(cyclic(3), Q3, cyclic(7), Q7NEG)
    labels = [obj.label for obj in pres.objects]
    assert sum(1 for s in labels if s.startswith("A:")) == 3
    assert sum(1 for s in labels if s.startswith("B:")) == 3
    assert sum(1 for s in labels if s.startswith("C:")) == 3
    assert sum(1 for s in labels if s.startswith("E:")) == 9  # |G| (|G|+3) / 2
    a_e = next(o for o in pres.objects if o.label == "A:(0)")
    assert a_e.twist == 0
    b_1 = next(o for o in pres.objects if o.label == "B:(1)")
    assert b_1.twist == Fraction(2, 3)  # 2 q(1)
    assert pres.period == 21


def test_center_ng2_count_formula_g5():
    q5 = monomial_form(cyclic(5), (1,))
    q9 = monomial_form(cyclic(9), (1,))
    pres = center_ng2(cyclic(5), q5, cyclic(9), q9)
    labels = [obj.label for obj in pres.objects]
    assert sum(1 for s in labels if s.startswith("C:")) == 5 * 4 // 2
    assert sum(1 for s in labels if s.startswith("E:")) == 5 * 8 // 2


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
    labels = [obj.label for obj in pres.objects]
    assert sum(1 for s in labels if s.startswith("D:")) == 6  # (|G|^2 + 3) / 2
    assert sum(1 for s in labels if s.startswith("C:")) == 3  # one pair, three chars
    assert sum(1 for s in labels if s.startswith("A:")) == 1
    b = next(o for o in pres.objects if o.label == "B")
    assert b.mult["g:(0)"] == 1 and b.mult["grho:(0)"] == 1
    assert len(b.mult) == 4


def test_center_hi_yang_lee_has_four_objects():
    pres = center_hi(cyclic(1), cyclic(5), monomial_form(cyclic(5), (1,)))
    assert pres.rank == 4
    assert sorted(o.label.split(":")[0] for o in pres.objects) == ["B", "D", "D", "unit"]


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
        assert abs(expected - pres.at_d(obj.qdim)) < 1e-7, obj.label


# (m, c) with d^2 = m d + c for the root d of each family, given |G|
ROOT_POLYNOMIAL = {
    "NG1": lambda n: (n - 1, n),
    "NG1X": lambda n: (n - 1, n),
    "NG2": lambda n: (n, n),
    "HI": lambda n: (n, 1),
}


def _squared(pair, m, c):
    """(a + b d)^2 as a pair, reduced with d^2 = m d + c."""
    a, b = pair
    return (a * a + b * b * c, 2 * a * b + b * b * m)


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
