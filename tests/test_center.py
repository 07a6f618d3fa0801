from fractions import Fraction

import numpy as np
import pytest

from fsind.abelian import FiniteAbelianGroup, cyclic
from fsind.center import (
    center_hi,
    center_ng1,
    center_ng1_exceptional7,
    center_ng2,
    indicator_period,
    weil_modular_data,
)
from fsind.fusion import fp_dims
from fsind.qforms import monomial_form, phase_to_complex
from fsind.tables import load_hi_spec, load_ng2_spec

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
    assert indicator_period(pres) == 21


def test_center_ng2_count_formula_g5():
    q5 = monomial_form(cyclic(5), (1,))
    q9 = monomial_form(cyclic(9), (1,))
    pres = center_ng2(cyclic(5), q5, cyclic(9), q9)
    labels = [obj.label for obj in pres.objects]
    assert sum(1 for s in labels if s.startswith("C:")) == 5 * 4 // 2
    assert sum(1 for s in labels if s.startswith("E:")) == 5 * 8 // 2


def test_center_ng2_validation():
    with pytest.raises(ValueError):
        center_ng2(
            cyclic(2), monomial_form(cyclic(2), (0,)), cyclic(6), monomial_form(cyclic(6), (0,))
        )
    with pytest.raises(ValueError):
        center_ng2(cyclic(3), Q3, cyclic(9), monomial_form(cyclic(9), (1,)))
    with pytest.raises(ValueError):
        center_ng2(cyclic(3), Q3, cyclic(7), monomial_form(cyclic(7), (0,)))


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
    "pres",
    [
        center_ng1(cyclic(2), 3, Fraction(0)),
        center_ng1_exceptional7(),
        center_ng2(cyclic(3), Q3, cyclic(7), Q7NEG),
        center_hi(cyclic(3), cyclic(13), monomial_form(cyclic(13), (1,))),
    ],
    ids=["ng1", "ng1x7", "ng2", "hi"],
)
def test_qdims_match_forgetful_multiplicities(pres):
    dims = fp_dims(pres.base_ring)
    labels = pres.base_ring.labels
    total = sum(d * d for d in dims)
    assert abs(total - pres.global_qdim) < 1e-7
    for obj in pres.objects:
        expected = sum(m * dims[labels.index(s)] for s, m in obj.mult.items())
        assert abs(expected - obj.qdim) < 1e-7, obj.label


def test_weil_modular_data_examples():
    S, T = weil_modular_data(Q3)
    expected_diag = [1, np.exp(2j * np.pi / 3), np.exp(2j * np.pi / 3)]
    assert np.allclose(np.diag(T), expected_diag, atol=TOL)
    assert np.allclose(S, S.T, atol=TOL)
    S5, T5 = weil_modular_data(monomial_form(cyclic(5), (2,)))
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
