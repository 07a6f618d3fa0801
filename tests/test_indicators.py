import math
from dataclasses import replace
from fractions import Fraction

import pytest

from fsind.abelian import FiniteAbelianGroup, cyclic
from fsind.center import center_ng1_exceptional7, center_ng2
from fsind.indicators import (
    CategorySpec,
    build_agl,
    closed_form_nu,
    conjugate_spec,
    factor_prime_power,
    indicator_vector,
    ng1_equivalence_classes,
    nu_agl_bruteforce,
    nu_agl_closed_exact,
    nu_from_center,
    nu_hi_closed,
    nu_ng1_closed,
    nu_ng1x_closed,
    nu_ng2_closed,
    nu_ng2_jacobi,
    rigidity_report,
    spec_from_json,
    spec_to_json,
)
from fsind.qforms import QuadraticForm, jacobi_symbol, monomial_form
from fsind.tables import builtin_rows

TOL = 1e-9


def _row_spec(table_id, row_id):
    return next(
        r.spec for r in builtin_rows() if (r.table_id, r.row_id) == (table_id, row_id)
    )


def test_nu_ng1_closed_examples():
    assert abs(nu_ng1_closed(cyclic(2), 3, Fraction(0), 2) - 1) < TOL
    assert abs(nu_ng1_closed(cyclic(3), 2, Fraction(0), 3) - 2) < TOL
    for n, p in ((1, 2), (2, 3), (3, 2), (4, 5), (6, 7), (7, 2), (8, 3)):
        assert abs(nu_ng1_closed(cyclic(n), p, Fraction(0), 1)) < TOL


def test_nu_ng1x_closed_examples():
    assert abs(nu_ng1x_closed(2) - (-1)) < TOL
    assert abs(nu_ng1x_closed(7) - 6) < TOL
    assert abs(nu_ng1x_closed(1)) < TOL


def test_ng1x_center_matches_closed_form():
    pres = center_ng1_exceptional7()
    for k in range(1, 29):
        assert abs(nu_from_center(pres, "rho", k) - nu_ng1x_closed(k)) < TOL


def test_nu_ng2_closed_table_values():
    spec5 = _row_spec("ng5", 1)
    assert abs(nu_ng2_closed(spec5.group, spec5.q, spec5.gp, spec5.qp, 5)
               - (5 + math.sqrt(5)) / 2) < TOL
    spec9 = _row_spec("ng9", 1)
    assert abs(nu_ng2_closed(spec9.group, spec9.q, spec9.gp, spec9.qp, 9) - 3) < TOL
    for table_id, row_id in (("ng3", 1), ("ng5", 3), ("ng13", 2)):
        spec = _row_spec(table_id, row_id)
        assert abs(closed_form_nu(spec, 1)) < TOL


def test_nu_from_center_direct_convention_example():
    # with q = g^2/3 feeding the doubled-twist convention, the calibrated
    # partner is -g^2/7 and nu_3 lands on (3 + i sqrt 3)/2
    q = monomial_form(cyclic(3), (1,))
    qp = monomial_form(cyclic(7), (-1,))
    pres = center_ng2(cyclic(3), q, cyclic(7), qp)
    assert abs(nu_from_center(pres, "rho", 1)) < TOL
    assert abs(nu_from_center(pres, "rho", 3) - (3 + 1j * math.sqrt(3)) / 2) < TOL
    with pytest.raises(ValueError):
        nu_from_center(pres, "nonsense", 1)


def test_nu_ng2_jacobi():
    assert abs(nu_ng2_jacobi(cyclic(3), cyclic(7), 2) - 1) < TOL
    assert abs(nu_ng2_jacobi(cyclic(3), cyclic(7), 22)) < TOL  # 22 = 1 mod 21
    expected = (1 - jacobi_symbol(2, 45)) / 2
    assert abs(nu_ng2_jacobi(cyclic(5), cyclic(9), 2) - expected) < TOL
    spec = _row_spec("ng5", 1)
    assert abs(nu_ng2_jacobi(cyclic(5), cyclic(9), 2) - closed_form_nu(spec, 2)) < TOL
    with pytest.raises(ValueError):
        nu_ng2_jacobi(cyclic(3), cyclic(7), 6)


def test_nu_hi_closed_examples():
    spec = _row_spec("hi3", 1)
    for k in (2, 5, 7, 11):
        expected = (1 - jacobi_symbol(k, 13)) / 2
        assert abs(nu_hi_closed(spec.group, spec.h, spec.qpp, k) - expected) < TOL
    spec5 = _row_spec("hi5", 3)
    assert abs(nu_hi_closed(spec5.group, spec5.h, spec5.qpp, 5) - 3) < TOL
    assert abs(closed_form_nu(spec, 1)) < TOL


def test_build_agl_small_groups():
    s3 = build_agl(3)
    assert s3.order == 6
    x, y = s3.elements[1], s3.elements[2]
    assert s3.mul(x, y) != s3.mul(y, x)  # nonabelian, so it is S_3
    a4 = build_agl(4)
    assert a4.order == 12
    e = a4.identity_element()
    orders = [min(k for k in range(1, 13) if a4.power(x, k) == e) for x in a4.elements]
    assert max(orders) == 3  # A_4 has no 6-cycle
    assert build_agl(2).order == 2
    with pytest.raises(ValueError):
        build_agl(6)
    with pytest.raises(ValueError):
        build_agl(128)


def test_agl_bruteforce_examples():
    assert nu_agl_bruteforce(3, 2) == 1
    assert nu_agl_bruteforce(4, 3) == 2
    for q in (3, 4, 5, 8, 9):
        assert nu_agl_bruteforce(q, 1) == 0


def test_agl_matches_ng1_closed_form():
    for q in (3, 4, 5, 8, 9):
        p, _ = factor_prime_power(q)
        group = cyclic(q - 1)
        for k in range(1, 16):
            assert nu_agl_bruteforce(q, k) == nu_agl_closed_exact(q, k)
            closed = nu_ng1_closed(group, p, Fraction(0), k)
            assert abs(closed - nu_agl_closed_exact(q, k)) < TOL


def test_indicator_vector_periodicity_is_exact():
    for spec in (_row_spec("ng3", 1), _row_spec("hi3", 1)):
        vec = indicator_vector(spec)
        pres = spec.center()
        for k in range(1, vec.period + 1):
            again = nu_from_center(pres, spec.rho_label(), k + vec.period)
            assert again == vec.value(k)  # identical floats: phases are exact


def test_conjugate_spec_gives_conjugate_indicators():
    specs = [r.spec for r in builtin_rows()]
    specs += ng1_equivalence_classes(3)
    for spec in specs:
        vec = indicator_vector(spec)
        conj_vec = indicator_vector(conjugate_spec(spec))
        assert vec.period == conj_vec.period
        for k in range(1, vec.period + 1):
            assert abs(conj_vec.value(k) - vec.value(k).conjugate()) < TOL


def test_rigidity_examples():
    specs = ng1_equivalence_classes(3)
    report = rigidity_report(specs, specs[0].base_ring())
    assert report.classes == ((0,), (1,))
    assert report.separators == ((0, 1, 2),)
    nu2 = [indicator_vector(s).value(2) for s in specs]
    assert abs(nu2[0] - 1) < TOL and abs(nu2[1] + 1) < TOL

    single = rigidity_report(specs[:1], specs[0].base_ring())
    assert single.classes == ((0,),)

    with pytest.raises(ValueError):
        rigidity_report(specs, ng1_equivalence_classes(2)[0].base_ring())


def test_rigidity_hi_pairs():
    rows = [r.spec for r in builtin_rows() if r.table_id == "hi3"]
    report = rigidity_report(rows, rows[0].base_ring())
    assert report.classes == ((0, 1), (2, 3))
    # the printed columns first differ at k = 3; the nu_1 anomaly of the
    # sign '-' rows already separates them at k = 1
    assert all(k == 1 for _, _, k in report.separators)
    vec_plus = indicator_vector(rows[0])
    vec_minus = indicator_vector(rows[2])
    assert abs(vec_plus.value(3) - 1) < TOL
    assert abs(vec_minus.value(3) - 2) < TOL


def test_ng1_equivalence_classes_validation():
    with pytest.raises(ValueError):
        ng1_equivalence_classes(5)


def test_spec_json_round_trip():
    specs = [row.spec for row in builtin_rows()]
    specs += ng1_equivalence_classes(2) + ng1_equivalence_classes(7)
    specs.append(CategorySpec("NG1X", cyclic(7)))
    specs.append(
        CategorySpec(
            "NG2",
            cyclic(5),
            q=monomial_form(cyclic(5), (2,)),
            gp=FiniteAbelianGroup((3, 3)),
            qp=QuadraticForm(  # (x^2 + xy + 2y^2)/3: not monomial, so stored as a table
                FiniteAbelianGroup((3, 3)),
                tuple(Fraction(x * x + x * y + 2 * y * y, 3) for x in range(3) for y in range(3)),
            ),
            labels=(("c", "-"),),
        )
    )
    assert {spec.family for spec in specs} == {"NG1", "NG1X", "NG2", "HI"}
    for spec in specs:
        data = spec_to_json(spec)
        back = spec_from_json(data)
        assert back == replace(spec, provenance=())
        assert back.describe() == spec.describe()
        assert back.family == spec.family
        assert back.group == spec.group
        for k in (1, 2, 3):
            assert abs(closed_form_nu(back, k) - closed_form_nu(spec, k)) < TOL


def test_spec_validation():
    with pytest.raises(ValueError):
        CategorySpec("NG2", cyclic(4))
    with pytest.raises(ValueError):
        CategorySpec("NG1", cyclic(3))  # missing p, zeta1
    with pytest.raises(ValueError):
        CategorySpec("bogus", cyclic(3))
    with pytest.raises(ValueError):
        CategorySpec("NG1X", cyclic(5))
    with pytest.raises(ValueError):
        CategorySpec("HI", cyclic(3), h=cyclic(11), qpp=monomial_form(cyclic(11), (1,)))
    # only NG1X, whose group is fixed, may omit the group
    assert spec_from_json({"family": "NG1X"}).group == cyclic(7)
    ng2 = {
        "family": "NG2",
        "q": {"monomial": [{"factor": 0, "coeff": 1}]},
        "gp": {"cyclic_factors": [11]},
        "qp": {"monomial": [{"factor": 0, "coeff": 1}]},
    }
    hi = {"family": "HI", "h": {"cyclic_factors": [13]}, "qpp": {"monomial": []}}
    ng1 = {"family": "NG1", "p": 2, "zeta1": "0"}
    for data in (ng2, hi, ng1):
        with pytest.raises(ValueError, match="group"):
            spec_from_json(data)
    with pytest.raises(ValueError, match="zeta1"):
        spec_from_json({"family": "NG1", "group": {"cyclic_factors": [3]}, "p": 2})
