import cmath
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fsind.abelian import FiniteAbelianGroup, cyclic
from fsind.qforms import (
    QuadraticForm,
    form_from_json,
    form_to_json,
    gauss_sum,
    gauss_sums,
    half_form,
    jacobi_symbol,
    monomial_form,
    orthogonal_sum,
    qz,
)

from fsind.indicators import closed_vector
from fsind.tables import builtin_rows

from conftest import ABELIAN_GROUPS_LE_13, cyclic_metric_form, metric_group_catalog

TOL = 1e-9
ROUTE_TOL = 1e-12  # histogram sums against direct loops: same terms, other order


def direct_gauss_sum(q: QuadraticForm) -> complex:
    """Reference Theta(G, q): one exponential per element, in element order."""
    total = sum(cmath.exp(2j * math.pi * (v / q.den)) for v in q.values)
    return total / math.sqrt(q.group.order)


def boundary_is_biadditive(group, value) -> bool:
    """Reference check, cubic in |G|: dq(g1 + g2, h) = dq(g1, h) + dq(g2, h)
    for the boundary of the exact phases ``value(g)``."""
    elems = group.elements()

    def dq(g, h):
        return (value(group.add(g, h)) - value(g) - value(h)) % 1

    return all(
        dq(group.add(g1, g2), h) == (dq(g1, h) + dq(g2, h)) % 1
        for g1 in elems
        for g2 in elems
        for h in elems
    )


def monomial_reference(group, coeffs, g) -> Fraction:
    """sum_i c_i g_i^2 / n_i in Q/Z, in exact arithmetic."""
    terms = (Fraction(c * r * r, n) for c, r, n in zip(coeffs, g, group.cyclic_factors))
    return sum(terms, start=Fraction(0)) % 1


Q3 = monomial_form(cyclic(3), (1,))
Q7 = monomial_form(cyclic(7), (1,))


def test_qz_arithmetic():
    assert qz(Fraction(2, 3) + Fraction(2, 3)) == Fraction(1, 3)
    assert qz(6 * Fraction(1, 3)) == 0
    assert qz(Fraction(1, 2) + Fraction(1, 2)) == 0
    assert qz(-1 * Fraction(1, 3)) == Fraction(2, 3)


def test_boundary_examples():
    assert Q3.boundary((1,), (1,)) == Fraction(2, 3)  # q(2) - 2 q(1) = 4/3 - 2/3
    assert Q7.boundary((1,), (2,)) == Fraction(4, 7)  # 9/7 - 1/7 - 4/7
    for h in Q3.group.elements():
        assert Q3.boundary((0,), h) == 0


def test_bicharacter_examples():
    assert abs(monomial_form(cyclic(4), (0,)).bicharacter((1,), (2,)) - 1) < TOL
    assert abs(Q3.bicharacter((1,), (1,)) - cmath.exp(4j * math.pi / 3)) < TOL
    elems = Q7.group.elements()
    for g in elems:
        for h in elems:
            assert abs(Q7.bicharacter(g, h) - Q7.bicharacter(h, g)) < TOL


def test_diagonal_of_bicharacter_doubles_the_form():
    # <g, g> = e^{2 pi i * 2 q(g)}: the identity the twist tables rely on
    for q in (Q3, Q7, monomial_form(cyclic(9), (2,))):
        for g in q.group.elements():
            assert q.boundary(g, g) == (2 * q.value(g)) % 1


def test_gauss_sum_examples():
    assert abs(gauss_sum(monomial_form(cyclic(1), (0,))) - 1) < TOL
    assert abs(gauss_sum(Q3) - 1j) < TOL
    assert abs(gauss_sum(Q7) - 1j) < TOL


def test_gauss_sums_match_direct_loop():
    forms = metric_group_catalog(30) + [
        monomial_form(cyclic(9), (3,)),  # degenerate
        monomial_form(FiniteAbelianGroup((2, 4)), (1, 3)),
        monomial_form(FiniteAbelianGroup((3, 3)), (0, 0)),
    ]
    for q in forms:
        scales = range(-2, 2 * q.den + 3)
        sums = gauss_sums(q, scales)
        for k, theta in zip(scales, sums):
            assert abs(theta - direct_gauss_sum(q.scaled(k))) < ROUTE_TOL, (q.group, k)
        assert sums[2 : 2 + q.den] == sums[2 + q.den : 2 + 2 * q.den]  # exactly periodic
        assert gauss_sum(q) == sums[3]


def test_closed_vectors_match_direct_gauss_loop():
    for row in builtin_rows():
        spec = row.spec
        ks = range(1, spec.period() + 1)
        for k, value in zip(ks, closed_vector(spec, ks)):
            if spec.family == "NG2":
                product = direct_gauss_sum(spec.q.scaled(2 * k)) * direct_gauss_sum(
                    spec.qp.scaled(2 * k)
                )
            else:
                m = (spec.h.order - 1) // 2
                product = direct_gauss_sum(spec.qpp.scaled(k * m))
            expected = spec.group.power_count(k, spec.group.identity) / 2 + product / 2
            assert abs(value - expected) < ROUTE_TOL, (row.table_id, row.row_id, k)


def test_orthogonal_sum_multiplicativity_examples():
    assert abs(gauss_sum(orthogonal_sum(Q3, Q7)) - (-1)) < TOL
    trivial = monomial_form(cyclic(1), (0,))
    assert abs(gauss_sum(orthogonal_sum(Q3, trivial)) - 1j) < TOL
    assert abs(gauss_sum(orthogonal_sum(Q3, Q3.negated())) - 1) < TOL


def test_gauss_multiplicativity_catalog():
    catalog = metric_group_catalog(16)
    for p1 in catalog:
        theta1 = gauss_sum(p1)
        for p2 in catalog:
            combined = orthogonal_sum(p1, p2)
            assert combined.is_nondegenerate()
            assert abs(gauss_sum(combined) - theta1 * gauss_sum(p2)) < TOL


def test_gauss_modulus_one_for_metric_groups():
    for pm in metric_group_catalog(32):
        assert abs(abs(gauss_sum(pm)) - 1) < TOL


def test_jacobi_symbol_examples():
    assert jacobi_symbol(2, 7) == 1   # 3^2 = 2 mod 7
    assert jacobi_symbol(6, 7) == -1
    for a in range(-5, 6):
        assert jacobi_symbol(a, 1) == 1
    with pytest.raises(ValueError):
        jacobi_symbol(3, 8)


def test_jacobi_symbol_against_residue_bruteforce():
    for p in (3, 5, 7, 11, 13, 17, 19, 23):
        residues = {g * g % p for g in range(1, p)}
        for a in range(p):
            expected = 0 if a == 0 else (1 if a in residues else -1)
            assert jacobi_symbol(a, p) == expected
    # multiplicativity in the lower argument over composite moduli
    for n in (9, 15, 21, 35, 45):
        for a in range(n):
            parts = 1
            m = n
            for p in (3, 5, 7):
                while m % p == 0:
                    parts *= jacobi_symbol(a, p)
                    m //= p
            assert jacobi_symbol(a, n) == parts


def test_scale_form_examples():
    assert Q3.scaled(6).values == monomial_form(cyclic(3), (0,)).values
    assert Q7.scaled(2).values == monomial_form(cyclic(7), (2,)).values
    assert abs(gauss_sum(Q7.scaled(3)) - (-1j)) < TOL  # (3/7) = -1


def test_scaling_law_odd_order():
    for n in (1, 3, 5, 7, 9, 11, 13):
        for a in (1, 2):
            q = monomial_form(cyclic(n), (a,))
            if not q.is_nondegenerate():
                continue
            theta = gauss_sum(q)
            for k in range(1, 21):
                if math.gcd(k, n) != 1:
                    continue
                lhs = gauss_sum(q.scaled(k))
                assert abs(lhs - jacobi_symbol(k, n) * theta) < TOL, (n, a, k)


def test_boundary_biadditivity_exhaustive():
    forms = [
        Q3,
        monomial_form(FiniteAbelianGroup((3, 3)), (1, 2)),
        cyclic_metric_form(4),
        cyclic_metric_form(8, 3),
        monomial_form(cyclic(13), (2,)),
        cyclic_metric_form(16, 5),
    ]
    for q in forms:
        assert boundary_is_biadditive(q.group, q.value)


def test_boundary_determines_monomial_form_odd_order():
    # q -> dq is injective on monomial forms over odd cyclic groups <= 13
    for n in (3, 5, 7, 9, 11, 13):
        group = cyclic(n)
        seen = {}
        for a in range(n):
            q = monomial_form(group, (a,))
            key = tuple(
                q.boundary(g, h) for g in group.elements() for h in group.elements()
            )
            assert key not in seen, (n, a, seen[key])
            seen[key] = a


def test_half_form():
    q = monomial_form(cyclic(7), (3,))
    assert half_form(q).scaled(2).values == q.values
    with pytest.raises(ValueError):
        half_form(cyclic_metric_form(4))


def test_form_validation():
    # numerators over 2 * exponent: 6 on Z/3, 10 on Z/5
    with pytest.raises(ValueError):
        QuadraticForm(cyclic(3), (2, 0, 0))  # q(0) != 0
    with pytest.raises(ValueError):
        QuadraticForm(cyclic(3), (0, 2, 4))  # q(-1) != q(1)
    with pytest.raises(ValueError):
        QuadraticForm(cyclic(5), (0, 1, 3, 3, 1))  # dq(1, 2) != 2 dq(1, 1)
    with pytest.raises(ValueError, match="bi-additive"):
        QuadraticForm(group=cyclic(5), values=(0, 1, 3, 3, 1))
    with pytest.raises(ValueError, match="bi-additive"):
        form_from_json({"table": ["0", "1/10", "3/10", "3/10", "1/10"]}, cyclic(5))


monomial_inputs = st.sampled_from(ABELIAN_GROUPS_LE_13).flatmap(
    lambda factors: st.tuples(
        st.just(FiniteAbelianGroup(factors)),
        st.lists(st.integers(-40, 40), min_size=len(factors), max_size=len(factors)),
    )
)


@settings(derandomize=True, max_examples=200)
@given(monomial_inputs, monomial_inputs, st.integers(-40, 40), st.data())
def test_form_arithmetic_and_validation_against_fraction_reference(first, second, k, data):
    (group, coeffs), (group2, coeffs2) = first, second
    q = monomial_form(group, coeffs)
    total = orthogonal_sum(q, monomial_form(group2, coeffs2))
    scaled = q.scaled(k)
    elems = group.elements()
    for g in elems:
        expected = monomial_reference(group, coeffs, g)
        assert q.value(g) == expected
        assert scaled.value(g) == k * expected % 1
        for h in group2.elements():
            assert total.value(g + h) == (expected + monomial_reference(group2, coeffs2, h)) % 1

    # move the value of q at one pair {g, -g}; the result is a quadratic form
    # exactly when the reference says so
    g = data.draw(st.sampled_from(elems))
    moved = data.draw(st.integers(0, q.den - 1))
    values = list(q.values)
    values[group.index(g)] = values[group.index(group.neg(g))] = moved
    table = {h: Fraction(v, q.den) for h, v in zip(elems, values)}
    quadratic = table[group.identity] == 0 and boundary_is_biadditive(group, table.__getitem__)
    try:
        QuadraticForm(group, tuple(values))
    except ValueError:
        assert not quadratic
    else:
        assert quadratic


def test_form_json_round_trip():
    q = monomial_form(FiniteAbelianGroup((3, 3)), (1, 2))
    data = form_to_json(q)
    assert data["monomial"] == [
        {"factor": 0, "coeff": 1},
        {"factor": 1, "coeff": 2},
    ]
    assert form_from_json(data).values == q.values
    dense = cyclic_metric_form(4)  # not representable as a monomial over Z/4
    data = form_to_json(dense)
    assert "table" in data
    assert form_from_json(data).values == dense.values


def test_radical_of_degenerate_scaling():
    q = monomial_form(cyclic(9), (1,))
    assert q.is_nondegenerate()
    assert not q.scaled(3).is_nondegenerate()
