import cmath
import math
from fractions import Fraction

import pytest

from fsind.abelian import FiniteAbelianGroup, cyclic
from fsind.qforms import (
    QuadraticForm,
    form_from_json,
    form_to_json,
    gauss_sum,
    half_form,
    jacobi_symbol,
    monomial_form,
    orthogonal_sum,
    qz,
)

from conftest import cyclic_metric_form, metric_group_catalog

TOL = 1e-9

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
        assert q.boundary_is_biadditive()


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
    with pytest.raises(ValueError):
        QuadraticForm(cyclic(3), (Fraction(1, 3), Fraction(0), Fraction(0)))
    with pytest.raises(ValueError):
        QuadraticForm(cyclic(3), (Fraction(0), Fraction(1, 3), Fraction(2, 3)))


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
