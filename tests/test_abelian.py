import math

import pytest

from fsind.abelian import (
    MAX_ORDER,
    FiniteAbelianGroup,
    cyclic,
    direct_sum,
    group_from_json,
    group_to_json,
)

Z3 = cyclic(3)
Z9 = cyclic(9)
TRIVIAL = FiniteAbelianGroup(())
Z2xZ2 = FiniteAbelianGroup((2, 2))


def test_add_examples():
    assert Z3.add((1,), (2,)) == (0,)
    z33 = FiniteAbelianGroup((3, 3))
    assert z33.add((1, 2), (2, 2)) == (0, 1)
    assert TRIVIAL.add((), ()) == ()


def test_neg_and_scalar_mul():
    assert cyclic(5).neg((2,)) == (3,)


def test_elements_order_and_count():
    assert cyclic(2).elements() == [(0,), (1,)]
    assert cyclic(1).elements() == [(0,)]
    assert Z2xZ2.elements() == [(0, 0), (0, 1), (1, 0), (1, 1)]
    for factors in [(6,), (2, 3), (4, 2, 2)]:
        g = FiniteAbelianGroup(factors)
        elems = g.elements()
        assert len(elems) == len(set(elems)) == g.order
        assert elems[0] == g.identity
        assert elems == sorted(elems)


def test_index_inverts_elements():
    g = FiniteAbelianGroup((3, 4))
    for i, a in enumerate(g.elements()):
        assert g.index(a) == i


def test_power_count_examples():
    assert cyclic(2).power_count(2, (0,)) == 2
    assert Z9.power_count(6, (0,)) == 3  # equals gcd(6, 9)
    assert Z3.power_count(3, (0,)) == 3
    with pytest.raises(ValueError):
        Z3.power_count(-1, (0,))


# groups used for the exhaustive power-count sweeps; orders reach 64
SWEEP_GROUPS = [
    *[(n,) for n in range(1, 21)],
    (2, 2), (2, 4), (2, 2, 2), (3, 3), (2, 6), (4, 4), (3, 9), (2, 2, 2, 2),
    (5, 5), (6, 6), (4, 8), (2, 16), (7, 7), (3, 3, 3), (8, 8), (2, 32),
]


@pytest.mark.parametrize("factors", SWEEP_GROUPS)
def test_power_count_identity_is_gcd_product(factors):
    g = FiniteAbelianGroup(factors)
    for k in range(0, 21):
        expected = math.prod(math.gcd(k, n) for n in factors) if factors else 1
        assert g.power_count(k, g.identity) == expected


@pytest.mark.parametrize("factors", SWEEP_GROUPS)
def test_position_maps_agree_with_neg_add_and_index(factors):
    g = FiniteAbelianGroup(factors)
    elems = g.elements()
    assert g.negation() == [g.index(g.neg(a)) for a in elems]
    basis = [tuple(int(i == j) for i in range(g.rank)) for j in range(g.rank)]
    assert g.shifts() == [[g.index(g.add(a, e)) for a in elems] for e in basis]
    expected = [g.index(a) for a in elems if a != g.identity and a <= g.neg(a)]
    assert g.pairs() == expected


@pytest.mark.parametrize("factors", [(1,), (5,), (2, 4), (3, 3)])
def test_power_map_is_a_function(factors):
    g = FiniteAbelianGroup(factors)
    elems = g.elements()
    for k in range(8):
        images = [tuple(k * r % n for r, n in zip(a, factors)) for a in elems]
        for h in elems:
            assert g.power_count(k, h) == images.count(h), (k, h)
        assert sum(g.power_count(k, h) for h in elems) == g.order


def test_character_value_examples():
    from fractions import Fraction

    assert Z3.character_value((1,), (2,)) == Fraction(2, 3)
    assert Z2xZ2.character_value((1, 1), (1, 0)) == Fraction(1, 2)
    for g in Z9.elements():
        assert Z9.character_value(Z9.identity, g) == 0


def test_character_value_biadditive_and_symmetric():
    g = FiniteAbelianGroup((2, 3))
    elems = g.elements()
    for h in elems:
        for a in elems:
            assert g.character_value(h, a) == g.character_value(a, h)
            for b in elems:
                lhs = g.character_value(h, g.add(a, b))
                rhs = (g.character_value(h, a) + g.character_value(h, b)) % 1
                assert lhs == rhs


def test_direct_sum_and_json_round_trip():
    g = direct_sum(Z3, cyclic(7))
    assert g.cyclic_factors == (3, 7)
    assert group_from_json(group_to_json(g)) == g


def test_invalid_factor_rejected():
    with pytest.raises(ValueError):
        FiniteAbelianGroup((0,))


def test_group_from_json_bounds_the_order():
    assert group_from_json({"cyclic_factors": [MAX_ORDER]}).order == MAX_ORDER
    for factors in ([MAX_ORDER + 1], [1000, 1001], [100000000], [1000, 1000, 1000]):
        with pytest.raises(ValueError, match="exceeds"):
            group_from_json({"cyclic_factors": factors})
