import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from fsind.abelian import FiniteAbelianGroup, cyclic
from fsind.fusion import FusionRing, _freeze, make_hi_ring, make_near_group_ring
from fsind.indicators import CategorySpec
from fsind.qforms import monomial_form

from conftest import ABELIAN_GROUPS_LE_13
from oracles import fp_dims, verify_ring

TOL = 1e-9


def _root(m: int, c: int) -> float:
    """The positive root of d^2 = m d + c."""
    return (m + math.sqrt(m * m + 4 * c)) / 2


def _exact_dims(ring: FusionRing) -> list[float]:
    """1 on each group element, and on each other simple the positive root of
    d^2 = m d + |G| (NG(G, m)) or d^2 = |G| d + 1 (HI(G))."""
    if "rho" in ring.labels:
        n = ring.rank - 1
        return [1.0] * n + [_root(ring.N[n][n][n], n)]
    n = ring.rank // 2
    return [1.0] * n + [_root(n, 1)] * n


def _sweep_rings() -> list[FusionRing]:
    """NG(G, m) for m in {0, |G| - 1, |G|} and HI(G), for every |G| <= 13."""
    rings = []
    for factors in ABELIAN_GROUPS_LE_13:
        group = FiniteAbelianGroup(factors)
        n = group.order
        rings += [make_near_group_ring(group, m) for m in sorted({0, n - 1, n})]
        rings.append(make_hi_ring(group))
    return rings


SWEEP = _sweep_rings()


def test_rep_s3_ring():
    ring = make_near_group_ring(cyclic(2), 1)
    rho = ring.labels.index("rho")
    # rho^2 = rho + 0 + 1
    assert ring.N[rho][rho][rho] == 1
    assert ring.N[rho][rho][ring.labels.index("g:(0)")] == 1
    assert ring.N[rho][rho][ring.labels.index("g:(1)")] == 1
    assert verify_ring(ring) == []
    assert abs(fp_dims(ring)[rho] - 2) < TOL


def test_fibonacci_shape():
    ring = make_near_group_ring(cyclic(1), 1)
    assert abs(fp_dims(ring)[ring.labels.index("rho")] - (1 + math.sqrt(5)) / 2) < TOL


def test_tambara_yamagami_shape():
    ring = make_near_group_ring(FiniteAbelianGroup((2, 2)), 0)
    rho = ring.labels.index("rho")
    assert ring.N[rho][rho][rho] == 0
    assert sum(ring.N[rho][rho]) == 4
    assert verify_ring(ring) == []


def test_yang_lee_ring():
    ring = make_hi_ring(cyclic(1))
    rho = ring.labels.index("grho:(0)")
    assert ring.N[rho][rho][ring.labels.index("g:(0)")] == 1
    assert ring.N[rho][rho][rho] == 1
    assert abs(fp_dims(ring)[rho] - (1 + math.sqrt(5)) / 2) < TOL


def test_hi_z3_ring():
    ring = make_hi_ring(cyclic(3))
    assert ring.rank == 6
    rho1, rho2 = ring.labels.index("grho:(1)"), ring.labels.index("grho:(2)")
    # (1 rho)(2 rho) = (1 - 2) + sum_a (a rho)
    row = ring.N[rho1][rho2]
    assert row[ring.labels.index("g:(2)")] == 1
    assert all(row[ring.labels.index(f"grho:({a})")] == 1 for a in range(3))
    d = fp_dims(ring)[rho1]
    assert abs(d - (3 + math.sqrt(13)) / 2) < TOL
    assert abs(sum(x * x for x in fp_dims(ring)) - (6 + 9 * (3 + math.sqrt(13)) / 2)) < 1e-7


def test_verify_ring_clean_examples():
    assert verify_ring(make_near_group_ring(cyclic(3), 3)) == []
    assert verify_ring(make_hi_ring(cyclic(5))) == []


def test_verify_ring_catches_tampering():
    base = make_near_group_ring(cyclic(3), 3)
    tensor = [list(map(list, plane)) for plane in base.N]
    tensor[3][3][1] += 1  # rho^2 gains an extra copy of a non-identity element
    bad = FusionRing(base.labels, base.unit, base.dual, _freeze(tensor))
    assert any("associativity" in problem for problem in verify_ring(bad))


def _tampered(constants=(), dual=None) -> FusionRing:
    """NG(Z/3, 3) with structure constants (i, j, k, value) and the dual replaced."""
    base = make_near_group_ring(cyclic(3), 3)
    tensor = [list(map(list, plane)) for plane in base.N]
    for i, j, k, value in constants:
        tensor[i][j][k] = value
    return FusionRing(base.labels, base.unit, dual or base.dual, _freeze(tensor))


UNIT_LEFT = "unit: N[unit][j][k] != delta_jk"
UNIT_RIGHT = "unit: N[j][unit][k] != delta_jk"
DUALITY = "duality: N[i][j][unit] != delta_{j, dual(i)}"


@pytest.mark.parametrize(
    "ring,expected",
    [
        (_tampered([(0, 1, 2, 1)]), [UNIT_LEFT, "associativity violated at "
                                     "(i,j,k,l)=(0,0,1,2) [12 quadruples total]"]),
        (_tampered([(1, 0, 2, 1)]), [UNIT_RIGHT, "associativity violated at "
                                     "(i,j,k,l)=(1,0,0,2) [12 quadruples total]"]),
        (_tampered([(3, 3, 1, 2)]), ["associativity violated at "
                                     "(i,j,k,l)=(1,3,3,1) [8 quadruples total]"]),
        (_tampered(dual=(0, 1, 2, 3)), [DUALITY]),
        (_tampered(dual=(0, 2, 3, 1)), [DUALITY, "dual is not an involution fixing the unit"]),
        (_tampered([(3, 3, 3, -1)]), ["negative structure constant"]),
    ],
    ids=["unit-left", "unit-right", "associativity", "duality", "involution", "negative"],
)
def test_verify_ring_matches_einsum_reference_on_tampered_rings(ring, expected):
    """The one ring check, the einsum reference ``oracles.verify_ring``, reports
    each tampered kind, and only what the tampering breaks."""
    assert verify_ring(ring) == expected


def test_fp_dims_match_eig_perron_vector():
    """The eig Perron vector is the exact dims on every sweep ring."""
    assert len(SWEEP) == 71
    for ring in SWEEP:
        expected = np.array(_exact_dims(ring))
        assert np.abs(np.array(fp_dims(ring)) / expected - 1).max() < 1e-12, ring.labels


def test_fp_dims_match_exact_rho_dims():
    """The exact dims are a positive character of every sweep ring,
    d_i d_j = sum_k N[i][j][k] d_k, so they are its Frobenius-Perron dims."""
    for ring in SWEEP:
        dims = _exact_dims(ring)
        for i, j in itertools.product(range(ring.rank), repeat=2):
            total = sum(c * d for c, d in zip(ring.N[i][j], dims))
            assert abs(dims[i] * dims[j] / total - 1) < 1e-12, (ring.labels, i, j)


@pytest.mark.parametrize("n,m,expected", [(3, 2, 3.0), (3, 3, (3 + math.sqrt(21)) / 2)])
def test_fp_dims_against_quadratic_roots(n, m, expected):
    ring = make_near_group_ring(cyclic(n), m)
    assert abs(fp_dims(ring)[ring.labels.index("rho")] - expected) < TOL
    assert abs(_root(m, n) - expected) < TOL


def test_rho_dim_closed_forms():
    """The centers read their dimensions at the exact rho dimensions."""
    for n in (1, 3, 5, 7):
        group, gp, h = cyclic(n), cyclic(n + 4), cyclic(n * n + 4)
        ng2 = CategorySpec("NG2", group, q=monomial_form(group, (1,)), gp=gp,
                           qp=monomial_form(gp, (1,)))
        hi = CategorySpec("HI", group, h=h, qpp=monomial_form(h, (1,)))
        assert abs(ng2.center().d - _root(n, n)) < 1e-12
        assert abs(hi.center().d - _root(n, 1)) < 1e-12
    ng1 = CategorySpec("NG1", cyclic(3), p=2, zeta1=Fraction(0))
    assert ng1.center().d == 3 == _root(2, 3)


@pytest.mark.parametrize("factors", [(2,), (3,), (2, 2), (5,)])
def test_dual_symmetry_of_structure_constants(factors):
    group = FiniteAbelianGroup(factors)
    for ring in (make_near_group_ring(group, group.order), make_hi_ring(group)):
        dual = ring.dual
        for i in range(ring.rank):
            for j in range(ring.rank):
                for k in range(ring.rank):
                    assert ring.N[i][j][k] == ring.N[dual[j]][dual[i]][dual[k]]
