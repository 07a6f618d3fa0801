import math

import pytest

from fsind.abelian import FiniteAbelianGroup, cyclic
from fsind.fusion import (
    FusionRing,
    _freeze,
    fp_dims,
    hi_rho_dim,
    make_hi_ring,
    make_near_group_ring,
    near_group_rho_dim,
    verify_ring,
)

TOL = 1e-9


def test_rep_s3_ring():
    ring = make_near_group_ring(cyclic(2), 1)
    rho = ring.index("rho")
    # rho^2 = rho + 0 + 1
    assert ring.N[rho][rho][rho] == 1
    assert ring.N[rho][rho][ring.index("g:(0)")] == 1
    assert ring.N[rho][rho][ring.index("g:(1)")] == 1
    assert verify_ring(ring) == []
    assert abs(fp_dims(ring)[rho] - 2) < TOL


def test_fibonacci_shape():
    ring = make_near_group_ring(cyclic(1), 1)
    assert abs(fp_dims(ring)[ring.index("rho")] - (1 + math.sqrt(5)) / 2) < TOL


def test_tambara_yamagami_shape():
    ring = make_near_group_ring(FiniteAbelianGroup((2, 2)), 0)
    rho = ring.index("rho")
    assert ring.N[rho][rho][rho] == 0
    assert sum(ring.N[rho][rho]) == 4
    assert verify_ring(ring) == []


def test_yang_lee_ring():
    ring = make_hi_ring(cyclic(1))
    rho = ring.index("grho:(0)")
    assert ring.N[rho][rho][ring.index("g:(0)")] == 1
    assert ring.N[rho][rho][rho] == 1
    assert abs(fp_dims(ring)[rho] - (1 + math.sqrt(5)) / 2) < TOL


def test_hi_z3_ring():
    ring = make_hi_ring(cyclic(3))
    assert ring.rank == 6
    rho1, rho2 = ring.index("grho:(1)"), ring.index("grho:(2)")
    # (1 rho)(2 rho) = (1 - 2) + sum_a (a rho)
    row = ring.N[rho1][rho2]
    assert row[ring.index("g:(2)")] == 1
    assert all(row[ring.index(f"grho:({a})")] == 1 for a in range(3))
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


@pytest.mark.parametrize("n,m,expected", [(3, 2, 3.0), (3, 3, (3 + math.sqrt(21)) / 2)])
def test_fp_dims_against_quadratic_roots(n, m, expected):
    ring = make_near_group_ring(cyclic(n), m)
    assert abs(fp_dims(ring)[ring.index("rho")] - expected) < TOL
    assert abs(near_group_rho_dim(n, m) - expected) < TOL


def test_rho_dim_closed_forms():
    for n in (1, 3, 5, 7):
        assert abs(near_group_rho_dim(n, n) ** 2 - (n * near_group_rho_dim(n, n) + n)) < 1e-9
        assert abs(hi_rho_dim(n) ** 2 - (1 + n * hi_rho_dim(n))) < 1e-9


@pytest.mark.parametrize("factors", [(2,), (3,), (2, 2), (5,)])
def test_dual_symmetry_of_structure_constants(factors):
    group = FiniteAbelianGroup(factors)
    for ring in (make_near_group_ring(group, group.order), make_hi_ring(group)):
        dual = ring.dual
        for i in range(ring.rank):
            for j in range(ring.rank):
                for k in range(ring.rank):
                    assert ring.N[i][j][k] == ring.N[dual[j]][dual[i]][dual[k]]
