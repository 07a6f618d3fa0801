"""Based rings with non-negative structure constants.

Covers the two families used throughout: near-group rings NG(G, m) with one
non-invertible basis element rho satisfying rho^2 = m*rho + sum_h h, and
Haagerup-Izumi rings HI(G) with one non-invertible element g*rho per group
element.
"""

from __future__ import annotations

import itertools
from collections import defaultdict, namedtuple

from .abelian import RHO_LABEL, FiniteAbelianGroup, group_label, grho_label

FP_TOL = 1e-9
FP_MAX_ITER = 10**5


class FusionRing(namedtuple("FusionRing", "labels unit dual N")):
    """Structure constants N[i][j][k] over an ordered basis of labels."""

    __slots__ = ()

    @property
    def rank(self) -> int:
        return len(self.labels)

    def index(self, label: str) -> int:
        return self.labels.index(label)


def make_near_group_ring(group: FiniteAbelianGroup, m: int) -> FusionRing:
    """NG(G, m): basis G u {rho}, rho*g = g*rho = rho, rho^2 = m*rho + sum_h h."""
    if m < 0:
        raise ValueError("multiplicity m must be non-negative")
    elems = group.elements()
    n = len(elems)
    rho = n
    rank = n + 1
    N = [[[0] * rank for _ in range(rank)] for _ in range(rank)]
    for i, a in enumerate(elems):
        for j, b in enumerate(elems):
            N[i][j][group.index(group.add(a, b))] = 1
        N[i][rho][rho] = 1
        N[rho][i][rho] = 1
        N[rho][rho][i] = 1
    N[rho][rho][rho] = m
    labels = tuple(group_label(g) for g in elems) + (RHO_LABEL,)
    dual = tuple(group.negation()) + (rho,)
    return FusionRing(labels, 0, dual, _freeze(N))


def make_hi_ring(group: FiniteAbelianGroup) -> FusionRing:
    """HI(G): basis {g} u {g rho} with (g rho)(h rho) = (g - h) + sum_a (a rho)."""
    elems = group.elements()
    n = len(elems)
    rank = 2 * n
    N = [[[0] * rank for _ in range(rank)] for _ in range(rank)]
    for i, a in enumerate(elems):
        for j, b in enumerate(elems):
            total = group.index(group.add(a, b))
            difference = group.index(group.add(a, group.neg(b)))
            N[i][j][total] = 1
            N[i][n + j][n + total] = 1
            N[n + i][j][n + difference] = 1
            N[n + i][n + j][difference] = 1
            N[n + i][n + j][n:] = [1] * n
    labels = tuple(group_label(g) for g in elems) + tuple(grho_label(g) for g in elems)
    dual = tuple(group.negation()) + tuple(range(n, rank))
    return FusionRing(labels, 0, dual, _freeze(N))


def verify_ring(ring: FusionRing) -> list[str]:
    """Check unit, associativity, duality and the dual involution.

    Returns a list of violation descriptions; an empty list means the ring
    satisfies all axioms.  Associativity sums over non-zero constants only.
    """
    problems: list[str] = []
    N = ring.N
    rank = ring.rank
    u = ring.unit
    eye = tuple(tuple(int(j == k) for k in range(rank)) for j in range(rank))
    if N[u] != eye:
        problems.append("unit: N[unit][j][k] != delta_jk")
    if tuple(plane[u] for plane in N) != eye:
        problems.append("unit: N[j][unit][k] != delta_jk")
    nonzero = [[[(m, c) for m, c in enumerate(row) if c] for row in plane] for plane in N]
    bad: list[tuple[int, int, int, int]] = []  # in lexicographic order
    for i, j, k in itertools.product(range(rank), repeat=3):
        # (b_i b_j) b_k - b_i (b_j b_k), coefficient of b_l
        diff: defaultdict[int, int] = defaultdict(int)
        for m, a in nonzero[i][j]:
            for l, b in nonzero[m][k]:
                diff[l] += a * b
        for m, a in nonzero[j][k]:
            for l, b in nonzero[i][m]:
                diff[l] -= a * b
        bad.extend((i, j, k, l) for l in sorted(diff) if diff[l])
    if bad:
        i, j, k, l = bad[0]
        problems.append(
            f"associativity violated at (i,j,k,l)=({i},{j},{k},{l}) "
            f"[{len(bad)} quadruples total]"
        )
    expected = tuple(tuple(int(j == di) for j in range(rank)) for di in ring.dual)
    if tuple(tuple(row[u] for row in plane) for plane in N) != expected:
        problems.append("duality: N[i][j][unit] != delta_{j, dual(i)}")
    if ring.dual[u] != u or any(ring.dual[ring.dual[i]] != i for i in range(rank)):
        problems.append("dual is not an involution fixing the unit")
    if any(c < 0 for plane in N for row in plane for c in row):
        problems.append("negative structure constant")
    return problems


def fp_dims(ring: FusionRing) -> list[float]:
    """Frobenius-Perron dimensions via power iteration.

    Iterates the matrix of left multiplication by sum_i b_i, scaling the unit
    entry to 1 at every step, and returns the first iterate that moved each
    dimension by less than FP_TOL * 1e-4 = 1e-13 of its value.  If the second
    eigenvalue has modulus r times the first, the returned dims are within
    r / (1 - r) times that step of the true ones: within 1.2e-13 relative on
    every NG(G, m), m in {0, |G| - 1, |G|}, and HI(G) with |G| <= 13.
    """
    rank, unit = ring.rank, ring.unit
    # M[k][j] = sum_i N[i][j][k]
    M = [[float(sum(plane[j][k] for plane in ring.N)) for j in range(rank)] for k in range(rank)]
    v = [1.0] * rank
    step_tol = FP_TOL * 1e-4
    for _ in range(FP_MAX_ITER):
        w = [sum(a * x for a, x in zip(row, v)) for row in M]
        if w[unit] <= 0:
            raise ArithmeticError("power iteration collapsed; invalid ring")
        w = [x / w[unit] for x in w]
        converged = all(abs(a - b) < step_tol * abs(a) for a, b in zip(w, v))
        v = w
        if converged:
            break
    else:
        raise ArithmeticError("power iteration did not converge; invalid ring")
    if any(d < 1 - 1e-6 for d in v):
        raise ArithmeticError("Frobenius-Perron dimensions below 1; invalid ring")
    return v


def _freeze(N) -> tuple[tuple[tuple[int, ...], ...], ...]:
    return tuple(tuple(tuple(int(x) for x in row) for row in plane) for plane in N)
