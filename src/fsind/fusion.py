"""Based rings with non-negative structure constants.

Covers the two families used throughout: near-group rings NG(G, m) with one
non-invertible basis element rho satisfying rho^2 = m*rho + sum_h h, and
Haagerup-Izumi rings HI(G) with one non-invertible element g*rho per group
element.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .abelian import FiniteAbelianGroup, GroupElement, format_element

FP_TOL = 1e-9
FP_MAX_ITER = 10**5


def group_label(g: GroupElement) -> str:
    return "g:" + format_element(g)


def grho_label(g: GroupElement) -> str:
    return "grho:" + format_element(g)


RHO_LABEL = "rho"


@dataclass(frozen=True)
class FusionRing:
    """Structure constants N[i][j][k] over an ordered basis of labels."""

    labels: tuple[str, ...]
    unit: int
    dual: tuple[int, ...]
    N: tuple[tuple[tuple[int, ...], ...], ...]

    @property
    def rank(self) -> int:
        return len(self.labels)

    def index(self, label: str) -> int:
        return self.labels.index(label)

    def n_array(self) -> np.ndarray:
        return np.array(self.N, dtype=np.int64)


def make_near_group_ring(group: FiniteAbelianGroup, m: int) -> FusionRing:
    """NG(G, m): basis G u {rho}, rho*g = g*rho = rho, rho^2 = m*rho + sum_h h."""
    if m < 0:
        raise ValueError("multiplicity m must be non-negative")
    elems = group.elements()
    n = len(elems)
    rho = n
    rank = n + 1
    N = [[[0] * rank for _ in range(rank)] for _ in range(rank)]
    index = {g: i for i, g in enumerate(elems)}
    for a in elems:
        for b in elems:
            N[index[a]][index[b]][index[group.add(a, b)]] = 1
        N[index[a]][rho][rho] = 1
        N[rho][index[a]][rho] = 1
        N[rho][rho][index[a]] = 1
    N[rho][rho][rho] = m
    labels = tuple(group_label(g) for g in elems) + (RHO_LABEL,)
    dual = tuple(index[group.neg(g)] for g in elems) + (rho,)
    return FusionRing(labels, index[group.identity], dual, _freeze(N))


def make_hi_ring(group: FiniteAbelianGroup) -> FusionRing:
    """HI(G): basis {g} u {g rho} with (g rho)(h rho) = (g - h) + sum_a (a rho)."""
    elems = group.elements()
    n = len(elems)
    rank = 2 * n
    index = {g: i for i, g in enumerate(elems)}

    def rho_idx(g: GroupElement) -> int:
        return n + index[g]

    N = [[[0] * rank for _ in range(rank)] for _ in range(rank)]
    for a in elems:
        for b in elems:
            N[index[a]][index[b]][index[group.add(a, b)]] = 1
            N[index[a]][rho_idx(b)][rho_idx(group.add(a, b))] = 1
            N[rho_idx(a)][index[b]][rho_idx(group.add(a, group.neg(b)))] = 1
            N[rho_idx(a)][rho_idx(b)][index[group.add(a, group.neg(b))]] = 1
            for c in elems:
                N[rho_idx(a)][rho_idx(b)][rho_idx(c)] = 1
    labels = tuple(group_label(g) for g in elems) + tuple(grho_label(g) for g in elems)
    dual = tuple(index[group.neg(g)] for g in elems) + tuple(rho_idx(g) for g in elems)
    return FusionRing(labels, index[group.identity], dual, _freeze(N))


def verify_ring(ring: FusionRing) -> list[str]:
    """Check unit, associativity, duality and the dual involution.

    Returns a list of violation descriptions; an empty list means the ring
    satisfies all axioms.
    """
    problems: list[str] = []
    N = ring.n_array()
    rank = ring.rank
    u = ring.unit
    eye = np.eye(rank, dtype=np.int64)
    if not np.array_equal(N[u], eye):
        problems.append("unit: N[unit][j][k] != delta_jk")
    if not np.array_equal(N[:, u, :], eye):
        problems.append("unit: N[j][unit][k] != delta_jk")
    left = np.einsum("ijm,mkl->ijkl", N, N)
    right = np.einsum("jkm,iml->ijkl", N, N)
    if not np.array_equal(left, right):
        bad = np.argwhere(left != right)
        i, j, k, l = (int(x) for x in bad[0])
        problems.append(
            f"associativity violated at (i,j,k,l)=({i},{j},{k},{l}) "
            f"[{len(bad)} quadruples total]"
        )
    expected = np.zeros((rank, rank), dtype=np.int64)
    for i, di in enumerate(ring.dual):
        expected[i, di] = 1
    if not np.array_equal(N[:, :, u], expected):
        problems.append("duality: N[i][j][unit] != delta_{j, dual(i)}")
    if ring.dual[u] != u or any(ring.dual[ring.dual[i]] != i for i in range(rank)):
        problems.append("dual is not an involution fixing the unit")
    if (N < 0).any():
        problems.append("negative structure constant")
    return problems


def fp_dims(ring: FusionRing, tol: float = FP_TOL, max_iter: int = FP_MAX_ITER) -> list[float]:
    """Frobenius-Perron dimensions via power iteration.

    Iterates the matrix of left multiplication by sum_i b_i and normalizes the
    Perron vector so the unit has dimension 1.
    """
    N = ring.n_array()
    M = N.sum(axis=0).T.astype(float)  # M[k][j] = sum_i N[i][j][k]
    v = np.ones(ring.rank)
    # the step criterion lags the fixed-point error, so iterate well past tol
    step_tol = tol * 1e-4
    for _ in range(max_iter):
        w = M @ v
        norm = w.max()
        if norm <= 0:
            raise ArithmeticError("power iteration collapsed; invalid ring")
        w /= norm
        if np.abs(w - v).max() < step_tol:
            v = w
            break
        v = w
    else:
        raise ArithmeticError("power iteration did not converge; invalid ring")
    dims = v / v[ring.unit]
    if (dims < 1 - 1e-6).any():
        raise ArithmeticError("Frobenius-Perron dimensions below 1; invalid ring")
    return [float(d) for d in dims]


@lru_cache(maxsize=None)
def near_group_rho_dim(order: int, m: int) -> float:
    """Positive root of d^2 = m d + |G|, the exact FP dimension of rho."""
    return (m + math.sqrt(m * m + 4 * order)) / 2


@lru_cache(maxsize=None)
def hi_rho_dim(order: int) -> float:
    """Positive root of d^2 = 1 + |G| d for the HI ring."""
    return (order + math.sqrt(order * order + 4)) / 2


def _freeze(N) -> tuple[tuple[tuple[int, ...], ...], ...]:
    return tuple(tuple(tuple(int(x) for x in row) for row in plane) for plane in N)
