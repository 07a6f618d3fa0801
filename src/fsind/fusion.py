"""Based rings with non-negative structure constants.

Covers the two families used throughout: near-group rings NG(G, m) with one
non-invertible basis element rho satisfying rho^2 = m*rho + sum_h h, and
Haagerup-Izumi rings HI(G) with one non-invertible element g*rho per group
element.

No command builds a ring.  The module stays in the program because the
benchmark's tracer (``perfbench/tracejob.py``) wraps the two constructors by
module path and reads each ring's ``rank``; the ring-axiom check and the
Frobenius-Perron dimensions the tests compare them with live in
``tests/oracles.py``.
"""

from __future__ import annotations

from collections import namedtuple

from .abelian import RHO_LABEL, FiniteAbelianGroup, group_label, grho_label


class FusionRing(namedtuple("FusionRing", "labels unit dual N")):
    """Structure constants N[i][j][k] over an ordered basis of labels."""

    __slots__ = ()

    @property
    def rank(self) -> int:
        return len(self.labels)


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
    negation = group.negation()
    n = len(elems)
    rank = 2 * n
    N = [[[0] * rank for _ in range(rank)] for _ in range(rank)]
    for i, a in enumerate(elems):
        for j, b in enumerate(elems):
            total = group.index(group.add(a, b))
            difference = group.index(group.add(a, elems[negation[j]]))
            N[i][j][total] = 1
            N[i][n + j][n + total] = 1
            N[n + i][j][n + difference] = 1
            N[n + i][n + j][difference] = 1
            N[n + i][n + j][n:] = [1] * n
    labels = tuple(group_label(g) for g in elems) + tuple(grho_label(g) for g in elems)
    dual = tuple(negation) + tuple(range(n, rank))
    return FusionRing(labels, 0, dual, _freeze(N))


def _freeze(N) -> tuple[tuple[tuple[int, ...], ...], ...]:
    return tuple(tuple(tuple(int(x) for x in row) for row in plane) for plane in N)
