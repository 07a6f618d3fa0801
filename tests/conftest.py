"""Shared catalogs of groups and metric forms used across the suite."""

from __future__ import annotations

import argparse
from fractions import Fraction

import pytest

from fsind.abelian import cyclic
from fsind.cli import build_parser
from fsind.qforms import QuadraticForm, monomial_form, orthogonal_sum, phase_to_complex

# all abelian groups of order <= 13, one tuple of cyclic factors each
ABELIAN_GROUPS_LE_13 = [
    (1,), (2,), (3,), (4,), (2, 2), (5,), (6,), (7,),
    (8,), (2, 4), (2, 2, 2), (9,), (3, 3), (10,), (11,), (12,), (2, 6), (13,),
]


def parser_choices(command: str, option: str) -> tuple:
    """The choices the ``fsind`` parser offers for ``option`` of ``command``."""
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return next(a for a in sub.choices[command]._actions if option in a.option_strings).choices


def p_plus(presentation) -> complex:
    """p+ = sum_V theta_V qdim(V)^2 over the objects of a center presentation,
    which equals dim C for a Drinfeld center (Mueger 2003)."""
    period = presentation.period
    return sum(
        phase_to_complex(Fraction(obj.twist, period)) * presentation.at_d(obj.qdim) ** 2
        for obj in presentation.objects
    )


def cyclic_metric_form(n: int, a: int = 1) -> QuadraticForm:
    """A non-degenerate form on Z/n: a*g^2/n for odd n, a*g^2/(2n) for even n
    (a odd)."""
    group = cyclic(n)
    if n % 2 == 1:
        return monomial_form(group, (a,))
    if a % 2 == 0:
        raise ValueError("even-order cyclic metric forms need an odd coefficient")
    values = tuple(a * g * g % (2 * n) for g in range(n))  # numerators over 2n
    return QuadraticForm(group, values)


def _second_unit(n: int) -> int:
    """A coefficient > 1 giving a non-degenerate form on Z/n (odd if n is even)."""
    step = 2 if n % 2 == 0 else 1
    a = 3 if n % 2 == 0 else 2
    import math

    while math.gcd(a, n) != 1:
        a += step
    return a


def metric_group_catalog(max_order: int) -> list[QuadraticForm]:
    """Deterministic list of metric groups of order up to ``max_order``."""
    catalog: list[QuadraticForm] = []
    for n in range(1, max_order + 1):
        coeffs = [1] if n <= 2 else [1, _second_unit(n)]
        for a in coeffs:
            form = cyclic_metric_form(n, a)
            assert form.is_nondegenerate(), (n, a)
            catalog.append(form)
    # a few non-cyclic ones
    q33 = orthogonal_sum(monomial_form(cyclic(3), (1,)), monomial_form(cyclic(3), (1,)))
    if 9 <= max_order:
        catalog.append(q33)
    if 25 <= max_order:
        q55 = orthogonal_sum(monomial_form(cyclic(5), (1,)), monomial_form(cyclic(5), (2,)))
        catalog.append(q55)
    return catalog


@pytest.fixture(scope="session")
def builtin_reports():
    """Verification reports for all bundled rows (computed once)."""
    from fsind.tables import builtin_rows, verify_row

    return [verify_row(row) for row in builtin_rows()]
