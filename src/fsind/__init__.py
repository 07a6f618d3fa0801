"""Frobenius-Schur indicators of near-group and Haagerup-Izumi categories.

Computes the indicator vector nu_k(rho) of the distinguished non-invertible
simple object three independent ways (closed Gauss-sum formulas, summation
over Drinfel'd-center modular data, and classical character theory where a
finite-group model exists), reproduces the bundled reference tables, and
reports indicator-rigidity conclusions.
"""

from .abelian import FiniteAbelianGroup, cyclic, direct_sum
from .center import (
    CenterObject,
    CenterPresentation,
    center_hi,
    center_ng1,
    center_ng1_exceptional7,
    center_ng2,
    indicator_period,
    weil_modular_data,
)
from .fusion import (
    FusionRing,
    fp_dims,
    make_hi_ring,
    make_near_group_ring,
    verify_ring,
)
from .indicators import (
    AGLGroup,
    CategorySpec,
    IndicatorVector,
    build_agl,
    center_vector,
    closed_form_nu,
    closed_vector,
    conjugate_spec,
    indicator_vector,
    ng1_equivalence_classes,
    nu_agl_bruteforce,
    nu_from_center,
    nu_ng1_closed,
    nu_ng1x_closed,
    rigidity_report,
)
from .qforms import (
    QuadraticForm,
    gauss_sum,
    gauss_sums,
    half_form,
    jacobi_symbol,
    monomial_form,
    orthogonal_sum,
)
from .tables import builtin_rows, emit_report, verify_row, verify_tables

__version__ = "0.1.0"

__all__ = [
    "AGLGroup",
    "CategorySpec",
    "CenterObject",
    "CenterPresentation",
    "FiniteAbelianGroup",
    "FusionRing",
    "IndicatorVector",
    "QuadraticForm",
    "build_agl",
    "builtin_rows",
    "center_hi",
    "center_ng1",
    "center_ng1_exceptional7",
    "center_ng2",
    "center_vector",
    "closed_form_nu",
    "closed_vector",
    "conjugate_spec",
    "cyclic",
    "direct_sum",
    "emit_report",
    "fp_dims",
    "gauss_sum",
    "gauss_sums",
    "half_form",
    "indicator_period",
    "indicator_vector",
    "jacobi_symbol",
    "make_hi_ring",
    "make_near_group_ring",
    "monomial_form",
    "ng1_equivalence_classes",
    "nu_agl_bruteforce",
    "nu_from_center",
    "nu_ng1_closed",
    "nu_ng1x_closed",
    "orthogonal_sum",
    "rigidity_report",
    "verify_ring",
    "verify_row",
    "verify_tables",
    "weil_modular_data",
]
