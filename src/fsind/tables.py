"""Bundled reference tables of indicator values, and their verification.

Every reference row for the near-group family with m = |G| (odd |G| from 3 to
13) and for the Haagerup-Izumi families over Z/3 and Z/5 is stored verbatim:
the pair of quadratic forms identifying the class, the opaque equivalence
tags, and each listed indicator value.

Loading convention.  The printed form columns parametrize the center twists
directly (theta_{A_g} = e^{2 pi i q_printed(g)}), while the evaluation
formulas take the form q with <g, g> = e^{2 pi i * 2 q(g)}.  Since every
group involved has odd exponent the bridge is exact: the loader stores
q = q_printed / 2, each printed coefficient halved mod its cyclic factor.
The convention is checked by an oracle rather than trusted: nu_1(rho) = 0
must hold, and the outcome goes in the row's ``calibration`` notes beside the
bridge note.  The loader repairs nothing.  The oracle fails on the four sign
'-' Haagerup-Izumi rows, where no sign of q'' could help: every prime of
|H| = |G|^2 + 4 is 1 mod 4, so -1 is a square mod |H| and -q'' is isometric to q''.

Expected values are stored symbolically as (a, b, d) meaning (a + b*sqrt(d))/2
with d < 0 read as i*sqrt(|d|); generic laws as a Jacobi-symbol pattern
(1 +- (k/modulus))/2 spot-checked at sample k.  Nothing is typed as a decimal.
"""

from __future__ import annotations

import cmath
import csv
import io
import json
from collections import namedtuple
from functools import lru_cache

from .abelian import FiniteAbelianGroup, cyclic
from .indicators import ROUTES, CategorySpec, closed_form_nu
from .qforms import DEFAULT_TOL, QuadraticForm, format_real, jacobi_symbol, monomial_form


class ValueClaim(namedtuple("ValueClaim", "k text a b d")):
    """One listed indicator value, nu_k(rho) = (a + b sqrt(d)) / 2."""

    __slots__ = ()

    def expected(self) -> complex:
        return (self.a + self.b * cmath.sqrt(self.d)) / 2


class JacobiLawClaim(namedtuple("JacobiLawClaim", "text sign modulus sample_ks")):
    """A generic-k law nu_k = (1 + sign*(k/modulus))/2, gcd(k, modulus') = 1."""

    __slots__ = ()

    def expected(self, k: int) -> complex:
        return complex(1 + self.sign * jacobi_symbol(k, self.modulus)) / 2


class TableRow(namedtuple(
    "TableRow",
    "table_id row_id spec printed_category printed_center_group claims notes calibration",
)):
    __slots__ = ()


# ---------------------------------------------------------------------------
# Loading helpers


def _calibrate(spec: CategorySpec, loaded: str, failed: str) -> str:
    """The nu_1(rho) = 0 oracle's note on ``spec``: it holds with ``loaded`` as
    loaded, or it fails, and ``failed`` says for what."""
    if abs(2 * closed_form_nu(spec, 1)) < DEFAULT_TOL:
        return f"orientation: nu_1(rho) = 0 with {loaded} as loaded"
    return f"orientation: calibration failed, nu_1(rho) != 0 {failed}"


def _halved(group: FiniteAbelianGroup, coeffs) -> QuadraticForm:
    """The monomial form of printed coefficients ``coeffs`` halved, c_i / 2 mod n_i."""
    halves = (c * pow(2, -1, n) for c, n in zip(coeffs, group.cyclic_factors, strict=True))
    return monomial_form(group, halves)


def load_ng2_spec(
    group: FiniteAbelianGroup, q_coeffs, gp: FiniteAbelianGroup, qp_coeffs, labels=()
) -> tuple[CategorySpec, tuple[str, ...]]:
    """An m = |G| spec from printed (doubled-convention) coefficients, and its notes."""
    spec = CategorySpec(
        "NG2",
        group,
        q=_halved(group, q_coeffs),
        gp=gp,
        qp=_halved(gp, qp_coeffs),
        labels=tuple(labels),
    )
    note = _calibrate(spec, "forms", "with forms as loaded")
    return spec, ("forms loaded as printed/2 (twist convention bridge)", note)


def load_hi_spec(
    group: FiniteAbelianGroup, h_group: FiniteAbelianGroup, qpp_coeffs, labels=()
) -> tuple[CategorySpec, tuple[str, ...]]:
    """A Haagerup-Izumi spec from printed coefficients (used directly), and its note."""
    spec = CategorySpec(
        "HI", group, h=h_group, qpp=monomial_form(h_group, qpp_coeffs), labels=tuple(labels)
    )
    return spec, (_calibrate(spec, "q''", "for either sign of q''"),)


# ---------------------------------------------------------------------------
# The rows


@lru_cache(maxsize=None)
def builtin_rows() -> tuple[TableRow, ...]:
    """The 26 bundled rows, built on first use, table by table from ng3 to hi5;
    their table ids are the one list of tables."""
    rows: list[TableRow] = []

    def add(table_id, row_id, loaded, category, center_group, coeffs, claims, notes):
        spec, calibration = loaded
        center = f"({center_group},{_print_form(center_group, coeffs)})"
        rows.append(TableRow(table_id, row_id, spec, category, center, tuple(claims),
                             tuple(notes), calibration))

    def ng(table_id, row_id, n_or_factors, q_coeffs, gp_factors, qp_coeffs, c_label,
           b_label, claims, notes=()):
        group, gp = (
            cyclic(n) if isinstance(n, int) else FiniteAbelianGroup(tuple(n))
            for n in (n_or_factors, gp_factors)
        )
        loaded = load_ng2_spec(group, q_coeffs, gp, qp_coeffs, (("b", b_label), ("c", c_label)))
        category = f"NG({group},{_print_form(group, q_coeffs)},{b_label},{c_label})"
        add(table_id, row_id, loaded, category, gp, qp_coeffs, claims, notes)

    def hi(table_id, row_id, n, h_order, qpp_coeffs, sign, omega, a_label, claims,
           notes=()):
        h_group = cyclic(h_order)
        labels = (("A", a_label), ("omega", omega), ("sign", sign))
        loaded = load_hi_spec(cyclic(n), h_group, qpp_coeffs, labels)
        category = f"HI(Z{n},{sign},{omega},{a_label})"
        add(table_id, row_id, loaded, category, h_group, qpp_coeffs, claims, notes)

    # near-group m = |G|: |G| = 3
    ng("ng3", 1, 3, (1,), 7, (1,), "-", "-",
       [ValueClaim(3, "(3+i sqrt3)/2", 3, 1, -3), ValueClaim(7, "(1+i sqrt7)/2", 1, 1, -7)])
    ng("ng3", 2, 3, (-1,), 7, (-1,), "-", "-",
       [ValueClaim(3, "(3-i sqrt3)/2", 3, -1, -3), ValueClaim(7, "(1-i sqrt7)/2", 1, -1, -7)])

    # |G| = 5
    ng("ng5", 1, 5, (2,), 9, (2,), "zeta3", "-",
       [ValueClaim(3, "1+conj(zeta3)", 1, -1, -3), ValueClaim(5, "(5+sqrt5)/2", 5, 1, 5),
        ValueClaim(9, "-1", -2, 0, 1)])
    ng("ng5", 2, 5, (2,), 9, (-2,), "conj(zeta3)", "-",
       [ValueClaim(3, "1+zeta3", 1, 1, -3), ValueClaim(5, "(5+sqrt5)/2", 5, 1, 5),
        ValueClaim(9, "-1", -2, 0, 1)])
    ng("ng5", 3, 5, (1,), (3, 3), (1, 1), "1", "-",
       [ValueClaim(3, "-1", -2, 0, 1), ValueClaim(5, "(5-sqrt5)/2", 5, -1, 5),
        ValueClaim(9, "2", 4, 0, 1)])

    # |G| = 7
    ng("ng7", 1, 7, (1,), 11, (-2,), "-", "-",
       [ValueClaim(7, "(7-i sqrt7)/2", 7, -1, -7), ValueClaim(11, "(1+i sqrt11)/2", 1, 1, -11)])
    ng("ng7", 2, 7, (-1,), 11, (2,), "-", "-",
       [ValueClaim(7, "(7+i sqrt7)/2", 7, 1, -7), ValueClaim(11, "(1-i sqrt11)/2", 1, -1, -11)])

    # |G| = 9
    ng("ng9", 1, 9, (1,), 13, (-2,), "-", "-",
       [ValueClaim(3, "1-zeta3", 3, -1, -3), ValueClaim(9, "3", 6, 0, 1),
        ValueClaim(13, "(1+sqrt13)/2", 1, 1, 13)])
    ng("ng9", 2, 9, (-1,), 13, (2,), "-", "-",
       [ValueClaim(3, "1-conj(zeta3)", 3, 1, -3), ValueClaim(9, "3", 6, 0, 1),
        ValueClaim(13, "(1+sqrt13)/2", 1, 1, 13)])
    ng("ng9", 3, (3, 3), (1, -1), 13, (2,), "-", "-",
       [ValueClaim(3, "3", 6, 0, 1), ValueClaim(9, "3", 6, 0, 1),
        ValueClaim(13, "(1+sqrt13)/2", 1, 1, 13)])

    # |G| = 11
    ng("ng11", 1, 11, (1,), 15, (2,), "zeta12^7", "-",
       [ValueClaim(3, "(1-i sqrt3)/2", 1, -1, -3), ValueClaim(5, "(1+sqrt5)/2", 1, 1, 5),
        ValueClaim(11, "(11-i sqrt11)/2", 11, -1, -11),
        ValueClaim(15, "(1+i sqrt15)/2", 1, 1, -15)])
    ng("ng11", 2, 11, (1,), 15, (1,), "conj(zeta12)", "-",
       [ValueClaim(3, "(1+i sqrt3)/2", 1, 1, -3), ValueClaim(5, "(1-sqrt5)/2", 1, -1, 5),
        ValueClaim(11, "(11-i sqrt11)/2", 11, -1, -11),
        ValueClaim(15, "(1+i sqrt15)/2", 1, 1, -15)])
    ng("ng11", 3, 11, (-1,), 15, (-1,), "zeta12", "-",
       [ValueClaim(3, "(1-i sqrt3)/2", 1, -1, -3), ValueClaim(5, "(1-sqrt5)/2", 1, -1, 5),
        ValueClaim(11, "(11+i sqrt11)/2", 11, 1, -11),
        ValueClaim(15, "(1-i sqrt15)/2", 1, -1, -15)])
    ng("ng11", 4, 11, (-1,), 15, (-2,), "zeta12^5", "-",
       [ValueClaim(3, "(1+i sqrt3)/2", 1, 1, -3), ValueClaim(5, "(1+sqrt5)/2", 1, 1, 5),
        ValueClaim(11, "(11+i sqrt11)/2", 11, 1, -11),
        ValueClaim(15, "(1-i sqrt15)/2", 1, -1, -15)])

    # |G| = 13
    ng("ng13", 1, 13, (1,), 17, (3,), "-1", "b1",
       [ValueClaim(13, "(13-sqrt13)/2", 13, -1, 13), ValueClaim(17, "(1+sqrt17)/2", 1, 1, 17)])
    ng("ng13", 2, 13, (1,), 17, (3,), "-1", "b2",
       [ValueClaim(13, "(13-sqrt13)/2", 13, -1, 13), ValueClaim(17, "(1+sqrt17)/2", 1, 1, 17)])
    ng("ng13", 3, 13, (2,), 17, (1,), "1", "b3",
       [ValueClaim(13, "(13+sqrt13)/2", 13, 1, 13), ValueClaim(17, "(1-sqrt17)/2", 1, -1, 17)])
    ng("ng13", 4, 13, (2,), 17, (1,), "1", "b4",
       [ValueClaim(13, "(13+sqrt13)/2", 13, 1, 13), ValueClaim(17, "(1-sqrt17)/2", 1, -1, 17)],
       notes=("q' coefficient normalized to the group order 17 "
              "(reference row prints denominator 15)",))

    # Haagerup-Izumi: G = Z/3, H = Z/13
    law13_minus = JacobiLawClaim("(1-(k/13))/2", -1, 13, (2, 4, 5, 7, 11))
    law13_plus = JacobiLawClaim("(1+(k/13))/2", 1, 13, (2, 4, 5, 7, 11))
    hi("hi3", 1, 3, 13, (1,), "+", "1", "A1",
       [law13_minus, ValueClaim(3, "1", 2, 0, 1), ValueClaim(13, "(1+sqrt13)/2", 1, 1, 13)])
    hi("hi3", 2, 3, 13, (1,), "+", "1", "A2",
       [law13_minus, ValueClaim(3, "1", 2, 0, 1), ValueClaim(13, "(1+sqrt13)/2", 1, 1, 13)])
    hi("hi3", 3, 3, 13, (2,), "-", "1", "A3",
       [law13_plus, ValueClaim(3, "2", 4, 0, 1), ValueClaim(13, "(1+sqrt13)/2", 1, 1, 13)])
    hi("hi3", 4, 3, 13, (2,), "-", "1", "A4",
       [law13_plus, ValueClaim(3, "2", 4, 0, 1), ValueClaim(13, "(1+sqrt13)/2", 1, 1, 13)])

    # Haagerup-Izumi: G = Z/5, H = Z/29.  The compatibility constraint
    # |H| = |G|^2 + 4 forces order 29; the reference row prints Z/13 with
    # forms already written over 29, and the generic law with modulus 13.
    h29_note = (
        "H stored as Z/29: |H| = |G|^2 + 4 forces order 29 "
        "(reference row prints Z/13); generic-law modulus follows |H|",
    )
    law29_minus = JacobiLawClaim("(1-(k/29))/2", -1, 29, (2, 3, 4, 7, 9))
    law29_plus = JacobiLawClaim("(1+(k/29))/2", 1, 29, (2, 3, 4, 7, 9))
    hi("hi5", 1, 5, 29, (1,), "+", "1", "A6",
       [law29_minus, ValueClaim(5, "2", 4, 0, 1), ValueClaim(29, "(1+sqrt29)/2", 1, 1, 29)],
       notes=h29_note)
    hi("hi5", 2, 5, 29, (1,), "+", "1", "A7",
       [law29_minus, ValueClaim(5, "2", 4, 0, 1), ValueClaim(29, "(1+sqrt29)/2", 1, 1, 29)],
       notes=h29_note)
    hi("hi5", 3, 5, 29, (2,), "-", "1", "A8",
       [law29_plus, ValueClaim(5, "3", 6, 0, 1), ValueClaim(29, "(1+sqrt29)/2", 1, 1, 29)],
       notes=h29_note)
    hi("hi5", 4, 5, 29, (2,), "-", "1", "A9",
       [law29_plus, ValueClaim(5, "3", 6, 0, 1), ValueClaim(29, "(1+sqrt29)/2", 1, 1, 29)],
       notes=h29_note)

    return tuple(rows)


def _print_form(group, coeffs) -> str:
    names = "ghuv"
    parts = []
    for i, (c, n) in enumerate(zip(coeffs, group.cyclic_factors)):
        if c:
            sym = names[i % len(names)]
            prefix = {1: "", -1: "-"}.get(c, str(c))
            parts.append(f"{prefix}{sym}^2/{n}")
    return "+".join(parts).replace("+-", "-") or "0"


# ---------------------------------------------------------------------------
# Verification


class ClaimCheck(namedtuple("ClaimCheck", "k text expected closed center deviation passed")):
    __slots__ = ()


class RowReport(namedtuple("RowReport", "row checks all_pass max_deviation")):
    __slots__ = ()


def verify_row(row: TableRow) -> RowReport:
    """Evaluate every claim by both routes and compare within ``DEFAULT_TOL``."""
    spec = row.spec
    cases: list[tuple[int, str, complex]] = []  # (k, text, expected)
    for claim in row.claims:
        if isinstance(claim, ValueClaim):
            cases.append((claim.k, claim.text, claim.expected()))
        else:
            cases += [(k, f"{claim.text} at k={k}", claim.expected(k)) for k in claim.sample_ks]
    closed_nu, center_nu = (ROUTES[route](spec) for route in ("closed", "center"))
    checks = []
    for k, text, expected in cases:
        closed, center = closed_nu(k), center_nu(k)
        deviation = max(abs(closed - expected), abs(center - expected))
        passed = deviation < DEFAULT_TOL
        checks.append(ClaimCheck(k, text, expected, closed, center, deviation, passed))
    all_pass = all(c.passed for c in checks)
    max_dev = max(c.deviation for c in checks)
    return RowReport(row, tuple(checks), all_pass, max_dev)


def verify_tables(table_id: str | None = None) -> list[RowReport]:
    rows = [r for r in builtin_rows() if table_id in (None, r.table_id)]
    if not rows:
        raise KeyError(f"unknown table id {table_id!r}")
    return [verify_row(row) for row in rows]


# ---------------------------------------------------------------------------
# Reports


def _records(reports: list[RowReport]) -> list[dict]:
    records = []
    for report in reports:
        row = report.row
        calibrated = "failed" if any("failed" in note for note in row.calibration) else "no"
        for check in report.checks:
            records.append(
                {
                    "table_id": row.table_id,
                    "row_id": str(row.row_id),
                    "family": row.spec.family,
                    "group": str(row.spec.group),
                    "form": row.printed_category,
                    "k": str(check.k),
                    "expected_re": format_real(check.expected.real),
                    "expected_im": format_real(check.expected.imag),
                    "computed_re": format_real(check.center.real),
                    "computed_im": format_real(check.center.imag),
                    "deviation": format_real(check.deviation),
                    "calibrated": calibrated,
                    "pass": "true" if check.passed else "false",
                }
            )
    return records


CSV_COLUMNS = (
    "table_id", "row_id", "family", "group", "form", "k",
    "expected_re", "expected_im", "computed_re", "computed_im",
    "deviation", "calibrated", "pass",
)


def emit_report(reports: list[RowReport], fmt: str) -> str:
    """Deterministic, byte-stable report in csv, json or markdown."""
    if fmt == "csv":
        buffer = io.StringIO()
        writer = csv.DictWriter(buffer, fieldnames=CSV_COLUMNS, lineterminator="\n")
        writer.writeheader()
        for record in _records(reports):
            writer.writerow(record)
        return buffer.getvalue()
    if fmt == "json":
        payload = {
            "all_pass": all(r.all_pass for r in reports),
            "rows": [
                {
                    "table_id": r.row.table_id,
                    "row_id": r.row.row_id,
                    "spec": r.row.spec.describe(),
                    "printed_category": r.row.printed_category,
                    "printed_center_group": r.row.printed_center_group,
                    "calibration": list(r.row.calibration),
                    "notes": list(r.row.notes),
                    "all_pass": r.all_pass,
                    "max_deviation": format_real(r.max_deviation),
                }
                for r in reports
            ],
            "records": _records(reports),
        }
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if fmt == "markdown":
        return _markdown_report(reports)
    raise KeyError(f"unknown format {fmt!r}")


def _markdown_report(reports: list[RowReport]) -> str:
    lines: list[str] = []
    by_table: dict[str, list[RowReport]] = {}
    for report in reports:
        by_table.setdefault(report.row.table_id, []).append(report)
    for table_id, group in by_table.items():
        lines.append(f"## {table_id}")
        lines.append("")
        ks: list[str] = []
        for report in group:
            for check in report.checks:
                label = f"nu_{check.k}"
                if label not in ks:
                    ks.append(label)
        lines.append("| row | category | center metric group | " + " | ".join(ks) + " |")
        lines.append("|" + "---|" * (3 + len(ks)))
        for report in group:
            cells = {f"nu_{c.k}": c for c in report.checks}
            rendered = []
            for label in ks:
                check = cells.get(label)
                if check is None:
                    rendered.append("")
                elif check.passed:
                    rendered.append(f"{check.text} ok")
                else:
                    imag = format_real(check.center.imag)
                    sign = "" if imag.startswith("-") else "+"
                    rendered.append(
                        f"{check.text} MISMATCH computed "
                        f"{format_real(check.center.real)}{sign}{imag}i"
                    )
            lines.append(
                f"| {report.row.row_id} | {report.row.printed_category} | "
                f"{report.row.printed_center_group} | " + " | ".join(rendered) + " |"
            )
        lines.append("")
    return "\n".join(lines)
