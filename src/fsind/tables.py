"""Bundled reference tables of indicator values, and their verification.

Every reference row for the near-group family with m = |G| (odd |G| from 3 to
13) and for the Haagerup-Izumi families over Z/3 and Z/5 is one line of the
data file ``tables.json`` beside this module: its table and row ids, its spec
in the public spec JSON, the printed category and center-group strings
verbatim, each listed indicator value, and its notes.  Each spec is read by
:func:`fsind.indicators.spec_from_json`, with the key checks and caps of any
user spec.

Loading convention.  The printed form columns parametrize the center twists
directly (theta_{A_g} = e^{2 pi i q_printed(g)}), while the evaluation
formulas take the form q with <g, g> = e^{2 pi i * 2 q(g)}.  Since every
group involved has odd exponent the bridge is exact: an NG2 row stores
q = q_printed / 2, each printed coefficient halved mod its cyclic factor, and
an HI row stores q'' as printed.  ``tests/test_tables.py`` checks the halving
against each row's printed strings.  The convention is also checked by an
oracle rather than trusted: nu_1(rho) = 0 must hold, and the outcome goes in
the row's ``calibration`` notes beside the bridge note.  Nothing is repaired.
The oracle fails on the four sign '-' Haagerup-Izumi rows, where no sign of
q'' could help: every prime of |H| = |G|^2 + 4 is 1 mod 4, so -1 is a square
mod |H| and -q'' is isometric to q''.

Expected values are stored symbolically as [k, text, a, b, d] meaning
nu_k = (a + b*sqrt(d))/2 with d < 0 read as i*sqrt(|d|); generic laws as a
Jacobi-symbol pattern (1 +- (k/modulus))/2 spot-checked at sample k.  Nothing
is typed as a decimal.
"""

from __future__ import annotations

import cmath
import csv
import io
import json
from collections import namedtuple
from functools import lru_cache
from pathlib import Path

from .indicators import ROUTES, CategorySpec, closed_form_nu, spec_from_json
from .qforms import DEFAULT_TOL, format_real, jacobi_symbol


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
# The rows


# family -> (its bridge notes, what nu_1(rho) = 0 holds with, what it fails for)
_CALIBRATION_NOTES = {
    "NG2": (("forms loaded as printed/2 (twist convention bridge)",), "forms",
            "with forms as loaded"),
    "HI": ((), "q''", "for either sign of q''"),
}


def calibration(spec: CategorySpec) -> tuple[str, ...]:
    """A row's calibration notes: its family's bridge note, if any, then the
    nu_1(rho) = 0 oracle's outcome on ``spec`` as loaded."""
    bridge, loaded, failed = _CALIBRATION_NOTES[spec.family]
    if abs(2 * closed_form_nu(spec, 1)) < DEFAULT_TOL:
        return (*bridge, f"orientation: nu_1(rho) = 0 with {loaded} as loaded")
    return (*bridge, f"orientation: calibration failed, nu_1(rho) != 0 {failed}")


@lru_cache(maxsize=None)
def builtin_rows() -> tuple[TableRow, ...]:
    """The 26 bundled rows of ``tables.json``, read on first use, table by table
    from ng3 to hi5; their table ids are the one list of tables."""
    rows = []
    for entry in json.loads((Path(__file__).parent / "tables.json").read_text(encoding="utf-8")):
        spec = spec_from_json(entry["spec"])
        claims = tuple(
            ValueClaim(*claim) if isinstance(claim, list)
            else JacobiLawClaim(**{**claim, "sample_ks": tuple(claim["sample_ks"])})
            for claim in entry["claims"]
        )
        rows.append(TableRow(
            entry["table_id"], entry["row_id"], spec, entry["printed_category"],
            entry["printed_center_group"], claims, tuple(entry["notes"]), calibration(spec),
        ))
    return tuple(rows)


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
