import cmath
import csv
import io
import json
import math
import re
import sys
from collections import Counter
from fnmatch import fnmatch
from pathlib import Path

import pytest

import fsind
from fsind.indicators import closed_form_nu
from fsind.qforms import monomial_form
from fsind.tables import (
    ClaimCheck,
    JacobiLawClaim,
    RowReport,
    ValueClaim,
    builtin_rows,
    emit_report,
    verify_row,
    verify_tables,
)

from oracles import replace, value

TOL = 1e-9

EXPECTED_ROW_COUNTS = {
    "ng3": 2, "ng5": 3, "ng7": 2, "ng9": 3, "ng11": 4, "ng13": 4,
    "hi3": 4, "hi5": 4,
}


def _row(table_id, row_id):
    return next(
        r for r in builtin_rows() if (r.table_id, r.row_id) == (table_id, row_id)
    )


def test_row_counts():
    rows = builtin_rows()
    assert len(rows) == 26
    assert sum(1 for r in rows if r.spec.family == "NG2") == 18
    assert sum(1 for r in rows if r.spec.family == "HI") == 8
    for table_id, count in EXPECTED_ROW_COUNTS.items():
        assert sum(1 for r in rows if r.table_id == table_id) == count


def test_claim_ks_lie_within_each_spec_period():
    for row in builtin_rows():
        period = row.spec.period()
        for claim in row.claims:
            ks = (claim.k,) if isinstance(claim, ValueClaim) else claim.sample_ks
            assert all(1 <= k <= period for k in ks), (row.table_id, row.row_id)


def test_ng11_row1_claims():
    claims = _row("ng11", 1).claims
    expected = {
        3: (1 - 1j * math.sqrt(3)) / 2,
        5: (1 + math.sqrt(5)) / 2,
        11: (11 - 1j * math.sqrt(11)) / 2,
        15: (1 + 1j * math.sqrt(15)) / 2,
    }
    assert {c.k for c in claims} == set(expected)
    for claim in claims:
        assert abs(claim.expected() - expected[claim.k]) < TOL


def test_hi5_row3_claims_and_h_normalization():
    row = _row("hi5", 3)
    values = {c.k: c for c in row.claims if isinstance(c, ValueClaim)}
    assert abs(values[5].expected() - 3) < TOL
    assert abs(values[29].expected() - (1 + math.sqrt(29)) / 2) < TOL
    assert row.spec.h.order == 29
    assert any("29" in note for note in row.notes)
    law = next(c for c in row.claims if isinstance(c, JacobiLawClaim))
    assert law.modulus == 29


def test_ng13_row4_denominator_normalization():
    row = _row("ng13", 4)
    assert row.spec.gp.order == 17
    qp = row.spec.qp
    assert all(value(qp, g).denominator in (1, 17) for g in qp.group.elements())
    assert any("17" in note for note in row.notes)


def test_no_builtin_row_needed_an_orientation_flip():
    """Each row's last calibration note is the nu_1 oracle's outcome on the
    forms as printed: it holds on 22 rows and fails on hi3 and hi5 rows 3-4."""
    failed = "orientation: calibration failed, nu_1(rho) != 0 for either sign of q''"
    outcomes = {}
    for row in builtin_rows():
        *bridge, outcome = row.calibration
        loaded = "forms" if row.spec.family == "NG2" else "q''"
        assert outcome in (f"orientation: nu_1(rho) = 0 with {loaded} as loaded", failed)
        assert bridge == (["forms loaded as printed/2 (twist convention bridge)"]
                          if row.spec.family == "NG2" else [])
        outcomes[row.table_id, row.row_id] = outcome
    assert {key for key, outcome in outcomes.items() if outcome == failed} == {
        ("hi3", 3), ("hi3", 4), ("hi5", 3), ("hi5", 4)
    }
    assert len(outcomes) == 26  # "as loaded" on the other 22


def _printed_coefficients(form: str, group) -> tuple[int, ...]:
    """The coefficients of a printed monomial form on ``group``, such as
    ``g^2/3-h^2/3``: its cyclic factors are named g, h, u, v, each over its order."""
    term = r"([+-]?\d*)([ghuv])\^2/(\d+)"
    assert re.fullmatch(f"(?:{term})+", form), form
    coeffs = [0] * group.rank
    for c, name, n in re.findall(term, form):
        i = "ghuv".index(name)
        assert int(n) == group.cyclic_factors[i], form
        coeffs[i] += int(c) if c.lstrip("+-") else int(c + "1")
    return tuple(coeffs)


def test_each_row_stores_its_printed_forms():
    """The twist-convention bridge, checked against the printed strings: an NG2
    row stores each printed form halved, q_stored * 2 = q_printed on G and on
    G', and an HI row stores q'' on H as printed."""
    for row in builtin_rows():
        spec = row.spec
        center = re.fullmatch(r"\((\w+),(.+)\)", row.printed_center_group)
        if spec.family == "NG2":
            category = re.fullmatch(r"NG\((\w+),([^,]+),[^,]+,[^,]+\)", row.printed_category)
            assert (category[1], center[1]) == (str(spec.group), str(spec.gp))
            q, qp = (_printed_coefficients(category[2], spec.group),
                     _printed_coefficients(center[2], spec.gp))
            assert spec.q.scaled(2) == monomial_form(spec.group, q), row.printed_category
            assert spec.qp.scaled(2) == monomial_form(spec.gp, qp), row.printed_center_group
        else:
            category = re.fullmatch(r"HI\((\w+),[^,]+,[^,]+,[^,]+\)", row.printed_category)
            assert (category[1], center[1]) == (str(spec.group), str(spec.h))
            qpp = _printed_coefficients(center[2], spec.h)
            assert spec.qpp == monomial_form(spec.h, qpp), row.printed_center_group


def test_hi_rows_negated_form_is_isometric():
    """Every prime of |H| = |G|^2 + 4 is 1 mod 4, so -q'' takes the values of
    q'' equally often and no sign of q'' changes nu_1: why the failed note
    holds for either sign although only one is tried."""
    for row in builtin_rows():
        if row.spec.family != "HI":
            continue
        qpp = row.spec.qpp
        assert Counter(qpp.values) == Counter(qpp.scaled(-1).values), row.row_id
        flipped = replace(row.spec, qpp=qpp.scaled(-1))
        # the same terms summed in another order
        assert abs(closed_form_nu(flipped, 1) - closed_form_nu(row.spec, 1)) < 1e-12, row.row_id


def test_verify_row_ng7_passes():
    for row_id in (1, 2):
        report = verify_row(_row("ng7", row_id))
        assert report.all_pass
        assert report.max_deviation < TOL


def test_verify_row_catches_tampered_claim():
    row = _row("ng3", 1)
    good = next(c for c in row.claims if c.k == 7)
    tampered = ValueClaim(good.k, good.text, good.a, -good.b, good.d)
    report = verify_row(row)
    check = next(c for c in report.checks if c.k == 7)
    assert check.passed
    deviation = abs(tampered.expected() - check.center)
    assert abs(deviation - math.sqrt(7)) < 1e-6


def test_ng3_nu3_column_is_the_known_anomaly():
    # both rows mismatch exactly in the nu_3 claim, by complex conjugation
    for row_id in (1, 2):
        report = verify_row(_row("ng3", row_id))
        failing = [c for c in report.checks if not c.passed]
        assert [c.k for c in failing] == [3]
        check = failing[0]
        assert abs(check.center - check.expected.conjugate()) < TOL
        assert abs(check.deviation - math.sqrt(3)) < 1e-6


def _ng2_center_nu(n, c, n_prime, c_prime, d, k):
    """nu_k(rho) of NG(Z/n, n) by direct summation over its center.

    The forms are in the printed (twist) convention, q(g) = c g^2/n on Z/n and
    q'(x) = c' x^2/n' on Z/n'.  The objects that contain rho, each once, are
    B_g (twist q(g), dim 1 + d), C_{g,h} for g < h (twist c g h/n, dim 2 + d)
    and E_{g,x} for pairs {x, -x}, x != 0 (twist q(g) + q'(x), dim d); the
    global dimension is n (2 + d).
    """

    def e(num, den):
        return cmath.exp(2j * math.pi * ((k * num) % den) / den)

    pairs = [x for x in range(1, n_prime) if x <= n_prime - x]
    total = sum(e(c * g * g, n) * (1 + d) for g in range(n))
    total += sum(
        e(c * g * h, n) * (2 + d) for g in range(n) for h in range(g + 1, n)
    )
    total += sum(
        e(c * g * g * n_prime + c_prime * x * x * n, n * n_prime) * d
        for g in range(n)
        for x in pairs
    )
    return total / (n * (2 + d))


def test_ng3_listed_nu3_is_unreachable():
    """No NG(Z/3, 3) with nu_1(rho) = 0 gives the listed (nu_3, nu_7) of ng3.

    Sums over all 12 unit coefficient pairs on Z/3 and Z/7 and both roots of
    d^2 = 3d + 3.  With the Frobenius-Perron root, Im nu_3 and Im nu_7 always
    have opposite signs, while the listed rows have them equal.  With the
    other root the listed pair is reached, but only with q the negative of the
    printed form: the listed row is the Galois conjugate (zeta_21 -> zeta_21^2)
    of the computed one.  So the listed nu_3 is wrong, not the program.
    """
    fp_root, other_root = (3 + math.sqrt(21)) / 2, (3 - math.sqrt(21)) / 2
    sums = {
        d: {
            (c, c_prime): {k: _ng2_center_nu(3, c, 7, c_prime, d, k) for k in (1, 3, 7)}
            for c in (1, 2)
            for c_prime in range(1, 7)
        }
        for d in (fp_root, other_root)
    }

    fp_vanishing = [nu for nu in sums[fp_root].values() if abs(nu[1]) < TOL]
    assert fp_vanishing
    for nu in fp_vanishing:
        assert min(abs(nu[3].imag), abs(nu[7].imag)) > 0.5
        assert nu[3].imag * nu[7].imag < 0

    printed = {1: (1, 1), 2: (-1, -1)}  # (c, c') of the two rows as printed
    for row_id, (c, c_prime) in printed.items():
        printed_key = (c % 3, c_prime % 7)
        listed = {claim.k: claim.expected() for claim in _row("ng3", row_id).claims}
        assert listed[3].imag * listed[7].imag > 0
        # the direct sum is the program's center route at the printed forms
        for check in verify_row(_row("ng3", row_id)).checks:
            assert abs(sums[fp_root][printed_key][check.k] - check.center) < TOL
        for d, by_coeffs in sums.items():
            reached = {
                key
                for key, nu in by_coeffs.items()
                if abs(nu[1]) < TOL
                and abs(nu[3] - listed[3]) < TOL
                and abs(nu[7] - listed[7]) < TOL
            }
            assert printed_key not in reached
            assert bool(reached) == (d == other_root)
            assert all(key[0] == -c % 3 for key in reached)


def test_hi_generic_law_spot_checks_pass():
    report = verify_row(_row("hi3", 1))
    law_checks = [c for c in report.checks if "k=" in c.text]
    assert len(law_checks) == 5
    assert all(c.passed for c in law_checks)


def test_verify_tables_selection():
    assert len(verify_tables("ng13")) == 4
    assert len(verify_tables()) == 26
    with pytest.raises(KeyError, match="unknown table id 'ng99'"):
        verify_tables("ng99")


def test_emit_report_formats_and_determinism():
    reports = verify_tables("ng9")
    for fmt in ("csv", "json", "markdown"):
        assert emit_report(reports, fmt) == emit_report(reports, fmt)
    with pytest.raises(KeyError):
        emit_report(reports, "yaml")


def test_markdown_reproduces_table_shape():
    text = emit_report(verify_tables("ng9"), "markdown")
    lines = [line for line in text.splitlines() if line.startswith("|")]
    # header + separator + 3 rows
    assert len(lines) == 5
    assert "nu_3" in lines[0] and "nu_9" in lines[0] and "nu_13" in lines[0]


def test_markdown_mismatch_cell_signs_the_printed_imaginary_part():
    # the sign follows the printed digits, so an imaginary part below DEFAULT_TOL
    # prints as +0 whatever its sign
    row = _row("ng7", 1)
    cases = {1.5 - 1e-13j: "1.5+0i", 1.5 + 1e-13j: "1.5+0i", -0.0j: "0+0i",
             0.5 - 2j: "0.5-2i", 0.5 + 2j: "0.5+2i"}
    for center, shown in cases.items():
        check = ClaimCheck(7, "(1+sqrt7)/2", 2, center, center, 1.0, False)
        text = emit_report([RowReport(row, (check,), False, 1.0)], "markdown")
        assert f"| (1+sqrt7)/2 MISMATCH computed {shown} |" in text, text


def test_csv_round_trips_against_json_records():
    reports = verify_tables("hi3")
    csv_text = emit_report(reports, "csv")
    json_payload = json.loads(emit_report(reports, "json"))
    parsed = list(csv.DictReader(io.StringIO(csv_text)))
    assert parsed == json_payload["records"]


def test_full_report_flags_only_the_documented_anomaly(builtin_reports):
    failing = [
        (r.row.table_id, r.row.row_id) for r in builtin_reports if not r.all_pass
    ]
    assert failing == [("ng3", 1), ("ng3", 2)]
    payload = json.loads(emit_report(builtin_reports, "json"))
    assert payload["all_pass"] is False
    bad_records = [rec for rec in payload["records"] if rec["pass"] == "false"]
    assert len(bad_records) == 2
    assert {rec["table_id"] for rec in bad_records} == {"ng3"}


def test_table_ids_constant():
    """The tables, in the order their rows come: the `--table` choices."""
    table_ids = tuple(dict.fromkeys(r.table_id for r in builtin_rows()))
    assert tuple(EXPECTED_ROW_COUNTS) == table_ids


@pytest.mark.skipif(
    sys.version_info < (3, 11), reason="tomllib is in the standard library from Python 3.11"
)
def test_every_data_file_is_declared_package_data():
    """A file of the package that is not Python, such as ``tables.json``, is
    installed only if ``pyproject.toml`` declares it as package data."""
    import tomllib

    package = Path(fsind.__file__).parent
    with open(package.parents[1] / "pyproject.toml", "rb") as file:
        declared = tomllib.load(file)["tool"]["setuptools"]["package-data"]["fsind"]
    data = [
        path.relative_to(package).as_posix() for path in package.rglob("*")
        if path.is_file() and path.suffix != ".py" and "__pycache__" not in path.parts
    ]
    assert "tables.json" in data
    assert [name for name in data if not any(fnmatch(name, glob) for glob in declared)] == []
