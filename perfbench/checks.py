"""Output checks for benchmark jobs.

Each check takes ``(exit_code, stdout)`` after its bound parameters and
returns ``None`` when the output is right, else a one-line reason.  A check
may also raise ``ValueError``, ``KeyError``, ``IndexError`` or ``TypeError``
on output it cannot parse; the runner counts that as a failure too.
"""

from __future__ import annotations

import cmath
import csv
import io
import itertools
import json
import math
import re

TOL = 1e-9

# The documented data anomaly of the bundled tables: both |G| = 3 rows list
# the complex conjugate of nu_3.  verify-tables must report exactly these
# claims as failing, so the anomaly stays visible and hides nothing else.
ANOMALIES = {("ng3", "1", "3"), ("ng3", "2", "3")}


def verify_tables(fmt: str, keys, rc: int, stdout: str) -> str | None:
    """Every expected (table, row, k) record, failing exactly on ANOMALIES."""
    parse = {"json": _json_records, "csv": _csv_records, "markdown": _markdown_records}[fmt]
    records = parse(stdout)
    expected_keys = sorted(tuple(k) for k in keys)
    expected_fail = ANOMALIES & set(expected_keys)
    expected_rc = 1 if expected_fail else 0
    if rc != expected_rc:
        return f"exit code {rc}, expected {expected_rc}"
    got_keys = sorted(key for key, _ in records)
    if fmt == "markdown":  # one cell per (row, k)
        expected_keys = sorted(set(expected_keys))
    if got_keys != expected_keys:
        return f"{len(got_keys)} records do not match the {len(expected_keys)} expected"
    failing = {key for key, passed in records if not passed}
    if failing != expected_fail:
        return f"failing claims {sorted(failing)}, expected {sorted(expected_fail)}"
    return None


def _json_records(stdout: str):
    payload = json.loads(stdout)
    return [((r["table_id"], r["row_id"], r["k"]), r["pass"] == "true") for r in payload["records"]]


def _csv_records(stdout: str):
    reader = csv.DictReader(io.StringIO(stdout))
    return [((r["table_id"], r["row_id"], r["k"]), r["pass"] == "true") for r in reader]


def _markdown_records(stdout: str):
    records = []
    table, ks = None, []
    for line in stdout.splitlines():
        if line.startswith("## "):
            table, ks = line[3:].strip(), []
        elif line.startswith("| row |"):
            ks = [cell.strip().removeprefix("nu_") for cell in line.strip("|").split("|")[3:]]
        elif line.startswith("| ") and table is not None:
            cells = [cell.strip() for cell in line.strip().strip("|").split("|")]
            if len(cells) != 3 + len(ks):
                raise ValueError(f"malformed markdown row {line!r}")
            for k, cell in zip(ks, cells[3:]):
                if cell:
                    if not (cell.endswith(" ok") or " MISMATCH computed " in cell):
                        raise ValueError(f"unreadable cell {cell!r}")
                    records.append(((table, cells[0], k), cell.endswith(" ok")))
    return records


def equal_json(expected, rc: int, stdout: str) -> str | None:
    if rc != 0:
        return f"exit code {rc}"
    if json.loads(stdout) != expected:
        return "output differs from the reference"
    return None


def indicators(ref, period: int, kmax: int, both: bool, rc: int, stdout: str) -> str | None:
    """Center values match ``ref`` (and, with both routes, deviation <= TOL)."""
    if rc != 0:
        return f"exit code {rc}"
    payload = json.loads(stdout)
    if payload["period"] != period:
        return f"period {payload['period']}, expected {period}"
    values = payload["values"]
    if kmax > len(ref):
        return f"no reference beyond k={len(ref)}"
    if [entry["k"] for entry in values] != list(range(1, kmax + 1)):
        return "k does not run over 1..kmax"
    for entry, (re_ref, im_ref) in zip(values, ref):
        k = entry["k"]
        if abs(float(entry["re"]) - re_ref) > TOL or abs(float(entry["im"]) - im_ref) > TOL:
            return f"center value at k={k} differs from the reference"
        if both and float(entry["deviation"]) > TOL:
            return f"route deviation {entry['deviation']} at k={k}"
    return None


def rigidity_from_vectors(vectors, period: int, rc: int, stdout: str) -> str | None:
    """Classes and separators of specs tagged id=r0, r1, ... from their vectors."""
    if rc != 0:
        return f"exit code {rc}"
    payload = json.loads(stdout)

    def first_separator(i: int, j: int) -> int | None:
        for k, (u, v) in enumerate(zip(vectors[i], vectors[j]), start=1):
            if abs(complex(*u) - complex(*v)) > TOL:
                return k
        return None

    classes: list[list[int]] = []
    for i in range(len(vectors)):
        for cls in classes:
            if first_separator(i, cls[0]) is None:
                cls.append(i)
                break
        else:
            classes.append([i])
    separators = [
        [f"r{i}", f"r{j}", k]
        for i, j in itertools.combinations(range(len(vectors)), 2)
        if (k := first_separator(i, j)) is not None
    ]

    def ident(description: str) -> str:
        match = re.search(r"id=(r\d+)\)$", description)
        if match is None:
            raise ValueError(f"no id tag in {description!r}")
        return match.group(1)

    got_classes = [[ident(d) for d in cls] for cls in payload["classes"]]
    got_separators = [
        [ident(s["first"]), ident(s["second"]), s["smallest_k"]] for s in payload["separators"]
    ]
    if payload["period"] != period:
        return f"period {payload['period']}, expected {period}"
    if got_classes != [[f"r{i}" for i in cls] for cls in classes]:
        return f"classes {got_classes} differ from the reference"
    if got_separators != separators:
        return f"separators {got_separators} differ from {separators}"
    if payload["distinguished"] != all(len(cls) == 1 for cls in classes):
        return "wrong distinguished flag"
    return None


def gauss(factors, coeffs, rc: int, stdout: str) -> str | None:
    """Theta(G, q) against a direct sum over the group."""
    if rc != 0:
        return f"exit code {rc}"
    total = sum(
        cmath.exp(2j * math.pi * sum(c * g * g / n for c, g, n in zip(coeffs, elem, factors)))
        for elem in itertools.product(*(range(n) for n in factors))
    )
    theta = total / math.sqrt(math.prod(factors))
    lines = stdout.splitlines()
    re_s, im_s = lines[0].split()
    if abs(complex(float(re_s), float(im_s)) - theta) > TOL:
        return f"Gauss sum {lines[0]!r}, expected {theta:.12g}"
    unimodular = abs(abs(theta) - 1) <= TOL
    if len(lines) != 1 + unimodular:
        return f"{len(lines)} output lines"
    if unimodular:
        num, den = lines[1].removeprefix("phase: ").split("/")
        if abs(cmath.exp(2j * math.pi * int(num) / int(den)) - theta) > TOL:
            return f"phase {lines[1]!r} does not match"
    return None


def agl(q: int, kmax: int, rc: int, stdout: str) -> str | None:
    """Brute force equals the closed form gcd(k, q-1) - 1 + [p | k] exactly."""
    if rc != 0:
        return f"exit code {rc}"
    p = next(d for d in range(2, q + 1) if q % d == 0)
    expected = [
        f"# AGL_1(F_{q}): order {q * (q - 1)}, characteristic {p}",
        "k nu_bruteforce nu_closed deviation",
    ] + [
        f"{k} {v} {v} 0"
        for k in range(1, kmax + 1)
        for v in [math.gcd(k, q - 1) - 1 + (k % p == 0)]
    ]
    lines = stdout.splitlines()
    if lines != expected:
        bad = next((i for i, (a, b) in enumerate(zip(lines, expected)) if a != b), len(lines))
        return f"line {bad + 1} differs from the closed form"
    return None
