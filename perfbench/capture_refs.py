"""Capture the benchmark's reference data from the fsind source tree beside it.

    python3 perfbench/capture_refs.py

Writes ``perfbench/data/paper.json`` and ``perfbench/data/ladder.json``.  Run it
only on a commit whose outputs are trusted: every benchmark run checks the
program's outputs against these files.

paper.json holds the bundled table rows as spec JSON grouped by Grothendieck
ring, each row's center-route vector over one full period, the rigidity
payload of each ring, and the (table, row, k) key of every verify-tables
record.  ladder.json holds the center-route vectors of the synthetic NG2 specs
the ladder workload draws, keyed by the Legendre symbols of their
coefficients (see ``workloads.coeff_key``); the capture checks on random
representatives that the vector depends on the coefficients only through
that key.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from fsind import cli  # noqa: E402
from fsind.indicators import nu_from_center, spec_from_json, spec_to_json  # noqa: E402
from fsind.tables import builtin_rows, verify_tables  # noqa: E402

DIGITS = 10  # references are compared at 1e-9


def center_vector(spec_json: dict, kmax: int | None = None) -> list[list[float]]:
    spec = spec_from_json(spec_json)
    presentation = spec.center()
    target = spec.rho_label()
    kmax = spec.period() if kmax is None else kmax
    values = (nu_from_center(presentation, target, k) for k in range(1, kmax + 1))
    return [[round(z.real, DIGITS), round(z.imag, DIGITS)] for z in values]


def cli_json(argv: list[str]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli.main(argv)
    if rc != 0:
        raise RuntimeError(f"fsind {argv} exited {rc}")
    return json.loads(out.getvalue())


def capture_paper() -> dict:
    rings: dict[str, list[dict]] = {}
    rows: dict[str, list[dict]] = {}
    for row in builtin_rows():
        spec_json = spec_to_json(row.spec)
        name = workloads.ring_name(row.table_id, spec_json["group"]["cyclic_factors"])
        rings.setdefault(name, []).append(spec_json)
        rows.setdefault(name, []).append(
            {
                "row": row.row_id,
                "spec": spec_json,
                "period": row.spec.period(),
                "center": center_vector(spec_json),
            }
        )
    rigidity = {}
    scratch = HERE / "data" / "_specs.json"
    for name, specs in rings.items():
        scratch.write_text(json.dumps(specs))
        rigidity[name] = cli_json(["rigidity", "--specs", f"@{scratch}"])
    scratch.unlink()
    records = [
        [report.row.table_id, str(report.row.row_id), str(check.k)]
        for report in verify_tables()
        for check in report.checks
    ]
    return {"rings": rings, "rows": rows, "rigidity": rigidity, "verify_records": records}


def capture_ladder() -> dict:
    rng = random.Random(0)
    out = {}
    for family in workloads.LADDER_FAMILIES:
        kmax, keys = family["ref_kmax"], workloads.key_count(family)
        vectors: dict[str, list] = {}
        firsts: dict[str, dict] = {}
        checked: set[str] = set()
        # Each key is confirmed on two distinct coefficient draws.
        for _ in range(100 * keys):
            if len(checked) == keys:
                break
            spec = workloads.ladder_spec(rng, family)
            key = workloads.coeff_key(spec)
            if key in checked or firsts.get(key) == spec:
                continue
            vec = center_vector(spec, kmax)
            if key not in vectors:
                vectors[key], firsts[key] = vec, spec
                continue
            worst = max(abs(a - b) for u, v in zip(vectors[key], vec) for a, b in zip(u, v))
            if worst > 1e-9:
                raise RuntimeError(f"{family['name']}: key {key} does not fix the vector")
            checked.add(key)
        if len(checked) != keys:
            raise RuntimeError(f"{family['name']}: only {len(checked)} of {keys} keys confirmed")
        period = spec_from_json(spec).period()
        out[family["name"]] = {"period": period, "vectors": dict(sorted(vectors.items()))}
        print(f"{family['name']}: {keys} keys, period {period}, kmax {kmax}", file=sys.stderr)
    return out


def main() -> int:
    out = HERE / "data"
    out.mkdir(exist_ok=True)
    (out / "paper.json").write_text(json.dumps(capture_paper(), separators=(",", ":")) + "\n")
    (out / "ladder.json").write_text(json.dumps(capture_ladder(), separators=(",", ":")) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
