"""Seeded job lists for the benchmark's workloads.

A job is one ``python -m fsind <argv>`` process.  ``make_jobs(workload, seed,
inputs)`` returns the same list for the same seed: the seed feeds one
``random.Random`` that draws only inputs (which table row, which
coefficients, which Gauss-sum forms).  Spec lists go to the
program as ``@file`` JSON written under ``inputs``, as a user would pass them.

Workloads
  paper   the paper's reproduction as many short jobs: verify-tables in all
          three formats, rigidity of each of the 9 bundled Grothendieck rings,
          indicators --path both --kmax auto on one seed-chosen row per ring,
          gauss on seed-chosen monomial forms over groups of order <= 29, and
          the classical cross-check agl --q 27 --kmax 30, the only job that
          runs the AGL_1(F_q) brute force.  Interpreter start and
          ``import fsind.cli`` dominate most jobs.
  ladder  synthetic NG2 specs with seed-drawn unit coefficients (so both
          forms are non-degenerate): both routes at rank 504 over Z/21 and
          over the non-cyclic Z3xZ7, rigidity of three specs over Z/21, and
          the center route for k <= 200 at rank 2754 over Z/51.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import Callable

import checks

DATA = Path(__file__).resolve().parent / "data"

WORKLOADS = ("paper", "ladder")

GAUSS_JOBS = 4
GAUSS_GROUPS = [[n] for n in range(2, 30)] + [
    [2, 2], [2, 4], [3, 3], [2, 6], [2, 2, 2], [4, 4], [3, 6], [2, 10],
    [5, 5], [3, 9], [2, 2, 6], [2, 14],
]

# Center-route references exist for every coefficient draw of these families
# (see capture_refs.py); ``ref_kmax`` is the largest k any job asks for.
LADDER_FAMILIES = (
    {"name": "z21", "group": [21], "gp": [25], "ref_kmax": 525},
    {"name": "z3xz7", "group": [3, 7], "gp": [5, 5], "ref_kmax": 105},
    {"name": "z51", "group": [51], "gp": [55], "ref_kmax": 200},
)
LADDER_CENTER_KMAX = 200
LADDER_RIGIDITY_SPECS = 3

PAPER_AGL = (27, 30)  # (q, kmax) of the README's classical cross-check


@dataclass
class Job:
    name: str
    argv: list[str]  # arguments after ``python -m fsind``
    check: Callable[[int, str], str | None]  # (exit code, stdout) -> error or None
    nu: int = 0  # indicator values the job delivers
    sizes: dict = field(default_factory=dict)


def load(name: str) -> dict:
    return json.loads((DATA / f"{name}.json").read_text())


def ring_name(table_id: str, factors) -> str:
    return table_id + "-" + "x".join(f"z{n}" for n in factors)


def _write(inputs: Path, name: str, payload) -> str:
    path = inputs / name
    path.write_text(json.dumps(payload))
    return "@" + str(path)


def _units(n: int) -> list[int]:
    return [c for c in range(1, n) if math.gcd(c, n) == 1]


def _odd_primes(n: int) -> list[int]:
    return [p for p in range(3, n + 1, 2) if n % p == 0 and all(p % d for d in range(3, p, 2))]


def _monomial(coeffs) -> dict:
    return {"monomial": [{"factor": i, "coeff": c} for i, c in enumerate(coeffs)]}


def ladder_spec(rng: random.Random, family: dict, labels: dict | None = None) -> dict:
    """An NG2 spec whose coefficients are units modulo every cyclic factor."""
    spec = {
        "family": "NG2",
        "group": {"cyclic_factors": family["group"]},
        "q": _monomial([rng.choice(_units(n)) for n in family["group"]]),
        "gp": {"cyclic_factors": family["gp"]},
        "qp": _monomial([rng.choice(_units(n)) for n in family["gp"]]),
    }
    if labels:
        spec["labels"] = labels
    return spec


def coeff_key(spec: dict) -> str:
    """Legendre symbols of each coefficient at each odd prime of its factor.

    Two unit coefficients with the same symbols differ by a square unit, so
    their forms are isometric and the center data, hence the indicator
    vector, agree.
    """
    parts = []
    for group, form in (("group", "q"), ("gp", "qp")):
        factors = spec[group]["cyclic_factors"]
        coeffs = {e["factor"]: e["coeff"] for e in spec[form]["monomial"]}
        parts.append(
            "".join(
                "+" if pow(coeffs[i] % p, (p - 1) // 2, p) == 1 else "-"
                for i, n in enumerate(factors)
                for p in _odd_primes(n)
            )
        )
    return "/".join(parts)


def key_count(family: dict) -> int:
    return 2 ** sum(len(_odd_primes(n)) for n in family["group"] + family["gp"])


def _indicators_job(name, inputs, spec, ref, period, kmax, path) -> Job:
    argv = ["indicators", "--path", path, "--kmax", "auto" if kmax == period else str(kmax),
            "--spec", _write(inputs, f"{name.replace(':', '-')}.json", spec)]
    routes = 2 if path == "both" else 1
    return Job(name, argv, partial(checks.indicators, ref, period, kmax, path == "both"),
               nu=routes * kmax, sizes=_spec_sizes(spec) | {"N": period})


def _spec_sizes(spec: dict) -> dict:
    sizes = {"G": math.prod(spec["group"]["cyclic_factors"])}
    for key, tag in (("gp", "Gp"), ("h", "H")):
        if key in spec:
            sizes[tag] = math.prod(spec[key]["cyclic_factors"])
    return sizes


def _verify_job(fmt: str, records, table: str | None = None) -> Job:
    argv = ["verify-tables", "--format", fmt] + (["--table", table] if table else [])
    keys = [r for r in records if table in (None, r[0])]
    name = f"verify-tables:{fmt}" + (f":{table}" if table else "")
    return Job(name, argv, partial(checks.verify_tables, fmt, keys),
               nu=2 * len(keys), sizes={"claims": len(keys)})


def _rigidity_job(inputs, name: str, specs, payload) -> Job:
    argv = ["rigidity", "--specs", _write(inputs, f"rigidity-{name}.json", specs)]
    sizes = _spec_sizes(specs[0]) | {"specs": len(specs), "N": payload["period"]}
    return Job(f"rigidity:{name}", argv, partial(checks.equal_json, payload),
               nu=len(specs) * payload["period"], sizes=sizes)


def _agl_job(q: int, kmax: int) -> Job:
    return Job(f"agl:q{q}", ["agl", "--q", str(q), "--kmax", str(kmax)],
               partial(checks.agl, q, kmax), nu=kmax, sizes={"q": q})


def paper(rng: random.Random, inputs: Path) -> list[Job]:
    data = load("paper")
    jobs = [_verify_job(fmt, data["verify_records"]) for fmt in ("json", "csv", "markdown")]
    for name, specs in data["rings"].items():
        jobs.append(_rigidity_job(inputs, name, specs, data["rigidity"][name]))
    for name, rows in data["rows"].items():
        row = rng.choice(rows)
        jobs.append(_indicators_job(f"indicators:{name}:row{row['row']}", inputs, row["spec"],
                                    row["center"], row["period"], row["period"], "both"))
    for i in range(GAUSS_JOBS):
        factors = rng.choice(GAUSS_GROUPS)
        coeffs = [rng.randrange(n) for n in factors]
        argv = ["gauss", "--group", json.dumps({"cyclic_factors": factors}),
                "--form", json.dumps(_monomial(coeffs))]
        jobs.append(Job(f"gauss:{i}", argv, partial(checks.gauss, factors, coeffs),
                        sizes={"G": math.prod(factors)}))
    jobs.append(_agl_job(*PAPER_AGL))
    return jobs


def ladder(rng: random.Random, inputs: Path) -> list[Job]:
    refs = load("ladder")
    z21, z3xz7, z51 = LADDER_FAMILIES
    jobs = []
    for family in (z21, z3xz7):
        spec = ladder_spec(rng, family)
        ref = refs[family["name"]]
        jobs.append(_indicators_job(f"indicators:{family['name']}", inputs, spec,
                                    ref["vectors"][coeff_key(spec)], ref["period"],
                                    ref["period"], "both"))
    specs = [ladder_spec(rng, z21, {"id": f"r{i}"}) for i in range(LADDER_RIGIDITY_SPECS)]
    ref = refs["z21"]
    vectors = [ref["vectors"][coeff_key(spec)] for spec in specs]
    argv = ["rigidity", "--specs", _write(inputs, "rigidity-z21.json", specs)]
    jobs.append(Job("rigidity:z21", argv, partial(checks.rigidity_from_vectors, vectors, ref["period"]),
                    nu=len(specs) * ref["period"],
                    sizes=_spec_sizes(specs[0]) | {"specs": len(specs), "N": ref["period"]}))
    spec = ladder_spec(rng, z51)
    ref = refs["z51"]
    jobs.append(_indicators_job("indicators:z51", inputs, spec, ref["vectors"][coeff_key(spec)],
                                ref["period"], LADDER_CENTER_KMAX, "center"))
    return jobs


def make_jobs(workload: str, seed: int, inputs: Path) -> list[Job]:
    inputs.mkdir(parents=True, exist_ok=True)
    generate = {"paper": paper, "ladder": ladder}[workload]
    return generate(random.Random(seed), inputs)


def probe_jobs(inputs: Path) -> list[Job]:
    """One smallest-size job per layer, appended to every traced pass.

    Every workload's traced run then reaches every layer at least once, so no
    per-layer metric reads a constant 0 on a workload that skips the layer.
    """
    inputs.mkdir(parents=True, exist_ok=True)
    data = load("paper")
    row = data["rows"]["ng3-z3"][0]
    return [
        _indicators_job("probe:indicators", inputs, row["spec"], row["center"], row["period"],
                        3, "both"),
        _rigidity_job(inputs, "probe-ng3-z3", data["rings"]["ng3-z3"], data["rigidity"]["ng3-z3"]),
        _verify_job("csv", data["verify_records"], table="ng7"),
        _agl_job(3, 4),
    ]
