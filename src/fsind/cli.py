"""Command-line front end.

Subcommands: ``gauss``, ``indicators``, ``verify-tables``, ``rigidity``,
``agl``.  JSON in, JSON out for machine use; markdown only for human table
reproduction.  All output is deterministic: identical invocations produce
byte-identical bytes.

Exit codes: 0 success / all pass, 1 verification failure, 2 usage or parse
error.  Floats are compared at one fixed threshold, ``qforms.DEFAULT_TOL``,
and values below it print as 0; ``rigidity`` decides classes exactly and uses
it only for each ``smallest_k``.

The only bound here, :data:`MAX_KMAX`, is on the k a command evaluates; what
a spec enumerates is bounded as it is read, by ``indicators.spec_from_json``.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

# Only what `gauss` runs is imported here; the other commands import
# `indicators` or `tables` when they run, so no process compiles modules its
# command never calls.
from .abelian import cyclic, factor_prime_power, group_from_json
from .qforms import DEFAULT_TOL, form_from_json, format_real, gauss_sum, phase_to_complex

USAGE_ERROR = 2
VERIFY_ERROR = 1
MAX_KMAX = 100_000  # bounds the time and memory of one indicators, rigidity or agl run
# the names of indicators.ROUTES and tables.TABLE_IDS, which tests pin these to
PATHS = ("center", "closed", "both")
TABLE_IDS = ("ng3", "ng5", "ng7", "ng9", "ng11", "ng13", "hi3", "hi5")


class CliError(Exception):
    """Usage or parse problem; maps to exit code 2."""


def _dump(payload) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _load_json_arg(text: str):
    if text.startswith("@"):
        try:
            with open(text[1:], "r", encoding="utf-8") as handle:
                text = handle.read()
        except OSError as exc:
            raise CliError(f"cannot read {text[1:]}: {exc.strerror}") from exc
    try:
        return json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:  # RecursionError: deep nesting
        raise CliError(f"invalid JSON: {exc}") from exc


def _recognized_phase(z: complex) -> str | None:
    """The phase of a normalized Gauss sum ``z`` of modulus 1, which is an
    eighth root of unity (Milgram's formula), as a reduced ``m/8``; a
    degenerate form gives 0 or a modulus of at least sqrt 2, and no phase."""
    eighths = round(4 * math.atan2(z.imag, z.real) / math.pi) % 8
    if abs(phase_to_complex(eighths / 8) - z) < DEFAULT_TOL:
        common = math.gcd(eighths, 8)
        return f"{eighths // common}/{8 // common}"
    return None


def cmd_gauss(args) -> int:
    group = group_from_json(_load_json_arg(args.group))
    form = form_from_json(_load_json_arg(args.form), group)
    if args.scale != 1:
        form = form.scaled(args.scale)
    theta = gauss_sum(form)
    print(format_real(theta.real), format_real(theta.imag))
    phase = _recognized_phase(theta)
    if phase is not None:
        print(f"phase: {phase}")
    return 0


def _check_kmax(kmax: int) -> None:
    if not 1 <= kmax <= MAX_KMAX:
        raise CliError(f"kmax must lie in [1, {MAX_KMAX}], got {kmax}")


def cmd_indicators(args) -> int:
    from .indicators import ROUTES, spec_from_json

    spec = spec_from_json(_load_json_arg(args.spec))
    period = spec.period()
    kmax = period if args.kmax == "auto" else int(args.kmax)
    _check_kmax(kmax)
    ks = range(1, kmax + 1)
    routes = ("center", "closed") if args.path == "both" else (args.path,)
    vectors = {route: ROUTES[route](spec, ks) for route in routes}
    values = []
    for i, k in enumerate(ks):
        entry: dict = {"k": k}
        for route, vector in vectors.items():
            key = "_closed" if route == "closed" and len(routes) == 2 else ""
            entry["re" + key] = format_real(vector[i].real)
            entry["im" + key] = format_real(vector[i].imag)
        if len(routes) == 2:
            deviation = abs(vectors["center"][i] - vectors["closed"][i])
            entry["deviation"] = format_real(deviation)
        values.append(entry)
    payload = {
        "spec": spec.describe(),
        "period": period,
        "provenance": list(spec.provenance),
        "values": values,
    }
    sys.stdout.write(_dump(payload))
    return 0


def cmd_verify_tables(args) -> int:
    from .tables import emit_report, verify_tables

    reports = verify_tables(args.table)
    sys.stdout.write(emit_report(reports, args.format))
    return 0 if all(r.all_pass for r in reports) else VERIFY_ERROR


def cmd_rigidity(args) -> int:
    from .indicators import rigidity_report, spec_from_json

    data = _load_json_arg(args.specs)
    if not isinstance(data, list) or not data:
        raise CliError("--specs must be a JSON list of at least one spec")
    specs = [spec_from_json(entry) for entry in data]
    for spec in specs:  # each class tabulates one root per residue of its period
        if spec.period() > MAX_KMAX:
            raise CliError(f"period {spec.period()} of {spec.describe()} exceeds {MAX_KMAX}")
    report = rigidity_report(specs)
    names = [spec.describe() for spec in specs]
    payload = {
        "period": report.period,
        "distinguished": report.distinguished,
        "classes": [
            [names[i] for i in cls] for cls in report.classes
        ],
        "separators": [
            {
                "first": names[i],
                "second": names[j],
                "smallest_k": k,
            }
            for i, j, k in report.separators
        ],
    }
    sys.stdout.write(_dump(payload))
    return 0


def cmd_agl(args) -> int:
    from .indicators import CategorySpec, closed_vector, nu_agl_bruteforce

    _check_kmax(args.kmax)
    q, ks = args.q, range(1, args.kmax + 1)
    brute = [float(nu) for nu in nu_agl_bruteforce(q, ks)]
    p = factor_prime_power(q)[0]
    if q == 2:
        print(
            "warning: q = 2 is degenerate (|G| = 1; rho is the sign character of Z/2)",
            file=sys.stderr,
        )
    print(f"# AGL_1(F_{q}): order {q * (q - 1)}, characteristic {p}")
    print("k nu_bruteforce nu_closed deviation")
    # Rep(AGL_1(F_q)) is the near group NG(F_q^*, q - 2) with zeta1 = 0
    closed = closed_vector(CategorySpec("NG1", cyclic(q - 1), p=p, zeta1=0), ks)
    for k, nu, value in zip(ks, brute, closed):
        print(k, *(format_real(x) for x in (nu, value.real, abs(nu - value))))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fsind",
        description="Frobenius-Schur indicators of near-group and "
        "Haagerup-Izumi fusion categories",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gauss", help="normalized Gauss sum of a quadratic form")
    p.add_argument("--group", required=True, help='JSON, e.g. {"cyclic_factors":[3]}')
    p.add_argument("--form", required=True,
                   help='JSON, e.g. {"monomial":[{"factor":0,"coeff":1}]}')
    p.add_argument("--scale", type=int, default=1, help="evaluate Theta(G, k*q)")
    p.set_defaults(func=cmd_gauss)

    p = sub.add_parser("indicators", help="indicator vector of a category spec")
    p.add_argument("--spec", required=True, help="spec JSON (or @file)")
    p.add_argument("--kmax", default="auto", help="integer or 'auto' (one period)")
    p.add_argument("--path", choices=PATHS, default="center")
    p.set_defaults(func=cmd_indicators)

    p = sub.add_parser("verify-tables", help="re-derive every bundled table value")
    p.add_argument("--table", choices=TABLE_IDS, default=None)
    p.add_argument("--format", choices=("csv", "json", "markdown"), default="json")
    p.set_defaults(func=cmd_verify_tables)

    p = sub.add_parser("rigidity", help="partition specs by indicator vectors")
    p.add_argument("--specs", required=True, help="JSON list of specs (or @file)")
    p.set_defaults(func=cmd_rigidity)

    p = sub.add_parser("agl", help="brute force vs closed form over AGL_1(F_q)")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--kmax", type=int, default=30)
    p.set_defaults(func=cmd_agl)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return USAGE_ERROR if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (CliError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
