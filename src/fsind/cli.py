"""Command-line front end.

Subcommands: ``gauss``, ``indicators``, ``verify-tables``, ``rigidity``,
``agl``.  JSON in, JSON out for machine use; markdown only for human table
reproduction.  All output is deterministic: identical invocations produce
byte-identical bytes.

Exit codes: 0 success / all pass, 1 verification failure, 2 usage or parse
error.  The environment variable ``FI_TOLERANCE`` overrides the default
comparison tolerance (must lie in (0, 1e-3]).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from fractions import Fraction

from .abelian import group_from_json
from .indicators import (
    DEFAULT_TOL,
    build_agl,
    closed_form_nu,
    nu_agl_bruteforce,
    nu_agl_closed_exact,
    nu_from_center,
    rigidity_report,
    spec_from_json,
)
from .qforms import form_from_json, gauss_sum, phase_to_complex
from .tables import TABLE_IDS, emit_report, format_real, verify_tables

USAGE_ERROR = 2
VERIFY_ERROR = 1


class CliError(Exception):
    """Usage or parse problem; maps to exit code 2."""


def _json_default(value):
    if isinstance(value, Fraction):
        return f"{value.numerator}/{value.denominator}"
    raise TypeError(f"not serializable: {value!r}")


def _dump(payload) -> str:
    return json.dumps(payload, indent=2, sort_keys=True, default=_json_default) + "\n"


def _load_json_arg(text: str):
    if text.startswith("@"):
        with open(text[1:], "r", encoding="utf-8") as handle:
            text = handle.read()
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise CliError(f"invalid JSON: {exc}") from exc


def _tolerance(args) -> float:
    value = None
    if args.tolerance is not None:
        value = args.tolerance
    elif "FI_TOLERANCE" in os.environ:
        try:
            value = float(os.environ["FI_TOLERANCE"])
        except ValueError as exc:
            raise CliError(f"FI_TOLERANCE is not a number: {exc}") from exc
    if value is None:
        return DEFAULT_TOL
    if not 0 < value <= 1e-3:
        raise CliError(f"tolerance must lie in (0, 1e-3], got {value}")
    return value


def _recognized_phase(z: complex, tol: float, max_den: int) -> Fraction | None:
    if abs(abs(z) - 1) > tol:
        return None
    angle = Fraction(math.atan2(z.imag, z.real) / (2 * math.pi)).limit_denominator(max_den)
    if abs(phase_to_complex(angle % 1) - z) < max(tol, 1e-9):
        return angle % 1
    return None


def cmd_gauss(args) -> int:
    tol = _tolerance(args)
    group = group_from_json(_load_json_arg(args.group))
    form = form_from_json(_load_json_arg(args.form), group)
    if args.scale != 1:
        form = form.scaled(args.scale)
    theta = gauss_sum(form)
    print(format_real(theta.real, tol), format_real(theta.imag, tol))
    phase = _recognized_phase(theta, tol, 4 * group.order**2)
    if phase is not None:
        print(f"phase: {phase.numerator}/{phase.denominator}")
    return 0


def cmd_indicators(args) -> int:
    tol = _tolerance(args)
    spec = spec_from_json(_load_json_arg(args.spec))
    period = spec.period()
    kmax = period if args.kmax == "auto" else int(args.kmax)
    if kmax < 1:
        raise CliError("kmax must be at least 1")
    presentation = spec.center()
    target = spec.rho_label()
    values = []
    for k in range(1, kmax + 1):
        entry: dict = {"k": k}
        if args.path in ("center", "both"):
            z = nu_from_center(presentation, target, k)
            entry["re"], entry["im"] = format_real(z.real, tol), format_real(z.imag, tol)
        if args.path in ("closed", "both"):
            w = closed_form_nu(spec, k)
            if args.path == "closed":
                entry["re"], entry["im"] = format_real(w.real, tol), format_real(w.imag, tol)
            else:
                entry["re_closed"] = format_real(w.real, tol)
                entry["im_closed"] = format_real(w.imag, tol)
                entry["deviation"] = format_real(abs(z - w), tol)
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
    tol = _tolerance(args)
    try:
        reports = verify_tables(args.table, tol)
    except KeyError as exc:
        raise CliError(str(exc)) from exc
    sys.stdout.write(emit_report(reports, args.format))
    return 0 if all(r.all_pass for r in reports) else VERIFY_ERROR


def cmd_rigidity(args) -> int:
    tol = _tolerance(args)
    specs = [spec_from_json(entry) for entry in _load_json_arg(args.specs)]
    if not specs:
        raise CliError("need at least one spec")
    report = rigidity_report(specs, specs[0].base_ring(), tol)
    payload = {
        "period": report.period,
        "distinguished": report.distinguished,
        "classes": [
            [report.descriptions[i] for i in cls] for cls in report.classes
        ],
        "separators": [
            {
                "first": report.descriptions[i],
                "second": report.descriptions[j],
                "smallest_k": k,
            }
            for i, j, k in report.separators
        ],
    }
    sys.stdout.write(_dump(payload))
    return 0


def cmd_agl(args) -> int:
    tol = _tolerance(args)
    agl = build_agl(args.q)
    if args.q == 2:
        print(
            "warning: q = 2 is degenerate (|G| = 1; rho is the sign character of Z/2)",
            file=sys.stderr,
        )
    print(f"# AGL_1(F_{args.q}): order {agl.order}, characteristic {agl.p}")
    print("k nu_bruteforce nu_closed deviation")
    for k in range(1, args.kmax + 1):
        brute = nu_agl_bruteforce(args.q, k)
        closed = nu_agl_closed_exact(args.q, k)
        deviation = abs(float(brute) - closed)
        print(f"{k} {format_real(float(brute), tol)} {closed} {format_real(deviation, tol)}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fsind",
        description="Frobenius-Schur indicators of near-group and "
        "Haagerup-Izumi fusion categories",
    )
    parser.add_argument(
        "--tolerance", type=float, default=None,
        help="comparison tolerance in (0, 1e-3]; FI_TOLERANCE also honored",
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
    p.add_argument("--path", choices=("center", "closed", "both"), default="center")
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
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except (ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
