"""Golden CLI output: every case must reproduce its recorded stdout byte for byte.

The cases are the README examples, ``verify-tables`` in all three formats,
one ``indicators --path both`` per family, and a few usage errors.  Each
case's stdout is stored in ``tests/golden/<name>.out`` and its exit code in
``tests/golden/exit_codes.json``.  To record them again (only on a commit
whose output is trusted):

    PYTHONPATH=src python tests/test_golden_cli.py
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

from fsind.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"

Z3 = '{"cyclic_factors":[3]}'
FORM1 = '{"monomial":[{"factor":0,"coeff":1}]}'
NG2_README = """{
  "family": "NG2",
  "group": {"cyclic_factors":[3]},
  "q":  {"monomial":[{"factor":0,"coeff":1}]},
  "gp": {"cyclic_factors":[7]},
  "qp": {"monomial":[{"factor":0,"coeff":-1}]}}"""
NG1_PAIR = """[
  {"family":"NG1","group":{"cyclic_factors":[3]},"p":2,"zeta1":"0"},
  {"family":"NG1","group":{"cyclic_factors":[3]},"p":2,"zeta1":"1/4"}]"""
NG1_SPEC = '{"family":"NG1","group":{"cyclic_factors":[3]},"p":2,"zeta1":"1/4"}'
NG1X_SPEC = '{"family":"NG1X","labels":{"s":"-1"}}'
NG2_SPEC = (
    '{"family":"NG2","group":{"cyclic_factors":[3,3]},'
    '"q":{"monomial":[{"factor":0,"coeff":1},{"factor":1,"coeff":1}]},'
    '"gp":{"cyclic_factors":[13]},"qp":{"monomial":[{"factor":0,"coeff":1}]},'
    '"labels":{"c":"-"}}'
)
HI_SPEC = (
    '{"family":"HI","group":{"cyclic_factors":[3]},"h":{"cyclic_factors":[13]},'
    '"qpp":{"monomial":[{"factor":0,"coeff":1}]}}'
)
HI_PAIR = "[" + HI_SPEC + "," + HI_SPEC.replace('"coeff":1', '"coeff":2') + "]"

CASES = {
    # README "Command line" examples
    "readme_gauss": ["gauss", "--group", Z3, "--form", FORM1],
    "readme_indicators_ng2": [
        "indicators", "--path", "both", "--kmax", "7", "--spec", NG2_README,
    ],
    "readme_verify_markdown": ["verify-tables", "--format", "markdown"],
    "readme_verify_ng7_csv": ["verify-tables", "--table", "ng7", "--format", "csv"],
    "readme_rigidity_ng1": ["rigidity", "--specs", NG1_PAIR],
    "readme_agl_27": ["agl", "--q", "27", "--kmax", "30"],
    # verify-tables, every format
    "verify_json": ["verify-tables", "--format", "json"],
    "verify_csv": ["verify-tables", "--format", "csv"],
    # both routes, one spec per family, one full period
    "indicators_ng1": ["indicators", "--path", "both", "--spec", NG1_SPEC],
    "indicators_ng1x": ["indicators", "--path", "both", "--spec", NG1X_SPEC],
    "indicators_ng2": ["indicators", "--path", "both", "--spec", NG2_SPEC],
    "indicators_hi": ["indicators", "--path", "both", "--spec", HI_SPEC],
    # other paths through the commands
    "gauss_table_scaled": [
        "gauss", "--group", '{"cyclic_factors":[5]}',
        "--form", '{"table":["0","1/5","4/5","4/5","1/5"]}', "--scale", "2",
    ],
    "rigidity_hi": ["rigidity", "--specs", HI_PAIR],
    # usage errors: exit code 2, nothing on stdout
    "agl_not_prime_power": ["agl", "--q", "6"],
    "agl_over_cap": ["agl", "--q", "128"],
    "rigidity_kmax": ["rigidity", "--specs", NG1_PAIR, "--kmax", "5"],
}


def run_case(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(list(argv))
    return code, out.getvalue()


@pytest.fixture(scope="module")
def exit_codes() -> dict:
    return json.loads((GOLDEN / "exit_codes.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_cli_output(name, exit_codes):
    code, out = run_case(CASES[name])
    expected = (GOLDEN / f"{name}.out").read_bytes()
    assert out.encode("utf-8") == expected, f"stdout of {name} differs from its golden"
    assert code == exit_codes[name]


def test_golden_set_is_complete(exit_codes):
    assert set(exit_codes) == set(CASES)
    assert {p.stem for p in GOLDEN.glob("*.out")} == set(CASES)


def _record() -> None:
    GOLDEN.mkdir(exist_ok=True)
    codes = {}
    for name, argv in sorted(CASES.items()):
        codes[name], out = run_case(argv)
        (GOLDEN / f"{name}.out").write_text(out, encoding="utf-8")
    text = json.dumps(codes, indent=2, sort_keys=True) + "\n"
    (GOLDEN / "exit_codes.json").write_text(text, encoding="utf-8")


if __name__ == "__main__":
    _record()
    sys.exit(0)
