"""Golden CLI output: every case must reproduce its recorded stdout byte for byte.

The cases are the README examples, ``verify-tables`` in all three formats,
one ``indicators --path both`` per family, and a few usage errors.  Each
case's stdout is stored in ``tests/golden/<name>.out`` and its exit code in
``tests/golden/exit_codes.json``.  To record the cases that have no
``.out`` file yet:

    PYTHONPATH=src python tests/test_golden_cli.py

Every existing golden is left untouched, so a recording changes nothing that
was trusted before.  To record a case again, delete its ``.out`` file first.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
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
NG1X_Z1XZ7_SPEC = '{"family":"NG1X","group":{"cyclic_factors":[1,7]}}'
NG1_Z3XZ5_SPEC = '{"family":"NG1","group":{"cyclic_factors":[3,5]},"p":2,"zeta1":"0"}'
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
# groups of order over abelian.MAX_ORDER, refused before anything is enumerated
NG2_OVER_BOUND = (
    '{"family":"NG2","group":{"cyclic_factors":[1000000001]},"q":' + FORM1 + ","
    '"gp":{"cyclic_factors":[1000000005]},"qp":' + FORM1 + "}"
)
# |G|^2 = 1023^2 over abelian.MAX_ORDER: the center would have about 10^6 objects
NG1_CENTER_OVER_BOUND = NG1_SPEC.replace("[3]", "[1023]")
# one period is 6 * 100003 = 600018, over the kmax bound
NG1_LONG_PERIOD = NG1_SPEC.replace('"1/4"', '"1/100003"')
# one period is 6 * 10000019 = 60000114, over abelian.MAX_ORDER
NG1_PERIOD_OVER_BOUND = NG1_SPEC.replace('"1/4"', '"1/10000019"')
NG1_PAIR_OVER_BOUND = (
    "[" + NG1_PERIOD_OVER_BOUND + "," + NG1_PERIOD_OVER_BOUND.replace('"1/', '"2/') + "]"
)
HI_PAIR = "[" + HI_SPEC + "," + HI_SPEC.replace('"coeff":1', '"coeff":2') + "]"
# the trivial group written two ways
TRIVIAL_PAIR = """[
  {"family":"NG1","group":{"cyclic_factors":[]},"p":2,"zeta1":"0"},
  {"family":"NG1","group":{"cyclic_factors":[1]},"p":2,"zeta1":"0"}]"""
# isomorphic groups: g^2/21 on Z/21 is (1, -2) on Z3xZ7; (1, 1) is another class
NG2_Z25 = '"gp":{"cyclic_factors":[25]},"qp":{"monomial":[{"factor":0,"coeff":1}]}}'
Z21_Z3XZ7 = (
    '[{"family":"NG2","group":{"cyclic_factors":[21]},'
    '"q":{"monomial":[{"factor":0,"coeff":1}]},' + NG2_Z25 + ","
    '{"family":"NG2","group":{"cyclic_factors":[3,7]},'
    '"q":{"monomial":[{"factor":0,"coeff":1},{"factor":1,"coeff":-2}]},' + NG2_Z25 + ","
    '{"family":"NG2","group":{"cyclic_factors":[3,7]},'
    '"q":{"monomial":[{"factor":0,"coeff":1},{"factor":1,"coeff":1}]},' + NG2_Z25 + "]"
)

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
    # NG1X over Z/7 written with a trivial factor
    "indicators_ng1x_z1xz7": ["indicators", "--path", "both", "--spec", NG1X_Z1XZ7_SPEC],
    # NG1 over Z/15 = F_16^* written as Z3xZ5
    "indicators_ng1_z3xz5": ["indicators", "--path", "both", "--spec", NG1_Z3XZ5_SPEC],
    "indicators_ng2": ["indicators", "--path", "both", "--spec", NG2_SPEC],
    "indicators_hi": ["indicators", "--path", "both", "--spec", HI_SPEC],
    # other paths through the commands
    "gauss_table_scaled": [
        "gauss", "--group", '{"cyclic_factors":[5]}',
        "--form", '{"table":["0","1/5","4/5","4/5","1/5"]}', "--scale", "2",
    ],
    "rigidity_hi": ["rigidity", "--specs", HI_PAIR],
    # rigidity compares groups up to isomorphism
    "rigidity_trivial_group": ["rigidity", "--specs", TRIVIAL_PAIR],
    "rigidity_z21_z3xz7": ["rigidity", "--specs", Z21_Z3XZ7],
    # the largest q, over more than one period (lcm(2, 63) = 126) of the power map
    "agl_q64_period": ["agl", "--q", "64", "--kmax", "130"],
    # usage errors: exit code 2, nothing on stdout
    "agl_not_prime_power": ["agl", "--q", "6"],
    "agl_over_cap": ["agl", "--q", "128"],
    "rigidity_kmax": ["rigidity", "--specs", NG1_PAIR, "--kmax", "5"],
    "gauss_group_over_bound": [
        "gauss", "--group", '{"cyclic_factors":[100000000]}', "--form", FORM1,
    ],
    "gauss_group_product_over_bound": [
        "gauss", "--group", '{"cyclic_factors":[1000,1000,1000]}', "--form", FORM1,
    ],
    "indicators_ng2_group_over_bound": ["indicators", "--kmax", "3", "--spec", NG2_OVER_BOUND],
    "indicators_center_over_bound": [
        "indicators", "--kmax", "3", "--spec", NG1_CENTER_OVER_BOUND,
    ],
    "indicators_kmax_auto_over_bound": ["indicators", "--spec", NG1_LONG_PERIOD],
    "indicators_period_over_bound": [
        "indicators", "--kmax", "3", "--spec", NG1_PERIOD_OVER_BOUND,
    ],
    "rigidity_period_over_bound": ["rigidity", "--specs", NG1_PAIR_OVER_BOUND],
    # the one threshold is fixed: no option sets it
    "tolerance_flag_is_unknown": ["--tolerance", "1e-9", "gauss", "--group", Z3, "--form", FORM1],
}

# the fsind modules each command loads: `gauss` needs groups and forms only,
# and no command loads `fusion`
GAUSS_MODULES = ["fsind.abelian", "fsind.cli", "fsind.qforms"]
SPEC_MODULES = sorted([*GAUSS_MODULES, "fsind.center", "fsind.indicators"])
COMMAND_MODULES = {
    "gauss": GAUSS_MODULES,
    "indicators": SPEC_MODULES,
    "rigidity": SPEC_MODULES,
    "agl": SPEC_MODULES,
    "verify-tables": sorted([*SPEC_MODULES, "fsind.tables"]),
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


def _run_python(code: str) -> subprocess.CompletedProcess:
    """Run ``code`` in a fresh interpreter that finds fsind and these tests."""
    root = GOLDEN.parent.parent
    path = [str(root / "src"), str(GOLDEN.parent), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in path if p)}
    return subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=300
    )


def test_cli_import_loads_no_numpy():
    result = _run_python("import fsind.cli, sys; assert 'numpy' not in sys.modules")
    assert result.returncode == 0, result.stderr


def test_cli_import_loads_no_dataclasses_or_inspect():
    """Records are namedtuples: start-up loads neither `dataclasses` nor its `inspect`."""
    code = "import fsind.cli, sys; assert not {'dataclasses', 'inspect'} & set(sys.modules)"
    result = _run_python(code)
    assert result.returncode == 0, result.stderr


def test_each_command_loads_only_its_own_modules():
    """Each command imports, and so compiles, only the fsind modules it runs;
    `import fsind.cli` alone loads what `gauss` needs and nothing more."""
    loaded = "print(json.dumps(sorted(m for m in sys.modules if m.startswith('fsind.'))))"
    result = _run_python("import json, sys, fsind.cli; " + loaded)
    assert result.returncode == 0, result.stderr
    assert json.loads(result.stdout) == GAUSS_MODULES
    for name in sorted(n for n in CASES if n.startswith("readme_")):
        code = f"import json, sys, test_golden_cli as t; t.run_case(t.CASES[{name!r}]); {loaded}"
        result = _run_python(code)
        assert result.returncode == 0, result.stderr
        assert json.loads(result.stdout) == COMMAND_MODULES[CASES[name][0]], name


def test_golden_cli_output_without_numpy():
    """Every golden case runs with numpy unimportable: no CLI path needs it."""
    code = """
import sys
sys.modules["numpy"] = None
from test_golden_cli import CASES, GOLDEN, run_case
import json
codes = json.loads((GOLDEN / "exit_codes.json").read_text(encoding="utf-8"))
for name, argv in sorted(CASES.items()):
    code, out = run_case(argv)
    expected = (GOLDEN / f"{name}.out").read_text(encoding="utf-8")
    assert (code, out) == (codes[name], expected), name
"""
    result = _run_python(code)
    assert result.returncode == 0, result.stderr


def test_ring_checks_and_weil_data_without_numpy():
    """verify_ring, fp_dims and weil_modular_data run with numpy unimportable."""
    code = """
import sys
sys.modules["numpy"] = None
from fsind.abelian import cyclic
from fsind.center import weil_modular_data
from fsind.fusion import fp_dims, make_hi_ring, make_near_group_ring, verify_ring
from fsind.qforms import monomial_form
for ring, d in ((make_near_group_ring(cyclic(3), 3), (3 + 21 ** 0.5) / 2),
                (make_hi_ring(cyclic(5)), (5 + 29 ** 0.5) / 2)):
    assert verify_ring(ring) == [], ring.labels
    dims = fp_dims(ring)
    assert abs(dims[ring.unit] - 1) < 1e-9 and abs(max(dims) - d) < 1e-9, dims
S, T = weil_modular_data(monomial_form(cyclic(7), (1,)))
assert len(S) == len(T) == 7 and all(len(row) == 7 for row in S + T)
for i in range(7):
    for j in range(7):
        dot = sum(S[i][l] * S[j][l].conjugate() for l in range(7))
        assert abs(dot - (i == j)) < 1e-9
        assert abs(abs(T[i][j]) - (i == j)) < 1e-9
"""
    result = _run_python(code)
    assert result.returncode == 0, result.stderr


def _record() -> None:
    """Record each case whose ``.out`` file is missing; leave the others as they are."""
    GOLDEN.mkdir(exist_ok=True)
    codes_file = GOLDEN / "exit_codes.json"
    codes = json.loads(codes_file.read_text(encoding="utf-8")) if codes_file.exists() else {}
    for name, argv in sorted(CASES.items()):
        out_file = GOLDEN / f"{name}.out"
        if not out_file.exists():
            codes[name], out = run_case(argv)
            out_file.write_text(out, encoding="utf-8")
    text = json.dumps(codes, indent=2, sort_keys=True) + "\n"
    codes_file.write_text(text, encoding="utf-8")


if __name__ == "__main__":
    _record()
    sys.exit(0)
