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
import errno
import gc
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
# keys that HI does not take: NG2's "qp" and an unknown "zeta"
HI_UNKNOWN_KEYS = HI_SPEC[:-1] + ',"qp":' + FORM1 + ',"zeta":"1/2"}'
# the trivial group written as more cyclic factors than any group may list
MANY_TRIVIAL_FACTORS = '{"cyclic_factors":[' + ",".join(["1"] * 8000) + "]}"
# 448 specs make 100128 pairs, over the bound cli.MAX_KMAX on the pairs rigidity compares
TOO_MANY_SPECS = "[" + ",".join([NG1_SPEC] * 448) + "]"
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
    "rigidity_too_many_specs": ["rigidity", "--specs", TOO_MANY_SPECS],
    "gauss_too_many_factors": [
        "gauss", "--group", MANY_TRIVIAL_FACTORS, "--form", '{"monomial":[]}',
    ],
    "indicators_hi_unknown_key": ["indicators", "--path", "both", "--spec", HI_UNKNOWN_KEYS],
    # a form takes only group, table and monomial, and not table with monomial
    "gauss_form_unknown_key": [
        "gauss", "--group", '{"cyclic_factors":[5]}',
        "--form", '{"monomal":[{"factor":0,"coeff":1}]}',
    ],
    "gauss_form_table_and_monomial": [
        "gauss", "--group", '{"cyclic_factors":[5]}',
        "--form", '{"table":["0","1/5","4/5","4/5","1/5"],"monomial":[{"factor":0,"coeff":2}]}',
    ],
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


@pytest.mark.parametrize(
    "name", ["indicators_ng1", "indicators_ng1x", "indicators_ng2", "indicators_hi"]
)
def test_closed_path_builds_no_center(no_centers, name):
    """The period comes from the spec, so `--path closed` builds no center and
    prints the period and the closed columns of the family's `--path both` golden."""
    code, out = run_case(["closed" if arg == "both" else arg for arg in CASES[name]])
    assert code == 0
    golden = json.loads((GOLDEN / f"{name}.out").read_text(encoding="utf-8"))
    closed = [{"k": v["k"], "re": v["re_closed"], "im": v["im_closed"]} for v in golden["values"]]
    assert json.loads(out) == {**golden, "values": closed}


def test_golden_set_is_complete(exit_codes):
    assert set(exit_codes) == set(CASES)
    assert {p.stem for p in GOLDEN.glob("*.out")} == set(CASES)


def _python(*args: str, text: bool = True, **kwargs) -> subprocess.CompletedProcess:
    """Run a fresh interpreter with arguments ``args`` that finds fsind and
    these tests; stdout and stderr are captured, and it is stopped after 300 s,
    unless ``kwargs`` say otherwise.  Its stdout is block-buffered, as when a
    user redirects it to a file."""
    root = GOLDEN.parent.parent
    path = [str(root / "src"), str(GOLDEN.parent), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in path if p)}
    env.pop("PYTHONUNBUFFERED", None)
    options = {"stdout": subprocess.PIPE, "stderr": subprocess.PIPE, "timeout": 300, **kwargs}
    return subprocess.run([sys.executable, *args], env=env, text=text, **options)


def _run_python(code: str, *argv: str) -> subprocess.CompletedProcess:
    """Run ``code`` with arguments ``argv`` in a fresh interpreter."""
    return _python("-c", code, *argv)


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


def test_start_up_loads_no_fractions():
    """`fractions`, and with it `decimal` and `numbers`, is loaded only by a
    command that reads or prints an exact rational: `agl`, an NG1 or NG1X
    spec, or a `table` form.  Each other golden case runs as `python -m
    fsind` in a fresh interpreter, since this module's own imports load them."""
    late = "{'fractions', 'decimal', 'numbers'} & set(sys.modules)"
    result = _run_python(f"import sys, fsind.cli; assert not {late}, {late}")
    assert result.returncode == 0, result.stderr
    run_main = (
        "import runpy, sys\n"
        "try:\n"
        "    runpy.run_module('fsind', run_name='__main__', alter_sys=True)\n"
        "except SystemExit:\n"
        "    pass\n"
        f"print(sorted({late}), file=sys.stderr)\n"
    )
    exact = [
        name for name, argv in CASES.items()
        if argv[0] == "agl" or any("NG1" in arg or '"table"' in arg for arg in argv)
    ]
    for name in sorted(set(CASES) - set(exact)):
        result = _run_python(run_main, *CASES[name])
        assert result.stderr.splitlines()[-1] == "[]", (name, result.stderr)


@pytest.mark.parametrize("argv", [
    ("gauss", "--group", '{"cyclic_factors":[3]}',
     "--form", '{"table":["0","1e99999999","1e99999999"]}'),
    ("indicators", "--kmax", "3", "--path", "closed",
     "--spec", NG1_SPEC.replace('"1/4"', '"1e99999999"')),
], ids=["gauss-table", "indicators-zeta1"])
def test_exponent_notation_exits_2_at_once(argv):
    """A rational in exponent notation is refused as it is read: Python's
    `Fraction` would expand 1e99999999 to an integer of 10^8 digits."""
    result = _python("-m", "fsind", *argv, timeout=10)
    assert (result.returncode, result.stdout) == (2, "")
    assert result.stderr == "error: expected an integer or a fraction string, got '1e99999999'\n"


def test_ng2_over_z995_runs_in_160_mb():
    """NG2 over Z/995 with G' = Z/999, a center of rank 995 * 998 within every
    cap, runs both routes in a child whose address space is capped at 160 MB:
    rho's twist histogram is counted, not summed over listed objects, which
    took 342 MB."""
    import resource

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (160 << 20, 160 << 20))

    unit = {"monomial": [{"factor": 0, "coeff": 1}]}
    spec = {"family": "NG2", "group": {"cyclic_factors": [995]}, "q": unit,
            "gp": {"cyclic_factors": [999]}, "qp": unit}
    result = _python("-m", "fsind", "indicators", "--path", "both", "--kmax", "3",
                     "--spec", json.dumps(spec), preexec_fn=cap, timeout=120)
    assert (result.returncode, result.stderr) == (0, "")
    assert [value["deviation"] for value in json.loads(result.stdout)["values"]] == ["0"] * 3


def _capped(megabytes: int, seconds: int):
    """A ``preexec_fn`` that caps a child about to exec at ``megabytes`` of
    address space and ``seconds`` of CPU time."""
    def cap() -> None:
        import resource

        resource.setrlimit(resource.RLIMIT_AS, (megabytes << 20, megabytes << 20))
        resource.setrlimit(resource.RLIMIT_CPU, (seconds, seconds))

    return cap


EXIT_2_CASES = sorted(
    name for name, code in json.loads((GOLDEN / "exit_codes.json").read_bytes()).items()
    if code == 2
)


@pytest.mark.parametrize("name", EXIT_2_CASES)
def test_exit_2_cases_end_within_a_resource_bound(name):
    """Each golden case that exits 2 does so as `python -m fsind` in a child
    capped at 96 MB and 10 s of CPU, one child at a time, with a one-line error and no
    traceback: the bound is never what ends it."""
    result = _python("-m", "fsind", *CASES[name], preexec_fn=_capped(96, 10))
    assert result.returncode == 2, result.stderr
    assert result.stderr.splitlines()[-1].startswith(("error:", "fsind: error:")), result.stderr
    assert "Traceback" not in result.stderr, result.stderr
    assert "out of memory" not in result.stderr, result.stderr


GROUP_19_FACTORS_OF_2 = '{"cyclic_factors":[' + ",".join(["2"] * 19) + "]}"
# inputs at the edges of the caps, each within every one of them
CAP_EDGE_CASES = {
    # 447 specs make 99681 pairs, the most rigidity compares
    "rigidity_447_specs": ["rigidity", "--specs", "[" + ",".join([NG2_README] * 447) + "]"],
    "indicators_kmax_cap": [
        "indicators", "--kmax", "100000", "--path", "both", "--spec", NG2_README,
    ],
    "agl_q64_kmax_cap": ["agl", "--q", "64", "--kmax", "100000"],
    "gauss_order_cap": ["gauss", "--group", '{"cyclic_factors":[1000000]}', "--form", FORM1],
    "gauss_z999999": ["gauss", "--group", '{"cyclic_factors":[999999]}', "--form", FORM1],
    # 2^19 elements on 19 factors, the most factors above 1 within the order cap
    "gauss_19_factors_of_2": [
        "gauss", "--group", GROUP_19_FACTORS_OF_2, "--form", '{"monomial":[]}',
    ],
}


@pytest.mark.parametrize("name", CAP_EDGE_CASES)
def test_cap_edge_cases_end_within_a_resource_bound(name):
    """Each input at the edge of the caps runs as `python -m fsind` in a child
    capped at 256 MB and 20 s of CPU, one child at a time, and exits 0 with no
    traceback: the bound is never what ends it."""
    result = _python("-m", "fsind", *CAP_EDGE_CASES[name], stdout=subprocess.DEVNULL,
                     preexec_fn=_capped(256, 20))
    assert result.returncode == 0, result.stderr
    assert "Traceback" not in result.stderr, result.stderr
    assert "out of memory" not in result.stderr, result.stderr


def test_endless_file_argument_exits_2_within_a_resource_bound():
    """An @file argument is read up to cli.MAX_FILE_BYTES and no further: `gauss`
    on @/dev/zero exits 2 in a child capped at 256 MB and 20 s of CPU, like the
    cap edge cases, naming the file and the limit, where reading it whole ran
    out of memory."""
    result = _python("-m", "fsind", "gauss", "--group", "@/dev/zero", "--form", "{}",
                     preexec_fn=_capped(256, 20))
    assert (result.returncode, result.stdout) == (2, "")
    assert result.stderr == "error: cannot read /dev/zero: it is over 67108864 bytes\n"


def test_rigidity_on_70_specs_near_the_period_cap_ends_within_a_resource_bound():
    """`rigidity` on 70 NG2 specs over Z/313 with Z/317 (period 99,221, within
    the cap), 35 labelled copies of each of two classes whose smallest separating
    k is 1, runs in a child capped at 256 MB and 20 s of CPU, like the cap edge
    cases: each spec's counted center is dropped once its class is known, where
    keeping every spec's center took about 3.6 MB per spec and ran out of memory."""
    def unit(coeff):
        return {"monomial": [{"factor": 0, "coeff": coeff}]}

    specs = [  # 5 is not a square mod 313, so it flips the sign of Theta(G, 2q)
        {"family": "NG2", "group": {"cyclic_factors": [313]}, "q": unit(coeff),
         "gp": {"cyclic_factors": [317]}, "qp": unit(1), "labels": {"copy": i}}
        for i, coeff in enumerate([1, 5] * 35)
    ]
    result = _python("-m", "fsind", "rigidity", "--specs", json.dumps(specs),
                     preexec_fn=_capped(256, 20))
    assert (result.returncode, result.stderr) == (0, "")
    report = json.loads(result.stdout)
    assert list(map(len, report["classes"])) == [35, 35]
    assert {separator["smallest_k"] for separator in report["separators"]} == {1}
    assert len(report["separators"]) == 35 * 35


def test_table_form_on_19_factors_of_2_ends_within_a_resource_bound(tmp_path):
    """`gauss` on a 524,288-entry table read from a file, over the 19 factors of 2,
    runs in a child capped at 256 MB and 20 s of CPU, exits 0 with no traceback and
    prints the Gauss sum of q(g) = sum_i g_i^2 / 4 + sum_i g_i g_{i+1} / 2, which a
    2 x 2 transfer matrix sums over the chain of factors: the form is not monomial,
    so its whole table is checked."""
    quarters = [0]  # digit by digit: the new last digit r adds r^2/4 + r g_last/2
    for _ in range(19):
        quarters = [(v + r + 2 * r * (x & 1)) % 4 for x, v in enumerate(quarters) for r in (0, 1)]
    form = tmp_path / "form.json"
    form.write_text(json.dumps({"table": [f"{v}/4" for v in quarters]}), encoding="utf-8")
    result = _python("-m", "fsind", "gauss", "--group", GROUP_19_FACTORS_OF_2,
                     "--form", f"@{form}", preexec_fn=_capped(256, 20))
    assert result.returncode == 0, result.stderr
    assert "Traceback" not in result.stderr, result.stderr
    ends = [1, 1j]  # sum over chains of the last digit r of i^(sum g_i) (-1)^(sum g_i g_{i+1})
    for _ in range(18):
        ends = [ends[0] + ends[1], 1j * (ends[0] - ends[1])]
    theta = sum(ends) / 2 ** 9.5
    re, im = map(float, result.stdout.split()[:2])
    assert abs(complex(re, im) - theta) < 1e-9, (result.stdout, theta)


# one case per command that exits 0; beside them, the verify-tables case that
# exits 1 and a usage error
COMMAND_CASES = [
    "readme_gauss", "readme_indicators_ng2", "readme_verify_ng7_csv", "readme_rigidity_ng1",
    "readme_agl_27",
]
ENTRY_CASES = [*COMMAND_CASES, "readme_verify_markdown", "agl_not_prime_power"]
NO_SPACE = f"error: cannot write output: {os.strerror(errno.ENOSPC)}\n"


@pytest.mark.parametrize("name", ENTRY_CASES)
def test_process_entry_output(name, exit_codes):
    """`python -m fsind` prints each golden's bytes and exits with its code."""
    result = _python("-m", "fsind", *CASES[name], text=False)
    assert result.stdout == (GOLDEN / f"{name}.out").read_bytes(), result.stderr
    assert result.returncode == exit_codes[name]


def test_process_entry_runs_atexit_handlers_on_a_frozen_heap():
    """The entry freezes the heap before it exits, and a handler registered
    before it ran still runs, after the output and with the exit code kept."""
    code = (
        "import atexit, gc, runpy, sys\n"
        "atexit.register(lambda: print('frozen', gc.get_freeze_count() > 0, file=sys.stderr))\n"
        "runpy.run_module('fsind', run_name='__main__', alter_sys=True)\n"
    )
    result = _run_python(code, *CASES["readme_gauss"])
    assert result.stdout == (GOLDEN / "readme_gauss.out").read_text(encoding="utf-8")
    assert (result.returncode, result.stderr) == (0, "frozen True\n")


def test_main_freezes_nothing():
    """`main` is the in-process API: only the process entry freezes the heap."""
    before = gc.get_freeze_count()
    run_case(CASES["readme_gauss"])
    assert gc.get_freeze_count() == before


def _no_space(*args):
    raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


@pytest.mark.parametrize("method", ["write", "flush"])
@pytest.mark.parametrize("name", COMMAND_CASES)
def test_write_error_exits_2(monkeypatch, name, method):
    """A stdout that fails to write or to flush gives one `error:` line and
    the usage-error code, not a traceback and the verification-failure code."""
    out, err = io.StringIO(), io.StringIO()
    monkeypatch.setattr(out, method, _no_space)
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(CASES[name]))
    assert (code, err.getvalue()) == (2, NO_SPACE)


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
@pytest.mark.parametrize("name", COMMAND_CASES)
def test_process_entry_write_error_exits_2(name):
    """Writing to a full device exits 2 with one `error:` line; the output
    left in stdout's buffer does not make the flush at exit fail (exit 120)."""
    with open("/dev/full", "wb") as full:
        result = _python("-m", "fsind", *CASES[name], stdout=full)
    assert (result.returncode, result.stderr) == (2, NO_SPACE)


def test_process_entry_closed_stdout_exits_2():
    """A process started with stdout closed exits 2 with one `error:` line."""
    result = _python("-m", "fsind", *CASES["readme_gauss"], preexec_fn=lambda: os.close(1))
    bad_fd = f"error: cannot write output: {os.strerror(errno.EBADF)}\n"
    assert (result.returncode, result.stderr) == (2, bad_fd)


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
    """The ring constructors and weil_modular_data run with numpy unimportable,
    and the rings pass the check that needs no numpy: their dims 1 on G and d
    on each other simple are a character, d_i d_j = sum_k N[i][j][k] d_k."""
    code = """
import sys
sys.modules["numpy"] = None
from fsind.abelian import cyclic
from fsind.fusion import make_hi_ring, make_near_group_ring
from fsind.qforms import monomial_form
from oracles import weil_modular_data
for ring, n, d in ((make_near_group_ring(cyclic(3), 3), 3, (3 + 21 ** 0.5) / 2),
                   (make_hi_ring(cyclic(5)), 5, (5 + 29 ** 0.5) / 2)):
    dims = [1.0] * n + [d] * (ring.rank - n)
    for i in range(ring.rank):
        for j in range(ring.rank):
            total = sum(c * x for c, x in zip(ring.N[i][j], dims))
            assert abs(dims[i] * dims[j] - total) < 1e-9, (ring.labels, i, j)
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
