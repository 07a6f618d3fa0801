import ast
import contextlib
import csv
import functools
import io
import json
import math
import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import parser_choices
import fsind
from fsind import fusion, indicators, tables
from fsind.cli import MAX_KMAX, main
from fsind.indicators import CategorySpec
from fsind.qforms import QuadraticForm

Z3 = '{"cyclic_factors":[3]}'
FORM1 = '{"monomial":[{"factor":0,"coeff":1}]}'

NG2_SPEC = json.dumps(
    {
        "family": "NG2",
        "group": {"cyclic_factors": [3]},
        "q": {"monomial": [{"factor": 0, "coeff": 1}]},
        "gp": {"cyclic_factors": [7]},
        "qp": {"monomial": [{"factor": 0, "coeff": -1}]},
    }
)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_gauss_example(capsys):
    code, out, _ = run(capsys, "gauss", "--group", Z3, "--form", FORM1)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "0 1"
    assert lines[1] == "phase: 1/4"


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13, 17, 19, 23, 29])
def test_gauss_phase_is_the_legendre_symbol(capsys, p):
    """Theta(Z/p, c g^2/p) = (c/p) for p = 1 mod 4 and (c/p) i for p = 3 mod 4
    at a unit c, with (c/p) from Euler's criterion; c = 0 is degenerate."""
    phases = {1: {1: "0/1", -1: "1/2"}, 3: {1: "1/4", -1: "3/4"}}[p % 4]
    for c in range(p):
        form = '{"monomial":[{"factor":0,"coeff":%d}]}' % c
        code, out, _ = run(capsys, "gauss", "--group", '{"cyclic_factors":[%d]}' % p,
                           "--form", form)
        assert code == 0
        lines = out.splitlines()
        if c == 0:
            assert len(lines) == 1, out
            continue
        symbol = 1 if pow(c, (p - 1) // 2, p) == 1 else -1
        assert lines[1:] == [f"phase: {phases[symbol]}"], (p, c)


@pytest.mark.parametrize(
    "table,phase", [('["0","1/4"]', "1/8"), ('["0","3/4"]', "7/8"), ('["0","1/2"]', None)]
)
def test_gauss_phase_in_eighths_on_z2(capsys, table, phase):
    """(1 + i)/sqrt 2 and (1 - i)/sqrt 2 are the eighth roots; q(1) = 1/2 is degenerate."""
    code, out, _ = run(capsys, "gauss", "--group", '{"cyclic_factors":[2]}',
                       "--form", '{"table":%s}' % table)
    assert code == 0
    assert out.splitlines()[1:] == ([f"phase: {phase}"] if phase else [])


def test_gauss_trivial_group(capsys):
    code, out, _ = run(
        capsys, "gauss", "--group", '{"cyclic_factors":[1]}', "--form", '{"monomial":[]}'
    )
    assert code == 0
    assert out.splitlines()[0] == "1 0"


def test_gauss_scaled(capsys):
    code, out, _ = run(
        capsys, "gauss", "--group", '{"cyclic_factors":[7]}', "--form", FORM1,
        "--scale", "3",
    )
    assert code == 0
    assert out.splitlines()[0] == "0 -1"


def test_gauss_parse_failure(capsys):
    code, _, err = run(capsys, "gauss", "--group", "{not json", "--form", FORM1)
    assert code == 2
    assert "error" in err


def test_indicators_both_paths(capsys):
    code, out, _ = run(
        capsys, "indicators", "--spec", NG2_SPEC, "--kmax", "7", "--path", "both"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["period"] == 21
    values = {entry["k"]: entry for entry in payload["values"]}
    assert values[1]["re"] == "0" and values[1]["im"] == "0"
    assert values[3]["re"] == "1.5"
    assert values[3]["im"].startswith("0.8660254")
    assert all(entry["deviation"] == "0" for entry in payload["values"])


def test_indicators_kmax_auto(capsys):
    code, out, _ = run(capsys, "indicators", "--spec", NG2_SPEC)
    assert code == 0
    payload = json.loads(out)
    assert len(payload["values"]) == payload["period"] == 21


@pytest.mark.parametrize("kmax", ["0", str(MAX_KMAX + 1), "100000000"])
def test_indicators_kmax_out_of_range_is_a_usage_error(capsys, monkeypatch, kmax):
    def no_center(spec):
        raise AssertionError("center built before kmax was checked")

    monkeypatch.setattr(CategorySpec, "center", no_center)
    code, out, err = run(capsys, "indicators", "--spec", NG2_SPEC, "--kmax", kmax)
    assert code == 2
    assert out == ""
    assert "kmax" in err


NG1_Z3 = {"family": "NG1", "group": {"cyclic_factors": [3]}, "p": 2, "zeta1": "0"}


def test_indicators_kmax_auto_over_bound_is_a_usage_error(capsys):
    """kmax auto is one period, here 6 * 100003, which the kmax bound refuses."""
    spec = json.dumps({**NG1_Z3, "zeta1": "1/100003"})
    code, out, err = run(capsys, "indicators", "--spec", spec)
    assert code == 2
    assert out == ""
    assert "kmax" in err and "600018" in err


def test_long_periods_are_usage_errors(capsys):
    """A vector tabulates one root per residue of the period, so `indicators`
    refuses a period over abelian.MAX_ORDER whatever the kmax, and `rigidity`,
    which evaluates whole periods, one over the kmax bound."""
    for n in (10000019, 100003):  # periods 6n: 60000114 and 600018
        specs = [{**NG1_Z3, "zeta1": f"{a}/{n}"} for a in (1, 2)]
        code, out, err = run(capsys, "rigidity", "--specs", json.dumps(specs))
        assert (code, out) == (2, "") and str(6 * n) in err
        code, out, err = run(capsys, "indicators", "--kmax", "3", "--spec", json.dumps(specs[0]))
        if n == 10000019:
            assert (code, out) == (2, "") and str(6 * n) in err
        else:
            assert code == 0 and len(json.loads(out)["values"]) == 3


CENTERS_OVER_BOUND = [  # |G|^2 over abelian.MAX_ORDER = 10^6
    {**NG1_Z3, "group": {"cyclic_factors": [1023]}},  # F_1024^*
    json.loads(NG2_SPEC.replace("[3]", "[1001]").replace("[7]", "[1005]")),
    {"family": "HI", "group": {"cyclic_factors": [1001]}, "h": {"cyclic_factors": [1002005]},
     "qpp": json.loads(FORM1)},
]


@pytest.mark.parametrize("spec", CENTERS_OVER_BOUND, ids=["ng1", "ng2", "hi"])
def test_centers_over_the_bound_are_refused_before_they_are_built(capsys, no_centers, spec):
    """Every family's center has about |G|^2 objects, so a spec whose |G|^2
    exceeds abelian.MAX_ORDER exits 2 before any center builder runs."""
    order = spec["group"]["cyclic_factors"][0]
    for argv in (("indicators", "--kmax", "3", "--spec", json.dumps(spec)),
                 ("rigidity", "--specs", json.dumps([spec, spec]))):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "") and str(order * order) in err, argv


def test_group_bound_of_a_spec_is_inclusive():
    """Z/1000 passes the |G|^2 bound and only then fails NG1's shape check,
    as 1001 = 7 * 11 * 13 is no field size; Z/1001 fails the bound."""
    spec = {**NG1_Z3, "group": {"cyclic_factors": [1000]}}
    with pytest.raises(ValueError, match="^1001 is not a prime power$"):
        indicators.spec_from_json(spec)
    with pytest.raises(ValueError, match="1002001"):
        indicators.spec_from_json({**spec, "group": {"cyclic_factors": [1001]}})


@pytest.mark.parametrize(
    "spec",
    [
        "[1]",
        json.dumps({**NG1_Z3, "p": None}),
        json.dumps({**NG1_Z3, "zeta1": None}),
        # an integer parameter given as a string or a float, a phase as a float
        # or a zero denominator, labels or family of the wrong shape
        json.dumps({**NG1_Z3, "p": "2"}),
        json.dumps({**NG1_Z3, "p": 2.0}),
        json.dumps({**NG1_Z3, "zeta1": 0.25}),
        json.dumps({**NG1_Z3, "zeta1": "1/0"}),
        # a phase in decimal, exponent or signed notation, or with a space
        json.dumps({**NG1_Z3, "zeta1": "0.25"}),
        json.dumps({**NG1_Z3, "zeta1": "1e5"}),
        json.dumps({**NG1_Z3, "zeta1": "+1/4"}),
        json.dumps({**NG1_Z3, "zeta1": " 1/4"}),
        json.dumps({**NG1_Z3, "labels": [1]}),
        json.dumps({**NG1_Z3, "family": []}),
        "[" * 100_000,  # nested deeper than the JSON decoder recurses
    ],
    ids=["list", "p-null", "zeta1-null", "p-string", "p-float", "zeta1-float",
         "zeta1-zero-den", "zeta1-decimal", "zeta1-exponent", "zeta1-plus", "zeta1-space",
         "labels-list", "family-list", "deep-nesting"],
)
def test_malformed_specs_are_usage_errors(capsys, spec):
    code, out, err = run(capsys, "indicators", "--spec", spec)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "Traceback" not in err


def test_digit_string_over_the_int_limit_is_a_usage_error(capsys):
    """A fraction string with more digits than Python converts to an integer
    exits 2 with a message that shows the string, not Python's setting."""
    spec = json.dumps({**NG1_Z3, "zeta1": "1/" + "1" * 5000})
    code, out, err = run(capsys, "indicators", "--kmax", "3", "--path", "closed", "--spec", spec)
    assert (code, out) == (2, "")
    assert err == ("error: fraction string '1/111111111111111111'... of 5002 characters "
                   "has too many digits\n")


def test_memory_error_is_a_usage_error(capsys, monkeypatch):
    """A command that runs out of memory prints one error line and exits 2, not
    a traceback with exit 1, the code of a failed verification."""
    def no_memory(spec):
        raise MemoryError

    monkeypatch.setitem(indicators.ROUTES, "center", no_memory)
    code, out, err = run(capsys, "indicators", "--spec", NG2_SPEC)
    assert (code, out, err) == (2, "", "error: out of memory\n")


@pytest.mark.parametrize("specs", ["5", "{}", "[]"])
def test_rigidity_specs_must_be_a_nonempty_list(capsys, specs):
    code, out, err = run(capsys, "rigidity", "--specs", specs)
    assert code == 2
    assert out == ""
    assert "list" in err


def test_rigidity_pairs_are_bounded_before_any_spec_is_parsed(capsys, monkeypatch):
    """rigidity may list a separator per pair of specs, so a list of more than
    MAX_KMAX pairs exits 2 before any spec is parsed; 447 specs make 99681
    pairs and run, even as copies of one spec."""
    def no_spec(*args):
        raise AssertionError("a spec was parsed")

    with monkeypatch.context() as patch:
        patch.setattr(indicators, "spec_from_json", no_spec)
        code, out, err = run(capsys, "rigidity", "--specs", json.dumps([NG1_Z3] * 448))
    assert (code, out) == (2, "")
    assert err == f"error: 448 specs make 100128 pairs to compare, over {MAX_KMAX}\n"
    code, out, _ = run(capsys, "rigidity", "--specs", json.dumps([NG1_Z3] * 447))
    assert code == 0 and len(json.loads(out)["classes"]) == 1


def test_unreadable_spec_file_is_a_usage_error(capsys, tmp_path):
    code, out, err = run(capsys, "indicators", "--spec", f"@{tmp_path / 'missing.json'}")
    assert code == 2
    assert out == ""
    assert err.startswith("error: cannot read")


def test_indicators_invalid_family(capsys):
    bad = NG2_SPEC.replace("NG2", "NG9")
    code, _, err = run(capsys, "indicators", "--spec", bad)
    assert code == 2
    assert "NG9" in err


def test_indicators_missing_group_is_a_usage_error(capsys):
    spec = json.loads(NG2_SPEC)
    del spec["group"]
    spec["gp"] = {"cyclic_factors": [11]}
    code, out, err = run(capsys, "indicators", "--spec", json.dumps(spec))
    assert code == 2
    assert out == ""
    assert "group" in err


def _ng1_spec(factors, p=2):
    return {"family": "NG1", "group": {"cyclic_factors": factors}, "p": p, "zeta1": "1/4"}


def test_ng1_over_a_cyclic_group_in_any_presentation(capsys):
    for factors in ([1, 3], [3, 1], [3, 5]):
        code, out, _ = run(capsys, "indicators", "--spec", json.dumps(_ng1_spec(factors)))
        assert code == 0 and json.loads(out)["values"]
    specs = json.dumps([_ng1_spec([15]), _ng1_spec([3, 5])])
    code, out, _ = run(capsys, "rigidity", "--specs", specs)
    assert code == 0 and len(json.loads(out)["classes"]) == 1
    code, out, err = run(capsys, "indicators", "--spec", json.dumps(_ng1_spec([2, 2], p=5)))
    assert (code, out) == (2, "")
    assert err == "error: m = |G| - 1 near groups require a cyclic group\n"


def test_shape_and_period_refusals_build_no_center(capsys, no_centers):
    """The spec alone gives the shape and the period, so each refusal exits 2
    before any center builder runs, with the message it had when a center
    gave the period."""
    for factors, p, message in (([2, 2], 5, "m = |G| - 1 near groups require a cyclic group"),
                                ([4], 3, "|G| + 1 = 5 is not a power of p = 3")):
        code, out, err = run(capsys, "indicators", "--spec", json.dumps(_ng1_spec(factors, p)))
        assert (code, out, err) == (2, "", f"error: {message}\n")
    # G' = Z/1003 = Z/17 x Z/59: the period is 999 * 1003 = 1001997
    spec = NG2_SPEC.replace("[3]", "[999]").replace("[7]", "[1003]")
    code, out, err = run(capsys, "indicators", "--kmax", "3", "--spec", spec)
    assert (code, out, err) == (2, "", "error: period 1001997 exceeds 1000000\n")
    specs = [{**NG1_Z3, "zeta1": f"{a}/10000019"} for a in (1, 2)]
    code, out, err = run(capsys, "rigidity", "--specs", json.dumps(specs))
    assert (code, out) == (2, "") and "period 60000114 " in err


# |H| = 999^2 + 4 = 998005 and |G'| = 1003 pass the group bound; the periods do not
PERIODS_OVER_BOUND = {
    997006995: {"family": "HI", "group": {"cyclic_factors": [999]},
                "h": {"cyclic_factors": [998005]}, "qpp": json.loads(FORM1)},
    1001997: json.loads(NG2_SPEC.replace("[3]", "[999]").replace("[7]", "[1003]")),
}


@pytest.mark.parametrize("period", PERIODS_OVER_BOUND)
def test_no_form_is_read_before_the_period_bound(capsys, monkeypatch, period):
    """The period comes from the groups, so a spec whose period exceeds
    abelian.MAX_ORDER exits 2 before any of its forms is built or checked."""
    def no_form(*args):
        raise AssertionError("a form was read")

    monkeypatch.setattr(QuadraticForm, "__init__", no_form)
    spec = PERIODS_OVER_BOUND[period]
    for argv in (("indicators", "--kmax", "3", "--spec", json.dumps(spec)),
                 ("rigidity", "--specs", json.dumps([spec]))):
        code, out, err = run(capsys, *argv)
        assert (code, out, err) == (2, "", f"error: period {period} exceeds 1000000\n"), argv


# faults that the groups alone show: a companion group of the wrong order, |G| even
SHAPE_FAULTS = {
    "gp_order": ({**json.loads(NG2_SPEC), "gp": {"cyclic_factors": [999999]}},
                 "|Gp| must be 7, got 999999"),
    "h_order": ({"family": "HI", "group": {"cyclic_factors": [3]},
                 "h": {"cyclic_factors": [999999]}, "qpp": json.loads(FORM1)},
                "|H| must be 13, got 999999"),
    "g_even": (json.loads(NG2_SPEC.replace("[3]", "[4]")), "NG2 requires |G| odd"),
}


@pytest.mark.parametrize("fault", SHAPE_FAULTS)
def test_no_form_is_read_before_the_shape_rules(capsys, monkeypatch, fault):
    """The family's rules on G and on G' or H read no form, so a spec that
    breaks one exits 2 with its message before any of its forms is built."""
    def no_form(*args):
        raise AssertionError("a form was read")

    monkeypatch.setattr(QuadraticForm, "__init__", no_form)
    spec, message = SHAPE_FAULTS[fault]
    code, out, err = run(capsys, "indicators", "--spec", json.dumps(spec))
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_indicators_missing_family_is_a_usage_error(capsys):
    code, out, err = run(capsys, "indicators", "--spec", '{"group":{"cyclic_factors":[3]}}')
    assert code == 2
    assert out == ""
    assert "needs family" in err


Z5 = '{"cyclic_factors":[5]}'
NG2_SPEC_Q_ON_FACTOR_1 = json.dumps(
    {**json.loads(NG2_SPEC), "q": {"monomial": [{"factor": 1, "coeff": 1}]}}
)


@pytest.mark.parametrize(
    "argv",
    [
        # a monomial factor outside 0..rank-1
        ("gauss", "--group", Z5, "--form", '{"monomial":[{"factor":3,"coeff":1}]}'),
        ("gauss", "--group", Z5, "--form", '{"monomial":[{"factor":-1,"coeff":1}]}'),
        ("indicators", "--spec", NG2_SPEC_Q_ON_FACTOR_1),
        # values that are not multiples of 1/(2 * exponent) = 1/10
        ("gauss", "--group", Z5, "--form", '{"table":["0","1/7","1/3","1/3","1/7"]}'),
        # multiples of 1/10, but dq(1, 2) != 2 dq(1, 1): not a quadratic form
        ("gauss", "--group", Z5, "--form", '{"table":["0","1/10","3/10","3/10","1/10"]}'),
        # JSON of the wrong shape: a monomial entry that is not an object,
        # a table entry that is no integer or fraction string, a group that is not
        # a factor list
        ("gauss", "--group", Z5, "--form", '{"monomial":[1]}'),
        ("gauss", "--group", Z5, "--form", '{"table":[0,null,0,0,0]}'),
        ("gauss", "--group", '{"cyclic_factors":[null]}', "--form", FORM1),
        # a quadratic form's values, but as a JSON float or in exponent notation
        ("gauss", "--group", '{"cyclic_factors":[2]}', "--form", '{"table":[0,0.25]}'),
        ("gauss", "--group", Z5, "--form", '{"table":["0","2e-1","8e-1","8e-1","2e-1"]}'),
    ],
)
def test_bad_forms_are_usage_errors(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error:")


def test_degenerate_form_is_a_usage_error(capsys):
    spec = json.loads(NG2_SPEC)
    spec["qp"] = {"monomial": [{"factor": 0, "coeff": 0}]}
    code, out, err = run(capsys, "indicators", "--spec", json.dumps(spec))
    assert code == 2
    assert out == ""
    assert err == "error: qp must be non-degenerate\n"


def test_no_command_builds_a_ring(capsys, monkeypatch):
    """A center presentation holds no ring, and rigidity compares ring names."""
    calls = []
    freeze = fusion._freeze
    monkeypatch.setattr(fusion, "_freeze", lambda N: calls.append(1) or freeze(N))
    assert run(capsys, "indicators", "--path", "both", "--spec", NG2_SPEC)[0] == 0
    assert run(capsys, "verify-tables", "--table", "ng7")[0] == 0
    specs = [{**NG1_Z3, "zeta1": zeta1} for zeta1 in ("0", "1/4")]
    assert run(capsys, "rigidity", "--specs", json.dumps(specs))[0] == 0
    assert calls == []


def test_each_command_builds_each_center_once(capsys, monkeypatch):
    """Each command calls center() once per spec, so it builds one center per spec."""
    builds = []
    for name in ("center_ng1", "center_ng1_exceptional7", "center_ng2", "center_hi"):
        build = getattr(indicators, name)
        monkeypatch.setattr(
            indicators, name, lambda *args, build=build: builds.append(1) or build(*args)
        )
    # fresh table rows, whose specs have not built their centers yet
    monkeypatch.setattr(tables, "builtin_rows", functools.cache(tables.builtin_rows.__wrapped__))

    def count(*argv):
        builds.clear()
        assert run(capsys, *argv)[0] == 0
        return len(builds)

    assert count("indicators", "--path", "both", "--spec", NG2_SPEC) == 1
    assert count("verify-tables", "--table", "ng7") == 2
    # 33 specs: past the 32 entries of a spec-keyed cache, which built 66
    spec = json.loads(NG2_SPEC.replace("[3]", "[21]").replace("[7]", "[25]"))
    specs = [{**spec, "labels": {"copy": str(i)}} for i in range(33)]
    assert count("rigidity", "--specs", json.dumps(specs)) == 33


def test_verify_tables_passing_table(capsys):
    code, out, _ = run(capsys, "verify-tables", "--table", "ng7", "--format", "json")
    assert code == 0
    assert json.loads(out)["all_pass"] is True


def test_verify_tables_documented_failure(capsys):
    code, out, _ = run(capsys, "verify-tables", "--table", "ng3", "--format", "json")
    assert code == 1
    payload = json.loads(out)
    bad = [rec for rec in payload["records"] if rec["pass"] == "false"]
    assert {rec["k"] for rec in bad} == {"3"}


def test_verify_tables_full_run_reports_known_anomaly(capsys):
    code, out, _ = run(capsys, "verify-tables", "--format", "json")
    assert code == 1
    payload = json.loads(out)
    assert len(payload["rows"]) == 26
    failing = [r for r in payload["rows"] if not r["all_pass"]]
    assert [(r["table_id"], r["row_id"]) for r in failing] == [("ng3", 1), ("ng3", 2)]


def test_verify_tables_row_selection_count(capsys):
    code, out, _ = run(capsys, "verify-tables", "--table", "ng13", "--format", "json")
    assert code == 0
    assert len(json.loads(out)["rows"]) == 4


def test_table_choices_are_the_bundled_tables():
    """The choices are the bundled rows' table ids, in the rows' order."""
    table_ids = tuple(dict.fromkeys(r.table_id for r in tables.builtin_rows()))
    assert parser_choices("verify-tables", "--table") == table_ids


def test_verify_tables_unknown_table(capsys):
    code, _, _ = run(capsys, "verify-tables", "--table", "ng99")
    assert code == 2


def test_verify_tables_markdown(capsys):
    code, out, _ = run(capsys, "verify-tables", "--table", "ng9", "--format", "markdown")
    assert code == 0
    assert out.startswith("## ng9")


def test_rigidity_partition(capsys):
    specs = json.dumps(
        [
            {"family": "NG1", "group": {"cyclic_factors": [3]}, "p": 2, "zeta1": "0"},
            {"family": "NG1", "group": {"cyclic_factors": [3]}, "p": 2, "zeta1": "1/4"},
        ]
    )
    code, out, _ = run(capsys, "rigidity", "--specs", specs)
    assert code == 0
    payload = json.loads(out)
    assert len(payload["classes"]) == 2
    assert payload["separators"][0]["smallest_k"] == 2
    assert payload["distinguished"] is True


def test_rigidity_single_spec(capsys):
    specs = json.dumps(
        [{"family": "NG1", "group": {"cyclic_factors": [3]}, "p": 2, "zeta1": "0"}]
    )
    code, out, _ = run(capsys, "rigidity", "--specs", specs)
    assert code == 0
    assert len(json.loads(out)["classes"]) == 1


def test_rigidity_ring_mismatch(capsys):
    specs = json.dumps(
        [
            {"family": "NG1", "group": {"cyclic_factors": [3]}, "p": 2, "zeta1": "0"},
            {"family": "NG1", "group": {"cyclic_factors": [2]}, "p": 3, "zeta1": "0"},
        ]
    )
    code, _, err = run(capsys, "rigidity", "--specs", specs)
    assert code == 2
    assert "ring" in err


def test_agl_table(capsys):
    code, out, _ = run(capsys, "agl", "--q", "4", "--kmax", "12")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("# AGL_1(F_4): order 12")
    rows = [line.split() for line in lines[2:]]
    assert len(rows) == 12
    assert all(row[3] == "0" for row in rows)
    k3 = rows[2]
    assert k3[1] == "2" and k3[2] == "2"


def test_agl_rejects_non_prime_power(capsys):
    code, _, err = run(capsys, "agl", "--q", "6")
    assert code == 2
    assert "prime power" in err


@pytest.mark.parametrize("kmax", ["0", "-4", str(MAX_KMAX + 1)])
def test_agl_kmax_out_of_range_is_a_usage_error(capsys, monkeypatch, kmax):
    def no_group(q):
        raise AssertionError("group built before kmax was checked")

    monkeypatch.setattr(indicators, "build_agl", no_group)
    code, out, err = run(capsys, "agl", "--q", "5", "--kmax", kmax)
    assert code == 2
    assert out == ""
    assert "kmax" in err


def test_agl_degenerate_q2_warns(capsys):
    code, out, err = run(capsys, "agl", "--q", "2", "--kmax", "4")
    assert code == 0
    assert "degenerate" in err
    assert out.splitlines()[2].split()[1] == "0"


NG1_PAIR = json.dumps([{"family": "NG1", "group": {"cyclic_factors": [3]}, "p": 2, "zeta1": z}
                       for z in ("0", "1/4")])


def test_fi_tolerance_does_not_move_smallest_k(capsys, monkeypatch):
    # a threshold below float64 noise would separate the README NG1 pair at k = 1
    monkeypatch.setenv("FI_TOLERANCE", "1e-17")
    code, out, _ = run(capsys, "rigidity", "--specs", NG1_PAIR)
    assert code == 0
    assert [s["smallest_k"] for s in json.loads(out)["separators"]] == [2]


def test_fi_tolerance_does_not_move_gauss_or_verify_tables(capsys, monkeypatch):
    monkeypatch.setenv("FI_TOLERANCE", "1e-16")
    code, out, _ = run(capsys, "gauss", "--group", Z3, "--form", FORM1)
    assert (code, out) == (0, "0 1\nphase: 1/4\n")
    code, out, _ = run(capsys, "verify-tables", "--format", "csv")
    failed = [(r["table_id"], r["row_id"], r["k"])
              for r in csv.DictReader(io.StringIO(out)) if r["pass"] == "false"]
    assert code == 1
    assert failed == [("ng3", "1", "3"), ("ng3", "2", "3")]


def test_no_module_reads_the_environment():
    for path in sorted(Path(fsind.__file__).parent.glob("*.py")):
        text = path.read_text(encoding="utf-8")
        assert "environ" not in text and "getenv" not in text, path.name


def test_no_module_imports_fractions_at_module_level():
    """`fractions` (with its `decimal` and `numbers`) is imported only inside
    the functions that build a `Fraction`, so start-up never loads it."""
    late = {"fractions", "decimal", "numbers"}
    for path in sorted(Path(fsind.__file__).parent.glob("*.py")):
        stack = ast.parse(path.read_text(encoding="utf-8")).body
        while stack:  # every statement run at import: all but function bodies
            node = stack.pop()
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            if isinstance(node, ast.Import):
                names = {alias.name.split(".")[0] for alias in node.names}
                assert not names & late, (path.name, node.lineno)
            elif isinstance(node, ast.ImportFrom):
                assert (node.module or "").split(".")[0] not in late, (path.name, node.lineno)
            stack.extend(ast.iter_child_nodes(node))


def test_the_only_cache_is_the_bundled_rows():
    """No result outlives its call but the bundled rows, built once per process."""
    cached = []
    for path in sorted(Path(fsind.__file__).parent.glob("*.py")):
        text = path.read_text(encoding="utf-8")
        names = re.findall(r"@[\w.]*cache\b.*\n\s*def (\w+)", text)
        cached += [(path.stem, name) for name in names]
        assert "lru_cache" not in text or path.stem == "tables", path.name
    assert cached == [("tables", "builtin_rows")]


def test_byte_identical_reruns(capsys):
    _, first, _ = run(capsys, "verify-tables", "--table", "ng11", "--format", "csv")
    _, second, _ = run(capsys, "verify-tables", "--table", "ng11", "--format", "csv")
    assert first == second


def test_usage_error_exit_code(capsys):
    assert main([]) == 2
    assert main(["gauss"]) == 2


# Generated command lines, within fixed size bounds: every group of order
# <= 30, every zeta1 denominator <= 30, --kmax <= 60, q <= 32.
junk = st.one_of(
    st.none(), st.booleans(), st.integers(-2, 40), st.floats(), st.text("01/-x.e+ ", max_size=4),
    st.lists(st.integers(-1, 3), max_size=2), st.dictionaries(st.sampled_from("ab"), st.none()),
)
group_json = st.one_of(
    st.lists(st.integers(-1, 30), max_size=3)
    .filter(lambda factors: abs(math.prod(factors)) <= 30)
    .map(lambda factors: {"cyclic_factors": factors}),
    junk,
)
form_json = st.one_of(
    st.lists(
        st.fixed_dictionaries(
            {"factor": st.one_of(st.integers(-1, 3), junk),
             "coeff": st.one_of(st.integers(-40, 40), junk)}
        ),
        max_size=3,
    ).map(lambda monomial: {"monomial": monomial}),
    st.lists(
        st.one_of(st.fractions(max_denominator=60).map(str), st.integers(-3, 3), junk),
        max_size=30,
    ).map(lambda table: {"table": table}),
    junk,
)
VALID_SPECS = [
    NG1_Z3,
    {"family": "NG1X"},
    json.loads(NG2_SPEC),
    {"family": "HI", "group": {"cyclic_factors": [3]}, "h": {"cyclic_factors": [13]},
     "qpp": {"monomial": [{"factor": 0, "coeff": 1}]}},
]
SPEC_VALUES = {
    "family": st.one_of(st.sampled_from(["NG1", "NG1X", "NG2", "HI", "NG9"]), junk),
    "group": group_json,
    "p": st.one_of(st.integers(-1, 31), junk),
    "zeta1": st.one_of(st.fractions(max_denominator=30).map(str), st.integers(-3, 3), junk),
    "q": form_json,
    "gp": group_json,
    "qp": form_json,
    "h": group_json,
    "qpp": form_json,
    "labels": st.one_of(st.dictionaries(st.sampled_from("ab"), st.sampled_from("+-")), junk),
}


@st.composite
def spec_json(draw):
    """A bundled-style spec with up to two keys replaced, dropped or added."""
    spec = dict(draw(st.sampled_from(VALID_SPECS)))
    for key in draw(st.lists(st.sampled_from(sorted(SPEC_VALUES)), max_size=2)):
        if draw(st.booleans()):
            spec[key] = draw(SPEC_VALUES[key])
        else:
            spec.pop(key, None)
    return spec


@st.composite
def group_and_form(draw):
    """A group and a monomial form on it, either of them possibly replaced."""
    factors = draw(
        st.lists(st.integers(1, 30), min_size=1, max_size=3)
        .filter(lambda factors: math.prod(factors) <= 30)
    )
    monomial = [{"factor": i, "coeff": draw(st.integers(-40, 40))} for i in range(len(factors))]
    group = draw(st.one_of(st.just({"cyclic_factors": factors}), group_json))
    form = draw(st.one_of(st.just({"monomial": monomial}), form_json))
    return json.dumps(group), json.dumps(form)


def json_arg(values):
    """JSON text of a drawn value, or that text cut short."""
    return st.tuples(values, st.integers(0, 4)).map(
        lambda pair: json.dumps(pair[0])[: None if pair[1] else -1]
    )


kmax_arg = st.one_of(st.integers(-5, 60).map(str), st.sampled_from(["auto", "x", "1.5", ""]))
argvs = st.one_of(
    st.tuples(group_and_form(), st.integers(-40, 40)).map(
        lambda args: ("gauss", "--group", args[0][0], "--form", args[0][1],
                      "--scale", str(args[1]))
    ),
    st.tuples(st.just("indicators"), st.just("--spec"), json_arg(spec_json()),
              st.just("--kmax"), kmax_arg,
              st.just("--path"), st.sampled_from(["center", "closed", "both", "all"])),
    st.tuples(st.just("verify-tables"), st.just("--table"),
              st.sampled_from(["ng3", "ng7", "hi3", "hi5", "ng99"]),
              st.just("--format"), st.sampled_from(["json", "csv", "markdown", "xml"])),
    st.tuples(st.just("rigidity"), st.just("--specs"), json_arg(st.one_of(
        st.lists(spec_json(), max_size=3),
        st.lists(st.fractions(max_denominator=30).map(str), min_size=1, max_size=3).map(
            lambda phases: [{**NG1_Z3, "zeta1": zeta1} for zeta1 in phases]
        ),
        junk,
    ))),
    st.tuples(st.just("agl"), st.just("--q"), st.integers(-3, 32).map(str),
              st.just("--kmax"), kmax_arg),
)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(argvs)
def test_cli_exits_0_1_or_2_and_never_raises(argv):
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(list(argv))
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
