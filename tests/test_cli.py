import json

from fsind.cli import main

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


def test_agl_degenerate_q2_warns(capsys):
    code, out, err = run(capsys, "agl", "--q", "2", "--kmax", "4")
    assert code == 0
    assert "degenerate" in err
    assert out.splitlines()[2].split()[1] == "0"


def test_tolerance_validation(capsys, monkeypatch):
    monkeypatch.setenv("FI_TOLERANCE", "0.5")
    code, _, err = run(capsys, "gauss", "--group", Z3, "--form", FORM1)
    assert code == 2 and "tolerance" in err
    monkeypatch.setenv("FI_TOLERANCE", "abc")
    code, _, _ = run(capsys, "gauss", "--group", Z3, "--form", FORM1)
    assert code == 2
    monkeypatch.setenv("FI_TOLERANCE", "1e-6")
    code, out, _ = run(capsys, "gauss", "--group", Z3, "--form", FORM1)
    assert code == 0 and out.splitlines()[0] == "0 1"


def test_tolerance_flag_overrides_env(capsys, monkeypatch):
    monkeypatch.setenv("FI_TOLERANCE", "0.5")
    code, out, _ = run(
        capsys, "--tolerance", "1e-9", "gauss", "--group", Z3, "--form", FORM1
    )
    assert code == 0
    assert out.splitlines()[0] == "0 1"


def test_byte_identical_reruns(capsys):
    _, first, _ = run(capsys, "verify-tables", "--table", "ng11", "--format", "csv")
    _, second, _ = run(capsys, "verify-tables", "--table", "ng11", "--format", "csv")
    assert first == second


def test_usage_error_exit_code(capsys):
    assert main([]) == 2
    assert main(["gauss"]) == 2
