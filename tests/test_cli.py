"""Command-line interface: exit codes, report schema, output formats."""

import json

import pytest

from curvestats import cli


def run_json(capsys, argv):
    code = cli.run(argv)
    out = capsys.readouterr()
    payload = json.loads(out.out) if out.out.strip() else None
    return code, payload, out.err


PHI_ARGS = [
    "phi", "--p", "10007", "--ell", "2", "--m", "3", "--poly", "1,1,0,1",
    "--window", "100", "--block", "10", "--trials", "50", "--seed", "7",
]


def test_phi_json_schema(capsys):
    code, payload, _ = run_json(capsys, PHI_ARGS)
    assert code == 0
    assert set(payload) == {"report", "meta"}
    report = payload["report"]
    assert report["command"] == "phi"
    assert report["config"]["p"] == 10007
    # never part of the canonical report section
    for key in ("threads", "format", "out"):
        assert key not in report["config"]
    assert {h["name"] for h in report["hypotheses"]} >= {
        "p_equiv_1_mod_ell", "P_admissible", "gcd_m_ell", "no_wraparound",
    }
    for h in report["hypotheses"]:
        assert set(h) == {"name", "label", "passed", "fatal", "detail"}
    hist = report["results"]["histogram"]
    assert sum(hist["counts"]) == hist["total"]
    assert "duration_s" in payload["meta"]


def test_phi_csv_frozen(capsys):
    code = cli.run(PHI_ARGS + ["--format", "csv"])
    assert code == 0
    assert capsys.readouterr().out == (
        "a,count,phi_num,phi_den,phi_dec\n"
        "0,3239,3239,9897,0.327271\n"
        "1,3276,1092,3299,0.331009\n"
        "2,3382,3382,9897,0.341720\n"
    )


def test_walk_csv_partitions_steps(capsys):
    code = cli.run(
        ["walk", "--ell", "2", "--m", "3", "--block", "50", "--trials", "20",
         "--seed", "5", "--format", "csv"]
    )
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "a,count,phi_num,phi_den,phi_dec"
    counts = [int(line.split(",")[1]) for line in lines[1:]]
    assert sum(counts) == 20 * 50


def test_thread_count_does_not_change_canonical_report(capsys):
    reports = []
    for t in ("1", "4"):
        code, payload, _ = run_json(capsys, PHI_ARGS + ["--threads", t])
        assert code == 0
        reports.append(cli.canonical_json(payload["report"]))
    assert reports[0] == reports[1]


def test_out_writes_file(tmp_path, capsys):
    path = tmp_path / "report.json"
    code = cli.run(["gauss", "--p", "7", "--out", str(path)])
    assert code == 0
    assert capsys.readouterr().out == ""
    payload = json.loads(path.read_text())
    assert payload["report"]["command"] == "gauss"
    assert payload["report"]["results"]["all_ok"] is True


def test_gauss_single_multiplier(capsys):
    code, payload, _ = run_json(capsys, ["gauss", "--p", "11", "--a", "3"])
    assert code == 0
    entries = payload["report"]["results"]["entries"]
    assert len(entries) == 1 and entries[0]["a"] == 3 and entries[0]["ok"] is True


def test_prop21_passes(capsys):
    code, payload, _ = run_json(
        capsys, ["prop21", "--part", "a", "--ell", "2", "--m", "3", "--block", "2"]
    )
    assert code == 0
    res = payload["report"]["results"]
    assert res["passed"] is True and res["lhs"] <= res["bound"]


def test_charsum_subinterval(capsys):
    code, payload, _ = run_json(
        capsys,
        ["charsum", "--p", "10007", "--ell", "2", "--poly", "1,1,0,1",
         "--lo", "100", "--hi", "5000"],
    )
    assert code == 0
    res = payload["report"]["results"]
    assert res["passed"] is True and res["magnitude"] <= res["bound"]


def test_census_prediction(capsys):
    code, payload, _ = run_json(
        capsys,
        ["census", "--p", "13", "--ell", "2", "--poly", "0,1", "--stride", "1",
         "--offsets", "0", "--count-range", "10", "--v", "0"],
    )
    assert code == 0
    res = payload["report"]["results"]
    assert res["count"] == 5
    assert res["prediction"] == {"num": 5, "den": 1, "dec": "5.000000"}
    assert res["bound_ok"] is True


def test_verify_subset(capsys):
    code = cli.run(["verify", "--only", "3,4"])
    out = capsys.readouterr()
    assert code == 0
    assert "criterion  3 [PASS]" in out.err
    assert "criterion  4 [PASS]" in out.err
    payload = json.loads(out.out)
    assert payload["report"]["results"]["all_passed"] is True


@pytest.mark.parametrize("only, unknown", [("13", "[13]"), ("0,3", "[0]")])
def test_verify_unknown_criterion_ids_exit_1(only, unknown, capsys):
    code = cli.run(["verify", "--only", only])
    out = capsys.readouterr()
    assert code == 1
    assert f"validation failure: unknown criterion ids {unknown}" in out.err
    assert "criterion  3" not in out.err
    assert out.out == ""


def test_prop21_part_c_needs_no_ell(capsys):
    code, payload, _ = run_json(capsys, ["prop21", "--part", "c", "--m", "3", "--block", "4"])
    assert code == 0
    assert payload["report"]["results"]["passed"] is True


# every case exceeds the block model's m^k <= 4096 cell guard
INFEASIBLE_MODEL = {
    "phi": ["--m", "4099", "--poly", "1,1,0,1"],
    "joint": ["--m", "17", "--poly", "0,1", "--poly", "1,0,1", "--poly", "3,1"],
}
EXPERIMENT_ARGS = [
    "--p", "10007", "--ell", "2", "--window", "100", "--block", "5",
    "--trials", "20", "--seed", "7",
]


@pytest.mark.parametrize("command", list(INFEASIBLE_MODEL))
def test_infeasible_model_is_a_named_nonfatal_skip(command, capsys):
    code, payload, _ = run_json(capsys, [command, *INFEASIBLE_MODEL[command], *EXPERIMENT_ARGS])
    assert code == 0
    report = payload["report"]
    assert report["results"]["model"] is None
    assert report["results"]["model_pass"] is None
    check = report["hypotheses"][-1]
    assert check["name"] == "model_feasible"
    assert check["label"] == cli.HYPOTHESIS_LABELS["model_feasible"]
    assert check["passed"] is False and check["fatal"] is False
    assert "cell space too large" in check["detail"]


def test_state_space_guard_is_a_named_nonfatal_skip(capsys):
    # 3^2 cells pass the cell guard; at L = 11 the DP's states do not
    args = ["joint", "--m", "3", "--poly", "1,1,0,1", "--poly", "2,0,1", *EXPERIMENT_ARGS]
    args[args.index("--block") + 1] = "11"
    code, payload, _ = run_json(capsys, args)
    assert code == 0
    assert payload["report"]["results"]["model"] is None
    check = payload["report"]["hypotheses"][-1]
    assert check["name"] == "model_feasible"
    assert check["passed"] is False and check["fatal"] is False
    assert check["detail"] == "block model state space exceeds the feasibility guard"


def test_feasible_model_adds_no_model_feasible_check(capsys):
    code, payload, _ = run_json(capsys, PHI_ARGS)
    assert code == 0
    assert "model_feasible" not in {h["name"] for h in payload["report"]["hypotheses"]}


# ----------------------------------------------------------- failure modes


@pytest.mark.parametrize("command", ["phi", "joint"])
@pytest.mark.parametrize("flag", ["--trials", "--blocks"])
def test_zero_model_size_exits_1(command, flag, capsys):
    polys = ["--poly", "0,1", "--poly", "1,0,1"] if command == "joint" else ["--poly", "0,1"]
    code = cli.run([command, "--m", "3", *polys, *EXPERIMENT_ARGS, flag, "0"])
    assert code == 1
    assert "trials and blocks must be positive" in capsys.readouterr().err



def test_hypothesis_failure_exits_1(capsys):
    code = cli.run(
        ["phi", "--p", "10007", "--ell", "2", "--m", "2", "--poly", "0,1",
         "--window", "100", "--block", "10", "--seed", "1"]
    )
    err = capsys.readouterr().err
    assert code == 1
    assert "GCD(m,ℓ)=1" in err and "gcd_m_ell" in err


def test_composite_p_exits_1(capsys):
    code = cli.run(["gauss", "--p", "8"])
    assert code == 1
    assert "validation failure" in capsys.readouterr().err


def test_missing_seed_exits_2(capsys):
    code = cli.run(
        ["phi", "--p", "10007", "--ell", "2", "--m", "3", "--poly", "0,1",
         "--window", "100", "--block", "10"]
    )
    assert code == 2
    assert "seed" in capsys.readouterr().err


def test_missing_required_field_exits_2(capsys):
    code = cli.run(["phi", "--ell", "2", "--m", "3", "--poly", "0,1", "--seed", "1"])
    assert code == 2
    assert "missing required field" in capsys.readouterr().err


def test_unknown_subcommand_exits_2(capsys):
    assert cli.run(["frobnicate"]) == 2


def test_csv_unavailable_exits_2(capsys):
    code = cli.run(["gauss", "--p", "7", "--format", "csv"])
    assert code == 2
    assert "csv" in capsys.readouterr().err


def test_config_file_fills_and_flags_override(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"p": 11, "a": 3}))
    code, payload, _ = run_json(capsys, ["gauss", "--config", str(cfg)])
    assert code == 0
    assert payload["report"]["results"]["entries"][0]["a"] == 3
    code, payload, _ = run_json(capsys, ["gauss", "--config", str(cfg), "--a", "1"])
    assert code == 0
    assert payload["report"]["results"]["entries"][0]["a"] == 1


def test_unknown_config_key_exits_2(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"p": 11, "bogus_field": 1}))
    code = cli.run(["gauss", "--config", str(cfg)])
    assert code == 2
    assert "bogus_field" in capsys.readouterr().err


@pytest.mark.parametrize("field, value", [
    ("m", "3"), ("m", 3.0), ("threads", "2"), ("threads", 1.5), ("threads", True), ("seed", [7]),
])
def test_config_value_of_wrong_type_exits_2(field, value, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({field: value}))
    flag = PHI_ARGS.index(f"--{field}") if f"--{field}" in PHI_ARGS else len(PHI_ARGS)
    code = cli.run([*PHI_ARGS[:flag], *PHI_ARGS[flag + 2 :], "--config", str(cfg)])
    assert code == 2
    err = capsys.readouterr().err
    assert f"config field '{field}' must be an integer" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("argv, field, value, kind", [
    (PHI_ARGS, "poly", 5, "a list of strings"),
    (PHI_ARGS, "poly", "1,1,0,1", "a list of strings"),
    (PHI_ARGS, "poly", [[1, 1, 0, 1]], "a list of strings"),
    (PHI_ARGS, "format", 1, "a string"),
    (["beta", "--p", "103", "--window", "7"], "beta", 0.5, "a string"),
    (["gaps", "--p", "13", "--ell", "2", "--mu", "1"], "window", [3, 4], "a string"),
    (["verify"], "only", 1, "a string"),
    (["census", "--p", "13", "--ell", "2"], "theorem_mode", 1, "true or false"),
])
def test_config_value_not_in_flag_form_exits_2(argv, field, value, kind, tmp_path, capsys):
    # a config field holds what its flag would: a string, a list of
    # strings for a repeatable flag, a boolean for a switch
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({field: value}))
    flag = argv.index(f"--{field}") if f"--{field}" in argv else len(argv)
    code = cli.run([*argv[:flag], *argv[flag + 2 :], "--config", str(cfg)])
    assert code == 2
    err = capsys.readouterr().err
    assert f"config field '{field}' must be {kind}, not {json.dumps(value)}" in err
    assert "Traceback" not in err


def test_config_fields_in_flag_form_run(tmp_path, capsys):
    code, want, _ = run_json(capsys, PHI_ARGS)
    assert code == 0
    flag = PHI_ARGS.index("--poly")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"poly": ["1,1,0,1"], "format": "json"}))
    code, got, _ = run_json(capsys, [*PHI_ARGS[:flag], *PHI_ARGS[flag + 2 :], "--config", str(cfg)])
    assert code == 0
    assert got["report"] == want["report"]


@pytest.mark.parametrize("threads", ["0", "-3"])
def test_threads_below_one_exit_2(threads, tmp_path, capsys):
    assert cli.run([*PHI_ARGS, "--threads", threads]) == 2
    assert f"threads must be at least 1, not {threads}" in capsys.readouterr().err
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"threads": int(threads)}))
    assert cli.run([*PHI_ARGS, "--config", str(cfg)]) == 2
    assert f"threads must be at least 1, not {threads}" in capsys.readouterr().err


def test_canonical_json_is_sorted_and_compact():
    text = cli.canonical_json({"b": 1, "a": [1, 2]})
    assert text == '{"a":[1,2],"b":1}'
