"""Command-line interface: exit codes, report schema, output formats."""

import json

import pytest

from curvestats import cli, rwalk


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


@pytest.mark.parametrize("target, reason", [
    (".", "Is a directory"), ("missing/report.json", "No such file or directory"),
])
def test_unwritable_out_exits_2(target, reason, tmp_path, capsys):
    code = cli.run(["gauss", "--p", "7", "--out", str(tmp_path / target)])
    assert code == 2
    out = capsys.readouterr()
    assert "cannot write output file" in out.err and reason in out.err
    assert out.out == ""


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


def _joint_args(block):
    args = ["joint", "--m", "3", "--poly", "1,1,0,1", "--poly", "2,0,1", *EXPERIMENT_ARGS]
    args[args.index("--block") + 1] = str(block)
    return args


def test_state_space_guard_is_a_named_nonfatal_skip(capsys):
    # 3^2 cells pass the cell guard; at L = 15 the DP's re-centred states do not
    args = _joint_args(15)
    code, payload, _ = run_json(capsys, args)
    assert code == 0
    assert payload["report"]["results"]["model"] is None
    check = payload["report"]["hypotheses"][-1]
    assert check["name"] == "model_feasible"
    assert check["passed"] is False and check["fatal"] is False
    assert check["detail"] == "block model state space exceeds the feasibility guard"


def test_float_sum_guard_is_a_named_nonfatal_skip(capsys):
    # at L = 10, 2^53 / 10 blocks would sum visits past exact float64
    code, payload, _ = run_json(capsys, [*PHI_ARGS, "--blocks", str(2**53 // 10 + 1)])
    assert code == 0
    report = payload["report"]
    assert report["results"]["model"] is None
    check = report["hypotheses"][-1]
    assert check["name"] == "model_feasible"
    assert check["passed"] is False and check["fatal"] is False
    assert check["detail"] == "blocks * L reaches 2^53, past exact float64 visit sums"


def test_joint_model_feasible_at_block_11(capsys):
    code, payload, _ = run_json(capsys, _joint_args(11))
    assert code == 0
    assert payload["report"]["results"]["model"] is not None
    assert "model_feasible" not in {h["name"] for h in payload["report"]["hypotheses"]}


def test_model_error_past_the_guards_exits_1(monkeypatch, capsys):
    def dp(*args):
        raise ValueError("boom")

    # a cached law from an earlier run would skip the patched DP
    rwalk._sampling_law.cache_clear()
    monkeypatch.setattr(rwalk, "_block_type_distribution", dp)
    code, payload, err = run_json(capsys, PHI_ARGS)
    assert code == 1 and payload is None
    assert "validation failure: boom" in err


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


def test_beta_csv_without_modulus_exits_2(capsys):
    # without --m a beta scan has no residue histogram to render
    code = cli.run(["beta", "--p", "10007", "--beta", "1/3", "--window", "100", "--format", "csv"])
    assert code == 2
    out = capsys.readouterr()
    assert "csv" in out.err and out.out == ""


# ------------------------------------------------- usage errors before the work


class _Reached(Exception):
    """Raised by a stand-in handler: the request passed every usage check."""


def _stub_handler(monkeypatch, command):
    def handler(cfg):
        raise _Reached(command)

    monkeypatch.setitem(cli._SUBCOMMANDS, command, (handler, *cli._SUBCOMMANDS[command][1:]))


_EXPERIMENT = {"--p": "7", "--ell": "2", "--m": "3", "--window": "2", "--block": "1",
               "--poly": "0,1", "--seed": "1"}
# a small request per subcommand holding exactly its required fields, flag -> value
REQUIRED = {
    "phi": _EXPERIMENT,
    "joint": _EXPERIMENT,
    "restricted": {**_EXPERIMENT, "--y-lo": "1", "--y-hi": "3"},
    "beta": {"--p": "103", "--window": "7", "--beta": "1/2"},
    "walk": {"--ell": "2", "--m": "3", "--block": "4", "--seed": "1"},
    "prop21": {"--part": "c", "--m": "3", "--block": "4"},
    "charsum": {"--p": "7", "--ell": "2", "--poly": "0,1"},
    "census": {"--p": "13", "--ell": "2", "--poly": "0,1", "--offsets": "0",
               "--count-range": "10", "--v": "0"},
    "shifted": {"--p": "13", "--ell": "2", "--poly": "0,1", "--y-lo": "1", "--y-hi": "3",
                "--offsets": "0"},
    "gauss": {"--p": "7"},
    "gaps": {"--p": "13", "--ell": "2", "--mu": "1", "--window": "3"},
    "verify": {},
}


def _argv(command, flags):
    return [command, *(tok for flag, value in flags.items() for tok in (flag, value))]


@pytest.mark.parametrize("command", list(REQUIRED))
def test_required_fields_reach_the_handler(command, monkeypatch):
    _stub_handler(monkeypatch, command)
    with pytest.raises(_Reached):
        cli.run(_argv(command, REQUIRED[command]))


@pytest.mark.parametrize("command, flag", [(c, f) for c, flags in REQUIRED.items() for f in flags])
def test_missing_required_field_exits_2_before_the_handler(command, flag, monkeypatch, capsys):
    _stub_handler(monkeypatch, command)
    flags = {f: v for f, v in REQUIRED[command].items() if f != flag}
    assert cli.run(_argv(command, flags)) == 2
    dest = flag[2:].replace("-", "_")
    reason = (
        "randomized command requires an explicit 'seed'" if dest == "seed"
        else f"missing required field '{dest}'"
    )
    assert capsys.readouterr().err == f"usage error: {reason}\n"


_CSV_REFUSED = "usage error: csv format is only available for histogram-producing commands"
_WITHOUT_WINDOW_OR_POLY = {
    f: v for f, v in REQUIRED["phi"].items() if f not in ("--window", "--poly")
}


@pytest.mark.parametrize("argv, config, err", [
    (["gauss", "--p", "7"], {"format": "xml"},
     'usage error: config field \'format\' must be one of ["json", "csv"], not "xml"'),
    (["prop21", "--m", "3", "--block", "2"], {"part": "d"},
     'usage error: config field \'part\' must be one of ["a", "b", "c"], not "d"'),
    (["gauss", "--p", "7", "--out", "{tmp}/missing/x.json"], None,
     "usage error: cannot write output file: [Errno 2] No such file or directory: "
     "'{tmp}/missing/.'"),
    (["gauss", "--p", "7", "--out", "{tmp}"], None,
     "usage error: cannot write output file: [Errno 21] Is a directory: '{tmp}'"),
    (["gauss", "--p", "7", "--format", "csv"], None, _CSV_REFUSED),
    (_argv("beta", REQUIRED["beta"]) + ["--format", "csv"], None, _CSV_REFUSED),
    # several missing fields: the first in flag order is named
    (_argv("phi", _WITHOUT_WINDOW_OR_POLY), None, "usage error: missing required field 'window'"),
], ids=["format-xml", "part-d", "out-missing-dir", "out-dir", "gauss-csv", "beta-csv-no-m",
        "first-missing"])
def test_bad_request_exits_2_before_the_handler(argv, config, err, monkeypatch, tmp_path, capsys):
    _stub_handler(monkeypatch, argv[0])
    argv = [a.replace("{tmp}", str(tmp_path)) for a in argv]
    if config is not None:
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config))
        argv += ["--config", str(path)]
    assert cli.run(argv) == 2
    out = capsys.readouterr()
    assert out.err == err.replace("{tmp}", str(tmp_path)) + "\n"
    assert out.out == ""


_P8 = {**REQUIRED["phi"], "--p": "8"}
_CENSUS8 = {**REQUIRED["census"], "--p": "8"}


@pytest.mark.parametrize("argv, config, err", [
    (_argv("phi", _P8) + ["--poly", "1"], None, "this command takes exactly one 'poly'"),
    (_argv("restricted", {**REQUIRED["restricted"], "--p": "8", "--poly": "0,x"}), None,
     "polynomial '0,x' is not a comma-separated integer list"),
    (_argv("joint", _P8) + ["--poly", "1,y"], None,
     "polynomial '1,y' is not a comma-separated integer list"),
    (_argv("charsum", {**REQUIRED["charsum"], "--p": "8"}) + ["--poly", "1"], None,
     "this command takes exactly one 'poly'"),
    (_argv("census", {**_CENSUS8, "--offsets": "x"}), None,
     "field 'offsets' is not an integer list"),
    (_argv("census", _CENSUS8) + ["--v", "0,y"], None, "field 'v' is not an integer list"),
    (_argv("shifted", {**REQUIRED["shifted"], "--p": "8", "--offsets": "0,"}), None,
     "field 'offsets' is not an integer list"),
    (_argv("beta", {**REQUIRED["beta"], "--p": "8", "--beta": "1/0"}), None,
     "beta '1/0' is not a rational number"),
    (_argv("gaps", {**REQUIRED["gaps"], "--p": "8", "--window": "3,x"}), None,
     "field 'window' is not an integer list"),
    (["gaps", "--p", "8", "--ell", "2", "--mu", "1"], {"window": "3,x"},
     "field 'window' is not an integer list"),
    (["verify", "--only", "1,z"], None, "field 'only' is not an integer list"),
])
def test_parse_error_exits_2_before_p_is_checked(argv, config, err, tmp_path, capsys):
    # the handlers would refuse p = 8 as a validation failure (exit 1)
    if config is not None:
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config))
        argv = argv + ["--config", str(path)]
    assert cli.run(argv) == 2
    out = capsys.readouterr()
    assert out.err == f"usage error: {err}\n"
    assert out.out == ""


def test_parsed_fields_reach_the_handler_and_the_report_echoes_strings(monkeypatch, capsys):
    seen = {}

    def handler(cfg):
        seen.update(cfg)
        return {}, []

    monkeypatch.setitem(cli._SUBCOMMANDS, "census", (handler, *cli._SUBCOMMANDS["census"][1:]))
    argv = _argv("census", {**REQUIRED["census"], "--offsets": "0,2"}) + ["--poly", "1,0,1"]
    code, payload, _ = run_json(capsys, argv)
    assert code == 0
    assert seen["poly"] == [[0, 1], [1, 0, 1]]
    assert seen["offsets"] == [0, 2] and seen["v"] == [[0]]
    config = payload["report"]["config"]
    assert config["poly"] == ["0,1", "1,0,1"]
    assert config["offsets"] == "0,2" and config["v"] == ["0"]


def test_failed_job_keeps_an_existing_out_file(tmp_path, capsys):
    path = tmp_path / "report.json"
    path.write_bytes(b"an earlier report\n")
    assert cli.run(["gauss", "--p", "8", "--out", str(path)]) == 1
    assert "validation failure" in capsys.readouterr().err
    assert path.read_bytes() == b"an earlier report\n"


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


def test_threads_refused_where_nothing_reads_it(tmp_path, capsys):
    # gaps and charsum run on the calling thread, so they take no --threads
    assert cli.run(["gaps", "--p", "13", "--ell", "2", "--mu", "1", "--window", "3",
                    "--threads", "2"]) == 2
    assert "unrecognized arguments: --threads 2" in capsys.readouterr().err
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"threads": 2}))
    assert cli.run(["charsum", "--p", "13", "--ell", "2", "--poly", "1,0,1",
                    "--config", str(cfg)]) == 2
    assert "unknown config field 'threads' for command 'charsum'" in capsys.readouterr().err


def test_canonical_json_is_sorted_and_compact():
    text = cli.canonical_json({"b": 1, "a": [1, 2]})
    assert text == '{"a":[1,2],"b":1}'


# ---------------------------------------------------------------- pinned flag surface

# Every field each subcommand takes: its dest, its option strings and its
# kind (int: type=int; str: a plain store; list: a repeatable flag; bool: a
# switch).  Each field's default is None; CHOICES lists the fields with
# choices.  Subcommands and fields appear in parser order.
_SCAN = [
    ("p", ["--p"], int), ("ell", ["--ell"], int), ("m", ["--m"], int),
    ("window", ["--window", "-I"], int), ("block", ["--block", "-L"], int),
    ("x_start", ["--x-start"], int), ("scan_len", ["--scan-len"], int),
]
_POLY = [("poly", ["--poly"], list)]
_RECT = [
    ("x_lo", ["--x-lo"], int), ("x_hi", ["--x-hi"], int),
    ("y_lo", ["--y-lo"], int), ("y_hi", ["--y-hi"], int),
]
_MODEL = [("blocks", ["--blocks"], int), ("trials", ["--trials"], int), ("seed", ["--seed"], int)]
# only the subcommands that fan work out to threads take --threads
_THREADS = [("threads", ["--threads"], int)]
_COMMON = [("config", ["--config"], str), ("format", ["--format"], str), ("out", ["--out"], str)]
PINNED_FIELDS = {
    "phi": _SCAN + _POLY + _MODEL + _THREADS + _COMMON,
    "joint": _SCAN + _POLY + _MODEL + _THREADS + _COMMON,
    "restricted": _SCAN + _POLY + _RECT + _MODEL + _THREADS + _COMMON,
    "beta": (
        _SCAN[:1] + _SCAN[2:4] + _SCAN[5:] + [("beta", ["--beta"], str)] + _THREADS + _COMMON
    ),
    "walk": _SCAN[1:3] + [("block", ["--block", "-L"], int)] + _MODEL[1:] + _THREADS + _COMMON,
    "prop21": [("part", ["--part"], str)] + _SCAN[1:3] + [("block", ["--block", "-L"], int),
               ("k", ["--k"], int)] + _COMMON,
    "charsum": _SCAN[:2] + _POLY + [("lo", ["--lo"], int), ("hi", ["--hi"], int)] + _COMMON,
    "census": _SCAN[:2] + _POLY + [
        ("stride", ["--stride"], int), ("offsets", ["--offsets"], str),
        ("count_range", ["--count-range"], int), ("v", ["--v"], list),
        ("theorem_mode", ["--theorem-mode"], bool),
    ] + _COMMON,
    "shifted": _SCAN[:2] + _POLY + _RECT + [
        ("offsets", ["--offsets"], str), ("stride", ["--stride"], int),
    ] + _COMMON,
    "gauss": [("p", ["--p"], int), ("a", ["--a"], int)] + _COMMON,
    "gaps": _SCAN[:2] + [("mu", ["--mu"], int), ("window", ["--window", "-L"], str)] + _COMMON,
    "verify": [("only", ["--only"], str)] + _THREADS + _COMMON,
}
CHOICES = {"part": ["a", "b", "c"], "format": ["json", "csv"]}
# the argparse action each kind is stored through, and its type
_KIND_ACTIONS = {
    int: ("_StoreAction", int),
    str: ("_StoreAction", None),
    list: ("_AppendAction", None),
    bool: ("_StoreTrueAction", None),
}


def _subparsers():
    parser = cli.build_parser()
    return next(a for a in parser._actions if a.dest == "command").choices


def test_subcommands_take_the_pinned_fields():
    subparsers = _subparsers()
    assert list(subparsers) == list(PINNED_FIELDS)
    for command, fields in PINNED_FIELDS.items():
        got = [
            (a.dest, a.option_strings, type(a).__name__, a.type, a.default, a.choices, a.required)
            for a in subparsers[command]._actions
            if a.dest != "help"
        ]
        want = [
            (dest, flags, *_KIND_ACTIONS[kind], None, CHOICES.get(dest), False)
            for dest, flags, kind in fields
        ]
        assert got == want, command


# a config value of the wrong kind for each field kind, and the kind's name
_WRONG_KIND = {
    int: ("1", "an integer"),
    str: (1, "a string"),
    list: ("1", "a list of strings"),
    bool: (1, "true or false"),
}


@pytest.mark.parametrize("command", list(PINNED_FIELDS))
def test_config_file_kinds_follow_the_pinned_fields(command, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    for dest, _, kind in PINNED_FIELDS[command]:
        value, name = _WRONG_KIND[kind]
        cfg.write_text(json.dumps({dest: value}))
        assert cli.run([command, "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        if dest == "config":
            assert f"unknown config field 'config' for command '{command}'" in err
        else:
            assert f"config field '{dest}' must be {name}, not {json.dumps(value)}" in err


@pytest.mark.parametrize("command", list(PINNED_FIELDS))
def test_subcommand_help_formats(command, capsys):
    # argparse %-formats help strings only when it prints them
    assert cli.run([command, "--help"]) == 0
    out = capsys.readouterr().out
    assert out.startswith(f"usage: curvestats {command} ")
    for _, flags, _ in PINNED_FIELDS[command]:
        assert flags[0] in out
