"""Command line behavior: exit codes, report schema, config handling."""

import filecmp
import json
import math
from pathlib import Path

import pytest

from emtkit import cli, suites
from emtkit.cli import EXIT_FAIL, EXIT_OFFSHELL, EXIT_PASS, EXIT_USAGE, main
from emtkit.suites import RunConfig, run_checks


def run_cli(args):
    return main(args)


def test_verify_passes_and_writes_report(tmp_path, capsys):
    rp = tmp_path / "report.json"
    code = run_cli(["verify", "--suite", "tilde-algebra", "--points", "4",
                    "--report", str(rp), "--quiet"])
    assert code == EXIT_PASS
    report = json.loads(rp.read_text())
    assert report["schema_version"] == 2
    assert "engine_version" in report
    assert report["summary"]["failed"] == 0
    assert report["summary"]["passed"] == len(report["checks"])
    row = report["checks"][0]
    for key in ("id", "identity", "suite", "points", "max_abs", "max_rel",
                "tolerance", "measure", "mode", "passed"):
        assert key in row, key
    assert report["config"]["suites"] == ["tilde-algebra"]


def test_verify_progress_lines(capsys):
    code = run_cli(["verify", "--suite", "tilde-algebra", "--points", "4"])
    assert code == EXIT_PASS
    out = capsys.readouterr().out
    assert "[PASS]" in out
    assert "tilde-product-rule" in out
    assert "0 failed" in out


def test_forced_failure_exit_code(tmp_path, capsys):
    rp = tmp_path / "report.json"
    code = run_cli(["verify", "--suite", "lie-calculus", "--points", "4",
                    "--tol", "1e-30", "--report", str(rp), "--quiet"])
    assert code == EXIT_FAIL
    report = json.loads(rp.read_text())
    assert report["summary"]["failed"] > 0
    failed = [c for c in report["checks"] if not c["passed"]]
    assert all(c["tolerance"] == 1e-30 for c in failed)


def test_per_check_tolerance_override(tmp_path):
    rp = tmp_path / "report.json"
    code = run_cli(["verify", "--suite", "lie-calculus", "--points", "4",
                    "--tol", "killing-metric-flow=1e-30", "--report", str(rp),
                    "--quiet"])
    assert code == EXIT_FAIL
    report = json.loads(rp.read_text())
    rows = {c["id"]: c for c in report["checks"]}
    assert not rows["killing-metric-flow"]["passed"]
    assert rows["lie-dual-forms"]["passed"]


@pytest.mark.parametrize("file_first", [True, False], ids=["file-flag", "flag-file"])
def test_a_bare_tol_flag_wins_over_a_file_tolerance(tmp_path, file_first):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"tolerances": {"tilde-metric-closed-form": 1.0}}))
    rp = tmp_path / "report.json"
    flags = [["--config", str(cfg)], ["--tol", "1e-30"]]
    argv = ["verify", "--suite", "tilde-algebra", "--points", "4", "--quiet",
            "--report", str(rp)]
    for pair in (flags if file_first else flags[::-1]):
        argv += pair
    assert run_cli(argv) == EXIT_FAIL
    rows = json.loads(rp.read_text())["checks"]
    assert {row["tolerance"] for row in rows} == {1e-30}


@pytest.mark.parametrize("bare_first", [True, False], ids=["bare-check", "check-bare"])
def test_a_per_check_tol_flag_wins_over_a_bare_one_and_the_file(tmp_path, bare_first):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"tolerances": {"tilde-metric-closed-form": 1.0,
                                              "tilde-trace-collapse": 0.5}}))
    rp = tmp_path / "report.json"
    tols = [["--tol", "1e-30"], ["--tol", "tilde-metric-closed-form=2.0"]]
    argv = ["verify", "--suite", "tilde-algebra", "--points", "4", "--quiet",
            "--report", str(rp), "--config", str(cfg)]
    for pair in (tols if bare_first else tols[::-1]):
        argv += pair
    assert run_cli(argv) == EXIT_FAIL
    rows = {row["id"]: row["tolerance"] for row in json.loads(rp.read_text())["checks"]}
    assert rows.pop("tilde-metric-closed-form") == 2.0
    assert set(rows.values()) == {1e-30}


def test_negative_seed_is_usage_error_before_any_check(capsys):
    code = run_cli(["verify", "--suite", "tilde-algebra", "--seed", "-1"])
    assert code == EXIT_USAGE
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: seed must be a non-negative integer\n"


def test_a_run_that_cannot_allocate_is_usage_error(monkeypatch, capsys):
    def too_large(*args, **kwargs):
        raise MemoryError("Unable to allocate 2.91 TiB for an array")

    monkeypatch.setattr(suites, "sample_points", too_large)
    code = run_cli(["verify", "--suite", "tilde-algebra", "--points", "4"])
    assert code == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "2.91 TiB" in err
    assert err.count("\n") == 1 and "Traceback" not in err


@pytest.mark.parametrize("bad", [
    {"suites": []},
    {"suites": ["bogus"]},
    {"tolerances": {"bogus": 1.0}},
    {"points": 0},
    {"grid_2d": [0, 0]},
    {"seed": 1.5},
    {"seed": -1},
    {"scenarios": ["phlogiston"]},
    {"spacetimes": ["flatland"]},
    {"suites": ["emt-onshell"], "jet_order": 2},
    {"scenarios": []},
    {"spacetimes": []},
    {"scenarios": ["em-wave-4d", "em-wave-4d"]},
    {"spacetimes": ["minkowski4", "bump2", "minkowski4"]},
], ids=lambda bad: json.dumps(bad))
def test_cli_prints_the_library_gate_message(tmp_path, capsys, bad):
    config = {"suites": ["tilde-algebra"], **bad}
    with pytest.raises(ValueError) as exc:
        run_checks(RunConfig(**{k: tuple(v) if isinstance(v, list) else v
                                for k, v in config.items()}))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    assert run_cli(["verify", "--config", str(cfg)]) == EXIT_USAGE
    out, err = capsys.readouterr()
    assert out == "" and err == f"error: {exc.value}\n"


@pytest.mark.parametrize("flag,name", [("--scenario", "em-wave-4d"),
                                       ("--spacetime", "minkowski4")])
def test_a_target_named_twice_is_usage_error_before_any_check(capsys, flag, name):
    # measured twice, its points would be counted twice in the report
    code = run_cli(["verify", "--suite", "emt-onshell", flag, name, flag, name])
    assert code == EXIT_USAGE
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: {flag[2:]}s names '{name}' more than once\n"


@pytest.mark.parametrize("args,checks", [
    (["--suite", "gauge", "--scenario", "scalar-wave-2d"],
     "scenarios scalar-wave-2d leave no target for gauge-invariance-metric-emt, "
     "gauge-invariance-improved-emt, gauge-variance-canonical-emt"),
    (["--suite", "lie-calculus", "--spacetime", "bump2"],
     "spacetimes bump2 leave no target for parallel-claims"),
])
def test_a_selection_that_leaves_a_check_no_target_is_usage_error(tmp_path, capsys, args, checks):
    rp = tmp_path / "report.json"
    assert run_cli(["verify", *args, "--points", "4", "--report", str(rp)]) == EXIT_USAGE
    out, err = capsys.readouterr()
    assert err == f"error: selected {checks}\n"
    assert "[FAIL]" not in out and not rp.exists()


def test_a_tol_flag_naming_an_unknown_check_prints_the_library_message(capsys):
    # flags and config files go through the one tolerance gate of run_checks
    with pytest.raises(ValueError) as exc:
        run_checks(RunConfig(suites=("tilde-algebra",), tolerances={"bogus": 1.0}))
    assert run_cli(["verify", "--suite", "tilde-algebra", "--tol", "bogus=1"]) == EXIT_USAGE
    out, err = capsys.readouterr()
    assert out == "" and err == f"error: {exc.value}\n"


def test_unknown_suite_is_usage_error(capsys):
    assert run_cli(["verify", "--suite", "bogus"]) == EXIT_USAGE
    assert "bogus" in capsys.readouterr().err


def test_unknown_scenario_is_usage_error(capsys):
    code = run_cli(["verify", "--suite", "tilde-algebra",
                    "--scenario", "phlogiston"])
    assert code == EXIT_USAGE


def test_bad_tolerance_is_usage_error(capsys):
    for tol in ("no-such-check=1e-9", "nan", "inf", "master-identity=-inf",
                "master-identity=tight"):
        code = run_cli(["verify", "--suite", "tilde-algebra", "--tol", tol])
        assert code == EXIT_USAGE, tol
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: "), tol
        assert err.count("\n") == 1, tol


def test_too_low_jet_order_is_usage_error(capsys):
    code = run_cli(["verify", "--suite", "emt-onshell", "--jet-order", "2",
                    "--points", "4", "--quiet"])
    assert code == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error: --jet-order 2")
    assert err.count("\n") == 1 and "Traceback" not in err


def test_jet_order_below_a_declared_minimum_is_rejected_before_any_check(capsys):
    code = run_cli(["verify", "--suite", "emt-onshell", "--jet-order", "2",
                    "--points", "4"])
    assert code == EXIT_USAGE
    out, err = capsys.readouterr()
    assert out == ""                       # no check line, no summary
    assert err.startswith("error: --jet-order 2 is too low")
    assert err.count("\n") == 1 and "master-identity" in err


def test_jet_order_two_runs_suites_that_declare_it(capsys):
    code = run_cli(["verify", "--suite", "tilde-algebra", "--jet-order", "2",
                    "--points", "4", "--quiet"])
    assert code == EXIT_PASS


def test_jet_order_ceiling_is_judged_by_the_selected_checks_alone(capsys):
    # every tilde-algebra check declares order 1 or lower
    code = run_cli(["verify", "--suite", "tilde-algebra", "--jet-order", "1",
                    "--points", "4", "--quiet"])
    assert code == EXIT_PASS
    capsys.readouterr()
    code = run_cli(["verify", "--suite", "tilde-algebra", "--jet-order", "0",
                    "--points", "4"])
    assert code == EXIT_USAGE
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: --jet-order 0 is too low")
    assert err.count("\n") == 1 and "Traceback" not in err


def test_jet_order_ceiling_above_every_check_leaves_the_report_unchanged(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"suites": ["tilde-algebra", "emt-onshell", "gauge"],
                               "points": 4, "xi_count": 2}))
    reports = []
    for order in (3, 4):
        rp = tmp_path / f"order{order}.json"
        code = run_cli(["verify", "--config", str(cfg), "--jet-order", str(order),
                        "--report", str(rp), "--quiet"])
        assert code == EXIT_PASS
        report = json.loads(rp.read_text())
        assert report["config"].pop("jet_order") == order
        reports.append(report)
    assert reports[0] == reports[1]


def test_off_shell_gate_exit_code(capsys):
    code = run_cli(["verify", "--suite", "emt-onshell",
                    "--scenario", "scalar-blob-2d", "--points", "4"])
    assert code == EXIT_OFFSHELL
    assert "on-shell" in capsys.readouterr().err


def test_reports_are_byte_identical(tmp_path):
    r1, r2 = tmp_path / "a.json", tmp_path / "b.json"
    args = ["verify", "--suite", "tilde-algebra", "--points", "6",
            "--seed", "3", "--quiet"]
    assert run_cli(args + ["--report", str(r1)]) == EXIT_PASS
    assert run_cli(args + ["--report", str(r2)]) == EXIT_PASS
    assert filecmp.cmp(r1, r2, shallow=False)
    assert r1.read_text() != ""


@pytest.mark.parametrize("where", ["directory", "missing-parent"])
def test_unwritable_report_path_is_usage_error(tmp_path, capsys, where):
    path = tmp_path if where == "directory" else tmp_path / "missing" / "r.json"
    code = run_cli(["verify", "--suite", "tilde-algebra", "--points", "4",
                    "--report", str(path), "--quiet"])
    assert code == EXIT_USAGE
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: cannot write report")


def test_quiet_without_report_prints_json(capsys):
    code = run_cli(["verify", "--suite", "tilde-algebra", "--points", "4",
                    "--quiet"])
    assert code == EXIT_PASS
    report = json.loads(capsys.readouterr().out)
    assert report["summary"]["failed"] == 0


def test_config_file_with_cli_override(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "suites": ["tilde-algebra"], "points": 3, "seed": 11,
    }))
    rp = tmp_path / "report.json"
    code = run_cli(["verify", "--config", str(cfg), "--points", "5",
                    "--report", str(rp), "--quiet"])
    assert code == EXIT_PASS
    conf = json.loads(rp.read_text())["config"]
    assert conf["points"] == 5       # flag beats file
    assert conf["seed"] == 11        # file beats default
    assert conf["suites"] == ["tilde-algebra"]


def test_config_file_unknown_key_rejected(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"suites": ["tilde-algebra"], "bogus": 1}))
    assert run_cli(["verify", "--config", str(cfg)]) == EXIT_USAGE
    assert "bogus" in capsys.readouterr().err


@pytest.mark.parametrize("bad", [
    {"grid_4d": 5},
    {"grid_2d": [0, 4]},
    {"grid_2d": [64]},
    {"grid_4d": [8, 8, 8, 8.5]},
    {"tolerances": [1]},
    {"tolerances": {"master-identity": "tight"}},
    {"tolerances": {"master-identity": math.nan}},
    {"tolerances": {"master-identity": math.inf}},
    {"tolerances": {"tilde-identity-map": -math.inf}},
    {"suites": []},
    {"xi_count": 0},
    {"points": [16]},
    {"suites": 5},
    {"report": 1},
], ids=lambda bad: json.dumps(bad))
def test_config_file_malformed_value_is_usage_error(tmp_path, capsys, bad):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"suites": ["emt-onshell"], **bad}))
    assert run_cli(["verify", "--config", str(cfg), "--quiet"]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert next(iter(bad)) in err


def test_config_file_missing(tmp_path):
    assert run_cli(["verify", "--config", str(tmp_path / "nope.json")]) == EXIT_USAGE


def test_list_mentions_everything(capsys):
    assert run_cli(["list"]) == EXIT_PASS
    out = capsys.readouterr().out
    for token in ("tilde-algebra", "variational", "master-identity",
                  "schwarzschild", "em-wave-4d", "scalar-blob-2d"):
        assert token in out, token


def test_explain_known_check(capsys):
    assert run_cli(["explain", "master-identity"]) == EXIT_PASS
    out = capsys.readouterr().out
    assert "master-identity" in out
    assert "emt-onshell" in out
    assert "jet order: 3\n" in out


def test_explain_unknown_check(capsys):
    assert run_cli(["explain", "flux-capacitor"]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert "master-identity" in err   # lists what exists


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli(["--version"])
    assert exc.value.code == 0


BENCHMARK_CONFIGS = sorted((Path(__file__).resolve().parent.parent / "perfbench" / "configs")
                           .glob("*.json"))


def test_the_benchmark_has_configs():
    assert BENCHMARK_CONFIGS


@pytest.mark.parametrize("path", BENCHMARK_CONFIGS, ids=lambda p: p.stem)
def test_a_benchmark_config_passes_the_gate(monkeypatch, tmp_path, path):
    # the benchmark's own command line, with run_checks replaced by the gate
    # alone: the config is built as verify builds it, and no check runs
    selected = []

    def gate_only(cfg, emit=None):
        selected.append(suites._validate(cfg))
        return []

    monkeypatch.setattr(cli, "run_checks", gate_only)
    argv = ["verify", "--config", str(path), "--seed", "7", "--quiet",
            "--report", str(tmp_path / "report.json")]
    assert run_cli(argv) == EXIT_PASS
    (checks,) = selected
    wanted = json.loads(path.read_text())["suites"]
    assert checks and {c.suite for c in checks} == set(wanted)
