import dataclasses
import json
import math

import numpy as np
import pytest
from click.testing import CliRunner

from hcalc import suites
from hcalc.cli import main
from hcalc.suites import RunConfig, SuiteResult, emit_report, run_suite


@pytest.fixture
def runner():
    return CliRunner()


def test_dist_single_pair(runner):
    out = runner.invoke(main, ["dist", "--x", "[0,0,0]", "--y", "[0,0,1]"])
    assert out.exit_code == 0
    rec = json.loads(out.output)
    assert rec["lower"] == pytest.approx(1.0)
    assert rec["upper"] == pytest.approx(np.sqrt(np.pi), abs=1e-4)


def test_dist_batch(runner, tmp_path):
    src = tmp_path / "batch.jsonl"
    src.write_text('{"x": [0,0,0], "y": [3,4,0]}\n{"x": [0,0,0], "y": [0,0,4]}\n')
    dst = tmp_path / "out.jsonl"
    out = runner.invoke(main, ["dist", "--batch", str(src), "--out", str(dst)])
    assert out.exit_code == 0
    recs = [json.loads(line) for line in dst.read_text().splitlines()]
    assert recs[0]["lower"] == pytest.approx(5.0)
    assert recs[0]["upper"] == pytest.approx(5.0)
    assert recs[1]["lower"] == pytest.approx(2.0)


def test_dist_requires_arguments(runner):
    out = runner.invoke(main, ["dist"])
    assert out.exit_code != 0


@pytest.mark.parametrize("x, y, message", [
    ("[0,0]", "[1,0]", "odd trailing length"),
    ("[0,0,0]", "[1,0,0,0,0]", "dimension mismatch"),
    ("[NaN,0,0]", "[1,0,0]", "finite"),
    ("[[0,0,0]]", "[0,0,1]", "flat array"),
    ("[1,1,0]", "[1,1,1e-40]", "exceeds upper bound"),  # the witness collapses at x
])
def test_dist_reports_bad_input_as_a_usage_error(runner, x, y, message):
    out = runner.invoke(main, ["dist", "--x", x, "--y", y])
    assert out.exit_code == 2
    assert message in out.output
    assert "Traceback" not in out.output


@pytest.mark.parametrize("bad, message", [
    ('{"x": [0,0,0]}', "need an object"),
    ('{"x": [0,0], "y": [1,0]}', "odd trailing length"),
    ('{"x": [0,0,0], "y": [0,NaN,1]}', "finite"),
    ("[0,0,0]", "need an object"),
])
def test_dist_batch_names_the_bad_line(runner, tmp_path, bad, message):
    src = tmp_path / "batch.jsonl"
    src.write_text('{"x": [0,0,0], "y": [3,4,0]}\n\n' + bad + "\n")
    out = runner.invoke(main, ["dist", "--batch", str(src)])
    assert out.exit_code == 2
    assert "line 3" in out.output and message in out.output


def test_dist_far_pair_has_a_bracket(runner):
    out = runner.invoke(main, ["dist", "--x", "[1e300,0,0]", "--y", "[-1e300,0,0]"])
    assert out.exit_code == 0, out.output
    assert json.loads(out.output) == {"lower": 2e300, "upper": 2e300}


def test_curve_gamma(runner):
    out = runner.invoke(main, ["curve", "gamma-y", "--y", "[1,0,1]"])
    assert out.exit_code == 0
    rec = json.loads(out.output)
    assert rec["planar"][1] == [0.5, 0.5]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("y, message", [
    ("[0,0,1]", "zero projection"), ("[1,0]", "odd trailing length"), ("abc", "Expecting value"),
    # a traceback on "overflow encountered in vecdot" under warnings-as-errors
    ("[1e200,0,1e300]", "the squares of p(y) overflow"),
    # refused as "zero projection", although p(y) != 0
    ("[1e-300,0,1]", "the squares of p(y) underflow"),
    ("[1e-100,0,1e300]", "the midpoint of gamma_y overflows"),
    ("[NaN,0,1]", "finite coordinates"),
])
def test_curve_gamma_reports_bad_input_as_a_usage_error(runner, y, message):
    out = runner.invoke(main, ["curve", "gamma-y", "--y", y])
    assert out.exit_code == 2
    assert message in out.output and "Traceback" not in out.output


def test_curve_modify(runner):
    out = runner.invoke(main, [
        "curve", "modify", "--x", "[0,0,0]", "--u", "[0,0.5,0]",
        "--direction", "[1,0]", "--r", "1e-6", "--delta", "1e-5", "--eta", "0.1",
    ])
    assert out.exit_code == 0
    rec = json.loads(out.output)
    assert rec["zeta"] == pytest.approx(0.0)


@pytest.mark.parametrize("u", ["[0, 2, 0]", "[1e160, 0, 1e160]", "[1e80, 0, 1e155]"])
def test_curve_modify_rejects_a_detour_target_beyond_the_unit_ball(runner, u):
    out = runner.invoke(main, [
        "curve", "modify", "--x", "[0,0,0]", "--u", u,
        "--direction", "[1,0]", "--r", "1e-6", "--delta", "1e-5", "--eta", "0.1",
    ])
    assert out.exit_code == 2
    assert "certified distance bound" in out.output


def test_uds_query(runner):
    out = runner.invoke(main, ["uds", "query", "--point", "[0,0,0]", "--level", "3", "--max-lines", "32"])
    assert out.exit_code == 0
    assert json.loads(out.output)["member"] is True


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("point, level", [("[1e200,0,0]", "1"), ("[1e300,1e300,1e300]", "3")])
def test_uds_query_answers_a_far_point_under_warnings_as_errors(runner, point, level):
    # squares of such coordinates overflow; a float warning must not end the query
    out = runner.invoke(main, ["uds", "query", "--point", point, "--level", level])
    assert out.exit_code == 0, out.output
    assert json.loads(out.output) == {"member": False, "level": int(level)}


@pytest.mark.parametrize("point", ["[NaN, 0, 0]", "[0, Infinity, 0]", "[0, 0]", "[0, 0, 0, 0]"])
def test_uds_query_rejects_a_degenerate_point(runner, point):
    out = runner.invoke(main, ["uds", "query", "--point", point, "--level", "3", "--max-lines", "32"])
    assert out.exit_code == 2
    assert "finite" in out.output or "length 3" in out.output


@pytest.mark.parametrize("command", [
    ["build", "--out", "unused.json"],
    ["measure", "--samples", "1000"],
    ["query", "--point", "[0, 0, 0]", "--level", "1"],
])
@pytest.mark.parametrize("option, message", [
    ("--n", "n must be >= 1"),
    ("--height", "height must be >= 1"),
    ("--depth", "depth must be >= 1"),
    ("--max-lines", "need at least one line"),
])
def test_uds_commands_report_a_degenerate_cover_as_a_usage_error(runner, tmp_path, command, option, message):
    # each printed a traceback and exited 1
    with runner.isolated_filesystem(temp_dir=tmp_path):
        out = runner.invoke(main, ["uds", *command, "--max-lines", "8", option, "0"])
    assert out.exit_code == 2
    assert message in out.output
    assert "Traceback" not in out.output


@pytest.mark.parametrize("args, message", [
    (["--level", "13"], "exceeds constructed depth"),
    (["--samples", "10"], "at least 1000 samples"),
])
def test_uds_measure_reports_a_bad_query_as_a_usage_error(runner, args, message):
    out = runner.invoke(main, ["uds", "measure", "--max-lines", "8", *args])
    assert out.exit_code == 2
    assert message in out.output


def test_uds_build_certifies_a_deep_cover_and_names_the_depth_limit(runner, tmp_path):
    # depth 800 was refused: the float bound underflowed from level 794 on
    dst = tmp_path / "manifest.json"
    out = runner.invoke(main, ["uds", "build", "--depth", "800", "--out", str(dst)])
    assert out.exit_code == 0
    man = json.loads(dst.read_text())
    bounds, targets = man["volume_bounds"], man["volume_targets"]
    assert len(bounds) == 800 and all(math.isfinite(b) and b <= t for b, t in zip(bounds, targets))
    dst.unlink()
    out = runner.invoke(main, ["uds", "build", "--depth", "1075", "--out", str(dst)])
    assert out.exit_code == 2
    assert "at most 1074" in out.output
    assert "Traceback" not in out.output and not dst.exists()


def test_uds_build_writes_manifest(runner, tmp_path):
    dst = tmp_path / "manifest.json"
    out = runner.invoke(main, ["uds", "build", "--max-lines", "24", "--depth", "4", "--out", str(dst)])
    assert out.exit_code == 0
    man = json.loads(dst.read_text())
    assert man["depth"] == 4


def test_verify_single_suite_exit_zero(runner, tmp_path):
    dst = tmp_path / "report.json"
    out = runner.invoke(main, ["verify", "--suite", "group", "--trials", "500", "--out", str(dst)])
    assert out.exit_code == 0, out.output
    rep = json.loads(dst.read_text())
    assert rep["aggregate_pass"] is True
    assert rep["suites"][0]["suite"] == "group"
    assert "wall_time_s" not in rep["suites"][0]


def test_verify_unknown_suite(runner):
    out = runner.invoke(main, ["verify", "--suite", "nonsense"])
    assert out.exit_code != 0


def test_verify_deterministic_bytes(runner, tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for dst in (a, b):
        out = runner.invoke(main, [
            "verify", "--suite", "group", "--suite", "lift",
            "--trials", "400", "--seed", "9", "--out", str(dst),
        ])
        assert out.exit_code == 0, out.output
    assert a.read_bytes() == b.read_bytes()


def test_verify_has_no_jobs_flag(runner, tmp_path):
    out = runner.invoke(main, ["verify", "--suite", "group", "--jobs", "2", "--out", str(tmp_path / "rep.json")])
    assert out.exit_code == 2
    assert "--jobs" in out.output


def test_report_reemission(runner, tmp_path):
    first = tmp_path / "first.json"
    out = runner.invoke(main, ["verify", "--suite", "lift", "--out", str(first)])
    assert out.exit_code == 0
    second = tmp_path / "second.json"
    out2 = runner.invoke(main, ["report", "--from", str(first), "--out", str(second)])
    assert out2.exit_code == 0
    assert json.loads(second.read_text())["aggregate_pass"] is True


@pytest.mark.parametrize("edit, message", [
    (lambda rep: rep["config"].update(mu=0.5), "unknown config fields: ['mu']"),
    (lambda rep: rep["suites"][0].pop("seed"), "a suite record has no 'seed' field"),
])
def test_report_reemission_reports_bad_input_as_a_usage_error(runner, tmp_path, edit, message):
    first = tmp_path / "first.json"
    assert runner.invoke(main, ["verify", "--suite", "lift", "--trials", "12", "--out", str(first)]).exit_code == 0
    rep = json.loads(first.read_text())
    edit(rep)
    first.write_text(json.dumps(rep))
    second = tmp_path / "second.json"
    out = runner.invoke(main, ["report", "--from", str(first), "--out", str(second)])
    assert out.exit_code == 2
    assert message in out.output and "Traceback" not in out.output and not second.exists()


@pytest.mark.parametrize("field, value, message", [
    ("worst_margin", "x", "'worst_margin' must be a number, got \"x\""),
    ("worst_margin", True, "'worst_margin' must be a number, got true"),
    ("failures", "0", "'failures' must be an integer, got \"0\""),
    ("failures", 0.0, "'failures' must be an integer, got 0.0"),
    ("trials", False, "'trials' must be an integer, got false"),
    ("seed", [1], "'seed' must be an integer, got [1]"),
    ("suite", 7, "'suite' must be a string, got 7"),
])
def test_report_reports_a_wrongly_typed_record_field_as_a_usage_error(runner, tmp_path, field, value, message):
    # a string worst_margin raised a TypeError traceback (exit 1), and a
    # string failures count was read as a failing suite
    record = {"suite": "lift", "trials": 1, "failures": 0, "worst_margin": 1.0, "seed": 0, field: value}
    first = tmp_path / "first.json"
    first.write_text(json.dumps({"suites": [record]}))
    second = tmp_path / "second.json"
    out = runner.invoke(main, ["report", "--from", str(first), "--out", str(second)])
    assert out.exit_code == 2
    assert message in out.output and "Traceback" not in out.output and not second.exists()


def test_report_keeps_an_infinite_worst_margin(runner, tmp_path):
    first = tmp_path / "first.json"
    first.write_text('{"suites": [{"suite": "lift", "trials": 1, "failures": 0, "worst_margin": Infinity, "seed": 0}]}')
    out = runner.invoke(main, ["report", "--from", str(first), "--out", str(tmp_path / "second.json")])
    assert out.exit_code == 0, out.output
    assert "aggregate: FAIL" in out.output  # a suite without a finite margin does not pass


@pytest.mark.parametrize("text, message", [
    ("[1, 2]", "a report is a JSON object, got list"),
    ('{"suites": [5]}', "'suites' must be a list of suite records"),
    ('{"suites": {"suite": "lift"}}', "'suites' must be a list of suite records"),
    ('{"suites": [], "config": [1]}', "'config' must be a JSON object"),
], ids=["array", "record-not-object", "suites-not-list", "config-not-object"])
def test_report_reports_wrong_shaped_input_as_a_usage_error(runner, tmp_path, text, message):
    # the first two raised AttributeError and TypeError tracebacks (exit 1)
    first = tmp_path / "first.json"
    first.write_text(text)
    second = tmp_path / "second.json"
    out = runner.invoke(main, ["report", "--from", str(first), "--out", str(second)])
    assert out.exit_code == 2
    assert message in out.output and "Traceback" not in out.output and not second.exists()


def _writing_commands(tmp_path):
    """Each command that writes a file, as arguments before --out, with valid input otherwise."""
    report = tmp_path / "report.json"
    report.write_text(json.dumps({"suites": [
        {"suite": "lift", "trials": 1, "failures": 0, "worst_margin": 1.0, "seed": 0}]}))
    batch = tmp_path / "batch.jsonl"
    batch.write_text('{"x": [0, 0, 0], "y": [0, 0, 1]}\n')
    return {
        "verify": ["verify", "--suite", "group"],
        "report": ["report", "--from", str(report)],
        "dist": ["dist", "--batch", str(batch)],
        "curve gamma-y": ["curve", "gamma-y", "--y", "[1,0,1]"],
        "curve modify": ["curve", "modify", "--x", "[0,0,0]", "--u", "[0,0.5,0]", "--direction", "[1,0]",
                         "--r", "1e-6", "--delta", "1e-5", "--eta", "0.1"],
        "uds build": ["uds", "build", "--max-lines", "8", "--depth", "2"],
        "maximize": ["maximize"],
    }


@pytest.mark.parametrize("command", ["verify", "report", "dist", "curve gamma-y", "curve modify", "uds build", "maximize"])
def test_an_out_in_a_missing_directory_is_a_usage_error(runner, tmp_path, monkeypatch, command):
    # each ran its job and then raised FileNotFoundError (exit 1); now the
    # path is refused while the command line is parsed, before any work
    monkeypatch.setattr(suites, "run_suite", lambda *a, **k: pytest.fail("the battery ran"))
    dst = tmp_path / "missing" / "out.json"
    out = runner.invoke(main, [*_writing_commands(tmp_path)[command], "--out", str(dst)])
    assert out.exit_code == 2
    assert str(dst) in out.output and "does not exist" in out.output
    assert "Traceback" not in out.output and not dst.parent.exists()


def test_config_roundtrip(tmp_path):
    cfg = RunConfig(seed=123, trials=50, n_values=(1,))
    path = tmp_path / "config.json"
    cfg.save(str(path))
    again = RunConfig.load(str(path))
    assert again.to_json() == cfg.to_json()


def test_config_env_override(monkeypatch):
    monkeypatch.setenv("HCALC_SEED", "777")
    monkeypatch.setenv("HCALC_TRIALS", "42")
    cfg = RunConfig().with_env_overrides()
    assert cfg.seed == 777
    assert cfg.trials == 42


def test_config_env_rejects_unknown_variables(runner, monkeypatch, tmp_path):
    # HCALC_SEEDS (for HCALC_SEED) used to be ignored: verify ran at the default seed
    monkeypatch.setenv("HCALC_SEEDS", "7")
    with pytest.raises(ValueError, match=r"unknown config fields: \['HCALC_SEEDS'\]"):
        RunConfig().with_env_overrides()
    out = runner.invoke(main, ["verify", "--suite", "lift", "--out", str(tmp_path / "rep.json")])
    assert out.exit_code == 2
    assert "HCALC_SEEDS" in out.output
    assert not (tmp_path / "rep.json").exists()


RETIRED_FIELDS = ["uds_height", "uds_depth", "uds_max_lines", "uds_clip", "mc_samples",
                  "max_budget", "max_steps", "mu", "K"]


def test_config_fields_are_dimensions_seed_and_trials():
    assert [f.name for f in dataclasses.fields(RunConfig)] == ["schema_version", "n_values", "seed", "trials"]


@pytest.mark.parametrize("name", RETIRED_FIELDS)
def test_config_rejects_a_retired_field(runner, monkeypatch, tmp_path, name):
    # each held one value that no caller changed; the suites fix it where they use it
    monkeypatch.setenv("HCALC_" + name.upper(), "1")
    with pytest.raises(ValueError, match="unknown config fields"):
        RunConfig().with_env_overrides()
    monkeypatch.delenv("HCALC_" + name.upper())
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"schema_version": 1, name: 1}))
    with pytest.raises(ValueError, match="unknown config fields"):
        RunConfig.load(str(path))
    out = runner.invoke(main, ["verify", "--suite", "lift", "--config", str(path), "--out", str(tmp_path / "rep.json")])
    assert out.exit_code == 2 and name in out.output


def test_config_rejects_unknown_fields():
    # jobs and out_dir were fields once; nothing reads them now
    for name, value in (("bogus", 3), ("jobs", 2), ("out_dir", "out")):
        with pytest.raises(ValueError, match="unknown config fields"):
            RunConfig.from_json({"schema_version": 1, name: value})
    with pytest.raises(ValueError):
        RunConfig.from_json({"schema_version": 99})


def test_ledger_counts_entries_and_folds_the_smallest_margin():
    ledger = suites._Ledger()
    assert (ledger.failures, ledger.worst) == (0, math.inf)
    ledger.check(np.array([0.5, -1e-3, 2.0, -0.25]))  # arrays count each entry
    assert (ledger.failures, ledger.worst) == (2, -0.25)
    ledger.check(0.1)
    assert (ledger.failures, ledger.worst) == (2, -0.25)
    ledger.check(-0.5)
    assert (ledger.failures, ledger.worst) == (3, -0.5)
    # a NaN margin entry is one failure and does not move the worst margin
    ledger.check(math.nan)
    ledger.check(np.array([math.nan, -0.75]))
    assert (ledger.failures, ledger.worst) == (6, -0.75)
    ledger.margin(np.array([math.nan, math.nan]))
    assert (ledger.failures, ledger.worst) == (8, -0.75)
    ledger.margin(np.float64(math.nan))
    assert (ledger.failures, ledger.worst) == (9, -0.75)
    # count-only entries leave the worst margin alone
    ledger.count(True)
    ledger.count(3)
    ledger.count(np.count_nonzero(np.array([1.0, 5.0]) > 2.0))
    assert (ledger.failures, ledger.worst) == (14, -0.75)
    # margin-only entries fail nothing but NaN
    ledger.margin(-2.0)
    assert (ledger.failures, ledger.worst) == (14, -2.0)


def test_run_suite_times_the_suite_and_reads_its_ledger(monkeypatch):
    def suite(cfg, seed, ledger):
        ledger.check(np.array([1.0, -0.5]))
        ledger.count(True)
        return 7, {"seed_seen": seed}

    monkeypatch.setitem(suites.SUITES, "synthetic", suite)
    result = run_suite("synthetic", RunConfig(), seed=3)
    assert (result.trials, result.failures, result.worst_margin) == (7, 2, -0.5)
    assert result.details == {"seed_seen": result.seed}
    assert result.wall_time_s >= 0.0


def test_emit_report_aggregates_failures(tmp_path):
    good = run_suite("lift", RunConfig(trials=100))
    bad = SuiteResult("synthetic", 10, 3, -1.0, 0, 0.0)
    rep = emit_report([good, bad], str(tmp_path / "rep.json"))
    assert rep["aggregate_pass"] is False
    with pytest.raises(ValueError):
        emit_report([], str(tmp_path / "never.json"))


def test_emit_report_rereads_field_for_field(tmp_path):
    result = run_suite("lift", RunConfig(trials=100))
    path = tmp_path / "rep.json"
    rep = emit_report([result], str(path), config=RunConfig(trials=100))
    assert json.loads(path.read_text()) == rep


def test_maximize_cli(runner, tmp_path):
    cfg = tmp_path / "mx.json"
    cfg.write_text(json.dumps({"max_steps": 2, "budget": 32, "seed": 4}))
    traj = tmp_path / "traj.jsonl"
    out = runner.invoke(main, ["maximize", "--config", str(cfg), "--out", str(traj)])
    assert out.exit_code == 0, out.output
    rec = json.loads(out.output)
    assert rec["clean"] is True
    assert len(traj.read_text().splitlines()) == 4  # config line + 3 states


@pytest.mark.parametrize("config, message", [
    ({"budget": -5}, "budget must be at least 1"),
    ({"budget": 0}, "budget must be at least 1"),
    # a retired field: its trajectory failed nesting from m = 3 under a header
    # identical to the default run's
    ({"deriv_steps": [0.01, 0.005, 0.0025]}, "unknown config fields: ['deriv_steps']"),
    ({"budgte": 64}, "unknown config fields: ['budgte']"),
    ([1, 2], "a maximizer config is a JSON object, got [1, 2]"),
    ({"budget": 64.5}, "budget must be an integer, got 64.5"),
])
def test_maximize_reports_a_bad_config_as_a_usage_error(runner, tmp_path, config, message):
    # each exited 1, the code of a trajectory with violations, with a traceback
    cfg = tmp_path / "mx.json"
    cfg.write_text(json.dumps(config))
    traj = tmp_path / "traj.jsonl"
    out = runner.invoke(main, ["maximize", "--config", str(cfg), "--out", str(traj)])
    assert out.exit_code == 2
    assert message in out.output
    assert "Traceback" not in out.output and not traj.exists()
