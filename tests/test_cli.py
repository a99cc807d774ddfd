import json
import os
import subprocess
import sys

import pytest

PKG = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_cli(*args):
    return subprocess.run([sys.executable, "-m", "jetcalc.cli", *args],
                          capture_output=True, text=True, timeout=600)


def test_tensor_laws_exit_zero_and_row_count(tmp_path):
    out = tmp_path / "r.json"
    res = run_cli("verify", "tensor-laws", "--seed", "7",
                  "--out", str(out))
    assert res.returncode == 0, res.stderr
    rep = json.loads(out.read_text())
    assert rep["summary"]["failed"] == 0
    assert 550 <= rep["summary"]["total"] <= 900
    assert rep["tool"]["name"] == "jetcalc"


def test_package_runs_as_a_module(tmp_path):
    out = tmp_path / "r.json"
    res = subprocess.run([sys.executable, "-m", "jetcalc", "verify", "taylor",
                          "--seed", "7", "--out", str(out)],
                         capture_output=True, text=True, timeout=600)
    assert res.returncode == 0, res.stderr
    assert json.loads(out.read_text())["summary"]["failed"] == 0


def test_json_reports_are_deterministic(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for path in (a, b):
        res = run_cli("verify", "jets", "--seed", "11", "--out", str(path))
        assert res.returncode == 0, res.stderr
    assert a.read_bytes() == b.read_bytes()


def test_json_reload_and_reemit_identical(tmp_path):
    out = tmp_path / "r.json"
    run_cli("verify", "jets", "--seed", "3", "--out", str(out))
    from jetcalc.reporting import report_json
    rep = json.loads(out.read_text())
    assert report_json(rep) == out.read_text()


def test_csv_row_count_matches(tmp_path):
    j, c = tmp_path / "r.json", tmp_path / "r.csv"
    run_cli("verify", "jets", "--seed", "3", "--out", str(j))
    run_cli("verify", "jets", "--seed", "3", "--format", "csv",
            "--out", str(c))
    rep = json.loads(j.read_text())
    lines = c.read_text().strip().splitlines()
    assert len(lines) - 1 == rep["summary"]["total"]


def test_malformed_scenario_exits_two(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{ this is not json")
    res = run_cli("verify", "recursions", "--scenario", str(bad))
    assert res.returncode == 2
    assert "configuration error" in res.stderr


def test_invalid_scenario_fields_exit_two(tmp_path):
    bad = tmp_path / "bad2.json"
    bad.write_text(json.dumps({"name": "x", "n": 2, "k": 1,
                               "metric": [["1", "0"], ["0", "1"]],
                               "fibre_metric": [["1"]],
                               "base_points": [[0.0]]}))  # wrong dimension
    res = run_cli("verify", "recursions", "--scenario", str(bad))
    assert res.returncode == 2


def test_unknown_suite_exits_two():
    res = run_cli("verify", "nonsense")
    assert res.returncode == 2


def test_threshold_override_can_fail_a_run():
    res = run_cli("verify", "jets", "--threshold",
                  "jets/factorial-norm=-1.0")
    assert res.returncode == 1
    assert "FAILED" in res.stderr


def test_custom_flat_scenario_recursions(tmp_path):
    scn = {
        "name": "customflat", "n": 1, "k": 1,
        "metric": [["1"]], "fibre_metric": [["1"]],
        "connection": None,
        "base_points": [[0.1]], "fibre_points": [[0.8]],
        "seed": 5,
    }
    p = tmp_path / "flat.json"
    p.write_text(json.dumps(scn))
    out = tmp_path / "rep.json"
    res = run_cli("verify", "recursions", "--family", "P", "--max-order",
                  "3", "--scenario", str(p), "--out", str(out))
    assert res.returncode == 0, res.stderr
    rep = json.loads(out.read_text())
    assert all(r["passed"] for r in rep["rows"])
    # the flat threshold applies
    assert all(float(r["threshold"]) <= 1e-11 for r in rep["rows"])


def test_fit_growth_runs():
    res = run_cli("fit", "growth", "--family", "P", "--max-order", "3",
                  "--scenario", "conformal-base")
    assert res.returncode == 0
    data = json.loads(res.stdout)
    assert data["coverage"] == 1.0


def test_negative_max_order_exits_two(tmp_path):
    scn = {
        "name": "customflat", "n": 1, "k": 1,
        "metric": [["1"]], "fibre_metric": [["1"]],
        "connection": None,
        "base_points": [[0.1]], "fibre_points": [[0.8]],
        "seed": 5,
    }
    p = tmp_path / "flat.json"
    p.write_text(json.dumps(scn))
    res = run_cli("verify", "recursions", "--max-order", "-1",
                  "--scenario", str(p))
    assert res.returncode == 2
    assert "configuration error" in res.stderr
    assert "checks passed" not in res.stderr


def test_run_without_rows_exits_one(tmp_path, monkeypatch):
    from jetcalc import cli
    monkeypatch.setitem(cli.SUITES, "jets", lambda config: [])
    out = tmp_path / "r.json"
    assert cli.main(["verify", "jets", "--out", str(out)]) == 1
    assert json.loads(out.read_text())["summary"]["total"] == 0


def test_verify_out_serializes_the_report_once(tmp_path, monkeypatch):
    from jetcalc import cli, reporting
    calls = []
    report_json = reporting.report_json

    def counted(report):
        calls.append(1)
        return report_json(report)

    monkeypatch.setattr(reporting, "report_json", counted)
    monkeypatch.setattr(cli, "report_json", counted)
    out = tmp_path / "r.json"
    assert cli.main(["verify", "jets", "--seed", "3", "--out", str(out)]) == 0
    assert len(calls) == 1
    assert out.read_text() == report_json(json.loads(out.read_text()))


@pytest.mark.parametrize("args", [
    ["fit", "growth", "--family", "Q"],
    ["fit", "growth", "--max-order", "-1"],
    # a flag the fit would not read
    ["fit", "compare", "--family", "C"],
    ["fit", "growth", "--seed", "99"],
])
def test_fit_growth_bad_input_exits_two(args, monkeypatch, capsys):
    from jetcalc import cli

    def no_build(*_args, **_kwargs):
        raise AssertionError("a scenario was built for a bad configuration")

    monkeypatch.setattr(cli, "builtin_scenario", no_build)
    monkeypatch.setattr(cli, "load_scenario", no_build)
    assert cli.main(args) == 2
    out = capsys.readouterr()
    assert "configuration error" in out.err and out.out == ""


def _write_report(path, rows, fmt="json"):
    from jetcalc.reporting import build_report, emit_report
    from jetcalc.suites import CheckRow
    rows = [CheckRow(check_id=f"{tag}/{where}", tag=tag, inputs=inputs,
                     value=value, threshold=1e-8, passed=passed)
            for tag, where, inputs, value, passed in rows]
    emit_report(build_report("test", rows, {}, {}), fmt, path)


# one check id may cover several inputs; each is its own row
_ROWS = [("recursions/L-expansion", "p0/1", "", 1e-15, True),
         ("recursions/L-diagonal-norm", "p0/4", "", 64.0, True),
         ("taylor/fd-agreement", "flat/p0/1", "I=(1, 0)", 0.0, True),
         ("taylor/fd-agreement", "flat/p0/1", "I=(0, 1)", 1e-13, True)]


def test_report_diff_of_equal_rows_and_flags_exits_zero(tmp_path, capsys):
    from jetcalc import cli
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    _write_report(a, _ROWS)
    _write_report(b, [r[:3] + (r[3] * (1 + 1e-14), r[4]) for r in _ROWS])
    assert cli.main(["report", "diff", str(a), str(b)]) == 0
    diff = json.loads(capsys.readouterr().out)
    assert diff["common"] == 4
    assert diff["new_rows"] == diff["missing_rows"] == diff["flipped"] == []
    drift = diff["max_drift"]
    assert sorted(drift) == ["recursions", "taylor"]
    assert drift["recursions"]["row"] == "recursions/L-diagonal-norm/p0/4"
    assert float(drift["recursions"]["drift"]) == pytest.approx(1e-14,
                                                               rel=1e-3)
    assert drift["taylor"]["row"] == \
        "taylor/fd-agreement/flat/p0/1 (I=(0, 1))"


def test_report_diff_lists_rows_and_flipped_flags(tmp_path, capsys):
    from jetcalc import cli
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    _write_report(a, _ROWS)
    _write_report(b, [("recursions/L-expansion", "p0/1", "", 2e-8, False),
                      _ROWS[1], _ROWS[2],
                      ("taylor/fd-agreement", "flat/p0/1", "I=(2, 0)", 0.0,
                       True)])
    assert cli.main(["report", "diff", str(a), str(b)]) == 1
    diff = json.loads(capsys.readouterr().out)
    assert diff["new_rows"] == ["taylor/fd-agreement/flat/p0/1 (I=(2, 0))"]
    assert diff["missing_rows"] == [
        "taylor/fd-agreement/flat/p0/1 (I=(0, 1))"]
    assert diff["flipped"] == [{"row": "recursions/L-expansion/p0/1",
                                "a": True, "b": False}]


def test_report_diff_unreadable_input_exits_two(tmp_path):
    good, bad = tmp_path / "a.json", tmp_path / "bad.json"
    _write_report(good, _ROWS)
    bad.write_text("{ not json")
    nonreport = tmp_path / "list.json"
    nonreport.write_text("[1, 2]")
    twice = tmp_path / "twice.json"
    _write_report(twice, _ROWS + _ROWS[:1])
    csv_report = tmp_path / "report.csv"
    _write_report(csv_report, _ROWS, "csv")
    none = tmp_path / "none.json"
    # a row with a field of the wrong type: a value that is no number, a
    # pass flag that is no boolean, a tag that is no string
    malformed = []
    for name, key, bad_value in (("value", "value", "small"),
                                 ("passed", "passed", "yes"),
                                 ("tag", "tag", 5)):
        report = json.loads(good.read_text())
        report["rows"][0][key] = bad_value
        path = tmp_path / f"bad-{name}.json"
        path.write_text(json.dumps(report))
        malformed.append(([path, good], path, report["rows"][0]["check_id"]))
    # each case names the file that cannot be read, and the row if one is
    # at fault
    for args, culprit, row in [([good, bad], bad, ""), ([none, good], none, ""),
                               ([good, nonreport], nonreport, ""),
                               ([twice, good], twice, ""),
                               ([good, csv_report], csv_report, "")] \
            + malformed:
        res = run_cli("report", "diff", *map(str, args))
        assert res.returncode == 2, args
        assert "configuration error" in res.stderr
        assert str(culprit) in res.stderr, args
        assert row in res.stderr, args
        assert "Traceback" not in res.stderr


def _flat_scenario(tmp_path):
    p = tmp_path / "flat.json"
    p.write_text(json.dumps({
        "name": "customflat", "n": 1, "k": 1,
        "metric": [["1"]], "fibre_metric": [["1"]], "connection": None,
        "base_points": [[0.1]], "fibre_points": [[0.8]],
        "seed": 5}))
    return str(p)


@pytest.mark.parametrize("args", [
    # --scenario is read by recursions only
    ["jets", "--scenario", "FLAT"],
    ["all", "--scenario", "FLAT"],
    # --family and --max-order only with --scenario
    ["recursions", "--family", "P"],
    ["recursions", "--max-order", "2"],
    ["recursions", "--family", "P", "--max-order", "2"],
    ["recursions", "--scenario", "FLAT", "--family", "Q"],
    # a --threshold key must name a tag of the selected suites
    ["jets", "--threshold", "nosuch/tag=1"],
    ["jets", "--threshold", "recursions/P-expansion=1"],
    ["jets", "--threshold", "recursions=1"],
    # a threshold value must be a finite number
    ["tensor-laws", "--threshold", "tensor=nan"],
    ["tensor-laws", "--threshold", "tensor=inf"],
    ["jets", "--scenario", "FLAT", "--family", "Q", "--max-order", "9",
     "--threshold", "nosuch/tag=1"],
])
def test_flags_a_run_ignores_exit_two(args, tmp_path, monkeypatch, capsys):
    from jetcalc import cli

    def no_run(config):
        raise AssertionError("a suite ran for a bad configuration")

    for name in cli.SUITES:
        monkeypatch.setitem(cli.SUITES, name, no_run)
    flat = _flat_scenario(tmp_path)
    argv = ["verify"] + [flat if a == "FLAT" else a for a in args]
    assert cli.main(argv + ["--out", str(tmp_path / "r.json")]) == 2
    assert "configuration error" in capsys.readouterr().err
    assert not (tmp_path / "r.json").exists()


def test_threshold_key_may_be_a_tag_prefix(tmp_path, monkeypatch):
    from jetcalc import cli
    from jetcalc.suites import CheckRow
    monkeypatch.setitem(cli.SUITES, "jets", lambda config: [
        CheckRow.residual("jets/factorial-norm", "flat/p0/1", 0.5, 1.0)])
    out = tmp_path / "r.json"
    assert cli.main(["verify", "jets", "--out", str(out)]) == 0
    assert cli.main(["verify", "jets", "--threshold", "jets=0.1",
                     "--out", str(out)]) == 1
    assert json.loads(out.read_text())["rows"][0]["threshold"] == "0.1"


def test_scenario_recursions_read_families_and_max_order(tmp_path):
    from jetcalc.cli import SuiteConfig
    from jetcalc.scenarios import load_scenario
    from jetcalc.suites import suite_recursions
    config = SuiteConfig(max_order=1, families=("P", "V"),
                         scenarios=[load_scenario(_flat_scenario(tmp_path))])
    rows = suite_recursions(config)
    assert sorted({r.tag for r in rows}) == [
        "recursions/P-expansion", "recursions/P-inverse",
        "recursions/V-expansion", "recursions/V-inverse"]
    assert {r.check_id.split("/", 2)[2] for r in rows} == {
        "customflat/p0/0", "customflat/p0/1"}
    assert all(r.passed for r in rows)


def _scenario_file(tmp_path, **fields):
    data = {"name": "custom", "n": 2, "k": 1,
            "metric": [["1", "0"], ["0", "1"]], "fibre_metric": [["1"]],
            "connection": None, "base_points": [[0.0, 0.5]],
            "fibre_points": [[0.8]], "seed": 5}
    data.update(fields)
    p = tmp_path / "scn.json"
    p.write_text(json.dumps(data))
    return str(p)


@pytest.mark.parametrize("fields", [
    {"metric": [["1", "0"]]},                       # 1x2 metric, n = 2
    {"metric": [["(/ 1 x1)", "0"], ["0", "1"]]},    # singular at x1 = 0
    {"metric": [["1", "0"], ["0", "(+ 1 x3)"]]},    # no x3 on a 2-chart
    {"fibre_metric": [["1", "0"], ["0", "1"]]},     # k = 1
    {"connection": [[["0"], ["0"]], [["0"], ["0"]]]},   # not k x n x k
    {"fibre_metric": [["(sqrt x1)"]]},              # unknown operator
    {"n": "2"},                                     # mistyped field
    {"base_points": [[0.0, None]]},                 # not a number
    {"metric": [["(+)", "0"], ["0", "1"]]},         # n-ary with no argument
    {"metric": [["(-)", "0"], ["0", "1"]]},
    {"metric": [["(*)", "0"], ["0", "1"]]},
    {"metric": [["(/)", "0"], ["0", "1"]]},
    {"metric": [["(+ 1 x0)", "0"], ["0", "1"]]},    # variables start at x1
    {"colour": "red"},                              # unknown field
])
def test_malformed_scenario_data_exits_two(fields, tmp_path, capsys):
    from jetcalc import cli
    path = _scenario_file(tmp_path, **fields)
    out = tmp_path / "r.json"
    for argv in (["verify", "recursions", "--scenario", path,
                  "--out", str(out)],
                 ["fit", "growth", "--scenario", path, "--max-order", "1"]):
        assert cli.main(argv) == 2, argv
        assert "configuration error" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["verify", "recursions", "--scenario", "FILE"],
    ["fit", "compare", "--scenario", "FILE", "--max-order", "1"],
])
def test_negative_scenario_seed_exits_two_naming_it(argv, tmp_path, capsys):
    from jetcalc import cli
    path = _scenario_file(tmp_path, seed=-1, alt={
        "metric": [["1", "0"], ["0", "1"]], "fibre_metric": [["1"]]})
    assert cli.main([path if a == "FILE" else a for a in argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: seed"), err


def test_negative_power_in_a_scenario_fails_at_load(tmp_path, capsys):
    # (^ x2 -2) evaluates at x2 = 0.5, but no series can be formed for it
    from jetcalc import cli
    path = _scenario_file(tmp_path,
                          metric=[["1", "0"], ["0", "(^ x2 -2)"]])
    assert cli.main(["verify", "recursions", "--scenario", path]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: metric: '(^ x2 -2)'"), err
    assert "only nonnegative integer powers" in err


def test_crash_exits_three_with_one_line(monkeypatch, capsys):
    from jetcalc import cli

    def crash(config):
        raise IndexError("index 5 is out of bounds")

    monkeypatch.setitem(cli.SUITES, "jets", crash)
    assert cli.main(["verify", "jets"]) == 3
    err = capsys.readouterr().err
    assert err == "internal error: IndexError: index 5 is out of bounds\n"
    assert "checks passed" not in err


def test_scenario_degree_field_fails_at_load_exits_two(tmp_path, capsys):
    # a scenario holds no degree budget: every geometry takes its degree
    # from the run, and a file that still sets one fails when it loads
    from jetcalc import cli
    path = _scenario_file(tmp_path, degree=5)
    out = tmp_path / "r.json"
    for argv in (["verify", "recursions", "--scenario", path,
                  "--max-order", "3", "--out", str(out)],
                 ["fit", "growth", "--scenario", path, "--max-order", "1"]):
        assert cli.main(argv) == 2, argv
        err = capsys.readouterr().err
        assert "configuration error" in err and "checks passed" not in err
        assert f"{path}: " in err and "'degree'" in err
    assert not out.exists()
    path = _scenario_file(tmp_path)
    for order in ("0", "3"):
        assert cli.main(["verify", "recursions", "--scenario", path,
                         "--max-order", order, "--family", "P",
                         "--out", str(out)]) == 0


def test_fit_exits_two_when_the_geometry_cannot_be_built(tmp_path, capsys):
    from jetcalc import cli
    not_definite = _scenario_file(tmp_path, metric=[["1", "0"], ["0", "-1"]])
    for argv in (["fit", "growth", "--scenario", not_definite],
                 ["fit", "compare", "--scenario", "flat"]):   # no alt data
        assert cli.main(argv + ["--max-order", "1"]) == 2, argv
        out = capsys.readouterr()
        assert "configuration error" in out.err and out.out == ""


def test_fit_exits_two_on_a_fibre_metric_symmetric_in_one_triangle(
        tmp_path, capsys):
    from jetcalc import cli
    skew = [["1", "0.5"], ["0", "1"]]
    flat = [["1", "0"], ["0", "1"]]
    (tmp_path / "alt").mkdir()
    scn = _scenario_file(tmp_path, k=2, fibre_metric=skew,
                         fibre_points=[[0.8, 0.1]])
    alt = _scenario_file(tmp_path / "alt", k=2, fibre_metric=flat,
                         fibre_points=[[0.8, 0.1]],
                         alt={"metric": flat, "fibre_metric": skew})
    for argv in (["fit", "growth", "--scenario", scn],
                 ["fit", "compare", "--scenario", alt]):
        assert cli.main(argv + ["--max-order", "1"]) == 2, argv
        out = capsys.readouterr()
        assert out.err.startswith("configuration error: fib metric at the "
                                  "base point: ") and out.out == ""
        assert "internal error" not in out.err


def test_config_echo_lists_only_what_the_suites_read(tmp_path, monkeypatch):
    from jetcalc import cli
    from jetcalc.suites import CheckRow
    for name in cli.SUITES:
        monkeypatch.setitem(cli.SUITES, name, lambda config: [
            CheckRow.residual("jets/factorial-norm", "flat/p0/1", 0.0, 1.0)])
    out = tmp_path / "r.json"

    def echoed(*args):
        cli.main(["verify", *args, "--out", str(out)])
        return json.loads(out.read_text())["config"]

    assert echoed("jets") == {"ignored": ["seed"]}
    assert echoed("taylor", "--seed", "3") == {"ignored": ["seed"]}
    assert echoed("seminorms", "--seed", "3") == {"seed": 3}
    assert echoed("all") == {"seed": 7}
    assert echoed("recursions", "--scenario", _flat_scenario(tmp_path),
                  "--family", "P") == {
        "seed": 7, "max_order": 3, "families": ["P"],
        "scenarios": ["customflat"]}


@pytest.mark.parametrize("name", ["tensor-laws", "taylor", "geometry", "jets",
                                  "submersion", "seminorms", "recursions"])
def test_reads_names_the_fields_a_suite_reads(name, tmp_path):
    # the fields a suite reads are the keys of the config echo, and a
    # field it does not read is listed as ignored; the expensive built-in
    # suites (recursions without scenarios, connection-compare,
    # continuity) are left out
    from dataclasses import fields

    from jetcalc import cli
    from jetcalc.scenarios import load_scenario
    names = {f.name for f in fields(cli.SuiteConfig)}
    read = set()

    class Recording(cli.SuiteConfig):
        def __getattribute__(self, key):
            if key in names:
                read.add(key)
            return super().__getattribute__(key)

    config = Recording(max_order=1, families=("P",))
    if name == "recursions":
        config.scenarios = [load_scenario(_flat_scenario(tmp_path))]
    echo = config.echo([name])
    want = set(echo) - {"ignored"}
    read.clear()
    cli.SUITES[name](config)
    assert read == want
    assert set(echo.get("ignored", [])) == {"seed"} - read


@pytest.mark.parametrize("argv", [["verify", "jets"], ["verify", "all"],
                                  ["fit", "compare", "--max-order", "1"]])
def test_negative_seed_exits_two_naming_the_flag(argv, monkeypatch, capsys):
    from jetcalc import cli

    def no_run(config):
        raise AssertionError("a suite ran with a negative seed")

    for name in cli.SUITES:
        monkeypatch.setitem(cli.SUITES, name, no_run)
    assert cli.main(argv + ["--seed", "-1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: --seed")


def test_value_error_in_a_builtin_suite_exits_three(monkeypatch, capsys):
    # a built-in suite reads no user data, so its ValueError is a defect
    from jetcalc import cli

    def exhausted(config):
        raise ValueError("degree budget exhausted")

    monkeypatch.setitem(cli.SUITES, "submersion", exhausted)
    assert cli.main(["verify", "submersion"]) == 3
    err = capsys.readouterr().err
    assert err == "internal error: ValueError: degree budget exhausted\n"


def test_scenario_run_that_exhausts_its_degree_budget_exits_two(
        tmp_path, monkeypatch, capsys):
    from jetcalc import cli
    from jetcalc.scenarios import Scenario
    build = Scenario.total_at
    # the geometry is built to degree 2, below the run's order-3 rows
    monkeypatch.setattr(Scenario, "total_at",
                        lambda self, point=None, u=None, cap=None:
                        build(self, point, u, cap=2))
    out = tmp_path / "r.json"
    assert cli.main(["verify", "recursions", "--scenario",
                     _flat_scenario(tmp_path), "--family", "P",
                     "--max-order", "3", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == "configuration error: degree budget exhausted\n"
    assert not out.exists()
