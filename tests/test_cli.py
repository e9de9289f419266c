import json
from pathlib import Path

import pytest

from bumpsim.cli import main

SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"


def run_cli(*args):
    return main([str(a) for a in args])


def test_run_crossing_redesigned(tmp_path):
    out = tmp_path / "out"
    code = run_cli("run", "--scenario", SCENARIOS / "crossing.json", "--mode", "redesigned", "--out", out)
    assert code == 0
    assert (out / "trace.csv").exists()
    assert (out / "metrics.json").exists()
    assert (out / "plot_robot1.csv").exists()
    assert (out / "plot_robot2.csv").exists()

    summary = json.loads((out / "metrics.json").read_text())
    assert summary["robots"]["1"]["reached"] and summary["robots"]["2"]["reached"]
    assert not summary["fault"]

    # metrics collision counts match the trace rows
    rows = (out / "trace.csv").read_text().strip().split("\n")[1:]
    collision_rows = [r for r in rows if r.split(",")[1] == "collision"]
    per_robot = {"1": 0, "2": 0}
    for r in collision_rows:
        per_robot[r.split(",")[2]] += 1
    assert per_robot["1"] == summary["robots"]["1"]["collisions"]
    assert per_robot["2"] == summary["robots"]["2"]["collisions"]


def test_run_exit_codes_validation(tmp_path):
    bad = tmp_path / "bad.json"
    doc = json.loads((SCENARIOS / "open_field.json").read_text())
    doc["bodies"][1]["x"] = doc["bodies"][0]["x"]  # overlap the robots
    doc["bodies"][1]["y"] = doc["bodies"][0]["y"]
    bad.write_text(json.dumps(doc))
    assert run_cli("run", "--scenario", bad, "--out", tmp_path / "o") == 2


def test_run_reports_every_rule_the_scenario_breaks(tmp_path, capsys):
    doc = json.loads((SCENARIOS / "open_field.json").read_text())
    doc["bodies"][1]["radius"] = -1
    bad, out = tmp_path / "bad.json", tmp_path / "out"
    bad.write_text(json.dumps(doc))
    assert run_cli("run", "--scenario", bad, "--out", out) == 2
    assert not out.exists()
    assert "bodies[1].radius: value must be > 0" in capsys.readouterr().err

    doc["sim"]["dt"] = 0
    bad.write_text(json.dumps(doc))
    assert run_cli("run", "--scenario", bad, "--out", out) == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert "bodies[1].radius: value must be > 0, got -1.0" in err
    assert "sim.dt: value must be > 0, got 0.0" in err


def test_run_missing_file(tmp_path):
    assert run_cli("run", "--scenario", tmp_path / "nope.json", "--out", tmp_path / "o") == 2


def test_run_chattering_baseline_faults_with_metrics(tmp_path):
    out = tmp_path / "out"
    code = run_cli("run", "--scenario", SCENARIOS / "crossing.json", "--mode", "predefined", "--out", out)
    assert code == 3
    summary = json.loads((out / "metrics.json").read_text())
    assert summary["fault"]
    assert summary["robots"]["1"]["collisions"] + summary["robots"]["2"]["collisions"] >= 100


def test_run_no_trace_flag(tmp_path):
    out = tmp_path / "out"
    code = run_cli(
        "run", "--scenario", SCENARIOS / "open_field.json", "--mode", "redesigned",
        "--out", out, "--no-trace",
    )
    assert code == 0
    assert not (out / "trace.csv").exists()
    assert (out / "metrics.json").exists()


def test_compare_crossing(tmp_path):
    out = tmp_path / "cmp"
    code = run_cli("compare", "--scenario", SCENARIOS / "crossing.json", "--out", out)
    assert code == 0
    payload = json.loads((out / "compare.json").read_text())
    assert payload["redesigned"]["completed"]
    assert not payload["predefined"]["completed"]
    assert payload["deltas"]["completed"] == {"predefined": False, "redesigned": True}


def test_compare_open_field_modes_coincide(tmp_path):
    out = tmp_path / "cmp"
    code = run_cli("compare", "--scenario", SCENARIOS / "open_field.json", "--out", out)
    assert code == 0
    payload = json.loads((out / "compare.json").read_text())
    for mode in ("predefined", "redesigned"):
        assert payload[mode]["completed"]
        for rid in ("1", "2"):
            assert payload[mode]["robots"][rid]["collisions"] == 0
    for rid in ("1", "2"):
        t_pre = payload["predefined"]["robots"][rid]["completion_time"]
        t_re = payload["redesigned"]["robots"][rid]["completion_time"]
        assert abs(t_pre - t_re) <= 1e-9


def test_compare_missing_file(tmp_path):
    assert run_cli("compare", "--scenario", tmp_path / "nope.json", "--out", tmp_path / "o") == 2


def test_run_byte_identical_traces(tmp_path):
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    for out in (out1, out2):
        code = run_cli("run", "--scenario", SCENARIOS / "open_field.json", "--out", out)
        assert code == 0
    assert (out1 / "trace.csv").read_bytes() == (out2 / "trace.csv").read_bytes()


def test_dt_override_changes_sampling(tmp_path):
    out = tmp_path / "out"
    code = run_cli(
        "run", "--scenario", SCENARIOS / "open_field.json", "--dt", "0.01",
        "--t-max", "1.0", "--out", out,
    )
    assert code == 0
    rows = (out / "plot_robot1.csv").read_text().strip().split("\n")
    assert len(rows) == 1 + 101  # header + samples at 0.01 steps over 1 s


@pytest.mark.parametrize("option", ["--dt", "--t-max"])
@pytest.mark.parametrize("value", ["nan", "inf", "0"])
def test_run_rejects_non_positive_or_non_finite_overrides(tmp_path, option, value):
    out = tmp_path / "out"
    code = run_cli("run", "--scenario", SCENARIOS / "open_field.json", option, value, "--out", out)
    assert code == 2
    assert not out.exists()
