"""Golden outputs: SHA-256 of `trace_to_csv` and of the `metrics` summary for
every shipped scenario in both modes, at the shipped `dt`, and for the
in-file wedge scenario that reaches both simultaneous-contact deferrals.

A refactor must leave these bits unchanged.  A change that alters them on
purpose updates the hashes here, and in `bench/run_bench.py`'s `WORKLOADS`
where it pins the same trace, and says why.
"""

import hashlib
import json
from pathlib import Path
from typing import get_args

import pytest

from bumpsim.hybrid import (
    SimMode,
    TraceRecord,
    metrics,
    simulate,
    trace_to_csv,
    write_plot_csv,
    write_trace_csv,
)
from bumpsim.scenario import load_scenario

ROOT = Path(__file__).resolve().parents[1]
SCENARIOS = ROOT / "scenarios"

# Robot 1 drives into the wedge between obstacles 3 and 4, which it touches
# at the same instant: the event defers one crossing and the contact sweep
# defers the other.  Obstacle 5 stays far away.
WEDGE = {
    "workspace": {"x_min": -50, "x_max": 50, "y_min": -50, "y_max": 50},
    "bodies": [
        {"id": 1, "kind": "robot", "radius": 1.0, "mass": 1.0, "x": 0.0, "y": 0.0, "theta": 0.0},
        {"id": 3, "kind": "obstacle", "radius": 0.5, "mass": "unbounded", "x": 3.0, "y": 1.2},
        {"id": 4, "kind": "obstacle", "radius": 0.5, "mass": "unbounded", "x": 3.0, "y": -1.2},
        {"id": 5, "kind": "obstacle", "radius": 1.0, "mass": "unbounded", "x": -40.0, "y": 0.0},
    ],
    "targets": {"1": {"x": 10.0, "y": 0.0, "theta": 0.0}},
    "params": {"rho": 9, "sigma1": 1.25, "sigma2": 0.6, "sigma3": 1.2, "mv": 5, "mw": 5},
    "sim": {"t_max": 4.0, "jump_cap": 200},
}

PREDEFINED = SimMode.PREDEFINED_ONLY
REDESIGNED = SimMode.REDESIGNED

# open_field never makes contact, so both modes write the same bytes.
GOLDEN = {
    ("crossing", PREDEFINED): (
        "ebd6b1937cf2dd0d4cd34dc932cd8fab8335668298430efae332784efd2aad50",
        "efdf5282d6bac0969fd8eaf29c8b75ae216771316af033de9ded377a2d23cbeb",
    ),
    ("crossing", REDESIGNED): (
        "7341f4ca42d9d5a58d63dc8cc98d9bb870e9cec6cde2d95146821150488a9763",
        "e9ff39fd5df2f1752643bb8328a26b49b9c103faf75ba29a1f0ebaa79c873629",
    ),
    ("example1", PREDEFINED): (
        "96d70185fd334d15fad7691a0cae15e2e7477f860ae3959ce491f6902c7f5900",
        "6472aacf51fc1ec988523548fd5f0a877da77f02b96f67fd413eb7e840af3885",
    ),
    ("example1", REDESIGNED): (
        "25df3692597a1729fd266aabe86bf19a6b0f6e2a6efdd90eb1434fe24ed3b745",
        "930da426ce88d16d392f6660940fd204567ab45b47a3b2a4d92e98beac29f9a2",
    ),
    ("open_field", PREDEFINED): (
        "cdf0773ee23946c244575e4d1b592d724fc200abf11c223b5edd53509918653b",
        "663c1415bfbe7cf822381c9456e8999a4b5deec5eea1d28643d4be1af6cf4617",
    ),
    ("open_field", REDESIGNED): (
        "cdf0773ee23946c244575e4d1b592d724fc200abf11c223b5edd53509918653b",
        "663c1415bfbe7cf822381c9456e8999a4b5deec5eea1d28643d4be1af6cf4617",
    ),
    # In redesigned mode the robot never leaves the wedge: the jump cap ends
    # the run with collisions alternating between obstacles 3 and 4.
    ("wedge", PREDEFINED): (
        "812f54fb0c75d905a49b62f4331561e3bfef45eccef2553314a203ffc67d7561",
        "ca1374be7a2257aef3278520ce90fae3615dcbb6f54164087126f9e35f84e4a0",
    ),
    ("wedge", REDESIGNED): (
        "4bc54d2aec43097056f55d5ac63870ff918747dd3b83d90c338200c4e8af8ad9",
        "77e0d90e78bee798cd9121c8ed14d898097e4597d88c64e64641c95fc8107f0e",
    ),
}


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.mark.parametrize(
    ("name", "mode"), list(GOLDEN), ids=[f"{n}-{m.value}" for n, m in GOLDEN]
)
def test_golden_trace_and_metrics(name, mode):
    if name == "wedge":
        scenario = load_scenario(json.dumps(WEDGE))
    else:
        scenario = load_scenario((SCENARIOS / f"{name}.json").read_text(encoding="utf-8"))
    trace = simulate(scenario, mode)
    trace_hash, metrics_hash = GOLDEN[(name, mode)]
    assert sha256(trace_to_csv(trace)) == trace_hash
    assert sha256(json.dumps(metrics(trace).to_dict(), sort_keys=True)) == metrics_hash


@pytest.fixture(scope="module")
def crossing_traces():
    scenario = load_scenario((SCENARIOS / "crossing.json").read_text(encoding="utf-8"))
    return {mode: simulate(scenario, mode) for mode in (PREDEFINED, REDESIGNED)}


def test_written_trace_csv_matches_trace_to_csv(tmp_path, crossing_traces):
    """The CLI's streamed `trace.csv` holds exactly the hashed bytes; the two
    crossing runs between them write every record type."""
    kinds = set()
    for mode, trace in crossing_traces.items():
        path = tmp_path / f"trace-{mode.value}.csv"
        write_trace_csv(trace, path)
        assert path.read_bytes() == trace_to_csv(trace).encode("utf-8")
        kinds.update(type(r) for r in trace.records)
    assert kinds == set(get_args(TraceRecord))


def test_plot_csv_is_the_sample_columns_of_trace_csv(tmp_path, crossing_traces):
    """Each `plot_robot<i>.csv` holds exactly the t,x,y,theta,v,w cells of
    robot i's sample rows in `trace.csv`."""
    for mode, trace in crossing_traces.items():
        rows = [line.split(",") for line in trace_to_csv(trace).splitlines()[1:]]
        for rid in trace.scenario.robot_ids():
            path = tmp_path / f"plot-{mode.value}-{rid}.csv"
            write_plot_csv(trace, rid, path)
            # trace.csv columns: t,record_type,robot_id,other_id,x,y,theta,v,w,q,extra
            lines = ["t,x,y,theta,v,w"] + [
                ",".join([r[0], *r[4:9]]) for r in rows if r[1] == "sample" and r[2] == str(rid)
            ]
            assert len(lines) > 1
            assert path.read_bytes() == ("\n".join(lines) + "\n").encode("utf-8")


def test_bench_workloads_pin_the_same_trace_hashes(monkeypatch):
    # The benchmark's metrics hashes cover the CLI's metrics.json, a
    # different serialization from the one above, so only traces compare.
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    import run_bench

    assert run_bench.WORKLOADS
    for wl in run_bench.WORKLOADS.values():
        key = (Path(wl.scenario).stem, SimMode(wl.mode))
        assert wl.trace_sha256 == GOLDEN[key][0], key
