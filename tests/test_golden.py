"""Golden outputs: SHA-256 of `trace_to_csv`, of the `metrics` summary and
of the CLI's `plot_robot<i>.csv` files for every shipped scenario in both
modes, at the shipped `dt`, and for the wedge scenario (`conftest.py`),
whose contact sweep defers a crossing tied with the event's.  Each golden
run's minimum clearances are also checked against a fold over its samples,
and its passes against the one-deferral rule (`conftest.audit_passes`).

A refactor must leave these bits unchanged.  A change that alters them on
purpose updates the hashes here, and in `bench/run_bench.py`'s `WORKLOADS`
where it pins the same trace, and says why.
"""

import gc
import hashlib
import json
import sys
from array import array
from pathlib import Path
from typing import get_args

import pytest

from bumpsim import cli
from bumpsim.hybrid import (
    CSV_HEADER,
    SAMPLE_WIDTH,
    CollisionRecord,
    FaultRecord,
    FlowSample,
    SimMode,
    TraceRecord,
    _csv_line,
    contact_pairs,
    gap,
    metrics,
    simulate,
    trace_lines,
    trace_to_csv,
    write_plot_csv,
    write_trace_csv,
)
from bumpsim.scenario import load_scenario
from conftest import GOLDEN_CASES, WEDGE, audit_passes

ROOT = Path(__file__).resolve().parents[1]
SCENARIOS = ROOT / "scenarios"

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
        "23b4a967561ca428349985e0b105ae221dcdda56036a6218a8931bb224903f40",
        "392391d5093b234c5c8465a7c18f12716cb87bf04a084289515f64ad46855e50",
    ),
    ("wedge", REDESIGNED): (
        "75a693f00aeaa8a721247cf5f8193823d462cecb6d7c026b99f8f0cde3875279",
        "74a9bd29babf25cb43778dac4f5a17f1082c843ebfbc4a8abfe3cb32e9f116d4",
    ),
}

# SHA-256 of each robot's plot_robot<i>.csv as `bumpsim run` writes it.
PLOT_GOLDEN = {
    ("crossing", PREDEFINED): {
        1: "368e63861ed4b04a9955ce164002da30fa4e1359e78d9d5f67f70c4598727491",
        2: "0bb844a52b4c258a5c4cfc56c93fc300de3e003d0d62f23434ddc10c5165335c",
    },
    ("crossing", REDESIGNED): {
        1: "47e42469d97de6b743d1472f65122c8ceb21ce06c9c62e3872de062daac1ea00",
        2: "f00abb83dc0a7b3ca06507a7db1cfdf1e9ef6dabefc85a4607cbfb3078146b14",
    },
    ("example1", PREDEFINED): {
        1: "818eab1da05d6ecb9d93859b47d01ce6cb414f3a5da77cacce5bee0c3297b09d",
    },
    ("example1", REDESIGNED): {
        1: "8f2bb425ec3a35cca74dcab1d86ad7188eac89c4e4e68fb76ded3a4011c24dd7",
    },
    ("open_field", PREDEFINED): {
        1: "4c61fb4031659cdfb6c6af6b3725cf96b13822d9ec668431049a3cf107b59447",
        2: "b165ef0aa1eec4bf544343fa524ed8fad991a8b82e637523a0ced61a1cd85a1e",
    },
    ("open_field", REDESIGNED): {
        1: "4c61fb4031659cdfb6c6af6b3725cf96b13822d9ec668431049a3cf107b59447",
        2: "b165ef0aa1eec4bf544343fa524ed8fad991a8b82e637523a0ced61a1cd85a1e",
    },
    ("wedge", PREDEFINED): {
        1: "200f3cc70eff2fdc58e587b03d59f90b0c06284f811e45ccebddb32210a3260b",
    },
    ("wedge", REDESIGNED): {
        1: "825820057e9723a5d88a9fb9dc81dedb59068bc2cd0fdb1740d5fcd94e70be7a",
    },
}


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def test_golden_trace_and_metrics(golden_run):
    key, trace = golden_run
    trace_hash, metrics_hash = GOLDEN[key]
    assert sha256(trace_to_csv(trace)) == trace_hash
    assert sha256(json.dumps(metrics(trace).to_dict(), sort_keys=True)) == metrics_hash


def test_cli_plot_files_with_and_without_trace_csv(golden_run, tmp_path, monkeypatch):
    """`bumpsim run` writes the pinned plot files both ways: projected from
    the trace.csv it wrote, and, under `--no-trace`, from `trace_lines`.
    The CLI gets the golden run's trace, so only its writers run again."""
    (name, mode), trace = golden_run

    def golden_simulate(scenario, sim_mode):
        assert (scenario, sim_mode) == (trace.scenario, mode)
        return trace

    monkeypatch.setattr(cli, "simulate", golden_simulate)
    doc = tmp_path / "scenario.json"
    if name == "wedge":
        doc.write_text(json.dumps(WEDGE), encoding="utf-8")
    else:
        doc = SCENARIOS / f"{name}.json"
    for flags in ((), ("--no-trace",)):
        out = tmp_path / ("plots" + "".join(flags))
        cli.main(["run", "--scenario", str(doc), "--mode", mode.value, "--out", str(out), *flags])
        assert (out / "trace.csv").exists() == (not flags)
        hashes = {
            int(path.stem.removeprefix("plot_robot")): hashlib.sha256(path.read_bytes()).hexdigest()
            for path in out.glob("plot_robot*.csv")
        }
        assert hashes == PLOT_GOLDEN[name, mode]


def sample_fold_clearance(trace):
    """Each robot's smallest row gap over the trace's sampling passes, from
    the samples alone: a pass writes one FlowSample per robot in id order,
    and when the last robot's sample lands every pair-table row's gap is
    measured at the pass's poses (`gap` reads (x, y, theta), not a sample)."""
    robot_ids = sorted(trace.scenario.robot_ids())
    pairs = contact_pairs(trace.scenario.bodies)
    least = {rid: None for rid in robot_ids}
    sample_pass = {}
    for record in trace.records:
        if not isinstance(record, FlowSample):
            continue
        sample_pass[record.robot_id] = (record.x, record.y, record.theta)
        if record.robot_id != robot_ids[-1]:
            continue
        for pair in pairs:
            g = gap(pair, sample_pass)
            for rid in (pair.i,) if pair.fixed is not None else (pair.i, pair.j):
                if least[rid] is None or g < least[rid]:
                    least[rid] = g
    return least


def collision(t, robot_id, other_id):
    return CollisionRecord(t, robot_id, other_id, 0.0, 0.0, 0.0, 1.0, 0, 0.0, 1.0, 0.0, 1.0, 0.0)


def deferral(t, i, j):
    return FaultRecord(t, f"simultaneous contacts at one instant; pair ({i}, {j}) deferred", False)


def test_audit_flags_each_rule():
    sample = FlowSample(0.0, 1, 0.0, 0.0, 0.0, 1.0, 0.0, 0)
    # a robot-robot contact writes two records and counts once; a deferral
    # after the jump, and a fresh pass, are in order
    kept = [collision(0.0, 1, 2), collision(0.0, 2, 1), deferral(0.0, 1, 3), sample, collision(0.0, 1, 3)]
    assert audit_passes(kept) == []
    assert audit_passes([collision(0.0, 1, 3), collision(0.0, 1, 4)]) == [
        "t=0.0: robot 1 collides twice"
    ]
    assert audit_passes([collision(0.0, 1, 3), deferral(0.0, 1, 4), deferral(0.0, 4, 1)]) == [
        "t=0.0: pair (1, 4) settled twice"
    ]
    # the parent's event path: a tie deferred before the hit is jumped, and
    # the sweep settles it again
    assert audit_passes([deferral(0.5, 1, 4), collision(0.5, 1, 3), deferral(0.5, 1, 4)]) == [
        "t=0.5: pair (1, 4) deferred before either robot collided",
        "t=0.5: pair (1, 4) settled twice",
    ]
    assert audit_passes([collision(0.0, 1, 2), collision(0.0, 2, 1)] * 2) == [
        "t=0.0: robot 1 collides twice",
        "t=0.0: pair (1, 2) settled twice",
        "t=0.0: robot 2 collides twice",
    ]


def test_each_pass_keeps_the_deferral_rule(golden_run):
    _, trace = golden_run
    assert audit_passes(trace.records) == []


def test_min_clearance_is_the_sample_fold(golden_run):
    _, trace = golden_run
    m = metrics(trace)
    assert {rid: r.min_clearance for rid, r in m.robots.items()} == sample_fold_clearance(trace)


def test_trace_keeps_its_samples_as_columns(golden_run):
    """The run stores each robot sample as seven packed doubles and one log
    slot per sampling pass: seven doubles with the array's 1/16 growth
    slack take 60 B, and a log slot with the list's 1/8 slack 9 B.  On the
    two-robot runs whose log is nearly all pass markers that is at most
    64 B per robot sample, against about 250 B for a FlowSample."""
    _, trace = golden_run
    samples, log = trace.samples, trace.log
    assert type(samples) is array and samples.typecode == "d"
    robot_samples, rest = divmod(len(samples), SAMPLE_WIDTH)
    assert rest == 0 and robot_samples == log.count(None) * len(trace.scenario.robot_ids())
    assert not any(type(r) is FlowSample for r in log)
    assert sys.getsizeof(samples) + sys.getsizeof(log) <= 60 * robot_samples + 9 * len(log)


def test_a_run_builds_no_flow_sample():
    """With the collector off, every tuple built during the run stays
    tracked, so a FlowSample made anywhere in it would be listed."""
    scenario = load_scenario((SCENARIOS / "crossing.json").read_text(encoding="utf-8"))
    before = {id(o) for o in gc.get_objects() if type(o) is FlowSample}
    gc.disable()
    try:
        trace = simulate(scenario, REDESIGNED)
        made = [o for o in gc.get_objects() if type(o) is FlowSample and id(o) not in before]
    finally:
        gc.enable()
    assert made == []
    robot_samples = len(trace.samples) // SAMPLE_WIDTH
    assert robot_samples == 39424
    assert sys.getsizeof(trace.samples) + sys.getsizeof(trace.log) <= 64 * robot_samples


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
        # the records rebuilt from the log and the sample columns write the
        # same rows as the columns themselves
        records = trace.records
        assert CSV_HEADER + "\n" + "".join(map(_csv_line, records)) == trace_to_csv(trace)
        kinds.update(type(r) for r in records)
    assert kinds == set(get_args(TraceRecord))


def test_plot_csv_is_the_sample_columns_of_trace_csv(tmp_path, crossing_traces):
    """Each `plot_robot<i>.csv` holds exactly the t,x,y,theta,v,w cells of
    robot i's sample rows in `trace.csv`, copied from its lines."""
    for mode, trace in crossing_traces.items():
        rows = [line.split(",") for line in trace_to_csv(trace).splitlines()[1:]]
        paths = {rid: tmp_path / f"plot-{mode.value}-{rid}.csv" for rid in trace.scenario.robot_ids()}
        write_plot_csv(trace_lines(trace), paths)
        for rid, path in paths.items():
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


def test_every_golden_case_is_run():
    assert set(GOLDEN) == set(GOLDEN_CASES) == set(PLOT_GOLDEN)
