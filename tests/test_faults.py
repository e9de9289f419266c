"""The one fault channel: every error of `hybrid.FAULTS` ends the run as one
fatal FaultRecord, and the CLI writes its files for that run as for any
other.

Each error is raised at its real site.  Where no valid scenario reaches
that site, a monkeypatched callee hands the site a corrupted input: two
centres closer than `COINCIDENT_EPS`, a collision position off the contact
circle, a target on the collision position, a robot that never regains
clearance, NaN controller terms, or no event localization.  The
coincident-centres fault names both centres and their distance."""

import json
import math
import re
from pathlib import Path

import pytest

from bumpsim import collision, controller, hybrid
from bumpsim.cli import main
from bumpsim.collision import PenetrationError
from bumpsim.controller import ControllerTerms, RegionError
from bumpsim.frames import CoincidentCentersError
from bumpsim.hybrid import FAULTS, CollisionRecord, FaultRecord, FlowSample, SimMode, metrics, simulate
from bumpsim.redesign import DegenerateTargetError, GeometryError, NonSeparableError
from bumpsim.scenario import load_scenario, validate_scenario

SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"

# Robot 1 drives straight down into obstacle 3 and first touches it at
# t = 0.852 s; far heavy clutter keeps its tracking branch active.  The
# horizon leaves room for a local phase of 0.2 s at its 10x extension cap.
RAMMING = {
    "workspace": {"x_min": -50, "x_max": 50, "y_min": -50, "y_max": 50},
    "bodies": [
        {"id": 1, "kind": "robot", "radius": 1.0, "mass": 1.0, "x": 0.0, "y": 8.0, "theta": -0.5 * math.pi},
        {"id": 3, "kind": "obstacle", "radius": 1.0, "mass": "unbounded", "x": 0.0, "y": 4.0},
        {"id": 4, "kind": "obstacle", "radius": 1.0, "mass": "unbounded", "x": 40.0, "y": 0.0},
        {"id": 5, "kind": "obstacle", "radius": 1.0, "mass": "unbounded", "x": -40.0, "y": 0.0},
    ],
    "targets": {"1": {"x": 0.0, "y": 0.0, "theta": -0.5 * math.pi}},
    "params": {"rho": 9, "sigma1": 1.25, "sigma2": 0.6, "sigma3": 1.2, "mv": 5, "mw": 5},
    "sim": {"t_max": 3.0, "jump_cap": 500},
}


def overflowing():
    """example1 with a speed bound and tracking gain of 1e200: it validates,
    the saturated input carries robot 1 about 6e196 m in one step, and the
    next instant's squared distance to the target, `(x - tx) ** 2` in
    `hybrid.simulate`, overflows."""
    doc = json.loads((SCENARIOS / "example1.json").read_text())
    doc["params"].update(mv=1e200, sigma2=1e200)
    return doc


def far_apart():
    """example1 stretched to the scenario magnitude bound: robot 1 at
    (1e150, 1e150, 1e150), obstacle 3 of radius 5e149 at (-1e150, -1e150),
    the target at (-1e150, 1e150) and a +-1e150 workspace.  It validates,
    and every controller term at t = 0 is finite, but the region tests'
    product `rho * e * c * a` overflows."""
    doc = json.loads((SCENARIOS / "example1.json").read_text())
    doc["workspace"] = {"x_min": -1e150, "x_max": 1e150, "y_min": -1e150, "y_max": 1e150}
    doc["bodies"][0].update(x=1e150, y=1e150, theta=1e150)
    doc["bodies"][1].update(x=-1e150, y=-1e150, radius=5e149)
    doc["targets"]["1"].update(x=-1e150, y=1e150)
    return doc


def vanishing_robot():
    """crossing with robot 2's radius at the smallest subnormal: it
    validates, and robot 1's escape phase off robot 2 gets the local
    duration 0.5 * 5e-324 / 5 == 0.0, which `LocalPhase` rejects."""
    doc = json.loads((SCENARIOS / "crossing.json").read_text())
    next(b for b in doc["bodies"] if b["id"] == 2)["radius"] = 5e-324
    return doc


def no_event_localization(monkeypatch):
    # the robot flows into the obstacle, and the sweep meets the overlap
    monkeypatch.setattr(hybrid, "detect_event", lambda *args: None)


def never_clear(monkeypatch):
    # the real rule, as if the robot still touched a body at every expiry:
    # it extends the phase until the cap
    real = hybrid.reactivation_due
    monkeypatch.setattr(hybrid, "reactivation_due", lambda phase, row_gaps: real(phase, [0.0]))


def off_circle(monkeypatch):
    real = hybrid.tangent_rays
    monkeypatch.setattr(hybrid, "tangent_rays", lambda p_j, p_ic, r: real(p_j, p_ic, 2.0 * r))


def target_on_contact(monkeypatch):
    real = hybrid.select_escape_heading
    monkeypatch.setattr(hybrid, "select_escape_heading", lambda rays, target: real(rays, rays.p_ic))


def nan_terms(monkeypatch):
    real = controller.controller_terms
    monkeypatch.setattr(controller, "controller_terms", lambda *args: ControllerTerms(*real(*args))._replace(a=math.nan))


def coincident_centres(monkeypatch):
    # the other centre a tenth of COINCIDENT_EPS beside the robot's
    real = collision.build_local_frame
    monkeypatch.setattr(collision, "build_local_frame", lambda p_i, p_j: real(p_i, (p_i[0] + 1e-13, p_i[1])))


BOTH = tuple(SimMode)
REDESIGNED = (SimMode.REDESIGNED,)

# error -> (scenario, corruption of its site's input, the modes that reach it)
CASES = {
    PenetrationError: (RAMMING, no_event_localization, BOTH),
    NonSeparableError: (RAMMING, never_clear, REDESIGNED),
    GeometryError: (RAMMING, off_circle, REDESIGNED),
    DegenerateTargetError: (RAMMING, target_on_contact, REDESIGNED),
    RegionError: (RAMMING, nan_terms, BOTH),
    CoincidentCentersError: (RAMMING, coincident_centres, BOTH),
    OverflowError: (overflowing(), None, BOTH),
    ValueError: (vanishing_robot(), None, REDESIGNED),
}
IDS = [error.__name__ for error in CASES]


def arrange(monkeypatch, error):
    doc, corrupt, modes = CASES[error]
    if corrupt is not None:
        corrupt(monkeypatch)
    return doc, modes


def test_every_fault_is_covered():
    assert set(CASES) == set(FAULTS)


@pytest.mark.parametrize("error", CASES, ids=IDS)
def test_simulate_ends_the_run_with_one_fatal_record(monkeypatch, error):
    doc, modes = arrange(monkeypatch, error)
    for mode in modes:
        records = simulate(load_scenario(json.dumps(doc)), mode).records
        fatal = [r for r in records if isinstance(r, FaultRecord) and r.fatal]
        assert fatal == [records[-1]], mode
        assert fatal[0].reason.startswith(f"{error.__name__}: "), fatal[0].reason


def run_cli(*args):
    return main([str(a) for a in args])


@pytest.mark.parametrize("no_trace", [False, True], ids=["trace", "no-trace"])
@pytest.mark.parametrize("error", CASES, ids=IDS)
def test_run_writes_every_file_on_a_fault(monkeypatch, tmp_path, capsys, error, no_trace):
    doc, _ = arrange(monkeypatch, error)
    path, out = tmp_path / "scenario.json", tmp_path / "out"
    path.write_text(json.dumps(doc))
    flags = ["--no-trace"] if no_trace else []
    assert run_cli("run", "--scenario", path, "--mode", "redesigned", "--out", out, *flags) == 3
    assert f"simulation fault: {error.__name__}: " in capsys.readouterr().err

    summary = json.loads((out / "metrics.json").read_text())
    assert summary["fault"] is True
    assert summary["fault_reasons"][-1].startswith(f"{error.__name__}: ")
    assert (out / "plot_robot1.csv").read_text().startswith("t,x,y,theta,v,w\n")
    if no_trace:
        assert not (out / "trace.csv").exists()
    else:
        last = (out / "trace.csv").read_text().splitlines()[-1]
        assert re.fullmatch(rf"[^,]+,fault,,,,,,,,,{error.__name__}: .*;fatal=1", last), last


def keys(payload):
    """The nested keys of a JSON payload, without its values."""
    return {k: keys(v) for k, v in payload.items()} if isinstance(payload, dict) else None


@pytest.fixture(scope="module")
def clean_compare(tmp_path_factory):
    """compare.json of a fault-free comparison with one robot (RAMMING) and
    with two (crossing), keyed by robot count: each run stops short of contact."""
    crossing = json.loads((SCENARIOS / "crossing.json").read_text())
    payloads = {}
    for doc in (RAMMING, crossing):
        path = tmp_path_factory.mktemp("clean") / "scenario.json"
        path.write_text(json.dumps({**doc, "sim": {"t_max": 0.5}}))
        run_cli("compare", "--scenario", path, "--out", path.parent)
        payload = json.loads((path.parent / "compare.json").read_text())
        assert not payload["predefined"]["fault"] and not payload["redesigned"]["fault"]
        payloads[len(doc["targets"])] = payload
    return payloads


@pytest.mark.parametrize("error", CASES, ids=IDS)
def test_compare_writes_one_shape_on_a_fault(monkeypatch, tmp_path, clean_compare, error):
    doc, modes = arrange(monkeypatch, error)
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    assert run_cli("compare", "--scenario", path, "--out", tmp_path) == 3
    payload = json.loads((tmp_path / "compare.json").read_text())
    assert keys(payload) == keys(clean_compare[len(doc["targets"])])
    for mode in modes:
        assert payload[mode.value]["fault"] is True
        assert payload[mode.value]["completed"] is False
        assert payload[mode.value]["fault_reasons"][-1].startswith(f"{error.__name__}: ")
    assert payload["deltas"]["completed"]["redesigned"] is False


def test_overflowing_scenario_runs_to_a_fault_and_writes_its_outputs(tmp_path):
    doc = overflowing()
    scenario = load_scenario(json.dumps(doc))
    assert validate_scenario(scenario) == []
    trace = simulate(scenario)
    *samples, fault = trace.records
    assert {type(r) for r in samples} == {FlowSample}
    assert abs(samples[-1].v) > 1e199 and fault.t > samples[-1].t
    assert fault.reason == "OverflowError: (34, 'Numerical result out of range')"

    path, run_out, cmp_out = tmp_path / "far.json", tmp_path / "run", tmp_path / "cmp"
    path.write_text(json.dumps(doc))
    assert run_cli("run", "--scenario", path, "--out", run_out) == 3
    assert sorted(p.name for p in run_out.iterdir()) == ["metrics.json", "plot_robot1.csv", "trace.csv"]
    assert run_cli("compare", "--scenario", path, "--out", cmp_out) == 3
    payload = json.loads((cmp_out / "compare.json").read_text())
    assert payload["deltas"] == {"collisions": {"1": 0}, "completed": {"predefined": False, "redesigned": False}}


def test_coordinates_whose_squares_overflow_are_rejected_by_field(tmp_path, capsys):
    # example1 with robot 1 at x = 1e160 in a +-1e200 workspace once ran
    # into an OverflowError at t = 0; validation now names each field
    doc = json.loads((SCENARIOS / "example1.json").read_text())
    doc["workspace"] = {"x_min": -1e200, "x_max": 1e200, "y_min": -1e200, "y_max": 1e200}
    doc["bodies"][0]["x"] = 1e160
    path = tmp_path / "far.json"
    path.write_text(json.dumps(doc))
    assert run_cli("run", "--scenario", path, "--out", tmp_path / "out") == 2
    err = capsys.readouterr().err
    assert "invalid scenario: bodies[0].x: magnitude must be at most 1e+150, got 1e+160\n" in err
    assert "invalid scenario: workspace.x_max: magnitude must be at most 1e+150, got 1e+200\n" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("mode", list(SimMode), ids=lambda mode: mode.value)
def test_a_controller_overflow_is_named_as_one(mode):
    scenario = load_scenario(json.dumps(far_apart()))
    assert validate_scenario(scenario) == []
    trace = simulate(scenario, mode)
    *samples, fault = trace.records
    assert samples == [] and (fault.t, fault.fatal) == (0.0, True)
    assert fault.reason.startswith("OverflowError: rho * e * c * a overflows to inf in the region tests of terms ")
    states = {1: scenario.body(1).state()}
    terms = controller.controller_terms(
        1, states, scenario.targets[1], hybrid.contact_pairs(scenario.bodies), scenario.params
    )
    assert all(map(math.isfinite, terms)) and str(ControllerTerms(*terms)) in fault.reason


@pytest.mark.parametrize("mode", list(SimMode), ids=lambda mode: mode.value)
def test_coincident_centres_are_named_with_their_distance(monkeypatch, mode):
    coincident_centres(monkeypatch)
    fault = simulate(load_scenario(json.dumps(RAMMING)), mode).records[-1]
    number = r"([-+0-9.e]+)"
    named = re.fullmatch(
        rf"CoincidentCentersError: cannot build a pair frame for coincident centers "
        rf"\({number}, {number}\) and \({number}, {number}\) \(distance {number} m\)",
        fault.reason,
    )
    assert named, fault.reason
    xi, yi, xj, yj, distance = map(float, named.groups())
    assert (xi, yi) != (xj, yj)
    assert f"{math.dist((xi, yi), (xj, yj)):.3e}" == f"{distance:.3e}" == "1.000e-13"


def test_a_fault_inside_a_jump_keeps_the_contact_it_was_resolving():
    # robot 1's escape phase off robot 2 fails to build after the contact
    # is resolved: both robots' collision rows stay, just before the fault
    trace = simulate(load_scenario(json.dumps(vanishing_robot())), SimMode.REDESIGNED)
    *_, contact_1, contact_2, fault = trace.records
    assert isinstance(contact_1, CollisionRecord) and isinstance(contact_2, CollisionRecord)
    assert (contact_1.t, contact_1.robot_id, contact_1.other_id, contact_1.q) == (fault.t, 1, 2, 1)
    assert (contact_2.t, contact_2.robot_id, contact_2.other_id) == (fault.t, 2, 1)
    assert contact_2.phi == contact_1.phi
    assert fault.reason == "ValueError: local duration must be positive, got 0.0"
    summary = metrics(trace)
    assert (summary.robots[1].collisions, summary.robots[2].collisions) == (1, 1)
    assert summary.total_jumps == 2


def test_an_instant_that_faults_before_its_samples_counts_towards_the_clearance(monkeypatch):
    # Robot 1 closes on obstacle 3.  The controller faults at an instant
    # whose step floor settles every row, so that it measures no gap and
    # writes no sample, yet its gap is the run's smallest: a fold over the
    # samples alone would miss it.
    measured, calls, faulted = 0, 0, {}
    real_hypot, real_control = math.hypot, hybrid.predefined_control

    def counting_hypot(dx, dy):
        nonlocal measured
        measured += 1
        return real_hypot(dx, dy)

    def control(robot_id, states, *args):
        nonlocal measured, calls
        calls += 1
        if calls > 300 and not measured:
            # no gap measured since the last instant's control
            faulted.update(states)
            raise RegionError("injected")
        measured = 0
        return real_control(robot_id, states, *args)

    monkeypatch.setattr(math, "hypot", counting_hypot)
    monkeypatch.setattr(hybrid, "predefined_control", control)
    scenario = load_scenario(json.dumps(RAMMING))
    trace = simulate(scenario, SimMode.REDESIGNED)
    assert trace.log[-1] == FaultRecord(t=trace.log[-1].t, reason="RegionError: injected", fatal=True)
    assert calls == 301 and trace.collisions() == []

    pairs = hybrid.contact_pairs(scenario.bodies)
    at_fault = min(hybrid.gap(pair, faulted) for pair in pairs)
    sampled = min(
        hybrid.gap(pair, {1: (s.x, s.y, s.theta)}) for s in trace.records if type(s) is FlowSample for pair in pairs
    )
    assert 0.0 < at_fault < sampled
    assert metrics(trace).robots[1].min_clearance == at_fault

