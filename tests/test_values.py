"""Every value type of the engine is an immutable NamedTuple; the one
mutable state, a robot's `LocalPhase`, is a plain slotted class
(`tests/test_hygiene.py` finds every such class).  Inside a run, poses,
inputs and controller terms are exact tuples in those types' field order.

Each value type here is checked for what a value must give: assigning a
field raises AttributeError, and it hashes like the tuple of its fields,
except `Scenario`, `Trace` and `TraceMetrics`, which hold a dict or a list
and so do not hash.  The values made on every contact, and each controller
decision, are built positionally by `scenario._new`, which skips the
field-count check, so the arity of every record of the golden runs, of
every flow step and controller decision, and of every value of the contact
path on the collision-heavy runs is pinned here too, with each field's
declared type.
Each trace record's fields follow its trace.csv row, which one `%` with
the type's `ROW` template writes.  `LocalPhase` checks its speed and
duration as it is built.
"""

import math
import random
import typing
from array import array
from pathlib import Path

import pytest

from bumpsim import collision, hybrid
from bumpsim.collision import CollisionOutcome, ContactQuery, LocalFrame, build_local_frame, resolve_collision
from bumpsim.controller import ControlDecision, ControllerTerms, Input, Pose, Region, predefined_control
from bumpsim.hybrid import (
    CSV_HEADER,
    CollisionRecord,
    EventHit,
    FaultRecord,
    FlowSample,
    ImpulseRecord,
    SimMode,
    SwitchRecord,
    TargetReachedRecord,
    Trace,
    TraceMetrics,
    _csv_line,
    contact_pairs,
    contact_query,
    metrics,
    simulate,
    step_flow,
)
from bumpsim.redesign import LocalPhase, tangent_rays
from bumpsim.scenario import ControlInput, RobotState, Scenario, load_scenario
from conftest import golden_scenario

ROOT = Path(__file__).resolve().parents[1]
CROSSING = load_scenario((ROOT / "scenarios" / "crossing.json").read_text(encoding="utf-8"))

TERMS = ControllerTerms(1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0)
# robots 1 and 2 of crossing touching head-on, each at speed 1
HEAD_ON = contact_query(
    contact_pairs(CROSSING)[0],
    {1: RobotState(0.0, 0.0, 0.0), 2: RobotState(2.0, 0.0, math.pi)},
    {1: ControlInput(1.0, 0.0), 2: ControlInput(1.0, 0.0)},
    {b.id: b for b in CROSSING.bodies},
)
TRACE = Trace(
    scenario=CROSSING,
    log=[TargetReachedRecord(t=1.5, robot_id=1)],
    samples=array("d"),
    clearance={1: 2.0, 2: 3.0},
)
VALUES = [
    RobotState(1.0, 2.0, 0.5),
    ControlInput(1.0, -0.5),
    TERMS,
    ControlDecision(ControlInput(1.0, 0.0), ControlInput(2.0, 0.0), Region.OMEGA2, TERMS, False),
    CROSSING.workspace,
    CROSSING.bodies[0],
    CROSSING.params,
    CROSSING,
    build_local_frame((0.0, 0.0), (1.0, 1.0)),
    HEAD_ON,
    resolve_collision(HEAD_ON, body_j_is_robot=True)[0],
    tangent_rays((0.0, 0.0), (2.0, 0.0), 2.0),
    EventHit(t_offset=0.25, robot_id=1, other_id=3, simultaneous=((2, 4),)),
    TRACE,
    metrics(TRACE).robots[1],
    metrics(TRACE),
]
# the values that hold a dict or a list
UNHASHABLE = (Scenario, Trace, TraceMetrics)
# one record of each type, every value distinct so each cell names its field
RECORDS = {
    "sample": FlowSample(t=0.25, robot_id=1, x=1.5, y=2.5, theta=0.5, v=1.25, w=-0.5, q=1),
    "collision": CollisionRecord(
        t=1.25, robot_id=2, other_id=3, x=4.5, y=5.5, theta_pre=0.75, theta_post=1.75,
        v_pre=2.25, v_post=3.25, phi=-0.25, lam=0.125, mu=-0.375, q=1,
    ),
    "impulse": ImpulseRecord(t=2.25, robot_id=1, theta_escape=0.625, dtheta=-1.5),
    "switch": SwitchRecord(t=3.25, robot_id=2, q_from=0, q_to=1),
    "target_reached": TargetReachedRecord(t=4.25, robot_id=1),
    "fault": FaultRecord(t=5.25, reason="pair (1, 3) deferred", fatal=False),
}
# record fields written under another column's name
COLUMN = {"theta_post": "theta", "v_post": "v", "theta_escape": "theta", "q_to": "q"}


@pytest.mark.parametrize("value", VALUES + list(RECORDS.values()), ids=lambda v: type(v).__name__)
def test_value_is_an_immutable_hashable_tuple(value):
    assert isinstance(value, tuple)
    for field in value._fields:
        with pytest.raises(AttributeError):
            setattr(value, field, 0.0)
    if isinstance(value, UNHASHABLE):
        with pytest.raises(TypeError):
            hash(value)
    else:
        assert hash(value) == hash(type(value)(*value))


@pytest.mark.parametrize(
    "v_loc, t_dur, message",
    [
        (0.0, 0.2, "local speed must be positive, got 0.0"),
        (math.nan, 0.2, "local speed must be positive, got nan"),
        (5.0, -0.2, "local duration must be positive, got -0.2"),
        (5.0, math.nan, "local duration must be positive, got nan"),
    ],
    ids=["zero-speed", "nan-speed", "negative-duration", "nan-duration"],
)
def test_local_phase_rejects_a_non_positive_speed_or_duration(v_loc, t_dur, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        LocalPhase(collided_id=3, v_loc=v_loc, t_dur=t_dur)


def test_flow_sample_fields_follow_the_sample_row():
    # The sample row leaves record_type constant and other_id, extra empty.
    columns = [c for c in CSV_HEADER.split(",") if c not in ("record_type", "other_id", "extra")]
    assert FlowSample._fields == tuple(columns)


@pytest.mark.parametrize("record_type", RECORDS)
def test_record_row_writes_each_field_under_its_column(record_type):
    record = RECORDS[record_type]
    assert type(record).ROW.count("%") == len(record._fields)
    cells = _csv_line(record).removesuffix("\n").split(",")
    header = CSV_HEADER.split(",")
    assert len(cells) == len(header) == 11
    row = dict(zip(header, cells))
    assert row["record_type"] == record_type
    for field, value in zip(record._fields, record):
        column = COLUMN.get(field, field)
        if column in row:
            assert row[column] == format(value, ".17g")


def conforms(value, hint):
    """`value` is exactly of the declared type `hint`, element by element
    for a tuple type."""
    origin = typing.get_origin(hint)
    if origin is None:
        return type(value) is hint
    args = typing.get_args(hint)
    if type(value) is not origin:
        return False
    if args[-1] is Ellipsis:
        return all(conforms(v, args[0]) for v in value)
    return len(value) == len(args) and all(map(conforms, value, args))


def assert_decision(decision, certified=False):
    """`decision` is exactly a `ControlDecision` whose fields are exactly
    their declared types: the inputs exact tuples of floats, and the terms
    too, unless the region floor `certified` it: then they are None, the
    region is 2 and the decision is not degenerate."""
    assert type(decision) is ControlDecision and len(decision) == len(ControlDecision._fields), decision
    hints = typing.get_type_hints(ControlDecision)
    # `Terms | None`: None only where the region floor decided
    hints["terms"], _ = typing.get_args(hints["terms"])
    for field, v in zip(ControlDecision._fields, decision):
        if field == "terms" and certified:
            assert v is None and decision.region is Region.OMEGA2 and not decision.degenerate, decision
        else:
            assert conforms(v, hints[field]), (field, decision)


def test_every_golden_record_has_its_declared_arity(golden_run):
    _, trace = golden_run
    assert trace.records
    for record in trace.records:
        assert len(record) == len(type(record)._fields), record


def test_flow_steps_and_decisions_are_their_declared_types():
    scenario = CROSSING
    pairs = contact_pairs(scenario)
    rng = random.Random(1)
    regions = set()
    for _ in range(200):
        states = {
            rid: RobotState(rng.uniform(-10, 10), rng.uniform(-10, 10), rng.uniform(-math.pi, math.pi))
            for rid in (1, 2)
        }
        for rid, state in states.items():
            rows = [p for p in pairs if rid in (p.i, p.j)]
            decision = predefined_control(rid, states, scenario.targets[rid], rows, scenario.params)
            assert_decision(decision)
            assert len(decision.terms) == len(ControllerTerms._fields)
            regions.add(decision.region)
            assert conforms(step_flow(state, decision.u, rng.uniform(0.0, 0.1)), Pose)
    # OMEGA2, the region of every decision on crossing, and another
    assert Region.OMEGA2 in regions and len(regions) >= 2, regions


@pytest.mark.parametrize(
    "name, mode",
    [("crossing", SimMode.REDESIGNED), ("crossing", SimMode.PREDEFINED_ONLY), ("example1", SimMode.PREDEFINED_ONLY)],
    ids=["crossing", "chatter", "example1-predefined"],
)
def test_a_run_carries_poses_and_inputs_as_exact_tuples(name, mode, monkeypatch):
    # every pose `step_flow` takes or returns, every input it holds, every
    # local phase's input and every decision the loop reads its `u` from,
    # over a whole run; a decision holds no terms only where the region
    # floor certified it.  Of the golden runs only example1-predefined steps
    # on inputs the contact sweep refreshed, and only crossing redesigned
    # runs local phases.
    steps, decisions, local = [], [], []
    real_step, real_control, real_local = hybrid.step_flow, hybrid.predefined_control, hybrid.local_control

    def stepping(state, u, dt):
        pose = real_step(state, u, dt)
        steps.append((state, u, pose))
        return pose

    def controlling(robot_id, states, target, rows, params, floor):
        decision = real_control(robot_id, states, target, rows, params, floor)
        decisions.append((decision, floor is not None and decision.terms is None))
        return decision

    def escaping(phase):
        u = real_local(phase)
        local.append(u)
        return u

    monkeypatch.setattr(hybrid, "step_flow", stepping)
    monkeypatch.setattr(hybrid, "predefined_control", controlling)
    monkeypatch.setattr(hybrid, "local_control", escaping)
    simulate(golden_scenario(name), mode)
    assert len(steps) > 1000 and len(decisions) > 1000
    assert len(local) == (200 if mode is SimMode.REDESIGNED else 0)
    for state, u, pose in steps:
        assert conforms(state, Pose) and conforms(pose, Pose), (state, pose)
        assert conforms(u, Input), u
    for u in local:
        assert conforms(u, Input), u
    for decision, certified in decisions:
        assert_decision(decision, certified)
    if name == "crossing":
        # all but a few dozen decisions of either mode are certified
        assert sum(certified for _, certified in decisions) > len(decisions) - 100


def contact_values(scenario, mode, monkeypatch):
    """Every LocalFrame, ContactQuery, CollisionOutcome, EventHit and
    CollisionRecord that one run builds."""
    built = []

    def keeping(fn):
        def kept(*args, **kwargs):
            result = fn(*args, **kwargs)
            built.extend(v for v in (result if type(result) is tuple else (result,)) if v is not None)
            return result

        return kept

    monkeypatch.setattr(collision, "build_local_frame", keeping(collision.build_local_frame))
    monkeypatch.setattr(ContactQuery, "build", classmethod(keeping(ContactQuery.__dict__["build"].__func__)))
    monkeypatch.setattr(hybrid, "resolve_collision", keeping(hybrid.resolve_collision))
    monkeypatch.setattr(hybrid, "detect_event", keeping(hybrid.detect_event))
    trace = simulate(scenario, mode)
    return built + trace.collisions()


@pytest.mark.parametrize(
    "name, mode",
    [("crossing", SimMode.PREDEFINED_ONLY), ("wedge", SimMode.PREDEFINED_ONLY), ("wedge", SimMode.REDESIGNED)],
    ids=["chatter", "wedge-predefined", "wedge-redesigned"],
)
def test_contact_path_values_are_their_declared_types(name, mode, monkeypatch):
    values = contact_values(golden_scenario(name), mode, monkeypatch)
    kinds = {LocalFrame: 0, ContactQuery: 0, CollisionOutcome: 0, EventHit: 0, CollisionRecord: 0}
    for value in values:
        cls = type(value)
        kinds[cls] += 1
        hints = typing.get_type_hints(cls)
        assert len(value) == len(cls._fields), value
        for field, v in zip(cls._fields, value):
            assert conforms(v, hints[field]), (field, value)
    # every contact builds one of each, and one outcome and record per robot
    assert min(kinds.values()) >= 199, kinds
