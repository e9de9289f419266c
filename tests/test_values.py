"""The per-step value types and the trace records are immutable, hashable
NamedTuples.

The executor builds the value types on every integration step, so they are
tuples built positionally; this pins what a frozen dataclass used to
guarantee.  The hottest builds go through `tuple.__new__`, which skips the
NamedTuple's field-count check, so the arity of every record of the golden
runs and of every flow step and controller decision is pinned here too.
Each trace record's fields follow its trace.csv row, which one `%` with the
type's `ROW` template writes.
"""

import math
import random
from pathlib import Path

import pytest

from bumpsim.controller import ControlDecision, ControllerTerms, Region, predefined_control
from bumpsim.hybrid import (
    CSV_HEADER,
    CollisionRecord,
    FaultRecord,
    FlowSample,
    ImpulseRecord,
    SwitchRecord,
    TargetReachedRecord,
    _csv_line,
    contact_pairs,
    step_flow,
)
from bumpsim.scenario import ControlInput, RobotState, load_scenario

ROOT = Path(__file__).resolve().parents[1]

TERMS = ControllerTerms(1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0)
VALUES = [
    RobotState(1.0, 2.0, 0.5),
    ControlInput(1.0, -0.5),
    TERMS,
    ControlDecision(ControlInput(1.0, 0.0), ControlInput(2.0, 0.0), Region.OMEGA2, TERMS, False),
]
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
    assert hash(value) == hash(type(value)(*value))


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


def assert_declared(value, cls, field_type=float):
    """`value` is exactly a `cls`, with one value of `field_type` per field."""
    assert type(value) is cls, value
    assert len(value) == len(cls._fields), value
    assert all(type(v) is field_type for v in value), value


def test_every_golden_record_has_its_declared_arity(golden_run):
    _, trace = golden_run
    assert trace.records
    for record in trace.records:
        assert len(record) == len(type(record)._fields), record


def test_flow_steps_and_decisions_are_their_declared_types():
    scenario = load_scenario((ROOT / "scenarios" / "crossing.json").read_text(encoding="utf-8"))
    pairs = contact_pairs(scenario.bodies)
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
            assert type(decision) is ControlDecision and len(decision) == len(ControlDecision._fields)
            assert_declared(decision.u, ControlInput)
            assert_declared(decision.u_nom, ControlInput)
            assert_declared(decision.terms, ControllerTerms)
            assert type(decision.region) is Region and type(decision.degenerate) is bool
            regions.add(decision.region)
            assert_declared(step_flow(state, decision.u, rng.uniform(0.0, 0.1)), RobotState)
    # OMEGA2's nominal input is one of the `tuple.__new__` builds
    assert Region.OMEGA2 in regions and len(regions) >= 2, regions
