"""Shared fixtures: the golden runs, one `simulate` call per golden case for
the whole session, shared by `test_golden.py` (hashes, plot files and the
per-pass audit) and `test_values.py` (the record types' arity), and each
golden case's scenario, which `test_events.py` runs again under its step
floor oracle."""

import json
import re
from pathlib import Path

import pytest

from bumpsim.hybrid import CollisionRecord, FaultRecord, FlowSample, SimMode, simulate
from bumpsim.scenario import load_scenario

SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"

# Robot 1 drives into the wedge between obstacles 3 and 4, which it touches
# at the same instant: the event jumps the crossing with obstacle 3, and the
# contact sweep defers the tie with obstacle 4.  Obstacle 5 stays far away.
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

# every shipped scenario and the wedge, in both modes
GOLDEN_CASES = [
    (name, mode)
    for name in ("crossing", "example1", "open_field", "wedge")
    for mode in (SimMode.PREDEFINED_ONLY, SimMode.REDESIGNED)
]


GOLDEN_IDS = [f"{n}-{m.value}" for n, m in GOLDEN_CASES]


def golden_scenario(name):
    """The scenario of a golden case: a shipped one, or the wedge."""
    if name == "wedge":
        return load_scenario(json.dumps(WEDGE))
    return load_scenario((SCENARIOS / f"{name}.json").read_text(encoding="utf-8"))


@pytest.fixture(scope="session", params=GOLDEN_CASES, ids=GOLDEN_IDS)
def golden_run(request):
    """((name, mode), trace) of one golden case.  pytest groups the tests of
    a case, across modules, and keeps one run alive at a time."""
    name, mode = request.param
    return request.param, simulate(golden_scenario(name), mode)


DEFERRAL = re.compile(r"pair \((\d+), (\d+)\) deferred")


def audit_passes(records):
    """The one-deferral rule's violations in `records`, pass by pass.

    A pass is the records from one block of samples to the next; an event
    jump is written after a pass's samples, so it falls in the same pass as
    that instant's contact sweep.  Within a pass, (a) each robot has at most
    one collision record, (b) each pair (ids sorted) is jumped or deferred
    at most once, the two records of a robot-robot contact counting once,
    and (c) every deferral names a pair with a robot that has already
    collided in that pass.
    """
    problems = []
    collided, settled, last = set(), set(), None
    for r in records:
        if isinstance(r, FlowSample):
            collided, settled, last = set(), set(), None
            continue
        if isinstance(r, CollisionRecord):
            pair = tuple(sorted((r.robot_id, r.other_id)))
            if r.robot_id in collided:
                problems.append(f"t={r.t!r}: robot {r.robot_id} collides twice")
            collided.add(r.robot_id)
            # the second record of a robot-robot contact mirrors the first
            if last is not None and (last.robot_id, last.other_id) == (r.other_id, r.robot_id):
                last = None
                continue
            last = r
        elif isinstance(r, FaultRecord) and (m := DEFERRAL.search(r.reason)):
            pair = tuple(sorted(map(int, m.groups())))
            if not collided.intersection(pair):
                problems.append(f"t={r.t!r}: pair {pair} deferred before either robot collided")
        else:
            continue
        if pair in settled:
            problems.append(f"t={r.t!r}: pair {pair} settled twice")
        settled.add(pair)
    return problems
