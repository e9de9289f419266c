"""Shared fixtures: the golden runs, one `simulate` call per golden case for
the whole session, shared by `test_golden.py` (hashes and plot files) and
`test_values.py` (the record types' arity)."""

import json
from pathlib import Path

import pytest

from bumpsim.hybrid import SimMode, simulate
from bumpsim.scenario import load_scenario

SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"

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

# every shipped scenario and the wedge, in both modes
GOLDEN_CASES = [
    (name, mode)
    for name in ("crossing", "example1", "open_field", "wedge")
    for mode in (SimMode.PREDEFINED_ONLY, SimMode.REDESIGNED)
]


@pytest.fixture(
    scope="session", params=GOLDEN_CASES, ids=[f"{n}-{m.value}" for n, m in GOLDEN_CASES]
)
def golden_run(request):
    """((name, mode), trace) of one golden case.  pytest groups the tests of
    a case, across modules, and keeps one run alive at a time."""
    name, mode = request.param
    if name == "wedge":
        scenario = load_scenario(json.dumps(WEDGE))
    else:
        scenario = load_scenario((SCENARIOS / f"{name}.json").read_text(encoding="utf-8"))
    return request.param, simulate(scenario, mode)
