import dataclasses
import json
import math
from pathlib import Path

import pytest

from bumpsim.hybrid import simulate
from bumpsim.scenario import (
    UNBOUNDED,
    BodyKind,
    ParseError,
    RobotState,
    SchemaError,
    WorkspaceRect,
    load_scenario,
    serialize,
    validate_scenario,
)

SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"

EXAMPLE1_DOC = {
    "workspace": {"x_min": -8, "x_max": 8, "y_min": -1, "y_max": 9},
    "bodies": [
        {"id": 1, "kind": "robot", "radius": 1.0, "mass": 1.0, "x": 0.0, "y": 8.0, "theta": 0.01 * math.pi},
        {"id": 3, "kind": "obstacle", "radius": 1.0, "mass": "unbounded", "x": 0.0, "y": 4.0},
    ],
    "targets": {"1": {"x": 0.0, "y": 0.0, "theta": 0.5 * math.pi}},
    "params": {"rho": 9, "sigma1": 1.25, "sigma2": 0.6, "sigma3": 1.2, "mv": 5, "mw": 5},
}


def doc_with(**overrides):
    doc = json.loads(json.dumps(EXAMPLE1_DOC))
    doc.update(overrides)
    return doc


def test_load_example1_document():
    sc = load_scenario(json.dumps(EXAMPLE1_DOC))
    assert sc.workspace == WorkspaceRect(-8.0, 8.0, -1.0, 9.0)
    assert len(sc.bodies) == 2
    robot = sc.body(1)
    assert robot.kind is BodyKind.ROBOT
    assert robot.radius == 1.0
    assert (robot.x, robot.y) == (0.0, 8.0)
    obstacle = sc.body(3)
    assert obstacle.mass == UNBOUNDED
    assert (obstacle.x, obstacle.y) == (0.0, 4.0)
    assert sc.targets[1] == RobotState(0.0, 0.0, 0.5 * math.pi)
    p = sc.params
    assert (p.rho, p.sigma1, p.sigma2, p.sigma3, p.m_v, p.m_w) == (9.0, 1.25, 0.6, 1.2, 5.0, 5.0)


def test_defaults_applied():
    sc = load_scenario(json.dumps(EXAMPLE1_DOC))
    assert sc.params.delta == 0.0
    assert sc.dt == 1e-3
    assert sc.t_max == 60.0
    assert sc.target_tolerance == 1e-2
    assert sc.jump_cap == 100_000


def test_malformed_document():
    with pytest.raises(ParseError):
        load_scenario("{not json")


def test_missing_required_field_has_path():
    doc = doc_with()
    del doc["params"]["rho"]
    with pytest.raises(SchemaError, match="params.rho"):
        load_scenario(json.dumps(doc))


def test_obstacle_defaults_to_unbounded_mass():
    doc = doc_with()
    del doc["bodies"][1]["mass"]
    sc = load_scenario(json.dumps(doc))
    assert math.isinf(sc.body(3).mass)


# --- validation -------------------------------------------------------------


def test_example1_validates_clean():
    sc = load_scenario(json.dumps(EXAMPLE1_DOC))
    assert validate_scenario(sc) == []


def test_overlapping_robots_flagged():
    doc = doc_with(
        bodies=[
            {"id": 1, "kind": "robot", "radius": 1.0, "mass": 1.0, "x": 0.0, "y": 0.0, "theta": 0.0},
            {"id": 2, "kind": "robot", "radius": 1.0, "mass": 1.0, "x": 0.0, "y": 0.0, "theta": 0.0},
        ],
        targets={"1": {"x": 1.0, "y": 1.0, "theta": 0.0}, "2": {"x": 2.0, "y": 2.0, "theta": 0.0}},
    )
    sc = load_scenario(json.dumps(doc))
    violations = validate_scenario(sc)
    assert len(violations) == 1
    assert "overlap" in violations[0]


def test_light_finite_obstacle_mass_flagged():
    doc = doc_with()
    doc["bodies"][1]["mass"] = 1.5  # vs robot mass 1.0: far below the 100x floor
    sc = load_scenario(json.dumps(doc))
    violations = validate_scenario(sc)
    assert len(violations) == 1
    assert "100" in violations[0]


def test_heavy_finite_obstacle_mass_accepted():
    doc = doc_with()
    doc["bodies"][1]["mass"] = 250.0
    sc = load_scenario(json.dumps(doc))
    assert validate_scenario(sc) == []


def test_robot_outside_workspace_flagged():
    doc = doc_with()
    doc["bodies"][0]["y"] = 20.0
    sc = load_scenario(json.dumps(doc))
    assert any("outside the workspace" in v for v in validate_scenario(sc))


def test_bad_params_flagged():
    doc = doc_with(params={"rho": -1, "sigma1": 0.5, "sigma2": 0.6, "sigma3": 1.2, "mv": 5, "mw": 5})
    sc = load_scenario(json.dumps(doc))
    violations = validate_scenario(sc)
    assert any("rho" in v for v in violations)
    assert any("sigma1" in v for v in violations)


@pytest.mark.parametrize(
    "field, value",
    [
        ("dt", 0.0),
        ("dt", math.nan),
        ("t_max", math.inf),
        ("target_tolerance", 0.0),
        ("jump_cap", 0),
        ("jump_cap", 2.0),
    ],
)
def test_sim_block_out_of_bounds_flagged(field, value):
    sc = dataclasses.replace(load_scenario(json.dumps(EXAMPLE1_DOC)), **{field: value})
    # validation first: simulate on an unchecked dt = 0 never returns
    assert [v for v in validate_scenario(sc) if v.startswith(f"sim.{field}:")]
    with pytest.raises(ValueError, match="does not validate"):
        simulate(sc)


def test_targets_must_match_the_robots():
    crossing = load_crossing()
    missing = dataclasses.replace(crossing, targets={1: crossing.targets[1]})
    assert validate_scenario(missing) == ["targets: missing target for robot 2"]
    with pytest.raises(ValueError, match="missing target for robot 2"):
        simulate(missing)
    stray = dataclasses.replace(crossing, targets={**crossing.targets, 5: crossing.targets[1]})
    assert validate_scenario(stray) == ["targets.5: no robot with this id"]
    with pytest.raises(ValueError, match="no robot with this id"):
        simulate(stray)


def load_crossing():
    return load_scenario((SCENARIOS / "crossing.json").read_text())


def crossing_with_body(index, **changes):
    """crossing with one body changed, built in code past the loader."""
    sc = load_crossing()
    bodies = list(sc.bodies)
    bodies[index] = dataclasses.replace(bodies[index], **changes)
    return dataclasses.replace(sc, bodies=tuple(bodies))


def assert_rejected(sc, violation):
    assert violation in validate_scenario(sc)
    with pytest.raises(ValueError, match="does not validate"):
        simulate(sc)


def test_negative_radius_names_offending_body():
    doc = doc_with()
    doc["bodies"][1]["radius"] = -1
    assert_rejected(load_scenario(json.dumps(doc)), "bodies[1].radius: value must be > 0, got -1.0")


def test_missing_target_rejected():
    doc = doc_with(targets={})
    assert_rejected(load_scenario(json.dumps(doc)), "targets: missing target for robot 1")


def test_robot_id_rules():
    doc = doc_with()
    doc["bodies"][0]["id"] = 3
    assert_rejected(load_scenario(json.dumps(doc)), "bodies[0].id: robots must use id 1 or 2, got 3")


@pytest.mark.parametrize(
    "radius, violation",
    [
        (0.0, "bodies[1].radius: value must be > 0, got 0.0"),
        (-0.5, "bodies[1].radius: value must be > 0, got -0.5"),
        (math.nan, "bodies[1].radius: value must be finite"),
        (math.inf, "bodies[1].radius: value must be finite"),
    ],
    ids=["zero", "negative", "nan", "inf"],
)
def test_radius_must_be_positive_and_finite(radius, violation):
    assert_rejected(crossing_with_body(1, radius=radius), violation)


def crossing_with_params(**changes):
    sc = load_crossing()
    return dataclasses.replace(sc, params=dataclasses.replace(sc.params, **changes))


def crossing_with_robot_1_as_7():
    sc = crossing_with_body(0, id=7)
    return dataclasses.replace(sc, targets={7: sc.targets[1], 2: sc.targets[2]})


# Built in code past the loader; unless validation names the fault, each of
# these crashes mid-run or runs on a meaningless scenario.
@pytest.mark.parametrize(
    "build, violation",
    [
        (lambda: crossing_with_body(2, mass=math.nan), "bodies[2].mass: value must be > 0, got nan"),
        (lambda: crossing_with_body(2, x=math.inf), "bodies[2].x: value must be finite"),
        (lambda: crossing_with_body(2, x=math.nan), "bodies[2].x: value must be finite"),
        (lambda: crossing_with_body(0, theta=math.nan), "bodies[0].theta: value must be finite"),
        (lambda: crossing_with_params(rho=math.nan), "params.rho: value must be finite"),
        (lambda: crossing_with_params(rho=math.inf), "params.rho: value must be finite"),
        (lambda: crossing_with_params(sigma1=math.nan), "params.sigma1: value must be finite"),
        (lambda: crossing_with_params(m_v=math.nan), "params.mv: value must be finite"),
        (crossing_with_robot_1_as_7, "bodies[0].id: robots must use id 1 or 2, got 7"),
        (
            lambda: dataclasses.replace(load_crossing(), workspace=WorkspaceRect(35.0, -15.0, -15.0, 35.0)),
            "workspace: bounds must satisfy x_min < x_max and y_min < y_max",
        ),
    ],
    ids=[
        "obstacle-mass-nan", "obstacle-x-inf", "obstacle-x-nan", "robot-theta-nan", "rho-nan",
        "rho-inf", "sigma1-nan", "mv-nan", "robot-id-7", "inverted-workspace",
    ],
)
def test_code_built_scenario_rejected_by_name(build, violation):
    assert_rejected(build(), violation)


@pytest.mark.parametrize(
    "mass, violation",
    [
        (0.0, "bodies[0].mass: value must be > 0, got 0.0"),
        (-1.0, "bodies[0].mass: value must be > 0, got -1.0"),
        (math.inf, "bodies[0].mass: robots must have finite mass"),
        (math.nan, "bodies[0].mass: robots must have finite mass"),
    ],
    ids=["zero", "negative", "inf", "nan"],
)
def test_robot_mass_must_be_positive_and_finite(mass, violation):
    assert_rejected(crossing_with_body(0, mass=mass), violation)


def test_body_ids_must_be_unique():
    assert_rejected(crossing_with_body(3, id=3), "bodies[3].id: duplicate body id 3")


def test_scenario_needs_a_robot():
    crossing = load_crossing()
    empty = dataclasses.replace(crossing, bodies=crossing.obstacles(), targets={})
    assert validate_scenario(empty) == ["bodies: expected 1 or 2 robots, found 0"]
    with pytest.raises(ValueError, match="expected 1 or 2 robots"):
        simulate(empty)


def test_validate_is_pure_and_idempotent():
    sc = load_scenario(json.dumps(EXAMPLE1_DOC))
    assert validate_scenario(sc) == validate_scenario(sc) == []


# --- round trip -------------------------------------------------------------


def _scenarios_for_round_trip():
    yield load_scenario(json.dumps(EXAMPLE1_DOC))
    two_robots = doc_with(
        bodies=[
            {"id": 1, "kind": "robot", "radius": 0.75, "mass": 2.5, "x": -3.1, "y": 0.2, "theta": 1.75},
            {"id": 2, "kind": "robot", "radius": 1.25, "mass": 1.0, "x": 4.0, "y": 4.0, "theta": -0.3},
            {"id": 3, "kind": "obstacle", "radius": 0.5, "mass": "unbounded", "x": 0.5, "y": 2.5},
            {"id": 4, "kind": "obstacle", "radius": 1.0, "mass": 300.0, "x": -5.0, "y": 5.0},
        ],
        targets={
            "1": {"x": 1.0, "y": 7.0, "theta": 0.1},
            "2": {"x": -2.0, "y": -0.5, "theta": 6.9},
        },
        sim={"dt": 0.002, "t_max": 12.5, "target_tolerance": 0.05, "jump_cap": 77},
    )
    two_robots["params"]["delta"] = 0.125
    yield load_scenario(json.dumps(two_robots))
    for path in sorted(SCENARIOS.glob("*.json")):
        yield load_scenario(path.read_text())


def test_serialize_round_trip_bit_exact():
    for sc in _scenarios_for_round_trip():
        again = load_scenario(serialize(sc))
        assert again == sc
        assert validate_scenario(again) == []
        # and serialization itself is stable
        assert serialize(again) == serialize(sc)


def test_scenario_values_immutable():
    sc = load_scenario(json.dumps(EXAMPLE1_DOC))
    with pytest.raises(Exception):
        sc.bodies[0].radius = 2.0
