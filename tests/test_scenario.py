import hashlib
import json
import math
import re
from pathlib import Path

import pytest

from conftest import WEDGE

from bumpsim.hybrid import simulate
from bumpsim.scenario import (
    MAGNITUDE_LIMIT,
    PARAM_FIELDS,
    UNBOUNDED,
    BodyKind,
    ControllerParams,
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


def test_integer_literal_past_the_digit_limit_is_a_parse_error():
    # json reads the literal with int(), which refuses over 4300 digits
    with pytest.raises(ParseError):
        load_scenario('{"x": ' + "9" * 5000 + "}")


@pytest.mark.parametrize(
    ("original", "repeated", "key"),
    [
        ('"targets": {', '"targets": {"1": {"x": 5.0, "y": 0.0, "theta": 0.0}, ', "'1'"),
        ('{"id": 1, ', '{"id": 1, "x": 5.0, ', "'x'"),
    ],
    ids=["target", "body"],
)
def test_repeated_object_key_is_a_parse_error(original, repeated, key):
    # json.loads alone would keep the later value and drop this one
    text = json.dumps(EXAMPLE1_DOC)
    assert text.count(original) == 1
    with pytest.raises(ParseError, match=re.escape(f"repeated key {key}")):
        load_scenario(text.replace(original, repeated))


@pytest.mark.parametrize("key", [" 01", "01", "+1", "1.0", "one", ""])
def test_target_key_must_be_the_canonical_decimal_of_its_id(key):
    doc = doc_with()
    doc["targets"][key] = {"x": 5.0, "y": 0.0, "theta": 0.0}
    with pytest.raises(SchemaError, match=re.escape(f"targets.{key}: key must be a robot id")):
        load_scenario(json.dumps(doc))


@pytest.mark.parametrize(
    ("value", "loaded"), [(10**400, math.inf), (-(10**400), -math.inf)], ids=["positive", "negative"]
)
def test_integer_past_the_float_range_loads_as_infinite(value, loaded):
    doc = doc_with()
    doc["bodies"][0]["x"] = value
    sc = load_scenario(json.dumps(doc))
    assert sc.bodies[0].x == loaded
    assert "bodies[0].x: value must be finite" in validate_scenario(sc)


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
    sc = load_scenario(json.dumps(EXAMPLE1_DOC))._replace(**{field: value})
    # validation first: simulate on an unchecked dt = 0 never returns
    assert [v for v in validate_scenario(sc) if v.startswith(f"sim.{field}:")]
    with pytest.raises(ValueError, match="does not validate"):
        simulate(sc)


def test_targets_must_match_the_robots():
    crossing = load_crossing()
    missing = crossing._replace(targets={1: crossing.targets[1]})
    assert validate_scenario(missing) == ["targets: missing target for robot 2"]
    with pytest.raises(ValueError, match="missing target for robot 2"):
        simulate(missing)
    stray = crossing._replace(targets={**crossing.targets, 5: crossing.targets[1]})
    assert validate_scenario(stray) == ["targets.5: no robot with this id"]
    with pytest.raises(ValueError, match="no robot with this id"):
        simulate(stray)


def load_crossing():
    return load_scenario((SCENARIOS / "crossing.json").read_text())


def crossing_with_body(index, **changes):
    """crossing with one body changed, built in code past the loader."""
    sc = load_crossing()
    bodies = list(sc.bodies)
    bodies[index] = bodies[index]._replace(**changes)
    return sc._replace(bodies=tuple(bodies))


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
    return sc._replace(params=sc.params._replace(**changes))


def crossing_with_robot_1_as_7():
    sc = crossing_with_body(0, id=7)
    return sc._replace(targets={7: sc.targets[1], 2: sc.targets[2]})


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
            lambda: load_crossing()._replace(workspace=WorkspaceRect(35.0, -15.0, -15.0, 35.0)),
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


def crossing_with_workspace(**changes):
    sc = load_crossing()
    return sc._replace(workspace=sc.workspace._replace(**changes))


def crossing_with_target(rid, **changes):
    sc = load_crossing()
    return sc._replace(targets={**sc.targets, rid: sc.targets[rid]._replace(**changes)})


# field path -> the crossing scenario with that field set to a given magnitude
MAGNITUDES = {
    "workspace.x_min": lambda m: crossing_with_workspace(x_min=-m),
    "workspace.y_max": lambda m: crossing_with_workspace(y_max=m),
    "bodies[0].theta": lambda m: crossing_with_body(0, theta=-m),
    "bodies[1].radius": lambda m: crossing_with_body(1, radius=m),
    "bodies[2].x": lambda m: crossing_with_body(2, x=m),
    "bodies[3].y": lambda m: crossing_with_body(3, y=-m),
    "targets.1.x": lambda m: crossing_with_target(1, x=-m),
    "targets.2.theta": lambda m: crossing_with_target(2, theta=m),
}


@pytest.mark.parametrize("field", MAGNITUDES)
def test_magnitudes_past_the_limit_are_rejected_by_name(field):
    def bound_violations(sc):
        return [v for v in validate_scenario(sc) if "magnitude" in v]

    assert bound_violations(MAGNITUDES[field](MAGNITUDE_LIMIT)) == []
    past = MAGNITUDES[field](math.nextafter(MAGNITUDE_LIMIT, math.inf))
    assert [v.partition(", got ")[0] for v in bound_violations(past)] == [
        f"{field}: magnitude must be at most 1e+150"
    ]
    with pytest.raises(ValueError, match="does not validate"):
        simulate(past)


def test_magnitude_limit_keeps_the_target_distance_finite():
    # the largest sum of squares the engine forms: three differences of two
    # values at opposite ends of the accepted range
    span = MAGNITUDE_LIMIT - -MAGNITUDE_LIMIT
    assert math.isfinite(span ** 2 + span ** 2 + span ** 2)


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
    empty = crossing._replace(bodies=crossing.obstacles(), targets={})
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


# SHA-256 of serialize's output: the round-trip scenarios in order, then the wedge
SERIALIZED = [
    "65c8be97476d9080277880ac89fbd3ac6a6c05e02565413c3104bda0d2e0c3e0",
    "5e3e7ba8f17012ea24784e5c6362dcc4758b5b4028eef71c36bb7805899f907f",
    "c2ffa8edb56181c6ecbede15f635aa4cf01b378ac5feae410c3ae385f94f685c",
    "c23b40d54902e0953b724c740631db68445c55ff4d40524d4ed8c1348bdccecf",
    "5033d856a9a22afc9b66da748e7759d14143fbd71d0f80d9547ffb8f37de7f31",
    "a4be6cdb6423d85a580206713beb03622070466fa27d3da52b8e901b6843e571",
]


def test_serialize_bytes_are_pinned():
    # the keys, their order, the number spellings and the indentation
    scenarios = [*_scenarios_for_round_trip(), load_scenario(json.dumps(WEDGE))]
    digests = [hashlib.sha256(serialize(sc).encode("utf-8")).hexdigest() for sc in scenarios]
    assert digests == SERIALIZED


def test_param_table_names_every_field_once():
    names = list(PARAM_FIELDS.values())
    assert names == list(ControllerParams._fields)
    assert len(set(names)) == len(names)


def test_scenario_values_immutable():
    sc = load_scenario(json.dumps(EXAMPLE1_DOC))
    with pytest.raises(Exception):
        sc.bodies[0].radius = 2.0


# --- every message, one table per function -----------------------------------


@pytest.mark.parametrize(
    "build, violation",
    [
        (lambda: crossing_with_params(rho=-1.0), "params.rho: value must be > 0, got -1.0"),
        (lambda: crossing_with_params(sigma1=0.5), "params.sigma1: value must be >= 1, got 0.5"),
        (lambda: crossing_with_params(sigma2=0.0), "params.sigma2: value must be > 0, got 0.0"),
        (lambda: crossing_with_params(sigma3=-1.2), "params.sigma3: value must be > 0, got -1.2"),
        (lambda: crossing_with_params(m_v=0.0), "params.mv: value must be > 0, got 0.0"),
        (lambda: crossing_with_params(m_w=-5.0), "params.mw: value must be > 0, got -5.0"),
        (lambda: crossing_with_params(delta=1.0), "params.delta: value must lie in [0, 1), got 1.0"),
        (lambda: crossing_with_params(delta=-0.1), "params.delta: value must lie in [0, 1), got -0.1"),
        (lambda: crossing_with_body(2, id=0), "bodies[2].id: obstacles must use ids >= 3, got 0"),
    ],
    ids=[
        "rho", "sigma1", "sigma2", "sigma3", "mv", "mw", "delta-one", "delta-negative", "obstacle-id",
    ],
)
def test_validate_scenario_messages(build, violation):
    sc = build()
    assert validate_scenario(sc) == [violation]
    with pytest.raises(ValueError, match=re.escape(violation)):
        simulate(sc)


def set_in(path, value):
    """EXAMPLE1_DOC with the value at `path` (a key or index sequence; the
    empty path is the whole document) replaced."""

    def build():
        doc = doc_with()
        if not path:
            return value
        node = doc
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
        return doc

    return build


@pytest.mark.parametrize(
    "build, message",
    [
        (set_in(("bodies", 0, "radius"), "a"), "bodies[0].radius: expected a number, got 'a'"),
        (set_in(("params",), [9, 1.25]), "params: expected an object"),
        (set_in(("bodies", 1), 3), "bodies[1]: expected an object"),
        (set_in((), [EXAMPLE1_DOC]), "top level: expected an object"),
        (set_in(("targets",), [0.0, 0.0, 0.0]), "targets: expected an object keyed by robot id"),
        (set_in(("sim",), "fast"), "sim: expected an object"),
        (set_in(("bodies", 0, "id"), 1.0), "bodies[0].id: expected a positive integer, got 1.0"),
        (set_in(("sim",), {"jump_cap": True}), "sim.jump_cap: expected a positive integer, got True"),
        (set_in(("bodies", 1, "kind"), "wall"), "bodies[1].kind: expected 'robot' or 'obstacle', got 'wall'"),
        (set_in(("bodies",), {"1": {}}), "bodies: expected a non-empty array"),
    ],
    ids=[
        "non-number", "params", "body", "top-level", "targets", "sim", "id", "jump-cap", "kind", "bodies",
    ],
)
def test_load_scenario_schema_messages(build, message):
    with pytest.raises(SchemaError) as info:
        load_scenario(json.dumps(build()))
    assert str(info.value) == message
