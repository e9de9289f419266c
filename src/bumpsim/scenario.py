"""Scenario data model: load, validate and serialize simulation setups.

A scenario is a single JSON document describing the workspace rectangle,
the rigid bodies (one or two robots plus static cylindrical obstacles),
per-robot target states, controller parameters and integration settings.
Every value type here is a NamedTuple: immutable (assigning a field raises
AttributeError), unpacking like a tuple (`x, y, theta = state`), comparing
equal to a plain tuple of its fields, and copied with a change by
`_replace`.  A scenario is never modified after loading, so it can be
shared read-only across concurrent simulations.  Each controller decision
and contact value is built positionally, by `_new` below.

`serialize` derives its keys: each from the fields of the value it writes,
and the params block's JSON keys (`mv` and `mw` name `m_v` and `m_w`) from
the one table `PARAM_FIELDS`, which the loader and `validate_scenario`
read too.
"""

from __future__ import annotations

import json
import math
from enum import Enum
from typing import Any, Iterable, NamedTuple

UNBOUNDED = math.inf

DEFAULT_DT = 1e-3
DEFAULT_T_MAX = 60.0
DEFAULT_TARGET_TOLERANCE = 1e-2
DEFAULT_JUMP_CAP = 100_000
DEFAULT_DELTA = 0.0

# Finite obstacle masses below this multiple of the heaviest robot fail
# validation; "sufficiently heavy" obstacles should normally be unbounded.
MASS_RATIO_FLOOR = 100.0

# Largest magnitude validation accepts for a coordinate, heading, radius,
# target or workspace bound.  Every square the engine forms is of a
# difference of two such values (a pose minus its target, a robot centre
# minus another body's centre) or of a radii sum, so each squared quantity
# is at most (2 * MAGNITUDE_LIMIT) ** 2 = 4e300, and the largest sum of
# squares, the target distance's three terms, at most 1.2e301: finite, as
# the largest double is about 1.8e308.  Without the bound, x = 1e160 gives
# (x - tx) ** 2 = 1e320, an OverflowError at t = 0.  The bound holds for
# the scenario as given; a robot the flow carries past it (an unbounded
# speed bound or step) can still overflow, which `simulate` ends as a
# fault.
MAGNITUDE_LIMIT = 1e150

# The positional build of each controller decision and contact value:
# `_new(T, (f1, f2, ...))` takes all of NamedTuple T's fields in declaration
# order.  It skips the generated Python-level `__new__` (about twice the
# cost per build) and with it the field-count check, so the arity of each
# such value is pinned in `tests/test_values.py`.
_new = tuple.__new__


class ScenarioError(Exception):
    """Base class for scenario loading problems."""


class ParseError(ScenarioError):
    """The document is not well-formed JSON, or an object repeats a key."""


class SchemaError(ScenarioError):
    """The document is valid JSON but violates the scenario schema."""


class BodyKind(Enum):
    ROBOT = "robot"
    OBSTACLE = "obstacle"


class RobotState(NamedTuple):
    """Planar pose (x, y, theta). theta is an unbounded real, never wrapped."""

    x: float
    y: float
    theta: float


class ControlInput(NamedTuple):
    """Unicycle input: linear velocity v [m/s] and angular velocity w [rad/s]."""

    v: float
    w: float


class WorkspaceRect(NamedTuple):
    x_min: float
    x_max: float
    y_min: float
    y_max: float

    def contains(self, x: float, y: float) -> bool:
        return self.x_min <= x <= self.x_max and self.y_min <= y <= self.y_max


class Body(NamedTuple):
    """Cylindrical uniform rigid body.

    Robots use ids 1 and 2 and carry a full initial pose; obstacles use
    ids 3..n and only a position.  ``mass`` may be ``UNBOUNDED`` (infinite),
    which collision resolution treats as an exact immovable limit.
    """

    id: int
    kind: BodyKind
    radius: float
    mass: float
    x: float
    y: float
    theta: float = 0.0

    @property
    def position(self) -> tuple[float, float]:
        return (self.x, self.y)

    @property
    def is_robot(self) -> bool:
        return self.kind is BodyKind.ROBOT

    def state(self) -> RobotState:
        """Initial pose as a RobotState (theta meaningful for robots only)."""
        return RobotState(self.x, self.y, self.theta)


class ControllerParams(NamedTuple):
    """Gains and bounds of the predefined controller.

    rho weighs the tracking relaxation, sigma1 >= 1 scales the gain applied
    to nonnegative arguments, sigma2/sigma3 scale the tracking and clearance
    terms, m_v/m_w bound the inputs, and delta in [0, 1) is the fraction of
    normal velocity lost per collision (0 means perfectly elastic).
    """

    rho: float
    sigma1: float
    sigma2: float
    sigma3: float
    m_v: float
    m_w: float
    delta: float = DEFAULT_DELTA


# The params block: each JSON key and the ControllerParams field it fills, in
# field order.  The loader, validate_scenario and serialize all read it.
PARAM_FIELDS = {
    "rho": "rho", "sigma1": "sigma1", "sigma2": "sigma2", "sigma3": "sigma3",
    "mv": "m_v", "mw": "m_w", "delta": "delta",
}


class Scenario(NamedTuple):
    workspace: WorkspaceRect
    bodies: tuple[Body, ...]
    targets: dict[int, RobotState]
    params: ControllerParams
    dt: float = DEFAULT_DT
    t_max: float = DEFAULT_T_MAX
    target_tolerance: float = DEFAULT_TARGET_TOLERANCE
    jump_cap: int = DEFAULT_JUMP_CAP

    def robots(self) -> tuple[Body, ...]:
        return tuple(b for b in self.bodies if b.is_robot)

    def obstacles(self) -> tuple[Body, ...]:
        return tuple(b for b in self.bodies if not b.is_robot)

    def robot_ids(self) -> tuple[int, ...]:
        """The robots' ids in id order, the order of every per-robot output."""
        return tuple(sorted(b.id for b in self.robots()))

    def body(self, body_id: int) -> Body:
        for b in self.bodies:
            if b.id == body_id:
                return b
        raise KeyError(f"no body with id {body_id}")


# the Scenario fields that the JSON "sim" block holds, under their own names
SIM_FIELDS = ("dt", "t_max", "target_tolerance", "jump_cap")


def _require(obj: dict, key: str, path: str) -> Any:
    if key not in obj:
        raise SchemaError(f"{path}.{key}: missing required field")
    return obj[key]


def _number(value: Any, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SchemaError(f"{path}: expected a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        # an integer past the float range, such as 10**400, goes the way json
        # sends 1e400: to an infinity that validate_scenario reports
        return math.inf if value > 0 else -math.inf


def _numbers(
    obj: Any, path: str, keys: Iterable[str], defaults: dict[str, float] | None = None
) -> list[float]:
    """The number fields `keys` of the JSON object `obj`, in order; only the
    keys of `defaults` may be absent, and they then take their default."""
    if not isinstance(obj, dict):
        raise SchemaError(f"{path}: expected an object")
    obj = {**(defaults or {}), **obj}
    return [_number(_require(obj, key, path), f"{path}.{key}") for key in keys]


def _parse_body(obj: Any, idx: int) -> Body:
    path = f"bodies[{idx}]"
    if not isinstance(obj, dict):
        raise SchemaError(f"{path}: expected an object")
    body_id = _require(obj, "id", path)
    if isinstance(body_id, bool) or not isinstance(body_id, int):
        raise SchemaError(f"{path}.id: expected a positive integer, got {body_id!r}")
    kind_raw = _require(obj, "kind", path)
    if not isinstance(kind_raw, str) or kind_raw.lower() not in ("robot", "obstacle"):
        raise SchemaError(f"{path}.kind: expected 'robot' or 'obstacle', got {kind_raw!r}")
    kind = BodyKind(kind_raw.lower())
    radius = _number(_require(obj, "radius", path), f"{path}.radius")
    # Robot mass defaults to 1 kg (only mass ratios enter the physics),
    # obstacle mass to unbounded.
    mass_raw = obj.get("mass", 1.0 if kind is BodyKind.ROBOT else "unbounded")
    mass = UNBOUNDED if mass_raw == "unbounded" else _number(mass_raw, f"{path}.mass")
    x, y, theta = _numbers(obj, path, ("x", "y", "theta"), {"theta": 0.0})
    return Body(id=body_id, kind=kind, radius=radius, mass=mass, x=x, y=y, theta=theta)


def _unique_keys(pairs: list[tuple[str, Any]]) -> dict[str, Any]:
    """json's object hook: a repeated key is an error, where json.loads
    would keep the last value."""
    obj: dict[str, Any] = {}
    for key, value in pairs:
        if key in obj:
            raise ParseError(f"malformed scenario document: repeated key {key!r}")
        obj[key] = value
    return obj


def load_scenario(text: str) -> Scenario:
    """Read a scenario document into typed values, applying defaults for
    optional fields.

    Raises ParseError for malformed JSON or an object with a repeated key,
    and SchemaError, with the field path, for a missing key or a value of
    the wrong JSON type.  It checks no value against a rule: every range,
    finiteness and cross-field rule lives in validate_scenario, which
    `simulate` and the CLI run.
    """
    try:
        doc = json.loads(text, object_pairs_hook=_unique_keys)
    except ValueError as exc:
        # JSONDecodeError, or an integer literal past int's digit limit
        raise ParseError(f"malformed scenario document: {exc}") from exc
    if not isinstance(doc, dict):
        raise SchemaError("top level: expected an object")

    ws_raw = _require(doc, "workspace", "top level")
    workspace = WorkspaceRect(*_numbers(ws_raw, "workspace", WorkspaceRect._fields))

    bodies_raw = _require(doc, "bodies", "top level")
    if not isinstance(bodies_raw, list):
        raise SchemaError("bodies: expected a non-empty array")
    bodies = tuple(_parse_body(b, i) for i, b in enumerate(bodies_raw))

    targets_raw = _require(doc, "targets", "top level")
    if not isinstance(targets_raw, dict):
        raise SchemaError("targets: expected an object keyed by robot id")
    targets: dict[int, RobotState] = {}
    for key, val in targets_raw.items():
        try:
            rid = int(key)
        except ValueError:
            rid = None
        # one spelling per id, so no two keys can name the same robot
        if rid is None or str(rid) != key:
            raise SchemaError(f"targets.{key}: key must be a robot id written in canonical decimal")
        targets[rid] = RobotState(*_numbers(val, f"targets.{key}", RobotState._fields))

    params_raw = _require(doc, "params", "top level")
    params = ControllerParams(*_numbers(params_raw, "params", PARAM_FIELDS, {"delta": DEFAULT_DELTA}))

    sim = doc.get("sim", {})
    # every number of the sim block may be left out
    defaults = {"dt": DEFAULT_DT, "t_max": DEFAULT_T_MAX, "target_tolerance": DEFAULT_TARGET_TOLERANCE}
    dt, t_max, tolerance = _numbers(sim, "sim", defaults, defaults)
    jump_cap = sim.get("jump_cap", DEFAULT_JUMP_CAP)
    if isinstance(jump_cap, bool) or not isinstance(jump_cap, int):
        raise SchemaError(f"sim.jump_cap: expected a positive integer, got {jump_cap!r}")
    return Scenario(workspace, bodies, targets, params, dt, t_max, tolerance, jump_cap)


def _out_of_range(path: str, values: dict[str, float], limit: float = MAGNITUDE_LIMIT) -> list[str]:
    """A violation for each of `values` that is not finite or whose
    magnitude exceeds `limit`."""
    violations = []
    for name, v in values.items():
        if not math.isfinite(v):
            violations.append(f"{path}.{name}: value must be finite")
        elif abs(v) > limit:
            violations.append(f"{path}.{name}: magnitude must be at most {limit:g}, got {v}")
    return violations


def validate_scenario(scenario: Scenario) -> list[str]:
    """Check a scenario against every rule; returns the list of violations
    (empty = valid).

    This is the one list of rules, whether the scenario came from
    load_scenario (which checks only JSON types) or was built in code, and
    each violation names the field or body it concerns:
    - workspace bounds finite and within MAGNITUDE_LIMIT, with x_min <
      x_max and y_min < y_max;
    - one or two robots, robot ids 1 or 2, obstacle ids >= 3, ids unique;
    - every radius positive, finite and at most MAGNITUDE_LIMIT; robot
      masses positive and finite; obstacle masses positive (UNBOUNDED
      allowed) and, when finite, at least MASS_RATIO_FLOOR times the
      heaviest robot;
    - body x, y and theta finite and within MAGNITUDE_LIMIT; no two bodies
      overlap; robots start inside the workspace;
    - params finite, rho, sigma2, sigma3, mv and mw > 0, sigma1 >= 1 and
      delta in [0, 1);
    - one target per robot, finite and within MAGNITUDE_LIMIT, and none
      for any other id;
    - sim dt, t_max and target_tolerance positive and finite, jump_cap an
      integer >= 1.

    Pure and idempotent: repeated calls on the same scenario return the
    same list and never mutate anything.
    """
    ws = scenario.workspace
    violations = _out_of_range("workspace", ws._asdict())
    if not (ws.x_min < ws.x_max and ws.y_min < ws.y_max):
        violations.append("workspace: bounds must satisfy x_min < x_max and y_min < y_max")

    bodies = scenario.bodies
    robots = scenario.robots()
    if not 1 <= len(robots) <= 2:
        violations.append(f"bodies: expected 1 or 2 robots, found {len(robots)}")
    seen: set[int] = set()
    for i, b in enumerate(bodies):
        path = f"bodies[{i}]"
        if b.is_robot and b.id not in (1, 2):
            violations.append(f"{path}.id: robots must use id 1 or 2, got {b.id}")
        elif not b.is_robot and not b.id >= 3:
            violations.append(f"{path}.id: obstacles must use ids >= 3, got {b.id}")
        if b.id in seen:
            violations.append(f"{path}.id: duplicate body id {b.id}")
        seen.add(b.id)
        if not math.isfinite(b.radius):
            violations.append(f"{path}.radius: value must be finite")
        elif not b.radius > 0.0:
            violations.append(f"{path}.radius: value must be > 0, got {b.radius}")
        else:
            violations += _out_of_range(path, {"radius": b.radius})
        if b.is_robot and not math.isfinite(b.mass):
            violations.append(f"{path}.mass: robots must have finite mass")
        elif not b.mass > 0.0:
            violations.append(f"{path}.mass: value must be > 0, got {b.mass}")
        violations += _out_of_range(path, {"x": b.x, "y": b.y, "theta": b.theta})

    for a_idx in range(len(bodies)):
        for b_idx in range(a_idx + 1, len(bodies)):
            a, b = bodies[a_idx], bodies[b_idx]
            dist = math.hypot(a.x - b.x, a.y - b.y)
            if dist <= a.radius + b.radius:
                violations.append(
                    f"bodies {a.id} and {b.id} overlap initially "
                    f"(center distance {dist:.6g} <= radii sum {a.radius + b.radius:.6g})"
                )

    for robot in robots:
        if not ws.contains(robot.x, robot.y):
            violations.append(f"robot {robot.id} starts outside the workspace")

    max_robot_mass = max((r.mass for r in robots), default=0.0)
    for obstacle in scenario.obstacles():
        if math.isinf(obstacle.mass):
            continue
        if obstacle.mass < MASS_RATIO_FLOOR * max_robot_mass:
            violations.append(
                f"obstacle {obstacle.id} mass {obstacle.mass:.6g} is below "
                f"{MASS_RATIO_FLOOR:g}x the heaviest robot mass {max_robot_mass:.6g}"
            )

    p = scenario.params
    params = {key: getattr(p, name) for key, name in PARAM_FIELDS.items()}
    violations += _out_of_range("params", params, math.inf)
    for name in ("rho", "sigma2", "sigma3", "mv", "mw"):
        if params[name] <= 0.0:
            violations.append(f"params.{name}: value must be > 0, got {params[name]}")
    if p.sigma1 < 1.0:
        violations.append(f"params.sigma1: value must be >= 1, got {p.sigma1}")
    if not 0.0 <= p.delta < 1.0:
        violations.append(f"params.delta: value must lie in [0, 1), got {p.delta}")

    robot_ids = set(scenario.robot_ids())
    for rid in sorted(robot_ids - scenario.targets.keys()):
        violations.append(f"targets: missing target for robot {rid}")
    for rid in sorted(scenario.targets.keys() - robot_ids):
        violations.append(f"targets.{rid}: no robot with this id")
    for rid, target in sorted(scenario.targets.items()):
        violations += _out_of_range(f"targets.{rid}", target._asdict())

    for name in ("dt", "t_max", "target_tolerance"):
        value = getattr(scenario, name)
        if not math.isfinite(value):
            violations.append(f"sim.{name}: value must be finite")
        elif not value > 0.0:
            violations.append(f"sim.{name}: value must be > 0, got {value}")
    cap = scenario.jump_cap
    if isinstance(cap, bool) or not isinstance(cap, int) or cap < 1:
        violations.append(f"sim.jump_cap: expected a positive integer, got {cap!r}")

    return violations


def _mass_json(mass: float) -> Any:
    return "unbounded" if math.isinf(mass) else mass


def serialize(scenario: Scenario) -> str:
    """Serialize to the published JSON schema; load_scenario round-trips it."""
    bodies = []
    for b in scenario.bodies:
        body = b._asdict()
        body.update(kind=b.kind.value, mass=_mass_json(b.mass))
        if not b.is_robot:
            # an obstacle has a position only
            del body["theta"]
        bodies.append(body)
    doc = {
        "workspace": scenario.workspace._asdict(),
        "bodies": bodies,
        "targets": {str(rid): t._asdict() for rid, t in sorted(scenario.targets.items())},
        "params": {key: getattr(scenario.params, name) for key, name in PARAM_FIELDS.items()},
        "sim": {name: getattr(scenario, name) for name in SIM_FIELDS},
    }
    return json.dumps(doc, indent=2)
