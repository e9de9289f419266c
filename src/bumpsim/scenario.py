"""Scenario data model: load, validate and serialize simulation setups.

A scenario is a single JSON document describing the workspace rectangle,
the rigid bodies (one or two robots plus static cylindrical obstacles),
per-robot target states, controller parameters and integration settings.
All values are immutable after loading, so a scenario can be shared
read-only across concurrent simulations.  The per-step values `RobotState`
and `ControlInput` are NamedTuples, built positionally on the hot path: they
are immutable (assigning a field raises AttributeError), hashable, unpack like
tuples (`x, y, theta = state`) and compare equal to plain tuples.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from enum import Enum
from typing import Any, NamedTuple

UNBOUNDED = math.inf

DEFAULT_DT = 1e-3
DEFAULT_T_MAX = 60.0
DEFAULT_TARGET_TOLERANCE = 1e-2
DEFAULT_JUMP_CAP = 100_000
DEFAULT_DELTA = 0.0

# Finite obstacle masses below this multiple of the heaviest robot fail
# validation; "sufficiently heavy" obstacles should normally be unbounded.
MASS_RATIO_FLOOR = 100.0


class ScenarioError(Exception):
    """Base class for scenario loading problems."""


class ParseError(ScenarioError):
    """The document is not well-formed JSON."""


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

    @property
    def position(self) -> tuple[float, float]:
        return (self.x, self.y)


class ControlInput(NamedTuple):
    """Unicycle input: linear velocity v [m/s] and angular velocity w [rad/s]."""

    v: float
    w: float


@dataclass(frozen=True, slots=True)
class WorkspaceRect:
    x_min: float
    x_max: float
    y_min: float
    y_max: float

    def contains(self, x: float, y: float) -> bool:
        return self.x_min <= x <= self.x_max and self.y_min <= y <= self.y_max


@dataclass(frozen=True, slots=True)
class Body:
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


@dataclass(frozen=True, slots=True)
class ControllerParams:
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


@dataclass(frozen=True, slots=True)
class Scenario:
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
        return tuple(b.id for b in self.robots())

    def body(self, body_id: int) -> Body:
        for b in self.bodies:
            if b.id == body_id:
                return b
        raise KeyError(f"no body with id {body_id}")


def _require(obj: dict, key: str, path: str) -> Any:
    if key not in obj:
        raise SchemaError(f"{path}.{key}: missing required field")
    return obj[key]


def _number(value: Any, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SchemaError(f"{path}: expected a number, got {value!r}")
    out = float(value)
    if not math.isfinite(out):
        raise SchemaError(f"{path}: value must be finite")
    return out


def _positive(value: Any, path: str) -> float:
    out = _number(value, path)
    if out <= 0.0:
        raise SchemaError(f"{path}: value must be > 0, got {out}")
    return out


def _parse_workspace(obj: Any) -> WorkspaceRect:
    if not isinstance(obj, dict):
        raise SchemaError("workspace: expected an object")
    ws = WorkspaceRect(
        x_min=_number(_require(obj, "x_min", "workspace"), "workspace.x_min"),
        x_max=_number(_require(obj, "x_max", "workspace"), "workspace.x_max"),
        y_min=_number(_require(obj, "y_min", "workspace"), "workspace.y_min"),
        y_max=_number(_require(obj, "y_max", "workspace"), "workspace.y_max"),
    )
    if not (ws.x_min < ws.x_max and ws.y_min < ws.y_max):
        raise SchemaError("workspace: bounds must satisfy x_min < x_max and y_min < y_max")
    return ws


def _parse_body(obj: Any, idx: int) -> Body:
    path = f"bodies[{idx}]"
    if not isinstance(obj, dict):
        raise SchemaError(f"{path}: expected an object")
    body_id = _require(obj, "id", path)
    if isinstance(body_id, bool) or not isinstance(body_id, int) or body_id < 1:
        raise SchemaError(f"{path}.id: expected a positive integer, got {body_id!r}")
    kind_raw = _require(obj, "kind", path)
    if not isinstance(kind_raw, str) or kind_raw.lower() not in ("robot", "obstacle"):
        raise SchemaError(f"{path}.kind: expected 'robot' or 'obstacle', got {kind_raw!r}")
    kind = BodyKind(kind_raw.lower())
    if kind is BodyKind.ROBOT and body_id not in (1, 2):
        raise SchemaError(f"{path}.id: robots must use id 1 or 2, got {body_id}")
    if kind is BodyKind.OBSTACLE and body_id < 3:
        raise SchemaError(f"{path}.id: obstacles must use ids >= 3, got {body_id}")
    radius = _positive(_require(obj, "radius", path), f"{path}.radius")

    if "mass" in obj:
        mass_raw = obj["mass"]
        if mass_raw == "unbounded":
            mass = UNBOUNDED
        else:
            mass = _positive(mass_raw, f"{path}.mass")
    elif kind is BodyKind.OBSTACLE:
        mass = UNBOUNDED
    else:
        # Robot mass defaults to 1 kg; only mass ratios enter the physics.
        mass = 1.0
    if kind is BodyKind.ROBOT and math.isinf(mass):
        raise SchemaError(f"{path}.mass: robots must have finite mass")

    x = _number(_require(obj, "x", path), f"{path}.x")
    y = _number(_require(obj, "y", path), f"{path}.y")
    theta = _number(obj.get("theta", 0.0), f"{path}.theta")
    return Body(id=body_id, kind=kind, radius=radius, mass=mass, x=x, y=y, theta=theta)


def _parse_params(obj: Any) -> ControllerParams:
    if not isinstance(obj, dict):
        raise SchemaError("params: expected an object")
    return ControllerParams(
        rho=_number(_require(obj, "rho", "params"), "params.rho"),
        sigma1=_number(_require(obj, "sigma1", "params"), "params.sigma1"),
        sigma2=_number(_require(obj, "sigma2", "params"), "params.sigma2"),
        sigma3=_number(_require(obj, "sigma3", "params"), "params.sigma3"),
        m_v=_number(_require(obj, "mv", "params"), "params.mv"),
        m_w=_number(_require(obj, "mw", "params"), "params.mw"),
        delta=_number(obj.get("delta", DEFAULT_DELTA), "params.delta"),
    )


def load_scenario(text: str) -> Scenario:
    """Parse a scenario document, applying defaults for optional fields.

    Raises ParseError for malformed JSON and SchemaError (with a field
    path) for structural problems.  Physical-consistency checks live in
    validate_scenario.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"malformed scenario document: {exc}") from exc
    if not isinstance(doc, dict):
        raise SchemaError("top level: expected an object")

    workspace = _parse_workspace(_require(doc, "workspace", "top level"))

    bodies_raw = _require(doc, "bodies", "top level")
    if not isinstance(bodies_raw, list) or not bodies_raw:
        raise SchemaError("bodies: expected a non-empty array")
    bodies = tuple(_parse_body(b, i) for i, b in enumerate(bodies_raw))
    seen: set[int] = set()
    for i, b in enumerate(bodies):
        if b.id in seen:
            raise SchemaError(f"bodies[{i}].id: duplicate body id {b.id}")
        seen.add(b.id)
    robot_ids = [b.id for b in bodies if b.is_robot]
    if not 1 <= len(robot_ids) <= 2:
        raise SchemaError(f"bodies: expected 1 or 2 robots, found {len(robot_ids)}")

    targets_raw = _require(doc, "targets", "top level")
    if not isinstance(targets_raw, dict):
        raise SchemaError("targets: expected an object keyed by robot id")
    targets: dict[int, RobotState] = {}
    for key, val in targets_raw.items():
        try:
            rid = int(key)
        except ValueError:
            raise SchemaError(f"targets.{key}: key must be a robot id") from None
        if not isinstance(val, dict):
            raise SchemaError(f"targets.{key}: expected an object")
        targets[rid] = RobotState(
            x=_number(_require(val, "x", f"targets.{key}"), f"targets.{key}.x"),
            y=_number(_require(val, "y", f"targets.{key}"), f"targets.{key}.y"),
            theta=_number(_require(val, "theta", f"targets.{key}"), f"targets.{key}.theta"),
        )
    for rid in robot_ids:
        if rid not in targets:
            raise SchemaError(f"targets: missing target for robot {rid}")
    for rid in targets:
        if rid not in robot_ids:
            raise SchemaError(f"targets.{rid}: no robot with this id")

    params = _parse_params(_require(doc, "params", "top level"))

    sim = doc.get("sim", {})
    if not isinstance(sim, dict):
        raise SchemaError("sim: expected an object")
    dt = _positive(sim.get("dt", DEFAULT_DT), "sim.dt")
    t_max = _positive(sim.get("t_max", DEFAULT_T_MAX), "sim.t_max")
    target_tolerance = _positive(sim.get("target_tolerance", DEFAULT_TARGET_TOLERANCE), "sim.target_tolerance")
    jump_cap_raw = sim.get("jump_cap", DEFAULT_JUMP_CAP)
    if isinstance(jump_cap_raw, bool) or not isinstance(jump_cap_raw, int) or jump_cap_raw < 1:
        raise SchemaError(f"sim.jump_cap: expected a positive integer, got {jump_cap_raw!r}")

    return Scenario(
        workspace=workspace,
        bodies=bodies,
        targets=targets,
        params=params,
        dt=dt,
        t_max=t_max,
        target_tolerance=target_tolerance,
        jump_cap=jump_cap_raw,
    )


def validate_scenario(scenario: Scenario) -> list[str]:
    """Check physical consistency and the sim block; returns a list of
    violations (empty = valid).

    Pure and idempotent: repeated calls on the same scenario return the
    same list and never mutate anything.
    """
    violations: list[str] = []
    bodies = scenario.bodies
    robots = scenario.robots()

    # the rules load_scenario applies to the bodies, in its wording
    if not 1 <= len(robots) <= 2:
        violations.append(f"bodies: expected 1 or 2 robots, found {len(robots)}")
    seen: set[int] = set()
    for i, b in enumerate(bodies):
        if b.id in seen:
            violations.append(f"bodies[{i}].id: duplicate body id {b.id}")
        seen.add(b.id)
        if not math.isfinite(b.radius):
            violations.append(f"bodies[{i}].radius: value must be finite")
        elif b.radius <= 0.0:
            violations.append(f"bodies[{i}].radius: value must be > 0, got {b.radius}")
        if b.is_robot and not math.isfinite(b.mass):
            violations.append(f"bodies[{i}].mass: robots must have finite mass")
        elif b.is_robot and b.mass <= 0.0:
            violations.append(f"bodies[{i}].mass: value must be > 0, got {b.mass}")

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
        if not scenario.workspace.contains(robot.x, robot.y):
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
    if p.rho <= 0.0:
        violations.append(f"params.rho must be > 0, got {p.rho:.6g}")
    if p.sigma1 < 1.0:
        violations.append(f"params.sigma1 must be >= 1, got {p.sigma1:.6g}")
    if p.sigma2 <= 0.0:
        violations.append(f"params.sigma2 must be > 0, got {p.sigma2:.6g}")
    if p.sigma3 <= 0.0:
        violations.append(f"params.sigma3 must be > 0, got {p.sigma3:.6g}")
    if p.m_v <= 0.0:
        violations.append(f"params.mv must be > 0, got {p.m_v:.6g}")
    if p.m_w <= 0.0:
        violations.append(f"params.mw must be > 0, got {p.m_w:.6g}")
    if not 0.0 <= p.delta < 1.0:
        violations.append(f"params.delta must lie in [0, 1), got {p.delta:.6g}")

    # the rule load_scenario applies to the targets: one per robot
    robot_ids = set(scenario.robot_ids())
    for rid in sorted(robot_ids - scenario.targets.keys()):
        violations.append(f"targets: missing target for robot {rid}")
    for rid in sorted(scenario.targets.keys() - robot_ids):
        violations.append(f"targets.{rid}: no robot with this id")
    for rid, target in sorted(scenario.targets.items()):
        if not all(math.isfinite(v) for v in (target.x, target.y, target.theta)):
            violations.append(f"target for robot {rid} has non-finite components")

    # the bounds load_scenario applies to the sim block
    for name in ("dt", "t_max", "target_tolerance"):
        value = getattr(scenario, name)
        if not 0.0 < value < math.inf:
            violations.append(f"sim.{name} must be positive and finite, got {value:.6g}")
    cap = scenario.jump_cap
    if isinstance(cap, bool) or not isinstance(cap, int) or cap < 1:
        violations.append(f"sim.jump_cap must be a positive integer, got {cap!r}")

    return violations


def _mass_json(mass: float) -> Any:
    return "unbounded" if math.isinf(mass) else mass


def serialize(scenario: Scenario) -> str:
    """Serialize to the published JSON schema; load_scenario round-trips it."""
    doc = {
        "workspace": {
            "x_min": scenario.workspace.x_min,
            "x_max": scenario.workspace.x_max,
            "y_min": scenario.workspace.y_min,
            "y_max": scenario.workspace.y_max,
        },
        "bodies": [
            {
                "id": b.id,
                "kind": b.kind.value,
                "radius": b.radius,
                "mass": _mass_json(b.mass),
                "x": b.x,
                "y": b.y,
                **({"theta": b.theta} if b.is_robot else {}),
            }
            for b in scenario.bodies
        ],
        "targets": {
            str(rid): {"x": t.x, "y": t.y, "theta": t.theta}
            for rid, t in sorted(scenario.targets.items())
        },
        "params": {
            "rho": scenario.params.rho,
            "sigma1": scenario.params.sigma1,
            "sigma2": scenario.params.sigma2,
            "sigma3": scenario.params.sigma3,
            "mv": scenario.params.m_v,
            "mw": scenario.params.m_w,
            "delta": scenario.params.delta,
        },
        "sim": {
            "dt": scenario.dt,
            "t_max": scenario.t_max,
            "target_tolerance": scenario.target_tolerance,
            "jump_cap": scenario.jump_cap,
        },
    }
    return json.dumps(doc, indent=2)
