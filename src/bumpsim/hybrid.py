"""Hybrid executor: flows, collision events, jump maps, trace, metrics.

Each robot carries a discrete mode q alongside its pose: q = 0 runs the
predefined controller, q = 1 runs the constant-heading local escape
controller installed after a heading-changing collision.  q is 1 exactly
while the robot holds a LocalPhase; `HybridState.phases` is its only
record.  Every contact, found by event localization or by the sweep at an
instant, goes through one pair-table row and one ContactQuery.  The executor
integrates the unicycle flow with fixed-step classical RK4 under
zero-order-hold inputs, localizes contact events by bisection inside a
step, applies the collision/impulse jump maps, and records everything in
an ordered trace.

The SimMode REDESIGNED runs the full strategy, while
PREDEFINED_ONLY still resolves collision physics (headings and speeds
jump) but never applies impulses or local phases - the ablation that
exhibits chattering/deadlock.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Mapping, NamedTuple

from .collision import (
    CONTACT_TOL,
    ContactQuery,
    ContactStatus,
    check_collision,
    resolve_collision,
)
from .controller import predefined_control
from .redesign import (
    LocalPhase,
    deconflict_headings,
    impulse,
    local_control,
    local_duration,
    select_escape_heading,
    tangent_rays,
)
from .scenario import Body, ControlInput, RobotState, Scenario, validate_scenario

EVENT_TIME_TOL = 1e-12


class SimMode(Enum):
    PREDEFINED_ONLY = "predefined"
    REDESIGNED = "redesigned"


# --------------------------------------------------------------------------
# Trace records


@dataclass(frozen=True, slots=True)
class FlowSample:
    t: float
    robot_id: int
    x: float
    y: float
    theta: float
    v: float
    w: float
    q: int


@dataclass(frozen=True, slots=True)
class CollisionRecord:
    """One robot's view of a rigid-body contact (robot-robot contacts
    produce one record per robot)."""

    t: float
    robot_id: int
    other_id: int
    x: float
    y: float
    theta_pre: float
    theta_post: float
    v_pre: float
    v_post: float
    phi: float
    lam: float
    mu: float
    q: int


@dataclass(frozen=True, slots=True)
class ImpulseRecord:
    t: float
    robot_id: int
    theta_escape: float
    dtheta: float


@dataclass(frozen=True, slots=True)
class SwitchRecord:
    t: float
    robot_id: int
    q_from: int
    q_to: int


@dataclass(frozen=True, slots=True)
class TargetReachedRecord:
    t: float
    robot_id: int


@dataclass(frozen=True, slots=True)
class FaultRecord:
    t: float
    reason: str
    fatal: bool


TraceRecord = (
    FlowSample
    | CollisionRecord
    | ImpulseRecord
    | SwitchRecord
    | TargetReachedRecord
    | FaultRecord
)


@dataclass(slots=True)
class Trace:
    scenario: Scenario
    sim_mode: SimMode
    records: list

    def samples(self, robot_id: int) -> list[FlowSample]:
        return [r for r in self.records if isinstance(r, FlowSample) and r.robot_id == robot_id]

    def collisions(self, robot_id: int | None = None) -> list[CollisionRecord]:
        return [
            r
            for r in self.records
            if isinstance(r, CollisionRecord) and (robot_id is None or r.robot_id == robot_id)
        ]


# --------------------------------------------------------------------------
# Flow integration and event localization


def step_flow(state: RobotState, u: ControlInput, dt: float) -> RobotState:
    """One classical RK4 step of the unicycle flow under a held input.

    Constant-heading motion (w = 0) integrates exactly; the general case
    carries O(dt^5) local error.
    """
    v, w = u.v, u.w
    th1 = state.theta
    k1x, k1y = v * math.cos(th1), v * math.sin(th1)
    # The heading flow does not depend on position, so the two midpoint
    # stages see the same heading: k3 == k2.
    th2 = state.theta + 0.5 * dt * w
    k2x, k2y = v * math.cos(th2), v * math.sin(th2)
    th4 = state.theta + dt * w
    k4x, k4y = v * math.cos(th4), v * math.sin(th4)
    return RobotState(
        x=state.x + dt / 6.0 * (k1x + 2.0 * k2x + 2.0 * k2x + k4x),
        y=state.y + dt / 6.0 * (k1y + 2.0 * k2y + 2.0 * k2y + k4y),
        theta=state.theta + dt * w,
    )


@dataclass(frozen=True, slots=True)
class EventHit:
    """Earliest contact crossing inside a step: offset from the step start
    and the pair involved; `simultaneous` lists later-blocked ties."""

    t_offset: float
    robot_id: int
    other_id: int
    simultaneous: tuple[tuple[int, int], ...] = ()


class ContactPair(NamedTuple):
    """One entry of the pair table: robot i against body j, their radii
    sum, and j's fixed position when j is an obstacle (None for a robot)."""

    i: int
    j: int
    rsum: float
    fixed: tuple[float, float] | None


def contact_pairs(scenario: Scenario) -> list[ContactPair]:
    """The pair table: the robot-robot pair first, then every robot against
    every obstacle, robots sorted by id."""
    pairs: list[ContactPair] = []
    robots = sorted(scenario.robots(), key=lambda b: b.id)
    if len(robots) == 2:
        pairs.append(ContactPair(robots[0].id, robots[1].id, robots[0].radius + robots[1].radius, None))
    for robot in robots:
        for obstacle in scenario.obstacles():
            pairs.append(
                ContactPair(robot.id, obstacle.id, robot.radius + obstacle.radius, obstacle.position)
            )
    return pairs


def gap(pair: ContactPair, states: Mapping[int, RobotState]) -> float:
    """Center distance minus radii sum: positive apart, zero touching,
    negative overlapping.  `states` maps robot id to anything with x, y."""
    i, j, rsum, fixed = pair
    si = states[i]
    if fixed is None:
        sj = states[j]
        jx, jy = sj.x, sj.y
    else:
        jx, jy = fixed
    return math.hypot(jx - si.x, jy - si.y) - rsum


def contact_query(
    pair: ContactPair,
    states: Mapping[int, RobotState],
    inputs: Mapping[int, ControlInput],
    body: Mapping[int, Body],
) -> ContactQuery:
    """The pair's contact snapshot under the commanded speeds; an obstacle
    j sits at the pair's fixed position with v = theta = 0."""
    i, j, _, fixed = pair
    si = states[i]
    if fixed is None:
        sj = states[j]
        p_j, v_j, theta_j = sj.position, inputs[j].v, sj.theta
    else:
        p_j, v_j, theta_j = fixed, 0.0, 0.0
    bi, bj = body[i], body[j]
    return ContactQuery.build(
        i_id=i,
        j_id=j,
        p_i=si.position,
        p_j=p_j,
        r_i=bi.radius,
        r_j=bj.radius,
        m_i=bi.mass,
        m_j=bj.mass,
        v_i=inputs[i].v,
        v_j=v_j,
        theta_i=si.theta,
        theta_j=theta_j,
    )


def detect_event(
    pairs: list[ContactPair],
    states: Mapping[int, RobotState],
    inputs: Mapping[int, ControlInput],
    h: float,
    next_states: Mapping[int, RobotState] | None = None,
    time_tol: float = EVENT_TIME_TOL,
) -> EventHit | None:
    """Find the earliest pair gap zero-crossing inside the step [0, h].

    A crossing needs a positive gap at the step start and a negative gap
    at the end; the hit time is then localized by bisection on the RK4
    flow to `time_tol` seconds, landing on the non-penetrating side.
    Simultaneous crossings (within time_tol) are reported with the
    lexicographically smallest pair first.
    """
    if next_states is None:
        next_states = {rid: step_flow(states[rid], inputs[rid], h) for rid in states}

    hits: list[tuple[float, int, int]] = []
    for pair in pairs:
        if gap(pair, states) > 0.0 and gap(pair, next_states) < 0.0:
            i, j, _, fixed = pair
            probe: dict[int, RobotState] = {}
            lo, hi = 0.0, h
            while hi - lo > time_tol:
                mid = 0.5 * (lo + hi)
                # each probe steps only the pair's robots
                probe[i] = step_flow(states[i], inputs[i], mid)
                if fixed is None:
                    probe[j] = step_flow(states[j], inputs[j], mid)
                if gap(pair, probe) > 0.0:
                    lo = mid
                else:
                    hi = mid
            hits.append((lo, i, j))

    if not hits:
        return None
    t_first = min(tau for (tau, _, _) in hits)
    tied = sorted((i, j) for (tau, i, j) in hits if tau - t_first <= time_tol)
    return EventHit(
        t_offset=t_first,
        robot_id=tied[0][0],
        other_id=tied[0][1],
        simultaneous=tuple(tied[1:]),
    )


# --------------------------------------------------------------------------
# Hybrid state and jump maps


@dataclass(slots=True)
class HybridState:
    t: float
    states: dict[int, RobotState]
    phases: dict[int, LocalPhase | None]
    jumps: int = 0

    def copy(self) -> "HybridState":
        return HybridState(
            t=self.t,
            states=dict(self.states),
            phases=dict(self.phases),
            jumps=self.jumps,
        )


@dataclass(frozen=True, slots=True)
class ReactivationEvent:
    robot_id: int


def jump(
    hstate: HybridState,
    event: ContactQuery | ReactivationEvent,
    scenario: Scenario,
    sim_mode: SimMode = SimMode.REDESIGNED,
) -> tuple[HybridState, list, dict[int, float]]:
    """Apply one hybrid jump and return (new state, records, post speeds).

    A ReactivationEvent clears the robot's local phase and switches it back
    to the predefined controller with the pose untouched.  A ContactQuery
    resolves the collision physics for its pair; robots whose heading
    changes get the redesign treatment (escape impulse plus a fresh local
    phase) in REDESIGNED mode, while PREDEFINED_ONLY applies the heading
    jump alone.  Headings unchanged within tolerance leave the robot
    flowing in its current mode.  The returned speeds are the
    post-collision linear speeds of the involved robots.
    """
    out = hstate.copy()
    records: list = []
    post_speeds: dict[int, float] = {}

    if isinstance(event, ReactivationEvent):
        rid = event.robot_id
        out.phases[rid] = None
        records.append(SwitchRecord(t=out.t, robot_id=rid, q_from=1, q_to=0))
        out.jumps += 1
        return (out, records, post_speeds)

    query = event
    i, j = query.i_id, query.j_id
    j_is_robot = j in out.states
    delta = scenario.params.delta
    out_i, out_j = resolve_collision(
        query,
        delta_i=delta,
        delta_j=delta if j_is_robot else 0.0,
        body_j_is_robot=j_is_robot,
    )

    # (robot, other body, robot position, other position, other radius, outcome)
    outcomes = [(i, j, query.p_i, query.p_j, query.r_j, out_i)]
    if out_j is not None:
        outcomes.append((j, i, query.p_j, query.p_i, query.r_i, out_j))

    # Escape headings, deconflicted when both robots of a robot-robot
    # contact need the redesign.
    escapes: dict[int, float] = {}
    if sim_mode is SimMode.REDESIGNED:
        geo: dict[int, tuple[float, float]] = {}
        for rid, _, p_robot, p_other, _, oc in outcomes:
            if oc.redesign_needed:
                rays = tangent_rays(p_other, p_robot, query.r_i + query.r_j)
                target = scenario.targets[rid]
                geo[rid] = select_escape_heading(rays, (target.x, target.y))
        escapes = {rid: theta for rid, (theta, _) in geo.items()}
        if len(geo) == 2:
            (id1, (th1, phi1)), (id2, (th2, phi2)) = geo.items()
            escapes[id1], escapes[id2] = deconflict_headings(th1, th2, phi1, phi2)

    for rid, other_id, _, _, r_other, oc in outcomes:
        pre_state = out.states[rid]
        post_speeds[rid] = oc.v_plus
        switch_needed = rid in escapes and out.phases[rid] is None
        if oc.redesign_needed:
            # The physics heading theta_plus applies first; in REDESIGNED
            # mode the impulse then retargets it onto the escape heading.
            out.states[rid] = RobotState(pre_state.x, pre_state.y, escapes.get(rid, oc.theta_plus))
        if rid in escapes:
            v_loc = scenario.params.m_v
            out.phases[rid] = LocalPhase(
                collided_id=other_id,
                v_loc=v_loc,
                t_dur=local_duration(v_loc, other_id in out.states, r_other),
            )
        records.append(
            CollisionRecord(
                t=out.t,
                robot_id=rid,
                other_id=other_id,
                x=pre_state.x,
                y=pre_state.y,
                theta_pre=oc.theta_pre,
                theta_post=oc.theta_plus if oc.redesign_needed else oc.theta_pre,
                v_pre=oc.v_pre,
                v_post=oc.v_plus,
                phi=query.frame.phi,
                lam=oc.lam,
                mu=oc.mu,
                q=int(out.phases[rid] is not None),
            )
        )
        if rid in escapes:
            dtheta = impulse(escapes[rid], oc.theta_plus)[2]
            records.append(
                ImpulseRecord(t=out.t, robot_id=rid, theta_escape=escapes[rid], dtheta=dtheta)
            )
            if switch_needed:
                records.append(SwitchRecord(t=out.t, robot_id=rid, q_from=0, q_to=1))

    out.jumps += sum(1 for r in records if isinstance(r, (CollisionRecord, SwitchRecord)))
    return (out, records, post_speeds)


# --------------------------------------------------------------------------
# Executor


def reactivation_due(
    pairs: list[ContactPair],
    states: Mapping[int, RobotState],
    rid: int,
    phase: LocalPhase | None,
) -> bool:
    """The reactivation rule for robot rid's local phase.

    True when the phase has expired and every pair containing rid has a
    strictly positive gap.  An expired phase without that clearance is
    extended by t_dur / 10 instead (NonSeparableError past the cap).
    """
    if phase is None or not phase.expired():
        return False
    if all(gap(pair, states) > 0.0 for pair in pairs if rid in (pair.i, pair.j)):
        return True
    phase.extend()
    return False


def _norm3(state: RobotState, target: RobotState) -> float:
    return math.sqrt(
        (state.x - target.x) ** 2 + (state.y - target.y) ** 2 + (state.theta - target.theta) ** 2
    )


def simulate(scenario: Scenario, sim_mode: SimMode = SimMode.REDESIGNED) -> Trace:
    """Run one deterministic simulation and return the full trace.

    Terminates when every robot has been within target tolerance, when
    t reaches t_max, or when the jump counter hits the scenario's cap
    (recorded as a fatal non-convergence fault).  Raises
    PenetrationError/NonSeparableError on integration or separation
    failures, and ValueError when the scenario does not validate.
    """
    violations = validate_scenario(scenario)
    if violations:
        raise ValueError("scenario does not validate: " + "; ".join(violations))

    robots = sorted(scenario.robots(), key=lambda b: b.id)
    robot_ids = [b.id for b in robots]
    bodies = scenario.bodies
    params = scenario.params
    body = {b.id: b for b in bodies}
    pairs = contact_pairs(scenario)
    pair_by_ids = {(pair.i, pair.j): pair for pair in pairs}

    hs = HybridState(
        t=0.0,
        states={b.id: b.state() for b in robots},
        phases={b.id: None for b in robots},
    )
    records: list = []
    reached = {rid: False for rid in robot_ids}
    fatal = False
    # Per-instant bookkeeping (cleared whenever t advances): robots already
    # involved in a collision, and the pairs already resolved.
    collided_marks: set[int] = set()
    resolved_pairs: set[tuple[int, int]] = set()

    def cap_fault() -> bool:
        nonlocal fatal
        if hs.jumps >= scenario.jump_cap:
            records.append(
                FaultRecord(
                    t=hs.t,
                    reason=f"non-convergent: jump counter reached the cap ({scenario.jump_cap})",
                    fatal=True,
                )
            )
            fatal = True
            return True
        return False

    def compute_inputs() -> dict[int, ControlInput]:
        positions = {rid: hs.states[rid].position for rid in robot_ids}
        out: dict[int, ControlInput] = {}
        for rid in robot_ids:
            phase = hs.phases[rid]
            if phase is not None:
                out[rid] = local_control(phase)
            else:
                decision = predefined_control(
                    rid, hs.states[rid], scenario.targets[rid], bodies, positions, params
                )
                out[rid] = decision.u
        return out

    def apply_jump(event: ContactQuery | ReactivationEvent, inputs: dict[int, ControlInput] | None):
        nonlocal hs
        hs, recs, post_speeds = jump(hs, event, scenario, sim_mode)
        records.extend(recs)
        if isinstance(event, ContactQuery):
            # post_speeds is keyed by exactly the robots of the contact
            collided_marks.update(post_speeds)
            resolved_pairs.add((event.i_id, event.j_id))
        if inputs is not None:
            for rid, v_plus in post_speeds.items():
                phase = hs.phases[rid]
                if phase is not None:
                    inputs[rid] = local_control(phase)
                else:
                    inputs[rid] = ControlInput(v_plus, inputs[rid].w)
        return cap_fault()

    def contact_sweep(inputs: dict[int, ControlInput]) -> None:
        # Resolve all touching-and-approaching pairs at the current instant.
        # Each robot participates in at most one collision per instant;
        # extra simultaneous contacts are deferred with a warning.
        progress = True
        while progress and not fatal:
            progress = False
            for pair in pairs:
                i, j = pair.i, pair.j
                if gap(pair, hs.states) > CONTACT_TOL or (i, j) in resolved_pairs:
                    # apart, or already jumped at this instant: it flows on
                    continue
                query = contact_query(pair, hs.states, inputs, body)
                if check_collision(query) is not ContactStatus.JUMP:
                    continue
                if i in collided_marks or j in collided_marks:
                    # a robot can take only one collision per instant
                    records.append(
                        FaultRecord(
                            t=hs.t,
                            reason=f"simultaneous contacts at one instant; pair ({i}, {j}) deferred",
                            fatal=False,
                        )
                    )
                    continue
                progress = True
                if apply_jump(query, inputs):
                    return

    while True:
        if not fatal:
            for rid in robot_ids:
                if reactivation_due(pairs, hs.states, rid, hs.phases[rid]):
                    if apply_jump(ReactivationEvent(rid), None):
                        break
        if not fatal:
            for rid in robot_ids:
                if not reached[rid] and _norm3(hs.states[rid], scenario.targets[rid]) <= scenario.target_tolerance:
                    reached[rid] = True
                    records.append(TargetReachedRecord(t=hs.t, robot_id=rid))

        inputs = compute_inputs() if not fatal else {rid: ControlInput(0.0, 0.0) for rid in robot_ids}
        if not fatal:
            contact_sweep(inputs)

        for rid in robot_ids:
            s = hs.states[rid]
            u = inputs[rid]
            records.append(
                FlowSample(
                    t=hs.t, robot_id=rid, x=s.x, y=s.y, theta=s.theta, v=u.v, w=u.w,
                    q=int(hs.phases[rid] is not None),
                )
            )

        if fatal or all(reached.values()) or hs.t >= scenario.t_max - 1e-12:
            break

        h = min(scenario.dt, scenario.t_max - hs.t)
        for rid in robot_ids:
            phase = hs.phases[rid]
            if phase is not None:
                remaining = phase.t_dur + phase.extension - phase.elapsed
                if remaining > 0.0:
                    h = min(h, remaining)

        next_states = {rid: step_flow(hs.states[rid], inputs[rid], h) for rid in robot_ids}
        hit = detect_event(pairs, hs.states, inputs, h, next_states)
        if hit is None:
            hs.states = next_states
            advance = h
        else:
            advance = hit.t_offset
            hs.states = {
                rid: step_flow(hs.states[rid], inputs[rid], advance) for rid in robot_ids
            }
        hs.t += advance
        for rid in robot_ids:
            phase = hs.phases[rid]
            if phase is not None:
                phase.elapsed += advance
        collided_marks.clear()
        resolved_pairs.clear()

        if hit is not None:
            for extra_pair in hit.simultaneous:
                records.append(
                    FaultRecord(
                        t=hs.t,
                        reason=(
                            "simultaneous contact crossings; pair "
                            f"({extra_pair[0]}, {extra_pair[1]}) deferred"
                        ),
                        fatal=False,
                    )
                )
            pair = pair_by_ids[(hit.robot_id, hit.other_id)]
            if apply_jump(contact_query(pair, hs.states, inputs, body), None):
                # Cap hit exactly at this event: fall through to emit the
                # closing samples on the next loop pass.
                continue

    return Trace(scenario=scenario, sim_mode=sim_mode, records=records)


# --------------------------------------------------------------------------
# Metrics


@dataclass(slots=True)
class RobotMetrics:
    reached: bool
    completion_time: float | None
    collisions: int
    min_clearance: float | None


@dataclass(slots=True)
class TraceMetrics:
    robots: dict[int, RobotMetrics]
    total_jumps: int
    fault: bool
    fault_reasons: tuple[str, ...]

    def to_dict(self) -> dict:
        return {
            "robots": {
                str(rid): {
                    "reached": m.reached,
                    "completion_time": m.completion_time,
                    "collisions": m.collisions,
                    "min_clearance": m.min_clearance,
                }
                for rid, m in sorted(self.robots.items())
            },
            "total_jumps": self.total_jumps,
            "fault": self.fault,
            "fault_reasons": list(self.fault_reasons),
        }


def metrics(trace: Trace) -> TraceMetrics:
    """Pure fold over the trace records."""
    scenario = trace.scenario
    robot_ids = sorted(scenario.robot_ids())
    pairs = contact_pairs(scenario)

    per_robot = {
        rid: RobotMetrics(reached=False, completion_time=None, collisions=0, min_clearance=None)
        for rid in robot_ids
    }
    total_jumps = 0
    fault = False
    reasons: list[str] = []
    # One sampling pass writes a FlowSample per robot, in id order.
    sample_pass: dict[int, FlowSample] = {}

    def update_clearance(rid: int, value: float) -> None:
        m = per_robot[rid]
        if m.min_clearance is None or value < m.min_clearance:
            m.min_clearance = value

    for record in trace.records:
        if isinstance(record, FlowSample):
            sample_pass[record.robot_id] = record
            if record.robot_id == robot_ids[-1]:
                for pair in pairs:
                    clearance = gap(pair, sample_pass)
                    update_clearance(pair.i, clearance)
                    if pair.fixed is None:
                        update_clearance(pair.j, clearance)
        elif isinstance(record, CollisionRecord):
            per_robot[record.robot_id].collisions += 1
            total_jumps += 1
        elif isinstance(record, SwitchRecord):
            total_jumps += 1
        elif isinstance(record, TargetReachedRecord):
            m = per_robot[record.robot_id]
            if not m.reached:
                m.reached = True
                m.completion_time = record.t
        elif isinstance(record, FaultRecord):
            if record.fatal:
                fault = True
            reasons.append(record.reason)

    return TraceMetrics(
        robots=per_robot, total_jumps=total_jumps, fault=fault, fault_reasons=tuple(reasons)
    )


# --------------------------------------------------------------------------
# Trace serialization

CSV_HEADER = "t,record_type,robot_id,other_id,x,y,theta,v,w,q,extra"


def _fmt(value: float) -> str:
    # 17 significant digits round-trips IEEE doubles bit-exactly.
    return format(value, ".17g")


def _csv_row(record: TraceRecord) -> str:
    t = _fmt(record.t)
    if isinstance(record, FlowSample):
        cells = [
            t, "sample", str(record.robot_id), "",
            _fmt(record.x), _fmt(record.y), _fmt(record.theta),
            _fmt(record.v), _fmt(record.w), str(record.q), "",
        ]
    elif isinstance(record, CollisionRecord):
        extra = (
            f"theta_pre={_fmt(record.theta_pre)};v_pre={_fmt(record.v_pre)};"
            f"phi={_fmt(record.phi)};lam={_fmt(record.lam)};mu={_fmt(record.mu)}"
        )
        cells = [
            t, "collision", str(record.robot_id), str(record.other_id),
            _fmt(record.x), _fmt(record.y), _fmt(record.theta_post),
            _fmt(record.v_post), "", str(record.q), extra,
        ]
    elif isinstance(record, ImpulseRecord):
        cells = [
            t, "impulse", str(record.robot_id), "",
            "", "", _fmt(record.theta_escape), "", "", "",
            f"dtheta={_fmt(record.dtheta)}",
        ]
    elif isinstance(record, SwitchRecord):
        cells = [
            t, "switch", str(record.robot_id), "",
            "", "", "", "", "", str(record.q_to), f"from={record.q_from}",
        ]
    elif isinstance(record, TargetReachedRecord):
        cells = [t, "target_reached", str(record.robot_id), "", "", "", "", "", "", "", ""]
    elif isinstance(record, FaultRecord):
        reason = record.reason.replace(",", ";")
        cells = [t, "fault", "", "", "", "", "", "", "", "", f"{reason};fatal={int(record.fatal)}"]
    else:  # pragma: no cover - records are a closed union
        raise TypeError(f"unknown record {record!r}")
    return ",".join(cells)


def trace_to_csv(trace: Trace) -> str:
    lines = [CSV_HEADER]
    lines.extend(_csv_row(r) for r in trace.records)
    return "\n".join(lines) + "\n"


def write_trace_csv(trace: Trace, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(trace_to_csv(trace))


def plot_csv(trace: Trace, robot_id: int) -> str:
    lines = ["t,x,y,theta,v,w"]
    for s in trace.samples(robot_id):
        lines.append(
            ",".join((_fmt(s.t), _fmt(s.x), _fmt(s.y), _fmt(s.theta), _fmt(s.v), _fmt(s.w)))
        )
    return "\n".join(lines) + "\n"


def write_plot_csv(trace: Trace, robot_id: int, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(plot_csv(trace, robot_id))
