"""Hybrid executor: flows, collision events, jump maps, trace, metrics.

Each robot carries a discrete mode q alongside its pose: q = 0 runs the
predefined controller, q = 1 runs the constant-heading local escape
controller installed after a heading-changing collision.  q is 1 exactly
while the robot holds a LocalPhase; `HybridState.phases` is its only
record.  Every contact, found by event localization or by the sweep at
an instant, goes through one pair-table row and one ContactQuery.  Each
pair's gap is measured once per instant, by one pass that applies
`gap`'s expression inline and folds each gap into the pair's running
minimum, and that list is the only measurement of a sampled instant:
reactivation reads its robot's rows, the sweep decides touching and
penetration on it (`collision.check_collision` adds only the approach
test), event detection starts from it, and the running minimum becomes
the trace's `clearance`, which `metrics` reports; `gap` itself serves
event localization.  The executor integrates
the unicycle flow with fixed-step classical RK4 under zero-order-hold
inputs and localizes contact events inside a step by conservative
advancement: a pair whose start gap exceeds how far the step can move it
is culled, a two-sided bound on the start and end gaps skips most of the
rest, a golden-section search of the in-step minimum catches grazes that
dip below contact and come back out, and bisection finds the crossing,
skipping every probe whose sign the same reach bound already decides.
It applies the collision/impulse jump maps (which change headings,
speeds and phases in place, never positions), and records everything in
an ordered trace.  Every value here is an immutable NamedTuple like
`RobotState`: the trace records, `EventHit`, `ReactivationEvent`, the
`Trace` and its metrics.  The one mutable state is `HybridState`, a plain
slotted class that jumps change in place.  The trace is columnar: each
robot sample is seven packed doubles in one `array("d")`, every other
record sits in the log, and `Trace.records` rebuilds the interleaved list
only when read.  Each trace record's fields follow its trace.csv row's
column order, so one `%` with the type's `ROW` template writes the row.
`trace_lines` formats each record once, each sample straight from the
columns; `write_trace_csv` streams those lines, and `write_plot_csv`
projects each robot's plot file from them by copying the sample cells,
or, with no trace.csv, formats only those cells from the columns.
`metrics` is a pure fold over the log into immutable `RobotMetrics`.

Hybrid time is the pair (t, jumps).  A run stops at t_max, when every
robot has reached its target, when the jump counter reaches the
scenario's cap, or at the first fault: any error of `FAULTS` ends the run
as a fatal FaultRecord, as the cap does, and the trace so far is returned.

The SimMode REDESIGNED runs the full strategy, while
PREDEFINED_ONLY still resolves collision physics (headings and speeds
jump) but never applies impulses or local phases - the ablation that
exhibits chattering/deadlock.
"""

from __future__ import annotations

import math
from array import array
from contextlib import ExitStack
from enum import Enum
from struct import Struct
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple, Sequence

from .collision import (
    CONTACT_TOL,
    ContactQuery,
    ContactStatus,
    PenetrationError,
    check_collision,
    resolve_collision,
)
from .controller import RegionError, predefined_control
from .frames import CoincidentCentersError
from .redesign import (
    DegenerateTargetError,
    GeometryError,
    LocalPhase,
    NonSeparableError,
    deconflict_headings,
    impulse,
    local_control,
    local_duration,
    select_escape_heading,
    tangent_rays,
)
from .scenario import Body, ControlInput, RobotState, Scenario, validate_scenario

EVENT_TIME_TOL = 1e-12
# Golden-section ratio of the graze search in `_first_negative`.
GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
# Rounding slack of `detect_event`'s bounds, per unit of (robot coordinate
# scale + gap0 + radii sum + reach).  A probe `step_flow(s, u, tau)` sums
# six stages of size |v| (up to an ulp each) into an increment within 8
# ulps of |v| * tau, and adding it to a coordinate rounds by half an ulp of
# that coordinate.  `gap` rounds the coordinate difference, the hypot and
# the radii subtraction by at most an ulp of the centre distance, itself
# at most gap0 + radii sum + reach, each.  Over both robots of a pair and
# the two gaps of a comparison this stays below 17 ulps of the sum; 32
# leaves room.  A bisection certificate compares two probe gaps of one pair,
# which the same budget covers.
BOUND_SLACK = 32.0 * math.ulp(1.0)
# Every error the engine raises during a run, builtin or its own, and arithmetic
# overflow: `simulate` ends the run on any of them with a fatal FaultRecord.
FAULTS = (
    PenetrationError, NonSeparableError, GeometryError, DegenerateTargetError, RegionError,
    CoincidentCentersError, OverflowError, ValueError,
)
# Builds a per-step NamedTuple from a tuple of exactly its fields, skipping
# the generated Python-level `__new__` (about twice the cost per build).
_new = tuple.__new__


class SimMode(Enum):
    PREDEFINED_ONLY = "predefined"
    REDESIGNED = "redesigned"


# --------------------------------------------------------------------------
# Trace records
#
# Each record's fields follow its trace.csv row, so `ROW % record` writes
# it: "%.17g" gives the bytes of format(x, ".17g"), 17 digits that
# round-trip IEEE doubles bit-exactly.  Build records by keyword.  The run
# keeps its samples as columns (`Trace.samples`); a `FlowSample` is built
# only when `Trace.records` is read.


class FlowSample(NamedTuple):
    """One robot's sample, as `Trace.records` rebuilds it."""

    t: float
    robot_id: int
    x: float
    y: float
    theta: float
    v: float
    w: float
    q: int

    ROW = "%.17g,sample,%d,,%.17g,%.17g,%.17g,%.17g,%.17g,%d,\n"


class CollisionRecord(NamedTuple):
    """One robot's view of a rigid-body contact (robot-robot contacts
    produce one record per robot)."""

    t: float
    robot_id: int
    other_id: int
    x: float
    y: float
    theta_post: float
    v_post: float
    q: int
    theta_pre: float
    v_pre: float
    phi: float
    lam: float
    mu: float

    ROW = (
        "%.17g,collision,%d,%d,%.17g,%.17g,%.17g,%.17g,,%d,"
        "theta_pre=%.17g;v_pre=%.17g;phi=%.17g;lam=%.17g;mu=%.17g\n"
    )


class ImpulseRecord(NamedTuple):
    t: float
    robot_id: int
    theta_escape: float
    dtheta: float

    ROW = "%.17g,impulse,%d,,,,%.17g,,,,dtheta=%.17g\n"


class SwitchRecord(NamedTuple):
    t: float
    robot_id: int
    q_to: int
    q_from: int

    ROW = "%.17g,switch,%d,,,,,,,%d,from=%d\n"


class TargetReachedRecord(NamedTuple):
    t: float
    robot_id: int

    ROW = "%.17g,target_reached,%d,,,,,,,,\n"


class FaultRecord(NamedTuple):
    """`reason` is kept raw; its trace.csv cell writes each `,` as `;`."""

    t: float
    reason: str
    fatal: bool

    ROW = "%.17g,fault,,,,,,,,,%s;fatal=%d\n"


TraceRecord = (
    FlowSample
    | CollisionRecord
    | ImpulseRecord
    | SwitchRecord
    | TargetReachedRecord
    | FaultRecord
)


# Doubles per robot sample in `Trace.samples`: t, x, y, theta, v, w, q.
SAMPLE_WIDTH = 7
SAMPLE = Struct(f"{SAMPLE_WIDTH}d")


class Trace(NamedTuple):
    """One run.  `log` holds every record but the samples, in run order,
    with one None where each sampling pass wrote its samples; `samples`
    holds those samples, one robot after another in id order, each as
    `t, x, y, theta, v, w, q`.  `clearance` is each robot's smallest
    pair-table row gap at any sampled instant (None for a robot with no
    rows)."""

    scenario: Scenario
    log: list
    samples: array
    clearance: dict[int, float | None]

    @property
    def records(self) -> list:
        """Every record in run order, each sample rebuilt as a FlowSample;
        built on each read, so a run's writers never read it."""
        robot_ids = sorted(self.scenario.robot_ids())
        rows = SAMPLE.iter_unpack(self.samples)
        out = []
        for record in self.log:
            if record is None:
                for rid in robot_ids:
                    t, x, y, theta, v, w, q = next(rows)
                    out.append(FlowSample(t, rid, x, y, theta, v, w, int(q)))
            else:
                out.append(record)
        return out

    def collisions(self, robot_id: int | None = None) -> list[CollisionRecord]:
        return [
            r
            for r in self.log
            if type(r) is CollisionRecord and (robot_id is None or r.robot_id == robot_id)
        ]


# --------------------------------------------------------------------------
# Flow integration and event localization


def step_flow(state: RobotState, u: ControlInput, dt: float) -> RobotState:
    """One classical RK4 step of the unicycle flow under a held input.

    Constant-heading motion (w = 0) integrates exactly; the general case
    carries O(dt^5) local error.
    """
    x, y, th1 = state
    v, w = u
    k1x, k1y = v * math.cos(th1), v * math.sin(th1)
    # The heading flow does not depend on position, so the two midpoint
    # stages see the same heading: k3 == k2.
    th2 = th1 + 0.5 * dt * w
    k2x, k2y = v * math.cos(th2), v * math.sin(th2)
    th4 = th1 + dt * w
    k4x, k4y = v * math.cos(th4), v * math.sin(th4)
    sixth = dt / 6.0
    x += sixth * (k1x + 2.0 * k2x + 2.0 * k2x + k4x)
    y += sixth * (k1y + 2.0 * k2y + 2.0 * k2y + k4y)
    return _new(RobotState, (x, y, th1 + dt * w))


class EventHit(NamedTuple):
    """Earliest contact crossing inside a step: offset from the step start
    and the pair involved; `simultaneous` lists ties left to the sweep."""

    t_offset: float
    robot_id: int
    other_id: int
    simultaneous: tuple[tuple[int, int], ...]


class ContactPair(NamedTuple):
    """One entry of the pair table: robot i against body j, their radii
    sum, and j's fixed position when j is an obstacle (None for a robot)."""

    i: int
    j: int
    rsum: float
    fixed: tuple[float, float] | None


def contact_pairs(bodies: Sequence[Body]) -> list[ContactPair]:
    """The pair table: the robot-robot pair first, then every robot against
    every obstacle in body order, robots sorted by id."""
    pairs: list[ContactPair] = []
    robots = sorted((b for b in bodies if b.is_robot), key=lambda b: b.id)
    obstacles = [b for b in bodies if not b.is_robot]
    if len(robots) == 2:
        pairs.append(ContactPair(robots[0].id, robots[1].id, robots[0].radius + robots[1].radius, None))
    for robot in robots:
        for obstacle in obstacles:
            pairs.append(
                ContactPair(robot.id, obstacle.id, robot.radius + obstacle.radius, obstacle.position)
            )
    return pairs


def gap(pair: ContactPair, states: Mapping[int, RobotState]) -> float:
    """Center distance minus radii sum: positive apart, zero touching,
    negative overlapping.  `states` maps robot id to anything with x, y.
    Event localization calls it; `simulate`'s per-instant pass applies the
    same expression inline, operand for operand."""
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


def _first_negative(gap_at: Callable[[float], float], h: float) -> tuple[float, float] | None:
    """Golden-section search for the smallest of `gap_at` on [0, h].

    Returns (offset, gap) of the first probe whose gap is negative, or None
    once the bracket is EVENT_TIME_TOL wide: 2 + ceil(log(EVENT_TIME_TOL
    / h) / log(GOLDEN)) probes at most, 46 at h = 1e-3.  The gap is
    unimodal along one step: the distance to a point is convex along a
    straight segment, and one step's arc is nearly straight.
    """
    a, b = 0.0, h
    c, d = h - GOLDEN * h, GOLDEN * h
    gc, gd = gap_at(c), gap_at(d)
    # each pass shrinks the bracket [a, b] by GOLDEN
    for _ in range(math.ceil(math.log(EVENT_TIME_TOL / h) / math.log(GOLDEN))):
        if gc < 0.0 or gd < 0.0:
            break
        if gc < gd:
            b, d, gd = d, c, gc
            c = b - GOLDEN * (b - a)
            gc = gap_at(c)
        else:
            a, c, gc = c, d, gd
            d = a + GOLDEN * (b - a)
            gd = gap_at(d)
    if gc < 0.0:
        return c, gc
    return (d, gd) if gd < 0.0 else None


def detect_event(
    pairs: list[ContactPair],
    gaps0: Sequence[float],
    states: Mapping[int, RobotState],
    inputs: Mapping[int, ControlInput],
    h: float,
    next_states: Mapping[int, RobotState],
) -> EventHit | None:
    """Find the earliest pair gap zero-crossing inside the step [0, h].

    `gaps0` holds each pair's gap at `states` (the executor measures it
    once per instant), and `next_states` the RK4 step of length h.  Only
    pairs apart at the step start (gap0 > 0) can cross.  A probe
    `step_flow(s, u, tau)` lies within |v| * tau of the robot's start and
    moves with speed at most |v| * (1 + |w| * h / 2) in tau, so no pair's
    gap changes by more than `reach`, h times the sum of that speed over
    the robots, anywhere in the step.  Up to the rounding slack
    (BOUND_SLACK) each pair then meets one of four rules, in order:

    - cull: gap0 > reach, so the pair cannot touch within the step, and
      its end gap is not even measured (conservative advancement);
    - sign change: gap1 < 0, so a crossing lies in [0, h];
    - two-sided bound: gap0 + gap1 > reach, so the in-step minimum is at
      least (gap0 + gap1 - reach) / 2 > 0 and the pair is skipped;
    - search: a golden-section search of the in-step minimum looks for
      a graze that dips below contact and comes back out, which the end
      signs miss; its first negative probe closes the bracket.

    A pair that gets this far has one probe, `gap_at(tau)`, which steps
    only the pair's robots; the search and the bisection both call it.
    The hit time is then localized by bisection on the RK4 flow to
    EVENT_TIME_TOL seconds, landing on the non-penetrating side.  The
    bisection keeps the last probed point on each side of its bracket,
    (a, g_a) apart and (b, g_b) touching, and probes a midpoint only when
    neither certifies its sign:

    - certified apart: g_a - speed * (mid - a) > slack, so gap(mid) > 0;
    - certified touching: g_b + speed * (b - mid) < -slack, so
      gap(mid) < 0;

    where speed = reach / h.  This needs only the Lipschitz bound, not a
    monotone gap, so it holds inside a graze bracket too.  A skipped
    probe would have taken the same branch, so the bracket sequence and
    the hit time keep their bits.
    Simultaneous crossings (within EVENT_TIME_TOL) are reported with the
    lexicographically smallest pair first.
    """
    # One reach bound for every row, and the coordinate scale of the slack:
    # the sum of the robots' |x| + |y| bounds each coordinate.
    speed = scale = 0.0
    for rid, (v, w) in inputs.items():
        x, y, _ = states[rid]
        speed += abs(v) * (1.0 + 0.5 * h * abs(w))
        scale += abs(x) + abs(y)
    reach = speed * h
    scale += reach

    hits: list[tuple[float, int, int]] = []
    for pair, g0 in zip(pairs, gaps0):
        slack = BOUND_SLACK * (scale + g0 + pair.rsum)
        if g0 - reach > slack or g0 <= 0.0:
            # culled, or not apart at the step start
            continue
        g1 = gap(pair, next_states)
        if g1 >= 0.0 and g0 + g1 - reach > 2.0 * slack:
            # the two-sided bound keeps the in-step minimum positive
            continue
        i, j, _, fixed = pair
        probe: dict[int, RobotState] = {}

        def gap_at(tau: float) -> float:
            # called only in this pass: each probe steps only the pair's robots
            probe[i] = step_flow(states[i], inputs[i], tau)
            if fixed is None:
                probe[j] = step_flow(states[j], inputs[j], tau)
            return gap(pair, probe)

        found = (h, g1) if g1 < 0.0 else _first_negative(gap_at, h)
        if found is None:
            continue
        b, g_b = found
        a, g_a = 0.0, g0
        lo, hi = a, b
        while hi - lo > EVENT_TIME_TOL:
            mid = 0.5 * (lo + hi)
            if not lo < mid < hi:
                # one ulp of a large offset exceeds EVENT_TIME_TOL
                break
            if g_a - speed * (mid - a) > slack:
                lo = mid
            elif g_b + speed * (b - mid) < -slack:
                hi = mid
            else:
                g = gap_at(mid)
                if g > 0.0:
                    lo = a = mid
                    g_a = g
                else:
                    hi = b = mid
                    g_b = g
        hits.append((lo, i, j))

    if not hits:
        return None
    t_first = min(tau for (tau, _, _) in hits)
    tied = sorted((i, j) for (tau, i, j) in hits if tau - t_first <= EVENT_TIME_TOL)
    return EventHit(
        t_offset=t_first,
        robot_id=tied[0][0],
        other_id=tied[0][1],
        simultaneous=tuple(tied[1:]),
    )


# --------------------------------------------------------------------------
# Hybrid state and jump maps


class HybridState:
    """The executor's mutable state: hybrid time (t, jumps), each robot's
    pose, and each robot's local phase (None while q = 0)."""

    __slots__ = ("t", "states", "phases", "jumps")

    def __init__(
        self,
        t: float,
        states: dict[int, RobotState],
        phases: dict[int, LocalPhase | None],
        jumps: int = 0,
    ) -> None:
        self.t = t
        self.states = states
        self.phases = phases
        self.jumps = jumps


class ReactivationEvent(NamedTuple):
    robot_id: int


def jump(
    hs: HybridState,
    event: ContactQuery | ReactivationEvent,
    scenario: Scenario,
    sim_mode: SimMode,
    records: list,
) -> dict[int, float]:
    """Apply one hybrid jump to `hs` in place, append its records to
    `records` as it makes them, and return the post-collision speeds.

    A jump changes headings, speeds and local phases, never positions.
    A ReactivationEvent clears the robot's local phase and switches it back
    to the predefined controller with the pose untouched.  A ContactQuery
    resolves the collision physics for its pair; robots whose heading
    changes get the redesign treatment (escape impulse plus a fresh local
    phase) in REDESIGNED mode, while PREDEFINED_ONLY applies the heading
    jump alone.  Headings unchanged within tolerance leave the robot
    flowing in its current mode.  The returned speeds are the
    post-collision linear speeds of the involved robots.  An error part-way
    (a local phase whose construction fails) keeps the records made before
    it and still writes the collision record of every robot of the contact.
    """
    post_speeds: dict[int, float] = {}

    if isinstance(event, ReactivationEvent):
        rid = event.robot_id
        hs.phases[rid] = None
        records.append(SwitchRecord(t=hs.t, robot_id=rid, q_from=1, q_to=0))
        hs.jumps += 1
        return post_speeds

    query = event
    i, j = query.i_id, query.j_id
    out_i, out_j = resolve_collision(
        query, delta=scenario.params.delta, body_j_is_robot=j in hs.states
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

    # Every collision row comes first; an escaping robot's local phase,
    # impulse and switch follow its row.  Only building a local phase can
    # fail, so an error part-way still writes the rows it did not reach.
    rows = []
    for rid, other_id, _, _, _, oc in outcomes:
        x, y, _ = hs.states[rid]
        post_speeds[rid] = oc.v_plus
        if oc.redesign_needed:
            # The physics heading theta_plus applies first; in REDESIGNED
            # mode the impulse then retargets it onto the escape heading.
            hs.states[rid] = RobotState(x, y, escapes.get(rid, oc.theta_plus))
        rows.append(
            CollisionRecord(
                t=hs.t,
                robot_id=rid,
                other_id=other_id,
                x=x,
                y=y,
                theta_pre=oc.theta_pre,
                theta_post=oc.theta_plus if oc.redesign_needed else oc.theta_pre,
                v_pre=oc.v_pre,
                v_post=oc.v_plus,
                phi=query.frame.phi,
                lam=oc.lam,
                mu=oc.mu,
                # the mode after the jump: an escaping robot enters a local phase
                q=int(rid in escapes or hs.phases[rid] is not None),
            )
        )
    hs.jumps += len(rows)
    if not escapes:
        # no local phase to build: the rows are the whole jump
        records.extend(rows)
        return post_speeds
    written = 0
    try:
        for (rid, other_id, _, _, r_other, oc), row in zip(outcomes, rows):
            records.append(row)
            written += 1
            if rid in escapes:
                switch_needed = hs.phases[rid] is None
                v_loc = scenario.params.m_v
                hs.phases[rid] = LocalPhase(
                    collided_id=other_id,
                    v_loc=v_loc,
                    t_dur=local_duration(v_loc, other_id in hs.states, r_other),
                )
                dtheta = impulse(escapes[rid], oc.theta_plus)
                records.append(
                    ImpulseRecord(t=hs.t, robot_id=rid, theta_escape=escapes[rid], dtheta=dtheta)
                )
                if switch_needed:
                    records.append(SwitchRecord(t=hs.t, robot_id=rid, q_from=0, q_to=1))
                    hs.jumps += 1
    finally:
        records.extend(rows[written:])
    return post_speeds


# --------------------------------------------------------------------------
# Executor


def reactivation_due(phase: LocalPhase, row_gaps: Iterable[float]) -> bool:
    """The reactivation rule for a robot's local phase.

    True when the phase has expired and every one of the robot's pair-table
    rows has a strictly positive gap (`row_gaps`, the instant's gaps of
    those rows).  An expired phase without that clearance is extended by
    t_dur / 10 instead (NonSeparableError past the cap).
    """
    if not phase.expired():
        return False
    if all(g > 0.0 for g in row_gaps):
        return True
    phase.extend()
    return False


def simulate(scenario: Scenario, sim_mode: SimMode = SimMode.REDESIGNED) -> Trace:
    """Run one deterministic simulation and return the full trace.

    Terminates when every robot has been within target tolerance, when
    t reaches t_max, when the jump counter reaches the scenario's cap
    (recorded as a fatal non-convergence fault; jumps happen only in
    `apply_jump`, and none follows the cap), or when an error of `FAULTS`
    is raised, which ends the trace with a fatal FaultRecord naming it.
    Raises ValueError when the scenario does not validate.
    """
    violations = validate_scenario(scenario)
    if violations:
        raise ValueError("scenario does not validate: " + "; ".join(violations))

    robot_ids = sorted(scenario.robot_ids())
    params = scenario.params
    targets = scenario.targets
    tolerance = scenario.target_tolerance
    cap = scenario.jump_cap
    dt = scenario.dt
    t_max = scenario.t_max
    body = {b.id: b for b in scenario.bodies}
    pairs = contact_pairs(scenario.bodies)
    # each robot's own rows of the pair table, and their indices, in table order
    row_ks = {rid: [k for k, p in enumerate(pairs) if rid in (p.i, p.j)] for rid in robot_ids}
    # (id, target, own rows, own row indices) of each robot, in id order
    robots = [(rid, targets[rid], [pairs[k] for k in ks], ks) for rid, ks in row_ks.items()]
    pair_by_ids = {(pair.i, pair.j): pair for pair in pairs}
    # each row with its index, for the per-instant gap pass
    gap_rows = [(k, *pair) for k, pair in enumerate(pairs)]
    n_robots = len(robot_ids)
    t_end = t_max - 1e-12
    hypot = math.hypot

    hs = HybridState(
        t=0.0,
        states={rid: body[rid].state() for rid in robot_ids},
        phases={rid: None for rid in robot_ids},
    )
    # jumps replace entries of hs.phases but never rebind it
    phases = hs.phases
    # the trace: every record but the samples, with one None per sampling
    # pass, and each robot sample's seven doubles (packed and appended as
    # bytes: `array.extend` would insert them one item at a time)
    log: list = []
    samples = array("d")
    append_sample = samples.frombytes
    pack_sample = SAMPLE.pack
    # each pair's smallest gap at any sampled instant
    min_gaps = [math.inf] * len(pairs)
    reached: set[int] = set()
    stopped = {rid: ControlInput(0.0, 0.0) for rid in robot_ids}
    # Per-instant bookkeeping (cleared whenever t advances): robots already
    # involved in a collision, and the pairs already jumped or deferred.
    collided_marks: set[int] = set()
    resolved_pairs: set[tuple[int, int]] = set()

    def fault(reason: str, fatal: bool) -> None:
        log.append(FaultRecord(t=hs.t, reason=reason, fatal=fatal))

    def apply_jump(event: ContactQuery | ReactivationEvent) -> dict[int, float]:
        """Jump, record it, and return the post-collision speeds."""
        post_speeds = jump(hs, event, scenario, sim_mode, log)
        if isinstance(event, ContactQuery):
            # post_speeds is keyed by exactly the robots of the contact
            collided_marks.update(post_speeds)
            resolved_pairs.add((event.i_id, event.j_id))
        if hs.jumps >= cap:
            fault(f"non-convergent: jump counter reached the cap ({cap})", True)
        return post_speeds

    def sweep(
        states: dict[int, RobotState], gaps: list[float], inputs: dict[int, ControlInput]
    ) -> None:
        """Resolve every touching-and-approaching pair at the instant hs.t
        (`gaps` in table order), updating `inputs` to what the samples show.
        Each robot takes at most one collision per instant; extra
        simultaneous contacts are deferred, each with one warning.  Jumps never move
        positions, so the gaps hold for every pass."""
        progress = True
        while progress:
            progress = False
            for pair, g in zip(pairs, gaps):
                if g > CONTACT_TOL:
                    # apart: it flows on
                    continue
                i, j = pair.i, pair.j
                if (i, j) in resolved_pairs:
                    # already jumped or deferred at this instant
                    continue
                if g < -CONTACT_TOL:
                    raise PenetrationError(
                        f"bodies {i} and {j} overlap by {-g:.3e} m (tolerance {CONTACT_TOL:.1e})"
                    )
                query = contact_query(pair, states, inputs, body)
                if check_collision(query) is not ContactStatus.JUMP:
                    continue
                if i in collided_marks or j in collided_marks:
                    # a robot can take only one collision per instant, so the
                    # pair stays deferred for the rest of it: warn once
                    fault(f"simultaneous contacts at one instant; pair ({i}, {j}) deferred", False)
                    resolved_pairs.add((i, j))
                    continue
                progress = True
                for rid, v_plus in apply_jump(query).items():
                    phase = phases[rid]
                    if phase is not None:
                        inputs[rid] = local_control(phase)
                    else:
                        inputs[rid] = ControlInput(v_plus, inputs[rid].w)
                if hs.jumps >= cap:
                    return

    try:
        while True:
            states = hs.states
            t = hs.t
            # One gap per pair per instant, shared by reactivation, the sweep,
            # the event test and the run's clearance: `gap`'s expression,
            # inline, folded into each pair's running minimum.
            gaps = []
            for k, i, j, rsum, fixed in gap_rows:
                xi, yi, _ = states[i]
                if fixed is None:
                    jx, jy, _ = states[j]
                else:
                    jx, jy = fixed
                g = hypot(jx - xi, jy - yi) - rsum
                if g < min_gaps[k]:
                    min_gaps[k] = g
                gaps.append(g)
            # Settle the instant: reactivation, then target marks and inputs, then
            # the contact sweep when a pair is within CONTACT_TOL.  A cap reached
            # by an event jump or a reactivation closes with zero inputs, one in
            # the sweep with its refreshed post-jump inputs.
            inputs = stopped
            if hs.jumps < cap:
                for rid, _, _, ks in robots:
                    phase = phases[rid]
                    if phase is not None and reactivation_due(phase, (gaps[k] for k in ks)):
                        apply_jump(ReactivationEvent(rid))
                        if hs.jumps >= cap:
                            break
                else:
                    # no reactivation reached the cap
                    inputs = {}
                    for rid, target, own_rows, _ in robots:
                        if rid not in reached:
                            x, y, theta = states[rid]
                            tx, ty, t_theta = target
                            dist = math.sqrt((x - tx) ** 2 + (y - ty) ** 2 + (theta - t_theta) ** 2)
                            if dist <= tolerance:
                                reached.add(rid)
                                log.append(TargetReachedRecord(t=t, robot_id=rid))
                        phase = phases[rid]
                        if phase is not None:
                            inputs[rid] = local_control(phase)
                        else:
                            inputs[rid] = predefined_control(rid, states, target, own_rows, params).u
                    if gaps and min(gaps) <= CONTACT_TOL:
                        sweep(states, gaps, inputs)
            log.append(None)
            for rid in robot_ids:
                x, y, theta = states[rid]
                v, w = inputs[rid]
                append_sample(pack_sample(t, x, y, theta, v, w, phases[rid] is not None))

            if hs.jumps >= cap or len(reached) == n_robots or t >= t_end:
                break

            # the step: dt, cut at t_max and at the end of every held local phase
            rest = t_max - t
            h = rest if rest < dt else dt
            # a LocalPhase is truthy, and most steps hold none
            held = list(filter(None, phases.values())) if any(phases.values()) else ()
            for phase in held:
                remaining = phase.t_dur + phase.extension - phase.elapsed
                if 0.0 < remaining < h:
                    h = remaining

            next_states = {}
            for rid in robot_ids:
                next_states[rid] = step_flow(states[rid], inputs[rid], h)
            hit = detect_event(pairs, gaps, states, inputs, h, next_states)
            if hit is None:
                hs.states = next_states
                advance = h
            else:
                advance = hit.t_offset
                hs.states = {
                    rid: step_flow(states[rid], inputs[rid], advance) for rid in robot_ids
                }
            hs.t += advance
            for phase in held:
                phase.elapsed += advance
            if resolved_pairs:
                # filled by the instant just left; a pair is deferred only after a jump
                collided_marks.clear()
                resolved_pairs.clear()

            if hit is not None:
                # the next pass's sweep settles every tied crossing
                pair = pair_by_ids[(hit.robot_id, hit.other_id)]
                # a cap fault here makes the next pass emit the closing samples
                apply_jump(contact_query(pair, hs.states, inputs, body))
    except FAULTS as exc:
        # the one fault channel: the run ends here, as at the jump cap
        fault(f"{type(exc).__name__}: {exc}", True)

    clearance = {rid: min((min_gaps[k] for k in ks), default=None) for rid, ks in row_ks.items()}
    return Trace(scenario=scenario, log=log, samples=samples, clearance=clearance)


# --------------------------------------------------------------------------
# Metrics


class RobotMetrics(NamedTuple):
    reached: bool
    completion_time: float | None
    collisions: int
    min_clearance: float | None


class TraceMetrics(NamedTuple):
    robots: dict[int, RobotMetrics]
    total_jumps: int
    fault: bool
    fault_reasons: tuple[str, ...]

    def to_dict(self) -> dict:
        """The metrics.json payload, keys in field order, robot ids sorted."""
        out = self._asdict()
        out["robots"] = {str(rid): m._asdict() for rid, m in sorted(self.robots.items())}
        out["fault_reasons"] = list(self.fault_reasons)
        return out


def metrics(trace: Trace) -> TraceMetrics:
    """Pure fold over the trace's log (the samples are not read); each
    robot's minimum clearance is the trace's `clearance`, the executor's
    smallest row gap at any sampled instant."""
    robot_ids = sorted(trace.scenario.robot_ids())
    collisions = dict.fromkeys(robot_ids, 0)
    # each robot's first target-reached time
    completion: dict[int, float] = {}
    total_jumps = 0
    fault = False
    reasons: list[str] = []

    for record in trace.log:
        kind = type(record)
        if kind is CollisionRecord:
            collisions[record.robot_id] += 1
            total_jumps += 1
        elif kind is SwitchRecord:
            total_jumps += 1
        elif kind is TargetReachedRecord:
            completion.setdefault(record.robot_id, record.t)
        elif kind is FaultRecord:
            if record.fatal:
                fault = True
            reasons.append(record.reason)

    robots = {
        rid: RobotMetrics(
            reached=rid in completion,
            completion_time=completion.get(rid),
            collisions=collisions[rid],
            min_clearance=trace.clearance[rid],
        )
        for rid in robot_ids
    }
    return TraceMetrics(
        robots=robots, total_jumps=total_jumps, fault=fault, fault_reasons=tuple(reasons)
    )


# --------------------------------------------------------------------------
# Trace serialization

CSV_HEADER = "t,record_type,robot_id,other_id,x,y,theta,v,w,q,extra"


def _csv_line(record: TraceRecord) -> str:
    """The record's trace.csv row, newline included."""
    if type(record) is FaultRecord:
        record = record._replace(reason=record.reason.replace(",", ";"))
    return record.ROW % record


def trace_lines(trace: Trace) -> Iterator[str]:
    """The lines of trace.csv, header first, each ending in a newline.  Each
    sampling pass's rows are formatted straight from the sample columns,
    one robot's row template (its id filled in) per sample."""
    yield CSV_HEADER + "\n"
    # the first `%d` of the sample row is the robot id
    robot_ids = sorted(trace.scenario.robot_ids())
    templates = [FlowSample.ROW.replace("%d", str(rid), 1) for rid in robot_ids]
    values = SAMPLE.iter_unpack(trace.samples)
    for record in trace.log:
        if record is None:
            for row in templates:
                yield row % next(values)
        else:
            yield _csv_line(record)


def trace_to_csv(trace: Trace) -> str:
    return "".join(trace_lines(trace))


def write_trace_csv(trace: Trace, path) -> None:
    """Stream the bytes of `trace_to_csv` to `path`, one row at a time."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.writelines(trace_lines(trace))


PLOT_ROW = "%.17g,%.17g,%.17g,%.17g,%.17g,%.17g\n"


def write_plot_csv(source: Trace | Iterable[str], paths: Mapping) -> None:
    """Write each robot's samples to `paths[robot_id]` as `t,x,y,theta,v,w`
    rows.  Given trace.csv's lines, stream them once and copy the cells of
    each sample row, never formatting them again (the header and every
    other record type are skipped).  Given the `Trace` itself, format only
    those six cells of each sample, from its columns."""
    with ExitStack() as stack:
        files = {
            str(rid): stack.enter_context(open(path, "w", encoding="utf-8", newline="\n"))
            for rid, path in paths.items()
        }
        for fh in files.values():
            fh.write("t,x,y,theta,v,w\n")
        if isinstance(source, Trace):
            robot_ids = sorted(source.scenario.robot_ids())
            stride = SAMPLE_WIDTH * len(robot_ids)
            for k, rid in enumerate(robot_ids):
                start = SAMPLE_WIDTH * k
                # t, x, y, theta, v and w: every column but q
                columns = [source.samples[start + c :: stride] for c in range(6)]
                files[str(rid)].writelines(map(PLOT_ROW.__mod__, zip(*columns)))
            return
        for line in source:
            # sample row: t,sample,robot_id,,x,y,theta,v,w,q,
            t, kind, rid, _, rest = line.split(",", 4)
            if kind == "sample":
                files[rid].write(t + "," + rest.rsplit(",", 2)[0] + "\n")
