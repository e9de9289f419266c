"""Hybrid executor: flows, collision events, jump maps, trace, metrics.

Each robot carries a discrete mode q alongside its pose: q = 0 runs the
predefined controller, q = 1 runs the constant-heading local escape
controller installed after a heading-changing collision.  q is 1 exactly
while the robot holds a LocalPhase; `HybridState.phases` is its only
record.  The executor integrates the unicycle flow with fixed-step
classical RK4 under zero-order-hold inputs (`step_flow`), finds the first
contact inside a step (`detect_event`), applies the collision/impulse
jump maps, which change headings, speeds and phases in place, never
positions, and records everything in an ordered trace (`Trace`).

Hybrid time is the pair (t, jumps).  A run stops at t_max, when every
robot has reached its target, when the jump counter reaches the
scenario's cap, or at the first fault: any error of `FAULTS` ends the run
as a fatal FaultRecord, as the cap does, and the trace so far is returned.

The SimMode REDESIGNED runs the full strategy, while
PREDEFINED_ONLY still resolves collision physics (headings and speeds
jump) but never applies impulses or local phases - the ablation that
exhibits chattering/deadlock.

`FLOOR_SLACK` states when an instant measures; `Trace` and the section
"Trace records" give the trace's layout, and `trace_lines` its CSV rows;
README's opening states which values are exact tuples inside a run.
"""

from __future__ import annotations

import math
from array import array
from contextlib import ExitStack
from enum import Enum
from itertools import chain, repeat
from operator import sub
from struct import Struct
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence

from .collision import (
    CONTACT_TOL,
    CoincidentCentersError,
    ContactQuery,
    ContactStatus,
    PenetrationError,
    check_collision,
    resolve_collision,
)
from .controller import Input, Pose, RegionError, predefined_control
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
from .scenario import Body, Scenario, _new, validate_scenario

EVENT_TIME_TOL = 1e-12
# A bisection of [a, b] is settled, and its halving keeps lo >= a, once the
# certified touching end (`_certified`), and so the apart end below it, lies
# below a + EVENT_TIME_TOL / 2 - SETTLE_SLACK * b.  The halving visits a
# midpoint only while hi - lo > EVENT_TIME_TOL (b >= hi > EVENT_TIME_TOL)
# and, rounding being monotone, only while the exact difference exceeds it:
# the exact midpoint lies above lo + EVENT_TIME_TOL / 2, and rounding lo + hi
# lowers it by at most eps b (eps = ulp(1) / 2).  Rounding the test's two
# subtractions loosens it by less than 1.1 eps EVENT_TIME_TOL < 1.1 eps b, so
# with SETTLE_SLACK = 4 eps every midpoint lies past both ends: none probes.
SETTLE_SLACK = 2.0 * math.ulp(1.0)
# Rounding slack of `detect_event`'s bounds, per unit of (robot coordinate
# scale + gap0 + radii sum + reach).  A probe `step_flow(s, u, tau)` sums
# six stages of size |v| (up to an ulp each) into an increment within 8
# ulps of |v| * tau, and adding it to a coordinate rounds by half an ulp of
# that coordinate.  `gap` rounds the coordinate difference, the hypot and
# the radii subtraction by at most an ulp of the centre distance, itself
# at most gap0 + radii sum + reach, each.  Over both robots of a pair and
# the two gaps of a comparison this stays below 17 ulps of the sum.  A
# first-order bisection certificate compares two probe gaps of one pair,
# which the same budget covers.  A second-order one compares a probe gap
# with the chord through two others: the chord through the computed gaps
# lies within one gap's error of the chord through exact ones, so the same
# two-gap budget covers the gaps.  Evaluating the chord and its curvature
# term at a threshold then rounds the term subtracted from g_a or |g_b| by
# at most 9 ulps of it (the chord's slope 1.5, the speed bound squared and
# the curvature sum 5.5, the offsets and products 2), and that term is
# below |g_a| + |g_b| <= gap0 + reach + radii sum wherever a certificate
# holds.  The bound on the centre distance is lowered by one slack, which
# exceeds one gap's error plus its own rounding, so it never rises above
# the exact bound.  17 + 9 = 26 ulps; 32 leaves room.  The search's two
# tests on a bracket apart at both ends are these at its midpoint: the two
# first-order certificates summed, and the second-order apart one with
# min(g_a, g_b) for the chord and its term at its widest, so the same
# budget covers them.  They read the pair's `rate` for `speed`: wherever
# rate < speed, its trig, products, hypot and curvature sum round it by
# less than 21 eps (eps = ulp(1) / 2) of speed, which the slack of speed in
# its sum exceeds.  The chord test compares with 0, not the slack, so that
# a pair moving as one within a slack of contact ends its search at once:
# its error, below the slack, leaves the exact gap of a bracket it drops
# above minus one slack.
BOUND_SLACK = 32.0 * math.ulp(1.0)
# Step floors, the rule and its relative slack s.  One measurement of the
# pair gaps (or target distances) settles them for the k steps the robots
# need at full speed to close them less a margin: for k instants `simulate`
# measures none, runs no sweep and hands `detect_event` no rows (or tests
# no target), as each skipped test would take the same branch.  k is kept
# as a count, so no rounding builds up; a jump, or a local phase held
# through a step, sets it to 0.  Until then every step is at most dt long
# and every input lies in the box |v| <= m_v, |w| <= m_w (saturated
# controls, and `local_control`'s (m_v, 0)).  An RK4 step's computed
# increment is then at most |v| dt (1 + 16 eps) long (eps = ulp(1) / 2),
# and adding it rounds each coordinate by half an ulp, so a robot's
# position moves by at most m_v dt (1 + 16 eps) + eps (|x| + |y|) and its
# heading by at most m_w dt (1 + eps) + eps |theta| per step.
# - Pairs.  A measurement with least gap g, coordinate scale S (|x| + |y|
#   summed over the robots) and largest radii sum R settles k = (g - near
#   - s (S + g + R + near)) / M steps, where near = n m_v dt (1 + m_w dt /
#   2) + CONTACT_TOL bounds `detect_event`'s reach and M = n m_v dt (1 + s)
#   + s (S + 2 g) bounds a step's movement of all n robots together: they
#   move by at most k M <= g in all, so S stays below S + 1.5 g.  A
#   computed gap lies within 5 eps (gap + 2 R) of the exact one, so after
#   j <= k steps each row's gap0 is at least g - j M - 10 eps g - 20 eps R.
#   The cull's reach is within 8 eps of near - CONTACT_TOL, its rounded
#   slack at most 65 eps (S + 1.5 g + near + gap0 + R), and its subtraction
#   rounds by eps gap0; as gap0 - reach - slack grows with gap0, every row
#   takes the `gap0 - reach > slack` branch once g - j M - near exceeds
#   174 eps g + 65 eps S + 85 eps R + 74 eps near, which s = 512 eps covers
#   with room for the rounding of k's own formula.  That gap0 also exceeds
#   CONTACT_TOL, so no pair reaches the sweep.
# - Targets.  A robot at computed target distance d > tolerance, with pose
#   scale Q = |x| + |y| + |theta|, settles k = (d - tolerance - s d) / T
#   steps, where T = (m_v + m_w) dt (1 + s) + s (Q + 2 d) bounds a step's
#   change of its pose, which moves by at most k T <= d in all.  The
#   computed distance lies within 4 eps d of the exact one, so after j <= k
#   steps it is at least d (1 - 8 eps) - j T > tolerance.  Below d = 2^510
#   every skipped square stays below (2 d)^2 < 2^1022: none could have
#   overflowed; a robot farther away measures every instant.
FLOOR_SLACK = 8.0 * BOUND_SLACK
# Every error the engine raises during a run, builtin or its own, and arithmetic
# overflow: `simulate` ends the run on any of them with a fatal FaultRecord.
FAULTS = (
    PenetrationError, NonSeparableError, GeometryError, DegenerateTargetError, RegionError,
    CoincidentCentersError, OverflowError, ValueError,
)


class SimMode(Enum):
    PREDEFINED_ONLY = "predefined"
    REDESIGNED = "redesigned"


# --------------------------------------------------------------------------
# Trace records
#
# Each record's fields follow its trace.csv row, so `ROW % record` writes
# it: "%.17g" gives the bytes of format(x, ".17g"), 17 digits that
# round-trip IEEE doubles bit-exactly.  A `CollisionRecord`, made on every
# contact, is built positionally (`_new`), every other record by keyword.
# The run keeps its samples as columns (`Trace.samples`); a `FlowSample` is
# built only when `Trace.records` is read.


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
    pair-table row gap at any instant the run settled: a fold over the
    sample columns, plus the instant that raised a fault before writing
    its samples (None for a robot with no rows)."""

    scenario: Scenario
    log: list
    samples: array
    clearance: dict[int, float | None]

    @property
    def records(self) -> list:
        """Every record in run order, each sample rebuilt as a FlowSample;
        built on each read, so a run's writers never read it."""
        robot_ids = self.scenario.robot_ids()
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


def step_flow(state: Pose, u: Input, dt: float) -> Pose:
    """One classical RK4 step of the unicycle flow under a held input: the
    pose (x, y, theta) after dt, as an exact tuple.

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
    return x, y, th4


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


def gap(pair: ContactPair, states: Mapping[int, Pose]) -> float:
    """Center distance minus radii sum: positive apart, zero touching,
    negative overlapping.  `states` maps robot id to a pose (x, y, theta),
    never a longer record.  Event localization calls it; `simulate`'s
    measuring pass applies the same expression inline, operand for operand,
    and its clearance fold the same hypot and subtraction."""
    i, j, rsum, fixed = pair
    xi, yi, _ = states[i]
    if fixed is None:
        jx, jy, _ = states[j]
    else:
        jx, jy = fixed
    return math.hypot(jx - xi, jy - yi) - rsum


def contact_query(
    pair: ContactPair,
    states: Mapping[int, Pose],
    inputs: Mapping[int, Input],
    body: Mapping[int, Body],
) -> ContactQuery:
    """The pair's contact snapshot under the commanded speeds; an obstacle
    j sits at the pair's fixed position with v = theta = 0."""
    i, j, _, fixed = pair
    xi, yi, theta_i = states[i]
    v_i, _ = inputs[i]
    if fixed is None:
        xj, yj, theta_j = states[j]
        p_j = (xj, yj)
        v_j, _ = inputs[j]
    else:
        p_j, v_j, theta_j = fixed, 0.0, 0.0
    _, _, r_i, m_i, _, _, _ = body[i]
    _, _, r_j, m_j, _, _, _ = body[j]
    return ContactQuery.build(
        (xi, yi), p_j, i_id=i, j_id=j, r_i=r_i, r_j=r_j, m_i=m_i, m_j=m_j,
        v_i=v_i, v_j=v_j, theta_i=theta_i, theta_j=theta_j,
    )


def _certified_end(p: float, g: float, q: float, rate: float, curve: float, slack: float) -> float:
    """A point m between the probed end p and the other end q such that
    g - |x - p| * (rate + curve * |q - x| / 2) > slack at every x from p to
    m, or p itself.

    The bound is convex in x, and at q it is below the slack, so it holds
    on all of [p, m] once it holds at m.  m solves the quadratic for twice
    the slack, in the form that does not cancel, and the check at m itself
    absorbs that solution's rounding; a NaN or an overflow fails the check.
    """
    c = g - 2.0 * slack
    beta = rate + 0.5 * curve * abs(q - p)
    if not (c > 0.0 and beta > 0.0):
        return p
    x = 2.0 * c / (beta + math.sqrt(max(beta * beta - 2.0 * curve * c, 0.0)))
    m = p + x if q > p else p - x
    return m if g - abs(m - p) * (rate + 0.5 * curve * abs(q - m)) > slack else p


def _certified(
    a: float, g_a: float, b: float, g_b: float, speed: float, curve: float, rsum: float, slack: float
) -> tuple[float, float] | None:
    """The bisection's certified ranges on the bracket [a, b] of the last
    probes, apart (g_a > 0) and touching (g_b <= 0): every offset up to the
    first returned one has a positive gap, and every offset from the second
    on a negative one.  With chord(x) through the two probes, x is apart if
    g_a - speed * (x - a) > 0 or chord(x) - K * (x - a) * (b - x) / 2 > 0,
    and touching if g_b + speed * (b - x) < 0 or chord(x) + curve * (x - a)
    * (b - x) / 2 < 0, each up to the slack.  `curve` bounds the second
    derivative of the offset between the pair's probe paths, and the centre
    distance is a maximum of linear functionals of that offset, so gap +
    curve * tau^2 / 2 is convex.  Where the centre distance is at least
    `near` > 0, the gap's second derivative is at most K = speed^2 / near +
    curve.  A skipped probe would have taken the same branch, so the
    bisection keeps the bits of one that probes every midpoint.  No offset
    is both apart and touching, so apart_to <= touching_from: None once
    touching_from settles the bracket (SETTLE_SLACK), apart_to uncomputed.
    """
    slope = (g_a - g_b) / (b - a)
    touching_from = min(
        _certified_end(b, -g_b, a, speed, 0.0, slack), _certified_end(b, -g_b, a, slope, curve, slack)
    )
    if touching_from - a < 0.5 * EVENT_TIME_TOL - SETTLE_SLACK * b:
        return None
    apart_to = _certified_end(a, g_a, b, speed, 0.0, slack)
    near = rsum + 0.5 * (g_a + g_b - speed * (b - a)) - slack
    if near > 0.0:
        apart_to = max(apart_to, _certified_end(a, g_a, b, slope, speed * speed / near + curve, slack))
    return apart_to, touching_from


def detect_event(
    pairs: list[ContactPair],
    gaps0: Sequence[float],
    states: Mapping[int, Pose],
    inputs: Mapping[int, Input],
    h: float,
    next_states: Mapping[int, Pose],
) -> EventHit | None:
    """Find the earliest pair gap zero-crossing inside the step [0, h].

    `gaps0` holds each pair's gap at `states`, and `next_states` the RK4
    step of length h.  With no pairs it returns None at once: the executor
    passes none when its step floor already shows that every row is
    culled.  Only pairs apart at the step start (gap0 > 0) can cross.  A
    probe `step_flow(s, u, tau)` moves with speed at most |v| * (1 + |w| *
    h / 2) in tau; `speed` sums that over the robots, so no gap changes by
    more than `reach` = speed * h in the step.  Every test allows for
    rounding as BOUND_SLACK derives.

    A pair with gap0 > reach is culled, its end gap not even measured
    (conservative advancement).  Each other pair's first crossing is found
    by one depth-first search over brackets (a, g_a, b, g_b) of [0, h], the
    earliest first; a probe `gap_at(tau)` steps only the pair's robots.  A
    bracket apart at both ends is dropped once g_a + g_b - rate * (b - a)
    > 0 (on [0, h] with rate = speed, the two-sided bound gap0 + gap1 >
    reach), once the chord less the bend, min(g_a, g_b) - K * (b - a)^2 /
    8, is positive, or once it is EVENT_TIME_TOL wide; else it splits at a
    probed midpoint.  A bracket that ends touching (g_b <= 0) is bisected
    to EVENT_TIME_TOL seconds, landing on the apart side and probing only
    midpoints that `_certified` cannot decide, and not halved further once
    its certified touching end lies within half a tolerance of its apart
    end, less the margin SETTLE_SLACK derives; each apart probe pushes the
    span back to the apart probe before it, where a dip may hide.  Brackets
    after a crossing found are dropped, so the last crossing found is the
    earliest, and a step that ends in contact keeps the bisection's bits
    unless it holds an earlier crossing.

    Here rate = |u| + A * h, at most speed, bounds the pair's relative
    speed, u being its relative velocity at the step start and A = |v| |w|
    (1 + |w| h / 3), summed over its robots, a bound on how fast their
    probe paths bend; K = rate^2 / D + A bounds the gap's second
    derivative, where D = radii sum + (g_a + g_b - rate * (b - a)) / 2 > 0
    bounds the centre distance on the bracket.  Simultaneous crossings
    (within EVENT_TIME_TOL) are reported with the lexicographically
    smallest pair first.
    """
    if not pairs:
        return None
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
        i, j, rsum, fixed = pair
        probe: dict[int, Pose] = {}

        def gap_at(tau: float) -> float:
            # called only in this pass: each probe steps only the pair's robots
            probe[i] = step_flow(states[i], inputs[i], tau)
            if fixed is None:
                probe[j] = step_flow(states[j], inputs[j], tau)
            return gap(pair, probe)

        # how fast the pair's probe paths bend, |v| |w| (1 + |w| h / 3) per
        # robot, and so how far their relative speed strays from the start's;
        # one slack of speed covers the rounding of that speed bound
        v, w = inputs[i]
        _, _, theta = states[i]
        curve = abs(v * w) * (1.0 + abs(w) * h / 3.0)
        ux, uy = v * math.cos(theta), v * math.sin(theta)
        if fixed is None:
            v, w = inputs[j]
            _, _, theta = states[j]
            curve += abs(v * w) * (1.0 + abs(w) * h / 3.0)
            ux, uy = ux - v * math.cos(theta), uy - v * math.sin(theta)
        rate = min(speed, math.hypot(ux, uy) + curve * h + BOUND_SLACK * speed)
        # the search: brackets (a, g_a, b, g_b), the earliest on top
        first = math.inf
        brackets = [(0.0, g0, h, gap(pair, next_states))]
        while brackets:
            a, g_a, b, g_b = brackets.pop()
            if a >= first:
                continue
            if g_b > 0.0:
                # apart at both ends: dropped once a bound settles it, else split
                width = b - a
                lower = g_a + g_b - rate * width
                if lower > 2.0 * slack:
                    continue
                near = rsum + 0.5 * lower - slack
                if near > 0.0 and min(g_a, g_b) - (rate * rate / near + curve) * width * width / 8.0 > 0.0:
                    continue
                mid = 0.5 * (a + b)
                if width <= EVENT_TIME_TOL or not a < mid < b:
                    continue
                g = gap_at(mid)
                if g > 0.0:
                    brackets += ((mid, g, b, g_b), (a, g_a, mid, g))
                    continue
                # a crossing after mid comes after one before it
                b, g_b = mid, g
            lo, hi = a, b
            # None once settled: the halving would keep lo (SETTLE_SLACK)
            ends = _certified(a, g_a, b, g_b, speed, curve, rsum, slack)
            while ends and hi - lo > EVENT_TIME_TOL:
                mid = 0.5 * (lo + hi)
                if not lo < mid < hi:
                    # one ulp of a large offset exceeds EVENT_TIME_TOL
                    break
                if mid <= ends[0]:
                    lo = mid
                elif mid >= ends[1]:
                    hi = mid
                else:
                    g = gap_at(mid)
                    if g > 0.0:
                        # a graze may dip between two apart probes
                        brackets.append((a, g_a, mid, g))
                        lo = a = mid
                        g_a = g
                    else:
                        hi = b = mid
                        g_b = g
                    ends = _certified(a, g_a, b, g_b, speed, curve, rsum, slack)
            # every bracket still searched ends before lo
            first = lo
        if first < math.inf:
            hits.append((first, i, j))

    if not hits:
        return None
    if len(hits) == 1:
        # a lone crossing has no tie to sort
        return _new(EventHit, (*hits[0], ()))
    t_first = min(tau for (tau, _, _) in hits)
    tied = sorted((i, j) for (tau, i, j) in hits if tau - t_first <= EVENT_TIME_TOL)
    return EventHit(t_first, *tied[0], tuple(tied[1:]))


# --------------------------------------------------------------------------
# Hybrid state and jump maps


class HybridState:
    """The executor's mutable state: hybrid time (t, jumps), each robot's
    pose, and each robot's local phase (None while q = 0)."""

    __slots__ = ("t", "states", "phases", "jumps")

    def __init__(
        self,
        t: float,
        states: dict[int, Pose],
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

    i, j, p_i, p_j, r_i, r_j, _, _, _, _, _, _, (_, _, phi) = event
    out_i, out_j = resolve_collision(event, delta=scenario.params.delta, body_j_is_robot=j in hs.states)

    # (robot, other body, robot position, other position, other radius, outcome)
    outcomes = [(i, j, p_i, p_j, r_j, out_i)]
    if out_j is not None:
        outcomes.append((j, i, p_j, p_i, r_i, out_j))

    # Escape headings, deconflicted when both robots of a robot-robot
    # contact need the redesign.
    escapes: dict[int, float] = {}
    if sim_mode is SimMode.REDESIGNED:
        geo: dict[int, tuple[float, float]] = {}
        for rid, _, p_robot, p_other, _, oc in outcomes:
            if oc.redesign_needed:
                rays = tangent_rays(p_other, p_robot, r_i + r_j)
                target = scenario.targets[rid]
                geo[rid] = select_escape_heading(rays, (target.x, target.y))
        escapes = {rid: theta for rid, (theta, _) in geo.items()}
        if len(geo) == 2:
            (id1, (th1, phi1)), (id2, (th2, phi2)) = geo.items()
            escapes[id1], escapes[id2] = deconflict_headings(th1, th2, phi1, phi2)

    # Every collision row comes first; an escaping robot's local phase,
    # impulse and switch follow its row.  Only building a local phase can
    # fail, so an error part-way still writes the rows it did not reach.
    t = hs.t
    rows = []
    for rid, other_id, _, _, _, (theta_pre, v_pre, theta_plus, v_plus, lam, mu, redesign) in outcomes:
        x, y, _ = hs.states[rid]
        post_speeds[rid] = v_plus
        if redesign:
            # The physics heading theta_plus applies first; in REDESIGNED
            # mode the impulse then retargets it onto the escape heading.
            hs.states[rid] = (x, y, escapes.get(rid, theta_plus))
            theta_post = theta_plus
        else:
            theta_post = theta_pre
        # the mode after the jump: an escaping robot enters a local phase
        q = int(rid in escapes or hs.phases[rid] is not None)
        row = (t, rid, other_id, x, y, theta_post, v_plus, q, theta_pre, v_pre, phi, lam, mu)
        rows.append(_new(CollisionRecord, row))
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
                t_dur = local_duration(v_loc, other_id in hs.states, r_other)
                hs.phases[rid] = LocalPhase(collided_id=other_id, v_loc=v_loc, t_dur=t_dur)
                dtheta = impulse(escapes[rid], oc.theta_plus)
                records.append(ImpulseRecord(t=t, robot_id=rid, theta_escape=escapes[rid], dtheta=dtheta))
                if switch_needed:
                    records.append(SwitchRecord(t=t, robot_id=rid, q_from=0, q_to=1))
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

    robot_ids = scenario.robot_ids()
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
    # (id, target, own rows, own row indices) of each robot, in id order; the
    # target, the rows and the gains as exact tuples, which unpack faster
    robots = [(rid, tuple(targets[rid]), [tuple(pairs[k]) for k in ks], ks) for rid, ks in row_ks.items()]
    gains = tuple(params)
    pair_by_ids = {(pair.i, pair.j): pair for pair in pairs}
    n_robots = len(robot_ids)
    t_end = t_max - 1e-12
    hypot = math.hypot
    # the step floors' counts (FLOOR_SLACK)
    gaps_left = targets_left = 0
    no_rows: list[ContactPair] = []
    near = n_robots * params.m_v * dt * (1.0 + 0.5 * params.m_w * dt) + CONTACT_TOL
    rsum_max = max((pair.rsum for pair in pairs), default=0.0)
    pair_drift = n_robots * params.m_v * dt * (1.0 + FLOOR_SLACK)
    pose_drift = (params.m_v + params.m_w) * dt * (1.0 + FLOOR_SLACK)

    hs = HybridState(
        t=0.0,
        states={rid: tuple(body[rid].state()) for rid in robot_ids},
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
    # the poses of an instant that faults before writing its samples
    unsampled: dict[int, Pose] | None = None
    reached: set[int] = set()
    stopped = {rid: (0.0, 0.0) for rid in robot_ids}
    # Per-instant bookkeeping (cleared whenever t advances): robots already
    # involved in a collision, and the pairs already jumped or deferred.
    collided_marks: set[int] = set()
    resolved_pairs: set[tuple[int, int]] = set()

    def fault(reason: str, fatal: bool) -> None:
        log.append(FaultRecord(t=hs.t, reason=reason, fatal=fatal))

    def apply_jump(event: ContactQuery | ReactivationEvent) -> dict[int, float]:
        """Jump, record it, and return the post-collision speeds.  A jump
        changes headings, speeds or phases, so the next instant measures."""
        nonlocal gaps_left, targets_left
        gaps_left = targets_left = 0
        post_speeds = jump(hs, event, scenario, sim_mode, log)
        if isinstance(event, ContactQuery):
            # post_speeds is keyed by exactly the robots of the contact
            collided_marks.update(post_speeds)
            resolved_pairs.add((event.i_id, event.j_id))
        if hs.jumps >= cap:
            fault(f"non-convergent: jump counter reached the cap ({cap})", True)
        return post_speeds

    def sweep(
        states: dict[int, Pose], gaps: list[float], inputs: dict[int, Input]
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
                        inputs[rid] = (v_plus, inputs[rid][1])
                if hs.jumps >= cap:
                    return

    try:
        while True:
            states = hs.states
            t = hs.t
            if gaps_left:
                # the last measurement settles every row's cull and sweep test
                gaps_left -= 1
                gaps = rows = no_rows
            else:
                # One gap per pair, shared by reactivation, the sweep and the
                # event test: `gap`'s expression, inline.
                gaps = []
                for i, j, rsum, fixed in pairs:
                    xi, yi, _ = states[i]
                    if fixed is None:
                        jx, jy, _ = states[j]
                    else:
                        jx, jy = fixed
                    gaps.append(hypot(jx - xi, jy - yi) - rsum)
                rows = pairs
                scale = 0.0
                for x, y, _ in states.values():
                    scale += abs(x) + abs(y)
                least = min(gaps, default=math.inf)
                room = least - near - FLOOR_SLACK * (scale + least + rsum_max + near)
                per_step = pair_drift + FLOOR_SLACK * (scale + 2.0 * least)
                q = room / per_step if per_step > 0.0 else 0.0
                # a NaN, an infinity or a count past exact float integers settles nothing
                gaps_left = int(q) if 1.0 <= q < 2.0**53 else 0
            try:
                # Settle the instant: reactivation, then target marks and inputs,
                # then the contact sweep when a pair is within CONTACT_TOL.  A cap
                # reached by an event jump or a reactivation closes with zero
                # inputs, one in the sweep with its refreshed post-jump inputs.
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
                        # each unreached robot's target test, unless the last
                        # measurement settles them all
                        check_targets = not targets_left
                        if check_targets:
                            # lowered to each measured robot's count below
                            targets_left = 1 << 53
                        else:
                            targets_left -= 1
                        for rid, target, own_rows, _ in robots:
                            if check_targets and rid not in reached:
                                x, y, theta = states[rid]
                                tx, ty, t_theta = target
                                dist = math.sqrt((x - tx) ** 2 + (y - ty) ** 2 + (theta - t_theta) ** 2)
                                if dist <= tolerance:
                                    reached.add(rid)
                                    log.append(TargetReachedRecord(t=t, robot_id=rid))
                                elif dist < 2.0**510:
                                    room = dist - tolerance - FLOOR_SLACK * dist
                                    per_step = pose_drift + FLOOR_SLACK * (
                                        abs(x) + abs(y) + abs(theta) + 2.0 * dist
                                    )
                                    q = room / per_step if per_step > 0.0 else 0.0
                                    targets_left = min(targets_left, int(q) if 1.0 <= q < 2.0**53 else 0)
                                else:
                                    targets_left = 0
                            phase = phases[rid]
                            if phase is not None:
                                inputs[rid] = local_control(phase)
                            else:
                                inputs[rid] = predefined_control(rid, states, target, own_rows, gains).u
                        if gaps and min(gaps) <= CONTACT_TOL:
                            sweep(states, gaps, inputs)
            except FAULTS:
                # the clearance also counts this instant, which writes no samples
                unsampled = states
                raise
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
            if any(phases.values()):
                held = list(filter(None, phases.values()))
                # the next instant's reactivation may read the rows' gaps
                gaps_left = 0
            else:
                held = ()
            for phase in held:
                remaining = phase.t_dur + phase.extension - phase.elapsed
                if 0.0 < remaining < h:
                    h = remaining

            next_states = {}
            for rid in robot_ids:
                next_states[rid] = step_flow(states[rid], inputs[rid], h)
            hit = detect_event(rows, gaps, states, inputs, h, next_states)
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

    # each pair's smallest gap at any instant that settled: a fold over the
    # sample columns, and over the poses of an instant that faulted first
    columns = memoryview(samples)
    stride = SAMPLE_WIDTH * n_robots
    xs = {rid: columns[SAMPLE_WIDTH * k + 1 :: stride] for k, rid in enumerate(robot_ids)}
    ys = {rid: columns[SAMPLE_WIDTH * k + 2 :: stride] for k, rid in enumerate(robot_ids)}
    least_gaps = []
    for pair in pairs:
        i, j, rsum, fixed = pair
        xj, yj = (xs[j], ys[j]) if fixed is None else map(repeat, fixed)
        # `gap`'s rounding after the hypot is monotone, so it applies once
        least = min(chain((math.inf,), map(hypot, map(sub, xj, xs[i]), map(sub, yj, ys[i])))) - rsum
        if unsampled is not None:
            least = min(least, gap(pair, unsampled))
        least_gaps.append(least)
    clearance = {rid: min((least_gaps[k] for k in ks), default=None) for rid, ks in row_ks.items()}
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
    robot's minimum clearance is the trace's `clearance`, its smallest row
    gap at any instant the run settled."""
    robot_ids = trace.scenario.robot_ids()
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
    robot_ids = trace.scenario.robot_ids()
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


def write_plot_csv(lines: Iterable[str], paths: Mapping) -> None:
    """Write each robot's samples to `paths[robot_id]` as `t,x,y,theta,v,w`
    rows: stream trace.csv's lines once and copy the cells of each sample
    row, never formatting them again (the header and every other record
    type are skipped)."""
    with ExitStack() as stack:
        files = {
            str(rid): stack.enter_context(open(path, "w", encoding="utf-8", newline="\n"))
            for rid, path in paths.items()
        }
        for fh in files.values():
            fh.write("t,x,y,theta,v,w\n")
        for line in lines:
            # sample row: t,sample,robot_id,,x,y,theta,v,w,q,
            t, kind, rid, _, rest = line.split(",", 4)
            if kind == "sample":
                files[rid].write(t + "," + rest.rsplit(",", 2)[0] + "\n")
