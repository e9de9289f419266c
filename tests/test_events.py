"""Event detection: graze tunnelling, the soundness of the reach bounds
against a fine substep oracle, the bisection's certified probes against a
plain bisection, the rounding slack of the cull, the two-sided bound and
the first-order certificates at the edge of the reach, the second-order
certificates on turning pairs (whose paths bend) and on pairs that start
within a few slacks of contact (where the chord saves probes), on
thin bodies closing at the reach speed, the first of several dips in
long steps of turning pairs, a pair moving as one within a slack of
contact, settled bisections (the bits of every bisection of the
collision-heavy runs, the order of their certified ends, and brackets at
the edge of the shortcut), the step
floors (every instant that measures nothing would have culled every row,
reached no contact and no target; on the golden runs, on one where a jump
turns a robot to its target, and on random scenes), the gap budget, the
call and NamedTuple-build budgets of `crossing` and `chatter`, and
bisection at offsets where one ulp exceeds the time tolerance."""

import ast
import json
import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from bumpsim import hybrid
from bumpsim.collision import CONTACT_TOL
from bumpsim.hybrid import (
    EVENT_TIME_TOL,
    SAMPLE,
    SAMPLE_WIDTH,
    CollisionRecord,
    ContactPair,
    FaultRecord,
    SimMode,
    TargetReachedRecord,
    contact_pairs,
    detect_event,
    gap,
    simulate,
    step_flow,
)
from bumpsim.scenario import ControlInput, RobotState, load_scenario, validate_scenario
from conftest import GOLDEN_CASES, GOLDEN_IDS, golden_scenario

ROOT = Path(__file__).resolve().parents[1]
SCENARIOS = ROOT / "scenarios"
SUBSTEPS = 1000
M_V, M_W = 5.0, 5.0


def detect(pairs, states, inputs, h):
    gaps0 = [gap(pair, states) for pair in pairs]
    next_states = {rid: step_flow(states[rid], inputs[rid], h) for rid in states}
    return detect_event(pairs, gaps0, states, inputs, h, next_states)


def gap_at(pair, states, inputs, tau):
    return gap(pair, {rid: step_flow(states[rid], inputs[rid], tau) for rid in states})


def plain_bisection(pair, states, inputs, hi, lo=0.0):
    """Bisect the pair's gap on [lo, hi], probing every midpoint: the last
    apart offset and the number of probes."""
    i, j, _, fixed = pair
    probe = {}
    probes = 0
    while hi - lo > EVENT_TIME_TOL:
        mid = 0.5 * (lo + hi)
        probes += 1
        probe[i] = step_flow(states[i], inputs[i], mid)
        if fixed is None:
            probe[j] = step_flow(states[j], inputs[j], mid)
        if gap(pair, probe) > 0.0:
            lo = mid
        else:
            hi = mid
    return lo, probes


def first_negative_substep(pair, states, inputs, h):
    """The first of SUBSTEPS even offsets in (0, h] with a negative gap, or
    None."""
    taus = (h * k / SUBSTEPS for k in range(1, SUBSTEPS + 1))
    return next((tau for tau in taus if gap_at(pair, states, inputs, tau) < 0.0), None)


def parent_rule(pair, states, inputs, h):
    """The sign-change rule alone: bisect when the gap goes from positive at
    the step start to negative at its end, else report no crossing."""
    if not (gap_at(pair, states, inputs, 0.0) > 0.0 and gap_at(pair, states, inputs, h) < 0.0):
        return None
    return plain_bisection(pair, states, inputs, h)[0]


# --- graze tunnelling --------------------------------------------------------

# A robot of radius 0.5 passes under a body of radius 0.5 at (0, 1 - 1e-6):
# the gap is 1.2482e-3 at both ends of the step and -1e-6 at its midpoint.
GRAZE_STATES = {1: RobotState(-0.05, 0.0, 0.0)}
GRAZE_INPUTS = {1: ControlInput(1.0, 0.0)}
GRAZE_H = 0.1
GRAZE_AT = (0.0, 1.0 - 1e-6)


@pytest.mark.parametrize("other", ["obstacle", "robot"])
def test_graze_inside_a_step_is_found(other):
    states, inputs = dict(GRAZE_STATES), dict(GRAZE_INPUTS)
    if other == "obstacle":
        pair = ContactPair(1, 3, 1.0, GRAZE_AT)
    else:
        pair = ContactPair(1, 2, 1.0, None)
        states[2] = RobotState(*GRAZE_AT, math.pi)
        inputs[2] = ControlInput(0.0, 0.0)
    g0, g1 = gap_at(pair, states, inputs, 0.0), gap_at(pair, states, inputs, GRAZE_H)
    assert g0 == pytest.approx(1.2482e-3, abs=1e-7) and g1 == pytest.approx(g0, abs=1e-15)
    assert gap_at(pair, states, inputs, 0.5 * GRAZE_H) == pytest.approx(-1e-6, rel=1e-3)
    # the end signs alone miss it
    assert parent_rule(pair, states, inputs, GRAZE_H) is None

    hit = detect([pair], states, inputs, GRAZE_H)
    assert hit is not None
    assert (hit.robot_id, hit.other_id, hit.simultaneous) == (1, pair.j, ())
    # first touch, before the midpoint, on the non-penetrating side
    assert hit.t_offset == pytest.approx(0.05 - math.sqrt(2e-6 - 1e-12), abs=1e-9)
    assert gap_at(pair, states, inputs, hit.t_offset) > 0.0
    assert gap_at(pair, states, inputs, hit.t_offset + 2 * EVENT_TIME_TOL) <= 0.0
    # no substep of the step touches before the hit
    assert hit.t_offset <= first_negative_substep(pair, states, inputs, GRAZE_H)


# --- the bounds against a substep oracle -------------------------------------


def draw_case(rng, robot_robot):
    """One pair within a few reach lengths of contact at the step start, or
    one whose body sits next to the robot's path (a graze of either sign)."""
    h = math.exp(rng.uniform(math.log(1e-4), math.log(0.1)))

    def draw_input():
        return ControlInput(rng.uniform(-M_V, M_V), rng.uniform(-M_W, M_W))

    states = {1: RobotState(rng.uniform(-10, 10), rng.uniform(-10, 10), rng.uniform(-math.pi, math.pi))}
    inputs = {1: draw_input()}
    if robot_robot:
        inputs[2] = draw_input()
    # down to bodies thin enough to pass through within one step
    rsum = math.exp(rng.uniform(math.log(0.01), math.log(2.0)))
    reach = sum(abs(u.v) for u in inputs.values()) * h
    mode = rng.random()
    if mode < 0.5:
        # apart by up to three reach lengths, in any direction or ahead
        tau, base, clearance = 0.0, states[1], rng.uniform(0.0, 3.0 * reach)
        ang = rng.uniform(-math.pi, math.pi) if mode < 0.25 else states[1].theta + rng.uniform(-0.3, 0.3)
        if inputs[1].v < 0.0:
            ang += math.pi
    else:
        # abreast of the robot at a time inside the step, nearly touching
        tau = rng.uniform(0.2 * h, 0.8 * h)
        base = RobotState(*step_flow(states[1], inputs[1], tau))
        clearance = rng.uniform(-0.5, 1.0) * (reach + 1e-9) * rng.choice([1.0, 1e-3, 1e-6])
        ang = base.theta + rng.choice([-0.5, 0.5]) * math.pi
    pos = (base.x + (rsum + clearance) * math.cos(ang), base.y + (rsum + clearance) * math.sin(ang))
    if robot_robot:
        # the second robot starts where it reaches pos at tau, near enough;
        # abreast, it runs along or against the first
        heading = rng.uniform(-math.pi, math.pi)
        if tau > 0.0:
            heading = base.theta + rng.choice([0.0, math.pi]) + rng.uniform(-0.1, 0.1)
        ahead_x, ahead_y, _ = step_flow(RobotState(*pos, heading), inputs[2], tau)
        states[2] = RobotState(2.0 * pos[0] - ahead_x, 2.0 * pos[1] - ahead_y, heading)
        pair = ContactPair(1, 2, rsum, None)
    else:
        pair = ContactPair(1, 3, rsum, pos)
    return pair, states, inputs, h


def draw_head_on(rng, robot_robot):
    """One pair closing head-on, so that the closing speed is close to the
    reach bound; each robot turns by at most 0.01 rad in the step, and
    contact comes within it."""
    h = math.exp(rng.uniform(math.log(1e-4), math.log(0.1)))

    def draw_input():
        return ControlInput(rng.choice([-1.0, 1.0]) * rng.uniform(0.5, M_V), rng.uniform(-0.01, 0.01) / h)

    inputs = {1: draw_input()}
    if robot_robot:
        inputs[2] = draw_input()
    # the direction robot 1 drives in, and its heading
    ang = rng.uniform(-math.pi, math.pi)
    states = {1: RobotState(rng.uniform(-10, 10), rng.uniform(-10, 10), ang + (inputs[1].v < 0.0) * math.pi)}
    closing = sum(abs(u.v) for u in inputs.values()) * h
    # radii sums of at least half the closing distance: no body passes
    # through the other within the step
    rsum = closing * math.exp(rng.uniform(math.log(0.5), math.log(20.0)))
    dist = rsum + rng.uniform(0.0, 0.9) * closing
    pos = (states[1].x + dist * math.cos(ang), states[1].y + dist * math.sin(ang))
    if robot_robot:
        # robot 2 drives back along the line, towards robot 1
        states[2] = RobotState(*pos, ang + (inputs[2].v > 0.0) * math.pi)
        return ContactPair(1, 2, rsum, None), states, inputs, h
    return ContactPair(1, 3, rsum, pos), states, inputs, h


def probed(pair, states, inputs, h, monkeypatch):
    """`detect_event` on the pair, and how many probes it stepped."""
    calls = []
    real = hybrid.step_flow

    def counting(*args):
        calls.append(args)
        return real(*args)

    gaps0 = [gap(pair, states)]
    next_states = {rid: step_flow(states[rid], inputs[rid], h) for rid in states}
    with monkeypatch.context() as m:
        m.setattr(hybrid, "step_flow", counting)
        hit = detect_event([pair], gaps0, states, inputs, h, next_states)
    # a probe steps each robot of the pair
    return hit, len(calls) // (2 if pair.fixed is None else 1)


ALL_RULES = ("skipped", "oracle_hits", "sign_changes", "grazes")


@pytest.mark.parametrize("robot_robot", [False, True], ids=["robot-obstacle", "robot-robot"])
@pytest.mark.parametrize(
    "seed, draw, rules",
    [
        pytest.param(1, draw_case, ALL_RULES, id="1"),
        pytest.param(2, draw_case, ALL_RULES, id="2"),
        pytest.param(3, draw_head_on, ("oracle_hits", "sign_changes", "certified"), id="head-on"),
    ],
)
def test_bounds_are_sound_against_substeps(robot_robot, seed, draw, rules, monkeypatch):
    rng = random.Random(seed)
    seen = dict.fromkeys((*ALL_RULES, "certified"), 0)
    for _ in range(300):
        pair, states, inputs, h = draw(rng, robot_robot)
        if gap(pair, states) <= 0.0:
            continue
        hit, probes = probed(pair, states, inputs, h, monkeypatch)
        oracle = [gap_at(pair, states, inputs, h * k / SUBSTEPS) for k in range(1, SUBSTEPS + 1)]
        first_negative = next((k for k, g in enumerate(oracle, 1) if g < 0.0), None)
        case = (pair, states, inputs, h)

        if not probes:
            # skipped by the cull or the two-sided bound: provably apart
            seen["skipped"] += 1
            assert hit is None, case
            assert gap_at(pair, states, inputs, h) > 0.0, case
            assert first_negative is None, case
        if first_negative is not None:
            seen["oracle_hits"] += 1
            assert hit is not None, case
            assert hit.t_offset <= h * first_negative / SUBSTEPS, case
        sign_change = parent_rule(pair, states, inputs, h)
        if sign_change is not None:
            seen["sign_changes"] += 1
            assert hit is not None and hit.t_offset == sign_change, case
        elif first_negative is not None:
            # a graze: in and out of contact within the step
            seen["grazes"] += 1
        if draw is draw_head_on:
            # closing near the reach bound, the certificates skip probes
            # that a plain bisection steps, and land on the same bits
            assert sign_change is not None, case
            assert probes < plain_bisection(pair, states, inputs, h)[1], case
            seen["certified"] += 1
    # every rule of the draw was exercised
    assert min(seen[rule] for rule in rules) >= 5, seen


# --- the cull's rounding slack ------------------------------------------------


def draw_cull_edge(rng):
    """A robot driving straight (w = 0) at an obstacle that sits exactly the
    radii sum beyond the step's RK4 end point, its x shifted by up to 40
    ulps: the start gap less the reach, and the end gap, are then zero up to
    rounding, of either sign."""
    h = math.exp(rng.uniform(math.log(1e-4), math.log(0.1)))
    v = rng.choice([-1.0, 1.0]) * rng.uniform(0.5, M_V)
    theta = rng.uniform(-math.pi, math.pi)
    state = RobotState(rng.uniform(-10, 10), rng.uniform(-10, 10), theta)
    end_x, end_y, _ = step_flow(state, ControlInput(v, 0.0), h)
    rsum = math.exp(rng.uniform(math.log(0.01), math.log(2.0)))
    ahead = math.copysign(rsum, v)
    ox = end_x + ahead * math.cos(theta)
    ox += rng.randint(-40, 40) * math.ulp(ox)
    pos = (ox, end_y + ahead * math.sin(theta))
    return ContactPair(1, 3, rsum, pos), {1: state}, {1: ControlInput(v, 0.0)}, h


def test_cull_keeps_every_pair_that_ends_in_contact():
    rng = random.Random(2)
    ends_in_contact = slackless = 0
    for _ in range(4000):
        pair, states, inputs, h = draw_cull_edge(rng)
        gaps0 = [gap(pair, states)]
        next_states = {1: step_flow(states[1], inputs[1], h)}
        if not (gaps0[0] > 0.0 and gap(pair, next_states) < 0.0):
            continue
        ends_in_contact += 1
        # apart by more than the reach, by rounding: only the slack keeps it
        slackless += gaps0[0] - abs(inputs[1].v) * h > 0.0
        hit = detect_event([pair], gaps0, states, inputs, h, next_states)
        assert hit is not None, (pair, states, inputs, h)
    # about half the draws end in contact, and 39 of those need the slack
    assert ends_in_contact > 1000 and slackless >= 20, (ends_in_contact, slackless)


# Found by that draw: (radii sum, obstacle x, y, robot x, y, theta, v, h) of
# pairs apart by more than the reach at the step start that overlap at its end.
CULL_EDGE_CASES = [
    (
        "0x1.45d64ca34175ep-1", "0x1.4d3d862e40513p-3", "0x1.413d4e363d55ep+3",
        "-0x1.fb72d0caf0c00p-6", "0x1.2d421f7b60414p+3", "-0x1.df1fa4c7f522fp+0",
        "-0x1.0f41d7aec6f90p+1", "0x1.0c73ec179557ep-7",
    ),
    (
        "0x1.773c82bbf5864p-7", "0x1.63728880437ddp-3", "0x1.2b5d4b489f025p+3",
        "0x1.7e50140115140p-3", "0x1.2b0af65bfc05ep+3", "0x1.3e7164041a576p+1",
        "0x1.07cfd8f536d3fp+2", "0x1.42af2b4020019p-10",
    ),
    (
        "0x1.05e7ca098cfb3p-2", "0x1.b7ee80664153dp+0", "0x1.39fd4db0caa69p+3",
        "0x1.a28762c0ade00p+0", "0x1.2fde469aad900p+3", "0x1.4ff7d90c14d54p+0",
        "0x1.037f8e3f2438ep+2", "0x1.20721fefe1789p-6",
    ),
]


@pytest.mark.parametrize("case", CULL_EDGE_CASES, ids=["reverse", "thin", "forward"])
def test_cull_edge_case_is_hit(case):
    rsum, ox, oy, x, y, theta, v, h = map(float.fromhex, case)
    pair = ContactPair(1, 3, rsum, (ox, oy))
    states, inputs = {1: RobotState(x, y, theta)}, {1: ControlInput(v, 0.0)}
    assert gap(pair, states) - abs(v) * h > 0.0
    assert gap_at(pair, states, inputs, h) < 0.0
    hit = detect([pair], states, inputs, h)
    assert hit is not None and (hit.robot_id, hit.other_id) == (1, 3)
    assert 0.0 <= hit.t_offset <= h


# --- the rounding slack of the two-sided bound and of the certificates --------


def exactly_touching(pair, states):
    """The exact sign of dx^2 + dy^2 - rsum^2 at the float positions: no
    trust in `hypot`'s rounding."""
    i, j, rsum, fixed = pair
    jx, jy = fixed if fixed is not None else states[j][:2]
    xi, yi, _ = states[i]
    dx, dy = Fraction(jx) - Fraction(xi), Fraction(jy) - Fraction(yi)
    return dx * dx + dy * dy <= Fraction(rsum) ** 2


def draw_straight_inputs(rng, robot_robot):
    inputs = {rid: ControlInput(rng.choice([-1.0, 1.0]) * rng.uniform(0.5, M_V), 0.0) for rid in (1, 2)}
    return inputs if robot_robot else {1: inputs[1]}


def place_robot_2(pos, heading, v, tau):
    """Robot 2's start, from which it drives straight at speed v to pos in tau."""
    back_x, back_y, _ = step_flow(RobotState(*pos, heading), ControlInput(-v, 0.0), tau)
    return RobotState(back_x, back_y, heading)


def draw_thin_graze(rng, robot_robot):
    """A body thin enough (radii sum 1e-17 to 1e-13) that the two-sided
    bound is 0 up to rounding, beside the robot's mid-step position by up to
    twice the radii sum: the pair touches at mid-step or just misses."""
    h = math.exp(rng.uniform(math.log(1e-4), math.log(0.1)))
    inputs = draw_straight_inputs(rng, robot_robot)
    states = {1: RobotState(rng.uniform(-10, 10), rng.uniform(-10, 10), rng.uniform(-math.pi, math.pi))}
    mid = RobotState(*step_flow(states[1], inputs[1], 0.5 * h))
    rsum = math.exp(rng.uniform(math.log(1e-17), math.log(1e-13)))
    side = mid.theta + rng.choice([-0.5, 0.5]) * math.pi
    offset = rsum * rng.uniform(0.0, 2.0)
    pos = (mid.x + offset * math.cos(side), mid.y + offset * math.sin(side))
    if robot_robot:
        # robot 2 passes robot 1 alongside or head-on
        states[2] = place_robot_2(pos, mid.theta + rng.choice([0.0, math.pi]), inputs[2].v, 0.5 * h)
        return ContactPair(1, 2, rsum, None), states, inputs, h
    return ContactPair(1, 3, rsum, pos), states, inputs, h


@pytest.mark.parametrize("robot_robot", [False, True], ids=["robot-obstacle", "robot-robot"])
def test_two_sided_bound_never_skips_a_pair_touching_at_mid_step(robot_robot, monkeypatch):
    rng = random.Random(4)
    touching = slackless = 0
    for _ in range(1500):
        pair, states, inputs, h = draw_thin_graze(rng, robot_robot)
        if not exactly_touching(pair, {rid: step_flow(states[rid], inputs[rid], 0.5 * h) for rid in states}):
            continue
        touching += 1
        g0, g1 = gap(pair, states), gap_at(pair, states, inputs, h)
        # the bound without its slack would skip the pair
        slackless += g1 >= 0.0 and g0 + g1 - sum(abs(u.v) for u in inputs.values()) * h > 0.0
        _, probes = probed(pair, states, inputs, h, monkeypatch)
        assert probes > 0, (pair, states, inputs, h)
    assert touching > 500 and slackless >= 20, (touching, slackless)


def draw_mid_crossing(rng, robot_robot):
    """A pair closing head-on (w = 0) whose gap crosses zero at mid-step,
    the bisection's first midpoint, up to a shift of 40 ulps: both
    certificates there predict a gap that is 0 up to rounding."""
    h = math.exp(rng.uniform(math.log(1e-4), math.log(0.1)))
    inputs = draw_straight_inputs(rng, robot_robot)
    # the direction robot 1 drives in
    ang = rng.uniform(-math.pi, math.pi)
    states = {1: RobotState(rng.uniform(-10, 10), rng.uniform(-10, 10), ang + (inputs[1].v < 0.0) * math.pi)}
    mid = RobotState(*step_flow(states[1], inputs[1], 0.5 * h))
    rsum = math.exp(rng.uniform(math.log(0.01), math.log(2.0)))
    px = mid.x + rsum * math.cos(ang)
    px += rng.randint(-40, 40) * math.ulp(px)
    pos = (px, mid.y + rsum * math.sin(ang))
    if robot_robot:
        # robot 2 drives back along the line, towards robot 1
        states[2] = place_robot_2(pos, ang + (inputs[2].v > 0.0) * math.pi, inputs[2].v, 0.5 * h)
        return ContactPair(1, 2, rsum, None), states, inputs, h
    return ContactPair(1, 3, rsum, pos), states, inputs, h


@pytest.mark.parametrize("robot_robot", [False, True], ids=["robot-obstacle", "robot-robot"])
def test_certificates_keep_the_bits_of_a_crossing_at_mid_step(robot_robot):
    rng = random.Random(5)
    apart_slackless = touching_slackless = 0
    for _ in range(2000):
        pair, states, inputs, h = draw_mid_crossing(rng, robot_robot)
        g0 = gap(pair, states)
        next_states = {rid: step_flow(states[rid], inputs[rid], h) for rid in states}
        g1 = gap(pair, next_states)
        if not (g0 > 0.0 and g1 < 0.0):
            continue
        # the first midpoint's certificates, as detect_event forms them
        speed, mid = sum(abs(u.v) for u in inputs.values()), 0.5 * (0.0 + h)
        apart, touching = g0 - speed * (mid - 0.0), g1 + speed * (h - mid)
        g_mid = gap_at(pair, states, inputs, mid)
        # a certificate without its slack would take the wrong branch
        apart_slackless += apart > 0.0 >= g_mid
        touching_slackless += touching < 0.0 < g_mid and apart <= 0.0
        case = (pair, states, inputs, h)
        hit = detect_event([pair], [g0], states, inputs, h, next_states)
        assert hit is not None and hit.t_offset == plain_bisection(pair, states, inputs, h)[0], case
        at_hit = {rid: step_flow(states[rid], inputs[rid], hit.t_offset) for rid in states}
        assert not exactly_touching(pair, at_hit), case
    assert apart_slackless >= 10 and touching_slackless >= 5, (apart_slackless, touching_slackless)


# --- the second-order certificates -------------------------------------------


def bisected_bracket(pair, states, inputs, h, monkeypatch):
    """The bracket that `detect_event` bisects to its hit, and the probes it
    took to find it: the step when the pair ends it in contact, else [a, b]
    with b the search's first probe that touches and a the largest offset
    below b that it probed before b, or 0."""
    if gap_at(pair, states, inputs, h) <= 0.0:
        return 0.0, h, 0
    taus = []
    real = hybrid.step_flow

    def recording(state, u, tau):
        # a probe steps each robot of the pair at one offset
        if not taus or taus[-1] != tau:
            taus.append(tau)
        return real(state, u, tau)

    gaps0 = [gap(pair, states)]
    next_states = {rid: step_flow(states[rid], inputs[rid], h) for rid in states}
    with monkeypatch.context() as m:
        m.setattr(hybrid, "step_flow", recording)
        detect_event([pair], gaps0, states, inputs, h, next_states)
    k = next(k for k, tau in enumerate(taus) if gap_at(pair, states, inputs, tau) <= 0.0)
    return max((tau for tau in taus[:k] if tau < taus[k]), default=0.0), taus[k], k + 1


def first_order_probes(pair, states, inputs, h, monkeypatch):
    """The last apart offset and the probes, the search's included, of a
    bisection of `detect_event`'s bracket with the reach bound's
    certificates alone, its speed and slack formed as `detect_event` forms
    them."""
    speed = scale = 0.0
    for rid, (v, w) in inputs.items():
        speed += abs(v) * (1.0 + 0.5 * h * abs(w))
        x, y, _ = states[rid]
        scale += abs(x) + abs(y)
    g0 = gap(pair, states)
    slack = hybrid.BOUND_SLACK * (scale + speed * h + g0 + pair.rsum)
    a, b, probes = bisected_bracket(pair, states, inputs, h, monkeypatch)
    g_a, g_b = gap_at(pair, states, inputs, a), gap_at(pair, states, inputs, b)
    lo, hi = a, b
    while hi - lo > EVENT_TIME_TOL:
        mid = 0.5 * (lo + hi)
        if g_a - speed * (mid - a) > slack:
            lo = mid
        elif g_b + speed * (b - mid) < -slack:
            hi = mid
        else:
            probes += 1
            g = gap_at(pair, states, inputs, mid)
            if g > 0.0:
                lo = a = mid
                g_a = g
            else:
                hi = b = mid
                g_b = g
    return lo, probes


def assert_reference_bits(pair, states, inputs, h, hit, monkeypatch):
    """The hit lands on the bits of a bisection that probes every midpoint
    of the same bracket, on the side that does not touch exactly.  A graze's
    hit may come earlier, from a crossing the search found back in the
    bracket, and no later than the substep oracle's first touch."""
    case = (pair, states, inputs, h)
    assert (hit.robot_id, hit.other_id) == (pair.i, pair.j), case
    a, b, _ = bisected_bracket(pair, states, inputs, h, monkeypatch)
    plain = plain_bisection(pair, states, inputs, b, a)[0]
    if b == h:
        assert hit.t_offset == plain, case
    else:
        first = first_negative_substep(pair, states, inputs, h)
        assert hit.t_offset <= plain and (first is None or hit.t_offset <= first), case
    at_hit = {rid: step_flow(states[rid], inputs[rid], hit.t_offset) for rid in states}
    assert not exactly_touching(pair, at_hit), case


def draw_turning(rng, robot_robot):
    """A pair abreast at a time inside a long step (h from 0.01 to 0.1), each
    robot turning at |w| from M_W / 2 to M_W, so that its path bends by up
    to half a radian: the chord alone misjudges the gap."""
    h = math.exp(rng.uniform(math.log(0.01), math.log(0.1)))

    def draw_input():
        return ControlInput(rng.uniform(-M_V, M_V), rng.choice([-1.0, 1.0]) * rng.uniform(0.5 * M_W, M_W))

    inputs = {1: draw_input()}
    if robot_robot:
        inputs[2] = draw_input()
    states = {1: RobotState(rng.uniform(-10, 10), rng.uniform(-10, 10), rng.uniform(-math.pi, math.pi))}
    rsum = math.exp(rng.uniform(math.log(0.01), math.log(2.0)))
    reach = sum(abs(u.v) for u in inputs.values()) * h
    tau = rng.uniform(0.2 * h, 0.8 * h)
    base = RobotState(*step_flow(states[1], inputs[1], tau))
    clearance = rng.uniform(-0.5, 1.0) * reach * rng.choice([1.0, 1e-2, 1e-4])
    ang = base.theta + rng.uniform(-math.pi, math.pi)
    pos = (base.x + (rsum + clearance) * math.cos(ang), base.y + (rsum + clearance) * math.sin(ang))
    if robot_robot:
        # robot 2 starts where it reaches pos at tau
        heading = rng.uniform(-math.pi, math.pi)
        ahead_x, ahead_y, _ = step_flow(RobotState(*pos, heading), inputs[2], tau)
        states[2] = RobotState(2.0 * pos[0] - ahead_x, 2.0 * pos[1] - ahead_y, heading)
        return ContactPair(1, 2, rsum, None), states, inputs, h
    return ContactPair(1, 3, rsum, pos), states, inputs, h


@pytest.mark.parametrize("robot_robot", [False, True], ids=["robot-obstacle", "robot-robot"])
def test_turning_pairs_keep_the_bits_of_every_hit(robot_robot, monkeypatch):
    rng = random.Random(6)
    hits = grazes = 0
    for _ in range(400):
        pair, states, inputs, h = draw_turning(rng, robot_robot)
        if gap(pair, states) <= 0.0:
            continue
        hit = detect([pair], states, inputs, h)
        if hit is None:
            continue
        hits += 1
        grazes += gap_at(pair, states, inputs, h) >= 0.0
        assert_reference_bits(pair, states, inputs, h, hit, monkeypatch)
    assert hits >= 100 and grazes >= 10, (hits, grazes)


def draw_near_contact(rng, robot_robot):
    """A pair apart by at most four slacks at the step start, closing at
    half to all of the reach bound's speed, as in a deadlock of repeated
    contacts at one instant."""
    h = math.exp(rng.uniform(math.log(1e-4), math.log(0.1)))

    def draw_input():
        return ControlInput(rng.choice([-1.0, 1.0]) * rng.uniform(0.5 * M_V, M_V), rng.uniform(-M_W, M_W))

    inputs = {1: draw_input()}
    if robot_robot:
        inputs[2] = draw_input()
    # the direction robot 1 drives in, off the line to the body by up to 60 degrees
    drive = rng.uniform(-math.pi, math.pi)
    states = {1: RobotState(rng.uniform(-10, 10), rng.uniform(-10, 10), drive + (inputs[1].v < 0.0) * math.pi)}
    ang = drive + rng.uniform(-1.0, 1.0) * math.pi / 3.0
    rsum = math.exp(rng.uniform(math.log(0.01), math.log(2.0)))
    reach = sum(abs(u.v) for u in inputs.values()) * h
    scale = abs(states[1].x) + abs(states[1].y) + reach
    if robot_robot:
        scale += abs(states[1].x + rsum * math.cos(ang)) + abs(states[1].y + rsum * math.sin(ang))
    clearance = rng.uniform(0.0, 4.0) * hybrid.BOUND_SLACK * (scale + rsum)
    pos = (states[1].x + (rsum + clearance) * math.cos(ang), states[1].y + (rsum + clearance) * math.sin(ang))
    if robot_robot:
        # robot 2 drives towards robot 1, off the line by up to 60 degrees
        back = ang + math.pi + rng.uniform(-1.0, 1.0) * math.pi / 3.0
        states[2] = RobotState(*pos, back + (inputs[2].v < 0.0) * math.pi)
        return ContactPair(1, 2, rsum, None), states, inputs, h
    return ContactPair(1, 3, rsum, pos), states, inputs, h


@pytest.mark.parametrize("robot_robot", [False, True], ids=["robot-obstacle", "robot-robot"])
def test_near_contact_hits_keep_their_bits_with_fewer_probes(robot_robot, monkeypatch):
    rng = random.Random(7)
    hits = probes = first_order = 0
    for _ in range(300):
        pair, states, inputs, h = draw_near_contact(rng, robot_robot)
        if gap(pair, states) <= 0.0:
            continue
        hit, n = probed(pair, states, inputs, h, monkeypatch)
        if hit is None:
            continue
        hits += 1
        assert_reference_bits(pair, states, inputs, h, hit, monkeypatch)
        lo, n_first = first_order_probes(pair, states, inputs, h, monkeypatch)
        assert lo == hit.t_offset and n <= n_first, (pair, states, inputs, h)
        probes += n
        first_order += n_first
    assert hits >= 200 and probes < first_order, (hits, probes, first_order)


def draw_thin_pass(rng, robot_robot):
    """Thin bodies (radii sum a tenth to a hundred slacks) closing head-on
    at the full reach speed, w = 0 so that the speed bound is exact, from
    0.1 s to 1e-6 m/s: at a time inside the step one is half to three radii
    sums ahead of the other and up to one off the line.  The brackets'
    lower bound on the centre distance, `near` in `hybrid._certified`, then
    comes within a few slacks of the distance itself."""
    h = math.exp(rng.uniform(math.log(1e-4), math.log(0.1)))

    def draw_input():
        return ControlInput(rng.choice([-1.0, 1.0]) * math.exp(rng.uniform(math.log(1e-6), math.log(M_V))), 0.0)

    inputs = {1: draw_input()}
    if robot_robot:
        inputs[2] = draw_input()
    scale = math.exp(rng.uniform(math.log(1e-3), math.log(10.0)))
    states = {1: RobotState(rng.uniform(-scale, scale), rng.uniform(-scale, scale), rng.uniform(-math.pi, math.pi))}
    tau = rng.uniform(0.0, h)
    base = RobotState(*step_flow(states[1], inputs[1], tau))
    rsum = hybrid.BOUND_SLACK * scale * math.exp(rng.uniform(math.log(0.1), math.log(100.0)))
    # the direction robot 1 drives in, and the other body's offset from its path
    ang = base.theta + (inputs[1].v < 0.0) * math.pi
    ahead = rsum * rng.uniform(0.5, 3.0)
    across = rsum * rng.uniform(-1.0, 1.0) * rng.choice([1.0, 1e-1, 1e-2, 1e-3])
    pos = (
        base.x + ahead * math.cos(ang) - across * math.sin(ang),
        base.y + ahead * math.sin(ang) + across * math.cos(ang),
    )
    if robot_robot:
        # robot 2 drives back along the line, towards robot 1
        states[2] = place_robot_2(pos, ang + (inputs[2].v > 0.0) * math.pi, inputs[2].v, tau)
        return ContactPair(1, 2, rsum, None), states, inputs, h
    return ContactPair(1, 3, rsum, pos), states, inputs, h


@pytest.mark.parametrize("robot_robot", [False, True], ids=["robot-obstacle", "robot-robot"])
def test_thin_passes_at_the_reach_speed_keep_their_bits(robot_robot, monkeypatch):
    rng = random.Random(8)
    hits = 0
    for _ in range(300):
        pair, states, inputs, h = draw_thin_pass(rng, robot_robot)
        if gap(pair, states) <= 0.0:
            continue
        hit = detect([pair], states, inputs, h)
        if hit is not None:
            hits += 1
            assert_reference_bits(pair, states, inputs, h, hit, monkeypatch)
    assert hits >= 100, hits


# --- large steps: the first of several dips ----------------------------------


def draw_large_step(rng, robot_robot):
    """A pair that overlaps by up to 5% of its radii sum at a time inside a
    step of 0.6, 1.0 or 2.0 s (`validate_scenario` bounds no dt), under
    inputs anywhere in the box |v|, |w| <= 5: a robot turns by up to 10 rad
    within the step, so the gap can dip more than once.  The pair is apart
    at both ends of the step (a graze) or ends it in contact."""
    h = rng.choice([0.6, 1.0, 2.0])

    def draw_input():
        return ControlInput(rng.uniform(-M_V, M_V), rng.uniform(-M_W, M_W))

    states = {1: RobotState(rng.uniform(-10, 10), rng.uniform(-10, 10), rng.uniform(-math.pi, math.pi))}
    inputs = {1: draw_input()}
    rsum = math.exp(rng.uniform(math.log(0.1), math.log(2.0)))
    tau = rng.uniform(0.05, 0.95) * h
    base = RobotState(*step_flow(states[1], inputs[1], tau))
    ang = rng.uniform(-math.pi, math.pi)
    dist = rsum * (1.0 - rng.uniform(0.0, 0.05))
    pos = (base.x + dist * math.cos(ang), base.y + dist * math.sin(ang))
    if robot_robot:
        # robot 2 starts where stepping back from pos for tau takes it, near enough
        v, w = inputs[2] = draw_input()
        states[2] = step_flow(RobotState(*pos, rng.uniform(-math.pi, math.pi)), ControlInput(-v, -w), tau)
        return ContactPair(1, 2, rsum, None), states, inputs, h
    return ContactPair(1, 3, rsum, pos), states, inputs, h


def assert_first_contact(pair, states, inputs, h):
    """The pair's hit comes whenever the substep oracle sees the pair touch,
    no later than its first touch, and on the side that does not touch
    exactly.  Returns the oracle's first touch."""
    case = (pair, states, inputs, h)
    first = first_negative_substep(pair, states, inputs, h)
    hit = detect([pair], states, inputs, h)
    if first is not None:
        assert hit is not None and hit.t_offset <= first, case
    if hit is not None:
        at_hit = {rid: step_flow(states[rid], inputs[rid], hit.t_offset) for rid in states}
        assert gap(pair, at_hit) > 0.0 and not exactly_touching(pair, at_hit), case
    return first


# Found by that draw: turning robot pairs whose gap dips more than once in
# the step, which a search for one in-step minimum gets wrong.  The first
# two are apart at both ends and its minimum is not below contact, the
# third is apart at both ends and its minimum is a later dip, and the
# fourth ends in contact after a dip that a bisection from the step's ends
# passes.  (radii sum, robot 1 x, y, theta, v, w, robot 2 x, y, theta, v,
# w, h)
LARGE_STEP_CASES = [
    (
        "0x1.9d9a559843c0ep-3", "-0x1.2035120b0f87ap+3", "0x1.0188cb698e444p+2", "0x1.8d8b9e4896280p-5",
        "-0x1.8fb7bec929e43p+1", "0x1.32be125b4a262p+2", "-0x1.3b23de11bdaa1p+3", "0x1.198b15b7fecbep+2",
        "-0x1.4c2e3af3fb3b8p-1", "0x1.7c534f8d0fbe8p+1", "-0x1.0e03e10c7a1ccp+1", "0x1.3333333333333p-1",
    ),
    (
        "0x1.9c0bc2570fa6dp-4", "0x1.58a7ea20ef066p+2", "-0x1.3f0cc12ef6e81p+3", "0x1.05474bdeaf540p-1",
        "0x1.131650da78cbcp+2", "-0x1.9b5ec0e305a60p+1", "0x1.6a15523066446p+2", "-0x1.382bea66dc82ep+3",
        "0x1.c971b63f1e9f9p+0", "-0x1.688270dee4e42p+1", "0x1.96be48fc8ccf4p+0", "0x1.0000000000000p+0",
    ),
    (
        "0x1.d4e76c1d9c8ecp-4", "0x1.31abe96c060f4p+3", "0x1.45d15c95e6e10p+1", "-0x1.193e02165cd4cp+0",
        "0x1.5f959efeae180p+0", "0x1.ed76545fac7acp+1", "0x1.30c4b6bce7adap+3", "0x1.35bc30b86c71cp+1",
        "0x1.1c6d424327296p+0", "0x1.4fb156ea6dbc8p+0", "-0x1.7acc350b7d31ap+1", "0x1.0000000000000p+0",
    ),
    (
        "0x1.e3bbc0fa28879p-4", "0x1.08c4589dddd52p+3", "-0x1.0b21b26dacd09p+3", "0x1.07498fbeab248p+1",
        "0x1.de0445cd54458p+0", "-0x1.3f2eb5d5f565ap+0", "0x1.da037aba932a8p+2", "-0x1.bc524f4b24d15p+2",
        "-0x1.169a1999d6be4p+0", "0x1.8e2cbb35afd24p+0", "0x1.4f79faa723794p+1", "0x1.0000000000000p+0",
    ),
]


@pytest.mark.parametrize(
    "case, ends_in_contact",
    list(zip(LARGE_STEP_CASES, [False, False, False, True])),
    ids=["missed-at-0.6", "missed-at-1.0", "later-dip", "later-crossing"],
)
def test_large_step_case_hits_the_first_contact(case, ends_in_contact):
    rsum, x1, y1, theta1, v1, w1, x2, y2, theta2, v2, w2, h = map(float.fromhex, case)
    pair = ContactPair(1, 2, rsum, None)
    states = {1: RobotState(x1, y1, theta1), 2: RobotState(x2, y2, theta2)}
    inputs = {1: ControlInput(v1, w1), 2: ControlInput(v2, w2)}
    assert gap(pair, states) > 0.0 and (gap_at(pair, states, inputs, h) < 0.0) == ends_in_contact
    assert assert_first_contact(pair, states, inputs, h) is not None


@pytest.mark.parametrize("robot_robot", [False, True], ids=["robot-obstacle", "robot-robot"])
def test_large_steps_hit_the_first_contact(robot_robot):
    rng = random.Random(9)
    seen = {"grazes": 0, "crossings": 0}
    for _ in range(500):
        pair, states, inputs, h = draw_large_step(rng, robot_robot)
        if gap(pair, states) <= 0.0:
            continue
        if assert_first_contact(pair, states, inputs, h) is not None:
            seen["crossings" if gap_at(pair, states, inputs, h) < 0.0 else "grazes"] += 1
    assert min(seen.values()) >= 20, seen


# Two robots side by side and 1e-14 apart, less than a slack, driving the
# same way at the same speed: no bound can prove their gap positive, and
# with the sum of the robots' speeds for the pair's the search would split
# the whole step down to EVENT_TIME_TOL, a billion probes at h = 1e-3.
FORMATION_PAIR = ContactPair(1, 2, 2.0, None)
FORMATION_STATES = {
    1: RobotState(3.0, 4.0, 0.3),
    2: RobotState(3.0 - (2.0 + 1e-14) * math.sin(0.3), 4.0 + (2.0 + 1e-14) * math.cos(0.3), 0.3),
}


@pytest.mark.parametrize("h", [1e-3, 0.1, 2.0])
def test_a_pair_moving_as_one_within_a_slack_of_contact_is_dropped_unprobed(h, monkeypatch):
    inputs = {1: ControlInput(5.0, 0.0), 2: ControlInput(5.0, 0.0)}
    scale = sum(abs(state.x) + abs(state.y) for state in FORMATION_STATES.values())
    assert 0.0 < gap(FORMATION_PAIR, FORMATION_STATES) < hybrid.BOUND_SLACK * scale
    gaps0 = [gap(FORMATION_PAIR, FORMATION_STATES)]
    next_states = {rid: step_flow(FORMATION_STATES[rid], inputs[rid], h) for rid in FORMATION_STATES}

    def no_probe(*args):
        raise AssertionError("probed")

    monkeypatch.setattr(hybrid, "step_flow", no_probe)
    assert detect_event([FORMATION_PAIR], gaps0, FORMATION_STATES, inputs, h, next_states) is None


# --- settled bisections ------------------------------------------------------


def hits_of_run(scenario, mode, monkeypatch):
    """(pair, states, inputs, h, hit) of every pair that a `detect_event`
    call of the run bisects to a hit, searched again on its own."""
    calls = []
    real = hybrid.detect_event

    def recording(rows, gaps0, states, inputs, h, next_states):
        hit = real(rows, gaps0, states, inputs, h, next_states)
        if hit is not None:
            # copies: a jump rewrites headings in the run's own dicts
            calls.append((rows, list(gaps0), dict(states), dict(inputs), h, dict(next_states)))
        return hit

    with monkeypatch.context() as m:
        m.setattr(hybrid, "detect_event", recording)
        simulate(scenario, mode)
    for rows, gaps0, states, inputs, h, next_states in calls:
        for pair, g0 in zip(rows, gaps0):
            hit = real([pair], [g0], states, inputs, h, next_states)
            if hit is not None:
                yield pair, states, inputs, h, hit


# (name, mode): the bisections of the run, and how many of them `detect_event`
# settles without halving (all but 1 on chatter, 101 and 2 on the wedge)
SETTLED_RUNS = {
    ("crossing", SimMode.PREDEFINED_ONLY): (750, 749),
    ("wedge", SimMode.PREDEFINED_ONLY): (300, 199),
    ("wedge", SimMode.REDESIGNED): (200, 198),
}


def unsettled_search(pair, states, inputs, h, monkeypatch):
    """The pair's hit with no bracket settled (an infinite SETTLE_SLACK), so
    that `_certified` computes both ends of every bracket, and those ends."""
    ends = []
    real = hybrid._certified

    def recording(*args):
        ends.append(real(*args))
        return ends[-1]

    with monkeypatch.context() as m:
        m.setattr(hybrid, "SETTLE_SLACK", math.inf)
        m.setattr(hybrid, "_certified", recording)
        return detect([pair], states, inputs, h), ends


@pytest.mark.parametrize("name, mode", SETTLED_RUNS, ids=["chatter", "wedge-predefined", "wedge-redesigned"])
def test_settled_bisections_keep_the_bits_of_a_full_halving(name, mode, monkeypatch):
    # Every bisection of the collision-heavy runs lands on the bits of the
    # plain bisection of its bracket, which probes every midpoint, and of
    # the search that settles no bracket.  That search's certified ends
    # never cross (apart_to <= touching_from), which lets a settle test read
    # the touching end alone.
    bisections = kept = 0
    for pair, states, inputs, h, hit in hits_of_run(golden_scenario(name), mode, monkeypatch):
        case = (pair, states, inputs, h)
        a, b, _ = bisected_bracket(pair, states, inputs, h, monkeypatch)
        assert hit.t_offset == plain_bisection(pair, states, inputs, b, a)[0], case
        unsettled, ends = unsettled_search(pair, states, inputs, h, monkeypatch)
        assert unsettled.t_offset == hit.t_offset and ends, case
        assert all(apart_to <= touching_from for apart_to, touching_from in ends), case
        bisections += 1
        kept += hit.t_offset == a
    expected, settled = SETTLED_RUNS[name, mode]
    assert bisections == expected and kept >= settled, (bisections, kept)


def halving_midpoints(lo, hi):
    """The midpoints the halving of [lo, hi] visits while each one touches."""
    mids = []
    while hi - lo > EVENT_TIME_TOL and lo < 0.5 * (lo + hi) < hi:
        hi = 0.5 * (lo + hi)
        mids.append(hi)
    return mids


def test_a_bracket_within_a_tolerance_of_its_crossing_is_halved(monkeypatch):
    # The robot meets the obstacle 0.8 tolerances into the step, and the
    # step's last midpoint lies 0.6 tolerances in: the real certificates
    # leave the touching end between half a tolerance and a tolerance past
    # the step start, the loop moves lo to that midpoint, and a shortcut
    # taken within a full tolerance would return the step start.
    h = 0.6 * EVENT_TIME_TOL * 2.0**30
    pair = ContactPair(1, 3, 0.001, (0.001 + 0.8 * EVENT_TIME_TOL, 0.0))
    states, inputs = {1: RobotState(0.0, 0.0, 0.0)}, {1: ControlInput(1.0, 0.0)}
    certified = []
    real = hybrid._certified

    def recording(*args):
        certified.append(real(*args))
        return certified[-1]

    monkeypatch.setattr(hybrid, "_certified", recording)
    hit = detect([pair], states, inputs, h)
    apart_to, touching_from = certified[0]
    assert 0.5 * EVENT_TIME_TOL < touching_from < EVENT_TIME_TOL and apart_to < touching_from
    assert hit.t_offset == plain_bisection(pair, states, inputs, h)[0] == halving_midpoints(0.0, h)[-1] > 0.0


def test_a_settled_bracket_allows_for_the_rounding_of_its_midpoints(monkeypatch):
    # The robot passes through the obstacle inside one long step: apart at
    # h / 2, touching at 3 h / 4 and apart again at h, so the search
    # bisects [h / 2, 3 h / 4].  At h = 17.62 that bracket's last midpoint
    # rounds to below lo + EVENT_TIME_TOL / 2.  The crossing lies past it,
    # and the certificates are pinned as tight as they can be: nothing
    # certified apart, touching from the next double after that midpoint,
    # so the loop probes it, finds it apart and moves lo there.  A shortcut
    # allowed a few ulps past lo + EVENT_TIME_TOL / 2 (a margin added
    # instead of taken off) would return lo.  One with no margin at all
    # returns what the halving does: the next double past a rounded
    # midpoint already lies beyond lo + EVENT_TIME_TOL / 2.
    h = 17.62
    rsum = 3.0 * h / 16.0
    pair = ContactPair(1, 3, rsum, (0.5 * h + 0.75 * EVENT_TIME_TOL + rsum, 0.0))
    states, inputs = {1: RobotState(0.0, 0.0, 0.0)}, {1: ControlInput(1.0, 0.0)}
    a, b = 0.5 * h, 0.5 * (0.5 * h + h)
    last = halving_midpoints(a, b)[-1]
    assert Fraction(last) - Fraction(a) < Fraction(EVENT_TIME_TOL) / 2
    brackets = []
    real = hybrid._certified

    def recording(a, g_a, b, g_b, *rest):
        brackets.append((a, b))
        return real(a, g_a, b, g_b, *rest)

    def pinned_end(p, g, q, *rest):
        # an apart end (q > p) certifies nothing past p
        return p if q > p else math.nextafter(last, math.inf)

    monkeypatch.setattr(hybrid, "_certified", recording)
    monkeypatch.setattr(hybrid, "_certified_end", pinned_end)
    hit = detect([pair], states, inputs, h)
    # the bracket, then the one probe, at `last`, which is apart
    assert brackets[0] == (a, b) and len(brackets) == 2 and gap_at(pair, states, inputs, last) > 0.0
    assert hit.t_offset == plain_bisection(pair, states, inputs, b, a)[0] == last


# --- step floors: what an instant that measures nothing leaves out ------------


def run_under_floor_oracle(scenario, mode):
    """`simulate` with `detect_event` wrapped: each call with no rows (an
    instant whose step floor settles every row) re-measures every row at
    `states` and checks that no gap is within CONTACT_TOL, so the sweep has
    nothing to do, and that the real `detect_event`, given every row, culls
    each one: it measures no end gap and finds no hit.  Returns the trace
    and the number of such calls."""
    pairs = contact_pairs(scenario.bodies)
    real = hybrid.detect_event
    skipped = 0

    def no_end_gap(pair, states):
        raise AssertionError(f"row {pair} is not culled")

    def checked(rows, gaps0, states, inputs, h, next_states):
        nonlocal skipped
        if not rows:
            skipped += 1
            gaps = [gap(pair, states) for pair in pairs]
            assert all(g > CONTACT_TOL for g in gaps), (states, gaps)
            with pytest.MonkeyPatch.context() as m:
                m.setattr(hybrid, "gap", no_end_gap)
                assert real(pairs, gaps, states, inputs, h, next_states) is None
        return real(rows, gaps0, states, inputs, h, next_states)

    with pytest.MonkeyPatch.context() as m:
        m.setattr(hybrid, "detect_event", checked)
        trace = simulate(scenario, mode)
    return trace, skipped


def assert_target_marks(trace):
    """From the samples alone: each robot's TargetReachedRecord sits at its
    first sampled instant whose target distance, by the executor's
    expression, is at or below the tolerance, and a robot without one never
    gets there.  An instant where the robot collides is left open, since its
    sample may show the heading after the jump, and so is the last one of a
    run ended by the jump cap, which may close before the target tests."""
    scenario = trace.scenario
    robot_ids = sorted(scenario.robot_ids())
    marks = {r.robot_id: r.t for r in trace.log if type(r) is TargetReachedRecord}
    jumped = {(r.t, r.robot_id) for r in trace.log if type(r) is CollisionRecord}
    capped = any(type(r) is FaultRecord and r.reason.startswith("non-convergent") for r in trace.log)
    passes = list(zip(*[iter(SAMPLE.iter_unpack(trace.samples))] * len(robot_ids)))
    for k, rid in enumerate(robot_ids):
        tx, ty, t_theta = scenario.targets[rid]
        mark = marks.get(rid)
        for sample in passes[: len(passes) - capped]:
            t, x, y, theta = sample[k][:4]
            dist = math.sqrt((x - tx) ** 2 + (y - ty) ** 2 + (theta - t_theta) ** 2)
            if (t, rid) in jumped:
                if t == mark:
                    break
                continue
            if t == mark:
                assert dist <= scenario.target_tolerance, (rid, t, dist)
                break
            assert dist > scenario.target_tolerance, (rid, t, dist)
        else:
            assert mark is None or capped, (rid, mark)


@pytest.mark.parametrize("name, mode", GOLDEN_CASES, ids=GOLDEN_IDS)
def test_skipped_instants_leave_no_test_undecided(name, mode):
    trace, skipped = run_under_floor_oracle(golden_scenario(name), mode)
    assert skipped > 0
    assert_target_marks(trace)


# A legal scene of the kind drawn below, its tolerance raised to 0.5: robot
# 1 starts 5e-7 from obstacle 5 and collides 7e-6 s in.  Its heading is
# 5.9 rad (unwrapped) from its target's, and the escape jump turns it to
# within 0.51 rad of it, so that it reaches the target at t = 0.166 s,
# half a second before a target floor carried across the jump would let it
# measure again.
ESCAPE_TOWARDS_TARGET = {
    "workspace": {"x_min": -20, "x_max": 20, "y_min": -20, "y_max": 20},
    "bodies": [
        {
            "id": 1, "kind": "robot", "radius": 0.7544820085387764, "mass": 1.0,
            "x": 4.725361142614961, "y": -4.421788169321392, "theta": -2.8603312871366744,
        },
        {"id": 3, "kind": "obstacle", "radius": 1.5175117304349497, "mass": "unbounded",
         "x": 0.21657385061883083, "y": -3.546636883261254},
        {"id": 4, "kind": "obstacle", "radius": 1.0252511037575511, "mass": "unbounded",
         "x": -3.691951357022564, "y": 6.4346267795314755},
        {"id": 5, "kind": "obstacle", "radius": 0.4938902597732412, "mass": "unbounded",
         "x": 4.035432732615183, "y": -5.462188717511312},
    ],
    "targets": {"1": {"x": 4.365489479520518, "y": -4.083771557156074, "theta": 3.0603224151781694}},
    "params": {"rho": 9, "sigma1": 1.25, "sigma2": 0.6, "sigma3": 1.2, "mv": 4.871330938985647,
               "mw": 3.2182933494992945},
    "sim": {"dt": 0.001, "t_max": 1.0, "target_tolerance": 0.5, "jump_cap": 100},
}


def test_a_jump_resets_the_target_floor():
    trace, _ = run_under_floor_oracle(load_scenario(json.dumps(ESCAPE_TOWARDS_TARGET)), SimMode.REDESIGNED)
    (mark,) = [r for r in trace.log if type(r) is TargetReachedRecord]
    assert trace.collisions()[0].t < 1e-5 and mark.t == pytest.approx(0.1664, abs=1e-4)
    assert_target_marks(trace)


def bounded(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


@st.composite
def random_scenes(draw):
    """A legal scene: one or two robots and up to four obstacles, half of
    them within 1e-9 to 0.1 of a robot at the start, each target within 3
    of its robot at a heading up to 2 pi from its own, and a horizon of
    at most 1.5 s in either mode."""
    robots = [
        {
            "id": rid, "kind": "robot", "radius": draw(bounded(0.2, 1.5)), "mass": draw(bounded(0.5, 2.0)),
            "x": draw(bounded(-5.0, 5.0)), "y": draw(bounded(-5.0, 5.0)), "theta": draw(bounded(-math.pi, math.pi)),
        }
        for rid in range(1, draw(st.integers(1, 2)) + 1)
    ]
    bodies = list(robots)
    for oid in range(3, draw(st.integers(0, 4)) + 3):
        radius = draw(bounded(0.2, 2.0))
        if draw(st.booleans()):
            robot, ang = draw(st.sampled_from(robots)), draw(bounded(-math.pi, math.pi))
            dist = robot["radius"] + radius + 10.0 ** draw(bounded(-9.0, -1.0))
            x, y = robot["x"] + dist * math.cos(ang), robot["y"] + dist * math.sin(ang)
        else:
            x, y = draw(bounded(-8.0, 8.0)), draw(bounded(-8.0, 8.0))
        bodies.append({"id": oid, "kind": "obstacle", "radius": radius, "mass": "unbounded", "x": x, "y": y})
    targets = {}
    for robot in robots:
        ang, dist = draw(bounded(-math.pi, math.pi)), draw(bounded(0.0, 3.0))
        targets[str(robot["id"])] = {
            "x": robot["x"] + dist * math.cos(ang),
            "y": robot["y"] + dist * math.sin(ang),
            "theta": robot["theta"] + draw(bounded(-2.0 * math.pi, 2.0 * math.pi)),
        }
    doc = {
        "workspace": {"x_min": -20, "x_max": 20, "y_min": -20, "y_max": 20},
        "bodies": bodies,
        "targets": targets,
        "params": {"rho": 9, "sigma1": 1.25, "sigma2": 0.6, "sigma3": 1.2,
                   "mv": draw(bounded(0.5, 5.0)), "mw": draw(bounded(0.5, 5.0))},
        "sim": {"dt": draw(st.sampled_from([1e-3, 5e-3, 1e-2])), "t_max": draw(bounded(0.2, 1.5)),
                "target_tolerance": 10.0 ** draw(bounded(-2.0, -0.3)), "jump_cap": 100},
    }
    scenario = load_scenario(json.dumps(doc))
    assume(validate_scenario(scenario) == [])
    return scenario, draw(st.sampled_from(list(SimMode)))


# derandomized: the same examples on every run, about 2 s in all
@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(random_scenes())
def test_random_scenes_leave_no_skipped_test_undecided(case):
    trace, _ = run_under_floor_oracle(*case)
    assert_target_marks(trace)


# --- one gap per pair per instant --------------------------------------------


def crossing():
    return load_scenario((SCENARIOS / "crossing.json").read_text())


def test_crossing_measures_gaps_at_few_instants_and_folds_each_once(monkeypatch):
    # every gap, the measuring instants', event localization's and the
    # clearance fold's, is one hypot
    calls = measured = 0
    real_hypot, real_detect = math.hypot, hybrid.detect_event

    def counting(dx, dy):
        nonlocal calls
        calls += 1
        return real_hypot(dx, dy)

    def detect_counting(rows, *args):
        # each step's instant passes the rows exactly when it measured them
        nonlocal measured
        measured += bool(rows)
        return real_detect(rows, *args)

    monkeypatch.setattr(math, "hypot", counting)
    monkeypatch.setattr(hybrid, "detect_event", detect_counting)
    trace = simulate(crossing(), SimMode.REDESIGNED)
    instants = len(trace.samples) // (2 * SAMPLE_WIDTH)
    # 144 of the 19,711 steps start at an instant that measures its 5 pairs
    # (about 100 of them inside the two local phases), and the fold over the
    # samples takes 5 hypots at each of the 19,712 instants: with the rare
    # end gaps and search probes, 99,964 in all.  Measuring every pair at
    # every instant took 99,244, plus 98,560 for a fold; measuring each gap
    # three times took 295,706.
    assert instants == 19712
    assert measured < 200
    assert calls < 100_500


# --- per-instant call budget -------------------------------------------------


def profiled_calls(mode, builtin=None):
    """The Python-function calls of one `simulate(crossing(), mode)`, or,
    given a builtin, the calls of that builtin."""
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        if builtin is None:
            calls += event == "call"
        else:
            calls += event == "c_call" and arg is builtin

    scenario = crossing()
    sys.setprofile(profile)
    try:
        simulate(scenario, mode)
    finally:
        sys.setprofile(None)
    return calls


def test_crossing_makes_no_python_call_outside_its_layers():
    # An instant calls only the traced layers: two `predefined_control`
    # (each with `controller_terms`), two `step_flow` and one
    # `detect_event`, 7 calls, plus the rare event, jump and phase calls:
    # 138,685 in all over 19,712 instants (217,935 when each controller
    # call also called its branch decision and its clamp, 11 calls an
    # instant).  An instant that measures nothing calls nothing more.  A
    # helper or comprehension put back in the per-instant pass adds 19,711
    # or more, a helper at each target measurement about 5,400, both more
    # than the margin of 3,315; a `gap` call per pair and two comprehensions
    # took 358,525.
    assert profiled_calls(SimMode.REDESIGNED) < 142_000


def test_chatter_makes_no_python_call_outside_its_contact_layers():
    # Each of chatter's 750 contacts calls its traced layers (the event's
    # hit, `ContactQuery.build`, `build_local_frame`, `jump`,
    # `resolve_collision`) and the collision helpers below them, and builds
    # every value of that path positionally; a settled bisection certifies
    # only its touching end: 32,060 calls in all.  Keyword builds, a
    # per-call closure, the `position` property and the tie sort of a lone
    # hit took 56,039; the separate branch decision and clamp of each
    # controller call and all four certificates of each bisection 43,289.
    # A keyword build that comes back adds 750 to 1,500 calls, more than
    # the margin of 440.
    assert profiled_calls(SimMode.PREDEFINED_ONLY) < 32_500


def test_crossing_builds_no_named_tuple_per_instant_but_its_decisions():
    # Poses, inputs and controller terms are exact tuple displays, which
    # call no `tuple.__new__`; each of the 39,224 controller calls builds its
    # `ControlDecision` by it, and the rest of the run, its contacts
    # included, 27 more values: 39,251 in all (39,451 when each local
    # phase's input was a `ControlInput`).  A NamedTuple per robot step,
    # input or terms put back adds 39,224 or more, one per instant 19,711,
    # both more than the margin of 749 (157,955 when the poses, the nominal
    # input and the terms were NamedTuples).
    assert profiled_calls(SimMode.REDESIGNED, tuple.__new__) < 40_000


def test_chatter_builds_no_named_tuple_per_instant_but_its_decisions():
    # 4,616 decisions over 2,308 instants, and the values of 750 contacts:
    # 9,873 builds in all (27,222 with NamedTuple poses, nominal inputs and
    # terms).  One build more per instant adds 2,308, and one more per
    # contact 750, both more than the margin of 627.
    assert profiled_calls(SimMode.PREDEFINED_ONLY, tuple.__new__) < 10_500


# --- bisection at large offsets ----------------------------------------------

# A robot from the origin at v = 1 reaches an obstacle (radii sum 2) at
# (10002, 0) at t = 10000, inside one step of 10001 s.  There one ulp of the
# offset is 1.8e-12 > EVENT_TIME_TOL, so the midpoint stops splitting the
# bracket before it is EVENT_TIME_TOL wide.
LONG_PAIR = ContactPair(1, 3, 2.0, (10002.0, 0.0))
LONG_STATES = {1: RobotState(0.0, 0.0, 0.0)}
LONG_INPUTS = {1: ControlInput(1.0, 0.0)}
LONG_H = 10001.0
LONG_CHILD = f"""
from bumpsim.hybrid import ContactPair, detect_event, gap, step_flow
from bumpsim.scenario import ControlInput, RobotState
pair, states, inputs = {LONG_PAIR!r}, {LONG_STATES!r}, {LONG_INPUTS!r}
next_states = {{1: step_flow(states[1], inputs[1], {LONG_H!r})}}
hit = detect_event([pair], [gap(pair, states)], states, inputs, {LONG_H!r}, next_states)
print((hit.robot_id, hit.other_id, hit.t_offset))
"""


def test_bisection_ends_where_an_ulp_exceeds_the_tolerance():
    # in a child process, so that a bisection that never ends fails the test
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, "-c", LONG_CHILD], capture_output=True, text=True, timeout=30, env=env, check=True
    )
    robot_id, other_id, t_offset = ast.literal_eval(proc.stdout)
    assert (robot_id, other_id) == (1, 3)
    assert gap_at(LONG_PAIR, LONG_STATES, LONG_INPUTS, t_offset) > 0.0
    assert abs(t_offset - 10000.0) <= 1e-8
