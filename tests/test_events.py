"""Event detection: graze tunnelling, the soundness of the reach bounds
against a fine substep oracle, the bisection's certified probes against a
plain bisection, the rounding slack of the cull, the two-sided bound and
both certificates at the edge of the reach, the one-gap-per-pair budget,
and bisection at offsets where one ulp exceeds the time tolerance."""

import ast
import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from bumpsim import hybrid
from bumpsim.hybrid import EVENT_TIME_TOL, ContactPair, SimMode, detect_event, gap, simulate, step_flow
from bumpsim.scenario import ControlInput, RobotState, load_scenario

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


def plain_bisection(pair, states, inputs, hi):
    """Bisect the pair's gap on [0, hi], probing every midpoint: the last
    apart offset and the number of probes."""
    i, j, _, fixed = pair
    probe = {}
    lo, probes = 0.0, 0
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
    # the bisection's certificates need no monotone gap: inside the search's
    # bracket they skip only probes whose sign the reach bound decides
    hi, g_hi = hybrid._first_negative(lambda tau: gap_at(pair, states, inputs, tau), GRAZE_H)
    assert g_hi == gap_at(pair, states, inputs, hi) < 0.0
    assert hit.t_offset == plain_bisection(pair, states, inputs, hi)[0]


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
        base = step_flow(states[1], inputs[1], tau)
        clearance = rng.uniform(-0.5, 1.0) * (reach + 1e-9) * rng.choice([1.0, 1e-3, 1e-6])
        ang = base.theta + rng.choice([-0.5, 0.5]) * math.pi
    pos = (base.x + (rsum + clearance) * math.cos(ang), base.y + (rsum + clearance) * math.sin(ang))
    if robot_robot:
        # the second robot starts where it reaches pos at tau, near enough;
        # abreast, it runs along or against the first
        heading = rng.uniform(-math.pi, math.pi)
        if tau > 0.0:
            heading = base.theta + rng.choice([0.0, math.pi]) + rng.uniform(-0.1, 0.1)
        ahead = step_flow(RobotState(*pos, heading), inputs[2], tau)
        states[2] = RobotState(2.0 * pos[0] - ahead.x, 2.0 * pos[1] - ahead.y, heading)
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
    end = step_flow(state, ControlInput(v, 0.0), h)
    rsum = math.exp(rng.uniform(math.log(0.01), math.log(2.0)))
    ahead = math.copysign(rsum, v)
    ox = end.x + ahead * math.cos(theta)
    ox += rng.randint(-40, 40) * math.ulp(ox)
    pos = (ox, end.y + ahead * math.sin(theta))
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
    dx, dy = Fraction(jx) - Fraction(states[i].x), Fraction(jy) - Fraction(states[i].y)
    return dx * dx + dy * dy <= Fraction(rsum) ** 2


def draw_straight_inputs(rng, robot_robot):
    inputs = {rid: ControlInput(rng.choice([-1.0, 1.0]) * rng.uniform(0.5, M_V), 0.0) for rid in (1, 2)}
    return inputs if robot_robot else {1: inputs[1]}


def place_robot_2(pos, heading, v, tau):
    """Robot 2's start, from which it drives straight at speed v to pos in tau."""
    back = step_flow(RobotState(*pos, heading), ControlInput(-v, 0.0), tau)
    return RobotState(back.x, back.y, heading)


def draw_thin_graze(rng, robot_robot):
    """A body thin enough (radii sum 1e-17 to 1e-13) that the two-sided
    bound is 0 up to rounding, beside the robot's mid-step position by up to
    twice the radii sum: the pair touches at mid-step or just misses."""
    h = math.exp(rng.uniform(math.log(1e-4), math.log(0.1)))
    inputs = draw_straight_inputs(rng, robot_robot)
    states = {1: RobotState(rng.uniform(-10, 10), rng.uniform(-10, 10), rng.uniform(-math.pi, math.pi))}
    mid = step_flow(states[1], inputs[1], 0.5 * h)
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
    mid = step_flow(states[1], inputs[1], 0.5 * h)
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


# --- one gap per pair per instant --------------------------------------------


def test_crossing_measures_each_gap_once_per_instant(monkeypatch):
    calls = 0
    real = hybrid.gap

    def counting(pair, states):
        nonlocal calls
        calls += 1
        return real(pair, states)

    monkeypatch.setattr(hybrid, "gap", counting)
    trace = simulate(load_scenario((SCENARIOS / "crossing.json").read_text()), SimMode.REDESIGNED)
    instants = sum(1 for r in trace.records if isinstance(r, hybrid.FlowSample)) // 2
    # 5 pairs at each of the 19,712 instants, plus the rare end gaps and
    # search probes; measuring each gap three times took 295,706 calls
    assert instants == 19712
    assert calls < 101_000


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
