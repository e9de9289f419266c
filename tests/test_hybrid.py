import json
import math
import random
import re
import struct
from array import array
from pathlib import Path

import pytest

from bumpsim import hybrid
from bumpsim.collision import build_local_frame
from bumpsim.hybrid import (
    CollisionRecord,
    FaultRecord,
    FlowSample,
    SAMPLE_WIDTH,
    ImpulseRecord,
    SimMode,
    SwitchRecord,
    TargetReachedRecord,
    Trace,
    contact_pairs,
    contact_query,
    detect_event,
    gap,
    jump,
    metrics,
    reactivation_due,
    simulate,
    step_flow,
    trace_to_csv,
)
from bumpsim.redesign import LocalPhase
from bumpsim.scenario import ControlInput, RobotState, load_scenario
from conftest import audit_passes


def make_scenario(bodies, targets, sim=None, params=None):
    doc = {
        "workspace": {"x_min": -50, "x_max": 50, "y_min": -50, "y_max": 50},
        "bodies": bodies,
        "targets": targets,
        "params": params
        or {"rho": 9, "sigma1": 1.25, "sigma2": 0.6, "sigma3": 1.2, "mv": 5, "mw": 5},
        "sim": sim or {},
    }
    return load_scenario(json.dumps(doc))


def robot(body_id, x, y, theta=0.0, radius=1.0, mass=1.0):
    return {"id": body_id, "kind": "robot", "radius": radius, "mass": mass, "x": x, "y": y, "theta": theta}


def obstacle(body_id, x, y, radius=1.0):
    return {"id": body_id, "kind": "obstacle", "radius": radius, "mass": "unbounded", "x": x, "y": y}


# --- step_flow ---------------------------------------------------------------


def test_step_flow_straight_is_exact():
    out = step_flow(RobotState(0.0, 0.0, 0.0), ControlInput(1.0, 0.0), 0.1)
    assert out == (0.1, 0.0, 0.0)


def test_step_flow_pure_rotation():
    x, y, theta = step_flow(RobotState(2.0, 3.0, 1.0), ControlInput(0.0, 1.0), 0.5)
    assert (x, y) == (2.0, 3.0)
    assert theta == pytest.approx(1.5, abs=1e-15)


def test_step_flow_matches_analytic_arc():
    # under u = (1, 1) from the origin: x = sin t, y = 1 - cos t, theta = t
    dt = 1e-3
    for k in range(0, 2000, 97):
        t = k * dt
        start = RobotState(math.sin(t), 1.0 - math.cos(t), t)
        x, y, theta = step_flow(start, ControlInput(1.0, 1.0), dt)
        assert x == pytest.approx(math.sin(t + dt), abs=1e-10)
        assert y == pytest.approx(1.0 - math.cos(t + dt), abs=1e-10)
        assert theta == pytest.approx(t + dt, abs=1e-12)


# --- detect_event ------------------------------------------------------------


def detect_at_start(pairs, states, inputs, h):
    """`detect_event` over the step of length h from `states`, given the
    start gaps and end states the executor would pass."""
    gaps0 = [gap(pair, states) for pair in pairs]
    next_states = {rid: step_flow(states[rid], inputs[rid], h) for rid in states}
    return detect_event(pairs, gaps0, states, inputs, h, next_states)


def test_event_linear_closing():
    sc = make_scenario(
        [robot(1, 0.0, 0.0), obstacle(3, 2.05, 0.0)],
        {"1": {"x": 10.0, "y": 0.0, "theta": 0.0}},
    )
    states = {1: RobotState(0.0, 0.0, 0.0)}
    inputs = {1: ControlInput(1.0, 0.0)}
    hit = detect_at_start(contact_pairs(sc), states, inputs, 0.1)
    assert hit is not None
    assert (hit.robot_id, hit.other_id) == (1, 3)
    assert hit.t_offset == pytest.approx(0.05, abs=1e-9)


def test_event_separating_none():
    sc = make_scenario(
        [robot(1, 0.0, 0.0), obstacle(3, 2.05, 0.0)],
        {"1": {"x": 10.0, "y": 0.0, "theta": 0.0}},
    )
    states = {1: RobotState(0.0, 0.0, math.pi)}
    inputs = {1: ControlInput(1.0, 0.0)}
    assert detect_at_start(contact_pairs(sc), states, inputs, 0.1) is None


def test_event_robot_robot_closing():
    sc = make_scenario(
        [robot(1, 0.0, 0.0), robot(2, 2.1, 0.0, theta=math.pi)],
        {"1": {"x": 10.0, "y": 0.0, "theta": 0.0}, "2": {"x": -10.0, "y": 0.0, "theta": math.pi}},
    )
    states = {1: RobotState(0.0, 0.0, 0.0), 2: RobotState(2.1, 0.0, math.pi)}
    inputs = {1: ControlInput(1.0, 0.0), 2: ControlInput(1.0, 0.0)}
    hit = detect_at_start(contact_pairs(sc), states, inputs, 0.1)
    assert hit is not None
    assert (hit.robot_id, hit.other_id) == (1, 2)
    # gap 0.1 closes at combined speed 2
    assert hit.t_offset == pytest.approx(0.05, abs=1e-9)


def test_loss_coefficient_damps_rebound():
    # delta = 0.5 halves the normal rebound off an unbounded body
    sc = make_scenario(
        [robot(1, 0.0, 6.05, theta=-0.5 * math.pi), obstacle(3, 0.0, 4.0)],
        {"1": {"x": 0.0, "y": 6.05, "theta": -0.5 * math.pi}},
        params={"rho": 9, "sigma1": 1.25, "sigma2": 0.6, "sigma3": 1.2, "mv": 5, "mw": 5, "delta": 0.5},
        sim={"t_max": 2.0, "jump_cap": 50},
    )
    states, phases = {1: RobotState(0.0, 6.0, -0.5 * math.pi)}, {1: None}
    query = first_contact_query(sc, states, {1: ControlInput(2.0, 0.0)})
    records = []
    post_speeds, _ = jump(query, 0.0, states, phases, sc, SimMode.PREDEFINED_ONLY, records)
    col = records[0]
    # reflected normal component (1 - 0.5) * (-2.0), reported along the pair y-axis
    assert col.lam == pytest.approx(-1.0, abs=1e-12)
    assert post_speeds[1] == pytest.approx(1.0, abs=1e-12)


def test_event_tie_reports_smallest_pair():
    # two obstacles placed symmetrically: both gaps cross at the same time
    sc = make_scenario(
        [robot(1, 0.0, 0.0), obstacle(3, 3.0, 1.2, radius=0.5), obstacle(4, 3.0, -1.2, radius=0.5)],
        {"1": {"x": 10.0, "y": 0.0, "theta": 0.0}},
    )
    states = {1: RobotState(0.0, 0.0, 0.0)}
    inputs = {1: ControlInput(1.0, 0.0)}
    hit = detect_at_start(contact_pairs(sc), states, inputs, 3.0)
    assert hit is not None
    assert (hit.robot_id, hit.other_id) == (1, 3)
    assert (1, 4) in hit.simultaneous
    # linear closed form: sqrt((3 - t)^2 + 1.2^2) = 1.5 at t = 3 - 0.9
    assert hit.t_offset == pytest.approx(2.1, abs=1e-9)


# --- reactivation rule -------------------------------------------------------


@pytest.mark.parametrize(
    ("obstacle_x", "elapsed", "due", "extension"),
    [
        (-2.0, 1.0, False, 0.1),  # distance 1: overlap, so the phase extends
        (-3.0, 1.0, False, 0.1),  # distance 2: exact touch, gap == 0.0
        (-3.5, 1.0, True, 0.0),  # distance 2.5: clear gap
        (-3.5, 0.5, False, 0.0),  # clear, but the phase has not expired
    ],
)
def test_reactivation_needs_expiry_and_strictly_positive_gaps(obstacle_x, elapsed, due, extension):
    # robot 1 (r = 1) escaping from obstacle 3 now sits at (-1, 2)
    sc = make_scenario(
        [robot(1, -10.0, -10.0), obstacle(3, 0.0, 4.0), obstacle(4, obstacle_x, 2.0)],
        {"1": {"x": 10.0, "y": 0.0, "theta": 0.0}},
    )
    states = {1: RobotState(-1.0, 2.0, math.pi)}
    phase = LocalPhase(collided_id=3, v_loc=1.0, t_dur=1.0, elapsed=elapsed)
    # every row of the table is robot 1's
    row_gaps = [gap(pair, states) for pair in contact_pairs(sc)]
    assert reactivation_due(phase, row_gaps) is due
    assert phase.extension == extension


# --- pair table --------------------------------------------------------------


def test_pair_table_lists_the_robot_pair_then_robots_by_id_against_obstacles():
    sc = make_scenario(
        [obstacle(4, 0.0, 9.0, radius=0.5), robot(2, 0.0, 5.0), obstacle(3, 5.0, 0.0), robot(1, 0.0, 0.0)],
        {"1": {"x": 1.0, "y": 1.0, "theta": 0.0}, "2": {"x": 1.0, "y": 6.0, "theta": 0.0}},
    )
    table = [(p.i, p.j, p.rsum, p.fixed) for p in contact_pairs(sc)]
    assert table == [
        (1, 2, 2.0, None),
        (1, 4, 1.5, (0.0, 9.0)),
        (1, 3, 2.0, (5.0, 0.0)),
        (2, 4, 1.5, (0.0, 9.0)),
        (2, 3, 2.0, (5.0, 0.0)),
    ]


# --- contact_query -----------------------------------------------------------


def first_contact_query(sc, states, inputs):
    """The contact query of the scenario's first pair-table row."""
    body = {b.id: b for b in sc.bodies}
    return contact_query(contact_pairs(sc)[0], states, inputs, body)


@pytest.mark.parametrize(
    ("other", "j_motion"),
    [
        (obstacle(3, 2.0, 0.5, radius=0.5), (0.0, 0.0)),  # static: v = theta = 0
        (robot(2, 2.0, 0.5, theta=1.5), (0.7, 1.5)),  # commanded speed, pose heading
    ],
    ids=["obstacle", "robot"],
)
def test_contact_query_fills_the_pair_row(other, j_motion):
    bodies = [robot(1, 0.0, 0.0, theta=0.3), other]
    targets = {
        str(b["id"]): {"x": 10.0, "y": 5.0 * b["id"], "theta": 0.0} for b in bodies if b["kind"] == "robot"
    }
    sc = make_scenario(bodies, targets)
    states = {b.id: b.state() for b in sc.robots()}
    inputs = {1: ControlInput(2.0, 0.1), 2: ControlInput(0.7, -0.2)}
    pair = contact_pairs(sc)[0]
    query = contact_query(pair, states, inputs, {b.id: b for b in sc.bodies})
    assert (query.i_id, query.j_id) == (1, other["id"])
    assert (query.p_i, query.v_i, query.theta_i) == ((0.0, 0.0), 2.0, 0.3)
    assert query.p_j == (2.0, 0.5)
    assert (query.v_j, query.theta_j) == j_motion
    assert (query.r_i, query.m_i) == (sc.body(1).radius, sc.body(1).mass)
    assert (query.r_j, query.m_j) == (other["radius"], sc.body(other["id"]).mass)
    assert query.frame.phi == build_local_frame(query.p_i, query.p_j).phi


# --- jump --------------------------------------------------------------------


def head_on_scenario():
    return make_scenario(
        [robot(1, 0.0, 6.0, theta=-0.5 * math.pi), obstacle(3, 0.0, 4.0)],
        {"1": {"x": 0.0, "y": 0.0, "theta": -0.5 * math.pi}},
    )


def test_jump_head_on_obstacle_redesign():
    sc = head_on_scenario()
    states, phases = {1: RobotState(0.0, 6.0, -0.5 * math.pi)}, {1: None}
    query = first_contact_query(sc, states, {1: ControlInput(3.0, 0.0)})
    records = []
    post_speeds, made = jump(query, 1.0, states, phases, sc, SimMode.REDESIGNED, records)
    kinds = [type(r) for r in records]
    assert kinds == [CollisionRecord, ImpulseRecord, SwitchRecord]
    col, imp, sw = records
    assert (col.robot_id, col.other_id) == (1, 3)
    assert col.v_post == pytest.approx(3.0, abs=1e-12)  # unbounded body: speed preserved
    # escape heading: tie between the horizontal rays resolves to the first (-x)
    assert imp.theta_escape == pytest.approx(math.pi, abs=1e-12)
    assert states[1] == (0.0, 6.0, imp.theta_escape)  # position continuous
    assert phases[1] is not None
    assert phases[1].t_dur == pytest.approx(0.2, abs=1e-15)  # r_j / m_v = 1/5
    assert (sw.q_from, sw.q_to) == (0, 1)
    assert post_speeds[1] == pytest.approx(3.0, abs=1e-12)
    assert made == 2  # one collision + one switch


def test_jump_predefined_only_applies_physics_without_redesign():
    sc = head_on_scenario()
    states, phases = {1: RobotState(0.0, 6.0, -0.5 * math.pi)}, {1: None}
    query = first_contact_query(sc, states, {1: ControlInput(3.0, 0.0)})
    records = []
    jump(query, 0.5, states, phases, sc, SimMode.PREDEFINED_ONLY, records)
    assert [type(r) for r in records] == [CollisionRecord]
    # reflected heading applied, no mode change, no phase
    _, _, theta = states[1]
    assert theta == pytest.approx(0.5 * math.pi, abs=1e-12)
    assert phases[1] is None


def test_jump_rear_end_same_heading_no_redesign():
    sc = make_scenario(
        [robot(1, 0.0, 0.0, theta=0.5 * math.pi), robot(2, 0.0, 2.0, theta=0.5 * math.pi)],
        {
            "1": {"x": 0.0, "y": 10.0, "theta": 0.5 * math.pi},
            "2": {"x": 0.0, "y": 12.0, "theta": 0.5 * math.pi},
        },
    )
    states = {1: RobotState(0.0, 0.0, 0.5 * math.pi), 2: RobotState(0.0, 2.0, 0.5 * math.pi)}
    phases = {1: None, 2: None}
    query = first_contact_query(sc, states, {1: ControlInput(2.0, 0.0), 2: ControlInput(0.5, 0.0)})
    records = []
    post_speeds, _ = jump(query, 0.0, states, phases, sc, SimMode.REDESIGNED, records)
    # speeds swap, headings unchanged: physics only, no impulse, no switches
    assert [type(r) for r in records] == [CollisionRecord, CollisionRecord]
    assert states[1][2] == states[2][2] == 0.5 * math.pi
    assert phases[1] is None and phases[2] is None
    assert post_speeds[1] == pytest.approx(0.5, abs=1e-12)
    assert post_speeds[2] == pytest.approx(2.0, abs=1e-12)


# --- simulate ----------------------------------------------------------------


def aligned_two_robot_scenario(t_max=40.0):
    # both robots drive straight ahead to their targets, far apart
    return make_scenario(
        [robot(1, 0.0, 0.0, theta=0.0), robot(2, 0.0, 20.0, theta=0.0)],
        {
            "1": {"x": 8.0, "y": 0.0, "theta": 0.0},
            "2": {"x": 8.0, "y": 20.0, "theta": 0.0},
        },
        sim={"t_max": t_max},
    )


def test_simulate_reaches_without_collisions():
    trace = simulate(aligned_two_robot_scenario(), SimMode.REDESIGNED)
    m = metrics(trace)
    assert m.robots[1].reached and m.robots[2].reached
    assert m.robots[1].collisions == 0 and m.robots[2].collisions == 0
    assert not m.fault
    assert m.total_jumps == 0


def test_simulate_modes_identical_without_collisions():
    t1 = simulate(aligned_two_robot_scenario(), SimMode.PREDEFINED_ONLY)
    t2 = simulate(aligned_two_robot_scenario(), SimMode.REDESIGNED)
    m1, m2 = metrics(t1), metrics(t2)
    assert m1.robots[1].completion_time == m2.robots[1].completion_time
    assert m1.robots[2].completion_time == m2.robots[2].completion_time


def test_simulate_deterministic():
    t1 = simulate(aligned_two_robot_scenario(), SimMode.REDESIGNED)
    t2 = simulate(aligned_two_robot_scenario(), SimMode.REDESIGNED)
    assert t1.records == t2.records
    assert trace_to_csv(t1) == trace_to_csv(t2)


def test_simulate_rejects_invalid_scenario():
    sc = make_scenario(
        [robot(1, 0.0, 0.0), robot(2, 0.5, 0.0)],  # overlapping
        {"1": {"x": 5.0, "y": 0.0, "theta": 0.0}, "2": {"x": -5.0, "y": 0.0, "theta": 0.0}},
    )
    with pytest.raises(ValueError):
        simulate(sc)


def ramming_scenario(t_max=30.0, jump_cap=500):
    # far heavy clutter keeps the summed clearance large, so the tracking
    # branch stays active and the robot drives straight into the obstacle
    return make_scenario(
        [
            robot(1, 0.0, 8.0, theta=-0.5 * math.pi),
            obstacle(3, 0.0, 4.0),
            obstacle(4, 40.0, 0.0),
            obstacle(5, -40.0, 0.0),
        ],
        {"1": {"x": 0.0, "y": 0.0, "theta": -0.5 * math.pi}},
        sim={"t_max": t_max, "jump_cap": jump_cap},
    )


def test_simulate_redesign_protocol():
    trace = simulate(ramming_scenario(), SimMode.REDESIGNED)
    records = trace.records
    collisions = [r for r in records if isinstance(r, CollisionRecord)]
    assert collisions, "expected at least one collision"

    # every heading-changing collision is followed by exactly one impulse and
    # a switch to the local mode; afterwards exactly one switch back
    impulses = [r for r in records if isinstance(r, ImpulseRecord)]
    switches = [r for r in records if isinstance(r, SwitchRecord)]
    assert impulses
    ups = [s for s in switches if (s.q_from, s.q_to) == (0, 1)]
    downs = [s for s in switches if (s.q_from, s.q_to) == (1, 0)]
    assert len(ups) == len(impulses)
    assert len(downs) >= len(ups) - 1  # final phase may be cut off by t_max

    # local segments: constant heading, w = 0, duration == t_dur of the phase
    for up, down in zip(ups, downs):
        seg = [
            s
            for s in records
            if isinstance(s, FlowSample) and s.robot_id == up.robot_id and up.t <= s.t <= down.t
        ]
        assert seg
        # q flips back to 0 exactly at the expiry boundary sample
        assert all(s.q == 1 for s in seg if s.t < down.t)
        headings = {s.theta for s in seg}
        assert len(headings) == 1
        assert all(s.w == 0.0 for s in seg if s.t < down.t)
        assert down.t - up.t == pytest.approx(0.2, abs=1e-9)

    # position continuity: no teleports between consecutive samples
    by_robot = {}
    for s in records:
        if isinstance(s, FlowSample):
            prev = by_robot.get(s.robot_id)
            if prev is not None:
                jump_dist = math.hypot(s.x - prev.x, s.y - prev.y)
                assert jump_dist <= 5.0 * (s.t - prev.t) + 1e-9
            by_robot[s.robot_id] = s


def test_simulate_energy_audit_against_unbounded_body():
    trace = simulate(ramming_scenario(), SimMode.REDESIGNED)
    for col in trace.collisions():
        if col.other_id != 3:
            continue
        # reflection off an unbounded static body preserves the robot's
        # normal kinetic energy: |lam| == |v_pre * sin(theta_pre - phi)|
        v_iy = col.v_pre * math.sin(col.theta_pre - col.phi)
        assert abs(col.lam) == pytest.approx(abs(v_iy), rel=1e-9, abs=1e-12)
        # and the speed is preserved outright
        assert col.v_post == pytest.approx(abs(col.v_pre), rel=1e-9, abs=1e-12)


def test_no_same_body_recollision_during_local_phase():
    trace = simulate(ramming_scenario(), SimMode.REDESIGNED)
    active = {}  # robot_id -> (collided body, collision position) while q=1
    recent = []  # (robot_id, body, p_ic, reactivation time) for the trailing window
    for r in trace.records:
        if isinstance(r, ImpulseRecord):
            cols_at_t = [
                c
                for c in trace.collisions(r.robot_id)
                if c.t == r.t
            ]
            if cols_at_t:
                last = cols_at_t[-1]
                active[r.robot_id] = (last.other_id, (last.x, last.y))
        elif isinstance(r, SwitchRecord) and r.q_to == 0:
            ended = active.pop(r.robot_id, None)
            if ended is not None:
                recent.append((r.robot_id, ended[0], ended[1], r.t))
        elif isinstance(r, CollisionRecord):
            if r.robot_id in active:
                assert r.other_id != active[r.robot_id][0]
            for (rid, body, p_ic, t0) in recent:
                if rid == r.robot_id and body == r.other_id and r.t <= t0 + 1.0:
                    same_spot = math.hypot(r.x - p_ic[0], r.y - p_ic[1]) <= 1e-3
                    assert not same_spot


def test_simulate_chatter_guard_faults():
    sc = make_scenario(
        [
            robot(1, 4.0, 0.0, theta=0.0),
            robot(2, 10.0, 0.0, theta=math.pi),
            obstacle(3, 7.0, 30.0),
            obstacle(4, 7.0, -30.0),
        ],
        {
            "1": {"x": 10.0, "y": 0.0, "theta": 0.0},
            "2": {"x": 4.0, "y": 0.0, "theta": math.pi},
        },
        sim={"t_max": 30.0, "jump_cap": 400},
    )
    trace = simulate(sc, SimMode.PREDEFINED_ONLY)
    m = metrics(trace)
    assert m.fault
    assert any(isinstance(r, FaultRecord) and r.fatal for r in trace.records)
    assert m.robots[1].collisions + m.robots[2].collisions >= 100
    assert not m.robots[1].reached and not m.robots[2].reached


def test_crossing_robot_robot_energy_audit():
    from pathlib import Path

    from bumpsim.scenario import load_scenario

    scenarios = Path(__file__).resolve().parents[1] / "scenarios"
    sc = load_scenario((scenarios / "crossing.json").read_text())
    trace = simulate(sc, SimMode.REDESIGNED)
    cols = trace.collisions()
    assert cols
    # group the per-robot views of each robot-robot contact by timestamp
    by_t = {}
    for c in cols:
        by_t.setdefault(c.t, []).append(c)
    masses = {b.id: b.mass for b in sc.bodies}
    for views in by_t.values():
        assert len(views) == 2
        a, b = views
        m_a, m_b = masses[a.robot_id], masses[b.robot_id]
        vy_a = a.v_pre * math.sin(a.theta_pre - a.phi)
        vy_b = b.v_pre * math.sin(b.theta_pre - b.phi)
        p0 = m_a * vy_a + m_b * vy_b
        p1 = m_a * a.lam + m_b * b.lam
        e0 = 0.5 * m_a * vy_a**2 + 0.5 * m_b * vy_b**2
        e1 = 0.5 * m_a * a.lam**2 + 0.5 * m_b * b.lam**2
        assert p1 == pytest.approx(p0, rel=1e-9, abs=1e-9)
        assert e1 == pytest.approx(e0, rel=1e-9, abs=1e-9)


def test_trace_timestamps_non_decreasing():
    trace = simulate(ramming_scenario(), SimMode.REDESIGNED)
    times = [r.t for r in trace.records]
    assert all(t2 >= t1 for t1, t2 in zip(times, times[1:]))


@pytest.mark.parametrize("mode", list(SimMode), ids=lambda m: m.value)
def test_sweep_penetration_ends_the_run_as_a_fatal_fault(monkeypatch, mode):
    # Without event localization the crossing robots flow into each other,
    # and the contact sweep meets the overlap on the pair's gap.
    monkeypatch.setattr(hybrid, "detect_event", lambda *args: None)
    scenarios = Path(__file__).resolve().parents[1] / "scenarios"
    sc = load_scenario((scenarios / "crossing.json").read_text())
    last = simulate(sc, mode).records[-1]
    assert isinstance(last, FaultRecord) and last.fatal
    assert re.match(r"PenetrationError: bodies \d and \d overlap", last.reason), last.reason


def test_sweep_second_pass_defers_a_pair_that_a_jump_turned_approaching():
    # At t = 0 robot 1 touches robot 2 behind it and obstacle 3 ahead (gaps of
    # 5e-10).  The first pass skips the robot pair, listed first, which
    # separates, and bounces robot 1 off the obstacle.  That turns robot 1
    # towards robot 2, so the second pass finds that pair approaching and
    # defers it: robot 1 has taken its one collision of the instant.
    d = 5e-10
    sc = make_scenario(
        [robot(1, 0.0, 0.0), robot(2, -2.0 - d, 0.0, theta=math.pi), obstacle(3, 2.0 + d, 0.0)],
        {"1": {"x": 10.0, "y": 0.0, "theta": 0.0}, "2": {"x": -10.0, "y": 0.0, "theta": math.pi}},
        sim={"t_max": 0.01, "jump_cap": 10},
    )
    records = simulate(sc, SimMode.PREDEFINED_ONLY).records
    collision, deferral, sample1, sample2 = [r for r in records if r.t == 0.0]
    assert isinstance(collision, CollisionRecord)
    assert (collision.robot_id, collision.other_id, collision.theta_pre) == (1, 3, 0.0)
    assert deferral == FaultRecord(
        t=0.0, reason="simultaneous contacts at one instant; pair (1, 2) deferred", fatal=False
    )
    # robot 1 leaves the instant reversed, closing on robot 2
    assert sample1.theta == collision.theta_post == pytest.approx(math.pi)
    assert sample1.v > sample2.v > 0.0 and sample2.theta == math.pi


@pytest.mark.parametrize("mode", list(SimMode), ids=lambda m: m.value)
def test_sweep_defers_a_pair_once_per_instant(mode):
    # Robot 1 touches obstacles 3 and 4 (gaps of 5e-10) at +-45 degrees ahead
    # of it.  It bounces off obstacle 3, and obstacle 4 is deferred; the
    # jump makes the sweep pass again, which must not warn a second time.
    c = (1.5 + 5e-10) * math.cos(math.pi / 4)
    sc = make_scenario(
        [robot(1, 0.0, 0.0), obstacle(3, c, c, radius=0.5), obstacle(4, c, -c, radius=0.5)],
        {"1": {"x": 10.0, "y": 0.0, "theta": 0.0}},
        sim={"t_max": 0.01, "jump_cap": 10},
    )
    deferrals = [0]
    # one robot: each executor pass ends with its one sample
    for r in simulate(sc, mode).records:
        if isinstance(r, FlowSample):
            assert deferrals[-1] <= 1, (r.t, deferrals[-1])
            deferrals.append(0)
        elif isinstance(r, FaultRecord) and r.reason.startswith("simultaneous contacts at one instant"):
            deferrals[-1] += 1
    assert deferrals[0] == 1


@pytest.mark.parametrize("mode", list(SimMode), ids=lambda m: m.value)
def test_sweep_jumps_a_tied_crossing_that_shares_no_robot(mode):
    # Robots 1 and 2 are mirror images across y = 0, each driving into its
    # own obstacle, so both crossings tie.  The event jumps (1, 3), and the
    # same instant's sweep jumps (2, 4): nothing is deferred.
    sc = make_scenario(
        [
            robot(1, 0.0, 10.0, theta=math.pi),
            robot(2, 0.0, -10.0, theta=math.pi),
            obstacle(3, -5.0, 10.0),
            obstacle(4, -5.0, -10.0),
        ],
        {"1": {"x": -10.0, "y": 10.0, "theta": math.pi}, "2": {"x": -10.0, "y": -10.0, "theta": math.pi}},
        sim={"t_max": 3.0, "jump_cap": 50},
    )
    records = simulate(sc, mode).records
    t = 1.0566363402605001
    at_t = [r for r in records if r.t == t]
    hits = [(r.robot_id, r.other_id) for r in at_t if isinstance(r, CollisionRecord)]
    assert hits[:2] == [(1, 3), (2, 4)]
    assert not [r for r in at_t if isinstance(r, FaultRecord) and "deferred" in r.reason]
    assert audit_passes(records) == []


# --- the jump cap's three stop sites --------------------------------------


def shipped(name, **changes):
    scenarios = Path(__file__).resolve().parents[1] / "scenarios"
    sc = load_scenario((scenarios / f"{name}.json").read_text())
    return sc._replace(**changes)


def test_a_reactivation_flips_q_alone_before_its_sample_block(monkeypatch):
    # A reactivation is a jump of q alone (1 -> 0) at the instant its local
    # phase ends: the switch precedes that instant's sample block, and every
    # pose there is the bits `step_flow` ended the step before with.
    real_flow, real_detect = hybrid.step_flow, hybrid.detect_event
    # the flow's results outside event localization, and where each step's
    # flow calls start among them
    flowed, step_starts = [], []
    probing = [False]

    def flowing(*args):
        pose = real_flow(*args)
        if not probing[0]:
            flowed.append(pose)
        return pose

    def detecting(rows, gaps, states, *args):
        step_starts.append(len(flowed) - len(states))
        probing[0] = True
        try:
            return real_detect(rows, gaps, states, *args)
        finally:
            probing[0] = False

    monkeypatch.setattr(hybrid, "step_flow", flowing)
    monkeypatch.setattr(hybrid, "detect_event", detecting)
    trace = simulate(shipped("crossing"), SimMode.REDESIGNED)
    n = len(trace.scenario.robot_ids())
    step_starts.append(len(flowed))

    def block(b):
        """Sample block b's (t, x, y, theta, q) of each robot, in id order."""
        starts = [(b * n + k) * SAMPLE_WIDTH for k in range(n)]
        rows = [trace.samples[start : start + SAMPLE_WIDTH] for start in starts]
        return [(row[0], *row[1:4], row[6]) for row in rows]

    switches = []
    blocks = 0
    for record in trace.log:
        if record is None:
            blocks += 1
        elif isinstance(record, SwitchRecord) and record.q_to == 0:
            switches.append((record, blocks))
    assert [(sw.q_from, sw.q_to) for sw, _ in switches] == [(1, 0), (1, 0)]
    for sw, b in switches:
        k = trace.scenario.robot_ids().index(sw.robot_id)
        after, before = block(b), block(b - 1)
        assert {row[0] for row in after} == {sw.t}
        assert (before[k][4], after[k][4]) == (1.0, 0.0)
        # step b ends with the last n poses the flow gave before step b + 1
        ended = flowed[step_starts[b] - n : step_starts[b]]
        assert [struct.pack("3d", *row[1:4]) for row in after] == [struct.pack("3d", *pose) for pose in ended]


def test_cap_during_reactivation_closes_with_zero_inputs():
    # The fifth jump is robot 1's switch back to q = 0; robot 2 is still in
    # its local phase and keeps q = 1 in the closing samples.
    records = simulate(shipped("crossing", jump_cap=5), SimMode.REDESIGNED).records
    switch, fault, *closing = records[-4:]
    assert (switch.robot_id, switch.q_from, switch.q_to) == (1, 1, 0)
    assert isinstance(fault, FaultRecord) and fault.fatal
    assert [(s.robot_id, s.t, s.v, s.w, s.q) for s in closing] == [
        (1, fault.t, 0.0, 0.0, 0),
        (2, fault.t, 0.0, 0.0, 1),
    ]


def test_cap_in_sweep_closes_with_the_refreshed_inputs():
    records = simulate(shipped("example1"), SimMode.PREDEFINED_ONLY).records
    collision, fault, closing = records[-3:]
    assert isinstance(collision, CollisionRecord)
    assert isinstance(fault, FaultRecord) and fault.fatal
    assert isinstance(closing, FlowSample) and closing.t == collision.t == fault.t
    assert closing.v == collision.v_post
    assert closing.w != 0.0


def test_cap_in_sweep_ends_its_pass():
    # At t = 0 robots 1 and 2 each touch their own obstacle ahead (gaps of
    # 5e-10).  Robot 1's bounce reaches the cap of one jump, so the sweep
    # stops there: robot 2's contact, later in the same pass, never jumps.
    d = 5e-10
    sc = make_scenario(
        [robot(1, 0.0, 10.0), robot(2, 0.0, -10.0), obstacle(3, 2.0 + d, 10.0), obstacle(4, 2.0 + d, -10.0)],
        {"1": {"x": 10.0, "y": 10.0, "theta": 0.0}, "2": {"x": 10.0, "y": -10.0, "theta": 0.0}},
        sim={"t_max": 0.01, "jump_cap": 1},
    )
    collision, fault, *closing = simulate(sc, SimMode.PREDEFINED_ONLY).records
    assert isinstance(collision, CollisionRecord) and (collision.robot_id, collision.other_id) == (1, 3)
    assert isinstance(fault, FaultRecord) and fault.fatal
    assert [(s.robot_id, s.t) for s in closing] == [(1, 0.0), (2, 0.0)]


def test_cap_on_event_hit_closes_with_zero_inputs():
    records = simulate(shipped("crossing"), SimMode.PREDEFINED_ONLY).records
    *collisions, fault = records[-5:-2]
    closing = records[-2:]
    assert [(c.robot_id, c.other_id) for c in collisions] == [(1, 2), (2, 1)]
    assert all(isinstance(c, CollisionRecord) for c in collisions)
    assert isinstance(fault, FaultRecord) and fault.fatal
    assert [(s.robot_id, s.t, s.v, s.w) for s in closing] == [
        (1, fault.t, 0.0, 0.0),
        (2, fault.t, 0.0, 0.0),
    ]


# --- metrics -----------------------------------------------------------------


def test_metrics_fold_on_constructed_trace():
    sc = aligned_two_robot_scenario()
    # one sampling pass (robots 1 and 2 at t = 0), then the other records
    samples = array("d", [0.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0, 20.0, 0.0, 1.0, 0.0, 0.0])
    log = [
        None,
        CollisionRecord(
            t=1.0, robot_id=2, other_id=1, x=0.0, y=0.0, theta_pre=0.0, theta_post=1.0,
            v_pre=1.0, v_post=1.0, phi=0.0, lam=1.0, mu=0.0, q=0,
        ),
        CollisionRecord(
            t=2.0, robot_id=2, other_id=1, x=0.0, y=0.0, theta_pre=0.0, theta_post=1.0,
            v_pre=1.0, v_post=1.0, phi=0.0, lam=1.0, mu=0.0, q=0,
        ),
        TargetReachedRecord(t=12.3, robot_id=1),
        FaultRecord(t=13.0, reason="boom", fatal=True),
    ]
    trace = Trace(scenario=sc, log=log, samples=samples, clearance={1: 18.0, 2: 18.0})
    assert trace.records[:2] == [
        FlowSample(t=0.0, robot_id=1, x=0.0, y=0.0, theta=0.0, v=1.0, w=0.0, q=0),
        FlowSample(t=0.0, robot_id=2, x=0.0, y=20.0, theta=0.0, v=1.0, w=0.0, q=0),
    ]
    m = metrics(trace)
    assert m.robots[1].min_clearance == m.robots[2].min_clearance == 18.0
    assert m.robots[1].reached and m.robots[1].completion_time == 12.3
    assert not m.robots[2].reached and m.robots[2].completion_time is None
    assert m.robots[2].collisions == 2
    assert m.robots[1].collisions == 0
    assert m.fault
    assert m.total_jumps == 2


def test_trace_csv_format():
    trace = simulate(aligned_two_robot_scenario(t_max=0.01), SimMode.REDESIGNED)
    csv = trace_to_csv(trace)
    lines = csv.strip().split("\n")
    assert lines[0] == "t,record_type,robot_id,other_id,x,y,theta,v,w,q,extra"
    assert all(len(line.split(",")) == 11 for line in lines[1:])


def test_sample_row_templates_write_format_17g(tmp_path):
    # the one-`%` template against the per-value format it replaced, and the
    # plot row projected from its cells
    rng = random.Random(7)
    values = [math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, -2.5e-310, 2.2250738585072014e-308]
    values += [struct.unpack("<d", rng.getrandbits(64).to_bytes(8, "little"))[0] for _ in range(20_000)]
    values += [rng.uniform(-100.0, 100.0) for _ in range(5_000)]

    def fmt(value):
        return format(value, ".17g")

    rows, plot_rows = [hybrid.CSV_HEADER + "\n"], ["t,x,y,theta,v,w\n"]
    for k in range(0, len(values) - 6, 6):
        t, x, y, theta, v, w = values[k : k + 6]
        row = FlowSample.ROW % FlowSample(t, 2, x, y, theta, v, w, 1)
        assert row == f"{fmt(t)},sample,2,,{fmt(x)},{fmt(y)},{fmt(theta)},{fmt(v)},{fmt(w)},1,\n"
        rows.append(row)
        plot_rows.append(f"{fmt(t)},{fmt(x)},{fmt(y)},{fmt(theta)},{fmt(v)},{fmt(w)}\n")
    hybrid.write_plot_csv(rows, {2: tmp_path / "plot.csv"})
    assert (tmp_path / "plot.csv").read_text(encoding="utf-8").splitlines(keepends=True) == plot_rows
