"""Acceptance suite: one test per shipped acceptance criterion.

Run with `pytest tests/test_acceptance.py -s` to see one PASS/FAIL line per
criterion.  Each test pins the tolerances it checks; nothing is deferred to
later calibration.
"""

import math
import random
from pathlib import Path

import pytest

from bumpsim.cli import main as cli_main
from bumpsim.collision import ContactQuery, build_local_frame, resolve_collision
from bumpsim.controller import ControllerTerms, controller_terms, predefined_control
from bumpsim.hybrid import (
    FaultRecord,
    FlowSample,
    ImpulseRecord,
    SimMode,
    SwitchRecord,
    contact_pairs,
    metrics,
    simulate,
    step_flow,
)
from bumpsim.redesign import escape_distance, local_duration, select_escape_heading, tangent_rays
from bumpsim.scenario import Body, BodyKind, ControlInput, ControllerParams, RobotState, load_scenario

SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"


def _report(criterion: int, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"criterion {criterion}: {status} - {detail}")


# -----------------------------------------------------------------------------


def test_c1_duration_identity():
    got = local_duration(5.0, other_is_robot=False, r_other=1.0)
    ok = got == 0.2
    _report(1, ok, f"local_duration(5, obstacle r=1) = {got!r} (expected exactly 0.2)")
    assert ok


def test_c2_conservation_suite():
    rng = random.Random(2024_09_02)
    worst_p = worst_e = worst_mu = worst_rec = 0.0
    for _ in range(10_000):
        p_i = (rng.uniform(-5, 5), rng.uniform(-5, 5))
        ang = rng.uniform(0.0, 2.0 * math.pi)
        radius = rng.uniform(0.5, 3.0)
        p_j = (p_i[0] + radius * math.cos(ang), p_i[1] + radius * math.sin(ang))
        q = ContactQuery.build(
            i_id=1, j_id=2, p_i=p_i, p_j=p_j, r_i=radius / 2, r_j=radius / 2,
            m_i=rng.uniform(0.1, 10.0), m_j=rng.uniform(0.1, 10.0),
            v_i=rng.uniform(-5, 5), v_j=rng.uniform(-5, 5),
            theta_i=rng.uniform(-7, 7), theta_j=rng.uniform(-7, 7),
        )
        out_i, out_j = resolve_collision(q, body_j_is_robot=True)
        phi = q.frame.phi
        v_iy = q.v_i * math.sin(q.theta_i - phi)
        v_jy = q.v_j * math.sin(q.theta_j - phi)

        p0 = q.m_i * v_iy + q.m_j * v_jy
        p1 = q.m_i * out_i.lam + q.m_j * out_j.lam
        worst_p = max(worst_p, abs(p1 - p0) / max(1.0, abs(p0)))

        e0 = 0.5 * q.m_i * v_iy**2 + 0.5 * q.m_j * v_jy**2
        e1 = 0.5 * q.m_i * out_i.lam**2 + 0.5 * q.m_j * out_j.lam**2
        worst_e = max(worst_e, abs(e1 - e0) / max(1.0, abs(e0)))

        for out, v_pre, th_pre in ((out_i, q.v_i, q.theta_i), (out_j, q.v_j, q.theta_j)):
            mu_pre = v_pre * math.cos(th_pre - phi)
            worst_mu = max(worst_mu, abs(out.mu - mu_pre))
            rec_x = out.v_plus * math.cos(out.theta_plus - phi) - out.mu
            rec_y = out.v_plus * math.sin(out.theta_plus - phi) - out.lam
            worst_rec = max(worst_rec, abs(rec_x), abs(rec_y))

    ok = worst_p <= 1e-9 and worst_e <= 1e-9 and worst_mu <= 1e-12 and worst_rec <= 1e-9
    _report(
        2,
        ok,
        "10000 random exchanges: momentum "
        f"{worst_p:.2e}, energy {worst_e:.2e}, tangential {worst_mu:.2e}, recomposition {worst_rec:.2e}",
    )
    assert ok


def test_c3_infinite_mass_reflection():
    rng = random.Random(7_31)
    ok = True
    for _ in range(2_000):
        p_i = (rng.uniform(-5, 5), rng.uniform(-5, 5))
        ang = rng.uniform(0.0, 2.0 * math.pi)
        radius = rng.uniform(0.5, 3.0)
        p_j = (p_i[0] + radius * math.cos(ang), p_i[1] + radius * math.sin(ang))
        q = ContactQuery.build(
            i_id=1, j_id=3, p_i=p_i, p_j=p_j, r_i=radius / 2, r_j=radius / 2,
            m_i=rng.uniform(0.1, 10.0), m_j=math.inf,
            v_i=rng.uniform(-5, 5), v_j=0.0,
            theta_i=rng.uniform(-7, 7), theta_j=0.0,
        )
        out_i, out_j = resolve_collision(q)
        v_iy = q.v_i * math.sin(q.theta_i - q.frame.phi)
        ok = ok and out_j is None
        ok = ok and out_i.lam == -v_iy  # exact negation
        ok = ok and abs(out_i.v_plus - abs(q.v_i)) <= 1e-12
    _report(3, ok, "2000 unbounded static contacts: speed preserved to 1e-12, normal velocity exactly negated")
    assert ok


def _example1_scenario(x, y, theta):
    base = load_scenario((SCENARIOS / "example1.json").read_text())
    bodies = tuple(
        b._replace(x=x, y=y, theta=theta) if b.id == 1 else b for b in base.bodies
    )
    return base._replace(bodies=bodies)


def test_c4_example1_reproduction():
    starts = [
        (0.0, 7.0, 0.01 * math.pi),
        (0.0, 6.5, 0.01 * math.pi),
        (1.0, 6.5, 0.3 * math.pi),
        (1.0, 6.5, 2.1 * math.pi),
        (0.0, 8.0, 2.1 * math.pi),
        (0.0, 8.0, 0.01 * math.pi),  # the start expected to reach
    ]
    outcomes = []
    for (x, y, theta) in starts:
        trace = simulate(_example1_scenario(x, y, theta), SimMode.PREDEFINED_ONLY)
        outcomes.append(metrics(trace).robots[1].reached)
    reach_last = outcomes[-1]
    others_failed = sum(1 for r in outcomes[:-1] if not r)
    ok = reach_last and others_failed >= 4
    _report(
        4,
        ok,
        f"start six reached={reach_last}, {others_failed}/5 other starts failed "
        f"(need: reached and >= 4 failures); outcomes={outcomes}",
    )
    assert ok


# --- why c4 is red: the barrier rate, the stall and the creeping contact -----
#
# example1.json's own start is c4's start six, so the example1 predefined
# golden run is the trajectory c4 needs to reach its goal.

EXAMPLE1_PREDEFINED = pytest.mark.parametrize(
    "golden_run", [("example1", SimMode.PREDEFINED_ONLY)], indirect=True, ids=["example1-predefined"]
)


def _barrier_steps(trace):
    """(deficit, tolerance) of each step before the first contact.

    The deficit is e^(-sigma3*dt) - h[k+1]/h[k], by which a step falls short
    of the continuous barrier rate dh/dt >= -sigma3*h.  The tolerance is its
    zero-order-hold bound.  With the input held over the step and
    h = |p - o|^2 - R^2, dh/dt = v*e (e the h gradient along the heading),
    which the controller keeps >= -sigma3*h at the sample, and
    d2h/dt2 = 2v^2 + 2vw((y - oy)cos(theta) - (x - ox)sin(theta)) >= -2|vw|rho,
    rho bounding |p - o| over the step.  So h[k+1] >= h[k](1 - sigma3*dt) -
    |vw|rho*dt^2, and e^(-sigma3*dt) <= 1 - sigma3*dt + (sigma3*dt)^2/2 gives
    deficit <= dt^2 (sigma3^2/2 + |vw|rho/h[k]), plus the rounding of the
    two h values, at most 8 ulps of rho^2 + R^2 over h[k]."""
    sc = trace.scenario
    (ox, oy), rsum = sc.body(3).position, sc.body(1).radius + sc.body(3).radius
    sigma3 = sc.params.sigma3
    rows = contact_pairs(sc)
    first_contact = min((c.t for c in trace.collisions()), default=math.inf)
    samples = [r for r in trace.records if isinstance(r, FlowSample) and r.t <= first_contact]
    hs = [
        ControllerTerms(*controller_terms(1, {1: RobotState(s.x, s.y, s.theta)}, sc.targets[1], rows, sc.params)).h
        for s in samples
    ]
    steps = []
    for k, (a, b) in enumerate(zip(samples, samples[1:])):
        dt = b.t - a.t
        rho = math.hypot(a.x - ox, a.y - oy) + abs(a.v) * dt
        deficit = math.exp(-sigma3 * dt) - hs[k + 1] / hs[k]
        zoh = dt * dt * (0.5 * sigma3 * sigma3 + abs(a.v * a.w) * rho / hs[k])
        steps.append((deficit, zoh + 8.0 * math.ulp(1.0) * (rho * rho + rsum * rsum) / hs[k]))
    return steps, hs


@EXAMPLE1_PREDEFINED
def test_c4_barrier_rate_holds_up_to_the_zero_order_hold(golden_run):
    _, trace = golden_run
    steps, hs = _barrier_steps(trace)
    assert all(deficit <= tol for deficit, tol in steps)
    # the barrier is what limits h: most steps fall below the continuous
    # rate, and h decays from 12 to about 4e-9 at the first contact
    assert sum(deficit > 0.0 for deficit, _ in steps) > len(steps) // 2
    assert hs[0] == 12.0 and hs[-1] < 1e-8


def test_c4_zero_order_hold_deficit_shrinks_with_dt():
    def worst(dt):
        trace = simulate(
            _example1_scenario(0.0, 8.0, 0.01 * math.pi)._replace(dt=dt, t_max=2.0),
            SimMode.PREDEFINED_ONLY,
        )
        steps, _ = _barrier_steps(trace)
        assert all(deficit <= tol for deficit, tol in steps)
        return max(d for d, _ in steps), max(tol for _, tol in steps)

    (deficit, tol), (half_deficit, half_tol) = worst(1e-3), worst(5e-4)
    # O(dt^2): both shrink about 4x at dt/2
    assert deficit > 3.0 * half_deficit > 0.0
    assert tol > 3.0 * half_tol


@EXAMPLE1_PREDEFINED
def test_c4_robot_stalls_short_of_its_goal(golden_run):
    _, trace = golden_run
    goal = trace.scenario.targets[1]
    late = [r for r in trace.records if isinstance(r, FlowSample) and r.t >= 5.0]
    assert late and min(math.hypot(s.x - goal.x, s.y - goal.y) for s in late) > 5.0
    assert not metrics(trace).robots[1].reached


@EXAMPLE1_PREDEFINED
def test_c4_creeping_contact_chatters_until_the_jump_cap(golden_run):
    _, trace = golden_run
    collisions = trace.collisions()
    times = [c.t for c in collisions]
    assert len(collisions) == trace.scenario.jump_cap == 2000
    assert {c.other_id for c in collisions} == {3}
    assert 18.2 <= times[0] <= 18.25
    # a contact about every 2 ms, none further apart
    assert max(b - a for a, b in zip(times, times[1:])) <= 2e-3 + 1e-9
    assert (times[-1] - times[0]) / (len(times) - 1) == pytest.approx(2e-3, rel=0.01)
    fault = trace.records[-2]
    assert isinstance(fault, FaultRecord) and fault.fatal and fault.t == times[-1]
    assert "jump counter reached the cap (2000)" in fault.reason


def test_c5_crossing_phenomena():
    scenario = load_scenario((SCENARIOS / "crossing.json").read_text())

    baseline = metrics(simulate(scenario, SimMode.PREDEFINED_ONLY))
    base_collisions = sum(m.collisions for m in baseline.robots.values())
    base_completed = all(m.reached for m in baseline.robots.values()) and not baseline.fault
    part_a = base_collisions >= 100 and not base_completed

    trace = simulate(scenario, SimMode.REDESIGNED)
    redesigned = metrics(trace)
    re_collisions = sum(m.collisions for m in redesigned.robots.values())
    part_b = (
        all(m.reached for m in redesigned.robots.values())
        and not redesigned.fault
        and re_collisions <= 10
    )

    # (c): every collision is followed by exactly one heading jump and two
    # input jumps, with a constant-input local segment of length t_dur
    part_c = bool(trace.collisions())
    for col in trace.collisions():
        rid = col.robot_id
        impulses = [r for r in trace.records if isinstance(r, ImpulseRecord) and r.robot_id == rid and r.t == col.t]
        ups = [r for r in trace.records if isinstance(r, SwitchRecord) and r.robot_id == rid and r.t == col.t and r.q_to == 1]
        part_c = part_c and len(impulses) == 1 and len(ups) == 1
        downs = [r for r in trace.records if isinstance(r, SwitchRecord) and r.robot_id == rid and r.t > col.t and r.q_to == 0]
        part_c = part_c and bool(downs)
        if not part_c:
            break
        down_t = downs[0].t
        t_dur = escape_distance(other_is_robot=col.other_id in (1, 2), r_other=scenario.body(col.other_id).radius) / scenario.params.m_v
        part_c = part_c and abs((down_t - col.t) - t_dur) <= 1e-9
        seg = [
            s for s in trace.records
            if isinstance(s, FlowSample) and s.robot_id == rid and col.t <= s.t < down_t
        ]
        part_c = part_c and len({s.theta for s in seg}) == 1
        part_c = part_c and all(s.w == 0.0 and s.v == scenario.params.m_v and s.q == 1 for s in seg)

    ok = part_a and part_b and part_c
    _report(
        5,
        ok,
        f"baseline: {base_collisions} collisions, completed={base_completed}; "
        f"redesigned: {re_collisions} collisions, completed={part_b}; protocol={part_c}",
    )
    assert ok


def test_c6_geometry_suite():
    rng = random.Random(60_61)
    ok = True
    worst_dot = worst_dist = 0.0
    for _ in range(1_000):
        center = (rng.uniform(-10, 10), rng.uniform(-10, 10))
        contact_radius = rng.uniform(0.5, 4.0)
        ang = rng.uniform(0.0, 2.0 * math.pi)
        p_ic = (
            center[0] + contact_radius * math.cos(ang),
            center[1] + contact_radius * math.sin(ang),
        )
        target = (rng.uniform(-12, 12), rng.uniform(-12, 12))
        if math.hypot(target[0] - p_ic[0], target[1] - p_ic[1]) < 1e-3:
            continue
        rays = tangent_rays(center, p_ic, contact_radius)
        theta_escape, phi_sel = select_escape_heading(rays, target)

        # tangency: escape direction is orthogonal to the radial direction
        d = (math.cos(theta_escape), math.sin(theta_escape))
        radial = (center[0] - p_ic[0], center[1] - p_ic[1])
        dot = d[0] * radial[0] + d[1] * radial[1]
        worst_dot = max(worst_dot, dot)
        ok = ok and dot <= 1e-9

        # phi_sel is the minimum of the two ray angles
        seg = (target[0] - p_ic[0], target[1] - p_ic[1])
        seg_n = math.hypot(*seg)
        seg = (seg[0] / seg_n, seg[1] / seg_n)
        phi_b = math.acos(max(-1.0, min(1.0, seg[0] * rays.dir1[0] + seg[1] * rays.dir1[1])))
        phi_p = math.acos(max(-1.0, min(1.0, seg[0] * rays.dir2[0] + seg[1] * rays.dir2[1])))
        ok = ok and phi_sel == min(phi_b, phi_p)

        # driving the local phase covers exactly the escape distance
        other_is_robot = rng.random() < 0.5
        r_other = rng.uniform(0.3, 2.0)
        v_loc = rng.uniform(0.5, 5.0)
        t_dur = local_duration(v_loc, other_is_robot, r_other)
        state = RobotState(p_ic[0], p_ic[1], theta_escape)
        u = ControlInput(v_loc, 0.0)
        remaining = t_dur
        while remaining > 1e-3:
            state = step_flow(state, u, 1e-3)
            remaining -= 1e-3
        state = step_flow(state, u, remaining)
        x, y, _ = state
        travelled = math.hypot(x - p_ic[0], y - p_ic[1])
        err = abs(travelled - escape_distance(other_is_robot, r_other))
        worst_dist = max(worst_dist, err)
        ok = ok and err <= 1e-6
    _report(6, ok, f"1000 escape geometries: worst tangency dot {worst_dot:.2e}, worst distance error {worst_dist:.2e}")
    assert ok


def test_c7_frame_suite():
    rng = random.Random(70_71)
    ok = True
    for _ in range(10_000):
        p_i = (rng.uniform(-20, 20), rng.uniform(-20, 20))
        p_j = (rng.uniform(-20, 20), rng.uniform(-20, 20))
        if math.hypot(p_j[0] - p_i[0], p_j[1] - p_i[1]) < 1e-6:
            continue
        frame = build_local_frame(p_i, p_j)
        ok = ok and (frame.ox, frame.oy) == p_i and 0.0 <= frame.phi < 2.0 * math.pi

        # p_j projected on the frame's axes: x along phi, y a quarter turn on
        c, s = math.cos(frame.phi), math.sin(frame.phi)
        dx, dy = p_j[0] - p_i[0], p_j[1] - p_i[1]
        dist = math.hypot(dx, dy)
        ok = ok and abs(c * dx + s * dy) <= 1e-12 * max(1.0, dist)
        ok = ok and abs(-s * dx + c * dy - dist) <= 1e-12 * max(1.0, dist)
    _report(7, ok, "10000 random frames: origin at p_i, phi in [0, 2pi) and +y-axis placement within 1e-12")
    assert ok


def test_c8_controller_suite():
    rng = random.Random(80_81)
    params = ControllerParams(rho=9.0, sigma1=1.25, sigma2=0.6, sigma3=1.2, m_v=5.0, m_w=5.0)
    # the pair table reads only the bodies of the scenario it is given
    crossing = load_scenario((SCENARIOS / "crossing.json").read_text())
    ok = True
    for _ in range(10_000):
        p1 = (rng.uniform(-10, 10), rng.uniform(-10, 10))
        p2 = (rng.uniform(-10, 10), rng.uniform(-10, 10))
        if math.hypot(p1[0] - p2[0], p1[1] - p2[1]) < 1e-3:
            p2 = (p1[0] + 2.5, p1[1])
        bodies = [
            Body(1, BodyKind.ROBOT, 1.0, 1.0, p1[0], p1[1], 0.0),
            Body(2, BodyKind.ROBOT, 1.0, 1.0, p2[0], p2[1], 0.0),
        ]
        for k in range(rng.randrange(0, 3)):
            bodies.append(Body(3 + k, BodyKind.OBSTACLE, 1.0, math.inf, rng.uniform(-10, 10), rng.uniform(-10, 10)))
        state = RobotState(p1[0], p1[1], rng.uniform(-7, 7))
        target = RobotState(rng.uniform(-10, 10), rng.uniform(-10, 10), rng.uniform(-7, 7))
        rows = [p for p in contact_pairs(crossing._replace(bodies=tuple(bodies))) if 1 in (p.i, p.j)]
        decision = predefined_control(1, {1: state, 2: RobotState(p2[0], p2[1], 0.0)}, target, rows, params)
        v, w = decision.u
        ok = ok and abs(v) <= params.m_v and abs(w) <= params.m_w
        terms = ControllerTerms(*decision.terms)
        v_nom, _ = decision.u_nom
        if abs(terms.e) >= 1e-9:
            ok = ok and (terms.b + terms.e * v_nom) >= -1e-9
    # integrator accuracy against the analytic arc
    worst = 0.0
    for k in range(0, 5000, 13):
        t = k * 1e-3
        start = RobotState(math.sin(t), 1.0 - math.cos(t), t)
        x, y, theta = step_flow(start, ControlInput(1.0, 1.0), 1e-3)
        worst = max(
            worst,
            abs(x - math.sin(t + 1e-3)),
            abs(y - (1.0 - math.cos(t + 1e-3))),
            abs(theta - (t + 1e-3)),
        )
    ok = ok and worst <= 1e-10
    _report(8, ok, f"10000 random states bounded and safe; arc error per step {worst:.2e} <= 1e-10")
    assert ok


def test_c9_determinism(tmp_path):
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        code = cli_main(["run", "--scenario", str(SCENARIOS / "crossing.json"), "--out", str(out)])
        assert code == 0
        outs.append((out / "trace.csv").read_bytes())
    ok = outs[0] == outs[1]
    _report(9, ok, f"two runs produced byte-identical trace.csv ({len(outs[0])} bytes)")
    assert ok
