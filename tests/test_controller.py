import math
import random
from collections import Counter
from pathlib import Path

import pytest

from bumpsim import controller, hybrid
from bumpsim.controller import (
    DENOM_EPS,
    ControllerTerms,
    Region,
    RegionError,
    controller_terms,
    predefined_control,
)
from bumpsim.hybrid import SimMode, contact_pairs
from bumpsim.scenario import Body, BodyKind, ControlInput, ControllerParams, RobotState, load_scenario

UNBOUNDED = math.inf

EX1_PARAMS = ControllerParams(rho=9.0, sigma1=1.25, sigma2=0.6, sigma3=1.2, m_v=5.0, m_w=5.0)


def ex1_bodies(robot_xy=(0.0, 7.0), robot_theta=0.5 * math.pi):
    return [
        Body(1, BodyKind.ROBOT, 1.0, 1.0, robot_xy[0], robot_xy[1], robot_theta),
        Body(3, BodyKind.OBSTACLE, 1.0, UNBOUNDED, 0.0, 4.0),
    ]


def two_robot_bodies(p1, p2, obstacles=()):
    bodies = [
        Body(1, BodyKind.ROBOT, 1.0, 1.0, p1[0], p1[1], 0.0),
        Body(2, BodyKind.ROBOT, 1.0, 1.0, p2[0], p2[1], 0.0),
    ]
    for k, (ox, oy) in enumerate(obstacles, start=3):
        bodies.append(Body(k, BodyKind.OBSTACLE, 1.0, UNBOUNDED, ox, oy))
    return bodies


def rows_of(bodies, robot_id):
    """The robot's rows of the pair table, as the executor hands them over."""
    return [p for p in contact_pairs(bodies) if robot_id in (p.i, p.j)]


def terms_at(bodies, states, target=RobotState(0.0, 0.0, 0.0)):
    return controller_terms(1, states, target, rows_of(bodies, 1), EX1_PARAMS)


def clf_at(state, target):
    """V of a lone robot: it does not depend on the pair-table rows."""
    return controller_terms(1, {1: state}, target, [], EX1_PARAMS).V


@pytest.fixture
def decide(monkeypatch):
    """`predefined_control(terms, rho, m_v, m_w)`: the decision on the given
    terms, which `controller.controller_terms` is patched to return (as the
    fault tests corrupt them), with the other gains of Example 1.  The input
    box is unbounded unless given."""
    given = [None]
    monkeypatch.setattr(controller, "controller_terms", lambda *args: given[0])

    def run(terms, rho=9.0, m_v=math.inf, m_w=math.inf):
        given[0] = terms
        params = EX1_PARAMS._replace(rho=rho, m_v=m_v, m_w=m_w)
        return predefined_control(1, {1: RobotState(0.0, 0.0, 0.0)}, RobotState(0.0, 0.0, 0.0), [], params)

    return run


def nominal(decision):
    """The region, nominal input and degeneracy flag of a decision."""
    return decision.region, decision.u_nom, decision.degenerate


# --- scalar terms -----------------------------------------------------------


def test_clf_zero_at_target():
    s = RobotState(1.0, -2.0, 0.4)
    assert clf_at(s, s) == 0.0


def test_clf_example_value():
    got = clf_at(RobotState(0.0, 7.0, 0.01 * math.pi), RobotState(0.0, 0.0, 0.5 * math.pi))
    want = 24.5 + 0.5 * (0.49 * math.pi) ** 2
    assert got == pytest.approx(want, rel=1e-12)


def test_clf_unit_displacement():
    assert clf_at(RobotState(1.0, 0.0, 0.0), RobotState(0.0, 0.0, 0.0)) == 0.5


def test_gain_scales_only_nonnegative_arguments():
    # a = sigma1 * (sigma2 * V) when that argument is >= 0, and sigma2 * V
    # unscaled below (reachable only with a negative sigma2)
    state, target = RobotState(1.0, 2.0, 0.5), RobotState(0.0, 0.0, 0.0)
    for sigma2 in (0.6, -0.6):
        params = EX1_PARAMS._replace(sigma2=sigma2)
        t = controller_terms(1, {1: state}, target, [], params)
        assert t.a == (1.25 * (sigma2 * t.V) if sigma2 > 0 else sigma2 * t.V)


def test_cbf_single_robot_form():
    bodies = ex1_bodies()
    assert terms_at(bodies, {1: RobotState(0.0, 7.0, 0.0)}).h == pytest.approx(5.0, abs=1e-12)


def test_cbf_contact_is_zero():
    bodies = ex1_bodies()
    assert terms_at(bodies, {1: RobotState(0.0, 6.0, 0.0)}).h == pytest.approx(0.0, abs=1e-12)


def test_cbf_two_robots_at_contact():
    bodies = two_robot_bodies((0.0, 0.0), (2.0, 0.0))
    states = {1: RobotState(0.0, 0.0, 0.0), 2: RobotState(2.0, 0.0, 0.0)}
    assert terms_at(bodies, states).h == pytest.approx(0.0, abs=1e-12)


def test_lie_derivatives_example():
    bodies = ex1_bodies()
    t = terms_at(bodies, {1: RobotState(0.0, 7.0, 0.5 * math.pi)}, RobotState(0.0, 0.0, 0.5 * math.pi))
    c, s, e = t.c, t.s, t.e
    assert c == pytest.approx(7.0, abs=1e-12)
    assert s == 0.0
    assert e == pytest.approx(6.0, abs=1e-12)


def test_lie_derivatives_zero_at_target():
    bodies = ex1_bodies()
    s0 = RobotState(0.0, 7.0, 0.5 * math.pi)
    t = terms_at(bodies, {1: s0}, s0)
    c, s = t.c, t.s
    assert c == 0.0
    assert s == 0.0


def test_lie_derivative_gradient_dot_heading():
    bodies = [
        Body(1, BodyKind.ROBOT, 1.0, 1.0, 3.0, 0.0, 0.0),
        Body(3, BodyKind.OBSTACLE, 1.0, UNBOUNDED, 0.0, 0.0),
    ]
    e = terms_at(bodies, {1: RobotState(3.0, 0.0, 0.0)}).e
    assert e == pytest.approx(6.0, abs=1e-12)


def _summed_clearance_oracle(robot_id, bodies, states):
    """h and e of robot_id summed over the Body list, independent of the pair
    table: every other body, robots at their state and obstacles in place."""
    own = next(b for b in bodies if b.id == robot_id)
    p = states[robot_id]
    h = gx = gy = 0.0
    for b in bodies:
        if b.id == robot_id:
            continue
        ox, oy = (states[b.id].x, states[b.id].y) if b.kind is BodyKind.ROBOT else (b.x, b.y)
        rr = own.radius + b.radius
        h += (p.x - ox) ** 2 + (p.y - oy) ** 2 - rr * rr
        gx += 2.0 * (p.x - ox)
        gy += 2.0 * (p.y - oy)
    return h, gx * math.cos(p.theta) + gy * math.sin(p.theta)


@pytest.mark.parametrize("rid", [1, 2])
def test_terms_match_body_list_oracle(rid):
    # robot 2 is the j of the (1, 2) row, so its "other" is robot 1
    rng = random.Random(20240904 + rid)
    for _ in range(300):
        states = {k: RobotState(rng.uniform(-8, 8), rng.uniform(-8, 8), rng.uniform(-7, 7)) for k in (1, 2)}
        bodies = [
            Body(k, BodyKind.ROBOT, rng.uniform(0.3, 1.5), 1.0, states[k].x, states[k].y, states[k].theta)
            for k in (1, 2)
        ]
        for k in range(3, 3 + rng.randrange(0, 3)):
            radius, x, y = rng.uniform(0.3, 1.5), rng.uniform(-8, 8), rng.uniform(-8, 8)
            bodies.append(Body(k, BodyKind.OBSTACLE, radius, UNBOUNDED, x, y))
        target = RobotState(rng.uniform(-8, 8), rng.uniform(-8, 8), rng.uniform(-7, 7))
        t = controller_terms(rid, states, target, rows_of(bodies, rid), EX1_PARAMS)
        h, e = _summed_clearance_oracle(rid, bodies, states)
        assert t.h == pytest.approx(h, rel=1e-12)
        assert t.e == pytest.approx(e, rel=1e-12)


# --- region classification --------------------------------------------------


def test_region_omega2_at_target_with_clearance(decide):
    t = ControllerTerms(V=0.0, h=5.0, a=0.0, b=5.0, c=0.0, s=0.0, e=6.0)
    assert decide(t).region is Region.OMEGA2


def test_region_omega4_by_substitution(decide):
    t = ControllerTerms(V=1.0, h=-1.0, a=3.0, b=-1.0, c=1.0, s=0.0, e=2.0)
    assert decide(t).region is Region.OMEGA4


def test_region_all_zero_terms_fall_to_omega4(decide):
    t = ControllerTerms(V=0.0, h=0.0, a=0.0, b=0.0, c=0.0, s=0.0, e=0.0)
    assert decide(t).region is Region.OMEGA4


def test_region_omega1_on_raw_terms(decide):
    # unreachable through controller_terms (a >= 0 always) but classifiable
    t = ControllerTerms(V=-1.0, h=1.0, a=-1.0, b=1.0, c=0.5, s=0.5, e=1.0)
    assert decide(t).region is Region.OMEGA1


def test_region_omega3_by_substitution(decide):
    t = ControllerTerms(V=1.0, h=-2.0, a=1.0, b=-2.0, c=-4.0, s=0.0, e=2.0)
    # c*b/e = (-4)(-2)/2 = 4 > a = 1 and b <= 0
    assert decide(t).region is Region.OMEGA3


def test_no_region_error_surfaces(decide):
    # the four sets cover every finite input; non-finite terms (a contract
    # violation upstream) must surface as an error, never default silently
    t = ControllerTerms(V=math.nan, h=0.0, a=math.nan, b=0.0, c=1.0, s=0.0, e=1.0)
    with pytest.raises(RegionError):
        decide(t)


def test_an_overflowing_product_is_named(decide):
    # finite terms (those of a scenario at the magnitude bound) whose region
    # tests overflow match no region; the error names the product
    t = ControllerTerms(
        V=2.5e300, h=7.75e300, a=1.875e300, b=9.3e300, c=-1.4464144704446882e150, s=1e150, e=-1.3030460276077805e149
    )
    with pytest.raises(OverflowError, match=r"^rho \* e \* c \* a overflows to inf in the region tests of terms "):
        decide(t)


# --- nominal branches -------------------------------------------------------


def test_nominal_omega2_zero_at_target(decide):
    t = ControllerTerms(V=0.0, h=5.0, a=0.0, b=5.0, c=0.0, s=0.0, e=6.0)
    region, u, degenerate = nominal(decide(t))
    assert region is Region.OMEGA2
    assert (u.v, u.w) == (0.0, 0.0)
    assert degenerate


def test_nominal_omega3_ratio(decide):
    t = ControllerTerms(V=1.0, h=-4.0, a=1.0, b=-4.0, c=-9.0, s=0.0, e=2.0)
    region, u, degenerate = nominal(decide(t))
    assert region is Region.OMEGA3
    assert u.v == pytest.approx(2.0, abs=1e-15)
    assert u.w == 0.0
    assert not degenerate


def test_nominal_omega4_substitution(decide):
    t = ControllerTerms(V=1.0, h=-1.0, a=3.0, b=-1.0, c=1.0, s=0.0, e=2.0)
    region, u, degenerate = nominal(decide(t))
    assert region is Region.OMEGA4
    assert u.v == pytest.approx(0.5, abs=1e-15)
    assert u.w == 0.0
    assert not degenerate


def test_saturate_clamps(decide):
    # nominal inputs (12, 0) and (-12, 0) in region 3, and (3, -1) in region 2
    for terms, rho, u_nom, u in (
        (ControllerTerms(1.0, 1.0, 0.0, -24.0, -1.0, 0.0, 2.0), 9.0, (12.0, 0.0), (10.0, 0.0)),
        (ControllerTerms(1.0, 1.0, 0.0, -24.0, 1.0, 0.0, -2.0), 9.0, (-12.0, 0.0), (-10.0, 0.0)),
        (ControllerTerms(1.0, 1.0, 20.0, 1.0, -3.0, 1.0, 0.0), 1.0, (3.0, -1.0), (3.0, -1.0)),
    ):
        d = decide(terms, rho, 10.0, 2.0)
        assert d.u_nom == ControlInput(*u_nom) and d.u == ControlInput(*u)
    # an input inside the box comes back as is
    assert d.u is d.u_nom


# --- predefined_control -----------------------------------------------------


def test_predefined_zero_at_exact_target():
    bodies = ex1_bodies(robot_xy=(0.0, 7.0))
    target = RobotState(0.0, 7.0, 0.5 * math.pi)
    d = predefined_control(1, {1: RobotState(0.0, 7.0, 0.5 * math.pi)}, target, rows_of(bodies, 1), EX1_PARAMS)
    assert (d.u.v, d.u.w) == (0.0, 0.0)


def test_predefined_example1_state_bounded():
    bodies = ex1_bodies(robot_xy=(0.0, 8.0), robot_theta=0.01 * math.pi)
    d = predefined_control(
        1,
        {1: RobotState(0.0, 8.0, 0.01 * math.pi)},
        RobotState(0.0, 0.0, 0.5 * math.pi),
        rows_of(bodies, 1),
        EX1_PARAMS,
    )
    assert abs(d.u.v) <= 5.0
    assert abs(d.u.w) <= 5.0
    assert math.isfinite(d.u.v) and math.isfinite(d.u.w)


def test_predefined_degenerate_flag():
    # lone robot with zero summed clearance terms: all terms vanish
    bodies = [Body(1, BodyKind.ROBOT, 1.0, 1.0, 0.0, 0.0, 0.0)]
    target = RobotState(0.0, 0.0, 0.0)
    d = predefined_control(1, {1: RobotState(0.0, 0.0, 0.0)}, target, rows_of(bodies, 1), EX1_PARAMS)
    assert (d.u.v, d.u.w) == (0.0, 0.0)
    assert d.degenerate


# Controller calls per region over a whole shipped run.  crossing reaches
# only region 2; example1 is the shipped run that also takes region 4.
EXAMPLE1_REGIONS = {
    SimMode.REDESIGNED: {Region.OMEGA2: 16632, Region.OMEGA4: 43171},
    SimMode.PREDEFINED_ONLY: {Region.OMEGA2: 54, Region.OMEGA4: 22153},
}


@pytest.mark.parametrize("mode", list(EXAMPLE1_REGIONS), ids=lambda m: m.value)
def test_example1_region_histogram(monkeypatch, mode):
    path = Path(__file__).resolve().parents[1] / "scenarios" / "example1.json"
    scenario = load_scenario(path.read_text(encoding="utf-8"))
    control = hybrid.predefined_control
    regions: Counter = Counter()

    def counted(*args):
        decision = control(*args)
        regions[decision.region] += 1
        regions["degenerate"] += decision.degenerate
        return decision

    monkeypatch.setattr(hybrid, "predefined_control", counted)
    hybrid.simulate(scenario, mode)
    assert dict(regions) == {**EXAMPLE1_REGIONS[mode], "degenerate": 0}


def test_exact_tuple_constants_decide_as_the_named_tuples(monkeypatch):
    # `simulate` hands the controller its target, rows and gains as exact
    # tuples; they decide bit for bit as the NamedTuples do
    path = Path(__file__).resolve().parents[1] / "scenarios" / "crossing.json"
    scenario = load_scenario(path.read_text(encoding="utf-8"))
    control = hybrid.predefined_control
    handed = []

    def recording(robot_id, states, target, rows, params):
        handed.append((target, *rows, params))
        return control(robot_id, states, target, rows, params)

    monkeypatch.setattr(hybrid, "predefined_control", recording)
    hybrid.simulate(scenario._replace(t_max=0.01))
    assert len(handed) == 22 and {type(c) for constants in handed for c in constants} == {tuple}

    rng = random.Random(20261020)
    for _ in range(1000):
        states = {rid: RobotState(rng.uniform(-15, 35), rng.uniform(-15, 35), rng.uniform(-7, 7)) for rid in (1, 2)}
        for rid in (1, 2):
            target = scenario.targets[rid]
            rows = rows_of(scenario.bodies, rid)
            named = control(rid, states, target, rows, scenario.params)
            exact = control(rid, states, tuple(target), [tuple(row) for row in rows], tuple(scenario.params))
            assert repr(named) == repr(exact), (rid, states)


def _random_setup(rng):
    p1 = (rng.uniform(-8, 8), rng.uniform(-8, 8))
    p2 = (rng.uniform(-8, 8), rng.uniform(-8, 8))
    if math.hypot(p1[0] - p2[0], p1[1] - p2[1]) < 1e-3:
        p2 = (p1[0] + 3.0, p1[1])
    obstacles = [(rng.uniform(-8, 8), rng.uniform(-8, 8)) for _ in range(rng.randrange(0, 3))]
    rows = rows_of(two_robot_bodies(p1, p2, obstacles), 1)
    state = RobotState(p1[0], p1[1], rng.uniform(-7, 7))
    target = RobotState(rng.uniform(-8, 8), rng.uniform(-8, 8), rng.uniform(-7, 7))
    return rows, {1: state, 2: RobotState(p2[0], p2[1], 0.0)}, target


def test_random_states_bounded_and_total():
    rng = random.Random(20240902)
    for _ in range(3000):
        rows, states, target = _random_setup(rng)
        d = predefined_control(1, states, target, rows, EX1_PARAMS)
        assert abs(d.u.v) <= EX1_PARAMS.m_v + 1e-15
        assert abs(d.u.w) <= EX1_PARAMS.m_w + 1e-15
        assert d.region is not Region.OMEGA1  # a >= 0 for real states
        # pre-saturation clearance inequality
        t = d.terms
        if abs(t.e) >= 1e-9:
            slack = t.b + t.e * d.u_nom.v
            assert slack >= -1e-9
            if d.region in (Region.OMEGA3, Region.OMEGA4) and not d.degenerate:
                assert abs(slack) <= 1e-9 * max(1.0, abs(t.b))


def test_determinism_bit_identical():
    rng = random.Random(99)
    rows, states, target = _random_setup(rng)
    d1 = predefined_control(1, states, target, rows, EX1_PARAMS)
    d2 = predefined_control(1, states, target, rows, EX1_PARAMS)
    assert d1.u == d2.u
    assert d1.u_nom == d2.u_nom
    assert d1.region is d2.region


def _solve_linear(A, rhs):
    """Tiny Gaussian elimination with partial pivoting (independent oracle)."""
    n = len(A)
    M = [row[:] + [rhs[i]] for i, row in enumerate(A)]
    for col in range(n):
        pivot = max(range(col, n), key=lambda r: abs(M[r][col]))
        if abs(M[pivot][col]) < 1e-12:
            return None
        M[col], M[pivot] = M[pivot], M[col]
        for r in range(n):
            if r != col:
                f = M[r][col] / M[col][col]
                for k in range(col, n + 1):
                    M[r][k] -= f * M[col][k]
    return [M[i][n] / M[i][i] for i in range(n)]


def _qp_active_set_oracle(a, b, c, s, e, rho):
    """Enumerate KKT active sets of the relaxed tracking/clearance program.

    minimize 0.5*(v^2 + w^2 + rho*(nv^2 + nw^2))
    s.t.  a + c*(v+nv) + s*(w+nw) <= 0      (multiplier l1 >= 0)
          b + e*v >= 0                       (multiplier l2 >= 0)

    Unknown order: v, w, nv, nw, l1, l2.
    """
    candidates = []
    for clf_active in (False, True):
        for cbf_active in (False, True):
            rows = [
                [1, 0, 0, 0, c, -e],
                [0, 1, 0, 0, s, 0],
                [0, 0, rho, 0, c, 0],
                [0, 0, 0, rho, s, 0],
            ]
            rhs = [0.0, 0.0, 0.0, 0.0]
            if clf_active:
                rows.append([c, s, c, s, 0, 0])
                rhs.append(-a)
            else:
                rows.append([0, 0, 0, 0, 1, 0])
                rhs.append(0.0)
            if cbf_active:
                rows.append([e, 0, 0, 0, 0, 0])
                rhs.append(-b)
            else:
                rows.append([0, 0, 0, 0, 0, 1])
                rhs.append(0.0)
            sol = _solve_linear(rows, rhs)
            if sol is None:
                continue
            v, w, nv, nw, l1, l2 = sol
            if l1 < -1e-9 or l2 < -1e-9:
                continue
            if a + c * (v + nv) + s * (w + nw) > 1e-9:
                continue
            if b + e * v < -1e-9:
                continue
            cost = 0.5 * (v * v + w * w + rho * (nv * nv + nw * nw))
            candidates.append((cost, v, w))
    if not candidates:
        return None
    candidates.sort()
    return candidates[0][1], candidates[0][2]


def test_nominal_matches_qp_active_set_oracle(decide):
    rng = random.Random(20240903)
    checked = 0
    for _ in range(800):
        t = ControllerTerms(
            V=1.0,
            h=1.0,
            a=rng.uniform(0.0, 30.0),
            b=rng.uniform(-30.0, 30.0),
            c=rng.uniform(-6.0, 6.0),
            s=rng.uniform(-6.0, 6.0),
            e=rng.uniform(-8.0, 8.0),
        )
        # keep clear of the branch guards; the oracle assumes clean geometry
        if t.c * t.c + t.s * t.s < 1e-3 or abs(t.e) < 1e-3:
            continue
        region, u, degenerate = nominal(decide(t))
        if degenerate:
            continue
        want = _qp_active_set_oracle(t.a, t.b, t.c, t.s, t.e, 9.0)
        assert want is not None, t
        assert u.v == pytest.approx(want[0], rel=1e-8, abs=1e-8), (t, region)
        assert u.w == pytest.approx(want[1], rel=1e-8, abs=1e-8), (t, region)
        checked += 1
    assert checked > 500


def _reference_region(t, rho):
    """First-match region in the order 1, 2, 3, 4, each test on its own."""
    a, b, c, s, e = t.a, t.b, t.c, t.s, t.e
    cs2 = c * c + s * s
    if a < 0.0 and b > 0.0:
        return Region.OMEGA1
    if a >= 0.0:
        if cs2 < DENOM_EPS:
            if b > 0.0:
                return Region.OMEGA2
        elif b > (rho * e * c * a) / ((rho + 1.0) * cs2):
            return Region.OMEGA2
    if b <= 0.0 and abs(e) >= DENOM_EPS and a < (c * b) / e:
        return Region.OMEGA3
    ratio_ok = abs(e) < DENOM_EPS or a >= (c * b) / e
    bound_ok = cs2 < DENOM_EPS or b <= (rho * e * c * a) / ((rho + 1.0) * cs2)
    if ratio_ok and bound_ok:
        return Region.OMEGA4
    raise RegionError(f"no region matches terms {t}")


def _two_pass_reference(t, rho):
    """The region first, then its branch input with the ratios recomputed:
    the reference for the one-pass branch decision."""
    region = _reference_region(t, rho)
    a, b, c, s, e = t.a, t.b, t.c, t.s, t.e
    if region is Region.OMEGA1:
        return region, ControlInput(0.0, 0.0), False
    if region is Region.OMEGA2:
        cs2 = c * c + s * s
        if cs2 < DENOM_EPS:
            return region, ControlInput(0.0, 0.0), True
        k = -rho / (rho + 1.0) * a / cs2
        return region, ControlInput(k * c, k * s), False
    if region is Region.OMEGA3:
        return region, ControlInput(-b / e, 0.0), False
    denom = (1.0 / rho) * c * c + ((rho + 1.0) / rho) * s * s
    if abs(e) < DENOM_EPS or denom < DENOM_EPS:
        return region, ControlInput(0.0, 0.0), True
    return region, ControlInput(-b / e, (b * c - a * e) / denom * (s / e)), False


def test_one_pass_branch_matches_two_pass_reference_bit_for_bit(decide):
    # special values reach the guards, signed zeros, NaN and the infinities
    special = [0.0, -0.0, 1e-10, -1e-10, 1e-9, 1.0, -1.0, 2.0, -4.0, math.nan, math.inf, -math.inf]
    rng = random.Random(20241018)
    for _ in range(20000):
        t = ControllerTerms(
            1.0, 1.0,
            *(rng.choice(special) if rng.random() < 0.3 else rng.uniform(-10.0, 10.0) for _ in range(5)),
        )
        for rho in (9.0, 0.5):
            outcomes = []
            for law in (lambda t, rho: nominal(decide(t, rho)), _two_pass_reference):
                try:
                    outcomes.append(repr(law(t, rho)))
                except RegionError:
                    outcomes.append("RegionError")
            assert outcomes[0] == outcomes[1], (t, rho)


def test_terms_nonnegative_a():
    rng = random.Random(5)
    for _ in range(500):
        rows, states, target = _random_setup(rng)
        t = controller_terms(1, states, target, rows, EX1_PARAMS)
        assert t.V >= 0.0
        assert t.a >= 0.0
