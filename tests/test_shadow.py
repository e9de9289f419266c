"""A high-precision shadow of the floors' rounding (tests-only).

`FLOOR_SLACK`'s derivation rests on a computed gap lying within
5 eps (gap + 2 R) of the exact gap of its float inputs, where eps =
ulp(1) / 2 and R is the pair's radii sum.  `REGION_SLACK`'s rests on a
region floor (h_lo, grad_hi) lying below the robot's exact clearance h and
above its exact |grad h|, and below the computed h and above the computed
|e| that the controller's fold would give, while h_lo > 0.  The shadow redoes each value from the same floats in
`decimal` at 80 digits, whose differences, squares and square root round at
1e-79 relative, far below eps, and asserts that the observed value over the
claimed bound is at most 1, on the golden runs, on a run far from the
origin, where a step's rounding outgrows its speed bound, and on seeded
draws.  Each test prints its worst ratio (`pytest -s` shows it), so that a
change re-deriving a slack sees how much of the claim real computations
use.
"""

import decimal
import json
import math
import random
from decimal import Decimal

import pytest

from bumpsim import hybrid
from bumpsim.controller import ControlDecision, Region, controller_terms
from bumpsim.hybrid import SAMPLE, SAMPLE_WIDTH, ContactPair, SimMode, contact_pairs, gap, region_floor, simulate
from bumpsim.scenario import load_scenario
from conftest import GOLDEN_CASES, GOLDEN_IDS, golden_scenario

EXACT = decimal.Context(prec=80)
CLAIM = Decimal(5.0 * math.ulp(1.0) / 2.0)


def gap_error_ratio(pair, states):
    """|`gap(pair, states)` - exact gap| over the claimed 5 eps (gap + 2 R)."""
    i, j, rsum, fixed = pair
    xi, yi, _ = states[i]
    xj, yj = states[j][:2] if fixed is None else fixed
    with decimal.localcontext(EXACT):
        dx = Decimal(xj) - Decimal(xi)
        dy = Decimal(yj) - Decimal(yi)
        distance = (dx * dx + dy * dy).sqrt()
        exact = distance - Decimal(rsum)
        # exact gap + 2 R is the distance plus R, which is positive
        return abs(Decimal(gap(pair, states)) - exact) / (CLAIM * (distance + Decimal(rsum)))


def test_gap_error_on_the_golden_poses(golden_run):
    (name, mode), trace = golden_run
    ids = trace.scenario.robot_ids()
    pairs = contact_pairs(trace.scenario)
    poses = [(x, y, theta) for _, x, y, theta, _, _, _ in SAMPLE.iter_unpack(trace.samples)]
    worst = Decimal(0)
    for k in range(0, len(poses), len(ids)):
        states = dict(zip(ids, poses[k : k + len(ids)]))
        worst = max(worst, *(gap_error_ratio(pair, states) for pair in pairs))
    print(f"{name}-{mode.value}: worst gap error {float(worst):.3f} of the claim over {len(poses)} poses")
    assert worst <= 1


def test_gap_error_on_seeded_draws():
    # coordinate scales 1 to 1e149, log-uniform; every other draw puts the
    # centres within 1e-6 relative of touching, where the subtraction of the
    # radii sum cancels most digits
    rng = random.Random(20261020)
    worst = Decimal(0)
    for n in range(20_000):
        scale = 10.0 ** rng.uniform(0.0, 149.0)
        rsum = rng.uniform(0.0, scale) + rng.uniform(0.0, scale) or scale
        xi, yi = rng.uniform(-scale, scale), rng.uniform(-scale, scale)
        if n % 2:
            angle = rng.uniform(0.0, math.tau)
            distance = rsum * (1.0 + rng.uniform(-1e-6, 1e-6))
            xj, yj = xi + distance * math.cos(angle), yi + distance * math.sin(angle)
        else:
            xj, yj = rng.uniform(-scale, scale), rng.uniform(-scale, scale)
        states = {1: (xi, yi, 0.0), 2: (xj, yj, 0.0)}
        worst = max(worst, gap_error_ratio(ContactPair(1, 2, rsum, None), states))
    print(f"seeded draws: worst gap error {float(worst):.3f} of the claim over 20000 draws")
    assert worst <= 1


# --- region floors -------------------------------------------------------------


def exact_clearance(robot_id, states, rows):
    """The exact h and |grad h| of the robot at `states` over its `rows`."""
    x, y, _ = states[robot_id]
    with decimal.localcontext(EXACT):
        h = gx = gy = Decimal(0)
        for i, j, rsum, fixed in rows:
            ox, oy = states[j if i == robot_id else i][:2] if fixed is None else fixed
            dx, dy = Decimal(x) - Decimal(ox), Decimal(y) - Decimal(oy)
            h += dx * dx + dy * dy - Decimal(rsum) * Decimal(rsum)
            gx += dx
            gy += dy
        return h, 2 * (gx * gx + gy * gy).sqrt()


def floor_ratios(robot_id, states, target, rows, params, floor):
    """h_lo over the exact h and over the fold's computed h, and the exact
    |grad h| and the computed |e| over grad_hi: each at most 1 where the
    floor holds (h_lo > 0, so h is positive there)."""
    h_lo, grad_hi = floor
    h, grad = exact_clearance(robot_id, states, rows)
    _, h_fold, _, _, _, _, e = controller_terms(robot_id, states, target, rows, params)
    return (
        max(Decimal(h_lo) / h, Decimal(h_lo / h_fold)),
        max(grad, Decimal(abs(e))) / Decimal(grad_hi),
    )


def shown(worst):
    """The worst two ratios as their headroom below 1: the first falls to
    a relative rounding slack at an anchor, and the drift bound's looseness
    later; the second to how far the gradient's bound overshoots."""
    h_ratio, grad_ratio = (float(1 - r) for r in worst)
    return f"worst h_lo / h = 1 - {h_ratio:.3g}, worst |grad h| / grad_hi = 1 - {grad_ratio:.3g}"


def run_floor_ratios(scenario, mode, monkeypatch):
    """The worst `floor_ratios` over a run's calls that the executor hands
    a floor with h_lo > 0, certified or not (a lower one certifies
    nothing), the number of those calls and the run's trace."""
    real = hybrid.predefined_control
    worst = [Decimal(0), Decimal(0)]
    floored = 0

    def measured(robot_id, states, target, rows, params, floor):
        nonlocal floored
        if floor is not None and floor[0] > 0.0:
            floored += 1
            ratios = floor_ratios(robot_id, states, target, rows, params, floor)
            worst[:] = map(max, worst, ratios)
        return real(robot_id, states, target, rows, params, floor)

    monkeypatch.setattr(hybrid, "predefined_control", measured)
    trace = simulate(scenario, mode)
    return worst, floored, trace


@pytest.mark.parametrize("name, mode", GOLDEN_CASES, ids=GOLDEN_IDS)
def test_region_floor_margin_on_the_golden_runs(name, mode, monkeypatch):
    worst, floored, _ = run_floor_ratios(golden_scenario(name), mode, monkeypatch)
    print(f"{name}-{mode.value}: {shown(worst)} over {floored} floored calls")
    assert worst[0] <= 1 and worst[1] <= 1


def test_region_floor_margin_far_from_the_origin(monkeypatch):
    # A robot 2^30 m out drives at 0.6 ulp per step of its x towards its
    # target, past an obstacle: each step rounds to a whole ulp, 1.67 times
    # the speed bound, which only the floor's rounding term (FLOOR_SLACK
    # times the coordinate sum) covers.
    x = 2.0**30
    step = math.ulp(x)
    scenario = load_scenario(json.dumps({
        "workspace": {"x_min": x - 10.0, "x_max": x + 10.0, "y_min": -10.0, "y_max": 10.0},
        "bodies": [
            {"id": 1, "kind": "robot", "radius": 0.3, "mass": 1.0, "x": x, "y": 0.0, "theta": 0.0},
            {"id": 3, "kind": "obstacle", "radius": 0.2, "mass": "unbounded", "x": x + 1.0, "y": 0.6},
        ],
        "targets": {"1": {"x": x + 1.2, "y": 0.0, "theta": 0.0}},
        "params": {"rho": 9, "sigma1": 1.25, "sigma2": 0.6, "sigma3": 1.2, "mv": 0.6 * step / 1e-3, "mw": 1.0},
        "sim": {"dt": 1e-3, "t_max": 0.5},
    }))
    worst, floored, trace = run_floor_ratios(scenario, SimMode.PREDEFINED_ONLY, monkeypatch)
    _, x_end, *_ = trace.samples[-SAMPLE_WIDTH:]
    print(f"far from the origin: {shown(worst)} over {floored} floored calls")
    assert x_end == x + 500 * step and floored > 400
    assert worst[0] <= 1 and worst[1] <= 1


def anchored_draw(rng):
    """A robot and 1 to 6 obstacles clustered in one direction, at
    coordinate scales 1 to 1e6: its rows, its pose, an anchor there by
    `region_floor` (gains with sigma3 = 1, nominal speed 0) whose drift
    bound is m per step, the direction (ux, uy) towards the cluster, and
    the steps j where the floor still holds h_lo > 0."""
    scale = 10.0 ** rng.uniform(0.0, 6.0)
    x, y = rng.uniform(-scale, scale), rng.uniform(-scale, scale)
    heading = rng.uniform(0.0, math.tau)
    ux, uy = math.cos(heading), math.sin(heading)
    rows = []
    for k in range(rng.randint(1, 6)):
        distance = scale * rng.uniform(0.5, 2.0)
        angle = heading + rng.uniform(-0.05, 0.05)
        fixed = (x + distance * math.cos(angle), y + distance * math.sin(angle))
        rows.append((1, k + 3, distance * rng.uniform(0.0, 0.95), fixed))
    m = scale * 10.0 ** rng.uniform(-6.0, -2.0)
    params = (9.0, 1.25, 0.6, 1.0, 5.0, 5.0, 0.0)
    terms = controller_terms(1, {1: (x, y, 0.0)}, (x, y, 0.0), rows, params)
    decision = ControlDecision((0.0, 0.0), (0.0, 0.0), Region.OMEGA2, terms, False)
    consts = (len(rows), sum(rsum * rsum for _, _, rsum, _ in rows), m, 1.0)
    anchor = region_floor(0, decision, consts, {1: (x, y, 0.0)})
    _, h_top, h_drop, _, _ = anchor
    last = int(h_top / h_drop)
    steps = sorted({0, 1, 2, 10, last // 2, max(last - 1, 0), rng.randint(0, last)})
    return rows, (x, y), m, (ux, uy), anchor, steps, params


def worst_anchor_ratios(draws):
    """The worst `floor_ratios` over seeded anchors, each moved straight at
    its cluster by the full drift bound m per step: every row distance then
    falls at nearly that rate, h at nearly 2 m sum d, and sum d, the bound
    on |grad h| / 2, is largest where the obstacles cluster."""
    rng = random.Random(20261021)
    worst = [Decimal(0), Decimal(0)]
    for _ in range(draws):
        rows, (x, y), m, (ux, uy), anchor, steps, params = anchored_draw(rng)
        _, h_top, h_drop, g_top, g_rise = anchor
        for j in steps:
            h_lo = h_top - h_drop * j
            if not h_lo > 0.0:
                continue
            px, py = x + j * m * ux, y + j * m * uy
            # the heading along the computed gradient makes |e| its largest
            _, _, _, _, _, _, e_x = controller_terms(1, {1: (px, py, 0.0)}, (px, py, 0.0), rows, params)
            _, _, _, _, _, _, e_y = controller_terms(1, {1: (px, py, math.pi / 2)}, (px, py, 0.0), rows, params)
            pose = (px, py, math.atan2(e_y, e_x))
            ratios = floor_ratios(1, {1: pose}, pose, rows, params, (h_lo, g_top + g_rise * j))
            worst[:] = map(max, worst, ratios)
    return worst


def test_region_floor_margin_on_seeded_anchors():
    worst = worst_anchor_ratios(3000)
    print(f"seeded anchors: {shown(worst)}")
    assert worst[0] <= 1 and worst[1] <= 1


def test_a_slackless_region_floor_fails_the_seeded_anchors(monkeypatch):
    # with no slack the floor at its anchor claims the fold's own h, which
    # lies above the exact h in about half the draws
    monkeypatch.setattr(hybrid, "REGION_SLACK", 0.0)
    assert max(worst_anchor_ratios(300)) > 1
