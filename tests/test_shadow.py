"""A high-precision shadow of `hybrid.gap`'s rounding (tests-only).

`FLOOR_SLACK`'s derivation rests on a computed gap lying within
5 eps (gap + 2 R) of the exact gap of its float inputs, where eps =
ulp(1) / 2 and R is the pair's radii sum.  The shadow redoes each gap from
the same floats in `decimal` at 80 digits, whose differences, squares and
square root round at 1e-79 relative, far below eps, and asserts that the
observed error over the claimed bound is at most 1.  Each test prints its
worst ratio (`pytest -s` shows it), so that a change re-deriving the slack
sees how much of the claim real computations use.
"""

import decimal
import math
import random
from decimal import Decimal

from bumpsim.hybrid import SAMPLE, ContactPair, contact_pairs, gap

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
    pairs = contact_pairs(trace.scenario.bodies)
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
