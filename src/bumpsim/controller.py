"""Closed-form tracking/clearance controller for the unicycle robots.

The controller blends a quadratic tracking function
V = 0.5*|state - target|^2 with a summed clearance function

    h_i = |p1 - p2|^2 - (r1 + r2)^2 + sum_k (|p_i - p_k|^2 - (r_i + r_k)^2)

over all obstacles k (the robot-robot term is dropped when the scenario has
a single robot).  h and its position gradient fold over the robot's rows of
the executor's pair table (`hybrid.contact_pairs`), in table order.  One
pass computes every scalar term (`controller_terms`), and
`predefined_control`, in its own body, picks the region of the four
closed-form branches, depending on which of the two inequality constraints
is active, computes its nominal input where its test decides and saturates
that input component-wise to the input box.  `ControllerTerms` and
`ControlDecision` are immutable NamedTuples like `scenario.RobotState`.
"""

from __future__ import annotations

import math
from enum import Enum
from typing import Mapping, NamedTuple, Sequence

from .scenario import ControlInput, RobotState, _new

# Below this magnitude a division denominator counts as degenerate: the
# affected region test is decided without the ratio and the affected nominal
# branch returns (0, 0) with the degeneracy flag set.
DENOM_EPS = 1e-9

# The run's constants as the controller reads them: a target pose, pair-table
# rows (i, j, radii sum, fixed position) and the gains (rho, sigma1, sigma2,
# sigma3, m_v, m_w, delta).  `RobotState`, `hybrid.ContactPair` and
# `scenario.ControllerParams` are such tuples; `simulate` hands over exact
# tuples, which unpack faster.
Pose = tuple[float, float, float]
Row = tuple[int, int, float, tuple[float, float] | None]
Gains = tuple[float, float, float, float, float, float, float]


class Region(Enum):
    OMEGA1 = 1
    OMEGA2 = 2
    OMEGA3 = 3
    OMEGA4 = 4


# The members as module names: a global read is cheaper than an Enum lookup.
OMEGA1, OMEGA2, OMEGA3, OMEGA4 = Region


class RegionError(RuntimeError):
    """No region matched; the terms violate the controller's contract."""


class ControllerTerms(NamedTuple):
    """Scalar terms the branch selection and nominal branches consume.

    a = sigma1 * sigma2 * V >= 0 for any real state, b = sigma3 * h, (c, s) is
    the input-direction gradient of V and e the input-direction gradient
    of h (whose angular component is identically zero).
    """

    V: float
    h: float
    a: float
    b: float
    c: float
    s: float
    e: float


class ControlDecision(NamedTuple):
    """Full controller output: saturated input plus diagnostic payload."""

    u: ControlInput
    u_nom: ControlInput
    region: Region
    terms: ControllerTerms
    degenerate: bool


def controller_terms(
    robot_id: int,
    states: Mapping[int, RobotState],
    target: Pose,
    rows: Sequence[Row],
    params: Gains,
) -> ControllerTerms:
    """V, h and the input-direction gradients (c, s, e) in one pass.

    `rows` are the pair-table rows that contain `robot_id`; h and its
    position gradient fold over them in table order.  The other body sits
    at the row's fixed position, or at its state for the robot-robot row.
    V = 0.5 * |state - target|^2, a = sigma1 * sigma2 * V (the gain passes
    negative arguments through unscaled), c = (x - xd)*cos(theta) +
    (y - yd)*sin(theta), s = theta - theta_d and e is the h gradient dotted
    with the heading (h is position-only).
    """
    x, y, theta = states[robot_id]
    _, sigma1, sigma2, sigma3, _, _, _ = params
    h = 0.0
    gx = 0.0
    gy = 0.0
    for i, j, rsum, fixed in rows:
        if fixed is None:
            ox, oy, _ = states[j if i == robot_id else i]
        else:
            ox, oy = fixed
        dx = x - ox
        dy = y - oy
        # libm's pow, not `dx * dx`: the two round apart on some inputs, both
        # example1 goldens pin pow's bits, and only pow raises OverflowError
        # where a square overflows (`** 2.0` skips converting an int exponent)
        h += dx ** 2.0 + dy ** 2.0 - rsum * rsum
        gx += dx
        gy += dy
    # doubling is exact, so doubling the sums gives the bits of summing 2 * dx
    # (a |dx| whose double overflows has already raised on `dx ** 2.0`)
    gx *= 2.0
    gy *= 2.0
    cos_th = math.cos(theta)
    sin_th = math.sin(theta)
    tx, ty, t_theta = target
    dx = x - tx
    dy = y - ty
    s = theta - t_theta
    V = 0.5 * (dx * dx + dy * dy + s * s)
    a = sigma2 * V
    if a >= 0.0:
        a = sigma1 * a
    return _new(
        ControllerTerms, (V, h, a, sigma3 * h, dx * cos_th + dy * sin_th, s, gx * cos_th + gy * sin_th)
    )


def predefined_control(
    robot_id: int,
    states: Mapping[int, RobotState],
    target: Pose,
    rows: Sequence[Row],
    params: Gains,
) -> ControlDecision:
    """Evaluate the full controller at one state snapshot, in one body.

    Clearance terms are evaluated against the robot poses in `states`, i.e.
    a snapshot taken at the integration step boundary, and the robot's
    pair-table `rows`.  The regions are then tested in the order 1, 2, 3,
    4; the four sets share boundary points, so ordered evaluation makes the
    result total and deterministic.  Ratio-based tests fall back to fixed
    outcomes when their denominator is smaller than DENOM_EPS in magnitude:
    region 2 reduces to b > 0, region 3 is skipped, and region 4's ratio
    tests pass.  A branch whose own denominator is that small gives the
    nominal input (0, 0) with the degeneracy flag set instead of raising.
    Finite terms that match no region because a product of the tests
    overflowed raise OverflowError naming the first such product; other
    terms that match no region (NaN) raise RegionError.  The returned input
    is the nominal one clamped component-wise to the input box, signs kept:
    the nominal input itself when it lies inside the box.
    """
    rho, _, _, _, m_v, m_w, _ = params
    terms = controller_terms(robot_id, states, target, rows, params)
    _, _, a, b, c, s, e = terms
    degenerate = False
    if a < 0.0 and b > 0.0:
        region, v, w = OMEGA1, 0.0, 0.0
    else:
        cs2 = c * c + s * s
        flat = cs2 < DENOM_EPS
        # region 2 is b above this bound (above 0 when (c, s) is degenerate)
        bound = 0.0 if flat else (rho * e * c * a) / ((rho + 1.0) * cs2)
        if a >= 0.0 and b > bound:
            region = OMEGA2
            if flat:
                v = w = 0.0
                degenerate = True
            else:
                k = -rho / (rho + 1.0) * a / cs2
                v, w = k * c, k * s
        else:
            e_small = abs(e) < DENOM_EPS
            # NaN when e is degenerate: region 3 fails and region 4 skips the test
            ratio = math.nan if e_small else (c * b) / e
            if b <= 0.0 and a < ratio:
                region, v, w = OMEGA3, -b / e, 0.0
            elif (e_small or a >= ratio) and (flat or b <= bound):
                region = OMEGA4
                denom = (1.0 / rho) * c * c + ((rho + 1.0) / rho) * s * s
                if e_small or denom < DENOM_EPS:
                    v = w = 0.0
                    degenerate = True
                else:
                    v, w = -b / e, (b * c - a * e) / denom * (s / e)
            else:
                if all(map(math.isfinite, terms)):
                    # finite terms match a region, unless a product of the tests overflowed
                    for name, value in (
                        ("c * c + s * s", cs2),
                        ("rho * e * c * a", rho * e * c * a),
                        ("(rho + 1) * (c * c + s * s)", (rho + 1.0) * cs2),
                        ("c * b", c * b),
                    ):
                        if math.isinf(value):
                            raise OverflowError(
                                f"{name} overflows to {value} in the region tests of terms {terms}"
                            )
                raise RegionError(f"no region matches terms {terms}")
    u_nom = _new(ControlInput, (v, w))
    if abs(v) <= m_v and abs(w) <= m_w:
        return _new(ControlDecision, (u_nom, u_nom, region, terms, degenerate))
    if abs(v) > m_v:
        v = math.copysign(m_v, v)
    if abs(w) > m_w:
        w = math.copysign(m_w, w)
    return _new(ControlDecision, (_new(ControlInput, (v, w)), u_nom, region, terms, degenerate))
