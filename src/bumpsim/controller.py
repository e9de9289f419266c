"""Closed-form tracking/clearance controller for the unicycle robots.

The controller blends a quadratic tracking function
V = 0.5*|state - target|^2 with a summed clearance function

    h_i = |p1 - p2|^2 - (r1 + r2)^2 + sum_k (|p_i - p_k|^2 - (r_i + r_k)^2)

over all obstacles k (the robot-robot term is dropped when the scenario has
a single robot).  h and its position gradient fold over the robot's rows of
the executor's pair table (`hybrid.contact_pairs`), in table order.  The
nominal input is picked from one of four closed-form branches depending on
which of the two inequality constraints is active, then saturated
component-wise to the input box.  `ControllerTerms` and `ControlDecision`
are immutable NamedTuples like `scenario.RobotState`.
"""

from __future__ import annotations

import math
from enum import Enum
from typing import TYPE_CHECKING, Mapping, NamedTuple, Sequence

from .scenario import ControlInput, ControllerParams, RobotState

if TYPE_CHECKING:
    from .hybrid import ContactPair

# Below this magnitude a division denominator counts as degenerate: the
# affected region test is decided without the ratio and the affected nominal
# branch returns (0, 0) with the degeneracy flag set.
DENOM_EPS = 1e-9


class Region(Enum):
    OMEGA1 = 1
    OMEGA2 = 2
    OMEGA3 = 3
    OMEGA4 = 4


class RegionError(RuntimeError):
    """No region matched; the terms violate the controller's contract."""


class ControllerTerms(NamedTuple):
    """Scalar terms the branch selection and nominal branches consume.

    a = gain(sigma2 * V) >= 0 for any real state, b = sigma3 * h, (c, s) is
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


def clf_value(state: RobotState, target: RobotState) -> float:
    """0.5 * squared distance in (x, y, theta); zero iff state == target."""
    dx = state.x - target.x
    dy = state.y - target.y
    dth = state.theta - target.theta
    return 0.5 * (dx * dx + dy * dy + dth * dth)


def gain(x: float, sigma1: float) -> float:
    """Piecewise gain: sigma1 * x for x >= 0 (sigma1 >= 1), identity below."""
    return sigma1 * x if x >= 0.0 else x


def controller_terms(
    robot_id: int,
    states: Mapping[int, RobotState],
    target: RobotState,
    rows: Sequence[ContactPair],
    params: ControllerParams,
) -> ControllerTerms:
    """V, h and the input-direction gradients (c, s, e) in one pass.

    `rows` are the pair-table rows that contain `robot_id`; h and its
    position gradient fold over them in table order.  The other body sits
    at the row's fixed position, or at its state for the robot-robot row.
    c = (x - xd)*cos(theta) + (y - yd)*sin(theta), s = theta - theta_d and
    e is the h gradient dotted with the heading (h is position-only).
    """
    state = states[robot_id]
    x, y, theta = state
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
        h += dx ** 2 + dy ** 2 - rsum * rsum
        gx += 2.0 * dx
        gy += 2.0 * dy
    cos_th = math.cos(theta)
    sin_th = math.sin(theta)
    V = clf_value(state, target)
    return ControllerTerms(
        V,
        h,
        gain(params.sigma2 * V, params.sigma1),
        params.sigma3 * h,
        (x - target.x) * cos_th + (y - target.y) * sin_th,
        theta - target.theta,
        gx * cos_th + gy * sin_th,
    )


def classify_region(terms: ControllerTerms, rho: float) -> Region:
    """First-match region classification in the order 1, 2, 3, 4.

    The four sets share boundary points, so ordered evaluation makes the
    result total and deterministic.  Ratio-based tests fall back to fixed
    outcomes when their denominator is degenerate: region 2 reduces to
    b > 0, region 3 is skipped, and region 4's ratio tests pass.
    """
    a, b, c, s, e = terms.a, terms.b, terms.c, terms.s, terms.e
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
    raise RegionError(f"no region matches terms {terms}")


def nominal_control(terms: ControllerTerms, region: Region, rho: float) -> tuple[ControlInput, bool]:
    """Closed-form nominal input for the matched region, before saturation.

    Returns (input, degenerate): when a branch denominator is smaller than
    DENOM_EPS in magnitude the branch value is replaced by (0, 0) and the
    flag is set instead of raising.
    """
    a, b, c, s, e = terms.a, terms.b, terms.c, terms.s, terms.e

    if region is Region.OMEGA1:
        return ControlInput(0.0, 0.0), False

    if region is Region.OMEGA2:
        cs2 = c * c + s * s
        if cs2 < DENOM_EPS:
            return ControlInput(0.0, 0.0), True
        k = -rho / (rho + 1.0) * a / cs2
        return ControlInput(k * c, k * s), False

    if region is Region.OMEGA3:
        if abs(e) < DENOM_EPS:
            return ControlInput(0.0, 0.0), True
        return ControlInput(-b / e, 0.0), False

    # region 4
    denom = (1.0 / rho) * c * c + ((rho + 1.0) / rho) * s * s
    if abs(e) < DENOM_EPS or denom < DENOM_EPS:
        return ControlInput(0.0, 0.0), True
    v = -b / e
    w = (b * c - a * e) / denom * (s / e)
    return ControlInput(v, w), False


def saturate(u: ControlInput, m_v: float, m_w: float) -> ControlInput:
    """Component-wise clamp to the input box, preserving signs."""
    v = u.v
    w = u.w
    if abs(v) > m_v:
        v = math.copysign(m_v, v)
    if abs(w) > m_w:
        w = math.copysign(m_w, w)
    return ControlInput(v, w)


def predefined_control(
    robot_id: int,
    states: Mapping[int, RobotState],
    target: RobotState,
    rows: Sequence[ContactPair],
    params: ControllerParams,
) -> ControlDecision:
    """Evaluate the full controller pipeline at one state snapshot.

    Clearance terms are evaluated against the robot poses in `states`, i.e.
    a snapshot taken at the integration step boundary, and the robot's
    pair-table `rows`.  The returned input always lies inside the input box.
    """
    terms = controller_terms(robot_id, states, target, rows, params)
    region = classify_region(terms, params.rho)
    u_nom, degenerate = nominal_control(terms, region, params.rho)
    u = saturate(u_nom, params.m_v, params.m_w)
    return ControlDecision(u, u_nom, region, terms, degenerate)
