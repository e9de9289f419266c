"""Pair frame, approach test and elastic collision resolution for cylinder pairs.

A pair (i, j)'s local frame sits at i's centre, its y-axis toward j's
centre and its x-axis the y-axis turned clockwise by pi/2, at the angle
phi in [0, 2*pi) from the global x-axis.  The executor decides whether a
pair touches or overlaps, on the pair-table gap (`hybrid.gap`); this
module takes a touching pair from there.  A contact event changes only
headings and linear speeds: positions and angular velocities are
untouched, and the velocity component along the pair frame's x-axis
(tangential) is preserved exactly.  The component along the y-axis (the
line of centers) follows the one-dimensional momentum/kinetic-energy
exchange, optionally damped by the scenario-wide loss coefficient delta
(`params.delta`), with the unbounded-mass case handled as an exact limit.

Post-collision velocities are reported in canonical form: a nonnegative
speed plus a quadrant-aware global heading.  (Carrying the normal sign on
the speed instead does not recompose to the post-collision velocity
vector; see the repo README for the convention note.)
"""

from __future__ import annotations

import math
from enum import Enum
from typing import NamedTuple

from .scenario import _new

# |gap| <= CONTACT_TOL counts as touching; gap < -CONTACT_TOL is penetration
# and signals an integration fault.
CONTACT_TOL = 1e-9

# Headings whose post-collision change (mod 2*pi) stays below this are
# treated as unchanged: the robot keeps flowing and no redesign is needed.
HEADING_TOL = 1e-9

# Minimum normal closing speed for an approach to register; filters out
# sin() rounding noise when a robot slides exactly along the tangent.
APPROACH_EPS = 1e-12

# Centres closer than this have no pair frame (CoincidentCentersError).
COINCIDENT_EPS = 1e-12


class ContactStatus(Enum):
    FLOW = "flow"
    JUMP = "jump"


class PenetrationError(RuntimeError):
    """Bodies overlap beyond tolerance; event localization was missed."""


class CoincidentCentersError(ValueError):
    """Raised when a pair frame is requested for coincident centroids; the
    message names both centres and their distance."""


class LocalFrame(NamedTuple):
    ox: float
    oy: float
    phi: float  # in [0, 2*pi)


def build_local_frame(p_i: tuple[float, float], p_j: tuple[float, float]) -> LocalFrame:
    """Construct the pair frame anchored at p_i with +y toward p_j.

    Rotating a unit vector (a, b) clockwise by pi/2 yields (b, -a), so the
    x-axis direction is (uy, -ux) for the y-axis unit (ux, uy).
    """
    ox, oy = p_i
    xj, yj = p_j
    dx = xj - ox
    dy = yj - oy
    dist = math.hypot(dx, dy)
    if dist < COINCIDENT_EPS:
        raise CoincidentCentersError(
            f"cannot build a pair frame for coincident centers {p_i} and {p_j} (distance {dist:.3e} m)"
        )
    uy_x = dx / dist
    uy_y = dy / dist
    phi = math.atan2(-uy_x, uy_y)  # angle of the x-axis direction (uy_y, -uy_x)
    if phi < 0.0:
        phi += math.tau
    return _new(LocalFrame, (ox, oy, phi + 0.0))  # +0.0 folds -0.0 into 0.0


def decompose_velocity(v: float, theta_bar: float) -> tuple[float, float]:
    """Split a scalar speed along a frame-relative heading into (vx, vy)."""
    return (v * math.cos(theta_bar), v * math.sin(theta_bar))


class ContactQuery(NamedTuple):
    """Snapshot of a body pair at a candidate contact instant.

    Body i is always a robot; body j may be the other robot or a static
    obstacle (static bodies carry v = w = theta = 0).  Speeds are the
    currently commanded linear velocities.
    """

    i_id: int
    j_id: int
    p_i: tuple[float, float]
    p_j: tuple[float, float]
    r_i: float
    r_j: float
    m_i: float
    m_j: float  # may be math.inf
    v_i: float
    v_j: float
    theta_i: float
    theta_j: float
    frame: LocalFrame

    @classmethod
    def build(
        cls, p_i: tuple[float, float], p_j: tuple[float, float], *, i_id: int, j_id: int, r_i: float,
        r_j: float, m_i: float, m_j: float, v_i: float, v_j: float, theta_i: float, theta_j: float,
    ) -> "ContactQuery":
        """The query of the two centers and the other fields by keyword, with
        the pair frame built from the two centers."""
        frame = build_local_frame(p_i, p_j)
        return _new(cls, (i_id, j_id, p_i, p_j, r_i, r_j, m_i, m_j, v_i, v_j, theta_i, theta_j, frame))


class CollisionOutcome(NamedTuple):
    """Post-collision motion of one robot.

    lam and mu are the local velocity components along the pair frame's
    y- and x-axis after the exchange; v_plus = hypot(lam, mu) >= 0 and
    theta_plus recomposes them exactly:
    v_plus * (cos(theta_plus - phi), sin(theta_plus - phi)) = (mu, lam).
    """

    theta_pre: float
    v_pre: float
    theta_plus: float
    v_plus: float
    lam: float
    mu: float
    redesign_needed: bool


def check_collision(query: ContactQuery) -> ContactStatus:
    """Decide whether a touching pair flows or jumps at this instant.

    Precondition: the caller has found the pair touching (|gap| <=
    CONTACT_TOL).  The pair jumps on a strict normal approach; pairs that
    drift apart or slide flow on.
    """
    # components along the line of centers
    _, _, _, _, _, _, _, _, v_i, v_j, theta_i, theta_j, (_, _, phi) = query
    v_iy = decompose_velocity(v_i, theta_i - phi)[1]
    v_jy = decompose_velocity(v_j, theta_j - phi)[1]
    if v_iy - v_jy > APPROACH_EPS:
        return ContactStatus.JUMP
    return ContactStatus.FLOW


def resolve_normal(
    m_i: float,
    m_j: float,
    v_iy: float,
    v_jy: float,
    delta: float = 0.0,
) -> tuple[float, float]:
    """One-dimensional exchange of the normal velocity components.

    For finite masses this is the standard elastic pair exchange; an
    unbounded m_j uses the exact immovable limit (reflection about the
    other body's velocity) and keeps v_jy.  delta scales each outgoing
    component by (1 - delta) to model per-collision energy loss; only a
    robot's outcome is used, so an obstacle j's scaled component is
    never read.
    """
    if math.isinf(m_i):
        raise ValueError("body i must have finite mass (robots are never unbounded)")
    if math.isinf(m_j):
        v_iy_plus = (1.0 - delta) * (-v_iy + 2.0 * v_jy)
        return (v_iy_plus, v_jy)
    total = m_i + m_j
    v_iy_plus = (1.0 - delta) * (((m_i - m_j) / total) * v_iy + (2.0 * m_j / total) * v_jy)
    v_jy_plus = (1.0 - delta) * (((m_j - m_i) / total) * v_jy + (2.0 * m_i / total) * v_iy)
    return (v_iy_plus, v_jy_plus)


def post_velocity(lam: float, mu: float, phi: float, theta_prev: float) -> tuple[float, float]:
    """Recompose local components (mu along x, lam along y) into (theta+, v+).

    The speed is nonnegative and the heading carries the full direction;
    when both components vanish the speed is zero and the previous heading
    is retained.
    """
    v_plus = math.hypot(lam, mu)
    if v_plus == 0.0:
        return (theta_prev, 0.0)
    return (phi + math.atan2(lam, mu), v_plus)


def heading_changed(theta_pre: float, theta_plus: float) -> bool:
    """True when the two headings differ by more than HEADING_TOL modulo 2*pi."""
    diff = (theta_plus - theta_pre) % math.tau
    return min(diff, math.tau - diff) > HEADING_TOL


def resolve_collision(
    query: ContactQuery,
    delta: float = 0.0,
    body_j_is_robot: bool = False,
) -> tuple[CollisionOutcome, CollisionOutcome | None]:
    """Resolve a contact for robot i (and for j when j is also a robot).

    Tangential components are carried over unchanged; positions and
    angular velocities never change.  A static unbounded body j stays at
    zero velocity and no outcome is produced for it unless it is a robot.
    """
    _, _, _, _, _, _, m_i, m_j, v_i, v_j, theta_i, theta_j, (_, _, phi) = query
    mu_i, v_iy = decompose_velocity(v_i, theta_i - phi)
    mu_j, v_jy = decompose_velocity(v_j, theta_j - phi)

    lam_i, lam_j = resolve_normal(m_i, m_j, v_iy, v_jy, delta)

    # each outcome in field order: theta_pre, v_pre, theta_plus, v_plus, lam, mu, redesign_needed
    theta_plus, v_plus = post_velocity(lam_i, mu_i, phi, theta_i)
    out_i = (theta_i, v_i, theta_plus, v_plus, lam_i, mu_i, heading_changed(theta_i, theta_plus))
    if not body_j_is_robot:
        return (_new(CollisionOutcome, out_i), None)
    theta_plus, v_plus = post_velocity(lam_j, mu_j, phi, theta_j)
    out_j = (theta_j, v_j, theta_plus, v_plus, lam_j, mu_j, heading_changed(theta_j, theta_plus))
    return (_new(CollisionOutcome, out_i), _new(CollisionOutcome, out_j))
