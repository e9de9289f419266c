"""Approach test and elastic collision resolution for cylinder pairs.

The executor decides whether a pair touches or overlaps, on the pair-table
gap (`hybrid.gap`); this module takes a touching pair from there.  A
contact event changes only headings and linear speeds: positions and
angular velocities are untouched, and the velocity component along the
pair frame's x-axis (tangential) is preserved exactly.  The component
along the y-axis (the line of centers) follows the one-dimensional
momentum/kinetic-energy exchange, optionally damped by the scenario-wide
loss coefficient delta (`params.delta`), with the unbounded-mass case
handled as an exact limit.

Post-collision velocities are reported in canonical form: a nonnegative
speed plus a quadrant-aware global heading.  (Carrying the normal sign on
the speed instead does not recompose to the post-collision velocity
vector; see the repo README for the convention note.)
"""

from __future__ import annotations

import math
from enum import Enum
from typing import NamedTuple

from .frames import LocalFrame, build_local_frame, decompose_velocity

# |gap| <= CONTACT_TOL counts as touching; gap < -CONTACT_TOL is penetration
# and signals an integration fault.
CONTACT_TOL = 1e-9

# Headings whose post-collision change (mod 2*pi) stays below this are
# treated as unchanged: the robot keeps flowing and no redesign is needed.
HEADING_TOL = 1e-9

# Minimum normal closing speed for an approach to register; filters out
# sin() rounding noise when a robot slides exactly along the tangent.
APPROACH_EPS = 1e-12


class ContactStatus(Enum):
    FLOW = "flow"
    JUMP = "jump"


class PenetrationError(RuntimeError):
    """Bodies overlap beyond tolerance; event localization was missed."""


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
    def build(cls, p_i: tuple[float, float], p_j: tuple[float, float], **fields) -> "ContactQuery":
        """The query of `fields` (every field but the centers and the frame),
        with the pair frame built from the two centers."""
        return cls(p_i=p_i, p_j=p_j, frame=build_local_frame(p_i, p_j), **fields)


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
    phi = query.frame.phi
    v_iy = decompose_velocity(query.v_i, query.theta_i - phi)[1]
    v_jy = decompose_velocity(query.v_j, query.theta_j - phi)[1]
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
    phi = query.frame.phi
    mu_i, v_iy = decompose_velocity(query.v_i, query.theta_i - phi)
    mu_j, v_jy = decompose_velocity(query.v_j, query.theta_j - phi)

    lam_i, lam_j = resolve_normal(query.m_i, query.m_j, v_iy, v_jy, delta)

    def outcome(theta: float, v: float, lam: float, mu: float) -> CollisionOutcome:
        theta_plus, v_plus = post_velocity(lam, mu, phi, theta)
        return CollisionOutcome(
            theta_pre=theta,
            v_pre=v,
            theta_plus=theta_plus,
            v_plus=v_plus,
            lam=lam,
            mu=mu,
            redesign_needed=heading_changed(theta, theta_plus),
        )

    outcome_j = outcome(query.theta_j, query.v_j, lam_j, mu_j) if body_j_is_robot else None
    return (outcome(query.theta_i, query.v_i, lam_i, mu_i), outcome_j)
