"""Post-collision control redesign: escape heading, impulse, local phase.

After a collision at position p_ic against body j, the robot's heading is
reset (by an instantaneous impulse) onto the tangent line of the contact
circle of radius r_i + r_j around p_j, choosing the tangent ray closer in
angle to the segment from p_ic to the robot's target position.  A
constant-heading local controller (v_loc, 0) then runs for the local
phase's duration t_dur = escape distance / v_loc.  At expiry the executor
applies its one reactivation rule (`hybrid.reactivation_due`): normal
control resumes when the robot has a strictly positive gap to every other
body; otherwise the phase is extended by t_dur / 10, up to 10x t_dur.
"""

from __future__ import annotations

import math
from typing import NamedTuple

ON_CIRCLE_TOL = 1e-6
VERTICAL_EPS = 1e-9
HEADING_TIE_TOL = 1e-9

# The local phase may be extended past its nominal duration in steps of a
# tenth of the base duration, up to this multiple, when clearance has not
# been regained at expiry.
MAX_EXTENSION_FACTOR = 10.0


class GeometryError(ValueError):
    """The collision position does not sit on the contact circle."""


class DegenerateTargetError(ValueError):
    """The target position coincides with the collision position."""


class NonSeparableError(RuntimeError):
    """The local phase ran out of extensions without regaining clearance."""


class TangentRays(NamedTuple):
    """The two rays the tangent line splits into at the collision position.

    kappa is the tangent slope, or None for a vertical tangent.  Both rays
    start at p_ic with opposite unit directions: dir1 covers x <= x_ic
    (y <= y_ic when vertical), dir2 the other half.
    """

    p_ic: tuple[float, float]
    kappa: float | None
    dir1: tuple[float, float]
    dir2: tuple[float, float]


class LocalPhase:
    """State of one robot's constant-heading escape segment.

    elapsed is advanced by the executor; extension grows in increments of
    t_dur / 10 when clearance is still missing at expiry.
    """

    __slots__ = ("collided_id", "v_loc", "t_dur", "elapsed", "extension")

    def __init__(
        self, collided_id: int, v_loc: float, t_dur: float, elapsed: float = 0.0, extension: float = 0.0
    ) -> None:
        if not v_loc > 0.0:
            raise ValueError(f"local speed must be positive, got {v_loc}")
        if not t_dur > 0.0:
            raise ValueError(f"local duration must be positive, got {t_dur}")
        self.collided_id = collided_id
        self.v_loc = v_loc
        self.t_dur = t_dur
        self.elapsed = elapsed
        self.extension = extension

    def expired(self) -> bool:
        return self.elapsed >= self.t_dur + self.extension - 1e-12

    def extend(self) -> None:
        """Grant one extension increment; raises when the cap is exhausted."""
        new_extension = self.extension + self.t_dur / 10.0
        if self.t_dur + new_extension > MAX_EXTENSION_FACTOR * self.t_dur + 1e-12:
            raise NonSeparableError(
                f"robot could not regain clearance from body {self.collided_id} "
                f"within {MAX_EXTENSION_FACTOR:g}x the local phase duration"
            )
        self.extension = new_extension


def tangent_rays(
    p_j: tuple[float, float],
    p_ic: tuple[float, float],
    contact_radius: float,
) -> TangentRays:
    """Tangent line of the contact circle around p_j, split at p_ic.

    p_ic must lie on the circle of radius contact_radius (= r_i + r_j)
    within ON_CIRCLE_TOL.  For a non-vertical tangent the slope is
    kappa = -(x_j - x_ic) / (y_j - y_ic).
    """
    dx = p_j[0] - p_ic[0]
    dy = p_j[1] - p_ic[1]
    dist = math.hypot(dx, dy)
    if abs(dist - contact_radius) > ON_CIRCLE_TOL:
        raise GeometryError(
            f"collision position {p_ic} is {dist:.6g} m from the body center, "
            f"expected the contact radius {contact_radius:.6g}"
        )
    if abs(dy) < VERTICAL_EPS:
        return TangentRays(p_ic=p_ic, kappa=None, dir1=(0.0, -1.0), dir2=(0.0, 1.0))
    kappa = -dx / dy
    norm = math.hypot(1.0, kappa)
    # +0.0 folds IEEE negative zeros so the ray angles are well defined
    return TangentRays(
        p_ic=p_ic,
        kappa=kappa,
        dir1=(-1.0 / norm, -kappa / norm + 0.0),
        dir2=(1.0 / norm, kappa / norm + 0.0),
    )


def _angle_between(u: tuple[float, float], v: tuple[float, float]) -> float:
    dot = u[0] * v[0] + u[1] * v[1]
    return math.acos(max(-1.0, min(1.0, dot)))


def select_escape_heading(rays: TangentRays, p_target: tuple[float, float]) -> tuple[float, float]:
    """Pick the tangent ray closer in angle to the segment p_ic -> target.

    Returns (theta_escape, phi_sel) where phi_sel = min of the two angles
    and theta_escape is the planar angle of the chosen ray's direction.
    Ties go to the first ray.
    """
    sx = p_target[0] - rays.p_ic[0]
    sy = p_target[1] - rays.p_ic[1]
    seg_norm = math.hypot(sx, sy)
    if seg_norm < 1e-12:
        raise DegenerateTargetError("target position coincides with the collision position")
    seg = (sx / seg_norm, sy / seg_norm)
    phi_b = _angle_between(seg, rays.dir1)
    phi_p = _angle_between(seg, rays.dir2)
    chosen = rays.dir1 if phi_b <= phi_p + HEADING_TIE_TOL else rays.dir2
    return (math.atan2(chosen[1], chosen[0]), min(phi_b, phi_p))


def deconflict_headings(
    theta_1: float,
    theta_2: float,
    phi_1: float,
    phi_2: float,
) -> tuple[float, float]:
    """Force two robot escape headings apart when they coincide mod 2*pi.

    Flipping a robot onto the opposite ray costs pi - phi for that robot;
    the flip minimizing the summed angles is applied, ties flipping
    robot 2.
    """
    diff = (theta_1 - theta_2) % math.tau
    if min(diff, math.tau - diff) > HEADING_TIE_TOL:
        return (theta_1, theta_2)
    cost_flip_1 = (math.pi - phi_1) + phi_2
    cost_flip_2 = phi_1 + (math.pi - phi_2)
    if cost_flip_1 < cost_flip_2:
        return (theta_1 + math.pi, theta_2)
    return (theta_1, theta_2 + math.pi)


def impulse(theta_escape: float, theta_plus: float) -> float:
    """Heading increment that retargets the robot; positions are untouched.

    The difference is raw (no 2*pi wrapping): headings live on the real
    line.
    """
    return theta_escape - theta_plus


def local_control(phase: LocalPhase) -> tuple[float, float]:
    """Constant escape input (v_loc, 0) as an exact tuple; zero spin keeps
    the heading pinned."""
    return (phase.v_loc, 0.0)


def escape_distance(other_is_robot: bool, r_other: float) -> float:
    """Distance the local phase covers from p_ic in its nominal duration.

    Half the other robot's radius for robot-robot contacts (both parties
    move away), the full radius for robot-obstacle contacts.
    """
    return 0.5 * r_other if other_is_robot else r_other


def local_duration(v_loc: float, other_is_robot: bool, r_other: float) -> float:
    """Duration of the constant-speed local phase: escape distance / speed."""
    if not v_loc > 0.0:
        raise ValueError(f"local speed must be positive, got {v_loc}")
    return escape_distance(other_is_robot, r_other) / v_loc
