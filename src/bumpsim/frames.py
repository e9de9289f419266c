"""Pairwise local coordinate frame and global/local conversions.

For a body pair (i, j) the local frame sits at the centroid of i with its
y-axis pointing from i to j; the x-axis is the y-axis rotated clockwise by
pi/2.  phi is the angle from the global x-axis to the local x-axis,
normalized to [0, 2*pi).
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .scenario import RobotState

COINCIDENT_EPS = 1e-12


class CoincidentCentersError(ValueError):
    """Raised when a pair frame is requested for coincident centroids."""


class LocalFrame(NamedTuple):
    ox: float
    oy: float
    phi: float  # in [0, 2*pi)


def build_local_frame(p_i: tuple[float, float], p_j: tuple[float, float]) -> LocalFrame:
    """Construct the pair frame anchored at p_i with +y toward p_j.

    Rotating a unit vector (a, b) clockwise by pi/2 yields (b, -a), so the
    x-axis direction is (uy, -ux) for the y-axis unit (ux, uy).
    """
    dx = p_j[0] - p_i[0]
    dy = p_j[1] - p_i[1]
    dist = math.hypot(dx, dy)
    if dist < COINCIDENT_EPS:
        raise CoincidentCentersError(f"cannot build a pair frame for coincident centers {p_i}")
    uy_x = dx / dist
    uy_y = dy / dist
    phi = math.atan2(-uy_x, uy_y)  # angle of the x-axis direction (uy_y, -uy_x)
    if phi < 0.0:
        phi += math.tau
    return LocalFrame(ox=p_i[0], oy=p_i[1], phi=phi + 0.0)  # +0.0 folds -0.0 into 0.0


def to_local(state: RobotState, frame: LocalFrame) -> RobotState:
    """Express a global pose in the frame; the heading becomes theta - phi."""
    c = math.cos(frame.phi)
    s = math.sin(frame.phi)
    dx = state.x - frame.ox
    dy = state.y - frame.oy
    return RobotState(
        x=c * dx + s * dy,
        y=-s * dx + c * dy,
        theta=state.theta - frame.phi,
    )


def to_global(local: RobotState, frame: LocalFrame) -> RobotState:
    """Exact inverse of to_local."""
    c = math.cos(frame.phi)
    s = math.sin(frame.phi)
    return RobotState(
        x=frame.ox + c * local.x - s * local.y,
        y=frame.oy + s * local.x + c * local.y,
        theta=local.theta + frame.phi,
    )


def decompose_velocity(v: float, theta_bar: float) -> tuple[float, float]:
    """Split a scalar speed along a frame-relative heading into (vx, vy)."""
    return (v * math.cos(theta_bar), v * math.sin(theta_bar))
