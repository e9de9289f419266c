"""Pairwise local coordinate frame.

For a body pair (i, j) the local frame sits at the centroid of i with its
y-axis pointing from i to j; the x-axis is the y-axis rotated clockwise by
pi/2.  phi is the angle from the global x-axis to the local x-axis,
normalized to [0, 2*pi).
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .scenario import _new

COINCIDENT_EPS = 1e-12


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
