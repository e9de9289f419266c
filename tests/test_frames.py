import math
import random

import pytest

from bumpsim.collision import (
    CoincidentCentersError,
    build_local_frame,
    decompose_velocity,
)


def axes(f):
    """The frame's unit x- and y-axis directions: the y-axis is the x-axis
    rotated counter-clockwise by pi/2."""
    return (math.cos(f.phi), math.sin(f.phi)), (-math.sin(f.phi), math.cos(f.phi))


def test_frame_aligned_with_global():
    f = build_local_frame((0.0, 0.0), (0.0, 2.0))
    assert f.phi == 0.0
    assert (f.ox, f.oy) == (0.0, 0.0)


def test_frame_pair_along_x():
    # y-axis points +x, so the frame x-axis points -y: phi = 1.5*pi
    f = build_local_frame((0.0, 0.0), (2.0, 0.0))
    assert f.phi == pytest.approx(1.5 * math.pi, abs=1e-15)
    # independent oracle: the partner (2, 0) projected on the frame's axes
    # sits at local (0, 2)
    (xx, _), (yx, _) = axes(f)
    assert 2.0 * xx == pytest.approx(0.0, abs=1e-12)
    assert 2.0 * yx == pytest.approx(2.0, abs=1e-12)


def test_coincident_centers_rejected():
    with pytest.raises(CoincidentCentersError):
        build_local_frame((1.0, 1.0), (1.0, 1.0))


def test_origin_maps_to_zero():
    # the frame sits at p_i, whatever the direction to p_j
    f = build_local_frame((3.0, -1.0), (4.0, 5.0))
    assert (f.ox, f.oy) == (3.0, -1.0)


def test_random_frames_put_the_partner_on_the_positive_y_axis():
    rng = random.Random(20240901)
    for _ in range(1000):
        p_i = (rng.uniform(-10, 10), rng.uniform(-10, 10))
        p_j = (rng.uniform(-10, 10), rng.uniform(-10, 10))
        if math.hypot(p_j[0] - p_i[0], p_j[1] - p_i[1]) < 1e-6:
            continue
        f = build_local_frame(p_i, p_j)
        assert 0.0 <= f.phi < 2.0 * math.pi
        assert (f.ox, f.oy) == p_i

        # the partner body sits on the positive local y-axis
        (xx, xy), (yx, yy) = axes(f)
        dx, dy = p_j[0] - p_i[0], p_j[1] - p_i[1]
        assert abs(xx * dx + xy * dy) <= 1e-12 * max(1.0, math.hypot(dx, dy))
        assert yx * dx + yy * dy == pytest.approx(math.hypot(dx, dy), abs=1e-12)


def test_decompose_axis_aligned():
    vx, vy = decompose_velocity(1.0, math.pi / 2)
    assert vx == pytest.approx(0.0, abs=1e-15)
    assert vy == pytest.approx(1.0, abs=1e-15)


def test_decompose_exact_trig():
    vx, vy = decompose_velocity(2.0, math.pi / 6)
    assert vx == pytest.approx(math.sqrt(3.0), abs=1e-12)
    assert vy == pytest.approx(1.0, abs=1e-12)


def test_decompose_zero_speed():
    assert decompose_velocity(0.0, 1.234) == (0.0, 0.0)


def test_speed_invariance():
    rng = random.Random(7)
    for _ in range(200):
        v = rng.uniform(-10, 10)
        tb = rng.uniform(-8, 8)
        vx, vy = decompose_velocity(v, tb)
        assert math.hypot(vx, vy) == pytest.approx(abs(v), abs=1e-12)
