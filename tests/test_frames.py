import math
import random

import pytest

from bumpsim.frames import (
    CoincidentCentersError,
    LocalFrame,
    build_local_frame,
    decompose_velocity,
    to_global,
    to_local,
)
from bumpsim.scenario import RobotState


def test_frame_aligned_with_global():
    f = build_local_frame((0.0, 0.0), (0.0, 2.0))
    assert f.phi == 0.0
    assert (f.ox, f.oy) == (0.0, 0.0)


def test_frame_pair_along_x():
    # y-axis points +x, so the frame x-axis points -y: phi = 1.5*pi
    f = build_local_frame((0.0, 0.0), (2.0, 0.0))
    assert f.phi == pytest.approx(1.5 * math.pi, abs=1e-15)


def test_coincident_centers_rejected():
    with pytest.raises(CoincidentCentersError):
        build_local_frame((1.0, 1.0), (1.0, 1.0))


def test_to_local_identity_frame():
    f = LocalFrame(0.0, 0.0, 0.0)
    ls = to_local(RobotState(1.0, 2.0, 0.3), f)
    assert (ls.x, ls.y, ls.theta) == (1.0, 2.0, 0.3)


def test_to_local_rotated_frame():
    # independent oracle: explicit rotation matrix application
    f = build_local_frame((0.0, 0.0), (2.0, 0.0))
    ls = to_local(RobotState(2.0, 0.0, 0.0), f)
    assert ls.x == pytest.approx(0.0, abs=1e-12)
    assert ls.y == pytest.approx(2.0, abs=1e-12)
    assert ls.theta == pytest.approx(-1.5 * math.pi, abs=1e-12)


def test_origin_maps_to_zero():
    f = build_local_frame((3.0, -1.0), (4.0, 5.0))
    ls = to_local(RobotState(3.0, -1.0, 0.7), f)
    assert ls.x == pytest.approx(0.0, abs=1e-12)
    assert ls.y == pytest.approx(0.0, abs=1e-12)
    assert ls.theta == pytest.approx(0.7 - f.phi, abs=1e-15)


def test_to_global_inverts_example():
    f = build_local_frame((0.0, 0.0), (2.0, 0.0))
    back = to_global(RobotState(0.0, 2.0, -1.5 * math.pi), f)
    assert back.x == pytest.approx(2.0, abs=1e-12)
    assert back.y == pytest.approx(0.0, abs=1e-12)
    assert back.theta == pytest.approx(0.0, abs=1e-12)


def test_to_global_translation_only():
    f = LocalFrame(5.0, 5.0, 0.0)
    back = to_global(RobotState(0.0, 0.0, 0.0), f)
    assert (back.x, back.y, back.theta) == (5.0, 5.0, 0.0)


def test_round_trip_isometry_and_axis():
    rng = random.Random(20240901)
    for _ in range(1000):
        p_i = (rng.uniform(-10, 10), rng.uniform(-10, 10))
        p_j = (rng.uniform(-10, 10), rng.uniform(-10, 10))
        if math.hypot(p_j[0] - p_i[0], p_j[1] - p_i[1]) < 1e-6:
            continue
        f = build_local_frame(p_i, p_j)
        assert 0.0 <= f.phi < 2.0 * math.pi

        s1 = RobotState(rng.uniform(-10, 10), rng.uniform(-10, 10), rng.uniform(-7, 7))
        s2 = RobotState(rng.uniform(-10, 10), rng.uniform(-10, 10), rng.uniform(-7, 7))
        b1 = to_global(to_local(s1, f), f)
        assert b1.x == pytest.approx(s1.x, abs=1e-12)
        assert b1.y == pytest.approx(s1.y, abs=1e-12)
        assert b1.theta == pytest.approx(s1.theta, abs=1e-12)

        l1, l2 = to_local(s1, f), to_local(s2, f)
        d_local = math.hypot(l1.x - l2.x, l1.y - l2.y)
        d_global = math.hypot(s1.x - s2.x, s1.y - s2.y)
        assert d_local == pytest.approx(d_global, abs=1e-12)

        # the partner body sits on the positive local y-axis
        lj = to_local(RobotState(p_j[0], p_j[1], 0.0), f)
        assert abs(lj.x) <= 1e-12 * max(1.0, abs(lj.y))
        assert lj.y == pytest.approx(math.hypot(p_j[0] - p_i[0], p_j[1] - p_i[1]), abs=1e-12)


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
