import math
import random

import pytest

from bumpsim.redesign import (
    DegenerateTargetError,
    GeometryError,
    LocalPhase,
    NonSeparableError,
    deconflict_headings,
    impulse,
    local_control,
    local_duration,
    select_escape_heading,
    tangent_rays,
)


# --- tangent rays ------------------------------------------------------------


def test_horizontal_tangent():
    rays = tangent_rays((0.0, 4.0), (0.0, 2.0), contact_radius=2.0)
    assert rays.kappa == 0.0
    assert rays.dir1 == (-1.0, 0.0)
    assert rays.dir2 == (1.0, 0.0)


def test_vertical_tangent():
    rays = tangent_rays((4.0, 2.0), (2.0, 2.0), contact_radius=2.0)
    assert rays.kappa is None
    assert rays.dir1 == (0.0, -1.0)
    assert rays.dir2 == (0.0, 1.0)


def test_off_circle_rejected():
    with pytest.raises(GeometryError):
        tangent_rays((0.0, 4.0), (0.0, 2.1), contact_radius=2.0)


def test_rays_perpendicular_to_radial():
    rng = random.Random(31)
    for _ in range(300):
        center = (rng.uniform(-5, 5), rng.uniform(-5, 5))
        radius = rng.uniform(0.5, 4.0)
        ang = rng.uniform(0.0, 2.0 * math.pi)
        p_ic = (center[0] + radius * math.cos(ang), center[1] + radius * math.sin(ang))
        rays = tangent_rays(center, p_ic, contact_radius=radius)
        radial = (center[0] - p_ic[0], center[1] - p_ic[1])
        for d in (rays.dir1, rays.dir2):
            assert abs(d[0] * radial[0] + d[1] * radial[1]) <= 1e-9 * radius
            assert math.hypot(*d) == pytest.approx(1.0, abs=1e-12)
        # opposite directions
        assert rays.dir1[0] == pytest.approx(-rays.dir2[0], abs=1e-15)
        assert rays.dir1[1] == pytest.approx(-rays.dir2[1], abs=1e-15)


# --- escape heading selection -------------------------------------------------


def test_tie_selects_first_ray():
    rays = tangent_rays((0.0, 4.0), (0.0, 2.0), contact_radius=2.0)
    theta, phi_sel = select_escape_heading(rays, (0.0, 0.0))
    assert theta == pytest.approx(math.pi, abs=1e-12)
    assert phi_sel == pytest.approx(math.pi / 2, abs=1e-12)


def test_aligned_ray_selected():
    rays = tangent_rays((0.0, 4.0), (0.0, 2.0), contact_radius=2.0)
    theta, phi_sel = select_escape_heading(rays, (3.0, 2.0))
    assert theta == pytest.approx(0.0, abs=1e-12)
    assert phi_sel == pytest.approx(0.0, abs=1e-12)


def test_vertical_branch_selection():
    rays = tangent_rays((4.0, 2.0), (2.0, 2.0), contact_radius=2.0)
    theta, phi_sel = select_escape_heading(rays, (2.0, 5.0))
    assert theta == pytest.approx(0.5 * math.pi, abs=1e-12)
    assert phi_sel == pytest.approx(0.0, abs=1e-12)


def test_degenerate_target_rejected():
    rays = tangent_rays((0.0, 4.0), (0.0, 2.0), contact_radius=2.0)
    with pytest.raises(DegenerateTargetError):
        select_escape_heading(rays, (0.0, 2.0))


def test_angle_split_property():
    rng = random.Random(37)
    for _ in range(500):
        center = (rng.uniform(-5, 5), rng.uniform(-5, 5))
        radius = rng.uniform(0.5, 4.0)
        ang = rng.uniform(0.0, 2.0 * math.pi)
        p_ic = (center[0] + radius * math.cos(ang), center[1] + radius * math.sin(ang))
        target = (rng.uniform(-8, 8), rng.uniform(-8, 8))
        if math.hypot(target[0] - p_ic[0], target[1] - p_ic[1]) < 1e-6:
            continue
        rays = tangent_rays(center, p_ic, contact_radius=radius)
        seg = (target[0] - p_ic[0], target[1] - p_ic[1])
        seg_n = math.hypot(*seg)
        seg = (seg[0] / seg_n, seg[1] / seg_n)
        phi_b = math.acos(max(-1.0, min(1.0, seg[0] * rays.dir1[0] + seg[1] * rays.dir1[1])))
        phi_p = math.acos(max(-1.0, min(1.0, seg[0] * rays.dir2[0] + seg[1] * rays.dir2[1])))
        theta, phi_sel = select_escape_heading(rays, target)
        assert phi_sel == pytest.approx(min(phi_b, phi_p), abs=1e-12)
        assert phi_sel <= math.pi / 2 + 1e-12
        assert phi_b + phi_p == pytest.approx(math.pi, abs=1e-9)
        # escape direction lies on the tangent line
        d = (math.cos(theta), math.sin(theta))
        radial = (center[0] - p_ic[0], center[1] - p_ic[1])
        assert d[0] * radial[0] + d[1] * radial[1] <= 1e-9


# --- deconflict ---------------------------------------------------------------


def test_distinct_headings_unchanged():
    assert deconflict_headings(0.0, math.pi, 0.3, 0.4) == (0.0, math.pi)


def test_flip_minimizes_angle_sum():
    # flipping robot 1 costs (pi - 0.9) + 0.2; flipping robot 2 costs 0.9 + (pi - 0.2);
    # the first is smaller, so robot 1 flips
    t1, t2 = deconflict_headings(0.0, 0.0, 0.9, 0.2)
    assert (t1, t2) == (math.pi, 0.0)


def test_equal_costs_flip_robot_two():
    t1, t2 = deconflict_headings(0.5, 0.5, 0.7, 0.7)
    assert (t1, t2) == (0.5, 0.5 + math.pi)


def test_deconflict_output_distinct():
    rng = random.Random(41)
    for _ in range(300):
        theta = rng.uniform(-7, 7)
        phi_1 = rng.uniform(0.0, math.pi / 2)
        phi_2 = rng.uniform(0.0, math.pi / 2)
        t1, t2 = deconflict_headings(theta, theta, phi_1, phi_2)
        diff = (t1 - t2) % (2.0 * math.pi)
        assert min(diff, 2.0 * math.pi - diff) > 1e-9


# --- impulse ------------------------------------------------------------------


def test_impulse_heading_difference():
    assert impulse(math.pi, math.pi / 4) == (0.0, 0.0, math.pi - math.pi / 4)


def test_impulse_noop():
    assert impulse(1.25, 1.25) == (0.0, 0.0, 0.0)


def test_impulse_no_wrapping():
    dx, dy, dth = impulse(0.0, 1.9 * math.pi)
    assert (dx, dy) == (0.0, 0.0)
    assert dth == pytest.approx(-1.9 * math.pi, abs=1e-15)


# --- local controller and duration ---------------------------------------------


def test_local_control_constant():
    phase = LocalPhase(collided_id=9, v_loc=5.0, t_dur=0.2)
    u = local_control(phase)
    assert (u.v, u.w) == (5.0, 0.0)


def test_local_speed_must_be_positive():
    with pytest.raises(ValueError):
        LocalPhase(collided_id=9, v_loc=0.0, t_dur=0.2)


def test_duration_obstacle():
    assert local_duration(5.0, other_is_robot=False, r_other=1.0) == 0.2


def test_duration_robot_half_radius():
    assert local_duration(5.0, other_is_robot=True, r_other=1.0) == 0.1


def test_duration_unit_ratio():
    assert local_duration(1.0, other_is_robot=False, r_other=1.0) == 1.0


def test_phase_extension_cap():
    phase = LocalPhase(collided_id=9, v_loc=5.0, t_dur=0.2)
    for _ in range(90):
        phase.extend()
    with pytest.raises(NonSeparableError):
        phase.extend()
