import math
import random

import pytest

from bumpsim.collision import (
    ContactQuery,
    ContactStatus,
    build_local_frame,
    check_collision,
    heading_changed,
    post_velocity,
    resolve_collision,
    resolve_normal,
)

UNBOUNDED = math.inf


def q_pair(
    p_i=(0.0, 0.0),
    p_j=(0.0, 2.0),
    v_i=0.0,
    v_j=0.0,
    theta_i=0.0,
    theta_j=0.0,
    m_i=1.0,
    m_j=1.0,
    r_i=1.0,
    r_j=1.0,
):
    return ContactQuery.build(
        i_id=1, j_id=2, p_i=p_i, p_j=p_j, r_i=r_i, r_j=r_j,
        m_i=m_i, m_j=m_j, v_i=v_i, v_j=v_j, theta_i=theta_i, theta_j=theta_j,
    )


FIELDS = dict(i_id=1, j_id=2, r_i=1.0, r_j=1.0, m_i=1.0, m_j=1.0, v_i=0.0, v_j=0.0, theta_i=0.0, theta_j=0.0)


def test_build_adds_the_frame_of_the_centers():
    q = ContactQuery.build((0.0, 0.0), (2.0, 0.0), **FIELDS)
    assert q.frame == build_local_frame((0.0, 0.0), (2.0, 0.0))
    assert (q.p_i, q.p_j, q.m_j) == ((0.0, 0.0), (2.0, 0.0), 1.0)


@pytest.mark.parametrize(
    "call",
    [
        lambda: ContactQuery.build(p_j=(0.0, 2.0), **FIELDS),
        lambda: ContactQuery.build((0.0, 0.0), (0.0, 2.0), **{k: v for k, v in FIELDS.items() if k != "m_j"}),
        lambda: ContactQuery.build((0.0, 0.0), (0.0, 2.0), spin=1.0, **FIELDS),
        lambda: ContactQuery.build((0.0, 0.0), (0.0, 2.0), frame=None, **FIELDS),
    ],
    ids=["missing-p_i", "missing-m_j", "unknown", "explicit-frame"],
)
def test_build_rejects_a_wrong_field_list(call):
    with pytest.raises(TypeError):
        call()


# --- check_collision -------------------------------------------------------


def test_contact_with_approach_jumps():
    # robot heading straight at the other body (local +y is toward p_j)
    q = q_pair(v_i=1.0, theta_i=math.pi / 2)
    assert check_collision(q) is ContactStatus.JUMP


def test_contact_without_approach_flows():
    q = q_pair(v_i=0.0, v_j=0.0)
    assert check_collision(q) is ContactStatus.FLOW


# --- resolve_normal --------------------------------------------------------


def brute_force_exchange(m_i, m_j, v_iy, v_jy):
    """Independent oracle: solve the momentum/energy system directly.

    The quadratic system has two roots; the physical one is the non-trivial
    root (the trivial one keeps both velocities unchanged).
    """
    p = m_i * v_iy + m_j * v_jy
    # substituting a = (p - m_j*b)/m_i into the energy equation yields a
    # quadratic in b whose roots are v_jy (trivial) and the exchange value
    aa = m_j * (m_i + m_j)
    bb = -2.0 * m_j * p
    cc = p * p - m_i * (m_i * v_iy * v_iy + m_j * v_jy * v_jy)
    disc = math.sqrt(max(0.0, bb * bb - 4.0 * aa * cc))
    roots = [(-bb + disc) / (2.0 * aa), (-bb - disc) / (2.0 * aa)]
    b = max(roots, key=lambda r: abs(r - v_jy))
    a = (p - m_j * b) / m_i
    return a, b


def test_equal_mass_swap():
    assert resolve_normal(1.0, 1.0, 1.0, -1.0) == (-1.0, 1.0)


def test_unbounded_reflection():
    assert resolve_normal(1.0, UNBOUNDED, 1.0, 0.0) == (-1.0, 0.0)


def test_loss_coefficient_scales_reflection():
    assert resolve_normal(1.0, UNBOUNDED, 1.0, 0.0, delta=0.5) == (-0.5, 0.0)
    # between two robots the one delta scales both outgoing components
    assert resolve_normal(1.0, 1.0, 1.0, -1.0, delta=0.5) == (-0.5, 0.5)


def test_unbounded_robot_mass_rejected():
    with pytest.raises(ValueError):
        resolve_normal(UNBOUNDED, 1.0, 1.0, 0.0)


def test_exchange_matches_brute_force():
    rng = random.Random(11)
    for _ in range(500):
        m_i = rng.uniform(0.1, 10.0)
        m_j = rng.uniform(0.1, 10.0)
        v_jy = rng.uniform(-5.0, 5.0)
        v_iy = v_jy + rng.uniform(0.01, 5.0)
        got = resolve_normal(m_i, m_j, v_iy, v_jy)
        want = brute_force_exchange(m_i, m_j, v_iy, v_jy)
        assert got[0] == pytest.approx(want[0], rel=1e-9, abs=1e-9)
        assert got[1] == pytest.approx(want[1], rel=1e-9, abs=1e-9)


def test_conservation_properties():
    rng = random.Random(13)
    for _ in range(2000):
        m_i = rng.uniform(0.1, 10.0)
        m_j = rng.uniform(0.1, 10.0)
        v_jy = rng.uniform(-5.0, 5.0)
        v_iy = v_jy + rng.uniform(0.01, 5.0)
        a, b = resolve_normal(m_i, m_j, v_iy, v_jy)
        p0 = m_i * v_iy + m_j * v_jy
        p1 = m_i * a + m_j * b
        e0 = 0.5 * m_i * v_iy**2 + 0.5 * m_j * v_jy**2
        e1 = 0.5 * m_i * a**2 + 0.5 * m_j * b**2
        assert p1 == pytest.approx(p0, rel=1e-9, abs=1e-9)
        assert e1 == pytest.approx(e0, rel=1e-9, abs=1e-9)
        # relative normal velocity reverses
        assert (a - b) == pytest.approx(-(v_iy - v_jy), rel=1e-9, abs=1e-9)


# --- post_velocity ---------------------------------------------------------


def test_post_velocity_normal_only():
    theta_plus, v_plus = post_velocity(1.0, 0.0, 0.0, theta_prev=9.9)
    assert theta_plus == pytest.approx(math.pi / 2, abs=1e-15)
    assert v_plus == 1.0


def test_post_velocity_pythagorean():
    theta_plus, v_plus = post_velocity(3.0, 4.0, 0.0, theta_prev=9.9)
    assert v_plus == pytest.approx(5.0, abs=1e-12)
    assert theta_plus == pytest.approx(math.atan(3.0 / 4.0), abs=1e-12)


def test_post_velocity_degenerate_keeps_heading():
    theta_plus, v_plus = post_velocity(0.0, 0.0, 1.0, theta_prev=2.345)
    assert v_plus == 0.0
    assert theta_plus == 2.345


# --- resolve_collision -----------------------------------------------------


def test_head_on_equal_masses_swap():
    # both robots drive at each other along the line of centers at speed 1
    q = q_pair(v_i=1.0, theta_i=math.pi / 2, v_j=1.0, theta_j=-math.pi / 2)
    out_i, out_j = resolve_collision(q, body_j_is_robot=True)
    assert out_i.v_plus == pytest.approx(1.0, abs=1e-12)
    assert out_j.v_plus == pytest.approx(1.0, abs=1e-12)
    # normal components reversed
    phi = q.frame.phi
    assert out_i.lam == pytest.approx(-1.0, abs=1e-12)
    assert out_j.lam == pytest.approx(1.0, abs=1e-12)
    assert math.sin(out_i.theta_plus - phi) == pytest.approx(-1.0, abs=1e-12)


def test_static_unbounded_reflection():
    q = q_pair(v_i=1.0, theta_i=math.pi / 2, m_j=UNBOUNDED)
    out_i, out_j = resolve_collision(q)
    assert out_j is None
    assert out_i.v_plus == pytest.approx(1.0, abs=1e-12)
    # local heading reflects about the tangent
    tb_pre = q.theta_i - q.frame.phi
    tb_post = out_i.theta_plus - q.frame.phi
    assert math.sin(tb_post) == pytest.approx(-math.sin(tb_pre), abs=1e-12)
    assert math.cos(tb_post) == pytest.approx(math.cos(tb_pre), abs=1e-12)


def test_grazing_zero_normal_outcome():
    # robot i hits a resting equal-mass robot with normal speed 1 and
    # tangential speed 1: its normal component transfers entirely
    # local heading 3*pi/4: normal component 1 (approach), tangential -1
    q = q_pair(v_i=math.sqrt(2.0), theta_i=3.0 * math.pi / 4.0, v_j=0.0)
    out_i, out_j = resolve_collision(q, body_j_is_robot=True)
    assert out_i.lam == pytest.approx(0.0, abs=1e-12)
    assert out_i.v_plus == pytest.approx(abs(out_i.mu), abs=1e-12)
    # heading lands on the local x-axis with the sign of mu
    tb_post = out_i.theta_plus - q.frame.phi
    assert math.sin(tb_post) == pytest.approx(0.0, abs=1e-12)
    assert math.copysign(1.0, math.cos(tb_post)) == math.copysign(1.0, out_i.mu)


def test_recomposition_and_tangential_invariance():
    rng = random.Random(17)
    for _ in range(2000):
        p_i = (rng.uniform(-5, 5), rng.uniform(-5, 5))
        ang = rng.uniform(0, 2 * math.pi)
        p_j = (p_i[0] + 2.0 * math.cos(ang), p_i[1] + 2.0 * math.sin(ang))
        q = q_pair(
            p_i=p_i, p_j=p_j,
            v_i=rng.uniform(-5, 5), v_j=rng.uniform(-5, 5),
            theta_i=rng.uniform(-7, 7), theta_j=rng.uniform(-7, 7),
            m_i=rng.uniform(0.2, 5.0), m_j=rng.uniform(0.2, 5.0),
        )
        out_i, out_j = resolve_collision(q, body_j_is_robot=True)
        phi = q.frame.phi
        for out, v_pre, theta_pre in (
            (out_i, q.v_i, q.theta_i),
            (out_j, q.v_j, q.theta_j),
        ):
            # tangential component unchanged
            mu_pre = v_pre * math.cos(theta_pre - phi)
            assert out.mu == pytest.approx(mu_pre, abs=1e-12)
            # canonical recomposition: v+ (cos, sin)(theta+ - phi) == (mu, lam)
            assert out.v_plus * math.cos(out.theta_plus - phi) == pytest.approx(out.mu, rel=1e-9, abs=1e-9)
            assert out.v_plus * math.sin(out.theta_plus - phi) == pytest.approx(out.lam, rel=1e-9, abs=1e-9)
            assert out.v_plus >= 0.0


def test_static_body_stays_at_rest():
    q = q_pair(v_i=3.0, theta_i=math.pi / 2, m_j=UNBOUNDED)
    out_i, out_j = resolve_collision(q)
    assert out_j is None  # static body produces no outcome: it stays put


def test_heading_changed_mod_two_pi():
    assert not heading_changed(0.0, 2.0 * math.pi)
    assert not heading_changed(1.0, 1.0 + 4.0 * math.pi)
    assert heading_changed(0.0, 0.1)
    assert not heading_changed(0.5, 0.5 + 5e-10)
