"""A fixed reference loop that measures how fast the host runs Python now.

The benchmark's host is shared, and its speed wanders by up to 2x over
minutes while CPU time still equals wall time (see README.md, "Noise and
bounds").  Each timed call is therefore bracketed by two runs of this loop,
and its time is scaled by the loop's time next to it.

The loop imitates the engine's mix without using any of its code: three
unicycle robots under a goal-seeking controller with a repulsion term,
integrated by RK4 over frozen slotted dataclasses, every sample kept as a
record, then all records formatted as CSV text.  Because it shares nothing
with `bumpsim`, a change to the engine cannot move it.
"""

from __future__ import annotations

import gc
import math
import time
from dataclasses import dataclass

STEPS = 5000
# Nominal seconds of one pass: about one pass on the host the bounds were
# set on (a shared 2-vCPU KVM guest, Intel Xeon at 2.0 GHz, Python 3.11.7)
# when it is quiet.  Scaled times are in seconds at the speed at which a
# pass takes this long.
REFERENCE_S = 0.2
DT = 0.001


@dataclass(frozen=True, slots=True)
class _State:
    x: float
    y: float
    theta: float
    v: float


@dataclass(frozen=True, slots=True)
class _Sample:
    t: float
    robot: int
    state: _State


def _control(s: _State, goal: tuple[float, float], others: list[_State]) -> tuple[float, float]:
    dx, dy = goal[0] - s.x, goal[1] - s.y
    omega = math.atan2(dy, dx) - s.theta
    omega = (omega + math.pi) % (2 * math.pi) - math.pi
    for o in others:
        ox, oy = s.x - o.x, s.y - o.y
        r = math.hypot(ox, oy)
        if r < 1.0:
            omega += 0.3 * (ox * math.sin(s.theta) - oy * math.cos(s.theta)) / (r + 1e-9)
        elif r < 2.0:
            omega += 0.1 / r
    return min(math.hypot(dx, dy), 1.0), omega


def _deriv(s: _State, u: float, omega: float) -> tuple[float, float, float, float]:
    return (s.v * math.cos(s.theta), s.v * math.sin(s.theta), omega, u - s.v)


def _shift(s: _State, k: tuple[float, float, float, float], h: float) -> _State:
    return _State(s.x + h * k[0], s.y + h * k[1], s.theta + h * k[2], s.v + h * k[3])


def _rk4(s: _State, u: float, omega: float) -> _State:
    k1 = _deriv(s, u, omega)
    k2 = _deriv(_shift(s, k1, DT / 2), u, omega)
    k3 = _deriv(_shift(s, k2, DT / 2), u, omega)
    k4 = _deriv(_shift(s, k3, DT), u, omega)
    k = tuple((a + 2 * b + 2 * c + d) / 6 for a, b, c, d in zip(k1, k2, k3, k4))
    return _shift(s, k, DT)


def _loop() -> int:
    robots = [_State(0.0, 0.0, 0.0, 0.0), _State(5.0, 5.0, 3.0, 0.0), _State(0.0, 5.0, -1.0, 0.0)]
    goals = [(5.0, 5.0), (0.0, 0.0), (5.0, 0.0)]
    samples = []
    for step in range(STEPS):
        moved = []
        for i, s in enumerate(robots):
            u, omega = _control(s, goals[i], robots[:i] + robots[i + 1:])
            moved.append(_rk4(s, u, omega))
            samples.append(_Sample(step * DT, i, s))
        robots = moved
    text = "\n".join(
        f"{r.t:.6f},{r.robot},{r.state.x:.9g},{r.state.y:.9g},{r.state.theta:.9g},{r.state.v:.9g}"
        for r in samples
    )
    return len(text)


def reference_s() -> float:
    """Wall seconds of one pass of the reference loop."""
    gc.collect()
    t0 = time.perf_counter()
    _loop()
    return time.perf_counter() - t0
