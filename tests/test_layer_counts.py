"""Exact per-layer counts of a traced `crossing` run.

The benchmark's per-layer metrics come from `bench/tracer.py`, which counts
calls through the module globals the executor looks up at call time.  An
engine change that keeps the trace bytes but stops calling one of those
names through its global would silently zero or shift a count; this pins
every count of the headline run.
"""

from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

CROSSING_COUNTS = {
    "controller.calls": 39224,
    "controller.region.OMEGA1": 0,
    "controller.region.OMEGA2": 39224,
    "controller.region.OMEGA3": 0,
    "controller.region.OMEGA4": 0,
    "controller.degenerate": 0,
    "hybrid.event.calls": 19711,
    "hybrid.event.hits": 1,
    "hybrid.event.bisect_iters": 1348,
    "hybrid.event.deferred": 0,
    "hybrid.flow.calls": 40772,
    "hybrid.flow.step_calls": 39424,
    "hybrid.jump.calls": 3,
    "collision.query_calls": 1,
    "collision.check_calls": 0,
    "collision.check_jumps": 0,
    "collision.resolve_calls": 1,
    "frames.build_calls": 1,
    "redesign.local_control_calls": 200,
    "redesign.escape_calls": 2,
    "hybrid.steps": 19711,
    "hybrid.records": 39434,
    "hybrid.trace_bytes": 5161216,
    "scenario.validate_calls": 2,
}


def test_traced_crossing_counts(monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    import run_bench
    import tracer

    result = tracer.traced_run(run_bench.Bench("crossing", tmp_path))
    assert result is not None, "traced crossing run missed its golden outputs"
    assert tracer.layer_counts(*result) == CROSSING_COUNTS
