"""Exact per-layer counts of traced `crossing`, `chatter` and `open_field` runs.

The benchmark's per-layer metrics come from `bench/tracer.py`, which counts
calls through the module globals the executor looks up at call time.  An
engine change that keeps the trace bytes but stops calling one of those
names through its global would silently zero or shift a count; this pins
every count of the headline run, whose 30 probe steps of the flow pin the
first-contact search (one contact and 14 steps whose pairs end apart: 13
settle without a probe, where the unimodal graze search it replaced
stepped the flow 1,294 times), of the deadlock run, whose 750
contact localizations pin the bisection's certified probe skipping (a
fallback to the first-order certificates alone steps the flow 16,626
times there, and one to probing every midpoint about 45,000), and of the
contact-free bypass run, whose contact, jump and redesign counts must
stay zero.  `hybrid.jump` applies contacts only: `crossing`'s two
reactivations are jumps that `simulate` makes itself, so its one contact
is its one `hybrid.jump` call.
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
    "hybrid.event.bisect_iters": 30,
    "hybrid.event.deferred": 0,
    "hybrid.flow.calls": 39454,
    "hybrid.flow.step_calls": 39424,
    "hybrid.jump.calls": 1,
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

CHATTER_COUNTS = {
    "controller.calls": 4614,
    "controller.region.OMEGA1": 0,
    "controller.region.OMEGA2": 4614,
    "controller.region.OMEGA3": 0,
    "controller.region.OMEGA4": 0,
    "controller.degenerate": 0,
    "hybrid.event.calls": 2307,
    "hybrid.event.hits": 750,
    "hybrid.event.bisect_iters": 6,
    "hybrid.event.deferred": 0,
    "hybrid.flow.calls": 6120,
    "hybrid.flow.step_calls": 6114,
    "hybrid.jump.calls": 750,
    "collision.query_calls": 750,
    "collision.check_calls": 0,
    "collision.check_jumps": 0,
    "collision.resolve_calls": 750,
    "frames.build_calls": 750,
    "redesign.local_control_calls": 0,
    "redesign.escape_calls": 0,
    "hybrid.steps": 2307,
    "hybrid.records": 6117,
    "hybrid.trace_bytes": 950162,
    "scenario.validate_calls": 2,
}

OPEN_FIELD_COUNTS = {
    "controller.calls": 39608,
    "controller.region.OMEGA1": 0,
    "controller.region.OMEGA2": 39608,
    "controller.region.OMEGA3": 0,
    "controller.region.OMEGA4": 0,
    "controller.degenerate": 0,
    "hybrid.event.calls": 19803,
    "hybrid.event.hits": 0,
    "hybrid.event.bisect_iters": 0,
    "hybrid.event.deferred": 0,
    "hybrid.flow.calls": 39606,
    "hybrid.flow.step_calls": 39606,
    "hybrid.jump.calls": 0,
    "collision.query_calls": 0,
    "collision.check_calls": 0,
    "collision.check_jumps": 0,
    "collision.resolve_calls": 0,
    "frames.build_calls": 0,
    "redesign.local_control_calls": 0,
    "redesign.escape_calls": 0,
    "hybrid.steps": 19803,
    "hybrid.records": 39610,
    "hybrid.trace_bytes": 3455514,
    "scenario.validate_calls": 2,
}


def traced_counts(monkeypatch, tmp_path, workload):
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    import run_bench
    import tracer

    result = tracer.traced_run(run_bench.Bench(workload, tmp_path))
    assert result is not None, f"traced {workload} run missed its golden outputs"
    return tracer.layer_counts(*result)


def test_traced_crossing_counts(monkeypatch, tmp_path):
    assert traced_counts(monkeypatch, tmp_path, "crossing") == CROSSING_COUNTS


def test_traced_chatter_counts(monkeypatch, tmp_path):
    assert traced_counts(monkeypatch, tmp_path, "chatter") == CHATTER_COUNTS


def test_traced_open_field_counts(monkeypatch, tmp_path):
    assert traced_counts(monkeypatch, tmp_path, "open_field") == OPEN_FIELD_COUNTS
