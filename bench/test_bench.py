"""Checks on the benchmark itself: golden outputs, traced-run hygiene and
exact counts.  Run with `python3 -m pytest bench/test_bench.py -q`."""

import dataclasses
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import run_bench  # noqa: E402
import tracer  # noqa: E402


@pytest.fixture
def chatter(tmp_path):
    return run_bench.Bench("chatter", tmp_path)


def test_traced_run_restores_names_and_keeps_golden(chatter):
    before = tracer.originals()
    result = tracer.traced_run(chatter)
    assert result is not None, "traced trace.csv or metrics.json differs from the golden"
    assert all(now is then for now, then in zip(tracer.originals(), before))
    # an untraced run after a traced one still matches the golden
    assert chatter.timed_run() is not None


def test_counts_repeat_exactly_and_match_the_trace(chatter):
    first = tracer.traced_run(chatter)
    second = tracer.traced_run(chatter)
    assert first is not None and second is not None
    counts = tracer.layer_counts(*first)
    assert counts == tracer.layer_counts(*second)
    assert counts["hybrid.steps"] == tracer.steps_of(first[0].last_trace)
    assert counts["hybrid.jump.calls"] == counts["collision.resolve_calls"] == 750
    assert counts["hybrid.event.bisect_iters"] + counts["hybrid.flow.step_calls"] == (
        counts["hybrid.flow.calls"]
    )


def test_open_field_bypasses_contact_layers(tmp_path):
    result = tracer.traced_run(run_bench.Bench("open_field", tmp_path))
    assert result is not None
    counts = tracer.layer_counts(*result)
    for name in ("hybrid.jump.calls", "hybrid.event.hits", "collision.resolve_calls"):
        assert counts[name] == 0, name


def test_golden_mismatch_counts_as_failed(chatter):
    chatter.wl = dataclasses.replace(chatter.wl, trace_sha256="0" * 64)
    assert chatter.attempt(chatter.timed_run) is None
    assert chatter.attempt(chatter.timed_simulate) is None
    assert (chatter.attempted, chatter.failed) == (2, 2)


def test_without_engine_sources_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run_bench.py", "--workload", "chatter", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_peak_memory_is_the_childs_own(chatter):
    ballast = b"\x01" * 80_000_000  # the parent's peak must not leak into the child's
    peak = chatter.peak_memory()
    assert ballast and peak is not None
    assert 5 < peak < 60
