"""Per-layer tracing from outside the engine.

`LayerTracer` replaces the public names that the executor looks up at call
time (module globals such as `bumpsim.hybrid.step_flow`) with wrappers that
record call counts, total time and self time per layer, then puts the
original objects back.  Nothing inside the engine changes: the wrappers sit
at the module boundaries the executor already calls through.

A layer's self time is the time spent inside its wrapped calls minus the
time spent in wrapped calls nested below them.  Counters that need the
result of a call (controller regions, event hits, collision checks) are
read from the returned objects.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import shutil
import statistics
import sys
import time
from collections import Counter
from contextlib import contextmanager

from bumpsim import cli, collision, controller, hybrid
from bumpsim.collision import ContactQuery, ContactStatus
from bumpsim.controller import Region
from bumpsim.hybrid import CollisionRecord, FlowSample

MIN_TRACED = 2

# (namespace, attribute, layer, span name).  Each entry is a name the engine
# resolves at call time; the span name keys totals and counts.
WRAPPED = (
    (cli, "load_scenario", "scenario", "scenario.load"),
    (cli, "validate_scenario", "scenario", "scenario.validate"),
    (hybrid, "validate_scenario", "scenario", "scenario.validate"),
    (cli, "simulate", "hybrid.loop", "hybrid.simulate"),
    (cli, "metrics", "hybrid.metrics", "hybrid.metrics"),
    (cli, "write_trace_csv", "hybrid.csv", "hybrid.csv"),
    (cli, "write_plot_csv", "hybrid.plot", "hybrid.plot"),
    (hybrid, "predefined_control", "controller", "controller.control"),
    (controller, "controller_terms", "controller", "controller.terms"),
    (hybrid, "detect_event", "hybrid.event", "hybrid.event"),
    (hybrid, "step_flow", "hybrid.flow", "hybrid.flow"),
    (hybrid, "jump", "hybrid.jump", "hybrid.jump"),
    (ContactQuery, "build", "collision", "collision.query"),
    (hybrid, "check_collision", "collision", "collision.check"),
    (hybrid, "resolve_collision", "collision", "collision.resolve"),
    (collision, "build_local_frame", "frames", "frames.build"),
    (hybrid, "local_control", "redesign", "redesign.local_control"),
    (hybrid, "tangent_rays", "redesign", "redesign.tangent_rays"),
    (hybrid, "select_escape_heading", "redesign", "redesign.escape"),
    (hybrid, "deconflict_headings", "redesign", "redesign.deconflict"),
    (hybrid, "impulse", "redesign", "redesign.impulse"),
)

# Layers below `simulate`; their self times add up to its traced wall time
# (less the validation call it makes).
SIMULATE_LAYERS = (
    "hybrid.loop",
    "controller",
    "hybrid.event",
    "hybrid.flow",
    "hybrid.jump",
    "collision",
    "frames",
    "redesign",
)


def steps_of(trace) -> int:
    """Integration steps, counted from the trace: each pass of the
    executor's loop samples every robot once, and all passes but the last
    end in a step."""
    samples = sum(1 for r in trace.records if isinstance(r, FlowSample))
    return samples // len(trace.scenario.robot_ids()) - 1


class LayerTracer:
    """Span totals and counters for one traced call tree.

    Use `installed()` to wrap the engine's names for the duration of a
    `with` block, and `span()` for a root span around the whole call.
    """

    def __init__(self) -> None:
        self.calls: Counter[str] = Counter()
        self.total_ns: Counter[str] = Counter()
        self.self_ns: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()
        self.last_trace = None
        # One child-time accumulator per open span.
        self._stack: list[int] = []
        self._in_event = False

    def span(self, layer: str, name: str, fn, *args, **kwargs):
        stack = self._stack
        is_event = name == "hybrid.event"
        if is_event:
            self._in_event = True
        stack.append(0)
        t0 = time.perf_counter_ns()
        try:
            result = fn(*args, **kwargs)
        finally:
            elapsed = time.perf_counter_ns() - t0
            if is_event:
                self._in_event = False
            child = stack.pop()
            self.calls[name] += 1
            self.total_ns[name] += elapsed
            self.self_ns[layer] += elapsed - child
            if stack:
                stack[-1] += elapsed
        self._observe(name, result)
        return result

    def _observe(self, name: str, result) -> None:
        counts = self.counts
        if name == "controller.control":
            counts[f"controller.region.{result.region.name}"] += 1
            counts["controller.degenerate"] += result.degenerate
        elif name == "hybrid.event":
            if result is not None:
                counts["hybrid.event.hits"] += 1
                counts["hybrid.event.deferred"] += len(result.simultaneous)
        elif name == "hybrid.flow":
            # Flow calls made while detect_event is open are bisection probes.
            if self._in_event:
                counts["hybrid.event.bisect_iters"] += 1
        elif name == "collision.check":
            counts["collision.check_jumps"] += result is ContactStatus.JUMP
        elif name == "collision.resolve":
            counts["collision.outcomes"] += 1 + (result[1] is not None)
        elif name == "hybrid.simulate":
            self.last_trace = result

    def _wrap(self, layer: str, name: str, fn):
        span = self.span

        def wrapper(*args, **kwargs):
            return span(layer, name, fn, *args, **kwargs)

        return wrapper

    @contextmanager
    def installed(self):
        """Wrap every name in WRAPPED; restore the originals on exit."""
        saved = []
        try:
            for owner, attr, layer, name in WRAPPED:
                original = owner.__dict__[attr]
                saved.append((owner, attr, original))
                if isinstance(original, classmethod):
                    wrapped = classmethod(self._wrap(layer, name, original.__func__))
                else:
                    wrapped = self._wrap(layer, name, original)
                setattr(owner, attr, wrapped)
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)


def originals() -> list:
    """The objects currently bound to every wrapped name, in WRAPPED order."""
    return [owner.__dict__[attr] for owner, attr, _, _ in WRAPPED]


def traced_run(bench):
    """One `bumpsim run` under a fresh LayerTracer: (tracer, trace bytes), or
    None when the outputs miss the golden or the counts disagree with them."""
    tracer = LayerTracer()
    shutil.rmtree(bench.out_dir, ignore_errors=True)
    gc.collect()
    sink = io.StringIO()
    with tracer.installed(), contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        rc = tracer.span("cli", "cli.main", bench.cli_main, bench.argv(bench.out_dir))
    if not bench.check_outputs(rc, bench.out_dir):
        return None
    trace = tracer.last_trace
    summary = json.loads((bench.out_dir / "metrics.json").read_text(encoding="utf-8"))
    collisions = sum(r["collisions"] for r in summary["robots"].values())
    expected = {
        # every step runs detect_event once, then samples again
        "steps == sampling passes - 1": (tracer.calls["hybrid.event"], steps_of(trace)),
        "collision outcomes == collision records": (
            tracer.counts["collision.outcomes"],
            sum(1 for r in trace.records if isinstance(r, CollisionRecord)),
        ),
        "collision records == metrics collisions": (
            sum(1 for r in trace.records if isinstance(r, CollisionRecord)),
            collisions,
        ),
    }
    bad = {k: v for k, v in expected.items() if v[0] != v[1]}
    if bad:
        print(f"{bench.name}: count mismatch: {bad}", file=sys.stderr)
        return None
    return tracer, (bench.out_dir / "trace.csv").stat().st_size


def layer_counts(tracer: LayerTracer, trace_bytes: int) -> dict[str, int]:
    """Exact counts of one traced run; two runs of the same code agree."""
    calls, counts = tracer.calls, tracer.counts
    out = {
        "controller.calls": calls["controller.control"],
        **{f"controller.region.{r.name}": counts[f"controller.region.{r.name}"] for r in Region},
        "controller.degenerate": counts["controller.degenerate"],
        "hybrid.event.calls": calls["hybrid.event"],
        "hybrid.event.hits": counts["hybrid.event.hits"],
        "hybrid.event.bisect_iters": counts["hybrid.event.bisect_iters"],
        "hybrid.event.deferred": counts["hybrid.event.deferred"],
        "hybrid.flow.calls": calls["hybrid.flow"],
        "hybrid.flow.step_calls": calls["hybrid.flow"] - counts["hybrid.event.bisect_iters"],
        "hybrid.jump.calls": calls["hybrid.jump"],
        "collision.query_calls": calls["collision.query"],
        "collision.check_calls": calls["collision.check"],
        "collision.check_jumps": counts["collision.check_jumps"],
        "collision.resolve_calls": calls["collision.resolve"],
        "frames.build_calls": calls["frames.build"],
        "redesign.local_control_calls": calls["redesign.local_control"],
        "redesign.escape_calls": calls["redesign.escape"],
        "hybrid.steps": calls["hybrid.event"],
        "hybrid.records": len(tracer.last_trace.records),
        "hybrid.trace_bytes": trace_bytes,
        "scenario.validate_calls": calls["scenario.validate"],
    }
    return out


def layer_times(tracer: LayerTracer) -> dict[str, float]:
    """Seconds per layer of one traced run."""

    def self_s(layer: str) -> float:
        return tracer.self_ns[layer] / 1e9

    def total_s(name: str) -> float:
        return tracer.total_ns[name] / 1e9

    return {
        **{f"{layer}.self_s": self_s(layer) for layer in SIMULATE_LAYERS},
        "controller.terms_s": total_s("controller.terms"),
        "hybrid.metrics_s": total_s("hybrid.metrics"),
        "hybrid.csv_s": total_s("hybrid.csv"),
        "hybrid.plot_s": total_s("hybrid.plot"),
        "scenario.load_s": total_s("scenario.load"),
        "scenario.validate_s": total_s("scenario.validate"),
        "cli.io_s": self_s("cli"),
        "hybrid.simulate_s": total_s("hybrid.simulate"),
    }


def per_layer(bench, seconds: float, rng) -> dict:
    """Traced `bumpsim run`s for `seconds`, interleaved with untraced
    `simulate` calls that give the tracing overhead."""
    deadline = time.perf_counter() + seconds
    before = originals()
    bench.attempt(bench.timed_simulate)  # warm-up, not timed
    runs: list[tuple[dict, dict]] = []
    plain_s: list[float] = []

    def traced():
        result = traced_run(bench)
        if result is not None:
            runs.append((layer_counts(*result), layer_times(result[0])))
        return result

    def plain():
        result = bench.timed_simulate()
        if result is not None:
            plain_s.append(result[0])
        return result

    calls = [traced, plain]
    while time.perf_counter() < deadline or min(len(runs), len(plain_s)) < MIN_TRACED:
        rng.shuffle(calls)
        for fn in calls:
            bench.attempt(fn)
        if bench.failed:
            break

    ok = True
    if any(now is not then for now, then in zip(originals(), before)):
        print(f"{bench.name}: a wrapped name was not restored", file=sys.stderr)
        ok = False
    # an untraced run after the traced ones must still give the golden
    bench.attempt(bench.timed_run)
    counts = [c for c, _ in runs]
    if any(c != counts[0] for c in counts[1:]):
        print(f"{bench.name}: counts differ between traced runs: {counts}", file=sys.stderr)
        ok = False
    if not (ok and runs and plain_s) or bench.failed:
        return {}

    c = counts[0]
    times = {k: statistics.median(t[k] for _, t in runs) for k in runs[0][1]}
    simulate_s = times.pop("hybrid.simulate_s")
    out = {k: {"value": v, "unit": "count"} for k, v in c.items()}
    out["hybrid.trace_bytes"]["unit"] = "bytes"
    out.update({k: {"value": v, "unit": "s"} for k, v in times.items()})
    out["controller.us_per_call"] = {
        "value": times["controller.self_s"] * 1e6 / max(c["controller.calls"], 1), "unit": "us",
    }
    out["hybrid.event.hit_ratio"] = {
        "value": c["hybrid.event.hits"] / max(c["hybrid.event.calls"], 1), "unit": "ratio",
    }
    out["collision.check_jump_ratio"] = {
        "value": c["collision.check_jumps"] / max(c["collision.check_calls"], 1), "unit": "ratio",
    }
    out["trace_overhead"] = {"value": simulate_s / statistics.median(plain_s), "unit": "ratio"}
    shares = ", ".join(
        f"{layer} {100 * times[f'{layer}.self_s'] / simulate_s:.1f}%" for layer in SIMULATE_LAYERS
    )
    print(
        f"{bench.name}: self-time shares of traced simulate ({simulate_s:.4g} s, "
        f"median of {len(runs)} traced runs): {shares}"
    )
    return dict(sorted(out.items()))
