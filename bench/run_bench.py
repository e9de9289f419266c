"""End-to-end and per-layer benchmark for bumpsim.

Usage (from the repository root):

    python3 bench/run_bench.py --workload crossing --seed 1 --seconds 55 --trace 0
    python3 bench/run_bench.py --workload all --seconds 55 --trace 0

Each workload is a shipped scenario at its shipped `dt` in one mode, so the
inputs are fixed; the seed only shuffles the order of the timed calls in
each round.  The loop is closed: one call at a time, on one thread.

`--trace 0` measures the end-to-end metrics with no tracing: wall time of an
in-process `bumpsim run`, of `simulate` alone, microseconds per integration
step, set-up time of a fresh interpreter, and the peak resident memory of a
`bumpsim run` child process.  Each time is scaled by the host's speed at that
moment, as measured by the reference loop in `reference.py`.
`--trace 1` runs `bumpsim run` under `LayerTracer` and reports per-layer
self times and exact counts.  Every call's output is checked against the
golden SHA-256 hashes below; a mismatch or an exception counts as failed.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.  Exits 2 without a result
when the engine sources or scenarios are missing.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

# Child interpreters see only the engine sources, not the caller's settings.
CHILD_ENV = {"PYTHONPATH": str(SRC)}
MIN_REPS = 3
# Set-up children per timed set-up call; one child is too short a sample.
SETUP_BATCH = 5


@dataclass(frozen=True)
class Workload:
    scenario: str
    mode: str
    exit_code: int
    trace_sha256: str
    metrics_sha256: str


# Golden outputs of `bumpsim run` at the shipped dt.  If a change alters the
# bits on purpose, it updates these hashes and says why.
WORKLOADS = {
    # Headline case: two contacts and escapes, both robots reach at ~19.71 s.
    # Controller-heavy (five pairs); event detection takes the miss path.
    "crossing": Workload(
        scenario="scenarios/crossing.json",
        mode="redesigned",
        exit_code=0,
        trace_sha256="7341f4ca42d9d5a58d63dc8cc98d9bb870e9cec6cde2d95146821150488a9763",
        metrics_sha256="2e00dee1d14cfc64f57b873271fa433d20534cebf0b6e7b05463ab63b8b6972f",
    ),
    # Same scene without the redesign: deadlock, 1500 collision records,
    # then the jump cap ends it with a fatal fault and exit 3 (expected).
    # Bisection, jumps and collision resolution dominate.
    "chatter": Workload(
        scenario="scenarios/crossing.json",
        mode="predefined",
        exit_code=3,
        trace_sha256="ebd6b1937cf2dd0d4cd34dc932cd8fab8335668298430efae332784efd2aad50",
        metrics_sha256="4699cba88cf6782e6524ef39e68ebad88aa8418a72336a413c85ad1f327e6e18",
    ),
    # No obstacles and no contact: jumps and event hits are zero, so a
    # change to events, collision or redesign must show no change here.
    "open_field": Workload(
        scenario="scenarios/open_field.json",
        mode="redesigned",
        exit_code=0,
        trace_sha256="cdf0773ee23946c244575e4d1b592d724fc200abf11c223b5edd53509918653b",
        metrics_sha256="b05f3509046dc09a6965218ffdc865327abe1381794679bd011fd36116ffba09",
    ),
}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class Bench:
    """One workload's inputs, golden checks and attempt counters."""

    def __init__(self, name: str, work_dir: Path) -> None:
        from bumpsim import cli
        from bumpsim.hybrid import SimMode
        from bumpsim.scenario import load_scenario

        self.name = name
        self.wl = WORKLOADS[name]
        self.scenario_path = ROOT / self.wl.scenario
        self.mode = SimMode(self.wl.mode)
        self.scenario = load_scenario(self.scenario_path.read_text(encoding="utf-8"))
        self.out_dir = work_dir / "out"
        self.cli_main = cli.main
        self.attempted = 0
        self.failed = 0

    def argv(self, out_dir: Path) -> list[str]:
        return [
            "run",
            "--scenario", str(self.scenario_path),
            "--mode", self.wl.mode,
            "--out", str(out_dir),
        ]

    def attempt(self, fn, *args):
        """Call fn, counting it as attempted; an exception or a False check
        counts as failed.  Returns fn's result, or None on failure."""
        self.attempted += 1
        try:
            result = fn(*args)
        except Exception:  # a failing run is data, not the end of the benchmark
            traceback.print_exc(file=sys.stderr)
            result = None
        if result is None:
            self.failed += 1
        return result

    def check_outputs(self, rc: int, out_dir: Path) -> bool:
        trace_hash = sha256((out_dir / "trace.csv").read_bytes())
        metrics_hash = sha256((out_dir / "metrics.json").read_bytes())
        problems = []
        if rc != self.wl.exit_code:
            problems.append(f"exit code {rc}, golden {self.wl.exit_code}")
        if trace_hash != self.wl.trace_sha256:
            problems.append(f"trace.csv sha256 {trace_hash}")
        if metrics_hash != self.wl.metrics_sha256:
            problems.append(f"metrics.json sha256 {metrics_hash}")
        for problem in problems:
            print(f"{self.name}: golden mismatch: {problem}", file=sys.stderr)
        return not problems

    def timed_run(self):
        """Wall seconds of one in-process `bumpsim run`, or None."""
        shutil.rmtree(self.out_dir, ignore_errors=True)
        gc.collect()
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            t0 = time.perf_counter()
            rc = self.cli_main(self.argv(self.out_dir))
            elapsed = time.perf_counter() - t0
        return elapsed if self.check_outputs(rc, self.out_dir) else None

    def check_trace(self, trace) -> bool:
        from bumpsim.hybrid import trace_to_csv

        digest = sha256(trace_to_csv(trace).encode("utf-8"))
        if digest != self.wl.trace_sha256:
            print(f"{self.name}: golden mismatch: simulated trace sha256 {digest}", file=sys.stderr)
            return False
        return True

    def timed_simulate(self):
        """(wall seconds of `simulate`, trace), or None."""
        from bumpsim.hybrid import simulate

        gc.collect()
        t0 = time.perf_counter()
        trace = simulate(self.scenario, self.mode)
        elapsed = time.perf_counter() - t0
        return (elapsed, trace) if self.check_trace(trace) else None

    def peak_memory(self):
        """Peak resident MB of a fresh `python -m bumpsim run` process."""
        # VmHWM belongs to the child's own address space.  Its ru_maxrss
        # would not do: Linux carries the parent's peak across fork and exec.
        code = (
            "import sys\n"
            "from bumpsim.cli import main\n"
            "rc = main(sys.argv[1:])\n"
            "with open('/proc/self/status', encoding='ascii') as fh:\n"
            "    hwm = next(line for line in fh if line.startswith('VmHWM:'))\n"
            "print(hwm.split()[1], file=sys.stderr)\n"
            "sys.exit(rc)\n"
        )
        out_dir = self.out_dir.with_name("mem")
        proc = subprocess.run(
            [sys.executable, "-c", code, *self.argv(out_dir)],
            cwd=ROOT, env=CHILD_ENV, capture_output=True, text=True, timeout=120,
        )
        if not self.check_outputs(proc.returncode, out_dir):
            return None
        return int(proc.stderr.split()[-1]) * 1024 / 1e6

    def setup_time(self):
        """Median seconds, over SETUP_BATCH fresh interpreters, from start to
        a loaded, validated scenario."""
        code = (
            "import sys\n"
            "import bumpsim\n"
            "from bumpsim.scenario import load_scenario, validate_scenario\n"
            "with open(sys.argv[1], encoding='utf-8') as fh:\n"
            "    scenario = load_scenario(fh.read())\n"
            "sys.exit(1 if validate_scenario(scenario) else 0)\n"
        )
        times = []
        for _ in range(SETUP_BATCH):
            t0 = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, "-c", code, str(self.scenario_path)],
                cwd=ROOT, env=CHILD_ENV, capture_output=True, timeout=60,
            )
            times.append(time.perf_counter() - t0)
            if proc.returncode != 0:
                print(f"setup child failed: {proc.stderr.decode(errors='replace')}", file=sys.stderr)
                return None
        return statistics.median(times)


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(bench: Bench, seconds: float, rng: random.Random) -> dict:
    from reference import REFERENCE_S, reference_s
    from tracer import steps_of

    deadline = time.perf_counter() + seconds
    # Warm-up: the first calls pay imports and allocator growth; not timed.
    bench.attempt(bench.timed_run)
    bench.attempt(bench.setup_time)
    peak = bench.attempt(bench.peak_memory)

    # Scaled seconds per kind of call, and the raw wall seconds behind them.
    samples: dict[str, list[float]] = {"run": [], "sim": [], "setup": []}
    wall: dict[str, list[float]] = {kind: [] for kind in samples}
    refs = [reference_s()]
    steps = None

    def sim():
        nonlocal steps
        result = bench.timed_simulate()
        if result is None:
            return None
        if steps is None:
            steps = steps_of(result[1])
        return result[0]

    # One round times each kind of call once, in a seeded order.  Every call
    # sits between two passes of the reference loop, and its time is scaled
    # by their mean, so the host's speed at that moment cancels out.
    calls = [("run", bench.timed_run), ("sim", sim), ("setup", bench.setup_time)]
    while time.perf_counter() < deadline or min(map(len, samples.values())) < MIN_REPS:
        rng.shuffle(calls)
        for kind, fn in calls:
            result = bench.attempt(fn)
            refs.append(reference_s())
            if result is not None:
                wall[kind].append(result)
                samples[kind].append(result * REFERENCE_S * 2 / (refs[-2] + refs[-1]))
        if bench.failed:
            break

    fail_frac = bench.failed / bench.attempted
    if bench.failed:
        return {}
    simulate_s = statistics.median(samples["sim"])
    out = {
        "run_s": metric(statistics.median(samples["run"]), "s"),
        "simulate_s": metric(simulate_s, "s"),
        "us_per_step": metric(simulate_s * 1e6 / steps, "us"),
        "setup_s": metric(statistics.median(samples["setup"]), "s"),
        "peak_mem_mb": metric(peak, "MB"),
    }
    shown = ", ".join(f"{k}={v['value']:.6g} {v['unit']}" for k, v in out.items())
    raw = ", ".join(f"{kind} {statistics.median(v):.6g} s" for kind, v in wall.items())
    counts = ", ".join(f"{kind} {len(v)}" for kind, v in samples.items())
    print(
        f"{bench.name}: {shown}, fail_frac={fail_frac:.6g} (samples: {counts}; steps {steps}; "
        f"unscaled wall medians: {raw}; reference loop median {statistics.median(refs):.6g} s "
        f"against {REFERENCE_S} s)"
    )
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    needed = dict.fromkeys([SRC / "bumpsim" / "__init__.py", *(ROOT / w.scenario for w in WORKLOADS.values())])
    missing = [p for p in needed if not p.is_file()]
    if missing:
        print(f"error: missing engine files: {', '.join(map(str, missing))}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import bumpsim

    if Path(bumpsim.__file__).resolve().parent != SRC / "bumpsim":
        print(f"error: imported bumpsim from {bumpsim.__file__}, not {SRC}", file=sys.stderr)
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    rng = random.Random(args.seed)
    WORK.mkdir(exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(dir=WORK))
    correct = True
    attempted = failed = 0
    results = {}
    try:
        for name in names:
            bench = Bench(name, work_dir)
            if args.trace:
                from tracer import per_layer

                out = per_layer(bench, args.seconds, rng)
            else:
                out = end_to_end(bench, args.seconds, rng)
            correct = correct and bool(out) and bench.failed == 0
            attempted += bench.attempted
            failed += bench.failed
            results[name] = out
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()
    metrics = results[names[0]] if len(names) == 1 else {
        f"{name}.{key}": value for name, out in results.items() for key, value in out.items()
    }
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
