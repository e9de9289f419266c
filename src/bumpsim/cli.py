"""Command-line front end: run scenarios, compare modes, emit artifacts.

Exit codes: 0 on a completed run, 2 for unreadable/invalid scenarios,
3 for a run that ends in a fatal fault (the jump cap, or any error of
`hybrid.FAULTS`), which still writes every output file.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .hybrid import SimMode, metrics, simulate, write_plot_csv, write_trace_csv
from .scenario import Scenario, ScenarioError, load_scenario, validate_scenario

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_FAULT = 3


def _load_and_validate(args: argparse.Namespace) -> Scenario | None:
    """Load the scenario, apply the --dt/--t-max overrides, then validate."""
    path = args.scenario
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        print(f"error: cannot read scenario {path}: {exc}", file=sys.stderr)
        return None
    try:
        scenario = load_scenario(text)
    except ScenarioError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return None
    overrides = {"dt": args.dt, "t_max": args.t_max}
    scenario = scenario._replace(**{k: v for k, v in overrides.items() if v is not None})
    violations = validate_scenario(scenario)
    if violations:
        for violation in violations:
            print(f"invalid scenario: {violation}", file=sys.stderr)
        return None
    return scenario


def cmd_run(args: argparse.Namespace) -> int:
    scenario = _load_and_validate(args)
    if scenario is None:
        return EXIT_INVALID
    mode = SimMode(args.mode)

    trace = simulate(scenario, mode)
    args.out.mkdir(parents=True, exist_ok=True)
    summary = metrics(trace)
    trace_path = args.out / "trace.csv"
    if not args.no_trace:
        write_trace_csv(trace, trace_path)
    payload = summary.to_dict()
    payload["mode"] = mode.value
    (args.out / "metrics.json").write_text(
        json.dumps(payload, indent=2) + "\n", encoding="utf-8"
    )
    # The plot files copy trace.csv's sample cells: read back what was just
    # written, or format only those cells from the trace's sample columns.
    plots = {rid: args.out / f"plot_robot{rid}.csv" for rid in sorted(scenario.robot_ids())}
    if args.no_trace:
        write_plot_csv(trace, plots)
    else:
        with open(trace_path, encoding="utf-8", newline="\n") as lines:
            write_plot_csv(lines, plots)

    for rid, m in sorted(summary.robots.items()):
        status = f"reached at t={m.completion_time:.3f}s" if m.reached else "not reached"
        print(f"robot {rid}: {status}, {m.collisions} collision(s)")
    if summary.fault:
        reasons = list(summary.fault_reasons)
        shown = "; ".join(reasons[:3])
        if len(reasons) > 3:
            shown += f"; ... ({len(reasons)} records total)"
        print(f"simulation fault: {shown}", file=sys.stderr)
        return EXIT_FAULT
    return EXIT_OK


def _mode_metrics(scenario: Scenario, mode: SimMode) -> dict:
    summary = metrics(simulate(scenario, mode))
    out = summary.to_dict()
    out["completed"] = all(m.reached for m in summary.robots.values()) and not summary.fault
    return out


def cmd_compare(args: argparse.Namespace) -> int:
    scenario = _load_and_validate(args)
    if scenario is None:
        return EXIT_INVALID

    baseline = _mode_metrics(scenario, SimMode.PREDEFINED_ONLY)
    redesigned = _mode_metrics(scenario, SimMode.REDESIGNED)
    deltas = {
        "collisions": {
            rid: baseline["robots"][rid]["collisions"] - redesigned["robots"][rid]["collisions"]
            for rid in redesigned["robots"]
        },
        "completed": {"predefined": baseline["completed"], "redesigned": redesigned["completed"]},
    }

    args.out.mkdir(parents=True, exist_ok=True)
    payload = {"predefined": baseline, "redesigned": redesigned, "deltas": deltas}
    (args.out / "compare.json").write_text(
        json.dumps(payload, indent=2) + "\n", encoding="utf-8"
    )

    completed = redesigned["completed"]
    print(f"redesigned completed: {completed}; baseline completed: {baseline['completed']}")
    return EXIT_OK if completed else EXIT_FAULT


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bumpsim",
        description="Simulate two unicycle robots with allowable collisions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--scenario", required=True, type=Path, help="scenario JSON file")
    shared.add_argument("--dt", type=float, default=None, help="integration step override [s]")
    shared.add_argument("--t-max", type=float, default=None, help="horizon override [s]")
    shared.add_argument("--out", required=True, type=Path, help="output directory")

    run = sub.add_parser("run", parents=[shared], help="run one scenario in one mode")
    run.add_argument(
        "--mode",
        choices=[m.value for m in SimMode],
        default=SimMode.REDESIGNED.value,
        help="controller mode (default: redesigned)",
    )
    run.add_argument("--no-trace", action="store_true", help="skip writing trace.csv")
    sub.add_parser("compare", parents=[shared], help="run both modes and diff the metrics")

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "run":
        return cmd_run(args)
    return cmd_compare(args)


if __name__ == "__main__":
    sys.exit(main())
