"""Command-line surface: validate, run, replay.

Exit codes: 0 ok, 1 traces differ, 2 violations, 3 a file unreadable or unwritable, 4 truncated.
"""

from __future__ import annotations

import argparse
import contextlib
import sys

from .errors import ScenarioParseError
from .scenario import build_simulation, load_scenario_data, parse_scenario
from .trace import replay_verify

EXIT_OK = 0
EXIT_VIOLATIONS = 2
EXIT_FILE_ERROR = 3
EXIT_TRUNCATED = 4


def _parse_printing_violations(path):
    scenario, violations = parse_scenario(load_scenario_data(path))
    for violation in violations:
        print(f"{violation.code}: {violation.subject}: {violation.detail}")
    return scenario, violations


def cmd_validate(args) -> int:
    _, violations = _parse_printing_violations(args.scenario)
    if violations:
        print(f"{len(violations)} violation(s)")
        return EXIT_VIOLATIONS
    print("ok")
    return EXIT_OK


def cmd_run(args) -> int:
    scenario, violations = _parse_printing_violations(args.scenario)
    if violations:
        return EXIT_VIOLATIONS
    try:
        # opened before the run, so that an unwritable path fails at once
        out = (open(args.trace_out, "w", encoding="utf-8") if args.trace_out
               else contextlib.nullcontext(sys.stdout))
        with out as handle:
            assembly = build_simulation(scenario, seed=args.seed, max_steps=args.max_steps)
            trace = assembly.simulation.run()
            trace.write_to(handle)
    except OSError as err:
        print(f"cannot write trace: {err}", file=sys.stderr)
        return EXIT_FILE_ERROR
    terminal = {
        i.instance_id: i.status for i in assembly.process.instances.values()
    }
    print(f"instances: {terminal}", file=sys.stderr)
    print(f"trace records: {len(trace)}", file=sys.stderr)
    if assembly.simulation.truncated:
        print("run truncated at max steps", file=sys.stderr)
        return EXIT_TRUNCATED
    return EXIT_OK


def cmd_replay(args) -> int:
    try:
        ok, detail = replay_verify(args.trace_a, args.trace_b)
    except OSError as err:
        print(f"cannot read trace: {err}", file=sys.stderr)
        return EXIT_FILE_ERROR
    print(detail)
    return EXIT_OK if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="ctxflow",
        description="Context-aware process execution simulator",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    validate = commands.add_parser("validate", help="check a scenario file")
    validate.add_argument("scenario")
    validate.set_defaults(func=cmd_validate)

    run = commands.add_parser("run", help="run a scenario to completion")
    run.add_argument("scenario")
    run.add_argument("--trace-out", help="write the trace to a file")
    run.add_argument("--seed", type=int, default=None, help="override the scenario seed")
    run.add_argument("--max-steps", type=int, default=None)
    run.set_defaults(func=cmd_run)

    replay = commands.add_parser("replay", help="byte-compare two traces")
    replay.add_argument("trace_a")
    replay.add_argument("trace_b")
    replay.set_defaults(func=cmd_replay)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ScenarioParseError as err:  # the scenario file is not JSON
        print(f"parse error: {err}", file=sys.stderr)
        return EXIT_FILE_ERROR


if __name__ == "__main__":
    sys.exit(main())
