"""Command-line surface: validate, run, replay.

Exit codes: 0 ok, 2 validation violations, 3 parse error, 4 truncated run.
"""

from __future__ import annotations

import argparse
import sys

from .errors import ScenarioParseError
from .scenario import build_simulation, load_scenario_data, parse_scenario

EXIT_OK = 0
EXIT_VIOLATIONS = 2
EXIT_PARSE_ERROR = 3
EXIT_TRUNCATED = 4


def cmd_validate(args) -> int:
    try:
        data = load_scenario_data(args.scenario)
    except ScenarioParseError as err:
        print(f"parse error: {err}", file=sys.stderr)
        return EXIT_PARSE_ERROR
    _, violations = parse_scenario(data)
    if violations:
        for violation in violations:
            print(f"{violation.code}: {violation.subject}: {violation.detail}")
        print(f"{len(violations)} violation(s)")
        return EXIT_VIOLATIONS
    print("ok")
    return EXIT_OK


def cmd_run(args) -> int:
    try:
        data = load_scenario_data(args.scenario)
    except ScenarioParseError as err:
        print(f"parse error: {err}", file=sys.stderr)
        return EXIT_PARSE_ERROR
    scenario, violations = parse_scenario(data)
    if violations:
        for violation in violations:
            print(f"{violation.code}: {violation.subject}: {violation.detail}")
        return EXIT_VIOLATIONS
    assembly = build_simulation(scenario, seed=args.seed, max_steps=args.max_steps)
    trace = assembly.simulation.run()
    if args.trace_out:
        trace.write(args.trace_out)
    else:
        sys.stdout.writelines(trace.lines())
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
    from .trace import replay_verify

    ok, detail = replay_verify(args.trace_a, args.trace_b)
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
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
