"""Command-line interface.

    twistconn <subcommand> --scenario FILE [--format text|json]
                           [--caps E,D] [--seed N]

Subcommands select check groups: check-axioms, check-hypotheses, theorem,
curvature, report, check-bimodule, or run (the scenario's own list).
Exit codes: 0 all requested checks pass, 1 a counterexample was found,
2 invalid scenario.
"""

from __future__ import annotations

import argparse
import sys

from .forms import Caps
from .rationals import parse_int
from .runner import run_checks
from .scenario import ScenarioError, load_scenario_file

# the check groups each subcommand asks for; the runner adds prerequisites
_COMMANDS: dict[str, list[str] | None] = {
    "check-axioms": ["axioms"],
    "check-hypotheses": ["hypotheses"],
    "theorem": ["leibniz", "theorem"],
    "curvature": ["curvature"],
    "report": ["report"],
    "check-bimodule": ["bimodule"],
    "run": None,
}


def nonnegative_int(text: str) -> int:
    """An ASCII integer >= 0, as the scenario's ``seed:`` key takes it."""
    if parse_int(text) < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {text}")
    return parse_int(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="twistconn",
        description="Exact verification of product connections on twisted "
                    "tensor products of one-variable polynomial calculi.")
    sub = parser.add_subparsers(dest="command", required=True)
    for command in _COMMANDS:
        p = sub.add_parser(command)
        p.add_argument("--scenario", required=True, help="scenario file")
        p.add_argument("--format", choices=("text", "json"), default="text")
        p.add_argument("--caps", metavar="E,D",
                       help="override max_exponent,max_degree")
        p.add_argument("--seed", type=nonnegative_int, help="override the scenario seed")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        scenario = load_scenario_file(args.scenario)
        if args.caps:
            try:
                e_cap, d_cap = (parse_int(v) for v in args.caps.split(","))
            except ValueError:
                raise ScenarioError("--caps expects E,D integers") from None
            if e_cap < 1 or d_cap < 1:
                raise ScenarioError("--caps values must be >= 1")
            scenario.caps = Caps(e_cap, d_cap)
        if args.seed is not None:
            scenario.seed = args.seed
    except (OSError, ScenarioError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    requested = _COMMANDS[args.command]
    extra = []
    if args.command == "theorem":
        if scenario.is_grassmann:
            extra.append("flatness")
        if scenario.s_alt is not None:
            extra.append("independence")
    report = run_checks(scenario, requested + extra
                        if requested is not None else None)
    if args.format == "json":
        sys.stdout.write(report.to_json())
        print(f"elapsed: {report.elapsed:.2f}s", file=sys.stderr)
    else:
        sys.stdout.write(report.to_text())
    return report.exit_code


if __name__ == "__main__":
    sys.exit(main())
