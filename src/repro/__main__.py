"""Command-line entry point: regenerate paper artefacts.

Usage::

    python -m repro list                   # every experiment, one line each
    python -m repro all                    # the paper's artefacts: RESULTS.txt
    python -m repro <experiment> [flags]   # one experiment at full scale
    python -m repro <experiment> --help    # the flags it reads

Each command is one row of
:data:`~repro.experiments.registry.EXPERIMENTS`. An experiment's flags
are its ``run`` function's keyword parameters (durations in seconds), so
a flag it does not read is rejected. ``all`` takes no flags: it prints
``RESULTS.txt``, the render of every experiment the table marks
``in_all``.
"""

from __future__ import annotations

import argparse
import inspect
import sys

from .experiments import EXPERIMENTS, get

#: The two lines ``RESULTS.txt`` opens with.
RESULTS_HEADER = "Reproduction results — all tables and figures\n" + "=" * 72


def build_parser() -> argparse.ArgumentParser:
    """One subcommand per experiment, plus ``list`` and ``all``."""
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Reproduce the paper's tables and figures.",
    )
    commands = parser.add_subparsers(dest="command", required=True)
    commands.add_parser("list", help="list the experiments")
    commands.add_parser("all", help="print RESULTS.txt (the paper's experiments)")
    for exp in EXPERIMENTS:
        command = commands.add_parser(exp.name, help=exp.help, description=exp.help)
        for name, parameter in inspect.signature(exp.run).parameters.items():
            command.add_argument(
                f"--{name}", type=type(parameter.default), default=parameter.default,
                help="default: %(default)s",
            )
    return parser


def _emit(exp, **flags) -> None:
    print()
    print(exp.render(exp.run(**flags)))


def main(argv=None) -> int:
    flags = vars(build_parser().parse_args(argv))
    command = flags.pop("command")
    if command == "list":
        width = max(len(exp.name) for exp in EXPERIMENTS)
        for exp in EXPERIMENTS:
            print(f"{exp.name:<{width}}  {exp.help}")
    elif command == "all":
        print(RESULTS_HEADER)
        for exp in EXPERIMENTS:
            if exp.in_all:
                _emit(exp)
    else:
        _emit(get(command), **flags)
    return 0


if __name__ == "__main__":
    sys.exit(main())
