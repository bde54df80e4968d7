"""Tests for the command-line entry point's argument handling."""

import argparse
import inspect
from pathlib import Path

import pytest

from repro.__main__ import build_parser, main
from repro.experiments import EXPERIMENTS

GOLDEN = Path(__file__).resolve().parents[1] / "GOLDEN.txt"


def test_list_prints_commands(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    for exp in EXPERIMENTS:
        assert exp.name in out


def test_unknown_command_rejected():
    with pytest.raises(SystemExit):
        main(["frobnicate"])


def test_requires_a_command():
    with pytest.raises(SystemExit):
        main([])


def test_option_parsing_defaults():

    # Smoke the parser wiring by reaching into main's parser via a dry run.
    with pytest.raises(SystemExit):
        main(["--seed", "not-a-number", "list"])


def test_each_command_takes_exactly_its_run_parameters():
    parser = build_parser()
    commands = next(
        action.choices for action in parser._actions
        if isinstance(action, argparse._SubParsersAction)
    )
    for exp in EXPERIMENTS:
        flags = {action.dest for action in commands[exp.name]._actions} - {"help"}
        assert flags == set(inspect.signature(exp.run).parameters), exp.name


@pytest.mark.parametrize("argv", [
    ["scalability", "--seed", "5"],
    ["mplayer-qos", "--duration", "20"],
    ["power-cap", "--duration", "5"],
    ["all", "--seed", "2"],
])
def test_a_flag_the_experiment_does_not_read_is_rejected(argv):
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 2


def test_golden_rows_follow_the_table():
    """A table edit without a regenerated GOLDEN.txt fails here."""
    table = [f"{exp.name}[{job.label}]" for exp in EXPERIMENTS for job in exp.golden]
    golden = [
        line.split("]", 1)[0] + "]"
        for line in GOLDEN.read_text().splitlines()
        if not line.startswith("==")
    ]
    assert list(dict.fromkeys(table)) == list(dict.fromkeys(golden))
