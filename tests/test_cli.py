"""Tests for the command-line entry point's argument handling."""

import pytest

from repro.__main__ import main
from repro.experiments import names


def test_list_prints_commands(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    for name in names():
        assert name in out


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
