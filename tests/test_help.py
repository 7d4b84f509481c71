"""The CLI's help text, pinned byte for byte at COLUMNS=80.

`cli_help.txt` holds what `tracemoments --help` and `tracemoments <command>
--help` print for every command of `cli._COMMANDS`, each led by a `$ ` line
naming the call.  After an intended change to the help, rewrite it with

    COLUMNS=80 PYTHONPATH=src python3 tests/test_help.py > tests/cli_help.txt
"""

from __future__ import annotations

import contextlib
import io
import re
from pathlib import Path

import pytest

from tracemoments import cli

PINNED = Path(__file__).with_name("cli_help.txt")
CALLS = ((), *((name,) for name in cli._COMMANDS))


def _call(command: tuple[str, ...]) -> str:
    return " ".join(("tracemoments", *command, "--help"))


def help_text(command: tuple[str, ...]) -> str:
    """What `tracemoments <command> --help` prints at the COLUMNS in force."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), pytest.raises(SystemExit, match="^0$"):
        cli.main([*command, "--help"])
    return out.getvalue()


def _pinned() -> dict[str, str]:
    _, *parts = re.split(r"^\$ (.*)\n", PINNED.read_text(), flags=re.MULTILINE)
    return dict(zip(parts[::2], parts[1::2]))


def test_every_command_has_pinned_help():
    assert list(_pinned()) == [_call(command) for command in CALLS]


@pytest.mark.parametrize("command", CALLS, ids=_call)
def test_help_text_is_pinned(monkeypatch, command):
    monkeypatch.setenv("COLUMNS", "80")
    assert help_text(command) == _pinned()[_call(command)]


if __name__ == "__main__":
    for command in CALLS:
        print(f"$ {_call(command)}\n{help_text(command)}", end="")
