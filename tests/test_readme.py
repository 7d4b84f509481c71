"""The README's library sketch and command lines run, and their comments
state their values."""

from __future__ import annotations

import ast
import json
import re
import shlex
from pathlib import Path

import tracemoments
from tracemoments import cli

README = Path(__file__).parents[1] / "README.md"


def _sketch() -> list[str]:
    """The lines of the python block under "Library sketch"."""
    section = README.read_text().split("## Library sketch", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0].splitlines()


def test_library_sketch_states_its_values():
    # an expression line's comment is its value, read as Python; a statement
    # line runs, and its comment, if any, is a note
    namespace: dict = {}
    checked = 0
    for line in _sketch():
        code, _, comment = line.partition("#")
        if not code.strip():
            continue
        if not isinstance(ast.parse(code).body[0], ast.Expr):
            exec(code, namespace)
            continue
        assert comment.strip(), f"no value stated for {code.strip()!r}"
        expected = eval(comment, {**vars(tracemoments), **namespace})
        assert eval(code, namespace) == expected, line
        checked += 1
    assert checked


def _command_lines() -> list[tuple[list[str], str]]:
    """(argv, comment) per `tracemoments` line of the sh block under "Command
    line"; the comment is the line's own and those of the lines just below."""
    section = README.read_text().split("## Command line", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0].replace("\\\n", " ")
    commands: list[tuple[list[str], str]] = []
    below = False
    for line in block.splitlines():
        code, _, comment = line.partition("#")
        if code.startswith("tracemoments "):
            commands.append((shlex.split(code)[1:], comment))
            below = True
        elif below and not code.strip() and comment:
            commands[-1] = (commands[-1][0], f"{commands[-1][1]} {comment}")
        else:
            below = False
    return commands


def _first_fields(payload: dict) -> dict:
    """The payload's fields, with those of the first item of each list of
    records in it."""
    fields = {}
    for key, value in payload.items():
        if isinstance(value, list) and value and isinstance(value[0], dict):
            fields.update(_first_fields(value[0]))
        else:
            fields[key] = value
    return fields


def test_command_lines_run_and_state_their_fields(capsys):
    fields_checked = cases_checked = 0
    for argv, comment in _command_lines():
        assert cli.main(argv) == 0, argv
        out = capsys.readouterr().out
        fields = re.findall(r'"(\w+)": ("[^"]*"|\d+)', comment)
        if fields:
            shown = _first_fields(json.loads(out))
            for key, value in fields:
                assert shown[key] == json.loads(value), (argv, key)
            fields_checked += len(fields)
        cases = re.search(r"(\d+) \+ (\d+) cases", comment)
        if cases:
            report = json.loads(out)
            counts = [report[part]["cases"] for part in ("mean", "cov")]
            assert counts == [int(count) for count in cases.groups()], argv
            cases_checked += 1
    assert fields_checked and cases_checked
