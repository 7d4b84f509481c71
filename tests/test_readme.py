"""The README's library sketch runs, and its comments state its values."""

from __future__ import annotations

import ast
from pathlib import Path

import tracemoments

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
