"""Method independence, read statically from the package's import statements.

`import tracemoments.X` runs `__init__`, which loads most of the package, so
which module may depend on which is read from the source with `ast` instead.
"""

from __future__ import annotations

import ast
from pathlib import Path

import tracemoments

PACKAGE = Path(tracemoments.__file__).parent


def _package_imports(module: str) -> set[tuple[str, str | None]]:
    """(imported module, enclosing function or None) for every import of a
    sibling module; `from . import X` imports X."""
    found: set[tuple[str, str | None]] = set()

    def visit(node: ast.AST, function: str | None) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if isinstance(node, ast.ImportFrom):
            if node.level:
                base = node.module or ""
            elif (node.module or "").split(".")[0] == "tracemoments":
                base = node.module.partition(".")[2]
            else:
                base = None  # outside the package
            if base == "":
                found.update((alias.name, function) for alias in node.names)
            elif base is not None:
                found.add((base.split(".")[0], function))
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("tracemoments."):
                    found.add((alias.name.split(".")[1], function))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(ast.parse((PACKAGE / f"{module}.py").read_text()), None)
    return found


def _imported(module: str) -> set[str]:
    return {name for name, _ in _package_imports(module)}


def test_the_closed_forms_use_only_the_weights():
    assert _imported("closedform") == {"weights"}


def test_the_oracle_uses_no_other_method():
    assert not _imported("enumeration") & {"closedform", "verify", "montecarlo", "cli"}


def test_the_suites_read_the_oracle_and_closed_forms_directly():
    # no conversion on the weights side stands between a check and the oracle
    assert _imported("verify") == {"closedform", "enumeration", "graphs"}


def test_the_graphs_import_nothing_from_the_package():
    assert _imported("graphs") == set()


def test_monte_carlo_loads_the_oracle_only_for_its_references():
    assert {
        function for name, function in _package_imports("montecarlo")
        if name == "enumeration"
    } == {"oracle_references"}
