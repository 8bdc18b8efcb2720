"""The package's import graph: each module imports only the modules below
it, and only at module level, so no import cycle can form."""

import ast
from pathlib import Path

import fracdim

LAYERS = ["lp", "graph", "metric", "dimension", "families", "oracles", "harness", "cli"]
SRC = Path(fracdim.__file__).parent


def package_imports(path):
    """(module, line, inside a function) for each ``from .x import`` in path."""
    found = []

    def visit(node, in_def):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ImportFrom) and child.level:
                found.append((child.module, child.lineno, in_def))
            visit(child, in_def or isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)))

    visit(ast.parse(path.read_text(encoding="utf-8")), False)
    return found


def test_modules_import_only_the_layers_below_them():
    for path in sorted(SRC.glob("*.py")):
        for module, line, in_def in package_imports(path):
            where = f"{path.name}:{line} imports .{module}"
            assert not in_def, f"{where} inside a function"
            if path.stem in LAYERS:
                assert module in LAYERS[:LAYERS.index(path.stem)], where


def test_graphs_and_generators_sit_low():
    assert {m for m, _, _ in package_imports(SRC / "graph.py")} == {"lp"}
    assert {m for m, _, _ in package_imports(SRC / "families.py")} == {"graph"}
