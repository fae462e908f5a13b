"""Checks on the package source itself."""

import ast
from collections import defaultdict
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "haarbloom"
TESTS = Path(__file__).resolve().parent


def _trees(*folders):
    for folder in folders:
        for path in sorted(folder.glob("*.py")):
            yield path, ast.parse(path.read_text(), str(path))


def test_no_assert_statements_in_the_package():
    # guards must still run under python -O, which strips assert statements
    found = [f"{path.name}:{node.lineno}"
             for path, tree in _trees(SRC)
             for node in ast.walk(tree)
             if isinstance(node, ast.Assert)]
    assert SRC.is_dir() and not found, found


def test_every_module_level_function_and_class_is_used():
    # a helper that nothing in src/ or tests/ names outside its own body is dead code
    uses = defaultdict(list)
    for path, tree in _trees(SRC, TESTS):
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                uses[node.id].append((path, node.lineno))
            elif isinstance(node, ast.Attribute):
                uses[node.attr].append((path, node.lineno))
    dead = [f"{path.name}:{node.name}"
            for path, tree in _trees(SRC)
            for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and all(where == path and node.lineno <= line <= node.end_lineno
                    for where, line in uses[node.name])]
    assert SRC.is_dir() and not dead, dead
