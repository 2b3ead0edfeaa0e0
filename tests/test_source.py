"""Rules for the library's source text."""

import ast
from pathlib import Path

import retroking

SOURCES = sorted(Path(retroking.__file__).parent.glob("*.py"))


def test_library_holds_no_assert():
    # python -O strips assert statements, and a check written as one with them
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert SOURCES
    assert found == []


def _compares_with_tol(node):
    return any(
        isinstance(c, ast.Compare)
        and any(isinstance(x, ast.Name) and x.id == "TOL" for x in [c.left, *c.comparators])
        for c in ast.walk(node)
    )


def test_tolerance_verdicts_come_from_within():
    # one pass rule for every tolerance check: reporting.within, not a
    # `deviation < TOL` spelled out at each Check
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        if path.name != "reporting.py"
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "Check"
        and any(_compares_with_tol(arg) for arg in [*node.args, *node.keywords])
    ]
    assert SOURCES
    assert found == []
