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
