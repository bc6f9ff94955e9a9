"""Properties of the package source itself."""

import ast
from pathlib import Path

import shlinear


def test_no_assert_statements_in_the_package():
    # python -O strips assert statements, so no check in the package may be one
    root = Path(shlinear.__file__).parent
    found = [
        f"{path.relative_to(root)}:{node.lineno}"
        for path in sorted(root.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
