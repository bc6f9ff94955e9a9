"""Properties of the package source itself."""

import ast
import re
import sys
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


def test_package_depends_on_the_standard_library_alone():
    root = Path(shlinear.__file__).parent
    imported = set()
    for path in sorted(root.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                imported.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.split(".")[0])
    assert imported and sorted(imported - sys.stdlib_module_names) == []
    pyproject = (Path(__file__).parents[1] / "pyproject.toml").read_text()
    assert re.search(r"^dependencies = \[\]$", pyproject, re.M)
