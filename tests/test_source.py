"""Properties of the package source itself."""

import ast
import importlib
import os
import re
import subprocess
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


def test_bench_workloads_use_names_the_package_has():
    # the bench reaches the package as lib.<module>.<name>; a rename here
    # should fail the tests before it fails a bench run
    source = Path(__file__).parents[1] / "bench" / "workloads.py"
    used = {
        (node.value.attr, node.attr)
        for node in ast.walk(ast.parse(source.read_text(), str(source)))
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Attribute)
        and isinstance(node.value.value, ast.Name) and node.value.value.id == "lib"
    }
    assert used
    missing = [f"{module}.{name}" for module, name in sorted(used)
               if not hasattr(importlib.import_module(f"shlinear.{module}"), name)]
    assert missing == []


def test_importing_the_cli_builds_no_field():
    # every process of the CLI imports it, so work done at import time is
    # paid by every command; field and packing tables are built on first use
    probe = ("from shlinear import cli, gf, linalg; print("
             "gf._cached_field.cache_info().currsize, gf.default_modulus.cache_info().currsize, "
             "linalg._field_tables.cache_info().currsize)")
    src = str(Path(shlinear.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.split() == ["0", "0", "0"]
