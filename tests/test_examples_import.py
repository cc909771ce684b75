"""Every ``examples/*.py`` imports only names the package still exports.

Most examples are too slow to run in the quick suite, so a public name
deleted from :mod:`repro` would leave them silently broken.  This walks
each example's AST and resolves every ``from repro… import name``
without executing the example.
"""

import ast
import importlib
from pathlib import Path

import pytest

EXAMPLES = sorted((Path(__file__).resolve().parents[1] / "examples").glob("*.py"))


def _repro_imports(path):
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            if node.module.split(".")[0] == "repro":
                for alias in node.names:
                    yield node.module, alias.name


def test_examples_exist():
    assert len(EXAMPLES) >= 10


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda p: p.name)
def test_example_imports_resolve(path):
    imports = list(_repro_imports(path))
    assert imports, f"{path.name} imports nothing from repro"
    for module_name, name in imports:
        module = importlib.import_module(module_name)
        if hasattr(module, name):
            continue
        try:  # ``from repro.core import faults`` names a submodule
            importlib.import_module(f"{module_name}.{name}")
        except ModuleNotFoundError:
            pytest.fail(f"{path.name}: `from {module_name} import {name}` does not resolve")
