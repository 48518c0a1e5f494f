"""Static checks of the package's imports and exports, read with ast.

No linter ships with the test dependencies, so a name that a module
imports and never reads, or an export that no longer resolves, is
caught here.
"""

import ast
import pathlib

import pytest

import fliess

PACKAGE = pathlib.Path(fliess.__file__).parent
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def imported_names(tree):
    """Name bound by each import statement at any depth, with its line."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = [f"{path.name}:{line} {name}" for name, line in imported_names(tree) if name not in used]
    assert not unused, f"imported but never used: {unused}"


def test_exports_resolve_once():
    assert len(fliess.__all__) == len(set(fliess.__all__))
    missing = [name for name in fliess.__all__ if not hasattr(fliess, name)]
    assert not missing, f"exported but not defined: {missing}"


def test_generated_code_compiles_in_one_place():
    # every generated evaluator goes through symexpr.compiled_function
    calls = [
        f"{path.name}:{node.lineno}"
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "exec"
    ]
    assert [call.split(":")[0] for call in calls] == ["symexpr.py"], calls
