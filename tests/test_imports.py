"""Import hygiene of the library: modules import each other's public names
only, and every import sits at module level where a cycle would show."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "cosetcode"
MODULES = sorted(SRC.glob("*.py"))


def test_the_package_has_modules():
    assert len(MODULES) > 5


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_private_or_function_local_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    private = [f"line {node.lineno}: {alias.name}"
               for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
               for alias in node.names if alias.name.startswith("_")]
    local = [f"line {inner.lineno}"
             for node in ast.walk(tree)
             if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
             for inner in ast.walk(node) if isinstance(inner, (ast.Import, ast.ImportFrom))]
    assert not private, f"{path.name} imports private names: {private}"
    assert not local, f"{path.name} imports inside a function: {local}"
