"""Budget hygiene of the library: `sparsemat.DENSE_CAP` is the one
desk-scale budget, so no function takes a cap of its own and no module but
`sparsemat` spells out its value."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "cosetcode"
MODULES = sorted(SRC.glob("*.py"))


def _is_cap(name: str) -> bool:
    return name == "cap" or "_cap" in name or "cap_" in name


def _parameters(tree):
    """(line, name) of every function parameter and of every annotated class
    field, which a dataclass turns into a parameter of __init__."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            a = node.args
            for arg in a.posonlyargs + a.args + a.kwonlyargs + [a.vararg, a.kwarg]:
                if arg is not None:
                    yield arg.lineno, arg.arg
        elif isinstance(node, ast.ClassDef):
            for stmt in node.body:
                if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
                    yield stmt.lineno, stmt.target.id


def _is_two_to_the_twenty(node) -> bool:
    if isinstance(node, ast.Constant):
        return type(node.value) is int and node.value == 2 ** 20
    return (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow)
            and isinstance(node.left, ast.Constant) and node.left.value == 2
            and isinstance(node.right, ast.Constant) and node.right.value == 20)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_cap_parameters(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    caps = [f"line {line}: {name}" for line, name in _parameters(tree) if _is_cap(name)]
    assert not caps, f"{path.name} takes a cap of its own: {caps}"


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "sparsemat.py"],
                         ids=lambda p: p.name)
def test_the_budget_is_spelled_out_only_in_sparsemat(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    found = [f"line {node.lineno}" for node in ast.walk(tree) if _is_two_to_the_twenty(node)]
    assert not found, f"{path.name} spells out 2 ** 20 instead of DENSE_CAP: {found}"
