"""Import hygiene of the library: modules import each other's public names
only, every import sits at module level where a cycle would show, and every
module has a caller in the library or the benchmark."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "cosetcode"
MODULES = sorted(SRC.glob("*.py"))
# hashstats is the paper's hash-property check, which ROADMAP item 2 needs;
# only the tests run it so far
NO_CALLER_NEEDED = {"hashstats"}


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


def _imported_modules(path):
    """Stems of the cosetcode modules the file imports; a relative import is
    one inside the package, and any import of it runs `__init__`."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            module = ".".join(filter(None, ["cosetcode" if node.level else "", node.module]))
            names = [module] + [f"{module}.{alias.name}" for alias in node.names]
        else:
            continue
        for parts in (name.split(".") for name in names):
            if parts[0] == "cosetcode":
                yield from ["__init__"] + parts[1:2]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_module_has_a_caller(path):
    if path.stem in NO_CALLER_NEEDED:
        return
    callers = [other for other in MODULES if other != path] + sorted((ROOT / "mcbench").glob("*.py"))
    used = {stem for other in callers for stem in _imported_modules(other)}
    assert path.stem in used, f"{path.name} is imported by no other module of src/ or mcbench/"


@pytest.mark.parametrize("name", ["channel", "lossy"])
def test_codes_build_no_sampler_or_graph_of_their_own(name):
    """Both codes reach C_A(c) and the joint cosets through the `CosetPair`
    they extend, which holds one `CosetSampler` per matrix."""
    def callee(call):        # `f(...)` or `module.f(...)`
        return getattr(call.func, "id", getattr(call.func, "attr", None))

    tree = ast.parse((SRC / f"{name}.py").read_text())
    built = [f"line {node.lineno}: {callee(node)}" for node in ast.walk(tree)
             if isinstance(node, ast.Call) and callee(node) in ("CosetSampler", "CosetGraph")]
    assert not built, f"{name}.py builds its own: {built}"
