"""Budget hygiene of the library: `sparsemat.DENSE_CAP` is the one
desk-scale budget, so no function takes a cap of its own, and no module but
`sparsemat` spells out its value or assigns a module-level name with CAP in
it (importing DENSE_CAP reads the one budget; assigning would make a second).
Likewise the sum-product schedule is constants (`sampler.INIT_ITERS`,
`STEP_ITERS`, `RETRIES`, `fastbp.TOL`) and no setting exists that only tests
would turn."""

import ast
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from cosetcode import channel, lossy, sampler
from cosetcode.fastbp import CosetBP, CosetGraph
from cosetcode.gf import GF
from cosetcode.models import bernoulli_source, bsc, hamming_distortion
from cosetcode.sparsemat import EnsembleSpec, SparseMatrix

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


def _module_level_bindings(tree):
    """(line, name) of every name a module-level assignment binds."""
    for stmt in tree.body:
        if isinstance(stmt, ast.Assign):
            targets = stmt.targets
        elif isinstance(stmt, (ast.AnnAssign, ast.AugAssign)):
            targets = [stmt.target]
        else:
            continue
        for target in targets:
            for node in ast.walk(target):
                if isinstance(node, ast.Name):
                    yield node.lineno, node.id


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "sparsemat.py"],
                         ids=lambda p: p.name)
def test_no_module_but_sparsemat_binds_a_cap(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    found = [f"line {line}: {name}" for line, name in _module_level_bindings(tree)
             if "CAP" in name]
    assert not found, f"{path.name} binds a budget of its own instead of reading DENSE_CAP: {found}"


# parameter names of settings that only tests turned: BP damping and
# tolerance, restarts, a decoder mode, an opt-out of the message check
SCHEDULE_NAMES = {"damping", "tol", "retries", "mode", "check_message"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_schedule_parameters(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    found = [f"line {line}: {name}" for line, name in _parameters(tree)
             if name in SCHEDULE_NAMES or name.startswith("sp_")]
    assert not found, f"{path.name} takes a setting that only tests turn: {found}"


def _tiny_codes():
    A = SparseMatrix.from_dense(np.array([[1, 1, 0], [0, 1, 1]]), GF(2))
    B = SparseMatrix.from_dense(np.array([[1, 0, 0]]), GF(2))
    prior = bernoulli_source(0.3, 3)
    return (channel.ChannelCodeSpec(A, B, [0, 0], prior),
            lossy.LossyCodeSpec(A, B, [0, 0], prior, bsc(0.1, 3), hamming_distortion(2), 0.2))


KEYWORD_REFUSED = "unexpected keyword argument '{}'"

# each call with the TypeError message that names the removed setting
REMOVED_SETTINGS = {
    "CosetBP-damping": (lambda ch, lo: CosetBP(CosetGraph(ch.A), ch.c, ch.prior.pmfs, damping=0.5),
                        KEYWORD_REFUSED.format("damping")),
    "run-tol": (lambda ch, lo: CosetBP(CosetGraph(ch.A), ch.c, ch.prior.pmfs).run(5, 1e-3),
                r"takes 2 positional arguments but 3 were given"),
    "decode-mode": (lambda ch, lo: lossy.decode(lo, [0], mode="bp"),
                    KEYWORD_REFUSED.format("mode")),
    "encode-check_message": (lambda ch, lo: channel.encode(
        ch, [0], sampler.SamplerConfig(), np.random.default_rng(0), check_message=False),
        KEYWORD_REFUSED.format("check_message")),
    "EnsembleSpec-seed": (lambda ch, lo: EnsembleSpec(n=4, l=2, field=GF(2), tau=2, seed=1),
                          KEYWORD_REFUSED.format("seed")),
}


@pytest.mark.parametrize("call, message", REMOVED_SETTINGS.values(), ids=REMOVED_SETTINGS.keys())
def test_removed_settings_are_refused(call, message):
    codes = _tiny_codes()
    with pytest.raises(TypeError, match=message):
        call(*codes)


def test_a_gf3_plan_at_rank_12_keeps_at_most_10_mib():
    """Once a stepper has been built on it and its trees read, a GF(3) plan of
    rank 12 over n = 40 columns keeps at most 10 MiB: no shift index of
    q**rank entries per column (81 MiB), only one table of digitwise
    differences over half the digits and the segments' leaves from root 0."""
    rng = np.random.default_rng(12)
    A = SparseMatrix.from_dense(rng.integers(0, 3, size=(12, 40)), GF(3))
    priors = rng.dirichlet(np.ones(3), size=40)
    tracemalloc.start()
    try:
        plan = sampler.TablePlan(A)
        stepper = sampler.ExactStepper(plan, priors)
        for i in range(len(plan.ends)):
            stepper.segment_tree(i, 0)
        del stepper
        kept, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert plan.l == 12 and len(plan.ends) >= 3
    assert kept <= 10 * 2 ** 20, f"the plan keeps {kept / 2 ** 20:.1f} MiB"
