"""Import hygiene of the library: modules import each other's public names
only and touch no other object's private attributes, every import sits at
module level where a cycle would show, and every module, public name and
public member of a public class has a caller in the library or the benchmark."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "cosetcode"
MODULES = sorted(SRC.glob("*.py"))
# hashstats is the paper's hash-property check, which ROADMAP items 3, 7, 11
# and 12 use to check an ensemble's (alpha, beta); only the tests run it so far,
# so no module imports it, and its public names are listed one by one below
NO_CALLER_NEEDED = {"hashstats"}
# public names that only the tests call, one reason each
UNCALLED_BY_DESIGN = {
    "channel.exact_error": "oracle: exact block error at desk scale",
    "lossy.exact_error": "oracle: exact distortion-excess probability at desk scale",
    "sampler.exact_coset_law": "oracle: the restricted prior on the coset",
    "sampler.path_tree_law": "oracle: a stepwise engine's single-pass law",
    "sampler.generate_interval": "the deterministic encoder of omega; the pinned digests use it",
    "channel.simulate": "Monte-Carlo error rate, checked against exact_error",
    "lossy.simulate": "Monte-Carlo distortion excess, checked against exact_error",
    "channel.rate_check": "the paper's achievability conditions",
    "lossy.rate_check": "the paper's achievability conditions",
    "channel.encode": "one-shot encode that checks m lies in Im B",
    "lossy.encode": "the encoder's message m = B x",
    "models.bac": "preset channel for the tests' codes",
    "models.BiAwgnChannel": "the continuous-output channel of the paper's general channels, "
                            "whose outputs the tests decode",
    "models.uniform_source": "preset source for the tests' codes",
    "models.bernoulli_source": "preset source for the tests' codes",
    "stats.binary_entropy": "the tests' statistical gates",
    "stats.chi2_quantile": "the tests' statistical gates",
    "stats.chi_square_stat": "the tests' statistical gates",
    "hashstats.AllLinearEnsemble": "the two-universal reference ensemble: alpha 1, beta 0",
    "hashstats.ExplicitEnsemble": "an ensemble given by its weighted matrices, for hand cases",
    "hashstats.ProductEnsemble": "the independent pair (A, B) that compose_alpha_beta describes",
    "hashstats.alpha_beta": "the paper's (alpha, beta) of an ensemble from its spectrum",
    "hashstats.alpha_beta_direct": "(alpha, beta) from collision probabilities, the cross-check",
    "hashstats.avg_spectrum": "the average spectrum over types that alpha_beta reads",
    "hashstats.check_h3": "the paper's tail condition on collision probabilities",
    "hashstats.check_h3prime": "the tail condition's two-set consequence",
    "hashstats.check_crp": "the paper's collision-resistance bound",
    "hashstats.check_bcp": "the paper's balanced-coloring bound",
    "hashstats.collision_prob": "p(A u = A u') of one pair of words",
    "hashstats.compose_alpha_beta": "(alpha, beta) of an independent product of ensembles",
    "hashstats.default_h_hat": "the default high-weight types over which alpha is the max",
    "hashstats.type_of": "a word's type, for the tests' type-invariance checks",
}
# public members of public classes that only the tests call, one reason each
UNCALLED_MEMBERS_BY_DESIGN = {
    "channel.ErrorStats.as_dict": "a channel run's record in ROADMAP item 8's run report",
    "lossy.DistortionStats.as_dict": "a lossy run's record in ROADMAP item 8's run report",
}


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


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_private_attributes_off_other_objects(path):
    """An attribute whose name starts with _ (dunders aside) is read or set on
    `self` or `cls` alone: `obj._name` reaches past another object's interface,
    as a private import would."""
    tree = ast.parse(path.read_text(), filename=str(path))
    private = [f"line {node.lineno}: {ast.unparse(node)}" for node in ast.walk(tree)
               if isinstance(node, ast.Attribute) and node.attr.startswith("_")
               and not (node.attr.startswith("__") and node.attr.endswith("__"))
               and getattr(node.value, "id", None) not in ("self", "cls")]
    assert not private, f"{path.name} touches private attributes of other objects: {private}"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_assert_statements(path):
    """`python -O` strips assert statements, so every check of the library raises."""
    tree = ast.parse(path.read_text(), filename=str(path))
    asserts = [f"line {node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not asserts, f"{path.name} asserts: {asserts}"


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


def _defined_names(tree):
    """{public name: its definition} for the module-level functions, classes
    and constants of a module."""
    out = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            out[node.name] = node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        out[name.id] = node
    return {name: node for name, node in out.items() if not name.startswith("_")}


def _annotation_nodes(tree) -> set:
    """ids of the nodes inside the type annotations of a module: a name read
    there types a value and calls nothing."""
    notes = [node.annotation for node in ast.walk(tree) if isinstance(node, (ast.arg, ast.AnnAssign))]
    notes += [node.returns for node in ast.walk(tree)
              if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]
    return {id(inner) for note in notes if note is not None for inner in ast.walk(note)}


def _names_read_from(path, stem):
    """Names the file takes from cosetcode module `stem`: `from ... stem import
    name`, or `stem.name` read as an attribute."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[-1] == stem:
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.Attribute):
            owner = node.value
            if getattr(owner, "id", getattr(owner, "attr", None)) == stem:
                yield node.attr


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_public_name_has_a_caller(path):
    """A module-level public name has a caller when its own module uses it
    outside its own definition and outside type annotations, or another file of
    src/ or mcbench/ imports it or reads it as `module.name`; UNCALLED_BY_DESIGN
    lists the rest."""
    tree = ast.parse(path.read_text(), filename=str(path))
    defined = _defined_names(tree)
    notes = _annotation_nodes(tree)
    reads = [node for node in ast.walk(tree) if isinstance(node, ast.Name) and id(node) not in notes]
    used = set()
    for name, node in defined.items():
        inside = {id(inner) for inner in ast.walk(node)}
        if any(read.id == name and id(read) not in inside for read in reads):
            used.add(name)
    others = [other for other in MODULES if other != path] + sorted((ROOT / "mcbench").glob("*.py"))
    used |= {name for other in others for name in _names_read_from(other, path.stem)}
    uncalled = {f"{path.stem}.{name}" for name in defined if name not in used}
    exempt = {key for key in UNCALLED_BY_DESIGN if key.split(".")[0] == path.stem}
    assert not uncalled - exempt, f"public names without a caller: {sorted(uncalled - exempt)}"
    assert not exempt - uncalled, f"exempt names that are gone or now called: {sorted(exempt - uncalled)}"


def _public_members(tree):
    """{"Class.member": its definition} for the public methods, properties and
    classmethods of the module's public classes."""
    return {f"{cls.name}.{node.name}": node
            for cls in tree.body if isinstance(cls, ast.ClassDef) and not cls.name.startswith("_")
            for node in cls.body if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and not node.name.startswith("_")}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_public_member_has_a_caller(path):
    """A public member of a public class has a caller when some file of src/ or
    mcbench/ reads an attribute of its name outside the member's own body, and
    a plain method (no decorator) only where that read is called, `.name(`; by
    name, like the module-level guard.  UNCALLED_MEMBERS_BY_DESIGN lists the rest."""
    trees = {other: ast.parse(other.read_text(), filename=str(other))
             for other in MODULES + sorted((ROOT / "mcbench").glob("*.py"))}
    nodes = [node for tree in trees.values() for node in ast.walk(tree)]
    reads = [read for read in nodes if isinstance(read, ast.Attribute)]
    called = {id(call.func) for call in nodes if isinstance(call, ast.Call)}
    members = _public_members(trees[path])      # the same nodes as `reads` holds
    used = set()
    for key, node in members.items():
        name, inside = key.split(".")[1], {id(inner) for inner in ast.walk(node)}
        if any(read.attr == name and id(read) not in inside
               and (node.decorator_list or id(read) in called) for read in reads):
            used.add(key)
    uncalled = {f"{path.stem}.{key}" for key in members if key not in used}
    exempt = {key for key in UNCALLED_MEMBERS_BY_DESIGN if key.split(".")[0] == path.stem}
    assert not uncalled - exempt, f"public members without a caller: {sorted(uncalled - exempt)}"
    assert not exempt - uncalled, f"exempt members that are gone or now called: {sorted(exempt - uncalled)}"


@pytest.mark.parametrize("name", ["channel", "lossy"])
def test_codes_build_no_sampler_or_graph_of_their_own(name):
    """Both codes reach C_A(c) and the joint cosets through the `CosetPair`
    they extend, which holds one `CosetSampler` per matrix and reads both
    ranks and Im B off the stacked echelon: neither code eliminates a matrix."""
    def callee(call):        # `f(...)` or `module.f(...)`
        return getattr(call.func, "id", getattr(call.func, "attr", None))

    own = ("CosetSampler", "CosetGraph", "row_reduce")
    tree = ast.parse((SRC / f"{name}.py").read_text())
    built = [f"line {node.lineno}: {callee(node)}" for node in ast.walk(tree)
             if isinstance(node, ast.Call) and callee(node) in own]
    assert not built, f"{name}.py builds its own: {built}"
