import numpy as np
import pytest

from cosetcode.factorgraph import (
    AffineCheck,
    FactorGraph,
    InconsistencyError,
    TableFactor,
    build_coset_graph,
    exact_marginals,
    sum_product,
)
from cosetcode.gf import GF
from cosetcode.sparsemat import SparseMatrix

GF2 = GF(2)
GF3 = GF(3)


def dense(arr, field):
    return SparseMatrix.from_dense(np.array(arr), field)


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------

def test_build_coset_graph_shapes():
    A = dense([[1, 1]], GF2)
    g = build_coset_graph(A, [0], np.full((2, 2), 0.5))
    assert g.n == 2 and g.q == 2
    singles = [f for f in g.factors if isinstance(f, TableFactor)]
    checks = [f for f in g.factors if isinstance(f, AffineCheck)]
    assert len(singles) == 2 and len(checks) == 1
    assert checks[0].scope == (0, 1)


def test_build_coset_graph_l_zero_and_identity():
    priors = np.array([[0.2, 0.8], [0.7, 0.3]])
    A0 = SparseMatrix(0, 2, GF2, [])
    g0 = build_coset_graph(A0, [], priors)
    assert len(g0.factors) == 2
    res = sum_product(g0, max_iters=3)
    assert np.allclose(res.marginals, priors)
    I = dense(np.eye(2, dtype=int), GF2)
    gi = build_coset_graph(I, [1, 0], priors)
    res = sum_product(gi, max_iters=5)
    assert np.allclose(res.marginals, [[0, 1], [1, 0]])


# ---------------------------------------------------------------------------
# exact oracle
# ---------------------------------------------------------------------------

def test_exact_marginals_uniform_symmetry():
    A = dense([[1, 1]], GF2)
    g = build_coset_graph(A, [0], np.full((2, 2), 0.5))
    m = exact_marginals(g)
    assert np.allclose(m, 0.5)


def test_exact_marginals_hand_enumeration():
    # priors Bern(0.3) iid, check x1+x2=0 over GF(2): support {00, 11}
    A = dense([[1, 1]], GF2)
    priors = np.array([[0.7, 0.3], [0.7, 0.3]])
    g = build_coset_graph(A, [0], priors)
    m = exact_marginals(g)
    assert m[0, 0] == pytest.approx(0.49 / 0.58)
    assert m[1, 0] == pytest.approx(0.49 / 0.58)


def test_exact_marginals_contradiction():
    checks = [AffineCheck((0,), [1], 0, 2), AffineCheck((0,), [1], 1, 2)]
    g = FactorGraph(1, 2, checks)
    with pytest.raises(InconsistencyError):
        exact_marginals(g)


def test_exact_marginals_cap():
    g = FactorGraph(30, 2, [])
    with pytest.raises(ValueError):
        exact_marginals(g)


# ---------------------------------------------------------------------------
# sum-product
# ---------------------------------------------------------------------------

def test_chain_tree_matches_oracle():
    # chain of 3 vars with 2 pairwise checks: cycle-free
    priors = np.array([[0.6, 0.4], [0.2, 0.8], [0.5, 0.5]])
    A = dense([[1, 1, 0], [0, 1, 1]], GF2)
    g = build_coset_graph(A, [1, 0], priors)
    res = sum_product(g, max_iters=10)
    assert res.converged
    assert np.max(np.abs(res.marginals - exact_marginals(g))) < 1e-12


def test_no_checks_marginals_equal_priors():
    priors = np.array([[0.25, 0.75], [0.9, 0.1]])
    A = SparseMatrix(0, 2, GF2, [])
    g = build_coset_graph(A, [], priors)
    res = sum_product(g)
    assert np.allclose(res.marginals, priors)


def test_identity_checks_point_mass():
    priors = np.full((3, 3), 1 / 3)
    I = dense(np.eye(3, dtype=int), GF3)
    c = [2, 0, 1]
    res = sum_product(build_coset_graph(I, c, priors))
    want = np.zeros((3, 3))
    want[np.arange(3), c] = 1.0
    assert np.allclose(res.marginals, want)


def random_tree_coset_graph(rng, q, field):
    """Random cycle-free graph: each check introduces fresh variables."""
    n_seed = int(rng.integers(1, 3))
    scopes = []
    n = n_seed
    for _ in range(int(rng.integers(1, 4))):
        w = int(rng.integers(1, 4))
        anchor = int(rng.integers(0, n)) if rng.integers(2) else None
        fresh = [n + i for i in range(w)]
        n += w
        scope = ([anchor] if anchor is not None else []) + fresh
        if len(scope) >= 1:
            scopes.append(scope)
    if q ** n > 2 ** 20 or n > 10:
        return None
    rows = []
    for scope in scopes:
        rows.append([(v, int(rng.integers(1, q))) for v in scope])
    A = SparseMatrix(len(rows), n, field, rows)
    x_star = rng.integers(0, q, size=n)
    c = A.mat_vec(x_star)
    priors = rng.dirichlet(np.ones(q), size=n)
    return build_coset_graph(A, c, priors)


@pytest.mark.parametrize("q", [2, 3, 5])
def test_random_trees_exact_within_n_iterations(q):
    field = GF(q)
    rng = np.random.default_rng(100 + q)
    done = 0
    while done < 25:
        g = random_tree_coset_graph(rng, q, field)
        if g is None:
            continue
        res = sum_product(g, max_iters=g.n, tol=0.0)
        assert np.max(np.abs(res.marginals - exact_marginals(g))) < 1e-10
        done += 1


def test_damping_zero_reproduces_fixed_point_iteration():
    priors = np.array([[0.6, 0.4], [0.2, 0.8], [0.5, 0.5]])
    A = dense([[1, 1, 0], [0, 1, 1]], GF2)
    g = build_coset_graph(A, [1, 0], priors)
    r1 = sum_product(g, max_iters=7, damping=0.0, tol=0.0)
    r2 = sum_product(g, max_iters=7, damping=0.0, tol=0.0)
    assert np.array_equal(r1.marginals, r2.marginals)


def test_relabeling_invariance():
    rng = np.random.default_rng(42)
    q = 3
    priors = rng.dirichlet(np.ones(q), size=5)
    rows = [[(0, 1), (2, 2)], [(1, 1), (3, 1), (4, 2)]]
    A = SparseMatrix(2, 5, GF3, rows)
    c = [1, 2]
    base = sum_product(build_coset_graph(A, c, priors), max_iters=20, tol=0.0)
    perm = np.array([3, 0, 4, 1, 2])  # new index of each old variable
    inv = np.argsort(perm)
    rows_p = [[(int(perm[v]), a) for v, a in row] for row in rows]
    A_p = SparseMatrix(2, 5, GF3, rows_p)
    res_p = sum_product(build_coset_graph(A_p, c, priors[inv]), max_iters=20, tol=0.0)
    assert np.allclose(res_p.marginals[perm], base.marginals, atol=1e-12)


def test_contradictory_constraints_raise():
    g = FactorGraph(2, 2, [
        TableFactor((0,), np.array([0.5, 0.5])),
        TableFactor((1,), np.array([0.5, 0.5])),
        AffineCheck((0,), [1], 0, 2),
        AffineCheck((0,), [1], 1, 2),
    ])
    with pytest.raises(InconsistencyError):
        sum_product(g, max_iters=5)


def test_messages_stay_normalized():
    # indirect check: marginals from a loopy graph still sum to one
    rng = np.random.default_rng(7)
    A = dense(rng.integers(0, 2, size=(4, 6)), GF2)
    x_star = rng.integers(0, 2, size=6)
    priors = rng.dirichlet(np.ones(2), size=6)
    g = build_coset_graph(A, A.mat_vec(x_star), priors)
    res = sum_product(g, max_iters=50)
    assert np.allclose(res.marginals.sum(axis=1), 1.0, atol=1e-12)


def test_table_factor_multivariate_matches_oracle():
    rng = np.random.default_rng(8)
    table = rng.random((2, 2, 2))
    g = FactorGraph(3, 2, [
        TableFactor((0, 1, 2), table),
        TableFactor((0,), np.array([0.3, 0.7])),
    ])
    res = sum_product(g, max_iters=10)
    assert np.max(np.abs(res.marginals - exact_marginals(g))) < 1e-10
