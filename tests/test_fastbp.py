import numpy as np
import pytest

from cosetcode.factorgraph import build_coset_graph, exact_marginals, sum_product
from cosetcode.fastbp import CosetBP
from cosetcode.gf import GF
from cosetcode.sparsemat import SparseMatrix, sample_sparse_matrix, EnsembleSpec, row_reduce
from cosetcode.streams import stream


def random_instance(rng, q, n, l):
    field = GF(q)
    while True:
        D = rng.integers(0, q, size=(l, n))
        if np.any(D.sum(axis=1)):
            break
    A = SparseMatrix.from_dense(D, field)
    x_star = rng.integers(0, q, size=n)
    c = A.mat_vec(x_star)
    priors = rng.dirichlet(np.full(q, 2.0), size=n)
    return A, c, priors


@pytest.mark.parametrize("q", [2, 3, 5])
def test_matches_reference_engine_trajectory(q):
    rng = np.random.default_rng(200 + q)
    for _ in range(6):
        n = int(rng.integers(3, 8))
        l = int(rng.integers(1, 4))
        A, c, priors = random_instance(rng, q, n, l)
        fast = CosetBP(A, c, priors)
        fast.run(iters=12, tol=0.0)
        ref = sum_product(build_coset_graph(A, c, priors), max_iters=12, tol=0.0)
        assert np.max(np.abs(fast.marginals() - ref.marginals)) < 1e-10


@pytest.mark.parametrize("q", [2, 3])
def test_exact_on_trees(q):
    field = GF(q)
    rng = np.random.default_rng(17 + q)
    for _ in range(10):
        # star checks on disjoint variables: trivially cycle-free
        n = int(rng.integers(4, 9))
        rows, used = [], 0
        while used + 2 <= n:
            w = int(rng.integers(1, 3))
            rows.append([(used + t, int(rng.integers(1, q))) for t in range(w)])
            used += w
        A = SparseMatrix(len(rows), n, field, rows)
        x_star = rng.integers(0, q, size=n)
        c = A.mat_vec(x_star)
        priors = rng.dirichlet(np.ones(q), size=n)
        fast = CosetBP(A, c, priors)
        fast.run(iters=n, tol=0.0)
        graph = build_coset_graph(A, c, priors)
        assert np.max(np.abs(fast.marginals() - exact_marginals(graph))) < 1e-10


def test_conditioning_matches_conditioned_exact_marginals():
    rng = np.random.default_rng(31)
    q = 2
    for _ in range(10):
        n, l = 6, 2
        A, c, priors = random_instance(rng, q, n, l)
        # condition x_0 on a value with positive mass under the coset law
        members = row_reduce(A).members(c)
        if members.shape[0] == 0:
            continue
        v0 = int(members[0, 0])
        fast = CosetBP(A, c, priors)
        assert fast.condition(0, v0)
        fast.run(iters=30, tol=1e-12)
        got = fast.marginals()
        # reference: exact marginals with x_0 pinned by its prior
        pinned = priors.copy()
        pinned[0] = 0.0
        pinned[0, v0] = 1.0
        graph = build_coset_graph(A, c, pinned)
        want = exact_marginals(graph)
        # compare only where BP is exact-ish: use loose tolerance on loopy graphs
        assert got.shape == want.shape
        assert np.allclose(got[0], want[0], atol=1e-12)


def test_condition_detects_contradiction():
    field = GF(2)
    A = SparseMatrix.from_dense(np.array([[1, 0], [1, 1]]), field)
    c = np.array([1, 0])
    bp = CosetBP(A, c, np.full((2, 2), 0.5))
    assert bp.condition(0, 0) is False  # row 0 forces x_0 = 1
    assert bp.failed


def test_immediate_failure_on_empty_violated_row():
    field = GF(2)
    A = SparseMatrix(1, 2, field, [[]])
    bp = CosetBP(A, [1], np.full((2, 2), 0.5))
    assert bp.failed


def test_dead_end_surfaces_under_conditioning():
    field = GF(2)
    # x_0 + x_1 = 0 and x_0 + x_1 = 1: no assignment at all, but the
    # uniform fixed point hides it until a symbol gets pinned
    A = SparseMatrix.from_dense(np.array([[1, 1], [1, 1]]), field)
    bp = CosetBP(A, [0, 1], np.full((2, 2), 0.5))
    assert bp.run(iters=10)
    assert bp.condition(0, 0)          # no single row is violated yet
    ok = bp.run(iters=5)
    assert (not ok and bp.failed) or bp.marginal(1) is None


def test_scaled_instance_runs():
    field = GF(2)
    spec = EnsembleSpec(n=96, l=29, field=field, tau=6)
    A = sample_sparse_matrix(spec, stream(5, 0))
    x_star = stream(5, 1).integers(0, 2, size=96)
    c = A.mat_vec(x_star)
    priors = np.full((96, 2), 0.5)
    bp = CosetBP(A, c, priors)
    assert bp.run(iters=60, tol=1e-9)
    m = bp.marginals()
    assert np.allclose(m.sum(axis=1), 1.0)
