import numpy as np
import pytest

from cosetcode import channel, fastbp, lossy, sampler
from cosetcode.fastbp import CosetBP, CosetGraph
from cosetcode.gf import GF
from cosetcode.models import MemorylessSource, bernoulli_source, bsc, hamming_distortion
from cosetcode.sampler import EncodingError, exact_coset_law
from cosetcode.sparsemat import (DENSE_CAP, EnsembleSpec, SparseMatrix, row_reduce,
                                 sample_sparse_matrix)
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


def coset_marginals(A, c, priors) -> np.ndarray:
    """Exact (n, q) marginals of the product prior restricted to C_A(c)."""
    members, law = exact_coset_law(A, c, priors)
    return np.stack([np.bincount(members[:, v], weights=law, minlength=A.field.q)
                     for v in range(A.cols)])


def dense(arr, field):
    return SparseMatrix.from_dense(np.array(arr), field)


@pytest.mark.parametrize("q", [2, 3, 5])
def test_matches_reference_engine_trajectory(q):
    rng = np.random.default_rng(200 + q)
    for _ in range(6):
        n = int(rng.integers(3, 8))
        l = int(rng.integers(1, 4))
        A, c, priors = random_instance(rng, q, n, l)
        fast, ref = CosetBP(CosetGraph(A), c, priors), FloodingReference(A, c, priors)
        for _ in range(12):         # twelve iterations whether or not they converge
            fast.run(1)
            ref.run(1)
        assert np.max(np.abs(fast.marginals() - ref.marginals())) < 1e-10


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
            rows.append(np.zeros(n, dtype=np.int64))
            rows[-1][used:used + w] = [rng.integers(1, q) for _ in range(w)]
            used += w
        A = dense(rows, field)
        x_star = rng.integers(0, q, size=n)
        c = A.mat_vec(x_star)
        priors = rng.dirichlet(np.ones(q), size=n)
        fast = CosetBP(CosetGraph(A), c, priors)
        for _ in range(n):
            fast.run(1)
        assert np.max(np.abs(fast.marginals() - coset_marginals(A, c, priors))) < 1e-10


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
        fast = CosetBP(CosetGraph(A), c, priors)
        assert fast.condition(0, v0)
        for _ in range(30):
            fast.run(1)
        got = fast.marginals()
        # reference: exact marginals with x_0 pinned by its prior
        pinned = priors.copy()
        pinned[0] = 0.0
        pinned[0, v0] = 1.0
        want = coset_marginals(A, c, pinned)
        # compare only where BP is exact-ish: use loose tolerance on loopy graphs
        assert got.shape == want.shape
        assert np.allclose(got[0], want[0], atol=1e-12)


def test_condition_detects_contradiction():
    field = GF(2)
    A = SparseMatrix.from_dense(np.array([[1, 0], [1, 1]]), field)
    c = np.array([1, 0])
    bp = CosetBP(CosetGraph(A), c, np.full((2, 2), 0.5))
    assert bp.condition(0, 0) is False  # row 0 forces x_0 = 1
    assert bp.failed


def test_immediate_failure_on_empty_violated_row():
    field = GF(2)
    A = dense([[0, 0]], field)
    bp = CosetBP(CosetGraph(A), [1], np.full((2, 2), 0.5))
    assert bp.failed


def test_dead_end_surfaces_under_conditioning():
    field = GF(2)
    # x_0 + x_1 = 0 and x_0 + x_1 = 1: no assignment at all, but the
    # uniform fixed point hides it until a symbol gets pinned
    A = SparseMatrix.from_dense(np.array([[1, 1], [1, 1]]), field)
    bp = CosetBP(CosetGraph(A), [0, 1], np.full((2, 2), 0.5))
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
    bp = CosetBP(CosetGraph(A), c, priors)
    assert bp.run(iters=60)
    m = bp.marginals()
    assert np.allclose(m.sum(axis=1), 1.0)


# ---------------------------------------------------------------------------
# small graphs against the coset law
# ---------------------------------------------------------------------------


def test_coset_marginals_hand_enumeration():
    # priors Bern(0.3) iid, check x1 + x2 = 0 over GF(2): support {00, 11}
    A = dense([[1, 1]], GF(2))
    m = coset_marginals(A, [0], np.array([[0.7, 0.3], [0.7, 0.3]]))
    assert m[0, 0] == pytest.approx(0.49 / 0.58)
    assert m[1, 0] == pytest.approx(0.49 / 0.58)


def test_coset_marginals_uniform_symmetry():
    A = dense([[1, 1]], GF(2))
    assert np.allclose(coset_marginals(A, [0], np.full((2, 2), 0.5)), 0.5)


def test_chain_tree_matches_oracle():
    # chain of 3 vars with 2 pairwise checks: cycle-free
    priors = np.array([[0.6, 0.4], [0.2, 0.8], [0.5, 0.5]])
    A = dense([[1, 1, 0], [0, 1, 1]], GF(2))
    bp = CosetBP(CosetGraph(A), [1, 0], priors)
    assert bp.run(iters=10)
    assert np.max(np.abs(bp.marginals() - coset_marginals(A, [1, 0], priors))) < 1e-12


def test_no_checks_marginals_equal_priors():
    priors = np.array([[0.25, 0.75], [0.9, 0.1]])
    bp = CosetBP(CosetGraph(dense(np.zeros((0, 2)), GF(2))), [], priors)
    assert bp.run(iters=3)
    assert np.allclose(bp.marginals(), priors)


def test_identity_checks_point_mass():
    for q, c in ((2, [1, 0]), (3, [2, 0, 1])):
        I = dense(np.eye(len(c), dtype=int), GF(q))
        bp = CosetBP(CosetGraph(I), c, np.full((len(c), q), 1 / q))
        bp.run(iters=5)
        assert np.allclose(bp.marginals(), np.eye(q)[c])


def test_no_checks_and_identity_checks_on_shared_priors():
    # l = 0 leaves the priors; GF(2) identity checks override them
    priors = np.array([[0.2, 0.8], [0.7, 0.3]])
    bp = CosetBP(CosetGraph(dense(np.zeros((0, 2)), GF(2))), [], priors)
    assert bp.run(iters=3)
    assert np.allclose(bp.marginals(), priors)
    bp = CosetBP(CosetGraph(dense(np.eye(2, dtype=int), GF(2))), [1, 0], priors)
    bp.run(iters=5)
    assert np.allclose(bp.marginals(), [[0, 1], [1, 0]])


def random_tree(rng, field):
    """Random cycle-free (A, c, priors): each check brings in fresh variables
    and maybe one old one; None past 10 variables."""
    q = field.q
    n = int(rng.integers(1, 3))
    entries, checks = [], int(rng.integers(1, 4))     # (row, column, coefficient)
    for i in range(checks):
        w = int(rng.integers(1, 4))
        anchor = [int(rng.integers(0, n))] if rng.integers(2) else []
        entries += [(i, v, int(rng.integers(1, q))) for v in anchor + list(range(n, n + w))]
        n += w
    if n > 10:
        return None
    A = SparseMatrix(checks, n, field, *np.array(entries).T)
    return A, A.mat_vec(rng.integers(0, q, size=n)), rng.dirichlet(np.ones(q), size=n)


@pytest.mark.parametrize("q", [2, 3, 5])
def test_random_trees_exact_within_n_iterations(q):
    rng = np.random.default_rng(100 + q)
    done = 0
    while done < 25:
        tree = random_tree(rng, GF(q))
        if tree is None:
            continue
        A, c, priors = tree
        bp = CosetBP(CosetGraph(A), c, priors)
        for _ in range(A.cols):
            bp.run(1)
        assert not bp.failed
        assert np.max(np.abs(bp.marginals() - coset_marginals(A, c, priors))) < 1e-10
        done += 1


def test_relabeling_invariance():
    rng = np.random.default_rng(42)
    q = 3
    priors = rng.dirichlet(np.ones(q), size=5)
    D = np.array([[1, 0, 2, 0, 0], [0, 1, 0, 1, 2]])
    c = [1, 2]
    base = CosetBP(CosetGraph(dense(D, GF(q))), c, priors)
    perm = np.array([3, 0, 4, 1, 2])  # new index of each old variable
    D_p = np.zeros_like(D)
    D_p[:, perm] = D
    moved = CosetBP(CosetGraph(dense(D_p, GF(q))), c, priors[np.argsort(perm)])
    for _ in range(20):
        base.run(1)
        moved.run(1)
    assert np.allclose(moved.marginals()[perm], base.marginals(), atol=1e-12)


def test_contradictory_checks_zero_the_marginal():
    # x_0 = 0 and x_0 = 1: BP converges with no failure flag, and the
    # contradiction shows as an all-zero belief
    A = dense([[1, 0], [1, 0]], GF(2))
    bp = CosetBP(CosetGraph(A), [0, 1], np.full((2, 2), 0.5))
    assert bp.run(iters=5) and not bp.failed
    assert bp.marginal(0) is None


def test_exact_coset_law_refuses_contradictory_checks():
    A = dense([[1, 0], [1, 0]], GF(2))
    with pytest.raises(EncodingError, match="coset is empty"):
        exact_coset_law(A, [0, 1], np.full((2, 2), 0.5))


def test_messages_stay_normalized():
    # indirect check: marginals from a loopy graph still sum to one
    rng = np.random.default_rng(7)
    A = dense(rng.integers(0, 2, size=(4, 6)), GF(2))
    bp = CosetBP(CosetGraph(A), A.mat_vec(rng.integers(0, 2, size=6)),
                 rng.dirichlet(np.ones(2), size=6))
    bp.run(iters=50)
    assert np.allclose(bp.marginals().sum(axis=1), 1.0, atol=1e-12)


def products_pass_marginals(bp) -> np.ndarray:
    """marginals() from a fresh variables.products pass over the current messages."""
    full = bp.prior_t * bp.graph.variables.products(np.where(bp.active, bp.sigma, 1.0))
    sums = full.sum(axis=0)
    full[:, sums <= 0] = 1.0 / bp.q
    out = (full / np.where(sums > 0, sums, 1.0)).T.copy()
    pinned = np.flatnonzero(bp.fixed >= 0)
    out[pinned] = np.eye(bp.q)[bp.fixed[pinned]]
    return out


@pytest.mark.parametrize("q", [2, 3])
def test_marginals_reuse_the_last_variable_pass(q):
    """Bit for bit after a run, after condition() and on a clone.  A fixed
    variable reads as its point mass whatever its product, so the kept pass
    is also held to the fresh one: after condition() it must not be stale."""
    rng = np.random.default_rng(60 + q)
    for _ in range(8):
        A, x_star, c, priors = oracle_instance(rng, q, 9, 5, 0.5, pinned=False)
        bp = CosetBP(CosetGraph(A), c, priors)

        def check(state):
            assert np.array_equal(state.marginals(), products_pass_marginals(state))
            if state.kept is not None:
                fresh = state.graph.variables.products(np.where(state.active, state.sigma, 1.0))
                assert np.array_equal(state.graph.variables.products(*state.kept), fresh)

        bp.run(3)
        assert bp.kept is not None
        check(bp)
        other = bp.clone()
        v = int(rng.integers(9))
        assert bp.condition(v, int(x_star[v]))
        check(bp)
        check(other)
        other.run(2)
        check(other)
        bp.run(2)
        check(bp)


def noisy_instance(rng, q, n, l, p, bare=True):
    """An ensemble matrix over GF(q), with `bare` its last column emptied, a
    word x_star, c = A x_star, and priors of 0.85 on a copy of x_star whose
    symbols each change with probability p."""
    D = sample_sparse_matrix(EnsembleSpec(n=n, l=l, field=GF(q), tau=4), rng).to_dense()
    if bare:
        D[:, -1] = 0
    A = SparseMatrix.from_dense(D, GF(q))
    x_star = rng.integers(0, q, size=n)
    noisy = (x_star + (rng.random(n) < p) * rng.integers(1, q, size=n)) % q
    priors = np.full((n, q), 0.15 / (q - 1))
    priors[np.arange(n), noisy] = 0.85
    return A, x_star, A.mat_vec(x_star), priors


def fresh_decision(bp, kept):
    """The hard decision of a variable pass of bp, recomputed: the first
    argmax of prior times full product, fixed variables at their value."""
    x_hat = np.argmax(bp.prior_t * bp.graph.variables.products(*kept), axis=0)
    pinned = bp.fixed >= 0
    x_hat[pinned] = bp.fixed[pinned]
    return x_hat


@pytest.mark.parametrize("q", [2, 3, 5])
def test_hard_decision_is_the_first_argmax(q):
    """Ties go to the first maximum, as np.argmax reads them, also on the
    strided transpose of an (n, q) marginals table."""
    rng = np.random.default_rng(60 + q)
    for n in (1, 7, 200):
        beliefs = rng.integers(0, 3, size=(q, n)) / 2.0     # many ties, all-zero columns
        assert np.array_equal(fastbp.hard_decision(beliefs), np.argmax(beliefs, axis=0))
        table = rng.dirichlet(np.ones(q), size=n)
        table[::3, -1] = table[::3, 0]
        got = fastbp.hard_decision(table.T)
        assert got.dtype == np.int64 and np.array_equal(got, np.argmax(table, axis=1))


@pytest.mark.parametrize("q", [2, 3, 5])
def test_member_test_keeps_the_fresh_syndrome(q, monkeypatch):
    """At every iteration of a member-stopped run the kept syndrome is
    A x_hat - c at the checks with edges, for x_hat recomputed from the
    variable pass, and the run stops where a run(1) loop with a fresh full
    check stops.  Non-unit coefficients for q > 2, half the codes with a
    variable without edges, and every other state conditioned on part of
    x_star."""
    tests = []
    real = CosetBP._member_test

    def spy(bp, idle):
        in_coset = real(bp, idle)

        def recorded(incoming, excl):
            member = in_coset(incoming, excl)
            tests.append((bp.kept, bp.syndrome, member))
            return member
        return recorded

    monkeypatch.setattr(CosetBP, "_member_test", spy)
    rng = np.random.default_rng(70 + q)
    n, l = 60, 30
    updates = members = 0
    for trial in range(16):
        A, x_star, c, priors = noisy_instance(rng, q, n, l, 0.05 + 0.05 * (trial % 3),
                                              bare=trial % 4 < 2)
        assert q == 2 or np.any(A.coeffs > 1)
        graph = CosetGraph(A)
        bp, ref = CosetBP(graph, c, priors), CosetBP(graph, c, priors)
        if trial % 2:
            for v in rng.choice(n - 1, size=8, replace=False):
                assert bp.condition(v, x_star[v]) and ref.condition(v, x_star[v])
            assert not np.all(bp.active)
        tests.clear()
        stopped = bp.run(fastbp.DECODE_ITERS, until_member=True)
        assert len(tests) == bp.iterations
        for i, (kept, syndrome, member) in enumerate(tests):
            fresh = (A.mat_vec(fresh_decision(bp, kept)) - c) % q
            assert np.array_equal(syndrome, fresh[graph.f_deg > 0])
            assert member == (not fresh.any())
            updates += i > 0 and not np.array_equal(syndrome, tests[i - 1][1])
        members += tests[-1][2]

        settled = member = False
        while ref.iterations < fastbp.DECODE_ITERS and not (settled or member):
            settled = ref.run(1)
            member = not np.any((A.mat_vec(fresh_decision(ref, ref.kept)) - c) % q)
        assert (ref.iterations, settled or member) == (bp.iterations, stopped)
        assert np.array_equal(ref.marginals(), bp.marginals())
    assert updates > 20 and 0 < members < 16


@pytest.mark.parametrize("q", [2, 3])
def test_a_decode_allocates_no_conditioning_arrays(q):
    """A decoder's state shares the graph's read-only active, degree and
    fixed arrays and keeps its priors once, in (q, n) layout; after a member
    stop its marginals are the member test's belief, normalised.  The first
    condition() copies the shared arrays, and a clone of a conditioned state
    owns copies of its own."""
    rng = np.random.default_rng(90 + q)
    A, x_star, c, priors = noisy_instance(rng, q, 40, 20, 0.1)
    graph = CosetGraph(A)
    bp = CosetBP(graph, c, priors)
    shared = {"active": graph.all_active, "active_deg": graph.f_deg, "fixed": graph.unfixed}
    assert all(getattr(bp, name) is array for name, array in shared.items())
    assert not any(array.flags.writeable for array in shared.values())
    assert bp.prior_t.flags.c_contiguous and np.array_equal(bp.prior_t, priors.T)
    bp.run(fastbp.DECODE_ITERS, until_member=True)
    assert all(getattr(bp, name) is array for name, array in shared.items())
    assert bp.belief is not None
    assert np.array_equal(bp.marginals(), products_pass_marginals(bp))

    state = CosetBP(graph, c, priors)
    assert state.condition(3, int(x_star[3]))
    copy = state.clone()
    for name in CosetBP._OWNED:
        assert getattr(state, name) is not getattr(bp, name)
        assert getattr(copy, name) is not getattr(state, name)
        assert np.array_equal(getattr(copy, name), getattr(state, name))
    assert copy.condition(5, int(x_star[5]))
    assert state.fixed[5] == -1 and bp.fixed[5] == -1 and graph.unfixed[5] == -1
    assert state.active_deg.sum() > copy.active_deg.sum()


def test_states_on_one_target_write_only_their_own_arrays():
    """Two decodes and a sampler's states on one graph and one target share
    the graph's output index, and pi starts as the state's prior; no
    condition() or clone() on one state changes another's out_idx, pi or
    targets, the sampler's restarts from `base.clone()` included."""
    rng = np.random.default_rng(81)
    A, x_star, c, priors = noisy_instance(rng, 3, 40, 20, 0.1)
    graph = CosetGraph(A)
    first, second, base = (CosetBP(graph, c, priors) for _ in range(3))
    assert first.out_idx is second.out_idx is base.out_idx
    assert first.pi is first.prior_e
    first.run(fastbp.DECODE_ITERS, until_member=True)
    base.run(sampler.INIT_ITERS)
    states = [first, second, base]

    def leaves_the_others(actor, action):
        others = [s for s in states if s is not actor]
        before = [(s.out_idx.copy(), s.pi.copy(), s.targets.copy()) for s in others]
        action()
        for s, (out_idx, pi, targets) in zip(others, before):
            assert np.array_equal(s.out_idx, out_idx) and np.array_equal(s.pi, pi)
            assert np.array_equal(s.targets, targets)

    def draw(state, symbols):
        """A sampler pass: fix symbols in order, running between them."""
        for v in symbols:
            assert state.condition(v, x_star[v])
            state.run(sampler.STEP_ITERS)

    for _ in range(2):                        # a draw, then a restart
        restart = base.clone()
        leaves_the_others(restart, lambda: draw(restart, range(12)))
    states.append(restart)
    leaves_the_others(None, lambda: draw(second.clone(), range(12)))
    leaves_the_others(second, lambda: draw(second, [20]))
    leaves_the_others(None, lambda: draw(restart.clone(), range(12, 24)))
    fresh = CosetBP(graph, c, priors)
    assert np.array_equal(graph.target_state(c)[0], graph.out_index(c))
    assert all(np.array_equal(s.prior_e, fresh.prior_e) for s in states)


# ---------------------------------------------------------------------------
# the symbol-major kernel against the edge-major flooding kernel it replaced
# ---------------------------------------------------------------------------


class FloodingReference:
    """The (E, q) edge-major flooding kernel the symbol-major CosetBP replaced."""

    def __init__(self, A: SparseMatrix, c, priors):
        q = A.field.q
        self.q = q
        self.n = A.cols
        self.l = A.rows
        priors = np.asarray(priors, dtype=float)
        if priors.shape != (self.n, q):
            raise ValueError("priors must be (n, q)")
        self.priors = priors.copy()
        c = np.asarray(c, dtype=np.int64) % q
        if c.shape != (self.l,):
            raise ValueError("target length mismatch")
        self.targets = c.copy()

        # flat edge arrays in CSR (factor-major) order
        self.e_var = A.col_idx.copy()
        self.e_factor = A.row_of.copy()
        self.e_coeff = A.coeffs.copy()
        self.E = int(self.e_var.size)
        deg = np.diff(A.indptr)
        self.e_pos = np.concatenate([np.arange(d) for d in deg]) if self.E else \
            np.zeros(0, dtype=np.int64)
        self.f_deg = deg
        self.active_deg = deg.copy()
        self.D = int(deg.max()) if self.l else 0

        # variable-side grouping
        order = np.argsort(self.e_var, kind="stable")
        self.v_edges = order
        self.v_deg = np.bincount(self.e_var, minlength=self.n)
        self.Dv = int(self.v_deg.max()) if self.E else 0
        self.ve_pos = np.concatenate([np.arange(d) for d in self.v_deg]) if self.E else \
            np.zeros(0, dtype=np.int64)
        self.ve_var = self.e_var[order]
        bounds = np.concatenate([[0], np.cumsum(self.v_deg)])
        self.var_edge_list = [order[bounds[v]:bounds[v + 1]] for v in range(self.n)]

        # DFT matrices; real Hadamard for q = 2, complex roots of unity otherwise
        if q == 2:
            self.W = np.array([[1.0, 1.0], [1.0, -1.0]])
            self.Winv = self.W / 2.0
            self._cdtype = np.float64
        else:
            j, k = np.meshgrid(np.arange(q), np.arange(q), indexing="ij")
            w = np.exp(-2j * np.pi / q)
            self.W = w ** (j * k)
            self.Winv = np.conj(self.W) / q
            self._cdtype = np.complex128
        inv_table = GF(q).inv_table
        # IDX_IN[e, v] = coeff^-1 * v: scaled[e, a*x] = pi[e, x]
        invc = inv_table[self.e_coeff]
        self.idx_in = (invc[:, None] * np.arange(q)[None, :]) % q
        self.neg_cx = (-self.e_coeff[:, None] * np.arange(q)[None, :]) % q

        self.active = np.ones(self.E, dtype=bool)
        self.fixed = np.full(self.n, -1, dtype=np.int64)
        self.pi = self.priors[self.e_var].copy()
        self.sigma = np.full((self.E, q), 1.0 / q)
        self.failed = False
        self.iterations = 0

        bad = np.nonzero((self.f_deg == 0) & (self.targets != 0))[0]
        if bad.size:
            self.failed = True

    def clone(self) -> "FloodingReference":
        """Copy of the mutable message state; structure arrays are shared."""
        other = object.__new__(FloodingReference)
        other.__dict__.update(self.__dict__)
        for name in ("targets", "active", "active_deg", "fixed", "pi", "sigma"):
            setattr(other, name, getattr(self, name).copy())
        return other

    # -- conditioning ------------------------------------------------------

    def condition(self, v: int, value: int) -> bool:
        """Fix x_v = value; returns False on an immediate contradiction."""
        if self.fixed[v] >= 0:
            raise ValueError(f"variable {v} already fixed")
        self.fixed[v] = value
        ok = True
        for e in self.var_edge_list[v]:
            if not self.active[e]:
                continue
            f = self.e_factor[e]
            self.targets[f] = (self.targets[f] - self.e_coeff[e] * value) % self.q
            self.active[e] = False
            self.pi[e] = 0.0
            self.pi[e, value] = 1.0
            self.active_deg[f] -= 1
            if self.active_deg[f] == 0 and self.targets[f] != 0:
                ok = False
        if not ok:
            self.failed = True
        return ok

    # -- message passing ---------------------------------------------------

    def run(self, iters: int) -> bool:
        """Up to `iters` flooding iterations; True once no message moves by TOL."""
        if self.failed:
            return False
        if self.E == 0:
            return True
        q, E = self.q, self.E
        for _ in range(iters):
            self.iterations += 1
            # factor side: sigma from pi
            scaled = np.take_along_axis(self.pi, self.idx_in, axis=1)
            scaled[~self.active] = 0.0
            scaled[~self.active, 0] = 1.0
            F = scaled.astype(self._cdtype) @ self.W.T
            P = np.ones((self.l, self.D, q), dtype=self._cdtype)
            P[self.e_factor, self.e_pos] = F
            cp = np.cumprod(P, axis=1)
            prefix = np.ones_like(P)
            prefix[:, 1:] = cp[:, :-1]
            rcp = np.cumprod(P[:, ::-1], axis=1)[:, ::-1]
            suffix = np.ones_like(P)
            suffix[:, :-1] = rcp[:, 1:]
            excl = prefix * suffix
            G = excl[self.e_factor, self.e_pos]
            conv = (G @ self.Winv).real if self._cdtype is np.complex128 else G @ self.Winv
            np.clip(conv, 0.0, None, out=conv)
            idx_out = (self.targets[self.e_factor][:, None] + self.neg_cx) % q
            sig_new = np.take_along_axis(conv, idx_out, axis=1)
            sums = sig_new.sum(axis=1)
            dead = (sums <= 0) & self.active
            if np.any(dead):
                self.failed = True
                return False
            safe = np.where(sums > 0, sums, 1.0)
            sig_new = sig_new / safe[:, None]
            sig_new[~self.active] = 1.0 / q
            delta = float(np.abs(sig_new - self.sigma)[self.active].max()) \
                if np.any(self.active) else 0.0
            self.sigma = sig_new

            # variable side: pi from sigma
            V = np.ones((self.n, self.Dv, q))
            sig_by_var = self.sigma[self.v_edges]
            act_by_var = self.active[self.v_edges]
            sig_by_var = np.where(act_by_var[:, None], sig_by_var, 1.0)
            V[self.ve_var, self.ve_pos] = sig_by_var
            cp = np.cumprod(V, axis=1)
            prefix = np.ones_like(V)
            prefix[:, 1:] = cp[:, :-1]
            rcp = np.cumprod(V[:, ::-1], axis=1)[:, ::-1]
            suffix = np.ones_like(V)
            suffix[:, :-1] = rcp[:, 1:]
            excl = (prefix * suffix)[self.ve_var, self.ve_pos]
            pi_new = self.priors[self.ve_var] * excl
            sums = pi_new.sum(axis=1)
            dead = (sums <= 0) & act_by_var
            if np.any(dead):
                self.failed = True
                return False
            safe = np.where(sums > 0, sums, 1.0)
            pi_new = pi_new / safe[:, None]
            upd = np.zeros_like(self.pi)
            upd[self.v_edges] = pi_new
            keep = ~self.active
            upd[keep] = self.pi[keep]
            self.pi = upd
            if delta < fastbp.TOL:
                return True
        return False

    # -- readout -------------------------------------------------------------

    def marginal(self, v: int):
        """Belief for x_v, or None when it is all zero (dead end)."""
        if self.fixed[v] >= 0:
            out = np.zeros(self.q)
            out[self.fixed[v]] = 1.0
            return out
        g = self.priors[v].copy()
        for e in self.var_edge_list[v]:
            if self.active[e]:
                g = g * self.sigma[e]
        s = g.sum()
        if s <= 0:
            return None
        return g / s

    def marginals(self) -> np.ndarray:
        V = np.ones((self.n, max(self.Dv, 1), self.q))
        if self.E:
            sig_by_var = np.where(self.active[self.v_edges][:, None],
                                  self.sigma[self.v_edges], 1.0)
            V[self.ve_var, self.ve_pos] = sig_by_var
        g = self.priors * V.prod(axis=1)
        sums = g.sum(axis=1)
        zero = sums <= 0
        g[zero] = 1.0 / self.q
        sums = np.where(zero, 1.0, sums)
        out = g / sums[:, None]
        for v in np.nonzero(self.fixed >= 0)[0]:
            out[v] = 0.0
            out[v, self.fixed[v]] = 1.0
        return out


def oracle_instance(rng, q, n, l, density, pinned):
    """Random A with some empty and some single-entry rows, c in Im A, and
    Dirichlet priors of which some are point masses if `pinned`."""
    D = rng.integers(1, q, size=(l, n)) * (rng.random((l, n)) < density)
    if l >= 3:
        D[0] = 0                                  # a check of degree 0
        D[1] = 0
        D[1, rng.integers(n)] = rng.integers(1, q)  # a check of degree 1
    A = SparseMatrix.from_dense(D, GF(q))
    x_star = rng.integers(0, q, size=n)
    priors = rng.dirichlet(np.full(q, 0.7), size=n)
    if pinned:                                      # exact zeros make dead ends
        rows = rng.random(n) < 0.3
        priors[rows] = np.eye(q)[rng.integers(0, q, size=int(rows.sum()))]
    return A, x_star, A.mat_vec(x_star), priors


def drive(bp, rng, x_star, q, readouts):
    """Condition variables in a random order, sometimes off x_star, running
    between; yields (what, outputs...) for every call along the way."""
    def run(iters):
        before = bp.failed
        return "run", before, bp.run(iters), bp.failed

    def readout():
        return ("read", bp.marginals(), [bp.marginal(v) for v in range(bp.n)]) \
            if readouts else ("read",)

    yield run(int(rng.integers(1, 8)))
    rng.integers(3)                 # a run tolerance was drawn here; runs now read TOL
    yield readout()
    for v in rng.permutation(bp.n)[: int(rng.integers(1, bp.n + 1))]:
        value = int(x_star[v]) if rng.random() < 0.8 else int(rng.integers(q))
        yield "condition", bp.condition(int(v), value)
        yield run(int(rng.integers(1, 5)))
        rng.integers(2)
        yield readout()


def outcome(step) -> str:
    """What a driven call showed: convergence, a failure, a dead end, ..."""
    if step[0] == "run":
        _, before, flag, after = step
        return "converged" if flag else "failed in run" if after and not before else "ran"
    if step[0] == "condition":
        return "condition" if step[1] else "contradiction"
    return "dead end" if len(step) > 1 and any(m is None for m in step[2]) else "read"


def assert_agree(new, ref, atol):
    assert new.iterations == ref.iterations
    assert new.failed == ref.failed
    assert np.array_equal(new.active, ref.active)
    assert np.array_equal(new.targets, ref.targets)
    for got, want in ((new.sigma.T, ref.sigma), (new.pi.T, ref.pi)):
        if atol == 0:
            assert np.array_equal(got, want)
        else:
            np.testing.assert_allclose(got, want, rtol=0, atol=atol)


def assert_same_output(got, want, atol):
    if isinstance(got, (bool, np.bool_, str)) or got is None:
        assert got == want
    elif isinstance(got, tuple | list):
        assert len(got) == len(want)
        for a, b in zip(got, want):
            assert_same_output(a, b, atol)
    else:
        assert want is not None and got.shape == want.shape
        if atol == 0:
            assert np.array_equal(got, want)
        else:
            np.testing.assert_allclose(got, want, rtol=0, atol=atol)


@pytest.mark.parametrize("q, atol", [(2, 0.0), (3, 1e-12), (5, 1e-12)])
def test_matches_flooding_reference(q, atol):
    """GF(2) bit for bit, GF(q > 2) within round-off; same flags and counts.

    Covers checks of degree 0 and 1, conditioning (inactive edges,
    contradictions, dead ends) and clones run apart from their base.  Over
    GF(q > 2) the DFT leaks ~1e-16 mass onto infeasible symbols (ROADMAP
    item 4), and a message or belief made only of such mass normalises to
    anything in either kernel; so there priors stay strictly positive, and
    the readouts are left to the messages they are computed from.
    """
    rng = np.random.default_rng(500 + q)
    steps, outcomes = 0, set()
    for trial in range(30):
        n, l = int(rng.integers(2, 12)), int(rng.integers(1, 8))
        A, x_star, c, priors = oracle_instance(rng, q, n, l, rng.choice([0.2, 0.5, 0.9]),
                                               pinned=q == 2)
        rng.integers(3)             # a damping was drawn here; no kernel damps
        seed = int(rng.integers(2 ** 32))
        graph = CosetGraph(A)
        new, ref = CosetBP(graph, c, priors), FloodingReference(A, c, priors)
        assert new.E == ref.E
        for got, want in zip(drive(new, np.random.default_rng(seed), x_star, q, q == 2),
                             drive(ref, np.random.default_rng(seed), x_star, q, q == 2)):
            assert_same_output(got, want, atol)
            assert_agree(new, ref, atol)
            steps += 1
            outcomes.add(outcome(got))
        # a clone of a conditioned state runs apart from its base
        new_c, ref_c = new.clone(), ref.clone()
        for _ in range(3):
            assert new_c.run(1) == ref_c.run(1)
        assert_agree(new_c, ref_c, atol)
        assert_agree(new, ref, atol)
    assert steps > 300
    assert {"converged", "ran", "contradiction"} <= outcomes
    assert q > 2 or {"failed in run", "dead end"} <= outcomes


def test_matches_flooding_reference_on_decoder_sized_graph():
    """Decodes of a rate-1/2 ensemble code over a BSC."""
    spec = EnsembleSpec(n=256, l=128, field=GF(2), tau=6)
    A = sample_sparse_matrix(spec, stream(41, 0))
    graph = CosetGraph(A)
    for t in range(6):
        rng = stream(41, 1, t)
        x = rng.integers(0, 2, size=256)
        flips = rng.random(256) < 0.06
        priors = np.where((x ^ flips)[:, None] == np.arange(2), 0.94, 0.06)
        new = CosetBP(graph, A.mat_vec(x), priors)
        ref = FloodingReference(A, A.mat_vec(x), priors)
        assert new.run(fastbp.DECODE_ITERS) == ref.run(fastbp.DECODE_ITERS)
        assert_agree(new, ref, 0.0)
        assert np.array_equal(new.marginals(), ref.marginals())


def test_hidden_dead_end_matches_reference():
    # x_0 + x_1 = 0 and x_0 + x_1 = 1: BP hides the contradiction until x_0 is fixed
    A = SparseMatrix.from_dense(np.array([[1, 1], [1, 1]]), GF(2))
    new = CosetBP(CosetGraph(A), [0, 1], np.full((2, 2), 0.5))
    ref = FloodingReference(A, [0, 1], np.full((2, 2), 0.5))
    for bp in (new, ref):
        assert bp.run(iters=10)
        assert bp.condition(0, 0)
        assert bp.run(iters=5) and not bp.failed
        assert bp.marginal(1) is None
    assert_agree(new, ref, 0.0)
    assert np.array_equal(new.marginals(), ref.marginals())


# ---------------------------------------------------------------------------
# one graph per matrix
# ---------------------------------------------------------------------------


@pytest.fixture
def graph_builds(monkeypatch):
    """Counts CosetGraph constructions (the matrix each was built for)."""
    built = []
    real = CosetGraph.__init__

    def counting(self, A):
        built.append(A)
        real(self, A)

    monkeypatch.setattr(fastbp.CosetGraph, "__init__", counting)
    return built


def test_decode_bp_builds_the_graph_once_per_spec(graph_builds):
    n = 48
    specs = [channel.sample_code(n, 24, 12, 4, GF(2), bernoulli_source(0.5, n), seed=s)
             for s in (1, 2)]
    assert graph_builds == []                 # nothing is built at set-up
    ch = bsc(0.02, n)
    for spec in specs:
        for t in range(4):
            rng = stream(9, t)
            m = spec.random_message(rng)
            x = channel.ChannelEncoder(spec, sampler.SamplerConfig()).encode(m, rng)
            channel.decode_bp(spec, ch.sample(x, rng), ch)
    assert graph_builds == [specs[0].A, specs[1].A]


def lossy_spec(n, l, k, seed):
    A = sample_sparse_matrix(EnsembleSpec(n=n, l=l, field=GF(2), tau=2), stream(seed, 1))
    B = sample_sparse_matrix(EnsembleSpec(n=n, l=k, field=GF(2), tau=2), stream(seed, 2))
    c = A.mat_vec(stream(seed, 3).integers(0, 2, size=n))
    return lossy.LossyCodeSpec(A, B, c, bernoulli_source(0.3, n), bsc(0.11, n),
                               hamming_distortion(2), 0.2)


def searched_lossy_spec():
    """A small lossy code whose stacked map is rank deficient."""
    return next(s for s in (lossy_spec(10, 4, 4, seed) for seed in range(50))
                if s.ech_stacked.rank < s.n)


def test_lossy_decode_builds_a_graph_only_for_bp(graph_builds):
    solved = next(s for s in (lossy_spec(8, 4, 6, seed) for seed in range(50))
                  if s.ech_stacked.rank == s.n)
    searched = searched_lossy_spec()
    rng = stream(3, 0)
    for spec in (solved, searched):
        for _ in range(3):
            x = row_reduce(spec.A).random_member(spec.c, rng)
            assert lossy.decode(spec, spec.B.mat_vec(x)) is not None
    assert graph_builds == []                 # solves and enumeration run no BP
    big = lossy_spec(48, 12, 12, seed=0)      # stacked rank <= 24: >= 2**24 joint members
    assert big.q ** (big.n - big.ech_stacked.rank) > DENSE_CAP
    for _ in range(3):                        # refused before any enumeration
        x = row_reduce(big.A).random_member(big.c, rng)
        lossy.decode(big, big.B.mat_vec(x))
    assert graph_builds == [big.stacked]


def test_lossy_decode_takes_bp_only_above_the_dense_cap(graph_builds, monkeypatch):
    spec = searched_lossy_spec()
    size = spec.q ** (spec.n - spec.ech_stacked.rank)
    x = row_reduce(spec.A).random_member(spec.c, stream(3, 1))
    m = spec.B.mat_vec(x)
    monkeypatch.setattr(lossy, "DENSE_CAP", size)         # at the cap: enumeration
    members = spec.ech_stacked.members(np.concatenate([spec.c, m]))
    assert members.shape[0] == size
    assert any(np.array_equal(lossy.decode(spec, m), row) for row in members)
    assert graph_builds == []
    monkeypatch.setattr(lossy, "DENSE_CAP", size - 1)     # one member past it: BP
    lossy.decode(spec, m)
    assert graph_builds == [spec.stacked]


def test_lossy_decode_above_the_cap_completes_the_bp_argmax_to_a_member():
    big = lossy_spec(48, 12, 12, seed=0)
    ech = big.ech_stacked
    assert big.q ** (big.n - ech.rank) > DENSE_CAP
    rng = stream(3, 0)
    for _ in range(5):
        m = big.B.mat_vec(row_reduce(big.A).random_member(big.c, rng))
        target = np.concatenate([big.c, m])
        x_hat = lossy.decode(big, m)
        assert x_hat is not None and np.array_equal(big.stacked.mat_vec(x_hat), target)
        bp = CosetBP(big.joint.graph, target, big.x_marginals)
        bp.run(fastbp.DECODE_ITERS)
        argmax = np.argmax(bp.marginals(), axis=1)
        assert not np.array_equal(big.stacked.mat_vec(argmax), target)   # not a member
        assert np.array_equal(x_hat[ech.free], argmax[ech.free])


def test_sum_product_encoder_reuses_its_graph_and_early_stop(graph_builds, monkeypatch):
    ranks = []
    real = sampler.suffix_ranks
    monkeypatch.setattr(sampler, "suffix_ranks", lambda rev: ranks.append(rev) or real(rev))
    n, q = 32, 3
    prior = MemorylessSource(np.tile([0.7, 0.15, 0.15], (n, 1)))
    spec = channel.sample_code(n, 12, 4, 6, GF(q), prior, seed=3)
    encoder = channel.ChannelEncoder(spec, sampler.SamplerConfig(method="sum-product"))
    rng = stream(4, 0)
    for _ in range(5):
        m = spec.random_message(rng)
        x = encoder.encode(m, rng)
        assert np.array_equal(spec.stacked.mat_vec(x), np.concatenate([spec.c, m]))
    assert graph_builds == [spec.stacked]
    assert len(ranks) == 1 and ranks[0] is spec.joint.reverse


@pytest.mark.parametrize("method", ["exact", "sum-product"])
def test_lossy_encoder_reuses_its_early_stop_and_graph(graph_builds, monkeypatch, method):
    ranks = []
    real = sampler.suffix_ranks
    monkeypatch.setattr(sampler, "suffix_ranks", lambda rev: ranks.append(rev) or real(rev))
    spec = lossy_spec(20, 8, 6, seed=1)
    cfg = sampler.SamplerConfig(method=method)
    rng = stream(5, 0)
    for _ in range(5):
        y = spec.source.sample(rng)
        x = lossy.encode_reproduction(spec, y, cfg, rng)
        assert np.array_equal(spec.A.mat_vec(x), spec.c)
    assert len(ranks) == 1 and ranks[0] is spec.coset_a.reverse
    assert graph_builds == ([spec.A] if method == "sum-product" else [])
