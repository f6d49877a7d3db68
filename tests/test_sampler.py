import hashlib
import itertools
import math
import weakref
from fractions import Fraction
from functools import partial
from types import SimpleNamespace

import numpy as np
import pytest

from cosetcode import lossy
from cosetcode.channel import ChannelCodeSpec, ChannelEncoder, decode_bp, sample_code
from cosetcode.fastbp import CosetBP
from cosetcode.gf import GF
from cosetcode.models import (BiAwgnChannel, MemorylessSource, bac, bernoulli_source, bsc,
                              hamming_distortion, qsc, uniform_source)
from cosetcode.sampler import (
    INIT_ITERS,
    DeadEndError,
    EncodingError,
    CosetSampler,
    ExactStepper,
    GeneratedSample,
    SamplerConfig,
    TablePlan,
    _ExactWalker,
    _ForcedPath,
    _UniformEngine,
    _drive,
    exact_coset_law,
    generate_interval,
    member_law,
    path_tree_law,
)
from cosetcode.sparsemat import (
    DENSE_CAP,
    EnsembleSpec,
    SparseMatrix,
    all_vectors,
    row_reduce,
    sample_sparse_matrix,
)
from cosetcode.stats import chi2_quantile, chi_square_stat
from cosetcode.streams import sample_pmf, stream

GF2 = GF(2)
GF3 = GF(3)

EXACT = SamplerConfig(method="exact")
NO_EARLY = SamplerConfig(method="exact", early_stop=False)


def dense(arr, field):
    return SparseMatrix.from_dense(np.array(arr), field)


def oracle_step_pmf(A, c, priors, prefix, k):
    """Verbatim suffix sum: p(x_k) prop. to sum over suffixes of the
    product of remaining priors and all check indicators."""
    q, n = A.field.q, A.cols
    c = np.asarray(c, dtype=np.int64) % q
    out = np.zeros(q)
    for xk in range(q):
        total = 0.0
        for suf in all_vectors(q, n - k - 1):
            x = np.concatenate([prefix, [xk], suf]).astype(np.int64)
            if not np.array_equal(A.mat_vec(x), c):
                continue
            w = 1.0
            for j in range(k, n):
                w *= priors[j, x[j]]
            total += w
        out[xk] = total
    s = out.sum()
    return out / s if s > 0 else out


# ---------------------------------------------------------------------------
# exact coset law
# ---------------------------------------------------------------------------

def test_config_validation():
    with pytest.raises(ValueError, match="method"):
        SamplerConfig(method="gibbs")
    # not fields: the state budget is DENSE_CAP, uniform priors pick their
    # own engine, and the sum-product schedule is INIT_ITERS and fastbp.TOL,
    # without damping
    for removed in ("exact_cap", "exact_cap_states", "uniform_shortcut", "sp_init_iters",
                    "sp_step_iters", "sp_damping", "sp_tol", "retries"):
        with pytest.raises(TypeError):
            SamplerConfig(**{removed: 10})


def test_exact_coset_law_uniform():
    A = dense([[1, 1, 0], [0, 1, 1]], GF2)
    members, probs = exact_coset_law(A, [0, 0], np.full((3, 2), 0.5))
    assert members.shape[0] == 2
    assert np.allclose(probs, 0.5)


def test_exact_coset_law_bernoulli_two_point():
    A = dense([[1, 1]], GF2)
    priors = np.array([[0.7, 0.3], [0.7, 0.3]])
    members, probs = exact_coset_law(A, [0], priors)
    assert np.array_equal(members, [[0, 0], [1, 1]])
    assert probs[0] == pytest.approx(0.49 / 0.58)
    assert probs[1] == pytest.approx(0.09 / 0.58)


def test_exact_coset_law_errors():
    A = dense([[1, 1], [1, 1]], GF2)
    with pytest.raises(EncodingError):
        exact_coset_law(A, [0, 1], np.full((2, 2), 0.5))
    # massless but nonempty coset
    B = dense([[1, 0]], GF2)
    priors = np.array([[1.0, 0.0], [1.0, 0.0]])
    with pytest.raises(EncodingError):
        exact_coset_law(B, [1], priors)


def test_exact_coset_law_refuses_above_dense_cap():
    A = SparseMatrix(0, 30, GF2, [], [], [])
    with pytest.raises(ValueError, match="exceeds cap"):
        exact_coset_law(A, [], np.full((30, 2), 0.5))


@pytest.mark.parametrize("method", ["exact", "sum-product"])
@pytest.mark.parametrize("early_stop", [True, False])
def test_all_zero_priors_have_zero_mass(method, early_stop):
    # an all-zero prior is constant but not uniform: it must reach a stepwise
    # engine, which finds the coset massless, as it does for one zero row
    A = dense([[1, 1, 0], [0, 1, 1]], GF2)
    cfg = SamplerConfig(method=method, early_stop=early_stop)
    for priors in (np.zeros((3, 2)), np.array([[0.5, 0.5], [0.0, 0.0], [0.5, 0.5]])):
        with pytest.raises(EncodingError, match="zero prior mass"):
            CosetSampler(A).engine(priors, cfg).draw([1, 0], stream(0))


# ---------------------------------------------------------------------------
# step conditionals, read off the exact stepper
# ---------------------------------------------------------------------------

def balanced_ends(rank, stop) -> list:
    """The plan's cut of columns 0..stop: T = ceil(stop / max(rank, 1)) + 1
    segments, at most stop of them and 1 at stop 0, ending at (i + 1) stop // T."""
    T = max(1, min(stop, -(-stop // max(rank, 1)) + 1))
    return [(i + 1) * stop // T for i in range(T)]


def flat_index(plan, t) -> int:
    return int(np.asarray(t, dtype=np.int64) % plan.q @ plan.weights)


def tree_pmf(st, t, prefix):
    """Step k = len(prefix)'s pmf on target t as a walker reads it: off the tree
    of k's segment, rooted at the residual where that segment starts."""
    plan, k, q = st.plan, len(prefix), st.q
    i = next(i for i, end in enumerate(plan.ends) if k < end)
    a = plan.starts[i]
    residual = np.asarray(t, dtype=np.int64) - sum(int(v) * plan.cols[j]
                                                   for j, v in enumerate(prefix[:a]))
    p = sum(int(v) * q ** h for h, v in enumerate(prefix[a:]))
    _, tree = st.segment_tree(i, flat_index(plan, residual))
    terms = st.priors[k] * tree[k - a + 1][p::q ** (k - a)]
    return terms / s if (s := terms.sum()) > 0 else terms


def stepper_pmf(A, c, priors, prefix):
    """The exact conditional of x_k given the prefix x_0..x_{k-1}, k = len(prefix)."""
    return tree_pmf(ExactStepper(TablePlan(A), priors), c, prefix)


def test_step_conditional_first_step_hand_value():
    A = dense([[1, 1]], GF2)
    priors = np.array([[0.7, 0.3], [0.7, 0.3]])
    pmf = stepper_pmf(A, [0], priors, [])
    assert pmf[0] == pytest.approx(0.49 / 0.58)


def test_step_conditional_identity_and_unconstrained():
    I = dense(np.eye(3, dtype=int), GF3)
    priors = np.full((3, 3), 1 / 3)
    pmf = stepper_pmf(I, [2, 0, 1], priors, [])
    assert np.allclose(pmf, [0, 0, 1])
    A0 = SparseMatrix(0, 2, GF2, [], [], [])
    priors = np.array([[0.2, 0.8], [0.6, 0.4]])
    pmf = stepper_pmf(A0, [], priors, [0])
    assert np.allclose(pmf, [0.6, 0.4])


@pytest.mark.parametrize("q", [2, 3])
def test_step_conditional_matches_verbatim_suffix_sum(q):
    field = GF(q)
    rng = np.random.default_rng(77 + q)
    for _ in range(25):
        n = int(rng.integers(2, 7))
        l = int(rng.integers(1, 4))
        D = rng.integers(0, q, size=(l, n))
        A = SparseMatrix.from_dense(D, field)
        x_star = rng.integers(0, q, size=n)
        c = A.mat_vec(x_star)
        priors = rng.dirichlet(np.full(q, 1.5), size=n)
        k = int(rng.integers(0, n))
        prefix = x_star[:k]  # consistent by construction
        got = stepper_pmf(A, c, priors, prefix)
        want = oracle_step_pmf(A, c, priors, prefix, k)
        assert np.max(np.abs(got - want)) < 1e-12


def test_step_conditional_error_taxonomy():
    priors = np.array([[0.6, 0.4], [0.6, 0.4]])       # non-uniform: the exact engine runs
    A = dense([[1, 1], [1, 1]], GF2)
    assert not stepper_pmf(A, [0, 1], priors, []).any()    # an empty coset has no mass
    with pytest.raises(EncodingError):
        CosetSampler(A).engine(priors, NO_EARLY).walker([0, 1])(lambda pmf: 0)
    # dead prefix (only reachable by forcing an off-coset symbol)
    B = dense([[1, 0]], GF2)
    assert not stepper_pmf(B, [1], priors, [0]).any()
    path = iter([0, 0])
    with pytest.raises(DeadEndError, match="step 2"):
        CosetSampler(B).engine(priors, NO_EARLY).walker([1])(lambda pmf: next(path))


# ---------------------------------------------------------------------------
# one draw: engine.draw
# ---------------------------------------------------------------------------

def test_generate_identity_matrix_is_deterministic():
    I = dense(np.eye(4, dtype=int), GF2)
    c = np.array([1, 0, 1, 1])
    priors = np.array([[0.6, 0.4]] * 4)      # non-uniform: the exact engine runs
    out = CosetSampler(I).engine(priors, NO_EARLY).draw(c, stream(0, 0))
    assert np.array_equal(out.x, c)


def test_generate_full_rank_early_stops():
    A = dense([[1, 0, 1], [0, 1, 1], [1, 1, 1]], GF2)  # rank 3
    priors = np.array([[0.3, 0.7]] * 3)
    c = A.mat_vec(np.array([1, 0, 1]))
    out = CosetSampler(A).engine(priors, EXACT).draw(c, stream(1, 0))
    assert out.termination == "early"
    assert np.array_equal(A.mat_vec(out.x), c)


def test_generate_two_point_law_chi_square():
    A = dense([[1, 1]], GF2)
    priors = np.array([[0.7, 0.3], [0.7, 0.3]])
    rng = stream(12, 0)
    engine = CosetSampler(A).engine(priors, NO_EARLY)
    counts = np.zeros(2)
    trials = 10 ** 5
    for _ in range(trials):
        out = engine.draw([0], rng)
        counts[out.x[0]] += 1
    expected = np.array([49 / 58, 9 / 58]) * trials
    stat = chi_square_stat(counts, expected)
    assert stat < chi2_quantile(1, 0.999)


def test_generate_postcondition_and_encoding_error():
    rng_master = np.random.default_rng(3)
    field = GF2
    for t in range(50):
        n, l = 6, 3
        D = rng_master.integers(0, 2, size=(l, n))
        A = SparseMatrix.from_dense(D, field)
        x_star = rng_master.integers(0, 2, size=n)
        c = A.mat_vec(x_star)
        priors = rng_master.dirichlet(np.ones(2), size=n)
        out = CosetSampler(A).engine(priors, EXACT).draw(c, stream(1000 + t, 0))
        assert np.array_equal(A.mat_vec(out.x), c)
    A = dense([[1, 1], [1, 1]], GF2)
    for priors in (np.array([[0.6, 0.4]] * 2),       # the exact engine
                   np.full((2, 2), 0.5)):            # the uniform engine
        with pytest.raises(EncodingError):
            CosetSampler(A).engine(priors, EXACT).draw([0, 1], stream(0, 0))


def test_generate_uniform_shortcut_law():
    A = dense([[1, 1, 0], [0, 1, 1]], GF2)
    c = [1, 0]
    cfg = SamplerConfig(method="exact")  # uniform priors take the uniform engine
    members, probs = exact_coset_law(A, c, np.full((3, 2), 0.5))
    counts = {tuple(m): 0 for m in members}
    rng = stream(5, 0)
    engine = CosetSampler(A).engine(np.full((3, 2), 0.5), cfg)
    trials = 20000
    for _ in range(trials):
        out = engine.draw(c, rng)
        counts[tuple(out.x)] += 1
    expected = np.full(len(counts), trials / len(counts))
    stat = chi_square_stat(np.array(list(counts.values())), expected)
    assert stat < chi2_quantile(len(counts) - 1, 0.999)


def test_generate_sum_product_respects_constraint():
    rng_master = np.random.default_rng(8)
    cfg = SamplerConfig(method="sum-product")
    for t in range(20):
        n, l = 8, 3
        D = rng_master.integers(0, 2, size=(l, n))
        A = SparseMatrix.from_dense(D, GF2)
        c = A.mat_vec(rng_master.integers(0, 2, size=n))
        priors = rng_master.dirichlet(np.ones(2), size=n)
        out = CosetSampler(A).engine(priors, cfg).draw(c, stream(40 + t, 0))
        assert np.array_equal(A.mat_vec(out.x), c)


def test_generate_sum_product_law_close_on_tree():
    # on a cycle-free instance BP conditionals are exact, so the law is too
    A = dense([[1, 1, 0], [0, 1, 1]], GF2)
    c = [1, 1]
    priors = np.array([[0.6, 0.4], [0.3, 0.7], [0.8, 0.2]])
    cfg = SamplerConfig(method="sum-product", early_stop=False)
    members, probs = exact_coset_law(A, c, priors)
    keys = [tuple(m) for m in members]
    counts = dict.fromkeys(keys, 0)
    rng = stream(77, 0)
    engine = CosetSampler(A).engine(priors, cfg)
    trials = 6000
    for _ in range(trials):
        out = engine.draw(c, rng)
        counts[tuple(out.x)] += 1
    expected = probs * trials
    stat = chi_square_stat(np.array([counts[k] for k in keys]), expected)
    assert stat < chi2_quantile(len(keys) - 1, 0.999)


# ---------------------------------------------------------------------------
# reverse-column echelon: feasibility, early stop and completion
# ---------------------------------------------------------------------------

def reverse_reading(sampler, c, x):
    """Read the reverse echelon along x: the symbol it forces at each column
    given x[:k] (None at a free column) and the suffix it completes from the
    prefix x[:early_stop_index]."""
    q, stop = sampler.A.field.q, sampler.early_stop_index
    s = sampler.reduced_target(c)
    forced = []
    for k, v in enumerate(x):
        if k == stop:
            suffix = s[sampler.pivot_row[stop:]]
        row = sampler.pivot_row[k]
        forced.append(int(s[row]) if row >= 0 else None)
        s = (s - v * sampler.reverse.reduced[:, ::-1][:, k]) % q
    return forced, suffix if stop < len(x) else np.zeros(0, dtype=np.int64)


def test_reverse_echelon_completes_identity():
    sampler = CosetSampler(dense(np.eye(4, dtype=int), GF3))
    c = np.array([2, 1, 0, 2])
    assert sampler.early_stop_index == 1
    forced, suffix = reverse_reading(sampler, c, c)
    assert forced == [2, 1, 0, 2]
    assert np.array_equal(suffix, [1, 0, 2])


def test_reverse_echelon_completes_tiny():
    sampler = CosetSampler(dense([[1, 1]], GF2))
    assert sampler.early_stop_index == 1
    forced, suffix = reverse_reading(sampler, [0], [1, 1])
    assert forced == [None, 1]
    assert np.array_equal(suffix, [1])


@pytest.mark.parametrize("q", [2, 3, 5])
def test_reverse_echelon_matches_coset_enumeration(q):
    field = GF(q)
    rng = np.random.default_rng(13 + q)
    empty = 0
    for _ in range(40):
        n = int(rng.integers(2, 9 if q == 2 else 6))
        l = int(rng.integers(1, 5))
        D = rng.integers(0, q, size=(l, n)) * (rng.random((l, n)) < 0.6)
        sampler = CosetSampler(SparseMatrix.from_dense(D, field))
        space = all_vectors(q, n)
        # early stop: the first k >= 1 at which no nonzero kernel vector vanishes on x[:k]
        kernel = space[np.all(space @ D.T % q == 0, axis=1) & space.any(axis=1)]
        stop = next(k for k in range(1, n + 1) if not np.any(np.all(kernel[:, :k] == 0, axis=1)))
        assert sampler.early_stop_index == stop
        c = rng.integers(0, q, size=l)
        members = space[np.all(space @ D.T % q == c, axis=1)]
        if members.shape[0] == 0:
            with pytest.raises(EncodingError):
                sampler.reduced_target(c)
            empty += 1
            continue
        for x in members[rng.choice(members.shape[0], size=min(3, members.shape[0]))]:
            forced, suffix = reverse_reading(sampler, c, x)
            for k in range(n):
                feasible = set(members[np.all(members[:, :k] == x[:k], axis=1), k].tolist())
                assert feasible == (set(range(q)) if forced[k] is None else {forced[k]})
            assert np.array_equal(suffix, x[stop:])
    assert empty > 0


@pytest.mark.parametrize("q, early_stop", [(2, True), (3, False)])
def test_sum_product_pivot_steps_are_point_masses(q, early_stop):
    prior = MemorylessSource(np.tile([0.7, 0.3] if q == 2 else [0.7, 0.15, 0.15], (24, 1)))
    spec = sample_code(24, 8, 4, 4, GF(q), prior, seed=0)
    cfg = SamplerConfig(method="sum-product", early_stop=early_stop)
    engine = spec.joint.engine(prior.pmfs, cfg)
    pivots = spec.joint.pivot_row >= 0
    rng = stream(60 + q, 0)
    passes = 0
    for _ in range(8):
        pmfs = []

        def choose(pmf):
            pmfs.append(pmf)
            return sample_pmf(rng, pmf)

        m = spec.random_message(rng)
        try:
            out = engine.walker(np.concatenate([spec.c, m]))(choose)
        except DeadEndError:                    # BP zeroed the forced symbol: no choice made
            pass
        else:
            passes += 1
            assert len(pmfs) == out.steps
            assert np.array_equal(spec.B.mat_vec(out.x), m)
        assert pivots[:len(pmfs)].any()
        for k, pmf in enumerate(pmfs):
            if pivots[k]:
                assert np.count_nonzero(pmf) == 1 and np.asarray(pmf).max() == 1.0
    assert passes >= 4
    for _ in range(8):                          # every draw encodes
        m = spec.random_message(rng)
        assert np.array_equal(spec.B.mat_vec(engine.draw(np.concatenate([spec.c, m]), rng).x), m)


@pytest.mark.parametrize("q", [2, 3])
def test_sum_product_schedule(q, monkeypatch):
    """A draw and a `path_tree_law` call each make exactly one BP run, of
    INIT_ITERS iterations at most, on their target; the passes of a walker
    make none of their own."""
    runs = []                                   # (iters asked, iterations run)
    real = CosetBP.run

    def counting(bp, iters, **kwargs):
        before = bp.iterations
        flag = real(bp, iters, **kwargs)
        runs.append((iters, bp.iterations - before))
        return flag

    monkeypatch.setattr(CosetBP, "run", counting)
    prior = MemorylessSource(np.tile([0.7, 0.3] if q == 2 else [0.7, 0.15, 0.15], (24, 1)))
    spec = sample_code(24, 8, 4, 4, GF(q), prior, seed=0)
    rng = stream(70 + q, 0)
    A = dense([[1, 1, 0, 1, 0], [0, 1, 1, 0, 1]], GF(q))
    desk_priors = np.tile(prior.pmfs[0], (5, 1))
    for early_stop in (True, False):
        cfg = SamplerConfig("sum-product", early_stop)
        engine = spec.joint.engine(prior.pmfs, cfg)
        for _ in range(6):
            target = np.concatenate([spec.c, spec.random_message(rng)])
            runs.clear()
            walk = engine.walker(target)
            assert len(runs) == 1 and runs[0][0] == INIT_ITERS
            assert 1 <= runs[0][1] <= INIT_ITERS
            for _ in range(3):
                out = walk(partial(sample_pmf, rng))
                assert np.array_equal(spec.stacked.mat_vec(out.x), target)
            assert len(runs) == 1
            runs.clear()
            engine.draw(target, rng)
            assert [it for it, _ in runs] == [INIT_ITERS]
        runs.clear()
        members, probs = path_tree_law(A, [1, 0], desk_priors, cfg)
        assert [it for it, _ in runs] == [INIT_ITERS] and members.shape[0] == q ** 3
        assert probs.sum() == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# path-tree law vs oracle (Theorem-3 style exactness)
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("q", [2, 3])
def test_path_tree_matches_coset_law(q):
    field = GF(q)
    rng = np.random.default_rng(90 + q)
    for _ in range(20):
        n = int(rng.integers(2, 8))
        l = int(rng.integers(1, 4))
        A = SparseMatrix.from_dense(rng.integers(0, q, size=(l, n)), field)
        c = A.mat_vec(rng.integers(0, q, size=n))
        priors = rng.dirichlet(np.full(q, 1.2), size=n)
        members, path_probs = path_tree_law(A, c, priors, NO_EARLY)
        _, law = exact_coset_law(A, c, priors)
        tv = 0.5 * np.abs(path_probs - law).sum()
        assert tv <= 1e-10
        assert np.max(np.abs(path_probs - law)) <= 1e-10


def test_early_stop_invariance_exact_equality():
    rng = np.random.default_rng(6)
    for _ in range(20):
        n = int(rng.integers(2, 8))
        l = int(rng.integers(1, n + 1))
        A = SparseMatrix.from_dense(rng.integers(0, 2, size=(l, n)), GF2)
        c = A.mat_vec(rng.integers(0, 2, size=n))
        priors = rng.dirichlet(np.ones(2), size=n)
        m1, p1 = path_tree_law(A, c, priors, EXACT)
        m2, p2 = path_tree_law(A, c, priors, NO_EARLY)
        assert np.array_equal(m1, m2)
        assert np.array_equal(p1, p2)  # bit-for-bit


SUM_PRODUCT = SamplerConfig(method="sum-product")


@pytest.mark.parametrize("q", [2, 3])
def test_sum_product_path_tree_on_a_star_is_the_product_of_its_marginals(q):
    # one check is a tree, so BP's marginals are the coset's own, and one pass
    # draws every free column from its marginal alone: its law is their product
    rng = np.random.default_rng(70 + q)
    for n in (3, 5, 6):
        A = SparseMatrix.from_dense(rng.integers(1, q, size=(1, n)), GF(q))
        c = A.mat_vec(rng.integers(0, q, size=n))
        priors = rng.dirichlet(np.full(q, 1.5), size=n)
        members, probs = path_tree_law(A, c, priors, SUM_PRODUCT)
        _, law = exact_coset_law(A, c, priors)
        marginals = np.stack([np.bincount(members[:, k], weights=law, minlength=q)
                              for k in range(n)])
        free = np.flatnonzero(CosetSampler(A).pivot_row < 0)
        assert free.size == n - 1
        want = marginals[free, members[:, free]].prod(axis=1)
        assert np.abs(probs - want).max() <= 1e-12
        assert probs.sum() == pytest.approx(1.0, abs=1e-12)


def test_sum_product_path_tree_differs_from_the_law_on_a_loopy_code():
    # dense 6 x 12 checks: BP's step conditionals are approximate, so the
    # sum-product engine's own law is far from the restricted prior
    rng = np.random.default_rng(77)
    A = SparseMatrix.from_dense(rng.integers(0, 2, size=(6, 12)), GF2)
    c = A.mat_vec(rng.integers(0, 2, size=12))
    priors = np.tile([0.8, 0.2], (12, 1))
    members, probs = path_tree_law(A, c, priors, SUM_PRODUCT)
    _, law = exact_coset_law(A, c, priors)
    assert np.all(probs >= 0)
    assert probs.sum() <= 1 + 1e-12          # the rest is the pass's dead-end mass
    assert 0.5 * np.abs(probs - law).sum() > 0.1
    exact_members, exact_probs = path_tree_law(A, c, priors, EXACT)
    assert np.array_equal(exact_members, members)
    assert np.abs(exact_probs - law).max() <= 1e-12


def per_member_walks(A, c, priors, cfg):
    """path_tree_law's probabilities by one pass per coset member, each from
    scratch (for sum-product, its own initial BP run)."""
    sampler = CosetSampler(A)
    engine = sampler.engine(priors, cfg)
    members = row_reduce(A).members(c)
    probs = np.zeros(members.shape[0])
    for row, x in enumerate(members):
        path = _ForcedPath(x)
        try:
            engine.walker(c)(path)
        except DeadEndError:
            continue
        probs[row] = path.prob
    return members, probs


def test_forced_path_refuses_an_unnormalized_step_pmf():
    # an explicit raise, which `python -O` keeps
    path = _ForcedPath([1, 0])
    assert path(np.array([0.25, 0.75])) == 1 and path.prob == 0.75
    for pmf in ([0.5, 0.4], [np.nan, 1.0]):
        with pytest.raises(RuntimeError, match="sums to"):
            path(np.array(pmf))


@pytest.mark.parametrize("cfg", [SUM_PRODUCT, EXACT, NO_EARLY], ids=["sum-product", "exact",
                                                                      "exact-full"])
def test_path_tree_law_runs_one_initial_bp_per_call(monkeypatch, cfg):
    # every member's pass reads the marginals of one initial run: the probabilities
    # are those of a walk per member, bit for bit, at one INIT_ITERS run per call
    rng = np.random.default_rng(77)
    A = SparseMatrix.from_dense(rng.integers(0, 2, size=(6, 12)), GF2)
    c = A.mat_vec(rng.integers(0, 2, size=12))
    priors = np.tile([0.8, 0.2], (12, 1))
    want_members, want = per_member_walks(A, c, priors, cfg)
    runs, real = [], CosetBP.run

    def counting(bp, iters, *args, **kwargs):
        runs.append(iters)
        return real(bp, iters, *args, **kwargs)

    monkeypatch.setattr(CosetBP, "run", counting)
    members, probs = path_tree_law(A, c, priors, cfg)
    assert np.array_equal(members, want_members) and members.shape[0] == 64
    assert np.array_equal(probs, want)
    assert runs.count(INIT_ITERS) == (cfg is SUM_PRODUCT)
    assert probs.sum() == pytest.approx(1.0) and np.count_nonzero(probs) > 32


def test_path_tree_law_counts_a_failed_initial_run_as_dead_end(monkeypatch):
    # a failed initial BP run on a nonempty coset dead-ends every pass: the
    # whole mass goes missing, where `draw` raises
    def failing(bp, iters, *args, **kwargs):
        bp.failed = True
        return False

    monkeypatch.setattr(CosetBP, "run", failing)
    A, priors = dense([[1, 1, 0], [0, 1, 1]], GF2), np.tile([0.6, 0.4], (3, 1))
    members, probs = path_tree_law(A, [0, 0], priors, SUM_PRODUCT)
    assert members.shape[0] == 2 and not probs.any()
    with pytest.raises(DeadEndError, match="initial BP run failed"):
        CosetSampler(A).engine(priors, SUM_PRODUCT).draw([0, 0], stream(0, 0))


def test_path_tree_refuses_an_empty_or_massless_coset():
    A = dense([[1, 1, 0], [0, 1, 1]], GF2)
    priors = np.tile([0.5, 0.5], (3, 1))
    priors[0] = [1.0, 0.0]                    # x_0 = 0, so x = (0, 0, 0) alone on C_A(0)
    for cfg in (EXACT, NO_EARLY, SUM_PRODUCT):
        with pytest.raises(EncodingError, match="c is outside Im A"):
            path_tree_law(dense([[1, 1, 0], [1, 1, 0]], GF2), [1, 0], priors, cfg)
        with pytest.raises(EncodingError, match="zero prior mass"):
            path_tree_law(A, [1, 0], np.tile([[1.0, 0.0]], (3, 1)), cfg)
        members, probs = path_tree_law(A, [0, 0], priors, cfg)
        assert members.shape[0] == 2 and probs.sum() == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# interval algorithm
# ---------------------------------------------------------------------------

def test_interval_all_zero_bits_selects_leftmost():
    A = dense([[1, 1]], GF2)
    priors = np.array([[0.7, 0.3], [0.7, 0.3]])
    omega = [0] * 64
    out, used = generate_interval(A, [0], priors, NO_EARLY, omega)
    assert np.array_equal(out.x, [0, 0])


def test_interval_deterministic_given_omega():
    A = dense([[1, 1, 0], [0, 1, 1]], GF2)
    priors = np.array([[0.6, 0.4], [0.3, 0.7], [0.8, 0.2]])
    bits = stream(9, 0).integers(0, 2, size=128).tolist()
    outs = set()
    for _ in range(3):
        out, _ = generate_interval(A, [1, 0], priors, NO_EARLY, bits)
        outs.add(tuple(out.x))
    assert len(outs) == 1


def test_interval_widths_match_law_two_point():
    # sweep the boundary region: outcome flips exactly at width 49/58
    A = dense([[1, 1]], GF2)
    priors = np.array([[0.7, 0.3], [0.7, 0.3]])
    c = [0]
    boundary = Fraction(float(0.49 / 0.58))

    def outcome(om_bits):
        out, _ = generate_interval(A, c, priors, NO_EARLY, om_bits)
        return tuple(out.x)

    depth = 20
    lo_bits = _int_to_bits(math.floor(boundary * 2 ** depth), depth)
    hi_bits = _int_to_bits(math.floor(boundary * 2 ** depth) + 1, depth)
    assert outcome(lo_bits + [0] * 40) == (0, 0)
    assert outcome(hi_bits + [0] * 40) == (1, 1)


def _int_to_bits(v, depth):
    return [(v >> (depth - 1 - i)) & 1 for i in range(depth)]


def test_interval_exhaustion_reports_depth():
    A = dense([[1, 1]], GF2)
    priors = np.array([[0.7, 0.3], [0.7, 0.3]])
    omega = [1]  # nowhere near enough
    with pytest.raises(ValueError, match="exhausted"):
        generate_interval(A, [0], priors, NO_EARLY, omega)


def test_interval_matches_generate_law_via_rng_omega():
    A = dense([[1, 1]], GF2)
    priors = np.array([[0.7, 0.3], [0.7, 0.3]])
    rng = stream(31, 0)
    counts = np.zeros(2)
    trials = 8000
    for _ in range(trials):
        omega = iter(lambda: int(rng.integers(0, 2)), None)
        out, _ = generate_interval(A, [0], priors, NO_EARLY, omega)
        counts[out.x[0]] += 1
    expected = np.array([49 / 58, 9 / 58]) * trials
    assert chi_square_stat(counts, expected) < chi2_quantile(1, 0.999)


# ---------------------------------------------------------------------------
# stepper internals
# ---------------------------------------------------------------------------

def test_stepper_total_mass_matches_enumeration():
    rng = np.random.default_rng(55)
    for _ in range(10):
        n, l, q = 5, 2, 3
        A = SparseMatrix.from_dense(rng.integers(0, q, size=(l, n)), GF3)
        c = A.mat_vec(rng.integers(0, q, size=n))
        priors = rng.dirichlet(np.ones(q), size=n)
        st = ExactStepper(TablePlan(A, 0), priors)    # at stop 0 the one kept table is M_0
        members = row_reduce(A).members(c)
        want = sum(
            np.prod(priors[np.arange(n), m]) for m in members
        )
        assert st._tables[0][flat_index(st.plan, c)] == pytest.approx(float(want), abs=1e-12)


def per_axis_roll_tables(D, priors, q):
    """Reference suffix-mass tables: one np.roll per nonzero entry of each
    column, for every symbol including 0."""
    l, n = D.shape
    last = np.zeros((q,) * l)
    last[(0,) * l] = 1.0
    tables = [last]
    for k in range(n - 1, -1, -1):
        acc = np.zeros_like(last)
        for xv in range(q):
            if priors[k, xv] == 0:
                continue
            shifted = tables[-1]
            for axis in np.nonzero(D[:, k])[0]:
                shifted = np.roll(shifted, xv * int(D[axis, k]) % q, axis=axis)
            acc = acc + priors[k, xv] * shifted
        tables.append(acc)
    return tables[::-1]


def plan_matrix(plan) -> np.ndarray:
    """The dense matrix whose columns the plan shifts by: A, or R[:rank] on an
    engine's plan."""
    return np.array(plan.cols, dtype=np.int64).reshape(plan.n, plan.l).T


def read_on_im_a(tables, rev, q) -> list:
    """Tables in A's coordinates read on Im A, at s = (T t)[:rank]; each must be
    0 off Im A."""
    out = []
    for table in tables:
        on = np.zeros((q,) * rev.rank)
        for t in all_vectors(q, table.ndim):
            s = rev.transformed(t)                    # t lies in Im A iff s[rank:] = 0
            if s[rev.rank:].any():
                assert table[tuple(t)] == 0.0
            else:
                on[tuple(s[:rev.rank])] = table[tuple(t)]
        out.append(on)
    return out


def segment_residual(plan, t, a, j, p):
    """t - sum x_i col_i over columns a..a+j-1, for the symbols whose index is
    p = sum x_{a+h} q**h."""
    q = plan.q
    x = [p // q ** h % q for h in range(j)]
    return (t - sum((xh * plan.cols[a + h] for h, xh in enumerate(x)), np.zeros_like(t))) % q


def digit_leaves(plan, i, t) -> np.ndarray:
    """Segment i = [a, b)'s leaf index at root syndrome t, digit by digit: at
    p = sum_h x_h q**h, the flat index of (t - sum_h x_h col_{a+h}) mod q."""
    a, b, q = plan.starts[i], plan.ends[i], plan.q
    x = np.array(list(itertools.product(range(q), repeat=b - a)), dtype=np.int64)[:, ::-1]
    cols = np.array(plan.cols[a:b], dtype=np.int64).reshape(b - a, plan.l)
    return (t - x @ cols) % q @ plan.weights


def syndrome(plan, flat):
    """The syndrome whose flat index is flat, axis 0 most significant."""
    return np.array([flat // w % plan.q for w in plan.weights], dtype=np.int64)


def assert_stepper_holds(st, want, roots=None):
    """The stepper keeps want[b] at each segment end b, and the tree of each
    segment [a, b) at each root given (every syndrome by default) holds want's
    bits: level j at index p is want[a + j] at the residual of p below the root,
    and leaf p is that residual's flat index at j = b - a."""
    plan, q = st.plan, st.q
    assert st._tables.shape == (len(plan.ends), q ** plan.l)
    for end, kept in zip(plan.ends, st._tables, strict=True):
        assert kept.tobytes() == want[end].tobytes()
    for i, (a, b) in enumerate(zip(plan.starts, plan.ends)):
        for root in range(q ** plan.l) if roots is None else roots:
            leaves, tree = st.segment_tree(i, int(root))
            assert len(tree) == b - a + 1 and tree[0] is None
            t = syndrome(plan, int(root))
            for p in range(q ** (b - a)):
                assert leaves[p] == flat_index(plan, segment_residual(plan, t, a, b - a, p))
            for j in range(1, b - a + 1):
                assert tree[j].shape == (q ** j,)
                for p in range(q ** j):
                    r = segment_residual(plan, t, a, j, p)
                    assert tree[j][p].tobytes() == want[a + j][tuple(r)].tobytes()


@pytest.mark.parametrize("q", [2, 3, 5])
def test_stepper_tables_match_per_axis_rolls(q):
    rng = np.random.default_rng(q)
    for _ in range(4):
        n, l = 7, 4 if q < 5 else 3
        D = rng.integers(0, q, size=(l, n)) * (rng.random((l, n)) < 0.5)
        D[:, 2] = 0                                   # an all-zero column
        priors = rng.dirichlet(np.ones(q), size=n)
        priors[1, 0] = 0                              # a symbol the prior excludes
        priors[1] /= priors[1].sum()
        st = ExactStepper(TablePlan(SparseMatrix.from_dense(D, GF(q))), priors)
        assert_stepper_holds(st, per_axis_roll_tables(D, priors, q))


@pytest.mark.parametrize("q", [2, 3, 5])
def test_stepper_tables_from_the_early_stop_match_per_axis_rolls(q):
    rng = np.random.default_rng(q + 10)
    stops = set()
    for _ in range(6):
        n, l = 7, 4 if q < 5 else 3
        D = rng.integers(0, q, size=(l, n)) * (rng.random((l, n)) < 0.5)
        D[:, 1] = 0                                   # an all-zero column
        priors = rng.dirichlet(np.ones(q), size=n)
        priors[0, 0] = 0                              # a symbol the prior excludes
        priors[0] /= priors[0].sum()
        A = SparseMatrix.from_dense(D, GF(q))
        stop = CosetSampler(A).early_stop_index
        assert stop > 1                               # both lie before the stop
        massless = priors.copy()
        massless[0] = 0                               # no symbol at all: M_0 = 0
        for pri in (priors, massless):
            st = ExactStepper(TablePlan(A, stop), pri)
            assert st.stop == stop
            assert_stepper_holds(st, per_axis_roll_tables(D, pri, q))
        stops.add(stop)
    assert min(stops) < 7                             # some draws do stop early


@pytest.mark.parametrize("q", [2, 3])
def test_stepper_refuses_a_stop_outside_0_to_n(q):
    A = SparseMatrix.from_dense(np.array([[1, 0, 1, q - 1], [0, 1, 1, q - 1]]), GF(q))
    priors = np.full((4, q), 1 / q)
    for stop in (-1, 5):
        with pytest.raises(ValueError, match="outside"):
            ExactStepper(TablePlan(A, stop), priors)
    for stop in range(5):
        assert ExactStepper(TablePlan(A, stop), priors)._tables[-1].shape == (q * q,)


@pytest.mark.parametrize("q", [2, 3, 5])
def test_tables_at_a_stop_with_dependent_suffix_columns_match_per_axis_rolls(q):
    """Columns 2 and 3 are dependent, so stop 2 does not pin the suffix: M_2 is
    positive on the q multiples of column 2 alone, each hit by q suffixes.  The
    recursion gives it, and every table before it, as at any other stop."""
    rng = np.random.default_rng(q + 30)
    D = np.array([[1, 0, 1, q - 1], [0, 1, 1, q - 1]])   # col 3 = (q - 1) col 2
    A = SparseMatrix.from_dense(D, GF(q))
    assert CosetSampler(A).early_stop_index == 3
    priors = rng.dirichlet(np.ones(q), size=4)
    want = per_axis_roll_tables(D, priors, q)
    assert np.count_nonzero(want[2]) == q
    for stop in range(5):
        assert_stepper_holds(ExactStepper(TablePlan(A, stop), priors), want)
    st = CosetSampler(A).engine(priors, NO_EARLY).stepper   # the engine's plan, on Im A
    assert_stepper_holds(st, per_axis_roll_tables(plan_matrix(st.plan), priors, q))


@pytest.mark.parametrize("q", [2, 3, 5])
def test_a_plan_to_n_keeps_delta_0_as_its_last_table(q):
    rng = np.random.default_rng(q + 170)
    n = 5
    for l in (0, 2):
        A = dense(rng.integers(0, q, size=(l, n)), GF(q))
        priors = rng.dirichlet(np.ones(q), size=n)
        steppers = [ExactStepper(TablePlan(A), priors),
                    CosetSampler(A).engine(priors, NO_EARLY).stepper]
        for st in steppers:
            assert st.plan.ends[-1] == st.stop == n
            delta = np.zeros(q ** st.plan.l)
            delta[0] = 1.0                            # M_n = delta_0: only the empty suffix
            assert st._tables[-1].tobytes() == delta.tobytes()


@pytest.mark.parametrize("q", [2, 3, 5])
def test_step_pmf_matches_the_per_symbol_loop(q):
    rng = np.random.default_rng(q + 20)
    n, l = 6, 3
    D = rng.integers(0, q, size=(l, n))
    priors = rng.dirichlet(np.ones(q), size=n)
    priors[2, 1] = 0                                  # a symbol the prior excludes
    st = ExactStepper(TablePlan(SparseMatrix.from_dense(D, GF(q))), priors)
    assert st.plan.ends == [2, 4, 6]                  # ceil(6 / 3) + 1 segments of 2
    tables = per_axis_roll_tables(D, priors, q)       # the recursion's bits
    for k in range(n):
        for residual in all_vectors(q, l):
            want = np.empty(q)
            for xv in range(q):                       # the former per-symbol loop
                t = (residual - xv * D[:, k]) % q
                want[xv] = 0.0 if priors[k, xv] == 0 else \
                    priors[k, xv] * tables[k + 1][tuple(t)]
            s = want.sum()
            want = want / s if s > 0 else want
            got = tree_pmf(st, residual, [0] * k)     # the residual at k is t itself
            assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("bad, match", [
    (np.full((4, 3), 1 / 3), "shape"),
    (np.full((3, 2), 0.5), "shape"),
    (np.array([[1.2, -0.2]] + [[0.5, 0.5]] * 3), "non-negative"),
    (np.array([[np.nan, 0.5]] + [[0.5, 0.5]] * 3), "finite"),
], ids=["three-symbols", "short", "negative", "nan"])
def test_engine_refuses_bad_priors(bad, match):
    A = dense([[1, 1, 0, 1], [0, 1, 1, 1]], GF2)
    sampler = CosetSampler(A)
    for method in ("exact", "sum-product"):
        with pytest.raises(ValueError, match=match):
            sampler.engine(bad, SamplerConfig(method=method))
    with pytest.raises(ValueError, match=match):
        generate_interval(A, [0, 0], bad, EXACT, [0] * 64)


def extreme_scale_case(q):
    """A desk code, a target in its image and unnormalised prior rows."""
    n, l = (12, 6) if q == 2 else (9, 4)
    A = sample_sparse_matrix(EnsembleSpec(n=n, l=l, field=GF(q), tau=2), stream(1, 1))
    c = A.mat_vec(stream(2, 2).integers(0, q, size=n))
    return A, c, stream(4, q).random((n, q)) + 0.05


def rng_state(rng) -> str:
    return str(rng.bit_generator.state)


@pytest.mark.parametrize("q", [2, 3])
@pytest.mark.parametrize("method", ["exact", "sum-product"])
def test_priors_scaled_by_a_power_of_two_draw_as_the_unscaled_prior(q, method):
    """Past 2**64 the rows are rescaled by powers of two, differently per row
    here; draws and rng states stay bit for bit those of the unscaled prior."""
    A, c, priors = extreme_scale_case(q)
    sampler = CosetSampler(A)
    for scale in (2.0 ** 200, 2.0 ** -200):
        assert len(np.unique(sampler.checked_priors(priors * scale) / priors)) > 1
        for early_stop in (True, False):
            cfg = SamplerConfig(method, early_stop)
            base, scaled = sampler.engine(priors, cfg), sampler.engine(priors * scale, cfg)
            rng_base, rng_scaled = stream(9, q), stream(9, q)
            for _ in range(12):
                assert np.array_equal(base.draw(c, rng_base).x, scaled.draw(c, rng_scaled).x)
                assert rng_state(rng_base) == rng_state(rng_scaled)


@pytest.mark.parametrize("q", [2, 3])
def test_priors_of_extreme_scale_keep_the_law(q):
    """At 1e30 and 1e-300 the products of the rows leave float range: the exact
    law still is the restricted prior, and one sum-product pass's law is the
    unscaled prior's, with no overflow or underflow warning."""
    A, c, priors = extreme_scale_case(q)
    members = row_reduce(A).members(c)
    law = member_law(members, priors)
    for scale in (1e30, 1e-300):
        for early_stop in (True, False):
            cfg = SamplerConfig("exact", early_stop)
            got_members, probs = path_tree_law(A, c, priors * scale, cfg)
            assert np.array_equal(got_members, members)
            assert np.max(np.abs(probs - law)) <= 1e-12
            cfg = SamplerConfig("sum-product", early_stop)
            _, probs = path_tree_law(A, c, priors * scale, cfg)
            assert np.max(np.abs(probs - path_tree_law(A, c, priors, cfg)[1])) <= 1e-12


def test_checked_priors_pass_in_range_priors_through():
    """Rows whose products stay within 2**64 are the caller's, unscaled; others
    are scaled per row by a power of two, their products within 2**(1/2) of 1."""
    A, _, priors = extreme_scale_case(2)
    sampler = CosetSampler(A)
    for kept in (priors, priors * 4, stream(5, 5).dirichlet([1, 1], size=A.cols)):
        assert sampler.checked_priors(kept).tobytes() == kept.tobytes()
    for scale in (1e30, 1e300, 1e-300, 2.0 ** 200):
        scaled = sampler.checked_priors(priors * scale)
        mantissa, exponent = np.frexp(scaled / (priors * scale))
        assert np.all(mantissa == 0.5) and np.all(exponent == exponent[:, :1])
        suffix = np.cumsum(np.log2(scaled.sum(axis=1))[::-1])
        assert np.all(np.abs(suffix) <= 0.5 + 1e-9)
    flat = np.full_like(priors, 1e-300)               # rows rescaled apart, each still flat
    assert sampler.checked_priors(flat).tobytes() != flat.tobytes()
    assert isinstance(sampler.engine(flat, EXACT), _UniformEngine)


def test_driver_refuses_a_step_pmf_of_non_finite_mass():
    """A step whose mass is nan or inf raises before any symbol is chosen."""
    A = dense([[1, 1, 0], [0, 1, 1]], GF2)
    sampler = CosetSampler(A)
    c = sampler.target([1, 0])
    for bad in ([np.nan, 0.5], [math.inf, 0.0], np.array([0.5, np.inf])):
        state = SimpleNamespace(pmf=lambda k, bad=bad: bad, commit=None)
        chosen = []
        with pytest.raises(FloatingPointError, match="step 1 pmf has mass"):
            _drive(sampler, c, state, chosen.append, True)
        assert chosen == []


def test_live_steppers_never_alias():
    rng = np.random.default_rng(56)
    A = SparseMatrix.from_dense(rng.integers(0, 3, size=(3, 6)), GF3)
    p1, p2 = (rng.dirichlet(np.ones(3), size=6) for _ in range(2))
    st1, st2 = ExactStepper(TablePlan(A), p1), ExactStepper(TablePlan(A), p2)
    assert not np.shares_memory(st1._tables, st2._tables)
    want1, want2 = (st._tables.copy() for st in (st1, st2))
    del st1
    st3 = ExactStepper(TablePlan(A), p1)
    assert np.array_equal(st3._tables, want1) and np.array_equal(st2._tables, want2)


@pytest.mark.parametrize("q", [2, 3])
def test_stepper_owns_one_block_of_segment_end_tables_freed_with_it(q):
    """A stepper keeps one table per segment, that at its end, in one block, and
    no other array but its priors: its working slots live only while it builds,
    and a segment's tree only with its reader.  Nothing keeps the block once the
    stepper is collected."""
    rng = np.random.default_rng(q + 90)
    n, l = 10, 3
    D = rng.integers(0, q, size=(l, n))
    D[:, n - l:] = np.eye(l, dtype=int)               # independent last columns: an early stop
    A = SparseMatrix.from_dense(D, GF(q))
    priors = rng.dirichlet(np.ones(q), size=n)
    early = CosetSampler(A).early_stop_index
    assert early <= n - l
    segments = set()
    for stop in (early, n):
        st = ExactStepper(TablePlan(A, stop), priors)
        st.segment_tree(0, 0)
        segments.add(len(st.plan.ends))
        block = st._tables
        assert block.shape == (len(st.plan.ends), q ** l)
        arrays = [v for v in vars(st).values() if isinstance(v, np.ndarray)]
        assert all(v is st.priors or v is block for v in arrays)
        freed = weakref.ref(block)
        del st, block, arrays
        assert freed() is None
    assert max(segments) >= 3                         # stop > rank at the full stop


def test_stepper_cap_refused():
    A = SparseMatrix.from_dense(np.zeros((25, 4), dtype=int), GF3)
    with pytest.raises(ValueError):
        ExactStepper(TablePlan(A), np.full((4, 3), 1 / 3))


@pytest.mark.parametrize("q", [2, 3])
def test_mass_of_is_m0_for_massless_and_unnormalised_priors(q):
    rng = np.random.default_rng(q + 57)
    for l in (0, 2):
        D = rng.integers(0, q, size=(l, 4))
        A = SparseMatrix.from_dense(D, GF(q))
        massless = np.full((4, q), 0.5)
        massless[1] = 0                               # no symbol at all: M_0 = 0
        unnormalised = rng.random((4, q)) * 3
        for priors in (massless, unnormalised):
            st = ExactStepper(TablePlan(A, 0), priors)     # at stop 0 the kept table is M_0
            want = per_axis_roll_tables(D, priors, q)[0]
            assert st._tables[0].tobytes() == want.tobytes()   # summed in the recursion's order
        assert not ExactStepper(TablePlan(A, 0), massless)._tables.any()


def test_gf2_tables_and_step_pmfs_hold_across_three_segments():
    rng = np.random.default_rng(58)
    n, l = 28, 10
    D = (rng.random((l, n)) < 0.3).astype(np.int64)
    A = SparseMatrix.from_dense(D, GF2)
    priors = rng.dirichlet(np.ones(2), size=n)
    priors[5, 1] = 0                                  # a symbol the prior excludes
    st = ExactStepper(TablePlan(A), priors)
    want = per_axis_roll_tables(D, priors, 2)
    assert st.plan.ends == [7, 14, 21, 28]            # ceil(28 / 10) + 1 segments of 7
    assert_stepper_holds(st, want, roots=[0, 1, 341, 2 ** l - 1])
    for _ in range(5):      # a residual carried through every segment
        x = rng.integers(0, 2, size=n)
        x[5] = 0
        t0 = t = A.mat_vec(x)
        for k in range(n):
            ref = np.array([priors[k, xv] * want[k + 1][tuple((t - xv * D[:, k]) % 2)]
                            for xv in range(2)])
            ref = ref / ref.sum()
            assert tree_pmf(st, t0, x[:k]).tobytes() == ref.tobytes()
            t = (t - x[k] * D[:, k]) % 2


@pytest.mark.parametrize("q", [2, 3, 5])
def test_kept_end_tables_are_the_tables_in_syndrome_coordinates(q):
    """The block holds each segment's end table flat, axis 0 most significant,
    byte for byte as the reference tables of the plan's own matrix give it: one
    layout for every field."""
    rng = np.random.default_rng(q + 150)
    l, n = (4, 12) if q < 5 else (3, 10)
    D = rng.integers(0, q, size=(l, n))
    D[-1] = (D[0] + D[1]) % q                         # rank < l: the engine's plan is on Im A
    priors = rng.dirichlet(np.ones(q), size=n)
    priors[3, 0] = 0                                  # a symbol the prior excludes
    A = dense(D, GF(q))
    engines = [CosetSampler(A).engine(priors, cfg).stepper for cfg in (EXACT, NO_EARLY)]
    segments = 0
    for st in engines + [ExactStepper(TablePlan(A), priors)]:
        assert st._tables.shape == (len(st.plan.ends), q ** st.plan.l)
        want = per_axis_roll_tables(plan_matrix(st.plan), priors, q)
        for end, kept in zip(st.plan.ends, st._tables, strict=True):
            assert kept.tobytes() == want[end].ravel().tobytes()
        segments = max(segments, len(st.plan.ends))
    assert segments >= 3


@pytest.mark.parametrize("q", [3, 5])
def test_gfq_kept_plan_builds_its_index_state_once(q, monkeypatch):
    """A kept plan builds its difference table, block starts and spans while its
    first stepper and trees run; later steppers and trees read the same kept
    objects, a later build splits only one block's indexes per shift and a tree
    splits nothing."""
    rng = np.random.default_rng(q + 70)
    D = rng.integers(0, q, size=(3, 7))
    D[:, 4] = 0                                       # an all-zero column
    A = SparseMatrix.from_dense(D, GF(q))
    plan, calls, kept = TablePlan(A), [], None
    real = TablePlan.split
    monkeypatch.setattr(TablePlan, "split",
                        lambda plan, t: calls.append(np.size(t)) or real(plan, t))
    for build in range(3):
        priors = rng.dirichlet(np.ones(q), size=7)
        calls.clear()
        st = ExactStepper(plan, priors)
        build_calls = list(calls)
        calls.clear()
        assert_stepper_holds(st, per_axis_roll_tables(D, priors, q))
        state = {name: plan.__dict__[name] for name in ("_diff", "_blocks", "_spans")}
        if build == 0:
            kept = state                              # the plan builds its state once
        else:
            assert all(state[name] is kept[name] for name in kept)
            assert build_calls and set(build_calls) == {plan._blocks[0]} and calls == []


@pytest.mark.parametrize("q", [2, 3])
def test_exact_draws_ignore_a_dependent_row(q):
    rng = np.random.default_rng(q + 80)
    n, l = 10, 4
    D = rng.integers(0, q, size=(l, n))
    c = D @ rng.integers(0, q, size=n) % q
    priors = rng.dirichlet(np.ones(q), size=n)
    rank = row_reduce(dense(D, GF(q))).rank
    # the sum of the rows appended: the same Im A in one more coordinate
    cases = [(D, c), (np.vstack([D, D.sum(axis=0) % q]), np.append(c, c.sum() % q))]
    for cfg in (EXACT, NO_EARLY):
        runs = []
        for M, t in cases:
            engine = CosetSampler(dense(M, GF(q))).engine(priors, cfg)
            assert engine.stepper._tables.shape[1] == q ** rank   # entries per table
            draw_rng = stream(q, 81)
            xs = [engine.draw(t, draw_rng).x for _ in range(6)]
            runs.append((xs, repr(draw_rng.bit_generator.state)))
        (xs_a, state_a), (xs_dep, state_dep) = runs
        assert state_a == state_dep
        for x_a, x_dep in zip(xs_a, xs_dep, strict=True):
            assert np.array_equal(x_a, x_dep) and np.array_equal(D @ x_a % q, c)


@pytest.mark.parametrize("q", [2, 3, 5])
def test_engine_tables_are_the_direct_tables_read_on_im_a(q):
    rng = np.random.default_rng(q + 90)
    n, l = 7, 4 if q < 5 else 3
    D = rng.integers(0, q, size=(l, n)) * (rng.random((l, n)) < 0.6)
    D[-1] = (D[0] + 2 * D[1]) % q                     # a dependent row: rank < l
    A = SparseMatrix.from_dense(D, GF(q))
    priors = rng.dirichlet(np.ones(q), size=n)
    priors[2, 1] = 0                                  # a symbol the prior excludes
    sampler = CosetSampler(A)
    rev = sampler.reverse
    direct = per_axis_roll_tables(D, priors, q)       # in A's own coordinates
    for cfg in (EXACT, NO_EARLY):
        st = sampler.engine(priors, cfg).stepper
        assert st.plan.l == rev.rank < l
        assert_stepper_holds(st, read_on_im_a(direct, rev, q))   # the same bytes, moved


def test_exact_engine_takes_a_matrix_whose_rank_fits_the_cap():
    rng = np.random.default_rng(95)
    n = 10
    rows = np.eye(6, n, dtype=np.int64) + np.eye(6, n, 4, dtype=np.int64)  # rank 6
    A = dense(np.tile(rows, (4, 1)), GF2)            # 24 rows: 2**24 syndromes
    assert 2 ** A.rows > DENSE_CAP
    priors = rng.dirichlet(np.ones(2), size=n)
    with pytest.raises(ValueError, match=r"2\*\*24 syndromes"):
        ExactStepper(TablePlan(A), priors)            # A's own coordinates
    c = A.mat_vec(rng.integers(0, 2, size=n))
    for cfg in (EXACT, NO_EARLY):
        members, probs = path_tree_law(A, c, priors, cfg)
        assert np.abs(probs - member_law(members, priors)).max() < 1e-12
        assert CosetSampler(A).engine(priors, cfg).stepper.plan.l == 6
    wide = dense(np.hstack([np.eye(21, dtype=np.int64), np.ones((21, 1), dtype=np.int64)]), GF2)
    with pytest.raises(ValueError, match=r"2\*\*21 syndromes"):   # the rank is 21
        CosetSampler(wide).engine(np.full((22, 2), [0.6, 0.4]), EXACT)


@pytest.mark.parametrize("q", [2, 3, 5])
def test_walker_trees_hold_the_tables_bits_at_each_prefix_residual(q):
    """Every level j of every segment's tree, at every index p, is M_{a+j} read at
    the residual of p below the tree's root, bit for bit, and every leaf is that
    residual's index, whatever the stop and the number of segments; a walker's
    first tree is the first segment's at its target."""
    rng = np.random.default_rng(q + 120)
    l, n = (4, 7) if q < 5 else (3, 6)
    deficient = rng.integers(0, q, size=(l, n))
    deficient[-1] = (deficient[0] + deficient[1]) % q     # rank < l
    square = np.eye(l, dtype=np.int64) + np.triu(rng.integers(0, q, size=(l, l)), 1)
    zero = np.zeros((2, 4), dtype=np.int64)
    wide = rng.integers(0, q, size=(2, 8))            # stop > rank: 3 or more segments
    seen = set()
    for D in (deficient, rng.integers(0, q, size=(l, n)), square, zero, wide):
        A = dense(D, GF(q))
        sampler = CosetSampler(A)
        rank, cols = sampler.reverse.rank, A.cols
        c = A.mat_vec(rng.integers(0, q, size=cols))
        priors = rng.dirichlet(np.ones(q), size=cols)
        priors[1, 0] = 0                              # a symbol the prior excludes
        zero_row = priors.copy()
        zero_row[2] = 0                               # no symbol at all: M_k = 0 for k <= 2
        for stop in range(cols + 1):
            plan = sampler.table_plan(stop)
            assert plan.ends == balanced_ends(rank, stop)
            assert plan.starts == [0] + plan.ends[:-1]
            cases = {"below rank": stop < rank, "zero": stop == 0, "n": stop == cols,
                     "one segment": plan.ends == [stop], "deficient": rank < A.rows,
                     "rank 0": rank == 0, "3 segments": len(plan.ends) >= 3,
                     "dependent suffix": stop < sampler.early_stop_index}
            seen.update(name for name, hit in cases.items() if hit)
            root = flat_index(plan, sampler.reduced_target(c)[:rank])
            for pri in (priors, zero_row):
                st = ExactStepper(plan, pri)
                walker = _ExactWalker(SimpleNamespace(sampler=sampler, stepper=st, cfg=EXACT), c)
                (leaves, tree), (want_leaves, want_tree) = walker.first, st.segment_tree(0, root)
                assert np.array_equal(leaves, want_leaves) and tree[0] is None
                for got, want in zip(tree[1:], want_tree[1:], strict=True):
                    assert got.tobytes() == want.tobytes()
                assert_stepper_holds(st, per_axis_roll_tables(plan_matrix(plan), pri, q),
                                     roots=[root, *rng.integers(0, q ** rank, size=2)])
    assert seen == {"below rank", "zero", "n", "one segment", "deficient", "rank 0",
                    "3 segments", "dependent suffix"}


@pytest.mark.parametrize("q", [2, 3, 5])
def test_walker_step_pmfs_are_the_per_symbol_formula(q):
    """Every step pmf that real passes hand their selector is, byte for byte, the
    per-symbol formula over the reference tables: mu_k(z) M_{k+1}(t_k - z col_k),
    normalised and rolled by the shift y_k, narrowed to a point mass at a pivot
    column.  Over every field each segment's leaf index at every root is, byte for
    byte, the residuals' flat indexes formed digit by digit from the plan's columns."""
    n, l = {2: (12, 6), 3: (9, 4), 5: (6, 3)}[q]
    rng = np.random.default_rng(q + 180)
    seen = set()
    for trial in range(3):
        A = sample_sparse_matrix(EnsembleSpec(n=n, l=l, field=GF(q), tau=2), stream(q, 180, trial))
        c = A.mat_vec(rng.integers(0, q, size=n))
        priors = rng.dirichlet(np.ones(q), size=n)
        priors[1, 0] = 0                              # a symbol the prior excludes
        sampler = CosetSampler(A)
        pivots = sampler.pivot_row >= 0
        for cfg in (EXACT, NO_EARLY):
            engine = sampler.engine(priors, cfg)
            plan = engine.stepper.plan
            tables = per_axis_roll_tables(plan_matrix(plan), priors, q)
            for y in (None, rng.integers(0, q, size=n)):
                shift = np.zeros(n, dtype=np.int64) if y is None else y
                z_coset = row_reduce(A).members((c - A.mat_vec(shift)) % q)
                if not priors[np.arange(n), z_coset].prod(axis=1).any():
                    continue                          # the excluded symbol leaves z no mass
                root = sampler.reduced_target((c - A.mat_vec(shift)) % q)[:plan.l]
                walker = engine.walker(c, y)
                for _ in range(4):
                    reads = []
                    x = walker(lambda pmf: reads.append(pmf) or sample_pmf(rng, pmf)).x
                    assert len(reads) == plan.stop
                    t = root
                    for k, got in enumerate(reads):
                        nxt = [tables[k + 1][tuple((t - z * plan.cols[k]) % q)] for z in range(q)]
                        want = np.array([0.0 if priors[k, z] == 0 else priors[k, z] * nxt[z]
                                         for z in range(q)])
                        want = (want / want.sum())[(np.arange(q) - shift[k]) % q]
                        if pivots[k]:
                            assert want[x[k]] > 0
                            want = (np.arange(q) == x[k]).astype(float)
                        assert np.array(got).tobytes() == want.tobytes()
                        t = (t - (x[k] - shift[k]) * plan.cols[k]) % q
                    seen.update({"shift": shift.any(), "early": plan.stop < n,
                                 "segments": len(plan.ends) > 2}.items())
            for i in range(len(plan.ends)):
                for flat in range(q ** plan.l):
                    want = digit_leaves(plan, i, syndrome(plan, flat))
                    assert plan.leaf_index(i, flat).tobytes() == want.tobytes()
    assert {(name, True) for name in ("shift", "early", "segments")} <= seen


def test_plan_cuts_stop_into_balanced_segments():
    """Over every l <= 5 and stop <= 13, with 0 to 2 independent columns after
    the stop, the plan cuts columns 0..stop into one segment more than runs
    of max(l, 1) columns need (at most stop, and one at stop 0), whose
    lengths differ by at most 1 and none exceeds max(l, 1)."""
    seen = set()
    for l in range(6):
        for stop in range(14):
            for m in sorted({0, min(l, 2)}):
                D = np.zeros((l, stop + m), dtype=np.int64)
                D[np.arange(m), stop + np.arange(m)] = 1   # the suffix: unit columns
                plan = TablePlan(dense(D, GF2), stop)
                T, lengths = len(plan.ends), np.diff([0] + plan.ends)
                assert plan.ends == balanced_ends(l, stop)
                assert plan.ends[-1] == stop and plan.starts == [0] + plan.ends[:-1]
                assert lengths.max() - lengths.min() <= 1 and lengths.max() <= max(l, 1)
                assert stop == 0 or lengths.min() >= 1     # no empty segment
                seen.update(name for name, hit in {
                    "rank 0": l == 0, "stop 0": stop == 0, "stop <= rank": 0 < stop <= l,
                    "stop = n": m == 0, "stop < n": m > 0, "capped": T == stop > 1,
                    "3+ segments": T >= 3}.items() if hit)
    assert seen == {"rank 0", "stop 0", "stop <= rank", "stop = n", "stop < n", "capped",
                    "3+ segments"}


def test_lossy_exact_walks_read_no_leaf_index_past_the_longest_segment(monkeypatch):
    """At the lossy-exact shape (rank 15), every leaf index a shifted walk reads,
    one per segment and draw, has at most q**ceil(stop / T) entries for the
    plan's T segments: 2**11 or fewer, where a tree spanning the rank has 2**15."""
    A = sample_sparse_matrix(EnsembleSpec(n=40, l=16, field=GF2, tau=6), stream(2, 160))
    sampler = CosetSampler(A)
    assert sampler.reverse.rank == 15
    sizes, real = [], TablePlan.leaf_index

    def counted(plan, i, flat):
        idx = real(plan, i, flat)
        sizes.append(idx.size)
        return idx
    monkeypatch.setattr(TablePlan, "leaf_index", counted)
    rng = np.random.default_rng(161)
    noise = np.tile([0.89, 0.11], (A.cols, 1))      # the lossy-exact test channel's noise prior
    for cfg in (EXACT, NO_EARLY):
        engine = sampler.engine(noise, cfg)
        plan = engine.stepper.plan
        longest = math.ceil(plan.stop / len(plan.ends))
        assert longest <= 11
        sizes.clear()
        for _ in range(4):
            c = A.mat_vec(rng.integers(0, 2, size=A.cols))
            y = rng.integers(0, 2, size=A.cols)       # a source word
            engine.draw(c, rng, shift=y)
        assert len(sizes) == 4 * len(plan.ends) and max(sizes) <= 2 ** longest


@pytest.mark.parametrize("q", [2, 3])
def test_interleaved_walkers_on_one_encoder_draw_as_fresh_engines(q):
    """Walkers of two targets on one encoder's engine, their passes interleaved
    with each other and with encodes, draw what fresh engines draw: no walker's
    tree leaks into the stepper they share."""
    spec = _pinned_channel_spec(q)
    encoder = ChannelEncoder(spec, EXACT)
    msgs, rng = [], stream(q, 130)
    while len(msgs) < 2:                              # two messages with nonempty cosets
        m = spec.random_message(rng)
        if spec.joint.echelon.solve(np.concatenate([spec.c, m])) is not None and \
                not any(np.array_equal(m, other) for other in msgs):
            msgs.append(m)
    targets = [np.concatenate([spec.c, m]) for m in msgs]
    walkers = [encoder._engine.walker(t) for t in targets]
    rngs = [stream(q, 131), stream(q, 132)]
    got = [[], []]
    for i in (0, 1, 1, 0, 0, 1):
        got[i].append(walkers[i](partial(sample_pmf, rngs[i])).x)
        encoder.encode(msgs[1 - i], stream(q, 133))  # a third walker in between
    for i, t in enumerate(targets):
        fresh = spec.joint.engine(spec.prior.pmfs, EXACT).walker(t)
        draw_rng = stream(q, 131 + i)
        for x in got[i]:
            assert np.array_equal(x, fresh(partial(sample_pmf, draw_rng)).x)
    assert not np.array_equal(targets[0], targets[1])


@pytest.mark.parametrize("q", [2, 3])
def test_exact_builds_level_from_n_to_the_first_end_and_walkers_one_tree(q, monkeypatch):
    """A build runs `_level` once per column ends[0]..n-1 and a draw none; a
    walker builds the first segment's tree once, however many passes it runs,
    and each pass one tree per later segment it reaches."""
    if q == 2:                                        # the lossy-exact shape
        A = sample_sparse_matrix(EnsembleSpec(n=40, l=16, field=GF2, tau=6), stream(q, 140))
        assert CosetSampler(A).reverse.rank == 15     # even tau: the rows sum to zero
    else:
        A = sample_sparse_matrix(EnsembleSpec(n=24, l=8, field=GF3, tau=4), stream(q, 140))
    calls = {"_level": 0, "segment_tree": 0}
    for name in calls:
        def counted(*args, _real=getattr(ExactStepper, name), _name=name):
            calls[_name] += 1
            return _real(*args)
        monkeypatch.setattr(ExactStepper, name, counted)
    rng = np.random.default_rng(q + 141)
    c = A.mat_vec(rng.integers(0, q, size=A.cols))
    sampler = CosetSampler(A)
    segments = set()
    for cfg in (EXACT, NO_EARLY):
        for _ in range(2):
            calls.update(dict.fromkeys(calls, 0))
            engine = sampler.engine(rng.dirichlet(np.ones(q), size=A.cols), cfg)
            plan = engine.stepper.plan
            assert sampler.table_plan(plan.stop) is plan  # built once per matrix and stop
            assert plan.ends == balanced_ends(sampler.reverse.rank, plan.stop)
            assert 0 < plan.ends[0] < sampler.reverse.rank < plan.stop
            assert calls == {"_level": A.cols - plan.ends[0], "segment_tree": 0}
            walker = engine.walker(c)
            for _ in range(3):
                walker(partial(sample_pmf, rng))
            assert calls == {"_level": A.cols - plan.ends[0],
                             "segment_tree": 1 + 3 * (len(plan.ends) - 1)}
            segments.add(len(plan.ends))
    assert max(segments) >= 3


@pytest.mark.parametrize("q", [2, 3])
def test_walker_roots_are_the_reduced_residual_targets(q, monkeypatch):
    """Every segment root a walker reads, the first per target and each later one
    off the leaf index of the segment before, is the flat index of
    T(c - A y - A z_<a)[:rank] at the segment's start a, where z = x - y is what
    the stepper draws: y = 0 without a shift."""
    rng = np.random.default_rng(q + 180)
    n = 14
    D = rng.integers(0, q, size=(4, n)) * (rng.random((4, n)) < 0.5)
    D[-1] = (D[0] + D[1]) % q                         # rank < l: T and [:rank] differ from A's
    A = dense(D, GF(q))
    sampler = CosetSampler(A)
    rev, rank = sampler.reverse, sampler.reverse.rank
    roots, real = [], ExactStepper.segment_tree
    monkeypatch.setattr(ExactStepper, "segment_tree",
                        lambda st, i, flat: roots.append((i, flat)) or real(st, i, flat))
    segments = set()
    for cfg in (EXACT, NO_EARLY):
        engine = sampler.engine(rng.dirichlet(np.ones(q), size=n), cfg)
        plan = engine.stepper.plan
        segments.add(len(plan.ends))
        for shift in (None, rng.integers(0, q, size=n)):
            y = np.zeros(n, dtype=np.int64) if shift is None else shift
            c = A.mat_vec(rng.integers(0, q, size=n))
            roots.clear()
            walker = engine.walker(c, shift)
            first = roots.pop()
            for _ in range(3):
                z = (walker(partial(sample_pmf, rng)).x - y) % q
                read = [first] + roots
                roots.clear()
                assert [i for i, _ in read] == list(range(len(plan.ends)))
                for i, root in read:
                    a = plan.starts[i]
                    t = rev.transformed((c - D @ y - D[:, :a] @ z[:a]) % q)
                    assert root == flat_index(plan, t[:rank])
    assert rank < A.rows and max(segments) >= 3


# ---------------------------------------------------------------------------
# the core both codes share
# ---------------------------------------------------------------------------

def code_spec(kind, A, B, c):
    """A channel or a lossy code on (A, B, c)."""
    n, q = A.cols, A.field.q
    if kind == "channel":
        return ChannelCodeSpec(A, B, c, uniform_source(n, q))
    return lossy.LossyCodeSpec(A, B, c, uniform_source(n, q), qsc(q, 0.1, n),
                               hamming_distortion(q), 0.2)


@pytest.mark.parametrize("q", [2, 3])
def test_both_specs_refuse_bad_a_b_c_alike(q):
    rng = np.random.default_rng(q + 100)
    D = rng.integers(0, q, size=(4, 7))
    D[-1] = (D[0] + D[1]) % q                         # rank < rows: Im A is not GF(q)^4
    A, B = dense(D, GF(q)), dense(rng.integers(0, q, size=(3, 7)), GF(q))
    c = A.mat_vec(rng.integers(0, q, size=7))
    outside = c.copy()
    outside[-1] = (outside[-1] + 1) % q
    narrow = dense(rng.integers(0, q, size=(3, 6)), GF(q))
    cases = [(B, c[:-1], "c length must equal the row count of A"),
             (B, np.append(c, 0), "c length must equal the row count of A"),
             (B, outside, "c is not in Im A"),
             (narrow, c, "A and B must share the domain"),
             (dense(B.to_dense(), GF(5 if q == 3 else 3)), c, "A and B must share the domain")]
    for kind in ("channel", "lossy"):
        for b, t, msg in cases:
            with pytest.raises(ValueError, match=msg):
                code_spec(kind, A, b, t)


@pytest.mark.parametrize("q", [2, 3])
def test_both_specs_hold_one_sampler_per_matrix(q):
    rng = np.random.default_rng(q + 110)
    A = dense(rng.integers(0, q, size=(3, 7)), GF(q))
    B = dense(rng.integers(0, q, size=(2, 7)), GF(q))
    c = A.mat_vec(rng.integers(0, q, size=7))
    members = row_reduce(A).members(c)
    for spec in (code_spec("channel", A, B, c), code_spec("lossy", A, B, c)):
        assert spec.joint.echelon is spec.ech_stacked
        assert spec.coset_a.A is spec.A and spec.joint.A is spec.stacked
        assert (spec.n, spec.q, spec.rank_a) == (7, q, row_reduce(A).rank)
        assert spec.rate_r == spec.rank_a / 7 * math.log2(q)
        got, msgs, msg_of = spec.members_by_message()
        assert np.array_equal(got, members)
        assert np.array_equal(B.mat_mat(got), msgs[msg_of])
        assert len(np.unique(msgs, axis=0)) == len(msgs)


# ---------------------------------------------------------------------------
# same-seed outputs pinned across refactors
# ---------------------------------------------------------------------------

def _digest(items) -> str:
    """SHA-256 over arrays (dtype, shape, bytes), floats (hex) and nested values."""
    h = hashlib.sha256()

    def feed(v):
        if isinstance(v, np.ndarray):
            h.update(f"a{v.dtype.str}{v.shape}".encode())
            h.update(np.ascontiguousarray(v).tobytes())
        elif isinstance(v, dict):
            h.update(b"d")
            for key in sorted(v):
                feed(key)
                feed(v[key])
        elif isinstance(v, (list, tuple)):
            h.update(f"l{len(v)}".encode())
            for item in v:
                feed(item)
        elif isinstance(v, (float, np.floating)):
            h.update(f"f{float(v).hex()}".encode())
        else:
            h.update(f"{type(v).__name__}{v!r}".encode())

    feed(items)
    return h.hexdigest()


def _pinned_channel_spec(q):
    if q == 2:
        prior = MemorylessSource(np.tile([0.7, 0.3], (16, 1)))
        return sample_code(16, 6, 4, 4, GF2, prior, seed=1)
    prior = MemorylessSource(np.tile([0.6, 0.25, 0.15], (12, 1)))
    return sample_code(12, 4, 3, 4, GF3, prior, seed=2)


def _pinned_lossy_spec(q):
    n = 14 if q == 2 else 10
    field = GF(q)
    A = sample_sparse_matrix(EnsembleSpec(n=n, l=4, field=field, tau=2), stream(q, 1))
    B = sample_sparse_matrix(EnsembleSpec(n=n, l=4, field=field, tau=2), stream(q, 2))
    c = A.mat_vec(stream(q, 3).integers(0, q, size=n))
    source = MemorylessSource(stream(q, 4).dirichlet(np.full(q, 2.0), size=n))
    return lossy.LossyCodeSpec(A, B, c, source, qsc(q, 0.15, n), hamming_distortion(q), 0.2)


def _pinned_encodes(encode, rng, draws, message):
    out = []
    for _ in range(draws):
        m = message(rng)
        try:
            out.append((m, encode(m, rng)))
        except (EncodingError, DeadEndError) as exc:
            out.append((m, type(exc).__name__))
        out.append(rng.bit_generator.state)
    return out


PINNED_CONFIGS = {
    "exact": SamplerConfig(method="exact"),
    "exact-no-early": SamplerConfig(method="exact", early_stop=False),
    "sum-product": SamplerConfig(method="sum-product"),
}


@pytest.mark.parametrize("q", [2, 3])
@pytest.mark.parametrize("case", ["exact", "exact-no-early", "sum-product", "uniform",
                                  "lossy-exact", "lossy-sum-product", "interval",
                                  "path-tree"])
def test_same_seed_outputs_pinned(q, case):
    """Outputs for fixed seeds, recorded before the sampler became one driver."""
    assert _digest(_pinned_outputs(q, case)) == PINNED_DIGESTS[(q, case)]


def _pinned_outputs(q, case):
    field = GF(q)
    if case in PINNED_CONFIGS or case == "uniform":
        spec = _pinned_channel_spec(q)
        if case == "uniform":
            spec = ChannelCodeSpec(spec.A, spec.B, spec.c, uniform_source(spec.n, q))
            cfg = SamplerConfig()
        else:
            cfg = PINNED_CONFIGS[case]
        encoder = ChannelEncoder(spec, cfg)
        got = _pinned_encodes(encoder.encode, stream(10 + q, 0), 6,
                              spec.random_message)
    elif case.startswith("lossy"):
        spec = _pinned_lossy_spec(q)
        cfg = PINNED_CONFIGS[case.removeprefix("lossy-")]

        def encode(y, rng):
            return lossy.encode_reproduction(spec, y, cfg, rng)

        got = _pinned_encodes(encode, stream(20 + q, 0), 6, spec.source.sample)
    else:
        rng = np.random.default_rng(30 + q)
        got = []
        for _ in range(4):
            n, l = int(rng.integers(4, 8)), int(rng.integers(1, 4))
            A = SparseMatrix.from_dense(rng.integers(0, q, size=(l, n)), field)
            x_star = rng.integers(0, q, size=n)
            c = A.mat_vec(x_star)
            priors = rng.dirichlet(np.full(q, 1.5), size=n)
            for cfg in (EXACT, NO_EARLY, SamplerConfig(method="sum-product")):
                if case == "interval":
                    bits = rng.integers(0, 2, size=256).tolist()
                    out, used = generate_interval(A, c, priors, cfg, bits)
                    got.append((out.x, out.termination, out.steps, used))
                elif cfg.method == "exact":
                    got.append(path_tree_law(A, c, priors, cfg))
    return got


# recorded at the commit before the sampler became one driver, except where noted
PINNED_DIGESTS = {
    (2, 'exact'): "6f8af57c94d10bc24589f13f6202663265cce57626f27849486f27ed75e02d79",
    (2, 'exact-no-early'): "4e209032769aa47fe55e02a9573752d630dbf5953021f5a8d5a766389ca5b8da",
    # re-pinned when the sum-product engine came to draw every column from the
    # marginals of one BP run, with no re-run after each commit and no restarts
    (2, 'sum-product'): "41af3767aaf95382734566556cd20f0df71daafe5557ff66c8ad2f13718fa50f",
    (2, 'uniform'): "928e40fed37843ebbda5e41874ba226b5be0d5dca68593d554feefc3ac086b31",
    (2, 'lossy-exact'): "e1fb555866e5db047125dc4bb6d763e58a6e40bb36df0d5767c958fd5b7b5d53",
    # re-pinned likewise
    (2, 'lossy-sum-product'): "0bdf79f00f094802c94eb0b158c9a0465109bdc8c9234355fd20b0d56b628cda",
    # re-pinned likewise: its sum-product entries moved, its exact ones hash as before
    (2, 'interval'): "188d0563d98445ea8f714985f731da10ae327c2cf1c968a86290fc349d1bed07",
    (2, 'path-tree'): "dedc75b6261c36e884349a25ef3ec632b915866f3ec491a369c32e750467310e",
    (3, 'exact'): "4ac2e2845caf1f6074f43280c829a0eb1ed5f680241a07fe97f98171517bd54e",
    (3, 'exact-no-early'): "b241509f2581c5c55eb9cf9c0b1e4cc4af7ae104064260be4e19647c6076538d",
    # re-pinned likewise
    (3, 'sum-product'): "f47fc4746f525d25fb7db4b8b1fb0a94f6480ea7b9eac4160c75935487cce1fd",
    (3, 'uniform'): "29186aaa156519420eeb1571f2e780ad8797d91732c3bdc2a48cdff714c5ae5e",
    (3, 'lossy-exact'): "272abbb0d8bb3f8c8a63055fd21a9780652a0ea62b78d92e04dbc01de742c456",
    # re-pinned likewise
    (3, 'lossy-sum-product'): "3b5dc4d4f09b90d0f52c8a90944fd08088463c1783847a81cd06bb6f70ced98a",
    # re-pinned likewise: its sum-product entries moved, its exact ones hash as before
    (3, 'interval'): "88b228d98e3b2d0f299a63fcca28f35a8f710a3151d5484399d7aa903b144e3c",
    (3, 'path-tree'): "8e37a73b3252b26d87043ec86305db14cca2c85b4a10adc4af1aeeacc9d9efc0",
}


@pytest.mark.parametrize("q", [2, 3])
@pytest.mark.parametrize("case", ["decode-bp", "lossy-decode"])
def test_decoder_outputs_pinned(q, case):
    """Decoder outputs for fixed seeds, recorded before the decoders' read-out
    and state set-up were trimmed."""
    assert _digest(_pinned_decodes(q, case)) == PINNED_DIGESTS[(q, case)]


def _pinned_bp_codes(q):
    """(spec, channels) pairs: over GF(2) an ensemble code and a copy of its A
    with the last column emptied, over GF(3) one with coefficients 2."""
    if q == 2:
        n, prior = 64, bernoulli_source(0.3, 64)
        spec = sample_code(n, 32, 12, 4, GF2, prior, seed=4)
        D = spec.A.to_dense()
        D[:, -1] = 0
        A = SparseMatrix.from_dense(D, GF2)
        bare = ChannelCodeSpec(A, spec.B, A.mat_vec(stream(4, 9).integers(0, 2, size=n)), prior)
        return [(spec, [bsc(0.03, n), bsc(0.09, n), bac(0.02, 0.12, n), BiAwgnChannel(0.7, n)]),
                (bare, [bsc(0.05, n)])]
    n, prior = 48, MemorylessSource(np.tile([0.6, 0.25, 0.15], (48, 1)))
    spec = sample_code(n, 24, 8, 4, GF3, prior, seed=5)
    assert np.any(spec.A.coeffs == 2)
    return [(spec, [qsc(3, 0.04, n), qsc(3, 0.12, n)])]


def _pinned_lossy_decode_specs(q):
    """Lossy codes whose decode solves, enumerates (a uniform source, so every
    member ties, and one with zero marginals) and runs BP."""
    field = GF(q)

    def spec(n, l, k, seed, source, p):
        A = sample_sparse_matrix(EnsembleSpec(n=n, l=l, field=field, tau=2), stream(seed, 1))
        B = sample_sparse_matrix(EnsembleSpec(n=n, l=k, field=field, tau=2), stream(seed, 2))
        c = A.mat_vec(stream(seed, 3).integers(0, q, size=n))
        return lossy.LossyCodeSpec(A, B, c, source, qsc(q, p, n), hamming_distortion(q), 0.2)

    solved = next(s for s in (spec(8, 4, 6, seed, uniform_source(8, q), 0.15)
                              for seed in range(50)) if s.ech_stacked.rank == s.n)
    pmfs = stream(q, 5).dirichlet(np.full(q, 0.7), size=10)
    pmfs[::3] = np.eye(q)[np.arange(10)[::3] % q]          # zero marginals under qsc(q, 0)
    big_n = 48 if q == 2 else 30
    specs = [solved, spec(10, 4, 4, 1, uniform_source(10, q), 0.15),
             spec(10, 4, 4, 2, MemorylessSource(pmfs), 0.0),
             spec(big_n, big_n // 4, big_n // 4, 0, uniform_source(big_n, q), 0.15)]
    paths = [s.ech_stacked.rank == s.n or q ** (s.n - s.ech_stacked.rank) > DENSE_CAP
             for s in specs]
    assert paths == [True, False, False, True] and specs[-1].ech_stacked.rank < big_n
    return specs


def _pinned_decodes(q, case):
    got = []
    if case == "decode-bp":
        rng = stream(40 + q, 0)
        for spec, channels in _pinned_bp_codes(q):
            for ch in channels:
                for _ in range(6):
                    x = spec.coset_a.echelon.random_member(spec.c, rng)
                    out = decode_bp(spec, ch.sample(x, rng), ch)
                    got.append((out.m_hat, out.method, out.converged, out.iterations,
                                out.tie))
        return got
    rng = stream(50 + q, 0)
    for spec in _pinned_lossy_decode_specs(q):
        messages = [spec.B.mat_vec(spec.coset_a.echelon.random_member(spec.c, rng))
                    for _ in range(4)] + [rng.integers(0, q, size=spec.B.rows)]
        got.extend(lossy.decode(spec, m) for m in messages)
    return got


PINNED_DIGESTS.update({
    # recorded before the BP decode's state set-up, member test and read-out were trimmed
    (2, 'decode-bp'): "6ef08725a72b148e283cc05656b92bb3da7ee0c02d26d55b8fbc70e85d86ffb1",
    (3, 'decode-bp'): "04e4cdb5448bb7c24d9ea6b62cbfc353803cb315dce09f69d81972e84fe9d060",
    (2, 'lossy-decode'): "c54028d1fdedb1922a0c12736cc352be5bd46e4cceeb6902e5098a423f66949f",
    (3, 'lossy-decode'): "6e5d669f589b223c330526e53419072f12030349deea73b7ead87ccb4ed589f4",
})
