import hashlib
import math
from fractions import Fraction

import numpy as np
import pytest

from cosetcode import lossy
from cosetcode.channel import ChannelCodeSpec, ChannelEncoder, sample_code
from cosetcode.gf import GF
from cosetcode.models import MemorylessSource, hamming_distortion, qsc, uniform_source
from cosetcode.sampler import (
    BitStream,
    DeadEndError,
    EncodingError,
    CosetSampler,
    ExactStepper,
    GeneratedSample,
    SamplerConfig,
    _SPARE_BLOCKS,
    exact_coset_law,
    generate,
    generate_interval,
    path_tree_law,
    step_conditional,
)
from cosetcode.sparsemat import (
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
    # not fields: the state budget is DENSE_CAP, and uniform priors pick
    # their own engine
    for removed in ("exact_cap", "exact_cap_states", "uniform_shortcut"):
        with pytest.raises(TypeError):
            SamplerConfig(**{removed: 10})


def test_config_validation_retries_and_damping():
    with pytest.raises(ValueError, match="retries"):
        SamplerConfig(retries=0)
    for damping in (-0.1, 1.0, 1.5):
        with pytest.raises(ValueError, match="sp_damping"):
            SamplerConfig(method="sum-product", sp_damping=damping)
    SamplerConfig(retries=1, sp_damping=0.0)
    SamplerConfig(sp_damping=0.99)


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


# ---------------------------------------------------------------------------
# step conditionals
# ---------------------------------------------------------------------------

def test_step_conditional_first_step_hand_value():
    A = dense([[1, 1]], GF2)
    priors = np.array([[0.7, 0.3], [0.7, 0.3]])
    pmf = step_conditional(A, [0], priors, [], EXACT)
    assert pmf[0] == pytest.approx(0.49 / 0.58)


def test_step_conditional_identity_and_unconstrained():
    I = dense(np.eye(3, dtype=int), GF3)
    priors = np.full((3, 3), 1 / 3)
    pmf = step_conditional(I, [2, 0, 1], priors, [], EXACT)
    assert np.allclose(pmf, [0, 0, 1])
    A0 = SparseMatrix(0, 2, GF2, [])
    priors = np.array([[0.2, 0.8], [0.6, 0.4]])
    pmf = step_conditional(A0, [], priors, [0], EXACT)
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
        got = step_conditional(A, c, priors, prefix, EXACT)
        want = oracle_step_pmf(A, c, priors, prefix, k)
        assert np.max(np.abs(got - want)) < 1e-12


def test_step_conditional_error_taxonomy():
    A = dense([[1, 1], [1, 1]], GF2)
    priors = np.full((2, 2), 0.5)
    with pytest.raises(EncodingError):
        step_conditional(A, [0, 1], priors, [], EXACT)
    # dead prefix (only reachable by feeding an off-coset prefix)
    B = dense([[1, 0]], GF2)
    with pytest.raises(DeadEndError):
        step_conditional(B, [1], priors, [0], EXACT)


# ---------------------------------------------------------------------------
# generate
# ---------------------------------------------------------------------------

def test_generate_identity_matrix_is_deterministic():
    I = dense(np.eye(4, dtype=int), GF2)
    c = np.array([1, 0, 1, 1])
    priors = np.array([[0.6, 0.4]] * 4)      # non-uniform: the exact engine runs
    out = generate(I, c, priors, NO_EARLY, stream(0, 0))
    assert np.array_equal(out.x, c)


def test_generate_full_rank_early_stops():
    A = dense([[1, 0, 1], [0, 1, 1], [1, 1, 1]], GF2)  # rank 3
    priors = np.array([[0.3, 0.7]] * 3)
    c = A.mat_vec(np.array([1, 0, 1]))
    out = generate(A, c, priors, EXACT, stream(1, 0))
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
        out = generate(A, c, priors, EXACT, stream(1000 + t, 0))
        assert np.array_equal(A.mat_vec(out.x), c)
    A = dense([[1, 1], [1, 1]], GF2)
    for priors in (np.array([[0.6, 0.4]] * 2),       # the exact engine
                   np.full((2, 2), 0.5)):            # the uniform engine
        with pytest.raises(EncodingError):
            generate(A, [0, 1], priors, EXACT, stream(0, 0))


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
    cfg = SamplerConfig(method="sum-product", sp_init_iters=30, sp_step_iters=2)
    for t in range(20):
        n, l = 8, 3
        D = rng_master.integers(0, 2, size=(l, n))
        A = SparseMatrix.from_dense(D, GF2)
        c = A.mat_vec(rng_master.integers(0, 2, size=n))
        priors = rng_master.dirichlet(np.ones(2), size=n)
        out = generate(A, c, priors, cfg, stream(40 + t, 0))
        assert np.array_equal(A.mat_vec(out.x), c)


def test_generate_sum_product_law_close_on_tree():
    # on a cycle-free instance BP conditionals are exact, so the law is too
    A = dense([[1, 1, 0], [0, 1, 1]], GF2)
    c = [1, 1]
    priors = np.array([[0.6, 0.4], [0.3, 0.7], [0.8, 0.2]])
    cfg = SamplerConfig(method="sum-product", sp_init_iters=10, sp_step_iters=5,
                        early_stop=False)
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
    engine = spec.sampler.engine(prior.pmfs, cfg)
    pivots = spec.sampler.pivot_row >= 0
    rng = stream(60 + q, 0)
    passes = 0
    for _ in range(8):
        pmfs = []

        def choose(pmf):
            pmfs.append(pmf)
            return sample_pmf(rng, pmf)

        m = spec.random_message(rng)
        try:
            out = engine.walk(np.concatenate([spec.c, m]), choose)
        except DeadEndError:                    # BP zeroed the forced symbol: no choice made
            pass
        else:
            passes += 1
            assert len(pmfs) == out.steps
            assert np.array_equal(spec.B.mat_vec(out.x), m)
        assert pivots[:len(pmfs)].any()
        for k, pmf in enumerate(pmfs):
            if pivots[k]:
                assert np.count_nonzero(pmf) == 1 and pmf.max() == 1.0
    assert passes >= 4
    for _ in range(8):                          # restarts absorb the rest
        m = spec.random_message(rng)
        assert np.array_equal(spec.B.mat_vec(engine.draw(np.concatenate([spec.c, m]), rng).x), m)


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


# ---------------------------------------------------------------------------
# interval algorithm
# ---------------------------------------------------------------------------

def test_interval_all_zero_bits_selects_leftmost():
    A = dense([[1, 1]], GF2)
    priors = np.array([[0.7, 0.3], [0.7, 0.3]])
    omega = BitStream.from_bits([0] * 64)
    out, used = generate_interval(A, [0], priors, NO_EARLY, omega)
    assert np.array_equal(out.x, [0, 0])


def test_interval_deterministic_given_omega():
    A = dense([[1, 1, 0], [0, 1, 1]], GF2)
    priors = np.array([[0.6, 0.4], [0.3, 0.7], [0.8, 0.2]])
    bits = stream(9, 0).integers(0, 2, size=128).tolist()
    outs = set()
    for _ in range(3):
        out, _ = generate_interval(A, [1, 0], priors, NO_EARLY,
                                   BitStream.from_bits(bits))
        outs.add(tuple(out.x))
    assert len(outs) == 1


def test_interval_widths_match_law_two_point():
    # sweep the boundary region: outcome flips exactly at width 49/58
    A = dense([[1, 1]], GF2)
    priors = np.array([[0.7, 0.3], [0.7, 0.3]])
    c = [0]
    boundary = Fraction(float(0.49 / 0.58))

    def outcome(om_bits):
        out, _ = generate_interval(A, c, priors, NO_EARLY,
                                   BitStream.from_bits(om_bits))
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
    omega = BitStream.from_bits([1])  # nowhere near enough
    with pytest.raises(ValueError, match="exhausted"):
        generate_interval(A, [0], priors, NO_EARLY, omega)


def test_interval_matches_generate_law_via_rng_omega():
    A = dense([[1, 1]], GF2)
    priors = np.array([[0.7, 0.3], [0.7, 0.3]])
    rng = stream(31, 0)
    counts = np.zeros(2)
    trials = 8000
    for _ in range(trials):
        out, _ = generate_interval(A, [0], priors, NO_EARLY, BitStream.from_rng(rng))
        counts[out.x[0]] += 1
    expected = np.array([49 / 58, 9 / 58]) * trials
    assert chi_square_stat(counts, expected) < chi2_quantile(1, 0.999)


def test_bitstream_from_hex():
    bs = BitStream.from_hex("a")  # 1010
    assert [bs.bit() for _ in range(4)] == [1, 0, 1, 0]


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
        st = ExactStepper(A, priors)
        members = row_reduce(A).members(c)
        want = sum(
            np.prod(priors[np.arange(n), m]) for m in members
        )
        assert st.mass_of(c) == pytest.approx(float(want), abs=1e-12)


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


@pytest.mark.parametrize("q", [2, 3, 5])
def test_stepper_tables_match_per_axis_rolls(q):
    rng = np.random.default_rng(q)
    crossings = 0
    for _ in range(4):
        n, l = 7, 4 if q < 5 else 3
        D = rng.integers(0, q, size=(l, n)) * (rng.random((l, n)) < 0.5)
        D[:, 2] = 0                                   # an all-zero column
        priors = rng.dirichlet(np.ones(q), size=n)
        priors[1, 0] = 0                              # a symbol the prior excludes
        priors[1] /= priors[1].sum()
        st = ExactStepper(SparseMatrix.from_dense(D, GF(q)), priors)
        got = [st.table(k) for k in range(st.stop + 1)]
        for got_k, want in zip(got, per_axis_roll_tables(D, priors, q), strict=True):
            assert np.array_equal(got_k, want)
        crossings += len(st.plan.cross)
    assert crossings > 0 if q == 2 else crossings == 0    # GF(2) re-lays some table


@pytest.mark.parametrize("q", [2, 3, 5])
def test_stepper_tables_from_the_early_stop_match_per_axis_rolls(q):
    rng = np.random.default_rng(q + 10)
    stops, crossings = set(), 0
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
            st = ExactStepper(A, pri, stop=stop)
            want = per_axis_roll_tables(D, pri, q)[:stop + 1]
            assert st.stop == stop
            with pytest.raises(ValueError, match="outside"):
                st.table(stop + 1)
            for got, ref in zip([st.table(k) for k in range(stop + 1)], want, strict=True):
                assert np.array_equal(got, ref)
        stops.add(stop)
        crossings += len(st.plan.cross)
    assert min(stops) < 7                             # some draws do stop early
    assert crossings > 0 if q == 2 else crossings == 0


@pytest.mark.parametrize("q", [2, 3])
def test_stepper_refuses_a_stop_with_dependent_suffix_columns(q):
    D = np.array([[1, 0, 1, q - 1], [0, 1, 1, q - 1]])   # col 3 = (q - 1) col 2
    A = SparseMatrix.from_dense(D, GF(q))
    priors = np.full((4, q), 1 / q)
    assert CosetSampler(A).early_stop_index == 3
    with pytest.raises(ValueError, match="dependent"):
        ExactStepper(A, priors, stop=2)
    for stop in (-1, 5):
        with pytest.raises(ValueError, match="outside"):
            ExactStepper(A, priors, stop=stop)
    assert ExactStepper(A, priors, stop=3).table(3).shape == (q, q)


def test_stepper_keeps_one_block_per_shape_whatever_the_stop():
    D1 = np.array([[1, 1, 0, 1, 0], [0, 1, 1, 0, 1]])
    D2 = np.array([[1, 0, 1, 1, 1], [0, 1, 1, 1, 1]])  # equal last columns
    A1, A2 = (SparseMatrix.from_dense(D, GF2) for D in (D1, D2))
    s1, s2 = CosetSampler(A1), CosetSampler(A2)
    assert (s1.early_stop_index, s2.early_stop_index) == (3, 4)
    priors = np.full((5, 2), 0.5)
    shape, before, blocks = (7, 2, 2), set(_SPARE_BLOCKS), set()
    for sampler in (s1, s2, s1):
        st = ExactStepper(sampler.A, priors, stop=sampler.early_stop_index)
        del st                                        # hands its block back
        blocks.add(id(_SPARE_BLOCKS[shape]))
    assert len(blocks) == 1 and set(_SPARE_BLOCKS) - before <= {shape}


@pytest.mark.parametrize("q", [2, 3, 5])
def test_step_pmf_matches_the_per_symbol_loop(q):
    rng = np.random.default_rng(q + 20)
    n, l = 6, 3
    D = rng.integers(0, q, size=(l, n))
    priors = rng.dirichlet(np.ones(q), size=n)
    priors[2, 1] = 0                                  # a symbol the prior excludes
    st = ExactStepper(SparseMatrix.from_dense(D, GF(q)), priors)
    tables = [st.table(k) for k in range(n + 1)]
    for k in range(n):
        for residual in all_vectors(q, l):
            want = np.empty(q)
            for xv in range(q):                       # the former per-symbol loop
                t = (residual - xv * D[:, k]) % q
                want[xv] = 0.0 if priors[k, xv] == 0 else \
                    priors[k, xv] * tables[k + 1][tuple(t)]
            s = want.sum()
            want = want / s if s > 0 else want
            got = st.step_pmf(k, st.locate(k, residual))
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
        generate_interval(A, [0, 0], bad, EXACT, BitStream.from_bits([0] * 64))


def test_stepper_blocks_are_reused_without_aliasing():
    rng = np.random.default_rng(56)
    A = SparseMatrix.from_dense(rng.integers(0, 3, size=(3, 6)), GF3)
    p1, p2 = (rng.dirichlet(np.ones(3), size=6) for _ in range(2))
    st1, st2 = ExactStepper(A, p1), ExactStepper(A, p2)
    assert not np.shares_memory(st1._tables, st2._tables)
    want1, want2 = ([st.table(k) for k in range(7)] for st in (st1, st2))
    del st1
    st3 = ExactStepper(A, p1)                         # takes the block st1 gave back
    for k in range(7):
        assert np.array_equal(st3.table(k), want1[k])
        assert np.array_equal(st2.table(k), want2[k])


def test_stepper_cap_refused():
    A = SparseMatrix.from_dense(np.zeros((25, 4), dtype=int), GF3)
    with pytest.raises(ValueError):
        ExactStepper(A, np.full((4, 3), 1 / 3))


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
            st = ExactStepper(A, priors)
            want = per_axis_roll_tables(D, priors, q)[0]
            assert np.array_equal(st.table(0), want)
            for c in all_vectors(q, l):
                assert st.mass_of(c) == want[tuple(c)]  # summed in the recursion's order
        assert ExactStepper(A, massless).mass_of(np.zeros(l, dtype=np.int64)) == 0.0


def test_gf2_block_bases_keep_tables_and_step_pmfs_across_basis_changes():
    rng = np.random.default_rng(58)
    n, l = 28, 10
    D = (rng.random((l, n)) < 0.3).astype(np.int64)
    A = SparseMatrix.from_dense(D, GF2)
    priors = rng.dirichlet(np.ones(2), size=n)
    priors[5, 1] = 0                                  # a symbol the prior excludes
    st = ExactStepper(A, priors)
    assert len(st.plan.cross) >= 2
    want = per_axis_roll_tables(D, priors, 2)
    for k in range(n + 1):
        assert np.array_equal(st.table(k), want[k])
    for _ in range(5):      # a residual carried by `advance` through every basis change
        x = rng.integers(0, 2, size=n)
        x[5] = 0
        t = A.mat_vec(x)
        residual = st.locate(0, t)
        for k in range(n):
            ref = np.array([priors[k, xv] * want[k + 1][tuple((t - xv * D[:, k]) % 2)]
                            for xv in range(2)])
            ref = ref / ref.sum()
            assert st.step_pmf(k, residual).tobytes() == ref.tobytes()
            t = (t - x[k] * D[:, k]) % 2
            residual = st.advance(k, residual, x[k])


@pytest.mark.parametrize("seed", range(4))
def test_gf2_shifts_flip_only_leading_axes_at_the_lossy_exact_shape(seed):
    n, l, d = 40, 16, 8
    A = sample_sparse_matrix(EnsembleSpec(n=n, l=l, field=GF2, tau=6), stream(seed, 1))
    sampler = CosetSampler(A)
    stop = sampler.early_stop_index
    plan = sampler.table_plan(stop)
    assert sampler.table_plan(stop) is plan           # built once per matrix and stop
    assert plan.shape == (2,) * d + (1 << (l - d),)   # shifts run over 256 contiguous values
    assert len(plan.shifts) == stop and plan.cross
    for shift, flips in zip(plan.shifts, plan.flips, strict=True):
        assert shift % (1 << (l - d)) == 0            # only the leading d axes move
        assert len(flips) == d
        assert sum(f.step == -1 for f in flips) == bin(shift).count("1")


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
                                  "step", "path-tree"])
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
                    out, used = generate_interval(A, c, priors, cfg,
                                                  BitStream.from_bits(bits))
                    got.append((out.x, out.termination, out.steps, used))
                elif case == "step":
                    for k in range(n):
                        got.append(step_conditional(A, c, priors, x_star[:k], cfg))
                elif cfg.method == "exact":
                    got.append(path_tree_law(A, c, priors, cfg))
    return got


# recorded at the commit before the sampler became one driver, except where noted
PINNED_DIGESTS = {
    (2, 'exact'): "6f8af57c94d10bc24589f13f6202663265cce57626f27849486f27ed75e02d79",
    (2, 'exact-no-early'): "4e209032769aa47fe55e02a9573752d630dbf5953021f5a8d5a766389ca5b8da",
    # re-pinned when pivot columns became point masses: the earlier BP put
    # mass on the symbol the prefix rules out at step 11 of every draw
    (2, 'sum-product'): "78ea4b244c7dd0e2b51c1b3d7565586c8a4fd2be51e986b60d057074abe72bde",
    (2, 'uniform'): "928e40fed37843ebbda5e41874ba226b5be0d5dca68593d554feefc3ac086b31",
    (2, 'lossy-exact'): "e1fb555866e5db047125dc4bb6d763e58a6e40bb36df0d5767c958fd5b7b5d53",
    (2, 'lossy-sum-product'): "636893a0fe97753584357b0203baaeacf6dcc7ac732babd1acb1a53a2e59366b",
    (2, 'interval'): "fab91722865c4acf5d4bd39f8c9a03f5c4b70ab16443eefcb480ca94c8ce8df5",
    (2, 'step'): "0302a35fef5d4270778b44b8001045ca0614598e43d8f8dc2112f1a9f70c66d4",
    (2, 'path-tree'): "dedc75b6261c36e884349a25ef3ec632b915866f3ec491a369c32e750467310e",
    (3, 'exact'): "4ac2e2845caf1f6074f43280c829a0eb1ed5f680241a07fe97f98171517bd54e",
    (3, 'exact-no-early'): "b241509f2581c5c55eb9cf9c0b1e4cc4af7ae104064260be4e19647c6076538d",
    (3, 'sum-product'): "2a7264806b9aea6c0d88a19148fe56b9b795f225c821f1abf346f03743c11e34",
    (3, 'uniform'): "29186aaa156519420eeb1571f2e780ad8797d91732c3bdc2a48cdff714c5ae5e",
    (3, 'lossy-exact'): "272abbb0d8bb3f8c8a63055fd21a9780652a0ea62b78d92e04dbc01de742c456",
    # re-pinned likewise (step 2 of every draw); two draws that dead-ended
    # after 16 restarts now encode
    (3, 'lossy-sum-product'): "a7eb293afa20a7d8b7fd8a7074d53bcefb6b39b850813787a4e04dc6afca85cb",
    (3, 'interval'): "f71103e0d38edacb09a87064383f5b9a5a8cf8047fcfcb70e566b5ab906abf78",
    (3, 'step'): "8cef7532e2a9554afe92c60320b6e982518a0581de33e8697bee39f97cebd7ef",
    (3, 'path-tree'): "8e37a73b3252b26d87043ec86305db14cca2c85b4a10adc4af1aeeacc9d9efc0",
}
