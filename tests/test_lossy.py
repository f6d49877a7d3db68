import json

import numpy as np
import pytest

from cosetcode import lossy, sampler
from cosetcode.gf import GF
from cosetcode.models import (
    DiscreteChannel,
    DistortionSpec,
    MemorylessSource,
    bac,
    bernoulli_source,
    bsc,
    hamming_distortion,
    qsc,
    uniform_source,
)
from cosetcode.sampler import DeadEndError, SamplerConfig
from cosetcode.sparsemat import (EchelonForm, EnsembleSpec, SparseMatrix, all_vectors,
                                 sample_sparse_matrix)
from cosetcode.stats import entropy_bits
from cosetcode.streams import stream

GF2 = GF(2)
EXACT = SamplerConfig(method="exact")
NO_EARLY = SamplerConfig(method="exact", early_stop=False)


def small_spec(n=8, l=3, k=4, target_d=0.25, seed=3):
    """Bernoulli(1/2) source, BSC(0.11) test channel, Hamming distortion."""
    A = sample_sparse_matrix(EnsembleSpec(n=n, l=l, field=GF2, tau=2), stream(seed, 1))
    B = sample_sparse_matrix(EnsembleSpec(n=n, l=k, field=GF2, tau=2), stream(seed, 2))
    c = A.mat_vec(stream(seed, 3).integers(0, 2, size=n))
    return lossy.LossyCodeSpec(A, B, c, bernoulli_source(0.5, n), bsc(0.11, n),
                               hamming_distortion(2), target_d)


def test_simulate_matches_exact_error_within_wilson():
    spec = small_spec()
    assert spec.ech_stacked.rank < spec.n    # decoding searches a joint coset
    exact = lossy.exact_error(spec)
    stats = lossy.simulate(spec, 1500, EXACT, seed=2)
    lo, hi = stats.wilson
    assert lo <= exact <= hi
    assert 0 < exact < 1
    assert stats.encoding_errors == 0 and stats.decode_failures == 0


@pytest.mark.parametrize("source", ["uniform", "per-index"])
def test_decode_matches_bruteforce_on_rank_deficient_stack(source):
    spec = small_spec()
    n = spec.n
    if source == "per-index":
        # distinct marginals per index, so the argmax is not all ties
        pmfs = stream(4, 0).dirichlet([1.0, 1.0], size=n)
        spec = lossy.LossyCodeSpec(spec.A, spec.B, spec.c, MemorylessSource(pmfs),
                                   spec.test_channel, spec.distortion, spec.target_d)
    assert spec.ech_stacked.rank < n
    V = all_vectors(2, n)
    on_a = [v for v in V if np.array_equal(spec.A.mat_vec(v), spec.c)]
    with np.errstate(divide="ignore"):
        lp = np.log2(spec.x_marginals)
    for m in all_vectors(2, spec.B.rows):
        # independent full-space scan: the first (lexicographic) maximum wins
        best, best_score = None, -np.inf
        for v in on_a:
            if not np.array_equal(spec.B.mat_vec(v), m):
                continue
            score = lp[np.arange(n), v].sum()
            if best is None or score > best_score:
                best, best_score = v, score
        got = lossy.decode(spec, m)
        if best is None:
            assert got is None
        else:
            assert np.array_equal(got, best)


@pytest.mark.parametrize("target_d", [float("nan"), float("inf"), -0.1])
def test_spec_refuses_a_target_that_is_not_finite_or_is_negative(target_d):
    with pytest.raises(ValueError, match="target_d"):
        small_spec(target_d=target_d)


@pytest.mark.parametrize("y, what", [
    ([-1, 0, 0, 0, 0, 0, 0, 0], "symbol outside"),        # would read the last symbol's row
    ([0, 0, 0, 0, 0, 0, 0, 2], "symbol outside"),
    ([0, 0, 0, 0, 0, 0, 0], "length"),
])
def test_encoder_checks_the_source_word(y, what):
    spec = small_spec()
    with pytest.raises(ValueError, match=what):
        lossy.encode_reproduction(spec, y, EXACT, stream(0, 0))
    with pytest.raises(ValueError, match=what):
        spec.posteriors(y)


def test_simulate_counts_dead_end_as_encoding_error(monkeypatch):
    spec = small_spec()

    def dead_end(spec, y, cfg, rng):
        raise DeadEndError("zero continuation mass")

    monkeypatch.setattr(lossy, "encode_reproduction", dead_end)
    stats = lossy.simulate(spec, 5, EXACT, seed=1)
    assert stats.encoding_errors == 5 and stats.errors == 5
    assert stats.mean_per_letter == float("inf")


def test_simulate_same_seed_deterministic():
    spec = small_spec()
    r1 = lossy.simulate(spec, 50, EXACT, seed=9)
    r2 = lossy.simulate(spec, 50, EXACT, seed=9)
    assert r1.as_dict() == r2.as_dict()
    assert r1.histogram == r2.histogram


def dense(arr, field=GF2):
    return SparseMatrix.from_dense(np.array(arr), field)


def uniform_spec(A, B, c):
    """Uniform source through a BSC test channel: the reproduction marginals
    are uniform."""
    n = A.cols
    return lossy.LossyCodeSpec(A, B, c, uniform_source(n, 2), bsc(0.11, n),
                               hamming_distortion(2), 0.2)


def test_linear_decode_roundtrip_small():
    # a bijective stack: decode is the linear solve for the one x with (A x, B x) = (c, m)
    A, B = dense([[1, 1]]), dense([[1, 0]])
    for x in all_vectors(2, 2):
        spec = uniform_spec(A, B, A.mat_vec(x))
        assert np.array_equal(lossy.decode(spec, B.mat_vec(x)), x)


def test_linear_decode_roundtrip_random_exhaustive():
    rng = np.random.default_rng(12)
    done = 0
    while done < 8:
        n = int(rng.integers(2, 7))
        l = int(rng.integers(1, n))
        A = dense(rng.integers(0, 2, size=(l, n)))
        B = dense(rng.integers(0, 2, size=(n - l + 1, n)))
        specs = {}
        for x in all_vectors(2, n):
            c = A.mat_vec(x)
            if c.tobytes() not in specs:
                specs[c.tobytes()] = uniform_spec(A, B, c)
            spec = specs[c.tobytes()]
            if spec.ech_stacked.rank < n:
                break
            assert np.array_equal(lossy.decode(spec, B.mat_vec(x)), x)
        else:
            done += 1


def test_linear_decode_rejects_target_outside_image():
    A, B = dense([[1, 1]]), dense(np.eye(2, dtype=int))
    spec = uniform_spec(A, B, [0])
    assert np.array_equal(lossy.decode(spec, [1, 1]), [1, 1])
    assert lossy.decode(spec, [1, 0]) is None      # A x = 1 for x = (1, 0)


def summed_rate_check_entropies(spec):
    """(H(X), H(X|Y)) per letter as lossy.rate_check summed them by hand."""
    n = spec.n
    h_x = float(np.mean([entropy_bits(spec.x_marginals[i]) for i in range(n)]))
    h_xy = 0.0
    for i in range(n):
        for yv in range(spec.source.q):
            py = spec.source.pmfs[i, yv]
            if py > 0:
                h_xy += py * entropy_bits(spec.test_channel.kernels[i, yv])
    return h_x, float(h_xy / n)


def test_rate_check_matches_summed_entropies():
    rng = np.random.default_rng(20)
    for t in range(20):
        q = (2, 3)[t % 2]
        n, ny = int(rng.integers(2, 7)), int(rng.integers(2, 4))
        A = sample_sparse_matrix(EnsembleSpec(n=n, l=1, field=GF(q), tau=2), stream(t, 1))
        B = sample_sparse_matrix(EnsembleSpec(n=n, l=2, field=GF(q), tau=2), stream(t, 2))
        source = rng.dirichlet(np.ones(ny), size=n)
        source[0] = np.eye(ny)[0]           # a source letter of zero mass
        spec = lossy.LossyCodeSpec(A, B, A.mat_vec(rng.integers(0, q, size=n)),
                                   MemorylessSource(source),
                                   DiscreteChannel(rng.dirichlet(np.ones(q), size=(n, ny))),
                                   DistortionSpec(np.ones((q, ny))), 0.2)
        rep = lossy.rate_check(spec)
        h_x, h_xy = summed_rate_check_entropies(spec)
        assert rep["h_x"] == h_x
        assert abs(rep["h_x_given_y"] - h_xy) < 1e-12


def test_rate_check_is_plain_json():
    rep = lossy.rate_check(small_spec())
    assert json.loads(json.dumps(rep)) == rep
    assert {type(v) for v in rep.values()} <= {bool, float}
    assert type(rep["cond_r"]) is bool and type(rep["cond_rR"]) is bool


def test_as_dict_carries_the_histogram(monkeypatch):
    spec = small_spec()
    stats = lossy.simulate(spec, 40, EXACT, seed=5)
    out = json.loads(json.dumps(stats.as_dict()))
    hist = out["histogram"]
    assert sum(hist.values()) == 40
    assert hist == {str(d): count for d, count in stats.histogram.items()}
    assert {float(d) for d in hist} == set(stats.histogram)

    def dead_end(spec, y, cfg, rng):
        raise DeadEndError("zero continuation mass")

    monkeypatch.setattr(lossy, "encode_reproduction", dead_end)
    failed = json.loads(json.dumps(lossy.simulate(spec, 3, EXACT, seed=1).as_dict()))
    assert failed["histogram"] == {"inf": 3}


# ---------------------------------------------------------------------------
# one exact engine per code under an additive test channel
# ---------------------------------------------------------------------------

def noise_spec(q, n, l, k, tau, seed, channel=None):
    """A lossy code with a skewed source and a BSC or QSC(0.11) test channel."""
    field = GF(q)
    A = sample_sparse_matrix(EnsembleSpec(n=n, l=l, field=field, tau=tau), stream(seed, 1))
    B = sample_sparse_matrix(EnsembleSpec(n=n, l=k, field=field, tau=tau), stream(seed, 2))
    c = A.mat_vec(stream(seed, 3).integers(0, q, size=n))
    source = MemorylessSource(stream(seed, 4).dirichlet(np.full(q, 2.0), size=n))
    channel = channel or (bsc(0.11, n) if q == 2 else qsc(q, 0.11, n))
    return lossy.LossyCodeSpec(A, B, c, source, channel, hamming_distortion(q), 0.2)


@pytest.mark.parametrize("q, shape, codes, words", [
    (2, (40, 16, 26, 6), 2, 100),                     # the lossy-exact shape
    (3, (16, 6, 8, 4), 2, 100),
])
def test_noise_engine_draws_what_the_per_word_engine_draws(q, shape, codes, words):
    """x = y + z with z drawn on c - A y from the code's one engine is the per-word
    posterior draw: the same x and the same rng state after it, with and without
    early stop."""
    draws = 0
    for seed in range(codes):
        spec = noise_spec(q, *shape, seed=seed + 10 * q)
        rng = stream(q, 150, seed)
        for _ in range(words):
            y = spec.source.sample(rng)
            for cfg in (EXACT, NO_EARLY):
                shared, per_word = stream(q, 151, draws), stream(q, 151, draws)
                x = lossy.encode_reproduction(spec, y, cfg, shared)
                want = spec.coset_a.engine(spec.posteriors(y), cfg).draw(spec.c, per_word).x
                assert np.array_equal(x, want)
                assert repr(shared.bit_generator.state) == repr(per_word.bit_generator.state)
                draws += 1
        assert set(spec._engines) == {True, False}
    assert draws >= 400


def count_builds(monkeypatch):
    builds = []
    real = sampler.ExactStepper.__init__
    monkeypatch.setattr(sampler.ExactStepper, "__init__",
                        lambda st, plan, priors: builds.append(plan.stop) or real(st, plan, priors))
    return builds


def test_noise_engine_is_built_on_first_use_once_per_code_and_early_stop(monkeypatch):
    builds = count_builds(monkeypatch)
    specs = [noise_spec(2, 16, 6, 8, 4, seed) for seed in (1, 2)]
    assert builds == []                               # set-up builds no stepper
    rng = stream(2, 160)
    for cfg in (EXACT, NO_EARLY, SamplerConfig(method="sum-product")):
        for _ in range(5):
            for spec in specs:
                lossy.encode_reproduction(spec, spec.source.sample(rng), cfg, rng)
    assert len(builds) == 4                           # (code, early_stop): one engine each
    assert sorted(builds) == sorted(spec.coset_a.early_stop_index for spec in specs) + [16, 16]


def test_a_test_channel_that_is_not_additive_builds_one_stepper_per_word(monkeypatch):
    builds = count_builds(monkeypatch)
    spec = noise_spec(2, 16, 6, 8, 4, 3, channel=bac(0.1, 0.3, 16))
    assert spec.noise_engine(EXACT) is None and builds == []
    rng = stream(2, 170)
    for _ in range(5):
        lossy.encode_reproduction(spec, spec.source.sample(rng), EXACT, rng)
    assert len(builds) == 5
    uniform = noise_spec(2, 16, 6, 8, 4, 3, channel=bsc(0.5, 16))   # w uniform: no tables
    assert uniform.noise_engine(EXACT) is None


def test_a_word_reduces_one_target_and_a_pass_reads_t_c_minus_ax_at_pivots(monkeypatch):
    """Through the noise engine a source word reduces one target, c - A y, whose
    membership in Im A is c's; a pass of the driver forms T(c - A x) at most once
    per pivot column before the stop and once at the stop, and no more."""
    calls = {"reduced_target": 0, "transformed": 0}
    for cls, name in ((sampler.CosetSampler, "reduced_target"), (EchelonForm, "transformed")):
        def counted(*args, _real=getattr(cls, name), _name=name):
            calls[_name] += 1
            return _real(*args)
        monkeypatch.setattr(cls, name, counted)
    spec = noise_spec(2, 40, 16, 26, 6, seed=5)      # the lossy-exact shape
    coset, rng, reads = spec.coset_a, stream(2, 190), []
    for cfg in (EXACT, NO_EARLY):
        stop = coset.early_stop_index if cfg.early_stop else spec.n
        pivots = int(np.count_nonzero(coset.pivot_row[:stop] >= 0))
        for _ in range(40):
            calls.update(dict.fromkeys(calls, 0))
            lossy.encode_reproduction(spec, spec.source.sample(rng), cfg, rng)
            assert calls["reduced_target"] == 1
            reads.append(calls["transformed"] - 1)   # reduced_target transforms once
            assert reads[-1] <= pivots + (stop < spec.n)
    assert spec.noise_engine(EXACT) is not None and coset.early_stop_index < spec.n
    assert max(reads) >= 2
