import math

import numpy as np
import pytest

from cosetcode import models
from cosetcode.models import (
    BiAwgnChannel,
    DiscreteChannel,
    DistortionSpec,
    MemorylessSource,
    bac,
    bernoulli_source,
    bsc,
    checked_words,
    hamming_distortion,
    qsc,
    rate_quantities,
    reverse_model,
    uniform_source,
)
from cosetcode.stats import binary_entropy
from cosetcode.streams import stream


# ---------------------------------------------------------------------------
# sources
# ---------------------------------------------------------------------------

def test_log_prob_iid_uniform():
    src = uniform_source(4, 2)
    assert src.log_prob([0, 1, 1, 0]) == pytest.approx(-4.0)


def test_log_prob_point_mass():
    src = MemorylessSource(np.broadcast_to([1.0, 0.0], (5, 2)).copy())
    assert src.log_prob([0] * 5) == 0.0
    assert src.log_prob([0, 1, 0, 0, 0]) == float("-inf")
    assert np.array_equal(src.sample(stream(1, 0)), np.zeros(5, dtype=int))


def test_log_prob_nonstationary_product_rule():
    src = MemorylessSource([[0.9, 0.1], [0.1, 0.9]])
    assert src.log_prob([1, 1]) == pytest.approx(math.log2(0.09))


def test_source_validation():
    with pytest.raises(ValueError):
        MemorylessSource([[0.5, 0.6]])
    with pytest.raises(ValueError):
        MemorylessSource([[1.1, -0.1]])
    src = bernoulli_source(0.3, 3)
    with pytest.raises(ValueError):
        src.log_prob([0, 1])
    with pytest.raises(ValueError):
        src.log_prob([0, 1, 2])


@pytest.mark.parametrize("build", [
    lambda: MemorylessSource([[math.nan, math.nan], [0.5, 0.5]]),
    lambda: rate_quantities([[math.nan, math.nan]], bsc(0.1, 1)),
    lambda: DiscreteChannel([[[math.nan, math.nan], [0.1, 0.9]]]),
    lambda: BiAwgnChannel(math.nan, 3),
    lambda: BiAwgnChannel(math.inf, 3),
], ids=["source", "prior", "kernel", "nan-sigma", "inf-sigma"])
def test_non_finite_model_inputs_are_refused(build):
    with pytest.raises(ValueError, match="finite"):
        build()


def test_sampling_frequencies_match_pmf():
    src = bernoulli_source(0.3, 2000)
    xs = src.sample(stream(99, 0))
    # 4-sigma binomial bound on the empirical frequency of symbol 1
    sigma = math.sqrt(0.3 * 0.7 / 2000)
    assert abs(xs.mean() - 0.3) < 4 * sigma


def test_draws_match_a_cdf_formed_per_call():
    """Source and channel draws read CDFs built at construction; they equal
    the draws from a CDF formed on every call, bit for bit."""
    rng = np.random.default_rng(3)
    pmfs = rng.dirichlet(np.ones(5), size=40)
    kernels = rng.dirichlet(np.ones(4), size=(40, 5))
    src, ch = MemorylessSource(pmfs), DiscreteChannel(kernels)
    for t in range(5):
        u = stream(21, t).random(40)
        want = np.minimum((u[:, None] >= np.cumsum(pmfs, axis=1)).sum(axis=1), 4)
        assert np.array_equal(src.sample(stream(21, t)), want)
        x = src.sample(stream(22, t))
        cdf = np.cumsum(kernels[np.arange(40), x], axis=1)
        u = stream(23, t).random(40)
        want = np.minimum((u[:, None] >= cdf).sum(axis=1), 3)
        assert np.array_equal(ch.sample(x, stream(23, t)), want)


# ---------------------------------------------------------------------------
# channels
# ---------------------------------------------------------------------------

def test_bsc_zero_noiseless():
    ch = bsc(0.0, 6)
    x = np.array([0, 1, 1, 0, 1, 0])
    y = ch.sample(x, stream(2, 0))
    assert np.array_equal(y, x)


def test_bsc_log_lik_flip_count():
    p = 0.1
    ch = bsc(p, 8)
    x = np.zeros(8, dtype=int)
    y = np.array([0, 1, 0, 0, 1, 0, 0, 0])
    flips = int((x != y).sum())
    want = flips * math.log2(p) + (8 - flips) * math.log2(1 - p)
    assert ch.log_lik(y, x) == pytest.approx(want)


def test_biawgn_density_reference_point():
    ch = BiAwgnChannel(1.0, 1)
    d = np.exp(ch.log_density(np.array([1.0])))
    assert d[0, 0] == pytest.approx(1 / math.sqrt(2 * math.pi))
    assert d[0, 1] == pytest.approx(math.exp(-2.0) / math.sqrt(2 * math.pi))


def test_biawgn_far_outputs_do_not_underflow():
    # at sigma = 0.05 both densities of y = +-5 are below the smallest double
    ch = BiAwgnChannel(0.05, 4)
    x = np.array([0, 1, 0, 1])
    y = 5.0 * (1 - 2 * x)
    assert np.all(np.exp(ch.log_density(y)) == 0)
    ll = ch.log_lik(y, x)
    assert math.isfinite(ll)
    # log2 of the density of y = 5 under s = +1, per index
    want = 4 * (-0.5 * (4 / 0.05) ** 2 - math.log(0.05 * math.sqrt(2 * math.pi))) / math.log(2)
    assert ll == pytest.approx(want)
    assert ch.log_lik(y, 1 - x) < ll
    post = reverse_model(MemorylessSource(np.full((4, 2), 0.5)), ch, y)
    assert np.array_equal(np.argmax(post, axis=1), x)
    assert np.all(np.isfinite(post))


def test_biawgn_lik_rows_scale_each_row_to_one():
    ch = BiAwgnChannel(0.8, 3)
    y = np.array([0.3, -1.2, 2.0])
    rows = ch.lik_rows(y)
    assert np.allclose(rows.max(axis=1), 1.0)
    d = np.exp(ch.log_density(y))
    assert np.allclose(rows, d / d.max(axis=1, keepdims=True))


def test_channel_sampling_frequencies():
    ch = bsc(0.2, 4000)
    x = np.zeros(4000, dtype=int)
    y = ch.sample(x, stream(5, 0))
    sigma = math.sqrt(0.2 * 0.8 / 4000)
    assert abs(y.mean() - 0.2) < 4 * sigma


@pytest.mark.parametrize("n", [3, 20, 300])
def test_batched_rows_equal_single_word_calls(n):
    # 300 > 128 takes numpy's blocked pairwise sum; the source and the
    # channel have zeros, so some of their rows are -inf
    rng = stream(n, 0)
    pmfs = rng.dirichlet(np.ones(3), size=n)
    pmfs[0, 2] = 0.0
    pmfs[0] /= pmfs[0].sum()
    kernels = rng.dirichlet(np.ones(4), size=(n, 3))
    kernels[1, 1, 0] = 0.0
    kernels[1, 1] /= kernels[1, 1].sum()
    src, ch, awgn = MemorylessSource(pmfs), DiscreteChannel(kernels), BiAwgnChannel(0.7, n)
    dist = DistortionSpec(rng.random((3, 4)))
    X = rng.integers(0, 3, size=(40, n))
    y = rng.integers(0, 4, size=n)
    y[1] = 0
    y_real = awgn.sample(X[0] % 2, rng)
    for batch, single in [(src.log_prob(X), src.log_prob),
                          (ch.log_lik(y, X), lambda x: ch.log_lik(y, x)),
                          (awgn.log_lik(y_real, X % 2), lambda x: awgn.log_lik(y_real, x % 2)),
                          (dist.total(X, y), lambda x: dist.total(x, y))]:
        rows = [single(x) for x in X]
        assert {type(v) for v in rows} == {float}
        assert batch.shape == (40,)
        assert batch.tobytes() == np.array(rows).tobytes()
    assert np.isneginf(src.log_prob(X)).any() and np.isfinite(src.log_prob(X)).any()
    assert np.isneginf(ch.log_lik(y, X)).any() and np.isfinite(ch.log_lik(y, X)).any()
    assert src.log_prob(X[:0]).shape == (0,)


@pytest.mark.parametrize("q", [1, 2, 3, 5])
def test_inverse_cdf_draws_the_clamped_row_sum(q):
    """A draw is min(#{j : u >= cdf[j]}, q - 1) per index, for sources and
    channels alike, at u = 0, u just below 1, on cdf steps and on pmfs with
    zero entries."""
    rng = np.random.default_rng(q + 40)
    n = 300
    pmfs = rng.dirichlet(np.ones(q), size=n) * (rng.random((n, q)) < 0.7)
    pmfs[pmfs.sum(axis=1) == 0, -1] = 1.0
    pmfs[0, 0] = 0.0 if q > 1 else 1.0                # u = 0 skips a zero-mass symbol
    pmfs[0, -1] = 1.0
    pmfs /= pmfs.sum(axis=1, keepdims=True)
    cdf = np.cumsum(pmfs, axis=1)
    u = rng.random(n)
    u[:2] = 0.0, np.nextafter(1.0, 0.0)
    u[2:9] = cdf[np.arange(2, 9), rng.integers(0, q, size=7)]    # exactly on a step
    want = np.minimum((u[:, None] >= cdf).sum(axis=1), q - 1)
    assert np.array_equal(models._inverse_cdf(u, cdf), want)

    class Fixed:
        def random(self, size):
            assert size == n
            return u.copy()

    assert MemorylessSource(pmfs).sample(Fixed()).tobytes() == want.astype(np.int64).tobytes()
    kernels = np.stack([pmfs, pmfs[::-1]], axis=1)     # (n, 2, q): two inputs
    x = rng.integers(0, 2, size=n)
    ch_cdf = np.cumsum(kernels[np.arange(n), x], axis=1)
    want = np.minimum((u[:, None] >= ch_cdf).sum(axis=1), q - 1)
    assert DiscreteChannel(kernels).sample(x, Fixed()).tobytes() == want.astype(np.int64).tobytes()


# ---------------------------------------------------------------------------
# reverse model
# ---------------------------------------------------------------------------

def test_reverse_model_uniform_prior_bsc():
    n, p = 3, 0.1
    ch = bsc(p, n)
    post = reverse_model(MemorylessSource(np.full((n, 2), 0.5)), ch, [0, 0, 0])
    assert np.allclose(post, [[0.9, 0.1]] * 3)


def test_reverse_model_noiseless_point_mass():
    ch = bsc(0.0, 2)
    post = reverse_model(MemorylessSource(np.full((2, 2), 0.5)), ch, [1, 0])
    assert np.allclose(post, [[0.0, 1.0], [1.0, 0.0]])


def test_reverse_model_bayes_arithmetic():
    ch = bsc(0.1, 1)
    post = reverse_model(MemorylessSource([[0.3, 0.7]]), ch, [1])
    assert np.allclose(post, [[0.03 / 0.66, 0.63 / 0.66]])
    assert post[0, 0] == pytest.approx(1 / 22)


def test_reverse_model_zero_evidence_names_index():
    ch = DiscreteChannel(np.broadcast_to(np.eye(2), (2, 2, 2)).copy())
    with pytest.raises(ValueError, match="index 1"):
        reverse_model(MemorylessSource([[0.5, 0.5], [1.0, 0.0]]), ch, [0, 1])


def test_reverse_model_takes_a_checked_source_as_is(monkeypatch):
    """A MemorylessSource was checked when it was built: reverse_model does
    not check it again, and its posteriors are Bayes' rule on its pmfs."""
    rng = np.random.default_rng(19)
    src, ch = MemorylessSource(rng.dirichlet(np.ones(3), size=6)), qsc(3, 0.2, 6)
    y = rng.integers(0, 3, size=6)
    joint = src.pmfs * ch.kernels[np.arange(6), :, y]     # mu(x) mu(y_i | x)
    want = joint / joint.sum(axis=1, keepdims=True)
    monkeypatch.setattr(models, "_check_pmfs", None)
    assert np.array_equal(reverse_model(src, ch, y), want)


def test_reverse_model_bayes_consistency_randomized():
    rng = np.random.default_rng(17)
    for _ in range(20):
        n = int(rng.integers(1, 6))
        prior = rng.dirichlet(np.ones(3), size=n)
        kern = rng.dirichlet(np.ones(4), size=(n, 3))
        ch = DiscreteChannel(kern)
        y = rng.integers(0, 4, size=n)
        post = reverse_model(MemorylessSource(prior), ch, y)
        lik = ch.lik_rows(y)
        evid = (prior * lik).sum(axis=1)
        for i in range(n):
            for xv in range(3):
                lhs = prior[i, xv] * lik[i, xv]
                rhs = evid[i] * post[i, xv]
                assert abs(lhs - rhs) < 1e-9


# ---------------------------------------------------------------------------
# rate quantities
# ---------------------------------------------------------------------------

def test_rate_quantities_bsc_closed_form():
    n = 4
    ch = bsc(0.11, n)
    rq = rate_quantities(np.full((n, 2), 0.5), ch)
    assert rq.h_x == pytest.approx(1.0, abs=1e-12)
    assert rq.h_x_given_y == pytest.approx(binary_entropy(0.11), abs=1e-9)
    assert rq.i_xy == pytest.approx(1.0 - binary_entropy(0.11), abs=1e-9)


def test_rate_quantities_noiseless_and_independent():
    n = 3
    noiseless = bsc(0.0, n)
    rq = rate_quantities(np.broadcast_to([0.3, 0.7], (n, 2)).copy(), noiseless)
    assert rq.h_x_given_y == pytest.approx(0.0, abs=1e-12)
    assert rq.i_xy == pytest.approx(rq.h_x)
    indep = DiscreteChannel(np.broadcast_to([0.6, 0.4], (n, 2, 2)).copy())
    rq2 = rate_quantities(np.full((n, 2), 0.5), indep)
    assert rq2.i_xy == pytest.approx(0.0, abs=1e-12)


def test_rate_quantities_two_routes_agree():
    # H_X - H_X|Y against the direct KL/mutual-information sum
    rng = np.random.default_rng(23)
    n = 3
    prior = rng.dirichlet(np.ones(3), size=n)
    kern = rng.dirichlet(np.ones(3), size=(n, 3))
    ch = DiscreteChannel(kern)
    rq = rate_quantities(prior, ch)
    i_direct = 0.0
    for i in range(n):
        joint = prior[i][:, None] * kern[i]
        px = joint.sum(axis=1)
        py = joint.sum(axis=0)
        mask = joint > 0
        i_direct += (joint[mask] * np.log2(joint[mask] / np.outer(px, py)[mask])).sum()
    assert rq.i_xy == pytest.approx(i_direct / n, abs=1e-9)


def test_rate_quantities_biawgn_matches_fine_grid():
    n = 1
    sigma = 1.0
    ch = BiAwgnChannel(sigma, n)
    rq = rate_quantities(np.full((n, 2), 0.5), ch)
    # independent oracle: trapezoidal integration on a wide fine grid
    ys = np.linspace(-12, 12, 200001)
    d0 = np.exp(-0.5 * ((ys - 1) / sigma) ** 2) / (sigma * math.sqrt(2 * math.pi))
    d1 = np.exp(-0.5 * ((ys + 1) / sigma) ** 2) / (sigma * math.sqrt(2 * math.pi))
    py = 0.5 * d0 + 0.5 * d1
    post0 = np.divide(0.5 * d0, py, out=np.zeros_like(py), where=py > 0)
    hpost = np.zeros_like(py)
    for pv in (post0, 1 - post0):
        hpost -= np.where(pv > 0, pv * np.log2(pv), 0.0)
    want = np.trapezoid(py * hpost, ys)
    assert rq.h_x_given_y == pytest.approx(want, abs=1e-6)


# ---------------------------------------------------------------------------
# distortion
# ---------------------------------------------------------------------------

def test_hamming_distortion():
    d = hamming_distortion(2)
    assert d.total([0, 1, 1, 0], [0, 1, 1, 0]) == 0.0
    assert d.total([0, 1, 1, 0], [1, 1, 0, 0]) == 2.0


@pytest.mark.parametrize("x, y, what", [
    ([-1, 1], [1, 1], "reproduction symbol outside"),
    ([1, 1], [1, 2], "source word symbol outside"),
    ([1, 1], [1], "reproduction length"),
    ([1], [[1]], "source word length"),
])
def test_distortion_total_checks_both_words(x, y, what):
    with pytest.raises(ValueError, match=what):
        hamming_distortion(2).total(x, y)


@pytest.mark.parametrize("batch", [True, False])
def test_checked_words_refuses_ragged_input_as_a_length_mismatch(batch):
    """Rows of several lengths raise the module's error, not numpy's."""
    for ragged in ([[0, 0, 0, 1], [1, 0]], [[1, 0], [0, 0, 0, 1]], ([0, 1], [0, 1, 1, 0])):
        with pytest.raises(ValueError, match="word length mismatch"):
            checked_words(ragged, 4, 2, "word", batch=batch)
    assert checked_words([[0, 0, 0, 1], [1, 0, 1, 0]], 4, 2, "word", batch=True).shape == (2, 4)


@pytest.mark.parametrize("batch", [True, False])
def test_checked_words_refuses_a_symbol_that_is_a_sequence(batch):
    """A nested symbol raises the module's error naming the input, not numpy's."""
    nested = [0, [1, 0], 0, 1]
    for v in ([nested, [1, 0, 0, 1]], [[1, 0, 0, 1], nested]) if batch else (nested,):
        with pytest.raises(ValueError, match="word length mismatch or symbol not an integer"):
            checked_words(v, 4, 2, "word", batch=batch)


def test_weighted_distortion_table():
    d = DistortionSpec([[0.0, 2.0], [1.0, 0.0]])
    assert d.total([0], [1]) == 2.0
    assert np.array_equal(d.total([[0], [1]], [1]), [2.0, 0.0])
    with pytest.raises(ValueError):
        DistortionSpec([[np.inf, 0.0]])
    with pytest.raises(ValueError):
        DistortionSpec([[-1.0, 0.0]])


# ---------------------------------------------------------------------------
# presets
# ---------------------------------------------------------------------------

def test_presets():
    for ch in (bsc(0.1, 4), bac(0.1, 0.3, 4), qsc(3, 0.2, 4)):
        assert isinstance(ch, DiscreteChannel) and ch.n == 4
    assert np.allclose(qsc(3, 0.2, 4).kernels[0, 0], [0.8, 0.1, 0.1])
    assert qsc(2, 0.1, 1).kernels[0, 0, 1] == pytest.approx(0.1)
    assert bac(0.1, 0.3, 1).kernels[0, 1, 0] == pytest.approx(0.3)
    assert bernoulli_source(0.3, 5).pmfs[0, 1] == pytest.approx(0.3)
    assert np.array_equal(uniform_source(2, 3).pmfs, np.full((2, 3), 1 / 3))
