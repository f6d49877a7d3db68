"""The sum-product encoder's law against the paper's, by importance weights.

A stepwise pass knows the probability q(x) of its own output, the product
of the step probabilities it chose; a selector that adds log pmf[v] at each
choice forms it for either engine.  The paper's law is p(x) = mu(x) / Z on
the coset, Z = mu(coset), so w(x) = mu(x) / q(x) gives
KL(q || p) = log Z - E_q[log w], a Monte-Carlo mean with a standard error
(Kong, Liu and Wong, JASA 1994).  The exact engine's log-weight is log Z on
every draw; every committed prefix extends, so no pass is lost (Chen,
Diaconis, Holmes and Liu, JASA 2005).

Three configurations, each on four fixed-seed codes, q = 2, tau = 6:
  joint48  the channel encoder's joint coset, n = 48, l = 12, k = 6 (stack
           rank 16), prior (0.8, 0.2), one message per code;
  coset80  C_A(c) alone, n = 80, l = 20, the same prior;
  lossy64  the lossy reproduction x~ on C_A(c), n = 64, l = 20, Bernoulli(1/2)
           source, BSC(0.11) test channel, three source words per code.  The
           weights are taken at x~, not at the decoder's output: the stacked
           map is rank deficient there, and the decoder's argmax over a
           uniform mu_X picks an arbitrary member.
`KL_BOUNDS` holds, per code (and word), the KL per letter of the schedule
that re-flooded BP after every commit, plus 4 standard errors: one pass per
draw, dead-ended passes left out, 1000 draws (200 per lossy word).  A
change to the encoder may lower a bound, never raise it.
"""

import math
from functools import cache

import numpy as np
import pytest

from cosetcode import channel, lossy
from cosetcode.gf import GF
from cosetcode.models import bernoulli_source, bsc, hamming_distortion
from cosetcode.sampler import CosetSampler, SamplerConfig, path_tree_law
from cosetcode.sparsemat import EnsembleSpec, SparseMatrix, sample_sparse_matrix
from cosetcode.streams import sample_pmf, stream

SUM_PRODUCT, EXACT = SamplerConfig("sum-product"), SamplerConfig("exact")
CONFIGS = ("joint48", "coset80", "lossy64")
SEEDS = (1, 2, 3, 4)

KL_BOUNDS = {                       # (config, code seed, word): KL per letter
    ("joint48", 1, 0): 0.0877, ("joint48", 2, 0): 0.0890,
    ("joint48", 3, 0): 0.0871, ("joint48", 4, 0): 0.0840,
    ("coset80", 1, 0): 0.0678, ("coset80", 2, 0): 0.0564,
    ("coset80", 3, 0): 0.0624, ("coset80", 4, 0): 0.0603,
    # code 1 dead-ended 390 of 600 passes; the others none
    ("lossy64", 1, 0): 0.1550, ("lossy64", 1, 1): 0.1683, ("lossy64", 1, 2): 0.1627,
    ("lossy64", 2, 0): 0.1863, ("lossy64", 2, 1): 0.1991, ("lossy64", 2, 2): 0.1794,
    ("lossy64", 3, 0): 0.1545, ("lossy64", 3, 1): 0.1646, ("lossy64", 3, 2): 0.1531,
    ("lossy64", 4, 0): 0.1604, ("lossy64", 4, 1): 0.1780, ("lossy64", 4, 2): 0.1610,
}
# |log Z + rank ln q|: the coset's mass is q**-rank up to this, in nats
LOG_Z_BOUNDS = {"joint48": 0.015, "coset80": 0.015, "lossy64": 0.5}
# the share of ones (of x~ != y for lossy64) after the early stop: the exact
# engine gives ~0.20 (~0.11), every BP schedule so far ~0.5, a fair coin
SUFFIX_BOUND = 0.55


class LogQ:
    """Selector that draws as `draw` does and adds log pmf[v] at each choice."""

    def __init__(self, rng):
        self.rng, self.log_q = rng, 0.0

    def __call__(self, pmf) -> int:
        v = sample_pmf(self.rng, pmf)
        self.log_q += math.log(pmf[v] / sum(pmf))
        return v


class ForcedLogQ:
    """Selector that follows a given path and adds log pmf[v] at each choice."""

    def __init__(self, path):
        self.path, self.log_q = iter(path), 0.0

    def __call__(self, pmf) -> int:
        v = int(next(self.path))
        self.log_q += math.log(pmf[v] / sum(pmf))
        return v


def targets(config, seed):
    """Per target: (word, n, rank, priors, sum-product walker, exact walker, shift)."""
    q = 2
    if config == "joint48":
        n, prior = 48, bernoulli_source(0.2, 48)
        spec = channel.sample_code(n, 12, 6, 6, GF(q), prior, seed=seed)
        t = np.concatenate([spec.c, spec.random_message(stream(seed, 7))])
        yield (0, n, spec.ech_stacked.rank, prior.pmfs,
               spec.joint.engine(prior.pmfs, SUM_PRODUCT).walker(t),
               spec.joint.engine(prior.pmfs, EXACT).walker(t), None)
    elif config == "coset80":
        n, priors = 80, np.tile([0.8, 0.2], (80, 1))
        A = sample_sparse_matrix(EnsembleSpec(n=n, l=20, field=GF(q), tau=6), stream(seed, 1))
        c = A.mat_vec(stream(seed, 2).integers(0, q, size=n))
        s = CosetSampler(A)
        yield (0, n, s.reverse.rank, priors, s.engine(priors, SUM_PRODUCT).walker(c),
               s.engine(priors, EXACT).walker(c), None)
    else:
        n, l = 64, 20
        A = sample_sparse_matrix(EnsembleSpec(n=n, l=l, field=GF(q), tau=6), stream(seed, 1))
        B = sample_sparse_matrix(EnsembleSpec(n=n, l=n - l, field=GF(q), tau=6),
                                 stream(seed, 2))
        c = A.mat_vec(stream(seed, 3).integers(0, q, size=n))
        spec = lossy.LossyCodeSpec(A, B, c, bernoulli_source(0.5, n), bsc(0.11, n),
                                   hamming_distortion(q), 0.2)
        noise, rng = spec.noise_engine(EXACT), stream(seed, 8)
        for word in range(3):
            y = spec.source.sample(rng)
            post = spec.posteriors(y)
            yield (word, n, spec.coset_a.reverse.rank, post,
                   spec.coset_a.engine(post, SUM_PRODUCT).walker(spec.c),
                   noise.walker(spec.c, shift=y), y)


def log_mu(priors, x) -> float:
    return float(np.log(priors[np.arange(len(x)), x]).sum())


@cache
def measured(config):
    """Per target: (key, rank, the exact engine's log-weights, KL per letter and
    its standard error, the suffix share) from the sum-product passes."""
    out = []
    for seed in SEEDS:
        for word, n, rank, priors, sum_product, exact, y in targets(config, seed):
            rng = stream(900 + seed, word)
            weights, suffix = [], []
            for _ in range(1000 if config != "lossy64" else 200):
                pick = LogQ(rng)
                sample = sum_product(pick)          # a dead end raises
                weights.append(log_mu(priors, sample.x) - pick.log_q)
                z = sample.x if y is None else (sample.x - y) % 2
                suffix.extend(z[sample.steps:])
            exact_weights = []
            for _ in range(5):
                pick = LogQ(rng)
                exact_weights.append(log_mu(priors, exact(pick).x) - pick.log_q)
            log_z = exact_weights[0]
            kl = (log_z - np.mean(weights)) / n
            se = np.std(weights, ddof=1) / math.sqrt(len(weights)) / n
            out.append(((config, seed, word), rank, np.array(exact_weights), kl, se,
                        float(np.mean(suffix))))
    return out


@pytest.mark.parametrize("config", CONFIGS)
def test_exact_log_weight_is_one_value_per_target(config):
    for key, _, exact_weights, *_ in measured(config):
        spread = np.abs(exact_weights - exact_weights[0]).max()
        assert spread <= 1e-9 * abs(exact_weights[0]), (key, spread)


@pytest.mark.parametrize("config", CONFIGS)
def test_log_z_is_minus_rank_ln_q(config):
    for key, rank, exact_weights, *_ in measured(config):
        assert abs(exact_weights[0] + rank * math.log(2)) <= LOG_Z_BOUNDS[config], key
    if config == "joint48":
        assert {rank for _, rank, *_ in measured(config)} == {16}


@pytest.mark.parametrize("config", CONFIGS)
def test_sum_product_kl_per_letter_is_bounded(config):
    results = measured(config)
    assert len(results) == (12 if config == "lossy64" else 4)
    for key, _, _, kl, se, _ in results:
        assert 0 < se < 0.01 and -4 * se < kl <= KL_BOUNDS[key], (key, kl, se)


@pytest.mark.parametrize("config", CONFIGS)
def test_sum_product_suffix_share_is_bounded(config):
    for key, *_, suffix in measured(config):
        assert suffix <= SUFFIX_BOUND, (key, suffix)


@pytest.mark.parametrize("cfg", [SUM_PRODUCT, EXACT], ids=["sum-product", "exact"])
def test_log_q_of_a_forced_path_is_its_path_tree_probability(cfg):
    """The selector's q(x) is the pass's own probability of x, as
    `path_tree_law` multiplies it, for every member of a loopy desk coset."""
    rng = np.random.default_rng(77)
    A = SparseMatrix.from_dense(rng.integers(0, 2, size=(6, 12)), GF(2))
    c = A.mat_vec(rng.integers(0, 2, size=12))
    priors = np.tile([0.8, 0.2], (12, 1))
    members, probs = path_tree_law(A, c, priors, cfg)
    walk = CosetSampler(A).engine(priors, cfg).walker(c)
    for x, prob in zip(members, probs):
        path = ForcedLogQ(x)
        assert np.array_equal(walk(path).x, x)
        assert math.exp(path.log_q) == pytest.approx(prob, rel=1e-12)
