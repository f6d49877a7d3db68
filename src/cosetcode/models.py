"""Memoryless sources, channels, posteriors and single-letter rate quantities.

Sources and channels are per-index tables, so non-stationary and
asymmetric models cost nothing extra.  All probability accounting is in
the log2 domain; exact zeros stay zero.

Channel output alphabets may be finite (per-index pmf tables) or real
valued (a density evaluator plus sampler; binary-input AWGN ships as the
reference model) since decoding only ever consumes likelihoods.
"""

from dataclasses import dataclass

import numpy as np

from .stats import entropy_bits

_PMF_TOL = 1e-9


def _check_pmfs(pmfs: np.ndarray, what: str) -> np.ndarray:
    pmfs = np.asarray(pmfs, dtype=float)
    if pmfs.ndim != 2:
        raise ValueError(f"{what} must be a (n, q) table")
    if not np.all(np.isfinite(pmfs)) or np.any(pmfs < 0):
        raise ValueError(f"{what} must be finite and non-negative")
    if np.any(np.abs(pmfs.sum(axis=1) - 1.0) > _PMF_TOL):
        raise ValueError(f"{what} rows must sum to 1 within {_PMF_TOL}")
    return pmfs


def checked_words(v, n: int, size: int, what: str, batch: bool = False) -> np.ndarray:
    """v as int64, checked to be one length-n word over range(size), or with
    batch an (M, n) array of them."""
    try:
        v = np.asarray(v, dtype=np.int64)
    except (TypeError, ValueError):     # ragged words, or a symbol that is not an integer
        raise ValueError(f"{what} length mismatch or symbol not an integer") from None
    if v.ndim not in ((1, 2) if batch else (1,)) or v.shape[-1] != n:
        raise ValueError(f"{what} length mismatch")
    if v.size and (v.min() < 0 or v.max() >= size):
        raise ValueError(f"{what} symbol outside the alphabet")
    return v


def _log2_product(p: np.ndarray):
    """Sum of log2 p along the last axis: -inf where a factor is 0, and a
    float for one word.  A row sum is the same float as the 1-D sum."""
    with np.errstate(divide="ignore"):
        s = np.log2(p).sum(axis=-1)
    return float(s) if p.ndim == 1 else s


def _inverse_cdf(u: np.ndarray, cdf: np.ndarray) -> np.ndarray:
    """Per row i, the first symbol j with u[i] < cdf[i, j], the last symbol
    if none: rows of cdf never decrease, so that is the count of the first
    q - 1 columns with u[i] >= cdf[i, j]."""
    x = np.zeros(u.shape, dtype=np.int64)
    for j in range(cdf.shape[1] - 1):
        x += u >= cdf[:, j]
    return x


class MemorylessSource:
    """Product law on X^n given per-index pmfs over an alphabet of size q."""

    def __init__(self, pmfs):
        self.pmfs = _check_pmfs(pmfs, "source pmfs")
        self.n, self.q = self.pmfs.shape
        self._cdf = np.cumsum(self.pmfs, axis=1)

    def log_prob(self, x):
        """log2 of the probability of x; an (M, n) batch gives one value per row."""
        x = checked_words(x, self.n, self.q, "sequence", batch=True)
        return _log2_product(self.pmfs[np.arange(self.n), x])

    def sample(self, rng: np.random.Generator) -> np.ndarray:
        return _inverse_cdf(rng.random(self.n), self._cdf)


class DiscreteChannel:
    """Per-index kernels mu_{Y_i|X_i} over a finite output alphabet."""

    continuous = False

    def __init__(self, kernels):
        kernels = np.asarray(kernels, dtype=float)
        if kernels.ndim != 3:
            raise ValueError("kernels must be a (n, q, ny) table")
        if (not np.all(np.isfinite(kernels)) or np.any(kernels < 0)
                or np.any(np.abs(kernels.sum(axis=2) - 1.0) > _PMF_TOL)):
            raise ValueError(f"kernel rows must be finite pmfs within {_PMF_TOL}")
        self.kernels = kernels
        self.n, self.q, self.ny = kernels.shape
        self._cdf = np.cumsum(kernels, axis=2)

    def sample(self, x, rng: np.random.Generator) -> np.ndarray:
        x = checked_words(x, self.n, self.q, "input")
        return _inverse_cdf(rng.random(self.n), self._cdf[np.arange(self.n), x])

    def log_lik(self, y, x):
        """log2 mu(y|x); an (M, n) batch of inputs gives one value per row."""
        x = checked_words(x, self.n, self.q, "input", batch=True)
        y = checked_words(y, self.n, self.ny, "output")
        return _log2_product(self.kernels[np.arange(self.n), x, y])

    def lik_rows(self, y) -> np.ndarray:
        """(n, q) array of mu_{Y_i|X_i}(y_i|.) for an observed y."""
        y = checked_words(y, self.n, self.ny, "output")
        return self.kernels[np.arange(self.n), :, y]


class BiAwgnChannel:
    """Binary-input AWGN: 0 -> +1, 1 -> -1, y = s + sigma Z."""

    continuous = True

    def __init__(self, sigma: float, n: int):
        if not (np.isfinite(sigma) and sigma > 0):
            raise ValueError("sigma must be positive and finite")
        self.sigma = float(sigma)
        self.n = int(n)
        self.q = 2

    def sample(self, x, rng: np.random.Generator) -> np.ndarray:
        x = checked_words(x, self.n, 2, "input")
        s = 1.0 - 2.0 * x
        return s + self.sigma * rng.standard_normal(self.n)

    def log_density(self, y: np.ndarray) -> np.ndarray:
        """(n, 2) per-index natural-log densities of y_i under x_i = 0, 1."""
        y = np.asarray(y, dtype=float)
        if y.shape != (self.n,) or not np.all(np.isfinite(y)):
            raise ValueError("output must be n finite reals")
        s = np.array([1.0, -1.0])
        z = (y[:, None] - s[None, :]) / self.sigma
        return -0.5 * z * z - np.log(self.sigma * np.sqrt(2 * np.pi))

    def log_lik(self, y, x):
        """log2 density of y given x; an (M, n) batch of inputs gives one value per row."""
        x = checked_words(x, self.n, 2, "input", batch=True)
        ld = self.log_density(y)[np.arange(self.n), x]
        ll = ld.sum(axis=-1) / np.log(2)
        return float(ll) if x.ndim == 1 else ll

    def lik_rows(self, y) -> np.ndarray:
        """Densities with each row scaled by its maximum (taken in the log
        domain), so a row never underflows to all zeros; the per-index
        posteriors do not depend on the scale."""
        ld = self.log_density(y)
        return np.exp(ld - ld.max(axis=1, keepdims=True))


def reverse_model(source: MemorylessSource, channel, y) -> np.ndarray:
    """(n, q) per-index Bayes posteriors mu_{X_i|Y_i}(.|y_i), prop. to
    mu_{X_i} * mu_{Y_i|X_i}(y_i|.); the source's pmfs were checked when it
    was built."""
    priors = source.pmfs
    lik = channel.lik_rows(y)
    if lik.shape != priors.shape:
        raise ValueError("prior and channel kernel shapes disagree")
    unnorm = priors * lik
    evid = unnorm.sum(axis=1)
    dead = np.nonzero(evid == 0)[0]
    if dead.size:
        raise ValueError(f"zero evidence at index {int(dead[0])}: all-zero posterior")
    return unnorm / evid[:, None]


@dataclass
class RateQuantities:
    """Position-averaged single-letter quantities in bits per symbol."""

    h_x: float
    h_x_given_y: float
    i_xy: float


def rate_quantities(prior_pmfs, channel) -> RateQuantities:
    priors = _check_pmfs(prior_pmfs, "prior pmfs")
    n = priors.shape[0]
    h_x = float(np.mean([entropy_bits(priors[i]) for i in range(n)]))
    if not channel.continuous:
        h_xy = 0.0
        for i in range(n):
            joint = priors[i][:, None] * channel.kernels[i]
            p_y = joint.sum(axis=0)
            for yv in range(channel.ny):
                if p_y[yv] > 0:
                    h_xy += p_y[yv] * entropy_bits(joint[:, yv] / p_y[yv])
        h_xy /= n
    else:
        h_xy = _h_x_given_y_biawgn(priors, channel) / n
    return RateQuantities(h_x, h_xy, h_x - h_xy)


def _h_x_given_y_biawgn(priors, channel: BiAwgnChannel) -> float:
    # Gauss-Hermite (probabilists') quadrature over y = s_x + sigma z, 101 nodes
    nodes, weights = np.polynomial.hermite_e.hermegauss(101)
    weights = weights / np.sqrt(2 * np.pi)
    s = np.array([1.0, -1.0])
    total = 0.0
    for i in range(priors.shape[0]):
        # E_y[H(X|Y=y)] expanded over the two conditional laws of y
        hi = 0.0
        for xv in range(2):
            y = s[xv] + channel.sigma * nodes
            z = (y[:, None] - s[None, :]) / channel.sigma
            dens = np.exp(-0.5 * z * z) / (channel.sigma * np.sqrt(2 * np.pi))
            post = priors[i][None, :] * dens
            post_sum = post.sum(axis=1)
            post = post / post_sum[:, None]
            plogp = np.where(post > 0, post * np.log2(post), 0.0)
            h_given = -plogp.sum(axis=1)
            hi += priors[i, xv] * float((weights * h_given).sum())
        total += hi
    return total


class DistortionSpec:
    """Additive per-letter distortion given by a finite X x Y table."""

    def __init__(self, table):
        table = np.asarray(table, dtype=float)
        if table.ndim != 2 or np.any(table < 0) or not np.all(np.isfinite(table)):
            raise ValueError("distortion table must be finite and nonnegative")
        self.table = table

    def total(self, x, y):
        """Summed distortion of x against y; an (M, n) batch of x gives one value per row."""
        y = checked_words(y, np.size(y), self.table.shape[1], "source word")  # 1-D, any n
        x = checked_words(x, y.size, self.table.shape[0], "reproduction", batch=True)
        d = self.table[x, y].sum(axis=-1)
        return float(d) if x.ndim == 1 else d


def hamming_distortion(q: int) -> DistortionSpec:
    return DistortionSpec(1.0 - np.eye(q))


# -- named presets -------------------------------------------------------------


def bsc(p: float, n: int) -> DiscreteChannel:
    k = np.array([[1 - p, p], [p, 1 - p]])
    return DiscreteChannel(np.broadcast_to(k, (n, 2, 2)).copy())


def bac(p01: float, p10: float, n: int) -> DiscreteChannel:
    k = np.array([[1 - p01, p01], [p10, 1 - p10]])
    return DiscreteChannel(np.broadcast_to(k, (n, 2, 2)).copy())


def qsc(q: int, p: float, n: int) -> DiscreteChannel:
    k = np.full((q, q), p / (q - 1))
    np.fill_diagonal(k, 1 - p)
    return DiscreteChannel(np.broadcast_to(k, (n, q, q)).copy())


def uniform_source(n: int, q: int) -> MemorylessSource:
    return MemorylessSource(np.full((n, q), 1.0 / q))


def bernoulli_source(p: float, n: int) -> MemorylessSource:
    return MemorylessSource(np.broadcast_to([1 - p, p], (n, 2)).copy())
