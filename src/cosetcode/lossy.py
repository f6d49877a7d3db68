"""Fixed-rate lossy source coding via coset-constrained sampling.

The encoder builds per-index reproduction posteriors for the observed
source word, samples a member of C_A(c) from them, and transmits its
image m under B; the decoder returns the highest-prior member of the
joint coset C_AB(c, m) = {x : Ax = c, Bx = m}.  When the stacked map has
full column rank the joint coset is a single point and decoding is a
linear solve through the stacked map's echelon.

An additive test channel, x = y + z with z drawn from a noise prior w (as
BSC(D) and the q-ary symmetric channel are), makes each word's posterior a
shift of w, so the exact encoder draws z ~ w on C_A(c - A y) through one
engine per code and early stop, built on the first encode.
"""

import math
from dataclasses import dataclass

import numpy as np

from .fastbp import DECODE_ITERS, CosetBP, hard_decision
from .models import (DiscreteChannel, DistortionSpec, MemorylessSource, checked_words,
                     rate_quantities)
from .sampler import (CosetPair, DeadEndError, EncodingError, SamplerConfig, is_uniform,
                      member_law)
from .sparsemat import DENSE_CAP, all_vectors
from .stats import entropy_bits, wilson_interval
from .streams import stream


@dataclass
class LossyCodeSpec(CosetPair):
    """(A, B, c) plus the source model, the given conditional mu_{X|Y},
    the per-letter distortion table and the target level."""

    source: MemorylessSource          # law of Y
    test_channel: DiscreteChannel     # per-index tables mu_{X_i|Y_i}: (n, ny, q)
    distortion: DistortionSpec        # table over X x Y
    target_d: float

    def __post_init__(self):
        super().__post_init__()
        n, q = self.n, self.q
        if self.test_channel.n != n or self.test_channel.ny != q:
            raise ValueError("test channel must map the source alphabet to GF(q)")
        if self.source.n != n or self.source.q != self.test_channel.q:
            raise ValueError("source and test channel disagree on the Y alphabet")
        if self.distortion.table.shape != (q, self.source.q):
            raise ValueError("distortion table must be X x Y")
        if not 0 <= self.target_d < math.inf:      # NaN would make "d > nD" false on every word
            raise ValueError(f"target_d must be finite and non-negative: got {self.target_d}")
        # mu_{X_i}(x) = sum_y mu_{Y_i}(y) mu_{X_i|Y_i}(x|y)
        self.x_marginals = np.einsum("iy,iyx->ix", self.source.pmfs,
                                     self.test_channel.kernels)
        with np.errstate(divide="ignore"):          # -inf where a marginal is 0
            self.log_marginals = np.log2(self.x_marginals)
        self.rate_R = self.rank_b / n * math.log2(q)
        # kernels[i, y, x] = w_i(x - y): the noise prior w, else None
        w = self.test_channel.kernels[:, 0, :]
        additive = np.array_equal(self.test_channel.kernels,
                                  w[:, (np.arange(q) - np.arange(q)[:, None]) % q])
        self._noise = w if additive and not is_uniform(w) else None
        self._engines = {}                # early_stop -> the exact engine of w

    def noise_engine(self, cfg: SamplerConfig):
        """The exact engine of the noise prior for cfg's early stop, built on first
        use; None unless the test channel is additive, w is not uniform and cfg
        asks for the exact method."""
        if self._noise is None or cfg.method != "exact":
            return None
        if cfg.early_stop not in self._engines:
            self._engines[cfg.early_stop] = self.coset_a.engine(self._noise, cfg)
        return self._engines[cfg.early_stop]

    def posteriors(self, y) -> np.ndarray:
        """(n, q) per-index reproduction posteriors for the observed word."""
        y = checked_words(y, self.n, self.source.q, "source word")
        return self.test_channel.kernels[np.arange(self.n), y, :]


def encode(spec: LossyCodeSpec, y, cfg: SamplerConfig, rng) -> np.ndarray:
    """m = B x for x sampled from the posterior product restricted to C_A(c)."""
    x = encode_reproduction(spec, y, cfg, rng)
    return spec.B.mat_vec(x)


def encode_reproduction(spec: LossyCodeSpec, y, cfg: SamplerConfig, rng) -> np.ndarray:
    """x from the word's posteriors restricted to C_A(c), through the code's
    noise engine where it has one."""
    engine = spec.noise_engine(cfg)
    if engine is None:
        return spec.coset_a.engine(spec.posteriors(y), cfg).draw(spec.c, rng).x
    return engine.draw(spec.c, rng, shift=checked_words(y, spec.n, spec.q, "source word")).x


def decode(spec: LossyCodeSpec, m) -> np.ndarray | None:
    """Highest-prior member of {x : Ax = c, Bx = m}; None when it is empty.

    Full-column-rank stacked maps decode by a linear solve.  Otherwise the
    size of the joint coset picks the search: up to DENSE_CAP members, an
    exhaustive argmax under the marginal prior (lexicographic ties); above
    it, the member that agrees with the BP argmax on the stacked graph at the
    free columns of the stacked echelon.
    """
    q = spec.q
    m = np.asarray(m, dtype=np.int64) % q
    if m.shape != (spec.B.rows,):
        raise ValueError("message length mismatch")
    target = np.concatenate([spec.c, m])
    ech = spec.ech_stacked
    if ech.rank < spec.n and q ** (spec.n - ech.rank) <= DENSE_CAP:
        members = ech.members(target)
        logp = spec.log_marginals[np.arange(spec.n), members].sum(axis=1)
        return members[int(np.argmax(logp))] if logp.size else None
    x = ech.solve(target)
    if x is None or ech.rank == spec.n:
        return x
    bp = CosetBP(spec.joint.graph, target, spec.x_marginals)
    bp.run(DECODE_ITERS, until_member=True)
    return None if bp.failed else ech.member_like(target, hard_decision(bp.marginals().T))


@dataclass
class DistortionStats:
    trials: int
    errors: int                      # d_n > n * D (encoding errors included)
    error_rate: float
    wilson: tuple
    encoding_errors: int
    decode_failures: int
    mean_per_letter: float           # over trials with finite distortion
    histogram: dict                  # per-letter distortion -> count

    def as_dict(self) -> dict:
        return {
            "trials": self.trials,
            "errors": self.errors,
            "error_rate": self.error_rate,
            "wilson_lo": self.wilson[0],
            "wilson_hi": self.wilson[1],
            "encoding_errors": self.encoding_errors,
            "decode_failures": self.decode_failures,
            "mean_per_letter_distortion": self.mean_per_letter,
            "histogram": {str(d): count for d, count in self.histogram.items()},
        }


def simulate(spec: LossyCodeSpec, trials: int, cfg: SamplerConfig,
             seed: int) -> DistortionStats:
    """Monte-Carlo estimate of P(d_n > n D); encoding errors score infinity.

    An empty or massless coset and a sampler dead end count as encoding errors.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    D, n = spec.target_d, spec.n

    def run_trial(t: int):
        rng = stream(seed, 202, t)
        y = spec.source.sample(rng)
        try:
            x_tilde = encode_reproduction(spec, y, cfg, rng)
        except (EncodingError, DeadEndError):
            return (math.inf, 1, 0)
        m = spec.B.mat_vec(x_tilde)
        x_hat = decode(spec, m)
        if x_hat is None:
            return (math.inf, 0, 1)
        return (spec.distortion.total(x_hat, y), 0, 0)

    results = [run_trial(t) for t in range(trials)]
    dists = np.array([r[0] for r in results])
    enc_err = sum(r[1] for r in results)
    dec_fail = sum(r[2] for r in results)
    errors = int((dists > n * D).sum())
    finite = dists[np.isfinite(dists)]
    mean_pl = float(finite.mean() / n) if finite.size else math.inf
    hist = {}
    for d in dists:
        key = round(float(d) / n, 6) if math.isfinite(d) else "inf"
        hist[key] = hist.get(key, 0) + 1
    return DistortionStats(trials, errors, errors / trials,
                           wilson_interval(errors, trials), enc_err, dec_fail,
                           mean_pl, hist)


def exact_error(spec: LossyCodeSpec) -> float:
    """Exact P(d_n > n D) by summing over source words and encoder outputs.

    The encoder's law on C_A(c) is `member_law` of the word's posteriors;
    the decoder is a function of m = B x alone, so each message is decoded
    once and each source word is scored against every member at once.
    """
    D, n, ny = spec.target_d, spec.n, spec.source.q
    if ny ** n > DENSE_CAP:
        raise ValueError("source space exceeds the cap")
    members, msgs, msg_of = spec.members_by_message()
    decoded = [decode(spec, m) for m in msgs]
    failed = np.array([x is None for x in decoded])
    x_hats = np.array([np.zeros(n, dtype=np.int64) if x is None else x for x in decoded])
    total = 0.0
    for y in all_vectors(ny, n):
        py = 2.0 ** spec.source.log_prob(y)
        if py == 0:
            continue
        try:
            probs = member_law(members, spec.posteriors(y))
        except EncodingError:
            total += py
            continue
        wrong = failed | (spec.distortion.total(x_hats, y) > n * D)
        total += py * float(probs[wrong[msg_of]].sum())
    return total


def rate_check(spec: LossyCodeSpec) -> dict:
    """Achievability conditions for the lossy construction (advisory), as plain
    floats and bools."""
    h_x = float(np.mean([entropy_bits(p) for p in spec.x_marginals]))
    # H(X|Y) = H(X) - I(X;Y), with I from the source through the test channel
    h_xy = h_x - float(rate_quantities(spec.source.pmfs, spec.test_channel).i_xy)
    r, R = float(spec.rate_r), float(spec.rate_R)
    return {
        "r": r,
        "R": R,
        "h_x": h_x,
        "h_x_given_y": h_xy,
        "cond_r": r < h_xy,          # r < H(X|Y)
        "cond_rR": r + R > h_x,      # r + R > H(X)
    }
