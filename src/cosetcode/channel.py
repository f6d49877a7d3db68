"""Channel coding over sparse-matrix cosets.

The encoder samples the channel input prior restricted to the joint
coset C_AB(c, m) = {x : Ax = c, Bx = m} (the stacked map carries both the
hash target and the message); the decoder estimates x on C_A(c) from y
and reads the message back through B.  An exhaustive posterior-argmax
decoder serves as the oracle at desk scale; the BP decoder is the
practical one.
"""

import math
from dataclasses import dataclass

import numpy as np

from .fastbp import DECODE_ITERS, CosetBP, hard_decision
from .models import MemorylessSource, rate_quantities, reverse_model
from .sampler import (CosetPair, DeadEndError, EncodingError, SamplerConfig, is_uniform,
                      member_law)
from .sparsemat import (
    DENSE_CAP,
    EnsembleSpec,
    all_vectors,
    # not called here: mcbench's selftest reads channel.row_reduce to check its tracer
    row_reduce,  # noqa: F401
    sample_sparse_matrix,
)
from .stats import wilson_interval
from .streams import stream


@dataclass
class ChannelCodeSpec(CosetPair):
    """One concrete code instance: (A, B, c), the input prior, and its rates."""

    prior: MemorylessSource

    def __post_init__(self):
        super().__post_init__()
        if self.prior.n != self.n or self.prior.q != self.q:
            raise ValueError("prior shape must match the code domain")
        self.msg_rank = self.ech_stacked.rank - self.rank_a
        self.rate_R = self.msg_rank / self.n * math.log2(self.q)
        self._msg_free = np.ones(self.B.rows, dtype=bool)     # G's free coordinates
        self._msg_free[self.msg_pivots] = False

    def random_message(self, rng) -> np.ndarray:
        """Uniform draw from Im B = {m : G m = 0}: z on G's free coordinates, each
        pivot solved from them, inline so that a trial calls nothing in `sampler`."""
        z = rng.integers(0, self.q, size=self.rank_b)
        m = np.zeros(self.B.rows, dtype=np.int64)
        m[self._msg_free] = z
        m[self.msg_pivots] = -(self.msg_constraints @ m) % self.q   # m is 0 at the pivots
        return m

    def message_in_im_b(self, m) -> bool:
        """m is in Im B iff it meets the pair's few constraints on messages."""
        m = np.asarray(m, dtype=np.int64) % self.q
        if m.shape != (self.B.rows,):
            raise ValueError("message length mismatch")
        return not np.any(self.msg_constraints @ m % self.q)


def sample_code(n: int, l: int, k: int, tau: int, field, prior: MemorylessSource,
                seed: int) -> ChannelCodeSpec:
    """Draw A, B independently from the tau ensemble and c uniform on Im A."""
    A = sample_sparse_matrix(EnsembleSpec(n=n, l=l, field=field, tau=tau),
                             stream(seed, 1))
    B = sample_sparse_matrix(EnsembleSpec(n=n, l=k, field=field, tau=tau),
                             stream(seed, 2))
    u = stream(seed, 3).integers(0, field.q, size=n)
    c = A.mat_vec(u)   # image of a uniform input is uniform on Im A
    return ChannelCodeSpec(A, B, c, prior)


class ChannelEncoder:
    """Reusable encoder: one sampling engine for the prior serves every message."""

    def __init__(self, spec: ChannelCodeSpec, cfg: SamplerConfig):
        self.spec = spec
        self.q = spec.q
        self.uniform = is_uniform(spec.prior.pmfs)
        if self.uniform:    # T (c, 0), formed once: a draw adds T (0, m)
            self._t_c = spec.ech_stacked.transformed(np.r_[spec.c, np.zeros(spec.B.rows, int)])
        else:
            self._engine = spec.joint.engine(spec.prior.pmfs, cfg)

    def encode(self, m, rng) -> np.ndarray:
        spec, q = self.spec, self.q
        m = np.asarray(m, dtype=np.int64) % q
        if m.shape != (spec.B.rows,):
            raise ValueError("message length mismatch")
        if self.uniform:
            x = spec.ech_stacked.random_member_after(self._t_c, m, rng)
            if x is None:
                raise EncodingError("C_AB(c, m) is empty")
            return x
        return self._engine.draw(np.concatenate([spec.c, m]), rng).x


def encode(spec: ChannelCodeSpec, m, cfg: SamplerConfig, rng) -> np.ndarray:
    """Draw x ~ prior restricted to {x : Ax = c, Bx = m}; m must lie in Im B."""
    if not spec.message_in_im_b(np.asarray(m) % spec.q):
        raise ValueError("message is not in Im B")
    return ChannelEncoder(spec, cfg).encode(m, rng)


@dataclass
class DecodeOutcome:
    """A decoder's message estimate, None on failure.  For BP, `converged`
    means the run stopped before DECODE_ITERS iterations: at a hard decision
    in C_A(c) or with settled messages; `iterations` is how many it ran."""
    m_hat: np.ndarray | None
    method: str
    tie: bool = False
    converged: bool | None = None
    iterations: int | None = None

    @property
    def success(self) -> bool:
        return self.m_hat is not None


def _argmax(scores: np.ndarray):
    """(index of the first maximum, whether another score equals it); the
    index is None when there is no score above -inf."""
    if not scores.size or scores.max() == -np.inf:
        return None, False
    best = int(np.argmax(scores))
    return best, int((scores == scores[best]).sum()) > 1


def decode_map(spec: ChannelCodeSpec, y, channel) -> DecodeOutcome:
    """Exhaustive posterior argmax over C_A(c); ties go lexicographically.

    Fails when the coset is empty or every member has zero posterior.
    """
    members = spec.coset_a.echelon.members(spec.c)
    best, tie = _argmax(spec.prior.log_prob(members) + channel.log_lik(y, members))
    if best is None:
        return DecodeOutcome(None, "map-exhaustive")
    return DecodeOutcome(spec.B.mat_vec(members[best]), "map-exhaustive", tie=tie)


def decode_bp(spec: ChannelCodeSpec, y, channel) -> DecodeOutcome:
    """BP on the coset graph with per-index posteriors as priors, stopped at the
    first iteration whose hard decision x_hat lies in C_A(c)."""
    if channel.n != spec.n:
        raise ValueError("input length mismatch: the channel and the code differ in length")
    try:
        posteriors = reverse_model(spec.prior, channel, y)
    except ValueError:
        channel.lik_rows(y)    # raises again for a y the channel cannot emit
        return DecodeOutcome(None, "bp-then-B")    # zero evidence
    bp = CosetBP(spec.coset_a.graph, spec.c, posteriors)
    converged = bp.run(DECODE_ITERS, until_member=True)
    if bp.failed:
        return DecodeOutcome(None, "bp-then-B", converged=False,
                             iterations=bp.iterations)
    x_hat = hard_decision(bp.marginals().T)
    if bp.belief is not None and np.array_equal(x_hat, hard_decision(bp.belief)):
        in_coset = not bp.syndrome.any()     # the member test's A x_hat - c
    else:                                    # no test ran, or normalising split a tie
        in_coset = np.array_equal(spec.A.mat_vec(x_hat), spec.c)
    if not in_coset:
        return DecodeOutcome(None, "bp-then-B", converged=converged,
                             iterations=bp.iterations)
    return DecodeOutcome(spec.B.mat_vec(x_hat), "bp-then-B",
                         converged=converged, iterations=bp.iterations)


@dataclass
class ErrorStats:
    trials: int
    errors: int
    error_rate: float
    wilson: tuple
    encoding_errors: int
    decode_failures: int
    bp_converged: int    # decodes that stopped early, at a member or settled

    def as_dict(self) -> dict:
        return {
            "trials": self.trials,
            "errors": self.errors,
            "error_rate": self.error_rate,
            "wilson_lo": self.wilson[0],
            "wilson_hi": self.wilson[1],
            "encoding_errors": self.encoding_errors,
            "decode_failures": self.decode_failures,
            "bp_converged": self.bp_converged,
        }


def simulate(spec: ChannelCodeSpec, channel, trials: int, cfg: SamplerConfig,
             seed: int, decoder: str = "bp") -> ErrorStats:
    """Monte-Carlo error rate: uniform message, encode, transmit, decode.

    Trial t draws from its own counter-derived substream of `seed`.  An
    empty or massless coset and a sampler dead end count as encoding errors.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if decoder not in ("bp", "map"):
        raise ValueError(f"unknown decoder {decoder!r}: expected 'bp' or 'map'")
    encoder = ChannelEncoder(spec, cfg)

    def run_trial(t: int):
        rng = stream(seed, 101, t)
        m = spec.random_message(rng)
        try:
            x = encoder.encode(m, rng)
        except (EncodingError, DeadEndError):
            return (1, 1, 0, 0)
        y = channel.sample(x, rng)
        if decoder == "map":
            out = decode_map(spec, y, channel)
        else:
            out = decode_bp(spec, y, channel)
        conv = 1 if out.converged else 0
        if not out.success:
            return (1, 0, 1, conv)
        return (0 if np.array_equal(out.m_hat, m) else 1, 0, 0, conv)

    results = [run_trial(t) for t in range(trials)]
    errors = sum(r[0] for r in results)
    enc_err = sum(r[1] for r in results)
    dec_fail = sum(r[2] for r in results)
    conv = sum(r[3] for r in results)
    return ErrorStats(trials, errors, errors / trials,
                      wilson_interval(errors, trials), enc_err, dec_fail, conv)


def exact_error(spec: ChannelCodeSpec, channel) -> float:
    """Full summation of the stochastic-code error probability.

    Each message of Im B is sent with probability 1/|Im B| as a draw from
    the prior restricted to its joint coset (`member_law`); an empty or
    massless joint coset is an error.  The joint cosets partition C_A(c),
    so one batched likelihood over C_A(c) per channel output gives both
    the MAP decision and the error mass.  Needs a finite-output channel at
    oracle scale.
    """
    if channel.continuous:
        raise ValueError("exact summation needs a finite output alphabet")
    if channel.ny ** spec.n > DENSE_CAP:
        raise ValueError("output space exceeds the cap")
    members, msgs, msg_of = spec.members_by_message()
    im_b = spec.q ** spec.rank_b
    total = (im_b - msgs.shape[0]) / im_b     # messages with an empty joint coset
    weight = np.zeros(members.shape[0])
    for i in range(msgs.shape[0]):
        joint = msg_of == i
        try:
            weight[joint] = member_law(members[joint], spec.prior.pmfs) / im_b
        except EncodingError:
            total += 1.0 / im_b
    log_prior = spec.prior.log_prob(members)
    for y in all_vectors(channel.ny, spec.n):
        log_lik = channel.log_lik(y, members)
        best, _ = _argmax(log_prior + log_lik)
        lik = 2.0 ** log_lik
        if best is not None:              # members of the decoded message's coset
            lik[msg_of == msg_of[best]] = 0.0
        total += float(weight @ lik)
    return total


# -- rate conditions ---------------------------------------------------------------


def rate_check(spec: ChannelCodeSpec, channel) -> dict:
    """Achievability conditions (advisory at finite n), as plain floats and bools."""
    rq = rate_quantities(spec.prior.pmfs, channel)
    r, R = float(spec.rate_r), float(spec.rate_R)
    h_x, h_xy = float(rq.h_x), float(rq.h_x_given_y)
    return {
        "r": r,
        "R": R,
        "h_x": h_x,
        "h_x_given_y": h_xy,
        "cond_r": r > h_xy,        # r > H(X|Y)
        "cond_rR": r + R < h_x,    # r + R < H(X)
    }
