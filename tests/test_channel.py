import json
import math
import tracemalloc

import numpy as np
import pytest

from cosetcode import channel, fastbp
from cosetcode.channel import (
    ChannelCodeSpec,
    ChannelEncoder,
    decode_bp,
    decode_map,
    encode,
    exact_error,
    rate_check,
    sample_code,
    simulate,
)
from cosetcode.gf import GF
from cosetcode.fastbp import DECODE_ITERS, CosetBP
from cosetcode.models import (BiAwgnChannel, MemorylessSource, bac, bernoulli_source, bsc,
                              qsc, reverse_model, uniform_source)
from cosetcode.sampler import DeadEndError, EncodingError, SamplerConfig
from cosetcode.sparsemat import DENSE_CAP, SparseMatrix, all_vectors, row_reduce
from cosetcode.stats import binary_entropy, chi2_quantile, chi_square_stat
from cosetcode.streams import stream

GF2 = GF(2)
EXACT = SamplerConfig(method="exact")


def dense(arr, field=GF2):
    return SparseMatrix.from_dense(np.array(arr), field)


def small_spec(n=6, l=3, k=3, seed=11, prior=None):
    prior = prior or uniform_source(n, 2)
    return sample_code(n, l, k, 2, GF2, prior, seed)


# ---------------------------------------------------------------------------
# encoding
# ---------------------------------------------------------------------------

def test_encode_identity_b_no_constraints():
    n = 5
    A = SparseMatrix(0, n, GF2, [], [], [])
    B = dense(np.eye(n, dtype=int))
    spec = ChannelCodeSpec(A, B, np.zeros(0, dtype=int), uniform_source(n, 2))
    m = np.array([1, 0, 1, 1, 0])
    x = encode(spec, m, EXACT, stream(1, 0))
    assert np.array_equal(x, m)


def test_encode_singleton_coset_deterministic():
    A = dense([[1, 1]])
    B = dense([[1, 0]])
    spec = ChannelCodeSpec(A, B, [0], uniform_source(2, 2))
    x = encode(spec, [1], EXACT, stream(2, 0))
    assert np.array_equal(x, [1, 1])


def test_encode_uniform_law_chi_square():
    spec = small_spec(n=8, l=3, k=4, seed=5)
    m = spec.random_message(stream(3, 9))
    target = np.concatenate([spec.c, m])
    members = row_reduce(spec.stacked).members(target)
    assert members.shape[0] >= 2
    keys = {tuple(x): 0 for x in members}
    rng = stream(4, 0)
    trials = 8000
    from cosetcode.channel import ChannelEncoder
    enc = ChannelEncoder(spec, EXACT)
    for _ in range(trials):
        x = enc.encode(m, rng)
        keys[tuple(x)] += 1
    counts = np.array(list(keys.values()))
    expected = np.full(len(keys), trials / len(keys))
    assert chi_square_stat(counts, expected) < chi2_quantile(len(keys) - 1, 0.999)


def test_encode_support_postcondition_nonuniform():
    prior = MemorylessSource(np.broadcast_to([0.8, 0.2], (6, 2)).copy())
    spec = small_spec(n=6, l=2, k=3, seed=21, prior=prior)
    cfg = SamplerConfig(method="exact")
    for t in range(30):
        rng = stream(50, t)
        m = spec.random_message(rng)
        try:
            x = encode(spec, m, cfg, rng)
        except EncodingError:
            continue
        assert np.array_equal(spec.A.mat_vec(x), spec.c)
        assert np.array_equal(spec.B.mat_vec(x), m)


def test_encode_rejects_message_outside_im_b():
    A = dense([[1, 1, 0]])
    B = dense([[1, 1, 1], [1, 1, 1]])  # rank 1: Im B = {00, 11}
    spec = ChannelCodeSpec(A, B, [0], uniform_source(3, 2))
    with pytest.raises(ValueError, match="Im B"):
        encode(spec, [1, 0], EXACT, stream(0, 0))


@pytest.mark.parametrize("q", [2, 3])
def test_message_in_im_b_matches_solve(q):
    field = GF(q)
    for seed in range(4):
        spec = sample_code(8, 3, 4, 2, field, uniform_source(8, q), seed)
        ech_b = row_reduce(spec.B)
        for m in all_vectors(q, 4):
            assert spec.message_in_im_b(m) == (ech_b.solve(m) is not None)
    with pytest.raises(ValueError, match="length"):
        spec.message_in_im_b([0, 0, 0])


def test_message_in_im_b_at_bsc_bp_shape():
    # tau = 6 adds an even number of ones to each column, so the rows of B sum
    # to zero: rank 255 of 256, and Im B is the even-weight messages, half of all
    spec = sample_code(1024, 512, 256, 6, GF2, uniform_source(1024, 2), seed=5)
    assert spec.rank_b == 255 and spec.msg_constraints.shape == (1, 256)
    ech_b, rng = row_reduce(spec.B), stream(6, 0)
    inside = []
    for _ in range(64):
        m = rng.integers(0, 2, size=256)
        inside.append(spec.message_in_im_b(m))
        assert inside[-1] == (ech_b.solve(m) is not None) == (m.sum() % 2 == 0)
        assert spec.message_in_im_b(spec.random_message(rng))
    assert 16 < sum(inside) < 48
    # Im B's RREF basis is e_i + e_255, i < 255; a message draw is z times it
    basis = row_reduce(SparseMatrix.from_dense(spec.B.to_dense().T, GF2)).reduced[:255]
    assert np.array_equal(basis, np.c_[np.eye(255, dtype=np.int64), np.ones(255, dtype=np.int64)])
    draws, twin = stream(6, 1), stream(6, 1)
    for _ in range(20):
        z = twin.integers(0, 2, size=255)
        assert np.array_equal(spec.random_message(draws), z @ basis % 2)


def test_spec_keeps_im_b_by_its_constraints_alone():
    # Im B is held as {m : G m = 0}, with G of k - rank_b rows; a rank_b x k
    # basis beside it would double what a spec at n = 4096 keeps
    prior = uniform_source(4096, 2)
    tracemalloc.start()
    try:
        spec = sample_code(4096, 1024, 512, 6, GF2, prior, seed=1)
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert kept < 5e6
    assert spec.rank_b > 500
    arrays = {name: v for name, v in vars(spec).items() if isinstance(v, np.ndarray)}
    assert "msg_constraints" in arrays
    assert all(v.size < spec.rank_b * spec.B.rows for v in arrays.values())


def test_message_in_im_b_rank_zero():
    spec = ChannelCodeSpec(dense([[1, 1, 0]]), SparseMatrix(2, 3, GF2, [], [], []), [0],
                           uniform_source(3, 2))
    assert spec.message_in_im_b([0, 0])
    assert not spec.message_in_im_b([0, 1])


# ---------------------------------------------------------------------------
# MAP decoding
# ---------------------------------------------------------------------------

def test_decode_map_noiseless_roundtrip():
    spec = small_spec()
    ch = bsc(0.0, spec.n)
    rng = stream(7, 0)
    for _ in range(10):
        m = spec.random_message(rng)
        x = encode(spec, m, EXACT, rng)
        out = decode_map(spec, x, ch)
        assert out.success and np.array_equal(out.m_hat, m)


def test_decode_map_matches_full_space_bruteforce():
    spec = small_spec(n=8, l=4, k=4, seed=13)
    ch = bsc(0.1, 8)
    rng = stream(8, 0)
    V = all_vectors(2, 8)
    coset_mask = np.array([np.array_equal(spec.A.mat_vec(v), spec.c) for v in V])
    for t in range(20):
        y = rng.integers(0, 2, size=8)
        out = decode_map(spec, y, ch)
        # independent full-space scan restricted to the coset
        best, best_score = None, -math.inf
        for v in V[coset_mask]:
            score = spec.prior.log_prob(v) + ch.log_lik(y, v)
            if score > best_score:
                best, best_score = v, score
        assert np.array_equal(out.m_hat, spec.B.mat_vec(best))


def test_decode_map_tie_flag_at_half():
    A = dense([[1, 1]])
    B = dense([[1, 0]])
    spec = ChannelCodeSpec(A, B, [0], uniform_source(2, 2))
    ch = bsc(0.5, 2)
    out = decode_map(spec, np.array([0, 1]), ch)
    assert out.tie
    assert np.array_equal(out.m_hat, [0])  # lexicographically smallest wins


def test_decode_map_fails_on_zero_posterior():
    # odd parity required, the noiseless channel saw even parity: no member of
    # the coset can have produced y
    A = dense([[1, 1]])
    B = dense([[1, 0]])
    spec = ChannelCodeSpec(A, B, [1], uniform_source(2, 2))
    out = decode_map(spec, np.array([0, 0]), bsc(0.0, 2))
    assert not out.success and not out.tie


def map_by_member(spec, y, ch):
    """(m_hat, tie) from scoring each member of C_A(c) on its own, the way
    decode_map did before its scores were batched."""
    members = spec.coset_a.echelon.members(spec.c)
    scores = np.array([spec.prior.log_prob(x) + ch.log_lik(y, x) for x in members])
    if not scores.size or scores.max() == -np.inf:
        return None, False
    best = int(np.argmax(scores))
    return spec.B.mat_vec(members[best]), int((scores == scores[best]).sum()) > 1


@pytest.mark.parametrize("case", ["bsc", "bsc-noiseless", "bac", "qsc3", "biawgn"])
def test_decode_map_matches_per_member_scores(case):
    n, q = 8, 3 if case == "qsc3" else 2
    prior, ch = {
        "bsc": (uniform_source(n, 2), bsc(0.1, n)),
        "bsc-noiseless": (uniform_source(n, 2), bsc(0.0, n)),
        "bac": (bernoulli_source(0.3, n), bac(0.05, 0.2, n)),
        "qsc3": (MemorylessSource(np.tile([0.6, 0.2, 0.2], (n, 1))), qsc(3, 0.1, n)),
        "biawgn": (bernoulli_source(0.3, n), BiAwgnChannel(0.8, n)),
    }[case]
    for seed in range(6):
        spec = sample_code(n, 3, 3, 2, GF(q), prior, seed)
        rng = stream(seed, 40)
        for _ in range(12):
            x = rng.integers(0, q, size=n)
            y = ch.sample(x, rng) if ch.continuous else rng.integers(0, ch.ny, size=n)
            out = decode_map(spec, y, ch)
            m_hat, tie = map_by_member(spec, y, ch)
            assert out.tie == tie
            assert (out.m_hat is None and m_hat is None) or np.array_equal(out.m_hat, m_hat)


@pytest.mark.parametrize("y", [[-1, 0, 0, 0, 0, 0], [2, 0, 0, 0, 0, 0], [0, 0, 0, 0, 0]],
                         ids=["negative", "past-alphabet", "short"])
def test_decoders_reject_outputs_the_channel_cannot_emit(y):
    spec = small_spec()
    with pytest.raises(ValueError, match="output"):
        decode_bp(spec, y, bsc(0.1, 6))
    with pytest.raises(ValueError, match="output"):
        decode_map(spec, y, bsc(0.1, 6))


def test_decoders_reject_wrong_length_biawgn_output():
    spec = small_spec()
    with pytest.raises(ValueError, match="output"):
        decode_bp(spec, np.ones(5), BiAwgnChannel(0.5, 6))
    with pytest.raises(ValueError, match="output"):
        decode_map(spec, np.ones(5), BiAwgnChannel(0.5, 6))


def test_zero_evidence_is_a_failed_decode():
    # x_0 = 1 has zero prior and the noiseless channel saw y_0 = 1
    prior = MemorylessSource(np.vstack([[1.0, 0.0], np.full((5, 2), 0.5)]))
    spec = small_spec(prior=prior)
    y = np.array([1, 0, 0, 0, 0, 0])
    assert not decode_bp(spec, y, bsc(0.0, 6)).success
    assert not decode_map(spec, y, bsc(0.0, 6)).success


def test_decoders_reject_a_channel_of_another_length():
    # y is a valid output of the 5-symbol channel, but the code has n = 6
    spec = small_spec()
    y = np.zeros(5, dtype=np.int64)
    with pytest.raises(ValueError, match="length mismatch"):
        decode_bp(spec, y, bsc(0.1, 5))
    with pytest.raises(ValueError, match="length mismatch"):
        decode_map(spec, y, bsc(0.1, 5))


def test_a_refused_exact_engine_unpacks_no_reverse_echelon():
    """A joint rank past the state cap is refused from the rank alone, before
    the reverse echelon is unpacked: it keeps no dense copy of R or T."""
    spec = sample_code(256, 64, 32, 6, GF2, bernoulli_source(0.2, 256), seed=1)
    with pytest.raises(ValueError, match=r"exact engine refused: 2\*\*\d+ syndromes"):
        ChannelEncoder(spec, EXACT)
    rev = spec.joint.reverse
    assert 2 ** rev.rank > DENSE_CAP
    assert not {"reduced", "transform", "kernel"} & set(vars(rev))
    assert rev.rt.dtype == np.uint64


# ---------------------------------------------------------------------------
# BP decoding
# ---------------------------------------------------------------------------

def test_uniform_trial_path_keeps_the_stacked_echelon_packed():
    spec = sample_code(1024, 512, 256, 6, GF2, uniform_source(1024, 2), seed=3)
    encoder, ch, rng = ChannelEncoder(spec, EXACT), bsc(0.025, 1024), stream(4, 0)
    assert encoder.uniform
    for _ in range(20):
        m = spec.random_message(rng)
        x = encoder.encode(m, rng)
        assert np.array_equal(spec.stacked.mat_vec(x), np.concatenate([spec.c, m]))
        decode_bp(spec, ch.sample(x, rng), ch)
    assert not {"kernel", "reduced", "transform"} & set(vars(spec.ech_stacked))
    assert spec.ech_stacked.rt.dtype == np.uint64


def test_code_past_the_former_dense_cap_encodes_and_decodes():
    # 768 x 2048 stacked: l*n = 1.5 * 2**20, refused while echelons were dense
    spec = sample_code(2048, 512, 256, 6, GF2, uniform_source(2048, 2), seed=1)
    rng, ch = stream(2, 0), bsc(0.01, 2048)
    m = spec.random_message(rng)
    x = ChannelEncoder(spec, EXACT).encode(m, rng)
    assert np.array_equal(spec.stacked.mat_vec(x), np.concatenate([spec.c, m]))
    out = decode_bp(spec, ch.sample(x, rng), ch)
    assert out.success and np.array_equal(out.m_hat, m)


def test_decode_bp_noiseless():
    spec = small_spec()
    ch = bsc(0.0, spec.n)
    rng = stream(9, 0)
    m = spec.random_message(rng)
    x = encode(spec, m, EXACT, rng)
    out = decode_bp(spec, x, ch)
    assert out.success and np.array_equal(out.m_hat, m)


def test_decode_bp_agrees_with_map_on_tree():
    # disjoint two-variable checks: a forest, BP is exact
    A = SparseMatrix(3, 8, GF2, [0, 0, 1, 1, 2, 2], [0, 1, 2, 3, 4, 5], [1] * 6)
    B = dense(np.eye(8, dtype=int))
    c = np.array([0, 1, 0])
    spec = ChannelCodeSpec(A, B, c, uniform_source(8, 2))
    ch = bsc(0.1, 8)
    rng = stream(10, 0)
    agree = 0
    for _ in range(20):
        y = rng.integers(0, 2, size=8)
        got = decode_bp(spec, y, ch)
        want = decode_map(spec, y, ch)
        if not want.tie and got.success:
            assert np.array_equal(got.m_hat, want.m_hat)
            agree += 1
    assert agree > 0


def test_decode_bp_biawgn_far_outputs():
    # y far from +-1 at sigma = 0.05 used to underflow to zero evidence
    spec = small_spec(n=6, l=3, k=3, seed=11)
    x = spec.ech_stacked.random_member(
        np.concatenate([spec.c, spec.random_message(stream(2, 0))]), stream(2, 1))
    ch = BiAwgnChannel(0.05, spec.n)
    out = decode_bp(spec, 5.0 * (1 - 2 * x), ch)
    assert out.success
    assert np.array_equal(out.m_hat, spec.B.mat_vec(x))


def test_decode_bp_failure_on_contradiction():
    A = dense([[1, 1]])
    B = dense([[1, 0]])
    spec = ChannelCodeSpec(A, B, [1], uniform_source(2, 2))  # odd parity required
    ch = bsc(0.0, 2)
    out = decode_bp(spec, np.array([0, 0]), ch)  # even-parity observation
    assert not out.success


def full_run_decode(spec, y, ch):
    """The decode without the member stop: BP until DECODE_ITERS or settled
    messages, then the argmax of the marginals; (m_hat or None, iterations)."""
    bp = CosetBP(spec.coset_a.graph, spec.c, reverse_model(spec.prior, ch, y))
    bp.run(DECODE_ITERS)
    x_hat = np.argmax(bp.marginals(), axis=1)
    member = not bp.failed and np.array_equal(spec.A.mat_vec(x_hat), spec.c)
    return (spec.B.mat_vec(x_hat) if member else None), bp.iterations


@pytest.fixture(scope="module")
def bsc_bp_words():
    """A code the size of the benchmark's bsc-bp workload, BSC(0.025), and
    30 channel outputs."""
    n = 1024
    spec = sample_code(n, 512, 256, 6, GF2, bernoulli_source(0.5, n), seed=16)
    ch, encoder = bsc(0.025, n), ChannelEncoder(spec, EXACT)
    ys = []
    for t in range(30):
        rng = stream(16, t)
        ys.append(ch.sample(encoder.encode(spec.random_message(rng), rng), rng))
    return spec, ch, ys


@pytest.fixture(scope="module")
def bsc_bp_decodes(bsc_bp_words):
    """(decode_bp outcome, full-run m_hat, full-run iterations) per word."""
    spec, ch, ys = bsc_bp_words
    return [(decode_bp(spec, y, ch), *full_run_decode(spec, y, ch)) for y in ys]


def member_loop_decode(spec, y, ch):
    """decode_bp rebuilt from run(1) calls, each followed by a fresh full
    member check of the pass's hard decision, then the argmax of the
    marginals: (m_hat or None, converged, iterations)."""
    bp = CosetBP(spec.coset_a.graph, spec.c, reverse_model(spec.prior, ch, y))
    converged = False
    while bp.iterations < DECODE_ITERS and not converged:
        settled = bp.run(1)
        if bp.failed:
            return None, False, bp.iterations
        x_hat = np.argmax(bp.prior_t * bp.graph.variables.products(*bp.kept), axis=0)
        converged = settled or np.array_equal(spec.A.mat_vec(x_hat), spec.c)
    x_hat = np.argmax(bp.marginals(), axis=1)
    member = np.array_equal(spec.A.mat_vec(x_hat), spec.c)
    return (spec.B.mat_vec(x_hat) if member else None), converged, bp.iterations


def test_decode_bp_matches_a_fresh_member_check_loop(bsc_bp_words, bsc_bp_decodes):
    spec, ch, ys = bsc_bp_words
    for y, (out, _, _) in zip(ys, bsc_bp_decodes):
        m_ref, converged, iterations = member_loop_decode(spec, y, ch)
        assert (out.m_hat is None) == (m_ref is None)
        assert out.m_hat is None or np.array_equal(out.m_hat, m_ref)
        assert (out.converged, out.iterations) == (converged, iterations)


def test_decode_bp_member_stop_keeps_the_full_run_message(bsc_bp_decodes):
    for out, m_full, _ in bsc_bp_decodes:
        assert (out.m_hat is None and m_full is None) or np.array_equal(out.m_hat, m_full)
    assert np.median([out.iterations for out, _, _ in bsc_bp_decodes]) < \
        np.median([iters for _, _, iters in bsc_bp_decodes])


def test_member_stopped_decode_reports_converged(bsc_bp_decodes):
    early = [out for out, _, iters in bsc_bp_decodes if out.iterations < iters]
    assert early    # stopped at a member before the messages settled
    assert all(out.converged and out.iterations < DECODE_ITERS for out in early)


def test_member_stop_reads_non_unit_coefficients(monkeypatch):
    """GF(3): a run that stops at a member before its messages settle has
    a member argmax, and every decode_bp success decoded a member."""
    n = 48
    spec = sample_code(n, 24, 8, 4, GF(3), uniform_source(n, 3), seed=5)
    assert np.any(spec.A.coeffs == 2)
    read = []
    real = fastbp.CosetBP.marginals
    monkeypatch.setattr(fastbp.CosetBP, "marginals", lambda bp: read.append(real(bp)) or read[-1])
    ch, encoder = qsc(3, 0.06, n), ChannelEncoder(spec, EXACT)
    early = successes = 0
    for t in range(40):
        rng = stream(17, t)
        y = ch.sample(encoder.encode(spec.random_message(rng), rng), rng)
        posteriors = reverse_model(spec.prior, ch, y)
        bp = CosetBP(spec.coset_a.graph, spec.c, posteriors)
        bp.run(DECODE_ITERS, until_member=True)
        _, full_iters = full_run_decode(spec, y, ch)
        if bp.iterations < full_iters:
            early += 1
            assert np.array_equal(spec.A.mat_vec(np.argmax(real(bp), axis=1)), spec.c)
        read.clear()
        if decode_bp(spec, y, ch).success:
            successes += 1
            assert np.array_equal(spec.A.mat_vec(np.argmax(read[0], axis=1)), spec.c)
    assert early > 0 and successes > 0


def test_decode_bp_reads_a_in_coset_off_the_member_tests_syndrome(bsc_bp_words,
                                                                  bsc_bp_decodes, monkeypatch):
    """When x_hat, read through marginals(), is the member test's own decision,
    its syndrome is A x_hat - c, and decode_bp forms no A x_hat; when the two
    differ (a tie that normalising split apart, forced here), it does, once."""
    spec, ch, ys = bsc_bp_words
    formed = []
    real_mat_vec = SparseMatrix.mat_vec
    monkeypatch.setattr(SparseMatrix, "mat_vec",
                        lambda M, x: formed.append(M is spec.A) or real_mat_vec(M, x))
    for y, (want, _, _) in zip(ys, bsc_bp_decodes):
        formed.clear()
        out = decode_bp(spec, y, ch)
        assert out.converged and out.iterations < DECODE_ITERS
        assert out.success and np.array_equal(out.m_hat, want.m_hat)
        assert formed.count(True) == 0

    decisions = []
    real_decision = channel.hard_decision

    def split(beliefs):
        """The second read of a decode, the member test's, differs at symbol 0."""
        x = real_decision(beliefs)
        decisions.append(x)
        if len(decisions) % 2 == 0:
            x = x.copy()
            x[0] ^= 1
        return x

    monkeypatch.setattr(channel, "hard_decision", split)
    for y, (want, _, _) in zip(ys[:4], bsc_bp_decodes):
        formed.clear()
        out = decode_bp(spec, y, ch)
        assert out.success and np.array_equal(out.m_hat, want.m_hat)
        assert formed.count(True) == 1


# ---------------------------------------------------------------------------
# simulation and the exact error
# ---------------------------------------------------------------------------

def test_simulate_noiseless_zero_error():
    spec = small_spec()
    ch = bsc(0.0, spec.n)
    stats = simulate(spec, ch, 200, EXACT, seed=77, decoder="map")
    assert stats.errors == 0
    assert stats.error_rate == 0.0


def test_simulate_matches_exact_error_within_wilson():
    spec = small_spec(n=6, l=3, k=3, seed=19)
    ch = bsc(0.1, 6)
    exact = exact_error(spec, ch)
    stats = simulate(spec, ch, 4000, EXACT, seed=101, decoder="map")
    lo, hi = stats.wilson
    assert lo <= exact <= hi
    assert 0 < exact < 1


def full_space_error(spec, ch):
    """Error probability of the stochastic code by scanning all of GF(q)^n,
    independent of every echelon: messages, joint cosets and MAP decisions."""
    n, q = spec.n, spec.q
    V = all_vectors(q, n)
    on_a = V[[np.array_equal(spec.A.mat_vec(v), spec.c) for v in V]]
    sent = np.array([spec.B.mat_vec(v) for v in on_a])
    msgs = np.unique([spec.B.mat_vec(v) for v in V], axis=0)   # Im B
    px = np.array([2.0 ** spec.prior.log_prob(v) for v in on_a])
    lik = ch.kernels[np.arange(n), on_a[:, None, :], V[None, :, :]].prod(axis=2)
    # MAP decisions: the first maximum in lexicographic order
    decoded = [sent[int(np.argmax([spec.prior.log_prob(v) + ch.log_lik(y, v)
                                   for v in on_a]))] for y in V]
    total = 0.0
    for m in msgs:
        joint = np.all(sent == m, axis=1)
        mass = px[joint].sum()
        if mass == 0:                   # m cannot be encoded
            total += 1.0 / len(msgs)
            continue
        for iy in range(len(V)):
            if not np.array_equal(decoded[iy], m):
                total += (px[joint] @ lik[joint, iy]) / mass / len(msgs)
    return total


def test_exact_error_matches_full_space_sum_gf3_qsc():
    n, q = 5, 3
    prior = MemorylessSource(stream(6, 0).dirichlet(np.ones(q), size=n))
    ch = qsc(3, 0.15, n)
    for seed in range(3):
        spec = sample_code(n, 2, 2, 2, GF(q), prior, seed)
        got = exact_error(spec, ch)
        assert type(got) is float
        assert abs(got - full_space_error(spec, ch)) < 1e-12


def test_exact_error_counts_messages_no_member_reaches():
    # rank B = 2 but B maps C_A(c) onto one line of Im B: half of the
    # messages have an empty joint coset and are errors
    n = 6
    prior = MemorylessSource(stream(6, 2).dirichlet(np.ones(2), size=n))
    spec = sample_code(n, 3, 3, 2, GF2, prior, seed=1)
    assert spec.msg_rank == 1 and spec.rank_b == 2 == row_reduce(spec.B).rank
    ch = bsc(0.1, n)
    got = exact_error(spec, ch)
    assert 0.5 < got < 1
    assert abs(got - full_space_error(spec, ch)) < 1e-12


@pytest.mark.parametrize("decoder", ["MAP", "nonsense"])
def test_simulate_rejects_an_unknown_decoder(decoder):
    spec = small_spec()
    with pytest.raises(ValueError, match="unknown decoder"):
        simulate(spec, bsc(0.1, spec.n), 1, EXACT, seed=0, decoder=decoder)


def test_simulate_single_message_code():
    # R = 0: B has rank 0, a single message; errors come from leaving the coset
    A = dense([[1, 1, 0], [0, 1, 1]])
    B = SparseMatrix(1, 3, GF2, [], [], [])
    spec = ChannelCodeSpec(A, B, [0, 0], uniform_source(3, 2))
    assert spec.msg_rank == 0
    ch = bsc(0.2, 3)
    stats = simulate(spec, ch, 500, EXACT, seed=3, decoder="map")
    # decoding any y yields the single message: never an error
    assert stats.errors == 0


def test_simulate_same_seed_deterministic():
    spec = small_spec(n=6, l=2, k=3, seed=23)
    ch = bsc(0.1, 6)
    r1 = simulate(spec, ch, 300, EXACT, seed=55, decoder="map")
    r2 = simulate(spec, ch, 300, EXACT, seed=55, decoder="map")
    assert r1.as_dict() == r2.as_dict()


def test_simulate_counts_dead_end_as_encoding_error(monkeypatch):
    prior = MemorylessSource(np.tile([0.9, 0.1], (6, 1)))
    spec = small_spec(prior=prior)
    real = ChannelEncoder.encode
    calls = []

    def every_other_dead_end(self, m, rng):
        calls.append(m)
        if len(calls) % 2:
            raise DeadEndError("zero continuation mass")
        return real(self, m, rng)

    monkeypatch.setattr(ChannelEncoder, "encode", every_other_dead_end)
    stats = simulate(spec, bsc(0.05, 6), 5, SamplerConfig(method="sum-product"), seed=1)
    assert stats.trials == 5 and len(calls) == 5
    assert stats.encoding_errors == 3
    assert stats.errors >= stats.encoding_errors


def test_failed_initial_bp_on_a_nonempty_coset_is_a_dead_end():
    # BP's messages underflow to exact zeros on this coset of 256 members
    prior = MemorylessSource(np.tile([0.95, 0.05], (24, 1)))
    spec = sample_code(24, 10, 8, 4, GF2, prior, seed=2)
    m = np.array([1, 1, 0, 1, 0, 0, 1, 0])
    assert spec.ech_stacked.members(np.concatenate([spec.c, m])).shape[0] == 256
    encoder = ChannelEncoder(spec, SamplerConfig(method="sum-product"))
    with pytest.raises(DeadEndError, match="initial BP run failed"):
        encoder.encode(m, np.random.default_rng(2))
    x = ChannelEncoder(spec, SamplerConfig(method="exact")).encode(m, np.random.default_rng(2))
    assert np.array_equal(spec.B.mat_vec(x), m)


@pytest.mark.xfail(strict=True, raises=DeadEndError,
                   reason="ROADMAP item 4: the check side cancels the unlikely symbol's mass to 0")
def test_sum_product_encodes_the_bp_zero_repro():
    """ROADMAP item 4's repro: once BP forms no zeros of its own, the
    sum-product encoder draws a member of this 256-member joint coset."""
    prior = MemorylessSource(np.tile([0.95, 0.05], (24, 1)))
    spec = sample_code(24, 10, 8, 4, GF2, prior, seed=2)
    m = np.array([1, 1, 0, 1, 0, 0, 1, 0])
    x = ChannelEncoder(spec, SamplerConfig(method="sum-product")).encode(
        m, np.random.default_rng(2))
    assert np.array_equal(spec.stacked.mat_vec(x), np.concatenate([spec.c, m]))


# ---------------------------------------------------------------------------
# the uniform prior: the generator-matrix code
# ---------------------------------------------------------------------------

def test_stochastic_and_linear_same_error_probability():
    # with a uniform prior and a bijective (A, B) stack, the stochastic code
    # puts the one x with (A x, B x) = (c, m) on the channel, as the
    # generator-matrix code does, and MAP-decodes it over C_A(c)
    rng = np.random.default_rng(41)
    while True:
        A = dense(rng.integers(0, 2, size=(2, 4)))
        if row_reduce(A).rank == 2:
            break
    c = A.mat_vec(np.array([1, 0, 1, 1]))
    # m reads x at the free columns, so it names one member of C_A(c)
    B = dense(np.eye(4, dtype=int)[row_reduce(A).free])
    spec = ChannelCodeSpec(A, B, c, uniform_source(4, 2))
    ch = bsc(0.15, 4)
    # independent summation, by brute force over GF(2)^4
    words = all_vectors(2, 4)
    coset = words[[np.array_equal(A.mat_vec(x), c) for x in words]]
    msgs = all_vectors(2, 2)
    total = 0.0
    for m in msgs:
        (x,) = [x for x in coset if np.array_equal(B.mat_vec(x), m)]
        for y in words:
            x_hat = coset[np.argmax([ch.log_lik(y, z) for z in coset])]
            if not np.array_equal(B.mat_vec(x_hat), m):
                total += 2.0 ** ch.log_lik(y, x) / msgs.shape[0]
    assert exact_error(spec, ch) == pytest.approx(total, abs=1e-9)


# ---------------------------------------------------------------------------
# rate conditions
# ---------------------------------------------------------------------------

def test_rate_check_example_values():
    n = 100
    l = int(round(0.55 * n))
    k = int(round(0.40 * n))
    spec = sample_code(n, l, k, 4, GF2, uniform_source(n, 2), seed=2)
    ch = bsc(0.11, n)
    rep = rate_check(spec, ch)
    assert rep["h_x"] == pytest.approx(1.0)
    assert rep["h_x_given_y"] == pytest.approx(binary_entropy(0.11), abs=1e-9)
    if rep["r"] > 0.5 and rep["r"] + rep["R"] < 1.0:
        assert rep["cond_r"] and rep["cond_rR"]


def test_rate_check_violations():
    A = SparseMatrix(0, 4, GF2, [], [], [])       # r = 0
    B = dense(np.eye(4, dtype=int))
    spec = ChannelCodeSpec(A, B, np.zeros(0, dtype=int), uniform_source(4, 2))
    ch = bsc(0.1, 4)
    rep = rate_check(spec, ch)
    assert not rep["cond_r"]              # r = 0 violates r > H(X|Y)
    # r + R = log q exactly: strict inequality fails
    A2 = dense(np.eye(4, dtype=int))
    B2 = dense(np.eye(4, dtype=int))
    spec2 = ChannelCodeSpec(A2, B2, [0, 0, 0, 0], uniform_source(4, 2))
    rep2 = rate_check(spec2, ch)
    assert rep2["r"] + rep2["R"] >= 1.0 - 1e-12
    assert not rep2["cond_rR"]

def test_rate_check_is_plain_json():
    spec = small_spec()
    rep = rate_check(spec, bsc(0.1, spec.n))
    assert json.loads(json.dumps(rep)) == rep
    assert {type(v) for v in rep.values()} <= {bool, float}
    assert type(rep["cond_r"]) is bool and type(rep["cond_rR"]) is bool
