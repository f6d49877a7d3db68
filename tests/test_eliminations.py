"""Each matrix is eliminated once: a code's set-up eliminates its stacked map
alone and reads A's rank, c in Im A, B's rank and Im B off that echelon; A is
eliminated only by the paths that enumerate C_A(c), once; and the per-call
paths that have an echelon (uniform encoding, message checks, MAP and lossy
decoding) eliminate nothing."""

import numpy as np
import pytest

from cosetcode import channel, lossy, sampler, sparsemat
from cosetcode.gf import GF
from cosetcode.models import bernoulli_source, bsc, hamming_distortion, qsc, uniform_source
from cosetcode.sparsemat import EnsembleSpec, sample_sparse_matrix
from cosetcode.streams import stream

GF2 = GF(2)


@pytest.fixture
def eliminations(monkeypatch):
    """Records the matrix of every row_reduce call under every name the package
    imported it by, and checks at the end that the Gauss-Jordan kernels ran once
    per call: no elimination goes around row_reduce."""
    calls, kernels = [], []
    real = sparsemat.row_reduce

    def counting(A):
        calls.append(A)
        return real(A)

    for module in (sparsemat, channel, lossy, sampler):
        if getattr(module, "row_reduce", None) is real:
            monkeypatch.setattr(module, "row_reduce", counting)
    for name in ("_gauss_jordan_gf2", "_gauss_jordan_gfq"):
        kernel = getattr(sparsemat, name)
        monkeypatch.setattr(sparsemat, name,
                            lambda *args, kernel=kernel: kernels.append(1) or kernel(*args))
    yield calls
    assert len(kernels) == len(calls)


def lossy_spec(seed, n=10, l=4, k=4):
    A = sample_sparse_matrix(EnsembleSpec(n=n, l=l, field=GF2, tau=2), stream(seed, 1))
    B = sample_sparse_matrix(EnsembleSpec(n=n, l=k, field=GF2, tau=2), stream(seed, 2))
    c = A.mat_vec(stream(seed, 3).integers(0, 2, size=n))
    return lossy.LossyCodeSpec(A, B, c, bernoulli_source(0.3, n), bsc(0.11, n),
                               hamming_distortion(2), 0.2)


@pytest.mark.parametrize("q", [2, 3])
def test_spec_builds_eliminate_the_stack_alone(eliminations, q):
    field, specs = GF(q), []
    for seed in range(4):
        specs.append(channel.sample_code(12, 4, 5, 2, field, uniform_source(12, q), seed))
        A = sample_sparse_matrix(EnsembleSpec(n=12, l=4, field=field, tau=2), stream(seed, 1))
        B = sample_sparse_matrix(EnsembleSpec(n=12, l=6, field=field, tau=2), stream(seed, 2))
        specs.append(lossy.LossyCodeSpec(A, B, A.mat_vec(np.ones(12, dtype=np.int64)),
                                         uniform_source(12, q), qsc(q, 0.1, 12),
                                         hamming_distortion(q), 0.2))
    assert eliminations == [spec.stacked for spec in specs]


def test_channel_spec_and_uniform_encoder(eliminations):
    spec = channel.sample_code(16, 4, 4, 2, GF2, uniform_source(16, 2), seed=3)
    assert eliminations == [spec.stacked]      # nor A, nor B^T
    assert spec.msg_rank == spec.rank_b   # every message encodes
    encoder = channel.ChannelEncoder(spec, sampler.SamplerConfig())
    assert encoder.uniform
    rng = stream(5, 0)
    for _ in range(5):
        m = spec.random_message(rng)
        x = encoder.encode(m, rng)
        assert np.array_equal(spec.stacked.mat_vec(x), np.concatenate([spec.c, m]))
    assert len(eliminations) == 1


def test_channel_encode_checks_messages_without_eliminating(eliminations):
    spec = channel.sample_code(16, 4, 6, 2, GF2, uniform_source(16, 2), seed=4)
    assert spec.msg_rank < spec.B.rows        # some messages lie outside Im B
    before = len(eliminations)
    rng = stream(8, 0)
    for _ in range(5):
        m = spec.random_message(rng)
        x = channel.encode(spec, m, sampler.SamplerConfig(), rng)
        assert np.array_equal(spec.B.mat_vec(x), m)
    outside = next(m for m in sparsemat.all_vectors(2, spec.B.rows)
                   if not spec.message_in_im_b(m))
    with pytest.raises(ValueError, match="Im B"):
        channel.encode(spec, outside, sampler.SamplerConfig(), rng)
    assert len(eliminations) == before


def test_exact_error_eliminates_a_once(eliminations):
    # A is eliminated on the first enumeration of C_A(c), and kept; the
    # other decoder and one uniform encode reuse the spec's echelons
    spec = channel.sample_code(6, 3, 3, 2, GF2, uniform_source(6, 2), seed=19)
    assert eliminations == [spec.stacked]
    channel.exact_error(spec, bsc(0.1, 6))
    channel.decode_map(spec, np.zeros(6, dtype=np.int64), bsc(0.1, 6))
    rng = stream(2, 0)
    channel.encode(spec, spec.random_message(rng), sampler.SamplerConfig(), rng)
    assert eliminations == [spec.stacked, spec.A]


def test_lossy_spec_and_decoder(eliminations):
    specs = [lossy_spec(seed) for seed in range(6)]
    assert eliminations == [spec.stacked for spec in specs]
    assert any(s.ech_stacked.rank < s.n for s in specs)
    rng = stream(6, 0)
    messages = [[spec.B.mat_vec(sparsemat.row_reduce(spec.A).random_member(spec.c, rng))
                 for _ in range(4)] for spec in specs]
    before = len(eliminations)
    for spec, ms in zip(specs, messages):
        for m in ms:
            x_hat = lossy.decode(spec, m)
            assert np.array_equal(spec.stacked.mat_vec(x_hat), np.concatenate([spec.c, m]))
    assert len(eliminations) == before


def test_lossy_exact_error_eliminates_a_once(eliminations):
    # exact_error enumerates C_A(c) through A's echelon, built then and kept
    spec = lossy_spec(7, n=8, l=3)
    assert eliminations == [spec.stacked]
    lossy.exact_error(spec)
    lossy.exact_error(spec)
    assert eliminations == [spec.stacked, spec.A]


def test_lossy_linear_decode_eliminates_nothing(eliminations):
    # B = I makes the stack bijective: decode is a solve on the kept echelon
    n = 6
    A = sample_sparse_matrix(EnsembleSpec(n=n, l=3, field=GF2, tau=2), stream(9, 1))
    spec = lossy.LossyCodeSpec(A, sparsemat.SparseMatrix.from_dense(np.eye(n), GF2),
                               A.mat_vec(np.ones(n, dtype=np.int64)), uniform_source(n, 2),
                               bsc(0.11, n), hamming_distortion(2), 0.2)
    before = len(eliminations)
    for x in sparsemat.all_vectors(2, n):
        if np.array_equal(A.mat_vec(x), spec.c):
            assert np.array_equal(lossy.decode(spec, x), x)
    assert len(eliminations) == before
