import itertools

import numpy as np
import pytest

from cosetcode.channel import ChannelCodeSpec
from cosetcode.gf import GF
from cosetcode.models import uniform_source
from cosetcode.sampler import CosetPair
from cosetcode.sparsemat import (
    DENSE_CAP,
    EnsembleSpec,
    SparseMatrix,
    all_vectors,
    row_reduce,
    sample_sparse_matrix,
    suffix_ranks,
    vec_to_index,
)
from cosetcode.streams import stream

GF2 = GF(2)
GF3 = GF(3)
GF5 = GF(5)


def dense(arr, field):
    return SparseMatrix.from_dense(np.array(arr), field)


# ---------------------------------------------------------------------------
# brute-force oracles
# ---------------------------------------------------------------------------

def brute_rank(D, q):
    """Rank via row-space enumeration: count distinct row combinations."""
    l = D.shape[0]
    seen = set()
    for combo in all_vectors(q, l):
        seen.add(tuple((combo @ D % q).tolist()))
    size = len(seen)
    r = 0
    while q ** r < size:
        r += 1
    assert q ** r == size
    return r


def dense_gauss_jordan(D, q):
    """Reference elimination: Gauss-Jordan on int64 copies of D and I, every
    row updated at every pivot.  Returns (R, T, pivots, rank)."""
    R = np.asarray(D, dtype=np.int64) % q
    l, n = R.shape
    T = np.eye(l, dtype=np.int64)
    inv = [0] + [pow(a, q - 2, q) for a in range(1, q)]
    pivots = []
    r = 0
    for col in range(n):
        if r == l:
            break
        hits = np.nonzero(R[r:, col])[0]
        if hits.size == 0:
            continue
        p = r + int(hits[0])
        if p != r:
            R[[r, p]] = R[[p, r]]
            T[[r, p]] = T[[p, r]]
        piv_inv = inv[R[r, col]]
        R[r] = R[r] * piv_inv % q
        T[r] = T[r] * piv_inv % q
        f = R[:, col].copy()
        f[r] = 0
        R = (R - f[:, None] * R[r][None, :]) % q
        T = (T - f[:, None] * T[r][None, :]) % q
        pivots.append(col)
        r += 1
    return R, T, np.asarray(pivots, dtype=np.int64), r


def assert_im_b_constraints(pair, basis, q):
    """The pair's G (`msg_constraints`) cuts out exactly the row space of
    `basis`, a reference basis of Im B: G annihilates it, is 1 at its own
    pivot and 0 at the others' (so its rows are independent), and has one row
    per dimension that Im B lacks."""
    G = pair.msg_constraints
    assert G.dtype == np.int64
    assert pair.rank_b == basis.shape[0] and basis.shape[0] + G.shape[0] == pair.B.rows
    assert np.array_equal(G[:, pair.msg_pivots], np.eye(G.shape[0], dtype=np.int64))
    assert not np.any(G @ basis.T % q)


def dense_accumulator_sample(spec, rng):
    """Reference tau-ensemble draw: add each column's draws into a dense l x n
    array, then build the matrix from its nonzero entries."""
    q = spec.field.q
    acc = np.zeros((spec.l, spec.n), dtype=np.int64)
    for i in range(spec.n):
        js = rng.integers(0, spec.l, size=spec.tau)
        avals = rng.integers(1, q, size=spec.tau)
        np.add.at(acc[:, i], js, avals)
    acc %= q
    rows, cols = np.nonzero(acc)
    return SparseMatrix(spec.l, spec.n, spec.field, rows, cols, acc[rows, cols])


def brute_coset(D, c, q):
    n = D.shape[1]
    out = [x for x in all_vectors(q, n) if np.array_equal(D @ x % q, c % q)]
    return np.array(out).reshape(len(out), n)


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------

def test_sample_replayed_by_hand():
    spec = EnsembleSpec(n=3, l=2, field=GF2, tau=2)
    rng = stream(42, 0)
    A = sample_sparse_matrix(spec, rng)
    # independent replay of the documented draw order with the same stream
    rng2 = stream(42, 0)
    acc = np.zeros((2, 3), dtype=np.int64)
    for i in range(3):
        js = rng2.integers(0, 2, size=2)
        avals = rng2.integers(1, 2, size=2)
        for j, a in zip(js, avals):
            acc[j, i] += a
    assert np.array_equal(A.to_dense(), acc % 2)
    assert np.all(np.count_nonzero(A.to_dense(), axis=0) <= 2)


def test_sample_reproducible_and_column_weight_bound():
    spec = EnsembleSpec(n=12, l=5, field=GF3, tau=4)
    A1 = sample_sparse_matrix(spec, stream(9, 1))
    A2 = sample_sparse_matrix(spec, stream(9, 1))
    assert A1 == A2
    assert np.all(np.count_nonzero(A1.to_dense(), axis=0) <= 4)
    A3 = sample_sparse_matrix(spec, stream(9, 2))
    assert A1 != A3  # different stream, overwhelmingly different draw


@pytest.mark.parametrize("field", [GF2, GF3])
def test_sample_matches_dense_accumulator(field):
    for seed in range(6):
        spec = EnsembleSpec(n=40 + 13 * seed, l=3 + 4 * seed, field=field,
                            tau=2 + 2 * (seed % 3))
        assert sample_sparse_matrix(spec, stream(seed, 4)) == \
            dense_accumulator_sample(spec, stream(seed, 4))


@pytest.mark.parametrize("field", [GF2, GF3])
def test_sample_replays_the_column_loop_and_its_generator_state(field):
    # the GF(2) draw is one batched call of the row indices; it gives the
    # documented column-by-column draw and leaves the generator where that
    # loop leaves it, since callers go on drawing from it
    for n, l, tau in [(1024, 512, 6), (1500, 7, 4), (1024, 1, 2), (2000, 101, 2)]:
        spec = EnsembleSpec(n=n, l=l, field=field, tau=tau)
        r1, r2 = stream(n, l), stream(n, l)
        assert sample_sparse_matrix(spec, r1) == dense_accumulator_sample(spec, r2)
        # Philox states hold arrays; their repr compares every word
        assert repr(r1.bit_generator.state) == repr(r2.bit_generator.state)
        assert r1.integers(0, 7, size=5).tolist() == r2.integers(0, 7, size=5).tolist()


def test_sample_cancellation_to_zero_column():
    # q=2, tau=2: both draws on the same (j, a) cancel since 1+1=0
    spec = EnsembleSpec(n=200, l=1, field=GF2, tau=2)
    A = sample_sparse_matrix(spec, stream(3, 0))
    # with l=1 every column is e_1+e_1 = 0, always
    assert A.nnz == 0


def test_tau_validation():
    with pytest.raises(ValueError):
        EnsembleSpec(n=4, l=2, field=GF2, tau=3)
    with pytest.raises(ValueError):
        EnsembleSpec(n=4, l=0, field=GF2, tau=2)


def test_construction_validation():
    with pytest.raises(ValueError, match="negative"):
        SparseMatrix(-1, 2, GF2, [], [], [])
    with pytest.raises(ValueError, match="column index 5 out of range in row 1"):
        SparseMatrix(2, 3, GF2, [0, 1, 1], [0, 5, 1], [1, 1, 1])
    with pytest.raises(ValueError, match="duplicate column 1 in row 0"):
        SparseMatrix(2, 3, GF3, [0, 0], [1, 1], [1, 2])
    with pytest.raises(ValueError, match="row index"):
        SparseMatrix(2, 3, GF2, [2], [0], [1])
    with pytest.raises(ValueError, match="duplicate column 2 in row 1"):
        SparseMatrix(2, 3, GF2, [1, 0, 1], [2, 2, 2], [1, 1, 1])


def test_coo_construction_is_canonical():
    # unsorted input, coefficients outside [0, q) and a zero are normalised
    A = SparseMatrix(2, 4, GF3, [1, 0, 1, 0], [3, 2, 0, 1], [4, 3, -1, 2])
    assert A == dense([[0, 2, 0, 0], [2, 0, 0, 1]], GF3)
    assert np.array_equal(A.row_of, [0, 1, 1])
    assert A.nnz == 3


def test_stack_matches_dense():
    rng = np.random.default_rng(21)
    for field in (GF2, GF5):
        D1 = rng.integers(0, field.q, size=(4, 7)) * (rng.random((4, 7)) < 0.4)
        D2 = rng.integers(0, field.q, size=(3, 7)) * (rng.random((3, 7)) < 0.4)
        A, B = dense(D1, field), dense(D2, field)
        assert A.stack(B) == dense(np.vstack([D1, D2]), field)
        assert np.array_equal(A.stack(B).to_dense(), np.vstack([D1, D2]))


@pytest.mark.parametrize("field", [GF2, GF3])
def test_to_dense_gives_a_new_mirror_and_keeps_none(field):
    """Each `to_dense` is a new array, and neither it, a GF(q > 2) elimination
    nor a batch product leaves an l x n copy on the matrix."""
    rng = np.random.default_rng(field.q + 200)
    D = rng.integers(0, field.q, size=(5, 9))
    A = dense(D, field)
    first = A.to_dense()
    assert first is not A.to_dense() and np.array_equal(first, D)
    first[:] = 0                                      # the caller's own array
    assert np.array_equal(A.to_dense(), D)
    row_reduce(A)
    A.mat_mat(rng.integers(0, field.q, size=(3, 9)))
    assert not [k for k, v in vars(A).items() if isinstance(v, np.ndarray) and v.size >= D.size]


@pytest.mark.parametrize("q", [2, 3])
def test_stack_equals_from_coo_of_the_same_entries(q):
    """`stack` concatenates the canonical CSR arrays; it must give the matrix
    the COO constructor builds from both entry lists, by == and by hash."""
    field = GF(q)
    rng = np.random.default_rng(q + 190)
    for rows_a, rows_b in [(4, 3), (3, 0), (0, 2), (5, 5)]:
        entries = []
        for rows in (rows_a, rows_b):
            mask = rng.random((rows, 6)) < 0.5
            mask[rows // 2:rows // 2 + 1] = False     # an empty row
            r, c = np.nonzero(mask)
            # coefficients outside [0, q), some of them zero mod q
            entries.append((r, c, rng.integers(-2 * q, 2 * q, size=r.size)))
        (ra, ca, va), (rb, cb, vb) = entries
        A = SparseMatrix(rows_a, 6, field, ra, ca, va)
        B = SparseMatrix(rows_b, 6, field, rb, cb, vb)
        want = SparseMatrix(rows_a + rows_b, 6, field, np.concatenate([ra, rb + rows_a]),
                            np.concatenate([ca, cb]), np.concatenate([va, vb]))
        got = A.stack(B)
        assert got == want and hash(got) == hash(want)
        assert np.array_equal(got.row_of, want.row_of)
        assert np.array_equal(got.to_dense(), np.vstack([A.to_dense(), B.to_dense()]))


# ---------------------------------------------------------------------------
# mat_vec
# ---------------------------------------------------------------------------

def test_mat_vec_trivial():
    I3 = dense(np.eye(3, dtype=int), GF5)
    assert np.array_equal(I3.mat_vec([1, 2, 0]), [1, 2, 0])
    A = dense([[1, 1]], GF2)
    assert np.array_equal(A.mat_vec([1, 1]), [0])
    Z = dense(np.zeros((2, 3), dtype=int), GF3)
    assert np.array_equal(Z.mat_vec([1, 2, 1]), [0, 0])


def test_mat_vec_linearity_randomized():
    rng = np.random.default_rng(11)
    for field in (GF2, GF3, GF5):
        q = field.q
        D = rng.integers(0, q, size=(4, 7))
        A = dense(D, field)
        for _ in range(20):
            x = rng.integers(0, q, size=7)
            y = rng.integers(0, q, size=7)
            a = int(rng.integers(0, q))
            lhs = A.mat_vec((x + y) % q)
            rhs = (A.mat_vec(x) + A.mat_vec(y)) % q
            assert np.array_equal(lhs, rhs)
            assert np.array_equal(A.mat_vec(a * x % q), a * A.mat_vec(x) % q)


@pytest.mark.parametrize("field", [GF2, GF3, GF5])
def test_mat_vec_matches_the_dense_product(field):
    """A x over GF(q) as the dense product M x % q, with empty first, last
    and inner rows (a segment sum must not read a neighbour's entries), a
    matrix with no entries, and unit-only and non-unit coefficients."""
    q, rng = field.q, np.random.default_rng(90 + field.q)
    for trial in range(30):
        rows, cols = int(rng.integers(1, 9)), int(rng.integers(1, 12))
        D = rng.integers(0, q, size=(rows, cols)) * (rng.random((rows, cols)) < 0.4)
        if trial % 3 == 0:
            D[0] = 0
        if trial % 3 == 1:
            D[-1] = 0
        if trial % 5 == 0:
            D[rows // 2] = 0
        if trial % 2:
            D = np.minimum(D, 1)
        for M in (D, np.zeros_like(D)):
            A = dense(M, field)
            for _ in range(4):
                x = rng.integers(0, q, size=cols)
                got = A.mat_vec(x)
                assert got.dtype == np.int64 and np.array_equal(got, M @ x % q)


def test_mat_vec_dimension_mismatch():
    A = dense([[1, 0], [0, 1]], GF2)
    with pytest.raises(ValueError):
        A.mat_vec([1, 0, 1])


# ---------------------------------------------------------------------------
# echelon form / rank
# ---------------------------------------------------------------------------

def test_row_reduce_trivial():
    assert row_reduce(dense(np.eye(4, dtype=int), GF2)).rank == 4
    assert row_reduce(dense([[1, 1], [1, 1]], GF2)).rank == 1


def test_row_reduce_matches_row_space_enumeration():
    rng = np.random.default_rng(5)
    for _ in range(10):
        D = rng.integers(0, 3, size=(4, 8))
        got = row_reduce(dense(D, GF3)).rank
        assert got == brute_rank(D, 3)


def test_row_reduce_transform_identity():
    rng = np.random.default_rng(6)
    for q, field in [(2, GF2), (5, GF5)]:
        D = rng.integers(0, q, size=(5, 9))
        ech = row_reduce(dense(D, field))
        assert np.array_equal(ech.transform @ D % q, ech.reduced)
        assert np.all(np.diff(ech.pivots) > 0)


# (l, n): n + l just below, at and above 64 and 128, l > n, a single row,
# a single column, one 256 x 512 case, and l > n past one word of columns
GF2_SHAPES = [(20, 43), (20, 44), (20, 45), (50, 77), (50, 78), (50, 79),
              (40, 10), (90, 40), (1, 70), (1, 1), (70, 1), (256, 512),
              (100, 70), (200, 130)]


def assert_echelon_matches(ech, ref):
    R, T, pivots, rank = ref
    assert ech.reduced.dtype == ech.transform.dtype == np.int64
    assert np.array_equal(ech.reduced, R)
    assert np.array_equal(ech.transform, T)
    assert np.array_equal(ech.pivots, pivots)
    assert ech.rank == rank


@pytest.mark.parametrize("shape", GF2_SHAPES)
@pytest.mark.parametrize("density", [0.0, 0.05, 0.5])
def test_row_reduce_gf2_matches_dense_reference(shape, density):
    rng = np.random.default_rng([shape[0], shape[1], int(100 * density)])
    D = (rng.random(shape) < density).astype(np.int64)
    ref = dense_gauss_jordan(D, 2)
    assert_echelon_matches(row_reduce(dense(D, GF2)), ref)
    # entries outside {0, 1} are reduced mod 2 first
    assert_echelon_matches(row_reduce(dense(D + 2 * rng.integers(-3, 3, size=shape), GF2)), ref)


def test_row_reduce_gf2_rank_deficient_and_repeated_rows():
    rng = np.random.default_rng(31)
    base = rng.integers(0, 2, size=(6, 130))
    D = np.vstack([base, base[::-1], rng.integers(0, 2, size=(4, 6)) @ base % 2])
    assert_echelon_matches(row_reduce(dense(D, GF2)), dense_gauss_jordan(D, 2))


@pytest.mark.parametrize("shape,rank", [((12, 40), 10), ((30, 60), 20), ((64, 64), 40),
                                        ((40, 200), 30)])
def test_row_reduce_gf2_many_pivots_and_rank_deficiency_in_one_word(shape, rank):
    # more than the 8 pivots of one table and fewer pivots than rows inside
    # one 64-column word, and dependent rows spread among independent ones
    rng = np.random.default_rng(list(shape) + [rank])
    D = rng.integers(0, 2, size=(shape[0], rank)) @ rng.integers(0, 2, size=(rank, shape[1])) % 2
    ref = dense_gauss_jordan(D, 2)
    assert ref[3] > 8 and ref[3] < shape[0]
    assert_echelon_matches(row_reduce(dense(D, GF2)), ref)


def test_row_reduce_gf2_ensemble_matrix():
    A = sample_sparse_matrix(EnsembleSpec(n=700, l=300, field=GF2, tau=6), stream(12, 1))
    assert_echelon_matches(row_reduce(A), dense_gauss_jordan(A.to_dense(), 2))
    B = sample_sparse_matrix(EnsembleSpec(n=700, l=100, field=GF2, tau=6), stream(12, 2))
    R, _, _, rank = dense_gauss_jordan(B.to_dense().T, 2)
    assert_im_b_constraints(CosetPair(A, B, np.zeros(300)), R[:rank], 2)


@pytest.mark.parametrize("field", [GF3, GF5])
def test_row_reduce_gfq_matches_dense_reference(field):
    rng = np.random.default_rng(field.q)
    for shape in [(1, 1), (5, 9), (9, 5), (30, 60), (0, 4), (4, 0)]:
        D = rng.integers(0, field.q, size=shape) * (rng.random(shape) < 0.3)
        ref = dense_gauss_jordan(D, field.q)
        assert_echelon_matches(row_reduce(dense(D, field)), ref)


def test_row_reduce_empty_gf2():
    for shape in [(0, 5), (5, 0), (0, 0)]:
        D = np.zeros(shape, dtype=np.int64)
        assert_echelon_matches(row_reduce(dense(D, GF2)), dense_gauss_jordan(D, 2))


def test_row_reduce_refuses_above_dense_cap():
    # over GF(2) the packed [A | I] may take 8 * DENSE_CAP bytes: l words of
    # (n + l) / 64 each, at most DENSE_CAP words in all
    tall = DENSE_CAP // 512 + 1                       # l*n just over DENSE_CAP
    assert row_reduce(SparseMatrix(tall, 512, GF2, [], [], [])).rank == 0
    wide = SparseMatrix(1, 2 ** 13, GF2, [], [], [])
    assert row_reduce(wide).rank == 0
    # a code's Im B comes from its stacked echelon: a 1 x 8192 B, whose
    # transpose with its identity would pass the budget, costs no more
    ones = SparseMatrix(1, 2 ** 13, GF2, [0], [5], [1])
    assert_im_b_constraints(CosetPair(wide, ones, [0]), np.ones((1, 1), dtype=np.int64), 2)
    assert_im_b_constraints(CosetPair(wide, SparseMatrix(0, 2 ** 13, GF2, [], [], []), [0]),
                            np.zeros((0, 0), dtype=np.int64), 2)
    # ... and is refused with the stacked [A; B | I] alone: 8194 rows of 130 words
    half = SparseMatrix(4097, 64, GF2, [], [], [])
    with pytest.raises(ValueError, match="exceeds cap"):
        CosetPair(half, half, np.zeros(half.rows))
    # over GF(q > 2) the dense mirror may hold DENSE_CAP entries
    A = SparseMatrix(tall, 512, GF3, [], [], [])
    with pytest.raises(ValueError, match="exceeds cap"):
        row_reduce(A)


# ---------------------------------------------------------------------------
# solving
# ---------------------------------------------------------------------------

def test_solve_particular_identity_and_free_vars():
    I = dense(np.eye(3, dtype=int), GF5)
    c = np.array([4, 0, 2])
    assert np.array_equal(row_reduce(I).solve(c), c)
    A = dense([[1, 1]], GF2)
    assert np.array_equal(row_reduce(A).solve([1]), [1, 0])


def test_solve_particular_no_solution_confirmed_by_scan():
    rng = np.random.default_rng(8)
    found_none = 0
    for _ in range(40):
        D = rng.integers(0, 2, size=(3, 4))
        c = rng.integers(0, 2, size=3)
        x = row_reduce(dense(D, GF2)).solve(c)
        brute = brute_coset(D, c, 2)
        if x is None:
            assert brute.shape[0] == 0
            found_none += 1
        else:
            assert np.array_equal(D @ x % 2, c)
            assert brute.shape[0] > 0
    assert found_none > 0  # the suite actually exercised the no-solution path


def dense_solve(ref, target, q):
    """The former int64 solve: d = T t, None unless d vanishes past the rank."""
    R, T, pivots, rank = ref
    d = T @ (np.asarray(target) % q) % q
    if np.any(d[rank:]):
        return None
    x = np.zeros(R.shape[1], dtype=np.int64)
    x[pivots] = d[:rank]
    return x


def dense_random_member(ref, target, q, rng):
    """The former int64 uniform draw x0 + z K through a dense kernel basis."""
    R, _, pivots, rank = ref
    n = R.shape[1]
    x = dense_solve(ref, target, q)
    if x is None or rank == n:
        return x
    free = np.setdiff1d(np.arange(n), pivots)
    kernel = np.zeros((free.size, n), dtype=np.int64)
    kernel[np.arange(free.size), free] = 1
    kernel[:, pivots] = (-R[:rank, free].T) % q
    z = rng.integers(0, q, size=n - rank)
    return (x + z @ kernel) % q


# (l, n) with n and n + l on both sides of the word boundaries 64 and 128,
# l > n among them
PACKED_SHAPES = [(1, 63), (1, 64), (64, 63), (2, 127), (65, 64), (129, 65),
                 (63, 129), (2, 65), (62, 65)]


@pytest.mark.parametrize("shape", PACKED_SHAPES)
@pytest.mark.parametrize("kind", ["dense", "low-rank", "full-rank"])
def test_packed_solve_and_draw_match_int64_formulas(shape, kind):
    l, n = shape
    rng = np.random.default_rng([l, n, len(kind)])
    if kind == "dense":
        D = rng.integers(0, 2, size=shape)
    elif kind == "low-rank":
        D = rng.integers(0, 2, size=(l, 3)) @ rng.integers(0, 2, size=(3, n)) % 2
    else:                    # a k x k identity block makes the rank k = min(l, n)
        D = rng.integers(0, 2, size=shape)
        k = min(shape)
        D[:k, :k] = np.eye(k, dtype=np.int64)
        D = D[rng.permutation(l)][:, rng.permutation(n)]
    ref = dense_gauss_jordan(D, 2)
    ech = row_reduce(dense(D, GF2))
    assert ech.rank == ref[3]
    empty = 0
    for trial in range(12):
        t = D @ rng.integers(0, 2, size=n) % 2
        if trial % 2 and ref[3] < l:         # off a left-null row: outside Im A
            null = ref[1][ref[3]]
            t[np.flatnonzero(null)[rng.integers(0, null.sum())]] ^= 1
        want = dense_solve(ref, t, 2)
        got = ech.solve(t)
        assert (got is None) == (want is None)
        empty += want is None
        if want is not None:
            assert got.dtype == np.int64 and np.array_equal(got, want)
        r1, r2, r3 = (np.random.default_rng(trial) for _ in range(3))
        h = trial % (l + 1)         # T (head, 0) kept, the tail multiplied per draw
        t_head = ech.transformed(np.r_[t[:h], 0 * t[h:]])
        for _ in range(3):
            want = dense_random_member(ref, t, 2, r1)
            got = ech.random_member(t, r2)
            after = ech.random_member_after(t_head, t[h:], r3)
            assert r1.bit_generator.state == r2.bit_generator.state == r3.bit_generator.state
            assert (got is None) == (want is None) == (after is None)
            if want is not None:
                assert got.dtype == np.int64 and np.array_equal(got, want)
                assert np.array_equal(after, want)
                assert np.array_equal(D @ got % 2, t)
    assert empty == (6 if ref[3] < l else 0)
    assert "reduced" not in vars(ech) and "transform" not in vars(ech) \
        and "kernel" not in vars(ech)


@pytest.mark.parametrize("field", [GF3, GF5])
def test_gfq_solve_and_draw_match_int64_formulas(field):
    q = field.q
    rng = np.random.default_rng(q + 40)
    for shape in [(3, 7), (7, 3), (6, 6)]:
        D = rng.integers(0, q, size=shape) * (rng.random(shape) < 0.5)
        ref = dense_gauss_jordan(D, q)
        ech = row_reduce(dense(D, field))
        for trial in range(6):
            t = rng.integers(0, q, size=shape[0]) if trial % 2 else \
                D @ rng.integers(0, q, size=shape[1]) % q
            r1, r2, r3 = (np.random.default_rng(trial) for _ in range(3))
            want, got = dense_random_member(ref, t, q, r1), ech.random_member(t, r2)
            h = trial % (shape[0] + 1)
            after = ech.random_member_after(ech.transformed(np.r_[t[:h], 0 * t[h:]]), t[h:], r3)
            assert r1.bit_generator.state == r2.bit_generator.state == r3.bit_generator.state
            assert (got is None) == (want is None) == (after is None)
            assert want is None or np.array_equal(got, want) and np.array_equal(after, want)


@pytest.mark.parametrize("field", [GF2, GF3])
def test_member_like_keeps_the_free_columns_that_random_member_draws(field):
    q = field.q
    rng = np.random.default_rng(q + 50)
    for shape in [(3, 7), (7, 3), (6, 6), (2, 65)]:
        D = rng.integers(0, q, size=shape) * (rng.random(shape) < 0.5)
        D[-1] = D[0]                                  # rank < l: some targets are outside
        ech = row_reduce(dense(D, field))
        n = shape[1]
        for trial in range(4):
            t = D @ rng.integers(0, q, size=n) % q
            x_hat = rng.integers(0, q, size=n)
            got = ech.member_like(t, x_hat)
            assert np.array_equal(D @ got % q, t)
            assert np.array_equal(got[ech.free], x_hat[ech.free])
            assert np.array_equal(ech.member_like(t, got), got)   # a member is its own
            r1, r2 = np.random.default_rng(trial), np.random.default_rng(trial)
            drawn = ech.random_member(t, r1)
            free = np.zeros(n, dtype=np.int64)
            free[ech.free] = r2.integers(0, q, size=ech.free.size) if ech.free.size else 0
            assert np.array_equal(drawn, ech.member_like(t, free))
            t[-1] = (t[0] + 1) % q                    # off the dependent row
            assert ech.member_like(t, x_hat) is None


# ---------------------------------------------------------------------------
# kernel
# ---------------------------------------------------------------------------

def test_kernel_trivial():
    assert row_reduce(dense(np.eye(3, dtype=int), GF2)).kernel.shape == (0, 3)
    K = row_reduce(dense([[1, 1]], GF2)).kernel
    assert np.array_equal(K, [[1, 1]])


def test_kernel_span_equals_bruteforce():
    rng = np.random.default_rng(9)
    for _ in range(10):
        D = rng.integers(0, 2, size=(3, 6))
        K = row_reduce(dense(D, GF2)).kernel
        brute = {tuple(x) for x in all_vectors(2, 6) if not np.any(D @ x % 2)}
        spanned = {
            tuple(z @ K % 2) for z in all_vectors(2, K.shape[0])
        } if K.shape[0] else {tuple(np.zeros(6, dtype=int))}
        assert spanned == brute


# ---------------------------------------------------------------------------
# coset enumeration
# ---------------------------------------------------------------------------

def test_coset_members_trivial():
    A = dense([[1, 1]], GF2)
    got = row_reduce(A).members([0])
    assert np.array_equal(got, [[0, 0], [1, 1]])
    I = dense(np.eye(3, dtype=int), GF2)
    assert np.array_equal(row_reduce(I).members([1, 0, 1]), [[1, 0, 1]])


def test_coset_size_formula_exhaustive():
    rng = np.random.default_rng(14)
    for _ in range(20):
        q, field = (2, GF2) if rng.integers(2) else (3, GF3)
        n = int(rng.integers(1, 8 if q == 2 else 6))
        l = int(rng.integers(1, 5))
        D = rng.integers(0, q, size=(l, n))
        ech = row_reduce(dense(D, field))
        rank = ech.rank
        x = rng.integers(0, q, size=n)
        c = D @ x % q  # guaranteed in Im A
        got = ech.members(c)
        assert got.shape[0] == q ** (n - rank)
        assert np.array_equal(got, brute_coset(D, c, q))
        # lexicographic ordering
        codes = vec_to_index(got, q)
        assert np.all(np.diff(codes) > 0)


def test_coset_members_cap_refused():
    A = dense(np.zeros((1, 30), dtype=int), GF2)
    with pytest.raises(ValueError):
        row_reduce(A).members([0])


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------

def test_im_b_constraints_of_a_zero_row():
    # a code's Im B constraints are read off the stacked echelon's cokernel:
    # Im B = {(m0, 0)} is cut out by m1 = 0
    B = dense([[1, 0, 1], [0, 0, 0]], GF2)
    pair = CosetPair(dense([[1, 1, 0]], GF2), B, [0])
    assert np.array_equal(pair.msg_constraints, [[0, 1]])
    assert np.array_equal(pair.msg_pivots, [1])
    assert_im_b_constraints(pair, np.array([[1, 0]]), 2)


def test_im_b_constraints_annihilate_the_rref_of_transpose():
    rng = np.random.default_rng(23)
    for field, shape in [(GF2, (70, 150)), (GF3, (8, 20))]:
        D = rng.integers(0, field.q, size=shape) * (rng.random(shape) < 0.2)
        A = dense(rng.integers(0, field.q, size=(shape[0] // 2, shape[1])), field)
        R, _, _, rank = dense_gauss_jordan(D.T, field.q)
        assert_im_b_constraints(CosetPair(A, dense(D, field), np.zeros(A.rows)), R[:rank],
                                field.q)


def pair_cases():
    """(A, B, c) over GF(2), GF(3) and GF(5): random shapes and densities, stacks of
    full row rank (no cokernel), B = I (a cokernel of l rows), repeated rows, a
    zero B, and every target of GF(q)^l, in Im A and not."""
    rng = np.random.default_rng(29)
    for field in (GF2, GF3, GF5):
        q = field.q
        for _ in range(20):
            n, l, k = (int(v) for v in rng.integers(1, 9, size=3))
            density = rng.choice([0.2, 0.5, 0.9])
            A, B = (rng.integers(0, q, size=(r, n)) * (rng.random((r, n)) < density)
                    for r in (l, k))
            if rng.random() < 0.2:
                B[-1] = B[0]
            c = A @ rng.integers(0, q, size=n) % q
            yield dense(A, field), dense(B, field), c
        n = 7
        A = rng.integers(0, q, size=(3, n))
        yield dense(A, field), dense(np.eye(n, dtype=np.int64), field), A[:, 0]
        yield dense(A, field), dense(rng.integers(0, q, size=(2, n)), field), A[:, 1]
        yield dense(A, field), dense(np.zeros((2, n), dtype=np.int64), field), A[:, 2]
        low = (rng.integers(0, q, size=(3, 1)) @ rng.integers(0, q, size=(1, 4))) % q
        for c in all_vectors(q, 3):             # rank A <= 1: most targets miss Im A
            yield dense(low, field), dense(rng.integers(0, q, size=(2, 4)), field), c


def test_cokernel_facts_match_direct_eliminations():
    seen = {"specs": 0, "z = 0": 0, "B = I": 0, "c outside Im A": 0}
    for A, B, c in pair_cases():
        q, n = A.field.q, A.cols
        ech_a = row_reduce(A)
        if ech_a.solve(c) is None:
            seen["c outside Im A"] += 1
            with pytest.raises(ValueError, match="c is not in Im A"):
                CosetPair(A, B, c)
            continue
        pair = ChannelCodeSpec(A, B, c, uniform_source(n, q))
        seen["specs"] += 1
        z = A.rows + B.rows - pair.ech_stacked.rank
        seen["z = 0"] += z == 0
        seen["B = I"] += B == dense(np.eye(n, dtype=np.int64), A.field)
        R, _, _, rank_b = dense_gauss_jordan(B.to_dense().T, q)
        assert pair.rank_a == ech_a.rank
        assert pair.rank_b == rank_b == row_reduce(B).rank
        assert_im_b_constraints(pair, R[:rank_b], q)
        # a message draw is z times the RREF basis of Im B, bit for bit
        draws, twin = stream(31, seen["specs"]), stream(31, seen["specs"])
        for _ in range(5):
            z = twin.integers(0, q, size=rank_b)
            assert np.array_equal(pair.random_message(draws), z @ R[:rank_b] % q)
        # the messages C_A(c) reaches span B ker A
        reach = dense(B.to_dense() @ ech_a.kernel.T % q, A.field)
        assert pair.msg_rank == row_reduce(reach).rank
    assert seen["specs"] >= 60 and seen["z = 0"] and seen["B = I"] == 3
    assert seen["c outside Im A"] >= 30


def dense_suffix_ranks(D, field):
    """sr[k] = rank of columns k..n-1, by a right-to-left sweep that keeps a
    reduced basis of the columns seen so far (the library's former loop)."""
    q = field.q
    l, n = D.shape
    basis = np.zeros((0, l), dtype=np.int64)
    piv = []
    sr = np.zeros(n + 1, dtype=np.int64)
    for k in range(n - 1, -1, -1):
        v = D[:, k].copy()
        if basis.shape[0]:
            v = (v - v[piv] @ basis) % q
        nz = np.nonzero(v)[0]
        if nz.size:
            p = int(nz[0])
            v = v * int(field.inv_table[v[p]]) % q
            if basis.shape[0]:
                f = basis[:, p].copy()
                basis = (basis - f[:, None] * v[None, :]) % q
            basis = np.vstack([basis, v])
            piv.append(p)
        sr[k] = basis.shape[0]
    return sr


def test_suffix_ranks_against_row_reduce():
    rng = np.random.default_rng(15)
    for _ in range(20):
        q, field = (2, GF2) if rng.integers(2) else (5, GF5)
        n, l = int(rng.integers(1, 9)), int(rng.integers(1, 6))
        D = rng.integers(0, q, size=(l, n))
        A = dense(D, field)
        sr = suffix_ranks(row_reduce(A.reversed()))
        assert np.array_equal(sr, dense_suffix_ranks(D, field))
        for k in range(n + 1):
            want = row_reduce(dense(D[:, k:], field)).rank if k < n else 0
            assert sr[k] == want


def test_reversed_matches_dense():
    rng = np.random.default_rng(16)
    D = rng.integers(0, 3, size=(4, 7)) * (rng.random((4, 7)) < 0.5)
    assert np.array_equal(dense(D, GF3).reversed().to_dense(), D[:, ::-1])


def test_all_vectors_lex_order():
    V = all_vectors(3, 2)
    assert np.array_equal(V[:4], [[0, 0], [0, 1], [0, 2], [1, 0]])
    assert vec_to_index([1, 0], 3) == 3
    for q, n in [(2, 0), (2, 5), (3, 4), (5, 2)]:     # the inverse of all_vectors, row by row
        assert np.array_equal(vec_to_index(all_vectors(q, n), q), np.arange(q ** n))
