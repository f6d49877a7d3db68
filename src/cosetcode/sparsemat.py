"""Sparse matrices over GF(q) and the linear algebra behind coset codes.

Matrices are immutable after construction and stored CSR-style with
canonical rows (ascending columns, no zero coefficients), so equality is
structural.  Over GF(2) elimination runs on rows bit-packed into 64-bit
words straight from the CSR entries, one word of columns at a time: its
pivots are found on that word, then all rows are updated from tables of
XOR combinations of 8 pivot rows (the method of Four Russians).  The echelon
stays packed: solves and uniform coset draws are XOR/popcount parities on
its words.  Over GF(q > 2) elimination works on the dense mirror `to_dense`.

DENSE_CAP = 2**20 is the library's one desk-scale budget, read by every
refusal where it happens: dense mirror entries (l*n), packed words of
[A | I] in `row_reduce`, coset members, enumerated channel outputs and
source words, exact-engine states, factor-graph assignments, hash-scan
inputs and the matrices of an enumerated (exact) hash ensemble.

`row_reduce` eliminates a matrix once and returns an `EchelonForm`, the
one object that solves A x = t, holds the kernel and enumerates or
samples the coset {x : A x = t}; callers keep the echelon of a matrix
they reuse instead of eliminating it again.  The echelon of `A.reversed()`
answers for the column suffixes of A (`suffix_ranks`, `sampler`); its cokernel,
the rows of T past the rank, answers for the projections of a stacked map
onto its row blocks (`image_constraints`), so no block is eliminated again.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .gf import GF

DENSE_CAP = 2 ** 20
_BIT = np.uint64(1) << np.arange(64, dtype=np.uint64)


class SparseMatrix:
    """Row-sparse l x n matrix over GF(q)."""

    def __init__(self, rows: int, cols: int, field: GF, row_idx, col_idx, coeffs):
        """Entries (row_idx[t], col_idx[t]) = coeffs[t], stored as canonical CSR;
        out-of-range indices and repeated (row, column) pairs are refused."""
        if rows < 0 or cols < 0:
            raise ValueError("negative matrix dimensions")
        self.rows = int(rows)
        self.cols = int(cols)
        self.field = field
        row_idx, col_idx, coeffs = (np.asarray(a, dtype=np.int64)
                                    for a in (row_idx, col_idx, coeffs))
        if row_idx.size and (row_idx.min() < 0 or row_idx.max() >= rows):
            raise ValueError("row index out of range")
        order = np.lexsort((col_idx, row_idx))
        row_idx, col_idx, coeffs = row_idx[order], col_idx[order], coeffs[order] % field.q
        # the first fault in (row, column) order is the one reported
        out_of_range = (col_idx < 0) | (col_idx >= cols)
        repeated = np.zeros(col_idx.size, dtype=bool)
        repeated[1:] = (row_idx[1:] == row_idx[:-1]) & (col_idx[1:] == col_idx[:-1])
        faults = np.flatnonzero(out_of_range | repeated)
        if faults.size:
            t = faults[0]
            what = "column index {} out of range" if out_of_range[t] else "duplicate column {}"
            raise ValueError(what.format(col_idx[t]) + f" in row {row_idx[t]}")
        keep = coeffs != 0
        self.row_of = row_idx[keep]
        self.col_idx = col_idx[keep]
        self.coeffs = coeffs[keep]
        self.indptr = np.zeros(rows + 1, dtype=np.int64)
        np.cumsum(np.bincount(self.row_of, minlength=rows), out=self.indptr[1:])

    # -- construction helpers ----------------------------------------------

    @classmethod
    def from_dense(cls, arr, field: GF) -> "SparseMatrix":
        arr = np.asarray(arr, dtype=np.int64) % field.q
        if arr.ndim != 2:
            raise ValueError("dense input must be 2-d")
        rows, cols = np.nonzero(arr)
        return cls(arr.shape[0], arr.shape[1], field, rows, cols, arr[rows, cols])

    @property
    def nnz(self) -> int:
        return int(self.indptr[-1])

    def to_dense(self) -> np.ndarray:
        """A new l x n int64 mirror, refused above DENSE_CAP entries; none is kept."""
        if self.rows * self.cols > DENSE_CAP:
            raise ValueError(f"dense mirror refused: {self.rows}x{self.cols} "
                             f"exceeds cap {DENSE_CAP}")
        d = np.zeros((self.rows, self.cols), dtype=np.int64)
        d[self.row_of, self.col_idx] = self.coeffs
        return d

    def reversed(self) -> "SparseMatrix":
        """The same matrix with its columns in reverse order."""
        return SparseMatrix(self.rows, self.cols, self.field,
                            self.row_of, self.cols - 1 - self.col_idx, self.coeffs)

    # -- algebra -------------------------------------------------------------

    def mat_vec(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=np.int64)
        if x.shape != (self.cols,):
            raise ValueError(f"vector length {x.shape} does not match n={self.cols}")
        filled, starts, unit = self._row_segments
        terms = x.take(self.col_idx)
        if not unit:
            terms *= self.coeffs
        y = np.zeros(self.rows, dtype=np.int64)
        y[filled] = np.add.reduceat(terms, starts)
        return y % self.field.q

    @cached_property
    def _row_segments(self):
        """(the rows with entries, each one's first entry, whether every
        coefficient is 1): `reduceat` over those starts sums each such row,
        where an empty row would read its successor's first entry."""
        filled = np.flatnonzero(self.indptr[1:] > self.indptr[:-1])
        return filled, self.indptr[filled], bool((self.coeffs == 1).all())

    def mat_mat(self, xs) -> np.ndarray:
        """Apply to many vectors at once; xs has shape (k, n), returns (k, l)."""
        xs = np.asarray(xs, dtype=np.int64)
        if xs.ndim != 2 or xs.shape[1] != self.cols:
            raise ValueError("batch shape mismatch")
        return xs @ self.to_dense().T % self.field.q

    def stack(self, other: "SparseMatrix") -> "SparseMatrix":
        """Rows of self followed by rows of other (the map x -> (Ax, Bx))."""
        if other.cols != self.cols or other.field != self.field:
            raise ValueError("stack requires same column count and field")
        out = SparseMatrix.__new__(SparseMatrix)    # both canonical CSR: no sort, no check
        out.rows, out.cols, out.field = self.rows + other.rows, self.cols, self.field
        out.row_of, out.col_idx, out.coeffs, out.indptr = (np.concatenate(pair) for pair in [
            (self.row_of, other.row_of + self.rows), (self.col_idx, other.col_idx),
            (self.coeffs, other.coeffs), (self.indptr, other.indptr[1:] + self.nnz)])
        return out

    def __eq__(self, other):
        return (
            isinstance(other, SparseMatrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.field == other.field
            and np.array_equal(self.indptr, other.indptr)
            and np.array_equal(self.col_idx, other.col_idx)
            and np.array_equal(self.coeffs, other.coeffs)
        )

    def __hash__(self):
        return hash((self.rows, self.cols, self.field.q,
                     self.col_idx.tobytes(), self.coeffs.tobytes(),
                     self.indptr.tobytes()))

    def __repr__(self):
        return f"SparseMatrix({self.rows}x{self.cols}, GF({self.field.q}), nnz={self.nnz})"


@dataclass(frozen=True)
class EnsembleSpec:
    """Parameters of the tau-addition sparse ensemble."""

    n: int
    l: int
    field: GF
    tau: int

    def __post_init__(self):
        if self.n < 1 or self.l < 1:
            raise ValueError("n and l must be >= 1")
        if self.tau < 2 or self.tau % 2 != 0:
            raise ValueError(f"tau must be a positive even integer, got {self.tau}")


def sample_sparse_matrix(spec: EnsembleSpec, rng: np.random.Generator) -> SparseMatrix:
    """Draw one matrix from the tau-addition ensemble.

    For each column, tau draws of (row j, nonzero a) are made uniformly
    and a is *added* into entry (j, i); coincident draws accumulate and
    may cancel to zero, in which case the entry is dropped from storage.
    The draws go column by column, rows then values; over GF(2) the values
    take no random bits, so one call draws all rows as that loop would.
    """
    q, n, l, tau = spec.field.q, spec.n, spec.l, spec.tau
    if q == 2:
        js, avals = rng.integers(0, l, size=(n, tau)), np.ones((n, tau), dtype=np.int64)
    else:
        js, avals = np.array([(rng.integers(0, l, size=tau), rng.integers(1, q, size=tau))
                              for _ in range(n)]).transpose(1, 0, 2)
    pos, slot = np.unique((js * n + np.arange(n)[:, None]).ravel(), return_inverse=True)
    sums = np.bincount(slot.ravel(), avals.ravel()).astype(np.int64)
    return SparseMatrix(l, n, spec.field, pos // n, pos % n, sums)


# -- echelon forms and solving ------------------------------------------------


@dataclass
class EchelonForm:
    """Reduced row echelon form R of A plus the transform T with T A = R.

    The one place that turns an elimination into answers about cosets
    C_A(t) = {x : A x = t}: a particular solution, the kernel, every
    member, or a uniformly random member.

    `rt` holds [R | T], the l rows of the eliminated [A | I].  Over GF(2)
    they stay bit-packed as little-endian uint64 words, bit j of a row in
    bit j % 64 of word j // 64, and products with R and T are the parity
    of a word-wise AND; over GF(q > 2) they are int64.  `reduced` and
    `transform` are dense int64 copies, unpacked on first read.
    """

    rt: np.ndarray
    n: int
    pivots: np.ndarray
    field: GF

    @property
    def rank(self) -> int:
        return self.pivots.size

    @cached_property
    def reduced(self) -> np.ndarray:
        return self._dense(0, self.n)

    @cached_property
    def transform(self) -> np.ndarray:
        return self._dense(self.n, self.n + self.rt.shape[0])

    @cached_property
    def free(self) -> np.ndarray:
        """The non-pivot columns, ascending."""
        return np.delete(np.arange(self.n), self.pivots)

    def _dense(self, lo: int, hi: int, rows=slice(None)) -> np.ndarray:
        """Columns lo..hi-1 of the rows `rows` of [R | T] as a new int64 array."""
        rt = self.rt[rows]
        return _unpack(rt, lo, hi) if self.field.q == 2 else rt[:, lo:hi].copy()

    def _product(self, lo: int, v: np.ndarray) -> np.ndarray:
        """Columns lo..lo+len(v)-1 of [R | T] times v over GF(q): R x from lo = 0,
        T t from lo = n."""
        if self.field.q != 2:
            return self.rt[:, lo:lo + v.size] @ v % self.field.q
        w0, w1 = lo >> 6, (lo + v.size + 63) >> 6
        bits = np.zeros(64 * (w1 - w0), dtype=np.uint8)
        bits[lo - 64 * w0:lo - 64 * w0 + v.size] = v
        packed = np.packbits(bits, bitorder="little").view("<u8")
        acc = np.bitwise_xor.reduce(self.rt[:, w0:w1] & packed, axis=1)
        return (np.bitwise_count(acc) & 1).astype(np.int64)

    def transformed(self, target) -> np.ndarray:
        """T target over GF(q); its entries past `rank` are zero iff target is in Im A."""
        t = np.asarray(target, dtype=np.int64) % self.field.q
        if t.shape != (self.rt.shape[0],):
            raise ValueError("target length does not match row count")
        return self._product(self.n, t)

    def solve(self, target):
        """Any x with A x = target, free variables set to 0; None when target is not in Im A."""
        return self._lifted(self.transformed(target))

    def _lifted(self, d):
        """`solve`'s x from d = T target."""
        if np.any(d[self.rank:]):
            return None
        x = np.zeros(self.n, dtype=np.int64)
        x[self.pivots] = d[: self.rank]
        return x

    @cached_property
    def kernel(self) -> np.ndarray:
        """Basis of {x : A x = 0} as a (n - rank, n) array, built on first use:
        per free column f, ascending, e_f - sum_i R[i, f] e_{pivots[i]}."""
        free, R = self.free, self._dense(0, self.n, slice(self.rank))
        basis = np.zeros((free.size, self.n), dtype=np.int64)
        basis[np.arange(free.size), free] = 1
        basis[:, self.pivots] = -R[:, free].T % self.field.q
        return basis

    def image_constraints(self, lo: int, hi: int):
        """(G, pivots): rows lo..hi-1 of A x range over {m : G m = 0} as x varies.

        Read off the cokernel N, the rows of T past the rank (t is in Im A iff
        N t = 0), without unpacking the rest of T: reduced row by row with the
        other columns first and lo..hi-1 last, reversed, the rows that pivot among
        the latter involve m alone; G is zero past each row's pivot and at the others'."""
        N = self._dense(self.n, self.n + self.rt.shape[0], slice(self.rank, None))
        (z, w), own, q = N.shape, hi - lo, self.field.q
        M = N[:, np.r_[:lo, hi:w, np.arange(hi - 1, lo - 1, -1)]]
        pivots = np.zeros(z, dtype=np.int64)
        for i in range(z):      # N's rows are independent, so each one pivots
            p = pivots[i] = np.flatnonzero(M[i])[0]
            M[i] = M[i] * int(self.field.inv_table[M[i, p]]) % q
            M = (M - np.outer(M[:, p] * (np.arange(z) != i), M[i])) % q
        on_m = pivots >= w - own
        return M[on_m, w - own:][:, ::-1], w - 1 - pivots[on_m]

    def members(self, target) -> np.ndarray:
        """All of C_A(target) in lexicographic order, empty when target is not in
        Im A; refuses when the coset has more than DENSE_CAP members."""
        x0 = self.solve(target)
        if x0 is None:
            return np.zeros((0, self.n), dtype=np.int64)
        q, dim = self.field.q, self.n - self.rank
        if q ** dim > DENSE_CAP:
            raise ValueError(f"coset size {q ** dim} exceeds cap {DENSE_CAP}")
        members = (x0[None, :] + all_vectors(q, dim) @ self.kernel) % q
        return members[np.lexsort(members.T[::-1])]

    def random_member(self, target, rng: np.random.Generator):
        """Uniform draw x0 + z K from C_A(target); None when target is not in Im A."""
        return self._drawn(self.transformed(target), rng)

    def random_member_after(self, t_head, tail, rng: np.random.Generator):
        """random_member((head, tail), rng) from a kept t_head = T (head, 0); T is linear."""
        lo = self.n + self.rt.shape[0] - tail.size
        return self._drawn((t_head + self._product(lo, tail)) % self.field.q, rng)

    def _drawn(self, d, rng: np.random.Generator):
        """`random_member`'s draw from d = T target."""
        x = self._lifted(d)
        if x is None or self.rank == self.n:
            return x
        return self._completed(x, rng.integers(0, self.field.q, size=self.n - self.rank))

    def member_like(self, target, x_hat):
        """The member of C_A(target) agreeing with x_hat on the free columns, or None."""
        x = self.solve(target)
        return x if x is None else self._completed(x, np.asarray(x_hat)[self.free])

    def _completed(self, x0: np.ndarray, z) -> np.ndarray:
        """x0 + z K: z on the free columns, minus R times it on the pivots, so no
        kernel basis is built."""
        zk = np.zeros(self.n, dtype=np.int64)
        zk[self.free] = z
        zk[self.pivots] = -self._product(0, zk)[: self.rank]
        return (x0 + zk) % self.field.q


def row_reduce(A: SparseMatrix) -> EchelonForm:
    """Gauss-Jordan elimination of [A | I] over GF(q).

    The pivot of each column is the first row at or below the current one
    with a nonzero there; it is swapped into place, scaled to 1 and
    cleared from every other row.  For q = 2 the rows are packed into
    64-bit words straight from the entries and stay packed in the result;
    the packed [A | I] may take at most 8 * DENSE_CAP bytes, and the rows
    are updated once per 64-column word, to the same [R | T].
    """
    if A.field.q == 2:
        l, n = A.rows, A.cols
        words = (n + l + 63) // 64
        if l * words > DENSE_CAP:
            raise ValueError(f"packed elimination refused: {l} rows of {n + l} bits take "
                             f"{8 * l * words} bytes, exceeds cap {8 * DENSE_CAP}")
        rt = np.zeros((l, words), dtype="<u8")
        cols = np.r_[A.col_idx, n:n + l]
        np.bitwise_or.at(rt, (np.r_[A.row_of, :l], cols >> 6), _BIT[cols & 63])
        pivots = _gauss_jordan_gf2(rt, n)
        # column-major: a product ANDs and XOR-reduces contiguous word columns
        rt = np.asfortranarray(rt)
    else:
        rt = np.concatenate([A.to_dense(), np.eye(A.rows, dtype=np.int64)], axis=1)
        pivots = _gauss_jordan_gfq(rt, A.cols, A.field)
    return EchelonForm(rt, A.cols, np.asarray(pivots, dtype=np.int64), A.field)


def _unpack(P: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """Bits lo..hi-1 of the packed rows P as a new int64 array."""
    w = lo >> 6
    bits = np.unpackbits(np.ascontiguousarray(P[:, w:]).view(np.uint8), axis=1,
                         count=hi - 64 * w, bitorder="little")
    return bits[:, lo - 64 * w:].astype(np.int64)


def _gauss_jordan_gf2(P: np.ndarray, n: int) -> list:
    """Eliminate columns 0..n-1 of the packed rows P in place; returns the pivots.

    Per 64-column word w, the one-pivot-at-a-time rule runs on word w of the
    rows below the pivots so far (XORs into rows above change no choice), and
    K records which of the word's pivot rows each row absorbs.  A final row is
    its start row plus the one combination of pivot rows that clears the pivot
    columns, so all rows are updated at once from tables of XOR combinations of
    8 start rows, looked up by the bytes of K or, above, of the pivot bits.
    """
    l = P.shape[0]
    pivots = []
    for w in range((n + 63) // 64):
        r0 = len(pivots)
        if r0 == l:
            break
        W = P[r0:, w].copy()
        K = np.zeros(l - r0, dtype="<u8")
        perm = np.arange(r0, l)
        k = 0
        for b in range(min(n - 64 * w, 64)):
            hits = (W & _BIT[b]).nonzero()[0]
            i = hits.searchsorted(k)
            if i == hits.size:
                continue
            p = hits[i]
            W[k], W[p] = W[p], W[k]
            K[k], K[p] = K[p], K[k]
            perm[k], perm[p] = perm[p], perm[k]
            # row p now holds row k's old word, which lacks bit b when p > k
            hits[i] = k
            v, kv = W[k], K[k] | _BIT[k]
            W[hits] ^= v
            K[hits] ^= kv
            W[k], K[k] = v, kv
            pivots.append(64 * w + b)
            k += 1
        if k == 0:
            continue
        S = P[perm, w:]         # words before w are zero in the rows below r0
        tables = _xor_tables(S[:k])
        if r0:      # a row above absorbs the pivot rows at whose pivots it has bits
            at_pivot = np.zeros((64, 1), dtype="<u8")
            at_pivot[np.asarray(pivots[r0:]) - 64 * w, 0] = K[:k]
            above = P[:r0, w:]
            above ^= _xor_lookup(tables, _xor_lookup(_xor_tables(at_pivot), above[:, 0])[:, 0])
        S[:k] = 0
        P[r0:, w:] = S ^ _xor_lookup(tables, K)
    return pivots


def _xor_tables(rows: np.ndarray) -> np.ndarray:
    """t[g, m] = XOR of the rows 8g + j of `rows` with bit j set in the byte m."""
    k, width = rows.shape
    src = np.zeros(((k + 7) // 8, 8, width), dtype="<u8")
    src.reshape(-1, width)[:k] = rows
    tables = np.zeros((src.shape[0], 256, width), dtype="<u8")
    for j in range(8):
        np.bitwise_xor(tables[:, :1 << j], src[:, j, None], out=tables[:, 1 << j:2 << j])
    return tables


def _xor_lookup(tables: np.ndarray, masks: np.ndarray) -> np.ndarray:
    """XOR of the rows that the bits of each mask select, from `_xor_tables`."""
    out = tables[0][masks & np.uint64(255)]
    for g in range(1, tables.shape[0]):
        out ^= tables[g][(masks >> np.uint64(8 * g)) & np.uint64(255)]
    return out


def _gauss_jordan_gfq(M: np.ndarray, n: int, field: GF) -> list:
    """Eliminate columns 0..n-1 of the dense rows M over GF(q) in place; returns the
    pivots.  Updates only the rows with a nonzero in the pivot column, from it on."""
    q, l = field.q, M.shape[0]
    pivots = []
    for col in range(n):
        r = len(pivots)
        if r == l:
            break
        hits = np.flatnonzero(M[r:, col])
        if hits.size == 0:
            continue
        p = r + int(hits[0])
        if p != r:
            M[[r, p]] = M[[p, r]]
        M[r, col:] = M[r, col:] * int(field.inv_table[M[r, col]]) % q
        others = np.flatnonzero(M[:, col])
        others = others[others != r]
        if others.size:
            f = M[others, col][:, None]
            M[others, col:] = (M[others, col:] - f * M[r, col:]) % q
        pivots.append(col)
    return pivots


# -- enumeration and encoding helpers -----------------------------------------


def all_vectors(q: int, n: int) -> np.ndarray:
    """All q**n vectors as rows, lexicographic (index 0 most significant)."""
    total = q ** n
    out = np.empty((total, n), dtype=np.int64)
    idx = np.arange(total)
    for i in range(n - 1, -1, -1):
        out[:, i] = idx % q
        idx //= q
    return out


def vec_to_index(x, q: int):
    """Lexicographic rank of each vector along the last axis of x, inverse of
    all_vectors row order: an int64 array of the other axes' shape."""
    x = np.asarray(x, dtype=np.int64)
    return x @ q ** np.arange(x.shape[-1] - 1, -1, -1, dtype=np.int64)


def suffix_ranks(reverse: EchelonForm) -> np.ndarray:
    """sr[k] = rank of columns k..n-1 of A (sr[n] = 0), from the echelon of
    A reversed: a column is a pivot there iff it is independent of the
    columns after it, so sr[k] counts the pivots at reversed positions < n - k."""
    n = reverse.n
    return np.searchsorted(reverse.pivots, n - np.arange(n + 1))
