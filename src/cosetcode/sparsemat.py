"""Sparse matrices over GF(q) and the linear algebra behind coset codes.

Matrices are immutable after construction and stored CSR-style with
canonical rows (ascending columns, no zero coefficients), so equality is
structural.  Over GF(2) elimination runs on the rows of [A | I]
bit-packed into 64-bit words, packed straight from the CSR entries, and
the echelon keeps them packed: solves and uniform coset draws are
XOR/popcount parities on those words, and no int64 copy of the matrix or
of its echelon is made unless a caller reads one.  The packed [A | I]
may take at most 8 * DENSE_CAP bytes (8 MiB), about l*(n + l) <= 2**26
bits.  Over GF(q > 2) elimination works on the dense int64 mirror
`to_dense`, refused above l*n = DENSE_CAP = 2**20 entries, so that path
is desk scale by design.

`row_reduce` eliminates a matrix once and returns an `EchelonForm`, the
one object that solves A x = t, holds the kernel and enumerates or
samples the coset {x : A x = t}; callers keep the echelon of a matrix
they reuse instead of eliminating it again.  The echelon of `A.reversed()`
answers for the column suffixes of A (`suffix_ranks`, `sampler`).
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .gf import GF

DENSE_CAP = 2 ** 20


class SparseMatrix:
    """Row-sparse l x n matrix over GF(q)."""

    def __init__(self, rows: int, cols: int, field: GF, entries):
        """entries: iterable of per-row lists of (col, coeff) pairs."""
        entries = [list(row) for row in entries]
        if rows >= 0 and len(entries) != rows:
            raise ValueError(f"expected {rows} rows of entries, got {len(entries)}")
        pairs = np.array([p for row in entries for p in row], dtype=np.int64).reshape(-1, 2)
        row_idx = np.repeat(np.arange(len(entries)), [len(row) for row in entries])
        self._set(rows, cols, field, row_idx, pairs[:, 0], pairs[:, 1])

    def _set(self, rows, cols, field, row_idx, col_idx, coeffs):
        """Store entries (row_idx[t], col_idx[t]) = coeffs[t] as canonical CSR."""
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
        self._dense = None

    # -- construction helpers ----------------------------------------------

    @classmethod
    def from_coo(cls, rows: int, cols: int, field: GF,
                 row_idx, col_idx, coeffs) -> "SparseMatrix":
        """Matrix with entries (row_idx[t], col_idx[t]) = coeffs[t], checked as in __init__."""
        self = cls.__new__(cls)
        self._set(rows, cols, field, row_idx, col_idx, coeffs)
        return self

    @classmethod
    def from_dense(cls, arr, field: GF) -> "SparseMatrix":
        arr = np.asarray(arr, dtype=np.int64) % field.q
        if arr.ndim != 2:
            raise ValueError("dense input must be 2-d")
        rows, cols = np.nonzero(arr)
        return cls.from_coo(arr.shape[0], arr.shape[1], field, rows, cols, arr[rows, cols])

    def row(self, i: int):
        s, e = self.indptr[i], self.indptr[i + 1]
        return self.col_idx[s:e], self.coeffs[s:e]

    @property
    def nnz(self) -> int:
        return int(self.indptr[-1])

    def to_dense(self) -> np.ndarray:
        """The l x n int64 mirror, refused above DENSE_CAP entries."""
        if self._dense is None:
            if self.rows * self.cols > DENSE_CAP:
                raise ValueError(f"dense mirror refused: {self.rows}x{self.cols} "
                                 f"exceeds cap {DENSE_CAP}")
            d = np.zeros((self.rows, self.cols), dtype=np.int64)
            d[self.row_of, self.col_idx] = self.coeffs
            self._dense = d
        return self._dense

    def reversed(self) -> "SparseMatrix":
        """The same matrix with its columns in reverse order."""
        return SparseMatrix.from_coo(self.rows, self.cols, self.field,
                                     self.row_of, self.cols - 1 - self.col_idx, self.coeffs)

    def transpose(self) -> "SparseMatrix":
        return SparseMatrix.from_coo(self.cols, self.rows, self.field,
                                     self.col_idx, self.row_of, self.coeffs)

    # -- algebra -------------------------------------------------------------

    def mat_vec(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=np.int64)
        if x.shape != (self.cols,):
            raise ValueError(f"vector length {x.shape} does not match n={self.cols}")
        y = np.zeros(self.rows, dtype=np.int64)
        np.add.at(y, self.row_of, self.coeffs * x[self.col_idx])
        return y % self.field.q

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
        return SparseMatrix.from_coo(
            self.rows + other.rows, self.cols, self.field,
            np.concatenate([self.row_of, other.row_of + self.rows]),
            np.concatenate([self.col_idx, other.col_idx]),
            np.concatenate([self.coeffs, other.coeffs]))

    def column_weights(self) -> np.ndarray:
        w = np.zeros(self.cols, dtype=np.int64)
        np.add.at(w, self.col_idx, 1)
        return w

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
    seed: int = 0

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
    """
    q, n, l, tau = spec.field.q, spec.n, spec.l, spec.tau
    js = np.empty((n, tau), dtype=np.int64)
    avals = np.empty((n, tau), dtype=np.int64)
    for i in range(n):
        js[i] = rng.integers(0, l, size=tau)
        avals[i] = rng.integers(1, q, size=tau)
    pos, slot = np.unique((js * n + np.arange(n)[:, None]).ravel(), return_inverse=True)
    sums = np.zeros(pos.size, dtype=np.int64)
    np.add.at(sums, slot.ravel(), avals.ravel())
    return SparseMatrix.from_coo(l, n, spec.field, pos // n, pos % n, sums)


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
        return np.setdiff1d(np.arange(self.n), self.pivots)

    def _dense(self, lo: int, hi: int, nrows=None) -> np.ndarray:
        """Columns lo..hi-1 of the first nrows rows of [R | T] as a new int64 array."""
        rt = self.rt[:nrows]
        if self.field.q != 2:
            return rt[:, lo:hi].copy()
        w = lo >> 6
        bits = np.unpackbits(np.ascontiguousarray(rt[:, w:]).view(np.uint8), axis=1,
                             count=hi - 64 * w, bitorder="little")
        return bits[:, lo - 64 * w:].astype(np.int64)

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

    def column(self, j: int) -> np.ndarray:
        """Column j of R, read straight from its word over GF(2)."""
        if self.field.q != 2:
            return self.rt[:, j].copy()
        return ((self.rt[:, j >> 6] >> (j & 63)) & 1).astype(np.int64)

    def solve(self, target):
        """Any x with A x = target, free variables set to 0; None when target is not in Im A."""
        d = self.transformed(target)
        if np.any(d[self.rank:]):
            return None
        x = np.zeros(self.n, dtype=np.int64)
        x[self.pivots] = d[: self.rank]
        return x

    @cached_property
    def kernel(self) -> np.ndarray:
        """Basis of {x : A x = 0} as a (n - rank, n) array, built on first use."""
        free = self.free
        basis = np.zeros((free.size, self.n), dtype=np.int64)
        basis[np.arange(free.size), free] = 1
        basis[:, self.pivots] = (-self._dense(0, self.n, self.rank)[:, free].T) % self.field.q
        return basis

    def members(self, target, cap: int = DENSE_CAP) -> np.ndarray:
        """All of C_A(target) in lexicographic order, empty when target is not in
        Im A; refuses when the coset has more than cap members."""
        x0 = self.solve(target)
        if x0 is None:
            return np.zeros((0, self.n), dtype=np.int64)
        q, dim = self.field.q, self.n - self.rank
        if q ** dim > cap:
            raise ValueError(f"coset size {q ** dim} exceeds cap {cap}")
        members = (x0[None, :] + all_vectors(q, dim) @ self.kernel) % q
        return members[np.lexsort(members.T[::-1])]

    def random_member(self, target, rng: np.random.Generator):
        """Uniform draw x0 + z K from C_A(target); None when target is not in Im A.

        z K is the kernel member with z on the free columns; its pivot
        entries are minus R times its free part, so no basis is built."""
        x = self.solve(target)
        if x is None or self.rank == self.n:
            return x
        q = self.field.q
        zk = np.zeros(self.n, dtype=np.int64)
        zk[self.free] = rng.integers(0, q, size=self.n - self.rank)
        zk[self.pivots] = -self._product(0, zk)[: self.rank]
        return (x + zk) % q


def row_reduce(A: SparseMatrix) -> EchelonForm:
    """Gauss-Jordan elimination of [A | I] over GF(q).

    The pivot of each column is the first row at or below the current one
    with a nonzero there; it is swapped into place, scaled to 1 and
    cleared from every other row.  For q = 2 the rows are packed into
    64-bit words straight from the entries and stay packed in the result;
    the packed [A | I] may take at most 8 * DENSE_CAP bytes.
    """
    if A.field.q == 2:
        nbytes = 8 * A.rows * ((A.cols + A.rows + 63) // 64)
        if nbytes > 8 * DENSE_CAP:
            raise ValueError(f"packed elimination refused: {A.rows}x{A.cols} with its "
                             f"identity takes {nbytes} bytes, exceeds cap {8 * DENSE_CAP}")
        rt, pivots = _gauss_jordan_gf2(A.rows, A.cols, A.row_of, A.col_idx)
        # column-major: a product ANDs and XOR-reduces contiguous word columns
        rt = np.asfortranarray(rt)
    else:
        rt, pivots = _gauss_jordan_gfq(A.to_dense(), A.field)
    return EchelonForm(rt, A.cols, np.asarray(pivots, dtype=np.int64), A.field)


def _gauss_jordan_gf2(l: int, n: int, rows, cols):
    """(P, pivots) for the l x n GF(2) matrix with ones at (rows[t], cols[t]),
    where P holds the eliminated [D | I] as packed rows.

    Row i of [D | I] is held as little-endian uint64 words, bit j of the
    row in bit j % 64 of word j // 64, so clearing a column is one XOR of
    the pivot row's words into each row that has the bit.
    """
    words = (n + l + 63) // 64
    P = np.zeros((l, words), dtype="<u8")
    one = np.uint64(1)
    rows = np.concatenate([rows, np.arange(l)])
    cols = np.concatenate([cols, n + np.arange(l)]).astype(np.uint64)
    np.bitwise_or.at(P, (rows, cols >> np.uint64(6)), one << (cols & np.uint64(63)))
    pivots = []
    for col in range(n):
        r = len(pivots)
        if r == l:
            break
        w = col >> 6
        hits = np.flatnonzero((P[:, w] >> np.uint64(col & 63)) & one)
        k = int(np.searchsorted(hits, r))
        if k == hits.size:
            continue
        p = int(hits[k])
        if p != r:
            P[[r, p]] = P[[p, r]]
        # after the swap row p holds row r's old bit, which was 0 when p > r;
        # words before w are zero in the pivot row
        others = hits[hits != p]
        if others.size:
            P[others, w:] ^= P[r, w:]
        pivots.append(col)
    return P, pivots


def _gauss_jordan_gfq(D: np.ndarray, field: GF):
    """(M, pivots) with M the eliminated [D | I] for a dense matrix over GF(q);
    updates only the rows with a nonzero in the pivot column, from that
    column on."""
    q = field.q
    l, n = D.shape
    M = np.concatenate([D, np.eye(l, dtype=np.int64)], axis=1)
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
    return M, pivots


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


def vec_to_index(x, q: int) -> int:
    """Lexicographic rank of x, inverse of all_vectors row order."""
    r = 0
    for v in np.asarray(x).tolist():
        r = r * q + int(v)
    return r


def column_space_basis(M: SparseMatrix) -> np.ndarray:
    """Basis of Im M = {M x} as a (rank, l) array."""
    ech = row_reduce(M.transpose())
    return ech._dense(0, ech.n, ech.rank)


def suffix_ranks(reverse: EchelonForm) -> np.ndarray:
    """sr[k] = rank of columns k..n-1 of A (sr[n] = 0), from the echelon of
    A reversed: a column is a pivot there iff it is independent of the
    columns after it, so sr[k] counts the pivots at reversed positions < n - k."""
    n = reverse.n
    return np.searchsorted(reverse.pivots, n - np.arange(n + 1))


# -- text format ---------------------------------------------------------------


def write_gfmat(A: SparseMatrix, path) -> None:
    """Bit-exact text format: header then one `col:coeff ...` line per row."""
    lines = [f"gfmat v1 q={A.field.q} l={A.rows} n={A.cols}"]
    for i in range(A.rows):
        cols, coeffs = A.row(i)
        lines.append(" ".join(f"{c}:{a}" for c, a in zip(cols, coeffs)))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def read_gfmat(path) -> SparseMatrix:
    with open(path) as fh:
        text = fh.read()
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    if not lines:
        raise ValueError("empty gfmat file")
    head = lines[0].split()
    if len(head) != 5 or head[0] != "gfmat" or head[1] != "v1":
        raise ValueError(f"bad gfmat header: {lines[0]!r}")
    try:
        fields = dict(p.split("=") for p in head[2:])
        q, l, n = int(fields["q"]), int(fields["l"]), int(fields["n"])
    except (ValueError, KeyError):
        raise ValueError(f"bad gfmat header: {lines[0]!r}")
    if len(lines) - 1 != l:
        raise ValueError(f"expected {l} rows, found {len(lines) - 1}")
    field = GF(q)
    entries = []
    for line in lines[1:]:
        row = []
        if line.strip():
            for tok in line.split():
                c, a = tok.split(":")
                row.append((int(c), int(a)))
        entries.append(row)
    return SparseMatrix(l, n, field, entries)
