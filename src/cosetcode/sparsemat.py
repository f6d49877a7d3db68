"""Sparse matrices over GF(q) and the linear algebra behind coset codes.

Matrices are immutable after construction and stored CSR-style with
canonical rows (ascending columns, no zero coefficients), so equality is
structural.  Echelon work happens on a dense mirror, which is only
produced for l*n <= 2**20; everything here is desk scale by design.

`row_reduce` eliminates a matrix once and returns an `EchelonForm`, the
one object that solves A x = t, holds the kernel and enumerates or
samples the coset {x : A x = t}; callers keep the echelon of a matrix
they reuse instead of eliminating it again.
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
        if rows < 0 or cols < 0:
            raise ValueError("negative matrix dimensions")
        self.rows = int(rows)
        self.cols = int(cols)
        self.field = field
        entries = list(entries)
        if len(entries) != rows:
            raise ValueError(f"expected {rows} rows of entries, got {len(entries)}")
        indptr = np.zeros(rows + 1, dtype=np.int64)
        all_cols, all_coeffs = [], []
        for i, row in enumerate(entries):
            row = sorted((int(c), int(a) % field.q) for c, a in row)
            last = -1
            for c, a in row:
                if not (0 <= c < cols):
                    raise ValueError(f"column index {c} out of range in row {i}")
                if c == last:
                    raise ValueError(f"duplicate column {c} in row {i}")
                last = c
                if a == 0:
                    continue
                all_cols.append(c)
                all_coeffs.append(a)
            indptr[i + 1] = len(all_cols)
        self.indptr = indptr
        self.col_idx = np.asarray(all_cols, dtype=np.int64)
        self.coeffs = np.asarray(all_coeffs, dtype=np.int64)
        self.row_of = np.repeat(np.arange(rows), np.diff(indptr))
        self._dense = None

    # -- construction helpers ----------------------------------------------

    @classmethod
    def from_dense(cls, arr, field: GF) -> "SparseMatrix":
        arr = np.asarray(arr, dtype=np.int64) % field.q
        if arr.ndim != 2:
            raise ValueError("dense input must be 2-d")
        entries = [
            [(int(c), int(arr[i, c])) for c in np.nonzero(arr[i])[0]]
            for i in range(arr.shape[0])
        ]
        return cls(arr.shape[0], arr.shape[1], field, entries)

    def row(self, i: int):
        s, e = self.indptr[i], self.indptr[i + 1]
        return self.col_idx[s:e], self.coeffs[s:e]

    @property
    def nnz(self) -> int:
        return int(self.indptr[-1])

    def to_dense(self) -> np.ndarray:
        if self._dense is None:
            if self.rows * self.cols > DENSE_CAP:
                raise ValueError(
                    f"dense mirror refused: {self.rows}x{self.cols} exceeds cap {DENSE_CAP}"
                )
            d = np.zeros((self.rows, self.cols), dtype=np.int64)
            for i in range(self.rows):
                cols, coeffs = self.row(i)
                d[i, cols] = coeffs
            self._dense = d
        return self._dense

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
        entries = [list(zip(*self.row(i))) for i in range(self.rows)]
        entries += [list(zip(*other.row(i))) for i in range(other.rows)]
        return SparseMatrix(self.rows + other.rows, self.cols, self.field, entries)

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
    acc = np.zeros((l, n), dtype=np.int64)
    for i in range(n):
        js = rng.integers(0, l, size=tau)
        avals = rng.integers(1, q, size=tau)
        np.add.at(acc[:, i], js, avals)
    return SparseMatrix.from_dense(acc % q, spec.field)


# -- echelon forms and solving ------------------------------------------------


@dataclass
class EchelonForm:
    """Reduced row echelon form R of A plus the transform T with T A = R.

    The one place that turns an elimination into answers about cosets
    C_A(t) = {x : A x = t}: a particular solution, the kernel, every
    member, or a uniformly random member.
    """

    reduced: np.ndarray
    transform: np.ndarray
    pivots: np.ndarray
    rank: int
    field: GF

    @property
    def n(self) -> int:
        return self.reduced.shape[1]

    def solve(self, target):
        """Any x with A x = target, free variables set to 0; None when target is not in Im A."""
        q = self.field.q
        t = np.asarray(target, dtype=np.int64) % q
        if t.shape != (self.transform.shape[0],):
            raise ValueError("target length does not match row count")
        d = self.transform @ t % q
        if np.any(d[self.rank:]):
            return None
        x = np.zeros(self.n, dtype=np.int64)
        x[self.pivots] = d[: self.rank]
        return x

    @cached_property
    def kernel(self) -> np.ndarray:
        """Basis of {x : A x = 0} as a (n - rank, n) array, built on first use."""
        free = np.setdiff1d(np.arange(self.n), self.pivots)
        basis = np.zeros((free.size, self.n), dtype=np.int64)
        basis[np.arange(free.size), free] = 1
        basis[:, self.pivots] = (-self.reduced[: self.rank, free].T) % self.field.q
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
        """Uniform draw x0 + z K from C_A(target); None when target is not in Im A."""
        x = self.solve(target)
        if x is None or self.rank == self.n:
            return x
        z = rng.integers(0, self.field.q, size=self.n - self.rank)
        return (x + z @ self.kernel) % self.field.q


def _as_dense(A, field=None):
    if isinstance(A, SparseMatrix):
        return A.to_dense(), A.field
    arr = np.asarray(A, dtype=np.int64)
    if field is None:
        raise ValueError("field required for raw arrays")
    return arr % field.q, field


def row_reduce(A, field: GF | None = None) -> EchelonForm:
    """Gauss-Jordan elimination over GF(q) on a dense mirror."""
    D, field = _as_dense(A, field)
    q = field.q
    R = D.copy()
    l, n = R.shape
    T = np.eye(l, dtype=np.int64)
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
        if q == 2:
            mask = R[:, col] == 1
            mask[r] = False
            R[mask] ^= R[r]
            T[mask] ^= T[r]
        else:
            piv_inv = int(field.inv_table[R[r, col]])
            R[r] = R[r] * piv_inv % q
            T[r] = T[r] * piv_inv % q
            f = R[:, col].copy()
            f[r] = 0
            R = (R - f[:, None] * R[r][None, :]) % q
            T = (T - f[:, None] * T[r][None, :]) % q
        pivots.append(col)
        r += 1
    return EchelonForm(R, T, np.asarray(pivots, dtype=np.int64), r, field)


def left_inverse_of_generator(G, field: GF | None = None) -> np.ndarray:
    """B with B(G m) = m for all m; requires G of full column rank."""
    D, field = _as_dense(G, field)
    n, k = D.shape
    ech = row_reduce(D, field)
    if ech.rank != k:
        raise ValueError("generator is rank deficient; no left inverse exists")
    # T G = [I_k; 0], so the first k rows of T invert G from the left
    return ech.transform[:k].copy()


class ComplementBijection:
    """Invertible pairing between x and (A x, B x) when the stacked map is injective."""

    def __init__(self, A: SparseMatrix, B: SparseMatrix):
        if A.cols != B.cols or A.field != B.field:
            raise ValueError("A and B must share the domain")
        self.A, self.B = A, B
        self.field = A.field
        stacked = A.stack(B)
        ech = row_reduce(stacked)
        if ech.rank != A.cols:
            raise ValueError("stacked map (A, B) is not injective")
        self._ech = ech

    def __call__(self, c, m) -> np.ndarray:
        q = self.field.q
        t = np.concatenate([np.asarray(c, dtype=np.int64) % q,
                            np.asarray(m, dtype=np.int64) % q])
        if t.shape != (self.A.rows + self.B.rows,):
            raise ValueError("target lengths do not match (l, k)")
        x = self._ech.solve(t)
        if x is None:
            raise ValueError("(c, m) is outside the image of the stacked map")
        return x

    def split(self, x):
        return self.A.mat_vec(x), self.B.mat_vec(x)


def unique_completion(A, c, prefix, field: GF | None = None):
    """Decide how many suffixes complete prefix to a member of C_A(c).

    Returns ("unique", suffix), ("multiple", None) or ("none", None).
    """
    D, field = _as_dense(A, field)
    q = field.q
    c = np.asarray(c, dtype=np.int64) % q
    prefix = np.asarray(prefix, dtype=np.int64) % q
    k = prefix.shape[0]
    n = D.shape[1]
    if k > n:
        raise ValueError("prefix longer than n")
    resid = (c - D[:, :k] @ prefix) % q
    ech = row_reduce(D[:, k:], field)
    x = ech.solve(resid)
    if x is None:
        return ("none", None)
    if ech.rank < n - k:
        return ("multiple", None)
    return ("unique", x)


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
    ech = row_reduce(M.to_dense().T, M.field)
    return ech.reduced[: ech.rank].copy()


def suffix_ranks(A: SparseMatrix) -> np.ndarray:
    """sr[k] = rank of columns k..n-1; sr[n] = 0.

    Used to locate the first position where a generated prefix pins the
    rest of the coset member uniquely (rank of the suffix block equals its
    width).
    """
    D = A.to_dense()
    q = A.field.q
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
            if q != 2:
                v = v * int(A.field.inv_table[v[p]]) % q
            # keep the basis reduced so lookups stay O(rank)
            if basis.shape[0]:
                f = basis[:, p].copy()
                basis = (basis - f[:, None] * v[None, :]) % q
            basis = np.vstack([basis, v])
            piv.append(p)
        sr[k] = basis.shape[0]
    return sr


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
