"""Hash-property diagnostics for matrix ensembles.

Collision statistics, the average spectrum over types, the (alpha, beta)
pair in both of its equivalent forms, and the checkable inequalities:
the tail condition on collision probabilities, its two-set consequence,
the collision-resistance bound and the balanced-coloring bound.

Exact ensembles carry integer weights over a common denominator, so
every probability here is a Fraction and the strict inequalities are
decided without floating point.  An ensemble is exact when it has at most
`sparsemat.DENSE_CAP` matrices to enumerate.  Monte-Carlo paths exist for
sampled ensembles where estimation is well posed (spectrum, pairwise
collision); tail checks demand exact ensembles.  Every word handed in is
checked to be a length-n word over GF(q).
"""

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .gf import GF
from .models import checked_words
from .sparsemat import (
    DENSE_CAP,
    EnsembleSpec,
    SparseMatrix,
    all_vectors,
    sample_sparse_matrix,
    vec_to_index,
)
from .stats import wilson_interval


# -- types (compositions) -------------------------------------------------------


def type_of(u, q: int) -> tuple:
    """Counts of symbols 1..q-1 in u (the count of 0 is implied)."""
    u = np.asarray(u, dtype=np.int64)
    counts = np.bincount(u, minlength=q)
    return tuple(int(c) for c in counts[1:])


def all_types(n: int, q: int) -> list:
    """Every nonzero type of length n (the zero vector's type is excluded)."""
    out = []
    for t in itertools.product(range(n + 1), repeat=q - 1):
        w = sum(t)
        if 0 < w <= n:
            out.append(t)
    return out


def type_class_size(t: tuple, n: int) -> int:
    w = sum(t)
    if w > n:
        return 0
    size = math.factorial(n) // math.factorial(n - w)
    for ti in t:
        size //= math.factorial(ti)
    return size


# -- ensembles -------------------------------------------------------------------


class AllLinearEnsemble:
    """Uniform distribution over all l x n matrices (two-universal)."""

    def __init__(self, n: int, l: int, field: GF):
        self.n, self.l, self.field = n, l, field
        count = field.q ** (l * n)
        self.exact = count <= DENSE_CAP
        self.total_weight = count

    def matrices(self):
        if not self.exact:
            raise ValueError("ensemble too large to enumerate")
        q, n, l = self.field.q, self.n, self.l
        for flat in all_vectors(q, l * n):
            yield flat.reshape(l, n), 1

    def sample(self, rng) -> SparseMatrix:
        D = rng.integers(0, self.field.q, size=(self.l, self.n))
        return SparseMatrix.from_dense(D, self.field)


class SparseTauEnsemble:
    """The tau-addition ensemble; columns are i.i.d. with an exact law."""

    def __init__(self, spec: EnsembleSpec):
        self.spec = spec
        self.n, self.l, self.field = spec.n, spec.l, spec.field
        cols, weights, denom = _column_law(spec.l, spec.field.q, spec.tau)
        self.col_vectors = cols          # (S, l) support of one column
        self.col_weights = weights       # integer weights over denom
        self.col_denom = denom
        count = len(cols) ** spec.n
        self.exact = count <= DENSE_CAP
        self.total_weight = denom ** spec.n

    def matrices(self):
        if not self.exact:
            raise ValueError("ensemble too large to enumerate")
        S = len(self.col_vectors)
        for combo in itertools.product(range(S), repeat=self.n):
            D = np.stack([self.col_vectors[i] for i in combo], axis=1)
            w = 1
            for i in combo:
                w *= self.col_weights[i]
            yield D, w

    def sample(self, rng) -> SparseMatrix:
        return sample_sparse_matrix(self.spec, rng)

    def collision_prob_algebraic(self, diff) -> Fraction:
        """p(A d = 0) for d = u - u' by convolving the per-column laws.

        Exact for any n; depends on d only through its type, which is the
        type-invariance hypothesis behind the (alpha, beta) machinery.
        """
        q, l = self.field.q, self.l
        diff = checked_words(diff, self.n, q, "word")
        dist = {(0,) * l: 1}
        for d in diff[diff != 0]:
            dist = _convolve(dist, [((d * vec) % q, w) for vec, w in
                                    zip(self.col_vectors, self.col_weights)], q)
        denom = self.col_denom ** int(np.count_nonzero(diff))
        return Fraction(dist.get((0,) * l, 0), denom)


class ExplicitEnsemble:
    """A finite list of (matrix, weight) pairs; always exact."""

    def __init__(self, items, field: GF):
        if not items:
            raise ValueError("explicit ensemble must be nonempty")
        self.field = field
        self.items = [(m.to_dense() if isinstance(m, SparseMatrix) else
                       np.asarray(m, dtype=np.int64) % field.q, int(w))
                      for m, w in items]
        self.l, self.n = self.items[0][0].shape
        self.exact = True
        self.total_weight = sum(w for _, w in self.items)

    def matrices(self):
        yield from self.items

    def sample(self, rng) -> SparseMatrix:
        weights = np.array([w for _, w in self.items], dtype=float)
        i = rng.choice(len(self.items), p=weights / weights.sum())
        return SparseMatrix.from_dense(self.items[i][0], self.field)


class ProductEnsemble:
    """Independent product: stacked maps u -> (A u, B u)."""

    def __init__(self, ens_a, ens_b):
        if ens_a.n != ens_b.n or ens_a.field != ens_b.field:
            raise ValueError("product requires a common domain")
        self.a, self.b = ens_a, ens_b
        self.n, self.field = ens_a.n, ens_a.field
        self.l = ens_a.l + ens_b.l
        self.exact = ens_a.exact and ens_b.exact
        self.total_weight = ens_a.total_weight * ens_b.total_weight

    def matrices(self):
        for Da, wa in self.a.matrices():
            for Db, wb in self.b.matrices():
                yield np.vstack([Da, Db]), wa * wb

    def sample(self, rng) -> SparseMatrix:
        return self.a.sample(rng).stack(self.b.sample(rng))


def _convolve(dist: dict, steps, q: int) -> dict:
    """Law of t + s for independent t ~ dist and s ~ steps: dist maps vectors
    of GF(q)^l (tuples) to integer weights, steps is (vector, weight) pairs,
    and the result's weights are the products' sums."""
    out = {}
    for vec, w in steps:
        for t, tw in dist.items():
            key = tuple((a + b) % q for a, b in zip(t, vec))
            out[key] = out.get(key, 0) + tw * w
    return out


def _column_law(l: int, q: int, tau: int):
    """Exact law of one column after tau uniform (row, nonzero) additions."""
    # integer weights; denominator multiplies by l*(q-1) per addition
    units = [(tuple(a if i == j else 0 for i in range(l)), 1)
             for j in range(l) for a in range(1, q)]
    dist = {(0,) * l: 1}
    for _ in range(tau):
        dist = _convolve(dist, units, q)
    denom = (l * (q - 1)) ** tau
    vectors = [np.array(k, dtype=np.int64) for k in sorted(dist)]
    weights = [dist[tuple(v)] for v in vectors]
    return vectors, weights, denom


# -- exact ensemble scans --------------------------------------------------------


class ExactScan:
    """Per-matrix hash values of every input, for exhaustive checks.

    Weights are int64 (totals of 2**62 or more are refused), so event
    probabilities come out as exact integer ratios.
    """

    def __init__(self, ens):
        if not ens.exact:
            raise ValueError("exact scan requires an exact ensemble")
        q = ens.field.q
        if q ** ens.n > DENSE_CAP:
            raise ValueError("input space exceeds the enumeration cap")
        if ens.total_weight >= 2 ** 62:
            raise ValueError("ensemble weight denominator too large for exact scan")
        self.ens = ens
        self.q = q
        self.U = all_vectors(q, ens.n)
        codes, weights = [], []
        for D, w in ens.matrices():
            vals = self.U @ D.T % q
            codes.append(vec_to_index(vals, q))
            weights.append(w)
        self.codes = np.stack(codes)            # (M, q**n)
        self.weights = np.asarray(weights, dtype=np.int64)
        self.total = int(ens.total_weight)
        self.cells = np.unique(self.codes)       # Im of the ensemble

    def im_size(self) -> int:
        """|Im| of the ensemble: size of the union of the per-matrix images."""
        return int(self.cells.size)

    def cell_codes(self) -> np.ndarray:
        """codes remapped to dense cell indices [0, im_size)."""
        return np.searchsorted(self.cells, self.codes)

    def collision_prob(self, iu: int, iv: int) -> Fraction:
        hits = self.codes[:, iu] == self.codes[:, iv]
        return Fraction(int(self.weights[hits].sum()), self.total)

    def collision_row_numerators(self, iu: int) -> np.ndarray:
        """Integer numerators of p(A u = A u') over all u' (denominator: total)."""
        eq = self.codes == self.codes[:, iu][:, None]
        return self.weights @ eq


# -- spectrum and (alpha, beta) ---------------------------------------------------


@dataclass
class SpectrumTable:
    n: int
    q: int
    l: int
    types: list                  # nonzero types, fixed order
    class_sizes: dict            # type -> |C_t|
    values: dict                 # type -> S(p_A, t): Fraction (exact) or float
    stderr: dict | None          # type -> standard error (Monte Carlo only)
    exact: bool


def avg_spectrum(ens, sample_budget: int | None = None,
                 rng: np.random.Generator | None = None) -> SpectrumTable:
    """Expected number of kernel vectors per nonzero type."""
    q, n = ens.field.q, ens.n
    if q ** n > DENSE_CAP:
        raise ValueError("kernel enumeration refused: q**n exceeds the cap")
    types = all_types(n, q)
    sizes = {t: type_class_size(t, n) for t in types}
    U = all_vectors(q, n)
    # symbol counts read as base-(n + 1) digits rise in all_types order, so a
    # word ranks 0 among the codes if it is zero, else 1 + its type's position
    code = sum(np.count_nonzero(U == a, axis=1) * (n + 1) ** (q - 1 - a) for a in range(1, q))
    pos = np.unique(code, return_inverse=True)[1]

    def per_type(images):
        """Kernel vectors of each type, given the images of U."""
        return np.bincount(pos[~np.any(images, axis=1)], minlength=len(types) + 1)[1:]

    if ens.exact:
        sums = [0] * len(types)                 # Python ints: totals may pass 2**63
        for D, w in ens.matrices():
            sums = [s + w * int(k) for s, k in zip(sums, per_type(U @ D.T % q))]
        values = {t: Fraction(s, ens.total_weight) for t, s in zip(types, sums)}
        return SpectrumTable(n, q, ens.l, types, sizes, values, None, True)
    if not sample_budget or rng is None:
        raise ValueError("sampled ensembles need a sample budget and an rng")
    counts = np.empty((len(types), sample_budget))   # a type's stats reduce one contiguous row
    for j in range(sample_budget):
        counts[:, j] = per_type(ens.sample(rng).mat_mat(U))
    values = {t: float(row.mean()) for t, row in zip(types, counts)}
    err = {t: float(row.std(ddof=1) / np.sqrt(sample_budget)) if sample_budget > 1 else 0.0
           for t, row in zip(types, counts)}
    return SpectrumTable(n, q, ens.l, types, sizes, values, err, False)


@dataclass
class AlphaBeta:
    alpha: Fraction
    beta: Fraction
    h_hat: frozenset


def default_h_hat(n: int, q: int, rho: float = 0.1) -> frozenset:
    """Types whose weight exceeds rho*n: the high-weight part of the spectrum."""
    return frozenset(t for t in all_types(n, q) if sum(t) > rho * n)


def alpha_beta(table: SpectrumTable, h_hat, im_size: int) -> AlphaBeta:
    """(alpha, beta) from the spectrum-ratio and tail-sum definitions."""
    if not table.exact:
        raise ValueError("alpha/beta need an exact spectrum")
    q, l = table.q, table.l
    h_hat = frozenset(h_hat)
    for t in h_hat:
        if t not in table.values:
            raise ValueError(f"type {t} is not a valid nonzero type here")
    ql = Fraction(q) ** l
    if h_hat:
        ratio = max(table.values[t] * ql / table.class_sizes[t] for t in h_hat)
        alpha = Fraction(im_size, q ** l) * ratio
    else:
        alpha = Fraction(0)
    beta = sum((table.values[t] for t in table.types if t not in h_hat),
               start=Fraction(0))
    return AlphaBeta(alpha, beta, h_hat)


def alpha_beta_direct(ens, h_hat, im_size: int) -> AlphaBeta:
    """The equivalent form: alpha = |Im| max p_{A,t}, beta = sum |C_t| p_{A,t}.

    p_{A,t} is measured directly on a representative of each type, which
    is an independent route from the spectrum table.
    """
    scan = ExactScan(ens)
    q, n = ens.field.q, ens.n
    h_hat = frozenset(h_hat)
    types = all_types(n, q)
    p_at = {}
    zero_idx = 0  # all_vectors puts the zero vector first
    for t in types:
        rep = _representative(t, n)
        iu = vec_to_index(rep, q)
        p_at[t] = scan.collision_prob(iu, zero_idx)
    alpha = max((Fraction(im_size) * p_at[t] for t in h_hat), default=Fraction(0))
    beta = sum((Fraction(type_class_size(t, n)) * p_at[t]
                for t in types if t not in h_hat), start=Fraction(0))
    return AlphaBeta(alpha, beta, h_hat)


def _representative(t: tuple, n: int) -> np.ndarray:
    u = []
    for sym, count in enumerate(t, start=1):
        u.extend([sym] * count)
    u.extend([0] * (n - len(u)))
    return np.asarray(u, dtype=np.int64)


# -- pairwise collision API --------------------------------------------------------


def _word_indices(ens, words, batch: bool = False):
    """all_vectors index of one word, or with batch the 1-D array of indices of
    one word or a list of them; each is checked to be length n over GF(q)."""
    q = ens.field.q
    words = checked_words(words, ens.n, q, "word", batch=batch)
    return vec_to_index(np.reshape(words, (-1, ens.n)) if batch else words, q)


def collision_prob(ens, u, v, rng=None, samples: int = 0):
    """p({A : A u = A u'}).

    Exact ensembles return a Fraction (exhaustive).  The sparse ensemble
    also answers exactly through its column law at any size.  Otherwise a
    Monte-Carlo estimate with a Wilson interval: (estimate, (lo, hi)).
    """
    u, v = (checked_words(w, ens.n, ens.field.q, "word") for w in (u, v))
    if np.array_equal(u, v):
        raise ValueError("collision probability needs two distinct inputs")
    if ens.exact:
        return ExactScan(ens).collision_prob(*_word_indices(ens, [u, v], batch=True))
    if isinstance(ens, SparseTauEnsemble):
        return ens.collision_prob_algebraic((u - v) % ens.field.q)
    if not samples or rng is None:
        raise ValueError("sampled ensembles need samples and an rng")
    hits = 0
    for _ in range(samples):
        A = ens.sample(rng)
        if np.array_equal(A.mat_vec(u), A.mat_vec(v)):
            hits += 1
    return hits / samples, wilson_interval(hits, samples)


# -- the four checks ---------------------------------------------------------------


def check_h3(ens, u, alpha, beta, scan: ExactScan | None = None,
             im_size: int | None = None):
    """Tail condition: collision probabilities above alpha/|Im| sum to <= beta.

    |Im| defaults to the union of the per-matrix images (degenerate
    ensembles can make this much smaller than q**l); pass im_size to pin
    it to whatever the (alpha, beta) pair was computed against.
    """
    if not ens.exact:
        raise ValueError("the tail condition is only checkable on exact ensembles")
    scan = scan or ExactScan(ens)
    im = im_size if im_size is not None else scan.im_size()
    iu = _word_indices(ens, u)
    nums = scan.collision_row_numerators(iu)
    # strict comparison num/total > alpha/im done in integers
    a = Fraction(alpha)
    above = (np.asarray(nums, dtype=object) * (im * a.denominator)
             > a.numerator * scan.total)
    above[iu] = False
    total = Fraction(int(nums[above].sum()), scan.total)
    return total <= Fraction(beta), total


def check_h3prime(ens, T, Tp, alpha, beta, scan: ExactScan | None = None):
    """Two-set consequence of the tail condition."""
    scan = scan or ExactScan(ens)
    im = scan.im_size()
    Ti = _word_indices(ens, T, batch=True).tolist()
    Tpi = _word_indices(ens, Tp, batch=True)
    num = 0
    for iu in Ti:
        num += int(scan.collision_row_numerators(iu)[Tpi].sum())
    lhs = Fraction(num, scan.total)
    inter = len(set(Ti) & set(Tpi.tolist()))
    rhs = (Fraction(inter)
           + Fraction(len(Ti) * len(Tpi)) * Fraction(alpha) / im
           + Fraction(min(len(Ti), len(Tpi))) * Fraction(beta))
    return lhs <= rhs, lhs, rhs


def check_crp(ens, G, u, alpha, beta, scan: ExactScan | None = None):
    """Collision-resistance bound: p(G\\{u} meets C_A(Au)) <= |G| alpha/|Im| + beta."""
    scan = scan or ExactScan(ens)
    im = scan.im_size()
    iu = _word_indices(ens, u)
    Gi = _word_indices(ens, G, batch=True)
    others = Gi[Gi != iu]
    if others.size:
        eq = scan.codes[:, others] == scan.codes[:, iu][:, None]
        hit = eq.any(axis=1)
        num = int(scan.weights[hit].sum())
    else:
        num = 0
    prob = Fraction(num, scan.total)
    bound = Fraction(len(Gi)) * Fraction(alpha) / im + Fraction(beta)
    return prob <= bound, prob, bound


def check_bcp(ens, Q, T, alpha, beta, scan: ExactScan | None = None):
    """Balanced-coloring bound.

    lhs = E_A sum_c |Q(T cap C_A(c))/Q(T) - 1/|Im||, compared against
    sqrt(alpha - 1 + (beta+1) |Im| max_u Q(u) / Q(T)); the comparison is
    done as lhs**2 <= inner, exactly in rationals.
    """
    scan = scan or ExactScan(ens)
    im = scan.im_size()
    Ti = _word_indices(ens, T, batch=True)
    if Ti.size == 0:
        raise ValueError("T must be nonempty")
    Qfrac = [Fraction(v) if isinstance(v, (int, np.integer, Fraction))
             else Fraction(float(v)) for v in Q]
    qt = sum((Qfrac[i] for i in Ti), start=Fraction(0))
    if qt == 0:
        raise ValueError("Q(T) must be positive")
    # common-denominator integer pass: Q_i = qnum_i / qden
    qden = math.lcm(*[f.denominator for f in Qfrac]) if Qfrac else 1
    qt_num = int(qt * qden)
    # int64 unless the scaled magnitudes could overflow (e.g. float-valued Q)
    huge = scan.total * qt_num * im * im >= 2 ** 62
    dtype = object if huge else np.int64
    qnum = np.array([int(f * qden) for f in Qfrac], dtype=dtype)
    cell = scan.cell_codes()                    # (M, q**n) dense cell ids
    M = cell.shape[0]
    mass = np.zeros((M, im), dtype=dtype)
    flat = cell[:, Ti] + np.arange(M)[:, None] * im
    np.add.at(mass.reshape(-1), flat.reshape(-1),
              np.broadcast_to(qnum[Ti], flat.shape).reshape(-1))
    # sum_c |mass_c * im - Q(T)| with everything scaled by qden
    dev = np.abs(mass * im - qt_num).sum(axis=1)
    total_num = int((scan.weights.astype(dtype) * dev).sum())
    lhs = Fraction(total_num, scan.total * qt_num * im)
    qmax = max(Qfrac[i] for i in Ti)
    inner = Fraction(alpha) - 1 + (Fraction(beta) + 1) * im * qmax / qt
    ok = lhs * lhs <= inner
    return ok, lhs, inner


def compose_alpha_beta(ab_a: AlphaBeta, ab_b: AlphaBeta) -> AlphaBeta:
    """(alpha, beta) of an independent product of two ensembles."""
    return AlphaBeta(Fraction(ab_a.alpha) * Fraction(ab_b.alpha),
                     Fraction(ab_a.beta) + Fraction(ab_b.beta),
                     ab_a.h_hat | ab_b.h_hat)
