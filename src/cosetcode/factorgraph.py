"""Generic sum-product over factor graphs with table and affine-check factors.

The reference engine: clear per-factor updates, exact zero propagation
(no epsilon flooring), flooding schedule with optional damping, plus a
brute-force marginalization oracle.  Scaled runs go through fastbp.
"""

from dataclasses import dataclass

import numpy as np

from .gf import GF
from .sparsemat import DENSE_CAP, SparseMatrix, all_vectors


class InconsistencyError(RuntimeError):
    """Contradictory constraints: some message or total weight is all zero."""


class TableFactor:
    def __init__(self, scope, table):
        self.scope = tuple(int(i) for i in scope)
        self.table = np.asarray(table, dtype=float)
        if self.table.ndim != len(self.scope):
            raise ValueError("table rank must equal scope size")
        if np.any(self.table < 0):
            raise ValueError("factor tables must be nonnegative")

    def evaluate(self, assignments: np.ndarray) -> np.ndarray:
        cols = tuple(assignments[:, v] for v in self.scope)
        return self.table[cols]


class AffineCheck:
    """chi(sum_j coeff_j x_{scope_j} = target) over GF(q)."""

    def __init__(self, scope, coeffs, target, q):
        self.scope = tuple(int(i) for i in scope)
        self.coeffs = np.asarray(coeffs, dtype=np.int64) % q
        self.target = int(target) % q
        self.q = q
        if self.coeffs.shape != (len(self.scope),):
            raise ValueError("coefficient list must align with the scope")
        if np.any(self.coeffs == 0) and len(self.scope):
            raise ValueError("affine checks store nonzero coefficients only")

    def evaluate(self, assignments: np.ndarray) -> np.ndarray:
        if not self.scope:
            val = 1.0 if self.target == 0 else 0.0
            return np.full(assignments.shape[0], val)
        s = assignments[:, list(self.scope)] @ self.coeffs % self.q
        return (s == self.target).astype(float)


class FactorGraph:
    def __init__(self, n: int, q: int, factors):
        self.n = int(n)
        self.q = int(q)
        self.factors = list(factors)
        for f in self.factors:
            for v in f.scope:
                if not (0 <= v < self.n):
                    raise ValueError(f"scope variable {v} out of range")
            if sorted(set(f.scope)) != sorted(f.scope):
                raise ValueError("factor scopes must not repeat variables")
        self.var_factors = [[] for _ in range(self.n)]
        for j, f in enumerate(self.factors):
            for v in f.scope:
                self.var_factors[v].append(j)


def build_coset_graph(A: SparseMatrix, c, priors) -> FactorGraph:
    """Per-index prior factors plus one affine check per matrix row."""
    q = A.field.q
    priors = np.asarray(priors, dtype=float)
    if priors.shape != (A.cols, q):
        raise ValueError("priors must be an (n, q) table")
    c = np.asarray(c, dtype=np.int64) % q
    if c.shape != (A.rows,):
        raise ValueError("target length must equal the row count")
    factors = [TableFactor((i,), priors[i]) for i in range(A.cols)]
    for i in range(A.rows):
        cols, coeffs = A.row(i)
        factors.append(AffineCheck(tuple(cols), coeffs, c[i], q))
    return FactorGraph(A.cols, q, factors)


@dataclass
class SumProductResult:
    marginals: np.ndarray
    converged: bool
    iterations: int


def _circ_conv(f: np.ndarray, g: np.ndarray, q: int) -> np.ndarray:
    out = np.zeros(q)
    for v in range(q):
        if f[v]:
            out += f[v] * np.roll(g, v)
    return out


def _normalize(msg: np.ndarray, what: str) -> np.ndarray:
    s = msg.sum()
    if s <= 0:
        raise InconsistencyError(f"all-zero {what} message")
    return msg / s


def sum_product(graph: FactorGraph, max_iters: int = 100, damping: float = 0.0,
                tol: float = 1e-8) -> SumProductResult:
    """Flooding-schedule message passing; exact on cycle-free graphs."""
    if max_iters < 1:
        raise ValueError("max_iters must be >= 1")
    if not (0 <= damping < 1):
        raise ValueError("damping must lie in [0, 1)")
    q = graph.q
    uniform = np.full(q, 1.0 / q)
    inv_tables = {}

    for f in graph.factors:
        if isinstance(f, AffineCheck) and not f.scope and f.target != 0:
            raise InconsistencyError("empty-scope check with nonzero target")

    # sigma[(j, i)]: factor -> variable, pi[(j, i)]: variable -> factor
    sigma, fixed_sigma = {}, {}
    for j, f in enumerate(graph.factors):
        if isinstance(f, TableFactor) and len(f.scope) == 1:
            fixed_sigma[(j, f.scope[0])] = _normalize(f.table.copy(), "prior")
        else:
            for v in f.scope:
                sigma[(j, v)] = uniform.copy()
    pi = {key: uniform.copy() for key in sigma}

    def sigma_of(j, v):
        return fixed_sigma.get((j, v)) if (j, v) in fixed_sigma else sigma[(j, v)]

    def compute_pi(j, v):
        msg = np.ones(q)
        for j2 in graph.var_factors[v]:
            if j2 != j:
                msg = msg * sigma_of(j2, v)
        return _normalize(msg, "variable")

    def compute_sigma(j, f, v):
        pos = f.scope.index(v)
        if isinstance(f, TableFactor):
            t = f.table
            for p2, v2 in enumerate(f.scope):
                if p2 == pos:
                    continue
                shape = [1] * t.ndim
                shape[p2] = q
                t = t * pi[(j, v2)].reshape(shape)
            axes = tuple(p for p in range(t.ndim) if p != pos)
            return _normalize(t.sum(axis=axes), "factor")
        # affine check: distribution of the partial sums via circular convolution
        if f.q not in inv_tables:
            inv_tables[f.q] = GF(f.q).inv_table
        inv = inv_tables[f.q]
        w = len(f.scope)
        scaled = []
        for p2, v2 in enumerate(f.scope):
            a = int(f.coeffs[p2])
            src = pi[(j, v2)]
            g = np.empty(q)
            vals = (a * np.arange(q)) % q
            g[vals] = src
            scaled.append(g)
        delta = np.zeros(q)
        delta[0] = 1.0
        prefix = [delta]
        for p2 in range(w):
            prefix.append(_circ_conv(prefix[-1], scaled[p2], q))
        suffix = [delta] * (w + 1)
        for p2 in range(w - 1, -1, -1):
            suffix[p2] = _circ_conv(scaled[p2], suffix[p2 + 1], q)
        h = _circ_conv(prefix[pos], suffix[pos + 1], q)
        a = int(f.coeffs[pos])
        out = np.empty(q)
        for x in range(q):
            out[x] = h[(f.target - a * x) % q]
        return _normalize(out, "factor")

    converged = False
    iters = 0
    for iters in range(1, max_iters + 1):
        delta_max = 0.0
        for (j, v) in pi:
            new = compute_pi(j, v)
            delta_max = max(delta_max, float(np.abs(new - pi[(j, v)]).max()))
            pi[(j, v)] = new
        for (j, v) in sigma:
            f = graph.factors[j]
            new = compute_sigma(j, f, v)
            if damping:
                new = (1 - damping) * new + damping * sigma[(j, v)]
            delta_max = max(delta_max, float(np.abs(new - sigma[(j, v)]).max()))
            sigma[(j, v)] = new
        if delta_max < tol:
            converged = True
            break

    marginals = np.empty((graph.n, q))
    for v in range(graph.n):
        g = np.ones(q)
        for j in graph.var_factors[v]:
            g = g * sigma_of(j, v)
        if not graph.var_factors[v]:
            g = uniform.copy()
        marginals[v] = _normalize(g, "marginal")
    return SumProductResult(marginals, converged, iters)


def exact_marginals(graph: FactorGraph) -> np.ndarray:
    """Marginals by exhaustive weighted enumeration (the oracle)."""
    total = graph.q ** graph.n
    if total > DENSE_CAP:
        raise ValueError(f"exact marginalization refused: q**n = {total} "
                         f"exceeds cap {DENSE_CAP}")
    X = all_vectors(graph.q, graph.n)
    w = np.ones(total)
    for f in graph.factors:
        w = w * f.evaluate(X)
    z = w.sum()
    if z <= 0:
        raise InconsistencyError("total weight is zero: contradictory factors")
    marg = np.empty((graph.n, graph.q))
    for v in range(graph.n):
        marg[v] = np.bincount(X[:, v], weights=w, minlength=graph.q)
    return marg / z
