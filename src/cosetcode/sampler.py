"""Constrained sampling: x ~ product prior restricted to the coset C_A(c).

Sequential sampling of x_1..x_n where each step draws from the exact (or
sum-product-approximated) conditional of the coset-restricted law given
the prefix.  Residual constraint state is kept as an adjusted target per
check row, so nothing is rebuilt between steps.  An interval-algorithm
variant consumes a lazily expanded binary omega instead of a PRNG, which
makes the whole encoder a deterministic function of omega.

Engines
  exact        suffix-mass tables over the residual syndrome group;
               feasible while q**l fits the state cap.  Conditionals are
               exact, so generation never dead-ends after a positive
               start (asserted).
  sum-product  belief-propagation conditionals on the residual graph;
               the scaled path.  Approximate on loopy graphs; zero-mass
               steps trigger a bounded number of restarts.

With uniform priors and a linear map the restricted law is uniform on
the coset, so `generate` short-circuits to a particular solution plus a
random kernel combination; that is the same law with none of the
sequential work.
"""

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .fastbp import CosetBP, CosetGraph
from .sparsemat import SparseMatrix, row_reduce, suffix_ranks, unique_completion
from .stats import entropy_bits
from .streams import sample_pmf


class EncodingError(RuntimeError):
    """The conditioning event has zero probability: empty or massless coset."""


class DeadEndError(RuntimeError):
    """Zero continuation mass mid-sequence (sum-product engine, post-start)."""


@dataclass
class SamplerConfig:
    method: str = "exact"            # "exact" | "sum-product"
    exact_cap_states: int = 2 ** 20  # syndrome-table budget q**l
    sp_init_iters: int = 50
    sp_step_iters: int = 2
    sp_damping: float = 0.0
    sp_tol: float = 1e-8
    early_stop: bool = True          # Step-5 unique-completion shortcut
    retries: int = 16
    uniform_shortcut: bool = True

    def __post_init__(self):
        if self.method not in ("exact", "sum-product"):
            raise ValueError(f"unknown method {self.method!r}")
        if self.exact_cap_states <= 0:
            raise ValueError("exact_cap_states must be positive")


@dataclass
class GeneratedSample:
    x: np.ndarray
    termination: str                 # "full" | "early"
    steps: int
    step_log2_probs: list = field(default_factory=list)
    step_entropies: list = field(default_factory=list)
    converged: bool | None = None    # BP flag; None for exact engine


class ExactStepper:
    """Backward suffix-mass tables M_k(t) = mass of suffixes hitting syndrome t.

    M_k lives on the full syndrome group U^l as an l-dimensional array;
    the step conditional is mu_k(x) * M_{k+1}[target - x * col_k],
    normalized, which is the defining suffix sum evaluated exactly.  The
    tables do not depend on the target, so one stepper serves every c.
    """

    def __init__(self, A: SparseMatrix, priors, cap_states: int = 2 ** 20):
        q = A.field.q
        self.q, self.n, self.l = q, A.cols, A.rows
        if q ** self.l > cap_states:
            raise ValueError(
                f"exact engine refused: q**l = {q ** self.l} exceeds state cap {cap_states}")
        self.priors = np.asarray(priors, dtype=float)
        dense_cols = [A.to_dense()[:, k] for k in range(self.n)] if self.l else None
        shape = (q,) * self.l
        tables = [None] * (self.n + 1)
        last = np.zeros(shape) if self.l else np.array(1.0)
        if self.l:
            last[(0,) * self.l] = 1.0
        tables[self.n] = last
        for k in range(self.n - 1, -1, -1):
            nxt = tables[k + 1]
            acc = np.zeros_like(nxt)
            for xv in range(q):
                p = self.priors[k, xv]
                if p == 0:
                    continue
                shifted = nxt
                if self.l and xv:
                    # one roll over every axis of col_k; xv = 0 shifts nothing
                    col = dense_cols[k]
                    axes = np.nonzero(col)[0]
                    if axes.size:
                        shifted = np.roll(nxt, tuple(xv * col[axes] % q), axis=tuple(axes))
                acc = acc + p * shifted
            tables[k] = acc
        self.tables = tables
        self.cols = dense_cols

    def mass_of(self, c) -> float:
        if self.l == 0:
            return 1.0
        c = np.asarray(c, dtype=np.int64) % self.q
        return float(self.tables[0][tuple(c)])

    def step_pmf(self, k: int, residual) -> np.ndarray:
        """Unnormalized then normalized conditional of x_k given the residual target."""
        q = self.q
        out = np.empty(q)
        nxt = self.tables[k + 1]
        for xv in range(q):
            p = self.priors[k, xv]
            if p == 0:
                out[xv] = 0.0
                continue
            if self.l:
                t = (residual - xv * self.cols[k]) % q
                out[xv] = p * nxt[tuple(t)]
            else:
                out[xv] = p * float(nxt)
        s = out.sum()
        if s <= 0:
            return out
        return out / s


def _is_uniform(priors: np.ndarray) -> bool:
    return bool(np.all(priors == priors[0, 0]))


def step_conditional(A: SparseMatrix, c, priors, prefix, cfg: SamplerConfig):
    """Exact or BP conditional pmf of x_{k} given prefix x_1^{k-1}."""
    priors = np.asarray(priors, dtype=float)
    prefix = np.asarray(prefix, dtype=np.int64)
    k = prefix.shape[0]
    if k >= A.cols:
        raise ValueError("prefix already covers the whole sequence")
    if cfg.method == "exact":
        stepper = ExactStepper(A, priors, cfg.exact_cap_states)
        residual = np.asarray(c, dtype=np.int64) % stepper.q
        for j in range(k):
            if stepper.l:
                residual = (residual - prefix[j] * stepper.cols[j]) % stepper.q
        pmf = stepper.step_pmf(k, residual)
    else:
        bp = CosetBP(A, c, priors, damping=cfg.sp_damping)
        for j in range(k):
            if not bp.condition(j, int(prefix[j])):
                pmf = np.zeros(A.field.q)
                break
        else:
            bp.run(cfg.sp_init_iters, cfg.sp_tol)
            m = bp.marginal(k)
            pmf = m if m is not None else np.zeros(A.field.q)
    if pmf.sum() <= 0:
        if k == 0:
            raise EncodingError("coset has zero prior mass")
        raise DeadEndError(f"zero continuation mass at step {k + 1}")
    return pmf


def _early_stop_index(A: SparseMatrix, enabled: bool) -> int:
    """First prefix length at which the suffix is pinned for every prefix."""
    if not enabled:
        return A.cols
    sr = suffix_ranks(A)
    n = A.cols
    for k in range(1, n + 1):
        if sr[k] == n - k:
            return k
    return n


def _complete_suffix(A: SparseMatrix, c, x, k):
    """Solve for the unique suffix of a length-k prefix; None if inconsistent."""
    status, suffix = unique_completion(A, c, x[:k])
    if status != "unique":
        return None
    x[k:] = suffix
    return x


class _UniformEngine:
    """Uniform priors + linear map: the restricted law is uniform on the coset."""

    def __init__(self, A, c):
        self.A = A
        self.n = A.cols
        self.c = c
        self.ech = row_reduce(A)
        if self.ech.solve(c) is None:
            raise EncodingError("coset is empty: c is outside Im A")

    def draw(self, rng) -> GeneratedSample:
        x = self.ech.random_member(self.c, rng)
        return GeneratedSample(x, "full", self.n, [], [], None)


class _ExactEngine:
    def __init__(self, A, c, priors, cfg, stepper: ExactStepper | None = None,
                 kstar: int | None = None):
        self.A, self.cfg = A, cfg
        self.q, self.n = A.field.q, A.cols
        self.c = np.asarray(c, dtype=np.int64) % self.q
        self.stepper = stepper or ExactStepper(A, priors, cfg.exact_cap_states)
        if self.stepper.mass_of(self.c) <= 0:
            raise EncodingError("coset has zero prior mass")
        self.kstar = kstar if kstar is not None else _early_stop_index(A, cfg.early_stop)

    def draw(self, rng) -> GeneratedSample:
        st, q, n = self.stepper, self.q, self.n
        residual = self.c.copy()
        x = np.zeros(n, dtype=np.int64)
        logs, ents = [], []
        for k in range(n):
            pmf = st.step_pmf(k, residual)
            assert pmf.sum() > 0, "exact engine cannot dead-end after a positive start"
            xv = sample_pmf(rng, pmf)
            x[k] = xv
            logs.append(math.log2(pmf[xv]))
            ents.append(entropy_bits(pmf))
            if st.l:
                residual = (residual - xv * st.cols[k]) % q
            if k + 1 >= self.kstar and k + 1 < n:
                done = _complete_suffix(self.A, self.c, x, k + 1)
                assert done is not None, "unique completion must exist for the exact engine"
                return GeneratedSample(x, "early", k + 1, logs, ents, None)
        return GeneratedSample(x, "full", n, logs, ents, None)


class _SumProductEngine:
    def __init__(self, A, c, priors, cfg, graph: CosetGraph | None = None,
                 kstar: int | None = None):
        self.A, self.cfg = A, cfg
        self.q, self.n = A.field.q, A.cols
        self.c = np.asarray(c, dtype=np.int64) % self.q
        base = CosetBP(graph if graph is not None else A, c, priors, damping=cfg.sp_damping)
        if base.failed:
            raise EncodingError("coset is empty: a constraint is unsatisfiable")
        self.converged = base.run(cfg.sp_init_iters, cfg.sp_tol)
        if base.failed:
            raise EncodingError("coset has zero prior mass")
        self.base = base
        self.kstar = kstar if kstar is not None else _early_stop_index(A, cfg.early_stop)

    def draw(self, rng) -> GeneratedSample:
        cfg, n = self.cfg, self.n
        first_pmf_seen = False
        for _ in range(cfg.retries):
            bp = self.base.clone()
            x = np.zeros(n, dtype=np.int64)
            logs, ents = [], []
            ok = True
            for k in range(n):
                pmf = bp.marginal(k)
                if pmf is None or pmf.sum() <= 0:
                    if k == 0 and not first_pmf_seen:
                        raise EncodingError("coset has zero prior mass")
                    ok = False
                    break
                first_pmf_seen = True
                xv = sample_pmf(rng, pmf)
                x[k] = xv
                logs.append(math.log2(pmf[xv]) if pmf[xv] > 0 else float("-inf"))
                ents.append(entropy_bits(pmf))
                if not bp.condition(k, xv):
                    ok = False
                    break
                if k + 1 >= self.kstar and k + 1 < n:
                    done = _complete_suffix(self.A, self.c, x, k + 1)
                    if done is None:
                        ok = False
                    break
                if k + 1 < n:
                    bp.run(cfg.sp_step_iters, cfg.sp_tol)
            if ok and np.array_equal(self.A.mat_vec(x), self.c):
                term = "early" if cfg.early_stop and len(logs) < n else "full"
                return GeneratedSample(x, term, len(logs), logs, ents, self.converged)
        raise DeadEndError(f"sum-product engine failed after {cfg.retries} restarts")


def make_engine(A: SparseMatrix, c, priors, cfg: SamplerConfig):
    """Prebuild a sampling engine; reuse it when (A, c, priors) repeat."""
    priors = np.asarray(priors, dtype=float)
    if cfg.uniform_shortcut and _is_uniform(priors):
        return _UniformEngine(A, c)
    if cfg.method == "exact":
        return _ExactEngine(A, c, priors, cfg)
    return _SumProductEngine(A, c, priors, cfg)


def generate(A: SparseMatrix, c, priors, cfg: SamplerConfig,
             rng: np.random.Generator, engine=None) -> GeneratedSample:
    """Steps 1-6: sequential conditional sampling with optional early stop."""
    if engine is None:
        engine = make_engine(A, c, priors, cfg)
    return engine.draw(rng)


# -- interval-algorithm variant -------------------------------------------------


class BitStream:
    """Lazy binary expansion of omega in [0, 1)."""

    def __init__(self, next_bit):
        self._next = next_bit
        self.consumed = 0

    def bit(self) -> int:
        b = self._next()
        if b is None:
            raise ValueError(
                f"omega exhausted after {self.consumed} bits; deeper expansion required")
        self.consumed += 1
        return int(b)

    @classmethod
    def from_rng(cls, rng: np.random.Generator) -> "BitStream":
        return cls(lambda: int(rng.integers(0, 2)))

    @classmethod
    def from_bits(cls, bits) -> "BitStream":
        it = iter(bits)
        return cls(lambda: next(it, None))

    @classmethod
    def from_hex(cls, hexstr: str) -> "BitStream":
        bits = []
        for ch in hexstr.strip():
            bits.extend((int(ch, 16) >> (3 - i)) & 1 for i in range(4))
        return cls.from_bits(bits)


def generate_interval(A: SparseMatrix, c, priors, cfg: SamplerConfig,
                      omega: BitStream):
    """Nested-interval selection driven by omega; law identical to generate.

    Interval endpoints are exact rationals and omega is consumed bit by
    bit, so a fixed omega gives a bit-reproducible deterministic encoder.
    Returns (GeneratedSample, bits_consumed).
    """
    priors = np.asarray(priors, dtype=float)
    q, n = A.field.q, A.cols
    c_arr = np.asarray(c, dtype=np.int64) % q
    stepper = bp = None
    if cfg.method == "exact":
        stepper = ExactStepper(A, priors, cfg.exact_cap_states)
        if stepper.mass_of(c_arr) <= 0:
            raise EncodingError("coset has zero prior mass")
        residual = c_arr.copy()
    else:
        bp = CosetBP(A, c, priors, damping=cfg.sp_damping)
        if bp.failed:
            raise EncodingError("coset is empty: a constraint is unsatisfiable")
        bp.run(cfg.sp_init_iters, cfg.sp_tol)
    kstar = _early_stop_index(A, cfg.early_stop)

    lo, hi = Fraction(0), Fraction(1)
    w_lo, w_depth = 0, 0  # omega known to lie in [w_lo, w_lo + 1) / 2**w_depth
    x = np.zeros(n, dtype=np.int64)
    logs, ents = [], []
    for k in range(n):
        if cfg.method == "exact":
            pmf = stepper.step_pmf(k, residual)
        else:
            m = bp.marginal(k)
            pmf = m if m is not None else np.zeros(q)
        total = pmf.sum()
        if total <= 0:
            if k == 0:
                raise EncodingError("coset has zero prior mass")
            raise DeadEndError(f"zero continuation mass at step {k + 1}")
        fr = [Fraction(float(p)) for p in pmf]
        s = sum(fr)
        width = hi - lo
        bounds = [lo]
        acc = Fraction(0)
        for p in fr:
            acc += p
            bounds.append(lo + width * acc / s)
        choice = None
        while choice is None:
            om_lo = Fraction(w_lo, 1 << w_depth) if w_depth else Fraction(0)
            om_hi = Fraction(w_lo + 1, 1 << w_depth) if w_depth else Fraction(1)
            for xv in range(q):
                if bounds[xv] <= om_lo and om_hi <= bounds[xv + 1]:
                    choice = xv
                    break
            else:
                w_lo = (w_lo << 1) | omega.bit()
                w_depth += 1
        lo, hi = bounds[choice], bounds[choice + 1]
        x[k] = choice
        logs.append(math.log2(pmf[choice]))
        ents.append(entropy_bits(pmf))
        if cfg.method == "exact":
            if stepper.l:
                residual = (residual - choice * stepper.cols[k]) % q
        else:
            if not bp.condition(k, choice):
                raise DeadEndError(f"contradiction after fixing step {k + 1}")
            if k + 1 < n:
                bp.run(cfg.sp_step_iters, cfg.sp_tol)
        if k + 1 >= kstar and k + 1 < n:
            done = _complete_suffix(A, c, x, k + 1)
            if done is None:
                raise DeadEndError("unique completion inconsistent")
            sample = GeneratedSample(x, "early", k + 1, logs, ents, None)
            return sample, omega.consumed
    if not np.array_equal(A.mat_vec(x), np.asarray(c, dtype=np.int64) % q):
        raise DeadEndError("generated sequence violates the constraint")
    return GeneratedSample(x, "full", n, logs, ents, None), omega.consumed


def exact_coset_law(A: SparseMatrix, c, priors, cap: int = 2 ** 20):
    """Full restricted law: (members, probabilities); the law oracle."""
    priors = np.asarray(priors, dtype=float)
    members = row_reduce(A).members(c, cap)
    if members.shape[0] == 0:
        raise EncodingError("coset is empty: c is outside Im A")
    idx = np.arange(A.cols)
    w = priors[idx[None, :], members].prod(axis=1)
    z = w.sum()
    if z <= 0:
        raise EncodingError("coset has zero prior mass")
    return members, w / z


def path_tree_law(A: SparseMatrix, c, priors, cfg: SamplerConfig, cap: int = 2 ** 20):
    """Law induced by the exact sequential engine, by full path-tree expansion.

    Every positive-probability path ends on the coset (step pmfs are
    normalized and give dead branches zero mass), so expanding the paths
    of the coset members covers the whole tree.  Honors cfg.early_stop the
    same way generate does.  Returns (members, path_probabilities).
    """
    priors = np.asarray(priors, dtype=float)
    q, n = A.field.q, A.cols
    c_arr = np.asarray(c, dtype=np.int64) % q
    stepper = ExactStepper(A, priors, cfg.exact_cap_states)
    if stepper.mass_of(c_arr) <= 0:
        raise EncodingError("coset has zero prior mass")
    members = row_reduce(A).members(c, cap)
    kstar = _early_stop_index(A, cfg.early_stop)
    probs = np.zeros(members.shape[0])
    for row, x in enumerate(members):
        residual = c_arr.copy()
        p = 1.0
        for k in range(n):
            pmf = stepper.step_pmf(k, residual)
            assert abs(pmf.sum() - 1.0) < 1e-12
            p *= pmf[x[k]]
            if p == 0.0:
                break
            if stepper.l:
                residual = (residual - int(x[k]) * stepper.cols[k]) % q
            if k + 1 >= kstar and k + 1 < n:
                completed = _complete_suffix(A, c, x.copy(), k + 1)
                assert completed is not None and np.array_equal(completed, x)
                break
        probs[row] = p
    return members, probs
