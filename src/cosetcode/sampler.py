"""Constrained sampling: x ~ product prior restricted to the coset C_A(c).

x_1..x_n are drawn in turn, each from the conditional of the restricted
law given the prefix, until the prefix pins the suffix, which is then
solved for (the early stop).  The work has three lifetimes:
  per matrix  `CosetSampler(A)`: the early-stop index (from the suffix
              ranks of A), the sum-product `CosetGraph` and the echelon
              form, each built on first use;
  per prior   `CosetSampler.engine(priors, cfg)`: exact (`ExactStepper`
              suffix-mass tables while q**l fits the state cap; never
              dead-ends after a positive start), sum-product (BP
              conditionals, the scaled path; approximate on loopy graphs,
              so a dead end restarts the draw) or uniform (uniform priors
              make the law uniform on the coset: a solution plus a random
              kernel combination, with no sequential work);
  per target  `engine.draw(c, rng)`.
`_drive` is the one step loop.  A per-draw state gives the step pmf
(`pmf(k)`) and takes the chosen symbol (`commit(k, v)`); a selector
`choose(pmf)` picks it: a PRNG (`draw`), the interval algorithm over a
lazily expanded binary omega, which makes the encoder a deterministic
function of omega (`generate_interval`), or a forced path that multiplies
its step probabilities (`path_tree_law`).  The driver then completes the
suffix at the early stop and checks A x = c.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, partial

import numpy as np

from .fastbp import CosetBP, CosetGraph
from .sparsemat import EchelonForm, SparseMatrix, row_reduce, suffix_ranks, unique_completion
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
        if self.retries < 1:
            raise ValueError("retries must be >= 1")
        if not 0 <= self.sp_damping < 1:
            raise ValueError("sp_damping must lie in [0, 1)")


@dataclass
class GeneratedSample:
    x: np.ndarray
    termination: str                 # "full" | "early"
    steps: int                       # symbols drawn before the suffix was pinned
    converged: bool | None = None    # initial BP run's flag; None for other engines


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


def is_uniform(priors: np.ndarray) -> bool:
    """True when every index has the same uniform pmf."""
    return bool(np.all(priors == priors[0, 0]))


class CosetSampler:
    """Sampling structure of one matrix, shared by every prior and target."""

    def __init__(self, A: SparseMatrix):
        self.A = A

    @cached_property
    def early_stop_index(self) -> int:
        """First prefix length at which the suffix is pinned for every prefix."""
        sr = suffix_ranks(self.A)
        n = self.A.cols
        return next((k for k in range(1, n + 1) if sr[k] == n - k), n)

    @cached_property
    def graph(self) -> CosetGraph:
        """Factor graph for the sum-product engine."""
        return CosetGraph(self.A)

    @cached_property
    def echelon(self) -> EchelonForm:
        """Echelon form for the uniform engine and coset enumeration."""
        return row_reduce(self.A)

    def target(self, c) -> np.ndarray:
        return np.asarray(c, dtype=np.int64) % self.A.field.q

    def engine(self, priors, cfg: SamplerConfig):
        """Sampling engine for one prior; its `draw(c, rng)` serves every target."""
        priors = np.asarray(priors, dtype=float)
        if cfg.uniform_shortcut and is_uniform(priors):
            return _UniformEngine(self)
        return _STEPWISE[cfg.method](self, priors, cfg)


# -- the driver -------------------------------------------------------------------


def _require_mass(pmf: np.ndarray, k: int) -> np.ndarray:
    if pmf.sum() <= 0:
        if k == 0:
            raise EncodingError("coset has zero prior mass")
        raise DeadEndError(f"zero continuation mass at step {k + 1}")
    return pmf


def _drive(sampler: CosetSampler, c: np.ndarray, state, choose,
           early_stop: bool) -> GeneratedSample:
    """The step loop: x_k = choose(pmf_k) until the prefix pins the suffix."""
    A, n = sampler.A, sampler.A.cols
    stop = sampler.early_stop_index if early_stop else n
    x = np.zeros(n, dtype=np.int64)
    for k in range(stop):
        x[k] = v = choose(_require_mass(state.pmf(k), k))
        state.commit(k, v)
    if stop < n:
        status, suffix = unique_completion(A, c, x[:stop])
        if status != "unique":
            raise DeadEndError("unique completion inconsistent")
        x[stop:] = suffix
    if not np.array_equal(A.mat_vec(x), c):
        raise DeadEndError("generated sequence violates the constraint")
    return GeneratedSample(x, "early" if stop < n else "full", stop)


class _ExactState:
    """Per-draw state of the exact engine: the residual target."""

    def __init__(self, stepper: ExactStepper, c: np.ndarray):
        self.stepper, self.residual = stepper, c

    def pmf(self, k: int) -> np.ndarray:
        return self.stepper.step_pmf(k, self.residual)

    def commit(self, k: int, v: int) -> None:
        st = self.stepper
        if st.l:
            self.residual = (self.residual - v * st.cols[k]) % st.q


class _BeliefState:
    """Per-draw state of the sum-product engine: BP conditioned on the prefix.

    A commit fixes the symbol; the next pmf read first runs `iters`
    iterations, so a draw that stops early runs no wasted BP.
    """

    def __init__(self, bp: CosetBP, iters: int, tol: float, stale: bool = False):
        self.bp, self.iters, self.tol, self.stale = bp, iters, tol, stale

    def pmf(self, k: int) -> np.ndarray:
        if self.stale:
            self.bp.run(self.iters, self.tol)
            self.stale = False
        belief = self.bp.marginal(k)
        return belief if belief is not None else np.zeros(self.bp.q)

    def commit(self, k: int, v: int) -> None:
        if not self.bp.condition(k, v):
            raise DeadEndError(f"contradiction after fixing step {k + 1}")
        self.stale = True


class _UniformEngine:
    """Uniform priors + linear map: the restricted law is uniform on the coset."""

    def __init__(self, sampler: CosetSampler):
        self.sampler = sampler

    def draw(self, c, rng) -> GeneratedSample:
        x = self.sampler.echelon.random_member(c, rng)
        if x is None:
            raise EncodingError("coset is empty: c is outside Im A")
        return GeneratedSample(x, "full", self.sampler.A.cols)


class _ExactEngine:
    """Exact conditionals from the suffix-mass tables of one prior."""

    def __init__(self, sampler: CosetSampler, priors, cfg: SamplerConfig):
        self.sampler, self.cfg = sampler, cfg
        self.stepper = ExactStepper(sampler.A, priors, cfg.exact_cap_states)

    def walk(self, c, choose) -> GeneratedSample:
        """One pass of the driver with the given selector."""
        c = self.sampler.target(c)
        return _drive(self.sampler, c, _ExactState(self.stepper, c), choose,
                      self.cfg.early_stop)

    def draw(self, c, rng) -> GeneratedSample:
        return self.walk(c, partial(sample_pmf, rng))


class _SumProductEngine:
    """BP conditionals on the matrix's graph; a dead end restarts the draw."""

    def __init__(self, sampler: CosetSampler, priors, cfg: SamplerConfig):
        self.sampler, self.priors, self.cfg = sampler, priors, cfg

    def _start(self, c):
        """BP on the target after its initial run, and that run's convergence flag."""
        cfg = self.cfg
        bp = CosetBP(self.sampler.graph, c, self.priors, damping=cfg.sp_damping)
        if bp.failed:
            raise EncodingError("coset is empty: a constraint is unsatisfiable")
        converged = bp.run(cfg.sp_init_iters, cfg.sp_tol)
        if bp.failed:
            raise EncodingError("coset has zero prior mass")
        return bp, converged

    def _pass(self, c, bp, choose) -> GeneratedSample:
        cfg = self.cfg
        return _drive(self.sampler, c, _BeliefState(bp, cfg.sp_step_iters, cfg.sp_tol),
                      choose, cfg.early_stop)

    def walk(self, c, choose) -> GeneratedSample:
        """One pass of the driver with the given selector, without restarts."""
        c = self.sampler.target(c)
        return self._pass(c, self._start(c)[0], choose)

    def draw(self, c, rng) -> GeneratedSample:
        c = self.sampler.target(c)
        base, converged = self._start(c)
        choose = partial(sample_pmf, rng)
        for _ in range(self.cfg.retries):
            try:
                sample = self._pass(c, base.clone(), choose)
            except DeadEndError:
                continue
            sample.converged = converged
            return sample
        raise DeadEndError(f"sum-product engine failed after {self.cfg.retries} restarts")


_STEPWISE = {"exact": _ExactEngine, "sum-product": _SumProductEngine}


def generate(A: SparseMatrix, c, priors, cfg: SamplerConfig,
             rng: np.random.Generator) -> GeneratedSample:
    """Steps 1-6: sequential conditional sampling with optional early stop."""
    return CosetSampler(A).engine(priors, cfg).draw(c, rng)


def step_conditional(A: SparseMatrix, c, priors, prefix, cfg: SamplerConfig):
    """Exact or BP conditional pmf of x_{k} given prefix x_1^{k-1}."""
    priors = np.asarray(priors, dtype=float)
    prefix = np.asarray(prefix, dtype=np.int64)
    k = prefix.shape[0]
    if k >= A.cols:
        raise ValueError("prefix already covers the whole sequence")
    sampler = CosetSampler(A)
    c = sampler.target(c)
    if cfg.method == "exact":
        state = _ExactState(ExactStepper(A, priors, cfg.exact_cap_states), c)
    else:
        # the whole prefix is fixed before BP's first run
        bp = CosetBP(sampler.graph, c, priors, damping=cfg.sp_damping)
        state = _BeliefState(bp, cfg.sp_init_iters, cfg.sp_tol, stale=True)
    for j, v in enumerate(prefix):
        state.commit(j, int(v))
    return _require_mass(state.pmf(k), k)


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


class _Interval:
    """Interval-algorithm selector: each symbol narrows [lo, hi) to its share."""

    def __init__(self, omega: BitStream):
        self.omega = omega
        self.lo, self.hi = Fraction(0), Fraction(1)
        self.w_lo = self.w_depth = 0  # omega lies in [w_lo, w_lo + 1) / 2**w_depth

    def __call__(self, pmf) -> int:
        fr = [Fraction(float(p)) for p in pmf]
        s = sum(fr)
        width = self.hi - self.lo
        bounds = [self.lo]
        acc = Fraction(0)
        for p in fr:
            acc += p
            bounds.append(self.lo + width * acc / s)
        while True:
            om_lo = Fraction(self.w_lo, 1 << self.w_depth)
            om_hi = Fraction(self.w_lo + 1, 1 << self.w_depth)
            for xv in range(len(fr)):
                if bounds[xv] <= om_lo and om_hi <= bounds[xv + 1]:
                    self.lo, self.hi = bounds[xv], bounds[xv + 1]
                    return xv
            self.w_lo = (self.w_lo << 1) | self.omega.bit()
            self.w_depth += 1


def generate_interval(A: SparseMatrix, c, priors, cfg: SamplerConfig,
                      omega: BitStream):
    """Nested-interval selection driven by omega; law identical to generate.

    Interval endpoints are exact rationals and omega is consumed bit by
    bit, so a fixed omega gives a bit-reproducible deterministic encoder.
    Returns (GeneratedSample, bits_consumed).
    """
    engine = _STEPWISE[cfg.method](CosetSampler(A), np.asarray(priors, dtype=float), cfg)
    return engine.walk(c, _Interval(omega)), omega.consumed


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


class _ForcedPath:
    """Selector that follows a given sequence and multiplies its step probabilities."""

    def __init__(self, path):
        self.path = iter(path)
        self.prob = 1.0

    def __call__(self, pmf) -> int:
        assert abs(pmf.sum() - 1.0) < 1e-12
        v = int(next(self.path))
        self.prob *= pmf[v]
        return v


def path_tree_law(A: SparseMatrix, c, priors, cfg: SamplerConfig, cap: int = 2 ** 20):
    """Law induced by the exact sequential engine, by full path-tree expansion.

    Every positive-probability path ends on the coset (step pmfs are
    normalized and give dead branches zero mass), so expanding the paths
    of the coset members covers the whole tree.  Honors cfg.early_stop the
    same way generate does.  Returns (members, path_probabilities).
    """
    sampler = CosetSampler(A)
    engine = _ExactEngine(sampler, np.asarray(priors, dtype=float), cfg)
    if engine.stepper.mass_of(c) <= 0:
        raise EncodingError("coset has zero prior mass")
    members = sampler.echelon.members(c, cap)
    probs = np.zeros(members.shape[0])
    for row, x in enumerate(members):
        path = _ForcedPath(x)
        try:
            sample = engine.walk(c, path)
        except DeadEndError:      # a zero-probability prefix ran out of mass
            continue
        assert np.array_equal(sample.x, x)
        probs[row] = path.prob
    return members, probs
