"""Constrained sampling: x ~ product prior restricted to the coset C_A(c).

x_1..x_n are drawn in turn, each from the conditional of the restricted
law given the prefix, until the prefix pins the suffix, which is then
read off (the early stop).  The work has three lifetimes:
  per matrix  `CosetSampler(A)`: the reverse-column echelon, the
              sum-product `CosetGraph`, the echelon form and, per stop,
              the exact engine's `TablePlan`, each built on first use;
  per prior   `CosetSampler.engine(priors, cfg)`, which refuses priors
              that are not an (n, q) array of finite non-negative
              numbers: exact (`ExactStepper` suffix-mass tables while q**l
              fits DENSE_CAP, only tables 1..stop for a draw that
              stops early at `stop`: M_stop comes from the one completion
              of each syndrome, the rest from the backward recursion; over
              GF(2) each table is kept in a per-block syndrome basis in
              which every shift flips only leading axes; never dead-ends
              after a positive start), sum-product (BP
              conditionals, the scaled path; approximate on loopy graphs,
              so a dead end restarts the draw) or uniform (uniform priors
              make the law uniform on the coset: a solution plus a random
              kernel combination, with no sequential work);
  per target  `engine.draw(c, rng)`.
`_drive` is the one step loop.  A per-draw state gives the step pmf
(`pmf(k)`), which the driver narrows to a point mass wherever the prefix
forces x_k, and takes the chosen symbol (`commit(k, v)`); a selector
`choose(pmf)` picks it: a PRNG (`draw`), the interval algorithm over a
lazily expanded binary omega, which makes the encoder a deterministic
function of omega (`generate_interval`), or a forced path that multiplies
its step probabilities (`path_tree_law`).  The driver then reads the
suffix off the reverse echelon at the early stop and checks A x = c.
"""

import weakref
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, partial

import numpy as np

from .fastbp import CosetBP, CosetGraph
from .sparsemat import DENSE_CAP, EchelonForm, SparseMatrix, row_reduce, suffix_ranks
from .streams import sample_pmf


class EncodingError(RuntimeError):
    """The conditioning event has zero probability: empty or massless coset."""


class DeadEndError(RuntimeError):
    """The engine found no mass on a nonempty coset: a zero step pmf
    mid-sequence, or a failed initial BP run under positive priors."""


@dataclass
class SamplerConfig:
    """Settings of the stepwise engines; uniform priors take the uniform
    engine whatever the method."""

    method: str = "exact"            # "exact" | "sum-product"
    sp_init_iters: int = 50
    sp_step_iters: int = 2
    sp_damping: float = 0.0
    sp_tol: float = 1e-8
    early_stop: bool = True          # Step-5 unique-completion shortcut
    retries: int = 16

    def __post_init__(self):
        if self.method not in ("exact", "sum-product"):
            raise ValueError(f"unknown method {self.method!r}")
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


# One spare table block per shape: a stepper takes it and hands it back when
# it is collected, so building a stepper per source word reuses one block
# instead of allocating n + 1 tables that the heap may trim after each word.
# The shape does not depend on the stop, so one matrix shape keeps one block.
_SPARE_BLOCKS: dict = {}


def _apply(images, x: int) -> int:
    """The GF(2) linear map with images[j] the image of bit j, applied to x."""
    y = 0
    for img in images:
        if x & 1:
            y ^= img
        x >>= 1
    return y


def _xor_span(images, out: np.ndarray) -> np.ndarray:
    """out[w] = _apply(images, w) for every w < 2**len(images), by doubling."""
    out[0] = 0
    for j, img in enumerate(images):
        np.bitwise_xor(out[:1 << j], img, out=out[1 << j:2 << j])
    return out


def _coordinates(span: dict, l: int):
    """A basis of GF(2)^l led by an echelon `span` {leading bit: vector}.

    Returns (to_t, to_u): the images of each bit of u = B t under B^-1 and
    of each bit of t under B.  The span vectors take the leading axes of u
    (its top bits), in the order of their leading bits; the unit vectors of
    the other bits follow, so a vector of the span has only leading axes."""
    pivots = sorted(span, reverse=True)
    rest = [j for j in range(l - 1, -1, -1) if j not in span]
    axis_bits = [1 << (l - 1 - a) for a in range(l)]

    def coords(t: int) -> int:
        u = 0
        for a, p in enumerate(pivots):
            if t >> p & 1:
                t ^= span[p]
                u |= axis_bits[a]
        for a, j in enumerate(rest, start=len(pivots)):
            if t >> j & 1:
                u |= axis_bits[a]
        return u

    to_t = ([span[p] for p in pivots] + [1 << j for j in rest])[::-1]
    return to_t, [coords(1 << j) for j in range(l)]


class TablePlan:
    """What the suffix tables of one matrix and stop share across priors.

    Over GF(2) a syndrome is a flat index (axis 0 most significant) and
    column k shifts a table by XOR with its image.  The columns stop - 1,
    stop - 2, ..., 0 are cut into blocks of consecutive columns whose span
    has rank at most d = min(8, ceil(l / 2)).  Each block has a basis
    u = B t in which its columns touch only the first d axes, so that
    inside the block a shift flips leading axes of a (2,)*d + (2**(l-d),)
    view and numpy runs over 2**(l - d) contiguous values.  Table k is kept
    in the basis of column k - 1, whose step reads it.  Where the bases of
    columns k - 1 and k differ, `cross[k]` maps coordinates in the first to
    coordinates in the second: table k is re-laid to hold at u what it held
    at cross u, and a draw's residual moves to cross u after step k - 1.
    Over GF(q > 2) the tables stay in syndrome coordinates and shifts
    gather from `source_index`.
    """

    def __init__(self, A: SparseMatrix, stop: int | None = None):
        q = self.q = A.field.q
        self.l, self.n = A.rows, A.cols
        if q ** self.l > DENSE_CAP:
            raise ValueError(
                f"exact engine refused: q**l = {q ** self.l} exceeds state cap {DENSE_CAP}")
        self.stop = self.n if stop is None else stop
        if not 0 <= self.stop <= self.n:
            raise ValueError(f"stop {self.stop} lies outside 0..{self.n}")
        dense = A.to_dense()
        self.cols = [dense[:, k] for k in range(self.n)]
        # the flat index of syndrome t is t @ weights, axis 0 most significant
        self.weights = q ** np.arange(self.l - 1, -1, -1, dtype=np.int64)
        if q == 2:
            self._plan_blocks([int(col @ self.weights) for col in self.cols])
        else:                               # syndrome coordinates throughout
            self.shape, self.cross = (q,) * self.l, {}
            # _digit_weights[i, s, d] = weight of digit d - s on axis i
            digits = np.arange(q)
            self._digit_weights = (digits - digits[:, None]) % q * self.weights[:, None, None]

    def _plan_blocks(self, flat_cols: list) -> None:
        """The GF(2) blocks, their bases and each column's shift in its block."""
        l, stop = self.l, self.stop
        # more leading axes give fewer re-layouts but shorter contiguous runs;
        # at l = 16, d = 8 leaves runs of 256 values
        d = min(8, (l + 1) // 2)
        self.shape = (2,) * d + (1 << (l - d),)
        spans, lows, k = [], [], stop - 1
        while k >= 0:                      # greedy blocks from column stop - 1 down
            span = {}                      # leading bit -> vector: the block's span
            while k >= 0:
                v = flat_cols[k]
                for p in sorted(span, reverse=True):
                    if v >> p & 1:
                        v ^= span[p]
                if v:
                    if len(span) == d:
                        break
                    span[v.bit_length() - 1] = v
                k -= 1
            spans.append(span)
            lows.append(k + 1)
        bases = [_coordinates(span, l) for span in spans] or [_coordinates({}, l)]
        self.to_u = [to_u for _, to_u in bases]    # per block: bit j of t -> u
        self.block_of = [0] * max(stop, 1)         # column -> block; basis 0 if stop = 0
        for b, (lo, hi) in enumerate(zip(lows, [stop] + lows[:-1])):
            self.block_of[lo:hi] = [b] * (hi - lo)
        self.cross = {lo: [_apply(self.to_u[b], t) for t in bases[b + 1][0]]
                      for b, lo in enumerate(lows[:-1])}
        self.shifts = [_apply(self.to_u[self.block_of[k]], flat_cols[k]) for k in range(stop)]
        self.flips = [tuple(slice(None, None, -1) if s >> (l - 1 - a) & 1 else slice(None)
                            for a in range(d)) for s in self.shifts]
        # the suffix columns in the basis of table stop, that of column stop - 1
        fill_basis = self.to_u[self.block_of[stop - 1] if stop else 0]
        self.fill_shifts = [_apply(fill_basis, col) for col in flat_cols[stop:]]

    def table_basis(self, k: int) -> list:
        """to_u of the basis that table k is kept in (that of column k - 1)."""
        return self.to_u[self.block_of[max(k - 1, 0)]]

    def source_index(self, shift: np.ndarray) -> np.ndarray:
        """src[flat t] = flat index of t - shift, for every syndrome t; GF(q > 2)."""
        src = np.zeros(1, dtype=np.int64)
        for i in range(self.l - 1, -1, -1):
            src = (self._digit_weights[i, shift[i], :, None] + src).ravel()
        return src


class ExactStepper:
    """Backward suffix-mass tables M_k(t) = mass of suffixes hitting syndrome t.

    M_k lives on the full syndrome group U^l; the step conditional is
    mu_k(x) * M_{k+1}[target - x * col_k], normalized, which is the
    defining suffix sum evaluated exactly.  The tables do not depend on
    the target, so one stepper serves every c.

    Only tables 1..stop are built (stop = n by default): a draw that stops
    early at `stop` never reads past M_stop, and M_0 is formed on demand
    (`mass_of`, `table(0)`).  Columns stop..n-1 must be independent: then
    each syndrome in their span is hit by exactly one suffix, so M_stop is
    that suffix's prior product and 0 off the span, filled by enumerating
    the q**(n - stop) suffixes.  The recursion
    M_k(t) = sum_x mu_k(x) M_{k+1}(t - x col_k) gives the rest.  Over GF(2)
    each table is kept in its block's basis (see `TablePlan`), where the
    shift by col_k flips leading axes of a view of M_{k+1}; GF(q > 2)
    gathers the shift into a scratch table.  Both give the tables the full
    recursion gives, bit for bit; `table(k)` reads one in syndrome
    coordinates.  A draw's residual target is held in the coordinates of
    its step: `locate` gives it, `advance` moves it past a symbol.

    The tables are views of a block that returns to a spare pool when the
    stepper is collected, so they are valid while the stepper lives.
    """

    def __init__(self, A: SparseMatrix, priors, stop: int | None = None,
                 plan: TablePlan | None = None):
        """plan: the `TablePlan` of A and stop when the caller keeps one."""
        self.plan = plan = TablePlan(A, stop) if plan is None else plan
        q, n, self.stop = plan.q, plan.n, plan.stop
        self.q, self.n, self.l = q, n, plan.l
        self.priors = np.asarray(priors, dtype=float)
        # slots 1..n hold tables 1..n, slot 0 a level's output before it is
        # re-laid, slot n + 1 scratch (and a re-layout's index); slots past
        # the stop are left unwritten
        shape = (n + 2,) + (q,) * self.l
        block = _SPARE_BLOCKS.pop(shape) if shape in _SPARE_BLOCKS else np.empty(shape)
        weakref.finalize(self, _SPARE_BLOCKS.__setitem__, shape, block)
        self._tables = block.reshape((n + 2,) + plan.shape)
        self._flat = block.reshape(n + 2, -1)
        self._scratch = self._tables[n + 1, ...]
        self._fill_suffix_table(self._flat[self.stop])
        for k in range(self.stop - 1, 0, -1):
            cross = plan.cross.get(k)
            if cross is None:
                self._level(k, self._tables[k, ...])
            else:                   # step k - 1 reads table k in another basis
                self._level(k, self._tables[0, ...])
                idx = _xor_span(cross, self._flat[n + 1].view(np.int64))
                np.take(self._flat[0], idx, out=self._flat[k], mode="clip")

    def _fill_suffix_table(self, flat: np.ndarray) -> None:
        """flat = M_stop, from the one suffix x_stop..x_{n-1} per syndrome.

        Each mass is mu_j(x_j) times the mass of the suffix after j, the
        product the recursion forms; its other terms are exact zeros."""
        q, plan, stop = self.q, self.plan, self.stop
        idx, mass = np.zeros(1, dtype=np.int64), np.ones(1)
        for j in range(self.n - 1, stop - 1, -1):
            if q == 2:
                shifted = [idx, idx ^ plan.fill_shifts[j - stop]]
            else:                   # t + x col_j = t - (-x col_j)
                shifted = [idx] + [plan.source_index(-xv * plan.cols[j] % q)[idx]
                                   for xv in range(1, q)]
            idx = np.concatenate(shifted)
            mass = np.concatenate([self.priors[j, xv] * mass for xv in range(q)])
        if np.bincount(idx).max() > 1:
            raise ValueError(f"columns {stop}..{self.n - 1} are dependent: "
                             f"stop {stop} does not pin the suffix")
        flat.fill(0.0)
        flat[idx] = mass

    def _level(self, k: int, acc: np.ndarray) -> None:
        """acc = M_k from M_{k+1}: the x = 0 term first, zero priors skipped.

        M_{k+1} shifted by col_k is, over GF(2), a view of it that flips
        leading axes; GF(q > 2) gathers each shift into scratch."""
        nxt, scratch = self._tables[k + 1, ...], self._scratch
        first = True
        for xv in range(self.q):
            p = self.priors[k, xv]
            if p == 0:
                continue
            if not xv:
                shifted = nxt
            elif self.q == 2:
                shifted = nxt[self.plan.flips[k]]
            else:
                shifted = self._gathered(nxt, k, xv)
            if first:           # 0 + p M == p M exactly, so no zero fill
                np.multiply(shifted, p, out=acc)
                first = False
            else:
                np.multiply(shifted, p, out=scratch)
                acc += scratch
        if first:
            acc.fill(0.0)

    def _gathered(self, nxt: np.ndarray, k: int, xv: int) -> np.ndarray:
        """M_{k+1} shifted by xv * col_k over GF(q > 2): gathered into scratch
        from the flat indices t - xv * col_k."""
        col = self.plan.cols[k]
        if not col.any():
            return nxt
        src = self.plan.source_index(xv * col % self.q)
        np.take(nxt.reshape(-1), src, out=self._scratch.reshape(-1), mode="clip")
        return self._scratch

    def table(self, k: int) -> np.ndarray:
        """A copy of M_k in syndrome coordinates, for k in 0..stop."""
        if not 0 <= k <= self.stop:
            raise ValueError(f"table {k} lies outside 0..{self.stop}")
        if k == 0 < self.stop:
            own = np.empty(self.plan.shape)
            self._level(0, own)
        else:
            own = self._tables[k, ...]
        if self.q != 2:
            return own.copy()
        idx = _xor_span(self.plan.table_basis(k), np.empty(1 << self.l, dtype=np.int64))
        return own.reshape(-1)[idx].reshape((2,) * self.l)

    def locate(self, k: int, t):
        """The residual that step k reads for the syndrome t: over GF(2) its flat
        index in the basis of column k, else t itself."""
        t = np.asarray(t, dtype=np.int64) % self.q
        if self.q != 2:
            return t
        return _apply(self.plan.table_basis(k + 1), int(t @ self.plan.weights))

    def advance(self, k: int, residual, v: int):
        """The residual after x_k = v, in the coordinates of step k + 1."""
        if self.q != 2:
            return (residual - v * self.plan.cols[k]) % self.q
        if v:
            residual ^= self.plan.shifts[k]
        cross = self.plan.cross.get(k + 1)
        return residual if cross is None else _apply(cross, residual)

    def _terms(self, k: int, residual):
        """mu_k(x) M_{k+1}(residual - x col_k) for each symbol x."""
        if self.q == 2:
            flat, (p0, p1) = self._flat[k + 1], self.priors[k]
            return np.array((p0 * flat[residual], p1 * flat[residual ^ self.plan.shifts[k]]))
        t = (residual - np.arange(self.q)[:, None] * self.plan.cols[k]) % self.q
        return self.priors[k] * self._tables[k + 1, ...][tuple(t.T)]    # one gather

    def mass_of(self, c) -> float:
        """M_0(c), the prior mass of C_A(c), summed in the recursion's order."""
        if self.stop == 0:
            return float(self.table(0)[tuple(np.asarray(c, dtype=np.int64) % self.q)])
        mass = 0.0
        for term in self._terms(0, self.locate(0, c)):
            mass += term
        return float(mass)

    def step_pmf(self, k: int, residual) -> np.ndarray:
        """Conditional of x_k given the residual target, normalized unless massless."""
        out = self._terms(k, residual)
        s = out.sum()
        if s <= 0:
            return out
        return out / s


def is_uniform(priors: np.ndarray) -> bool:
    """True when every index has the same uniform pmf."""
    return bool(np.all(priors == priors[0, 0]))


class CosetSampler:
    """Sampling structure of one matrix, shared by every prior and target.

    `reverse` eliminates A with its columns reversed: T A' = R'.  Read
    back in original column order, row i of R has support ending at a
    distinct pivot column e_i, and its other entries lie on free columns.
    With s = T (c - A[:, :k] x) for a prefix x of length k, the coset is
    empty iff s[rank:] != 0, the only feasible symbol at a pivot column
    k = e_i is s[i], every symbol is feasible at a free column, and once
    no free column is left x[e_i] = s[i] completes the member.
    """

    def __init__(self, A: SparseMatrix):
        self.A = A
        self._plans = {}

    def table_plan(self, stop: int) -> TablePlan:
        """The `ExactStepper` plan for draws that stop at `stop`, built on first use."""
        if stop not in self._plans:
            self._plans[stop] = TablePlan(self.A, stop)
        return self._plans[stop]

    @cached_property
    def reverse(self) -> EchelonForm:
        """Echelon form of A with its columns reversed."""
        return row_reduce(self.A.reversed())

    @cached_property
    def pivot_row(self) -> np.ndarray:
        """pivot_row[k] = the row of `reverse` whose pivot is column k; -1 at free columns."""
        rev, n = self.reverse, self.A.cols
        rows = np.full(n, -1, dtype=np.int64)
        rows[n - 1 - rev.pivots] = np.arange(rev.rank)
        return rows

    @cached_property
    def early_stop_index(self) -> int:
        """First prefix length k >= 1 with only pivot columns after it."""
        sr = suffix_ranks(self.reverse)
        n = self.A.cols
        return next((k for k in range(1, n + 1) if sr[k] == n - k), n)

    def reduced_target(self, c) -> np.ndarray:
        """s = T c for the empty prefix; EncodingError when C_A(c) is empty."""
        rev = self.reverse
        s = rev.transformed(c)
        if np.any(s[rev.rank:]):
            raise EncodingError("coset is empty: c is outside Im A")
        return s

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

    def checked_priors(self, priors) -> np.ndarray:
        """priors as an (n, q) float array; ValueError unless finite and non-negative."""
        priors = np.asarray(priors, dtype=float)
        want = (self.A.cols, self.A.field.q)
        if priors.shape != want:
            raise ValueError(f"priors have shape {priors.shape}, expected {want}")
        if not np.all(np.isfinite(priors)) or np.any(priors < 0):
            raise ValueError("priors must be finite and non-negative")
        return priors

    def engine(self, priors, cfg: SamplerConfig):
        """Sampling engine for one prior; its `draw(c, rng)` serves every target."""
        priors = self.checked_priors(priors)
        if is_uniform(priors):
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
    A, n, q = sampler.A, sampler.A.cols, sampler.A.field.q
    s, rows, rev = sampler.reduced_target(c), sampler.pivot_row, sampler.reverse
    stop = sampler.early_stop_index if early_stop else n
    x = np.zeros(n, dtype=np.int64)
    for k in range(stop):
        pmf = state.pmf(k)
        if rows[k] >= 0:    # a point mass on the one feasible symbol, if pmf gives it mass
            v = s[rows[k]]
            pmf = float(pmf[v] > 0) * (np.arange(q) == v)
        x[k] = v = choose(_require_mass(pmf, k))
        state.commit(k, v)
        if v:
            s = (s - v * rev.column(n - 1 - k)) % q
    x[stop:] = s[rows[stop:]]
    if not np.array_equal(A.mat_vec(x), c):
        raise DeadEndError("generated sequence violates the constraint")
    return GeneratedSample(x, "early" if stop < n else "full", stop)


class _ExactState:
    """Per-draw state of the exact engine: the residual target, in the
    coordinates of the next step."""

    def __init__(self, stepper: ExactStepper, c: np.ndarray):
        self.stepper, self.residual = stepper, stepper.locate(0, c)

    def pmf(self, k: int) -> np.ndarray:
        return self.stepper.step_pmf(k, self.residual)

    def commit(self, k: int, v: int) -> None:
        self.residual = self.stepper.advance(k, self.residual, v)


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
        # a draw never reads a table past the early stop
        stop = sampler.early_stop_index if cfg.early_stop else sampler.A.cols
        self.stepper = ExactStepper(sampler.A, priors, stop, sampler.table_plan(stop))

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
        self.sampler.reduced_target(c)
        bp = CosetBP(self.sampler.graph, c, self.priors, damping=cfg.sp_damping)
        converged = bp.run(cfg.sp_init_iters, cfg.sp_tol)
        if bp.failed:
            if np.all(self.priors > 0):      # the coset is nonempty, so it has mass
                raise DeadEndError("initial BP run failed on a nonempty coset")
            raise EncodingError("initial BP run failed: the coset may have zero prior mass")
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
    sampler = CosetSampler(A)
    priors = sampler.checked_priors(priors)
    prefix = np.asarray(prefix, dtype=np.int64)
    k = prefix.shape[0]
    if k >= A.cols:
        raise ValueError("prefix already covers the whole sequence")
    c = sampler.target(c)
    if cfg.method == "exact":
        state = _ExactState(ExactStepper(A, priors), c)
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
    sampler = CosetSampler(A)
    engine = _STEPWISE[cfg.method](sampler, sampler.checked_priors(priors), cfg)
    return engine.walk(c, _Interval(omega)), omega.consumed


def exact_coset_law(A: SparseMatrix, c, priors):
    """Full restricted law: (members, probabilities); the law oracle."""
    members = row_reduce(A).members(c)
    if members.shape[0] == 0:
        raise EncodingError("coset is empty: c is outside Im A")
    return members, member_law(members, priors)


def member_law(members: np.ndarray, priors) -> np.ndarray:
    """The product prior restricted to the given coset members, normalized."""
    priors = np.asarray(priors, dtype=float)
    w = priors[np.arange(members.shape[1])[None, :], members].prod(axis=1)
    z = w.sum()
    if z <= 0:
        raise EncodingError("coset has zero prior mass")
    return w / z


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


def path_tree_law(A: SparseMatrix, c, priors, cfg: SamplerConfig):
    """Law induced by the exact sequential engine, by full path-tree expansion.

    Every positive-probability path ends on the coset (step pmfs are
    normalized and give dead branches zero mass), so expanding the paths
    of the coset members covers the whole tree.  Honors cfg.early_stop the
    same way generate does.  Returns (members, path_probabilities).
    """
    sampler = CosetSampler(A)
    engine = _ExactEngine(sampler, sampler.checked_priors(priors), cfg)
    if engine.stepper.mass_of(c) <= 0:
        raise EncodingError("coset has zero prior mass")
    members = sampler.echelon.members(c)
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
