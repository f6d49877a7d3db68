"""Constrained sampling: x ~ product prior restricted to the coset C_A(c).

x_1..x_n are drawn in turn, each from the conditional of the restricted
law given the prefix, until the prefix pins the suffix, which is then
read off (the early stop).  The work has three lifetimes:
  per matrix  `CosetSampler(A)`: the reverse-column echelon, the
              sum-product `CosetGraph`, the echelon form and, per stop,
              the exact engine's `TablePlan`, each built on first use;
              a code's `CosetPair(A, B, c)` holds one for A, whose echelon
              too waits for a first use, and one for the stacked map (A; B);
  per prior   `CosetSampler.engine(priors, cfg)`, which refuses priors
              that are not an (n, q) array of finite non-negative
              numbers: exact (`ExactStepper` suffix-mass tables on Im A,
              q**rank entries while that fits DENSE_CAP, built by the
              backward recursion from M_n = delta_0, every shift one flat-index
              subtraction for every field (`TablePlan.minus`), and kept at the
              ends of the plan's ceil(stop / rank) + 1 segments up to `stop`;
              never dead-ends after a positive start; a lossy code with an
              additive test channel holds one per code, for its noise prior,
              and shifts it to each source word),
              sum-product (each step pmf is its column's marginal from one
              BP run on the target, at most INIT_ITERS iterations, so the
              free columns are drawn independently; a step BP gives no mass
              is a dead end) or uniform
              (uniform priors make the law uniform on the coset: a solution
              plus a random kernel combination, with no sequential work);
  per target  `engine.draw(c, rng)`, or `engine.walker(c)` for many passes;
              an exact walker reads one tree per segment, rooted at the leaf the
              segment before reached, the first once per target; a step reads
              q of its entries as floats, with no numpy call; a sum-product
              walker runs BP once, and its passes run none.
`_drive` is the one step loop.  A per-draw state gives the step pmf, q floats
(`pmf(k)`), which the driver narrows to a point mass wherever the prefix
forces x_k, and takes the chosen symbol (`commit(k, v)`); a selector
`choose(pmf)` picks it: a PRNG (`draw`), the interval algorithm over a
lazily expanded binary omega, which makes the encoder a deterministic
function of omega (`generate_interval`), or a forced path that multiplies
its step probabilities (`path_tree_law`).  The driver reads the symbol of
each pivot column, and at the early stop the suffix, off T(c - A x) from the
reverse echelon, and checks A x = c.
"""

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, partial, reduce
from operator import add

import numpy as np

from .fastbp import CosetBP, CosetGraph
from .sparsemat import DENSE_CAP, EchelonForm, SparseMatrix, row_reduce, suffix_ranks
from .streams import sample_pmf


class EncodingError(RuntimeError):
    """The conditioning event has zero probability: empty or massless coset."""


class DeadEndError(RuntimeError):
    """The engine found no mass on a nonempty coset: a zero step pmf
    mid-sequence, or a failed initial BP run under positive priors."""


# the sum-product schedule: BP iterations on the target, which stop early
# once the messages settle within fastbp.TOL
INIT_ITERS = 50


@dataclass
class SamplerConfig:
    """Which stepwise engine draws, and whether it stops early; uniform
    priors take the uniform engine whatever the method.  The sum-product
    schedule is INIT_ITERS and fastbp.TOL."""

    method: str = "exact"            # "exact" | "sum-product"
    early_stop: bool = True          # Step-5 unique-completion shortcut

    def __post_init__(self):
        if self.method not in ("exact", "sum-product"):
            raise ValueError(f"unknown method {self.method!r}")


@dataclass
class GeneratedSample:
    x: np.ndarray
    termination: str                 # "full" | "early"
    steps: int                       # symbols drawn before the suffix was pinned
    converged: bool | None = None    # initial BP run's flag; None for other engines


def _refuse_states(q: int, l: int) -> None:
    if q ** l > DENSE_CAP:          # the entries of one exact table
        raise ValueError(f"exact engine refused: {q}**{l} syndromes exceed state cap {DENSE_CAP}")


class TablePlan:
    """What the suffix tables of one matrix and stop share across priors: the
    shifts and the segments.  Its l coordinates are the matrix's rows; an
    engine's (`CosetSampler.table_plan`) span Im A alone.

    Columns 0..stop are cut into T = min(ceil(stop / max(l, 1)) + 1, stop)
    segments (T = 1 at stop 0) ending at ends[i] = (i + 1) stop // T
    (`starts`, `ends`): their lengths differ by at most 1 and none exceeds
    max(l, 1).  Inside segment [a, b) the residual t - A x over columns
    a..k-1 takes at most q**(k - a) values, the trellis state bound, so a
    draw reads each segment off a tree of q**(b - a) leaves, which index
    table b (`leaf_index`) at the residual where the segment starts; the
    leaf a pass reaches is the residual where the next segment starts.

    A table holds syndrome t at its flat index t @ weights, axis 0 most
    significant; `flat_cols[k][xv]` is xv col_k's.  Every shift goes through
    `minus`, the flat index of t - v digit by digit: t XOR v over GF(2); over
    GF(q > 2) t is held as its `split` parts, the halves of base q**(l // 2),
    which read row v's halves of one table of digitwise differences (at most
    q**l entries, built on first use), and for odd l the top digit.
    """

    def __init__(self, A: SparseMatrix, stop: int | None = None):
        q = self.q = A.field.q
        self.l, self.n = A.rows, A.cols
        _refuse_states(q, self.l)
        self.stop = self.n if stop is None else stop
        if not 0 <= self.stop <= self.n:
            raise ValueError(f"stop {self.stop} lies outside 0..{self.n}")
        segments = min(self.stop, -(-self.stop // max(self.l, 1)) + 1) or 1
        self.ends = [(i + 1) * self.stop // segments for i in range(segments)]
        self.starts = [0] + self.ends[:-1]
        dense = A.to_dense()
        self.cols = [dense[:, k] for k in range(self.n)]
        self.weights = q ** np.arange(self.l - 1, -1, -1, dtype=np.int64)
        self.flat_cols = (dense.T[:, None] * np.arange(q)[:, None] % q @ self.weights).tolist()
        self._half = q ** (self.l // 2)
        self._zero = self.split(0)

    def split(self, t):
        """t, an int or an array of flat indexes, as `minus` reads it: over GF(2)
        t itself, else its parts (top digit, None for even l; high half; low half)."""
        if self.q == 2:
            return t
        high, low = divmod(t, self._half)
        return (divmod(high, self._half) if self.l % 2 else (None, high)) + (low,)

    def minus(self, t, v: int):
        """The flat index of t - v, t given by its `split` parts."""
        if self.q == 2:
            return t ^ v
        q, P, D = self.q, self._half, self._diff
        top, high = divmod(v // P, P)
        out = (D[high] * P).take(t[1]) + D[v % P].take(t[2])
        if self.l % 2:
            out += ((np.arange(q) - top) % q * P * P).take(t[0])
        return out

    def gather(self, table: np.ndarray, v: int, out: np.ndarray) -> np.ndarray:
        """out[t] = table[t - v] at every flat t, by blocks of q**m indexes (m digits, the
        most that keep 8192 or fewer, one at least): the block's indexes minus v's low
        digits, read from the block at its start minus v's high digits."""
        block, starts = self._blocks
        low = self.minus(self.split(np.arange(block)), v % block)
        for t, base in zip(range(0, table.size, block), self.minus(starts, v - v % block).tolist()):
            np.take(table[base:base + block], low, out=out[t:t + block], mode="clip")
        return out

    @cached_property
    def _diff(self) -> np.ndarray:
        """D[v, t] = the flat index of t - v over l // 2 digits, built digit by digit."""
        q, D = self.q, np.zeros((1, 1), dtype=np.int64)
        one = (np.arange(q) - np.arange(q)[:, None]) % q
        for _ in range(self.l // 2):
            D = (D[:, None, :, None] * q + one[None, :, None, :]).reshape(D.shape[0] * q, -1)
        return D

    @cached_property
    def _blocks(self) -> tuple:
        """`gather`'s block length and the split starts of the blocks."""
        b = self.q ** min(self.l, max([1] + [m for m in range(2, 14) if self.q ** m <= 8192]))
        return b, self.split(np.arange(0, self.q ** self.l, b))

    @cached_property
    def _spans(self) -> list:
        """Per segment [a, b), its split leaves from root 0, the flat indexes of
        -sum_j x_j col_j: each column stacks the leaves so far less xv col_j, xv = 0 first."""
        def grow(span, images):
            parts = self.split(span)
            return np.concatenate([span] + [self.minus(parts, v) for v in images[1:]])
        return [self.split(reduce(grow, self.flat_cols[a:b], np.zeros(1, dtype=np.int64)))
                for a, b in zip(self.starts, self.ends)]

    def leaf_index(self, i: int, flat: int) -> np.ndarray:
        """idx[p] = the flat index of t - sum_j x_j col_j over segment i = [a, b),
        where flat is t's flat index and p = sum_j x_j q**(j - a): the newest
        symbol leads.  It is the segment's leaves from root 0 minus -t."""
        return self.minus(self._spans[i], self.minus(self._zero, flat))


class ExactStepper:
    """Backward suffix-mass tables M_k(t) = mass of suffixes hitting syndrome t.

    M_k lives on the plan's GF(q)^l: A's rows, or Im A in q**rank entries on
    an engine's `CosetSampler.table_plan`.  The step conditional is
    mu_k(x) * M_{k+1}[target - x * col_k], normalized, which is the
    defining suffix sum evaluated exactly.  The tables do not depend on
    the target, so one stepper serves every c.

    A stepper keeps one table per segment of its plan, the one at the
    segment's end, in one block that is freed with it.  The build runs the
    recursion M_k(t) = sum_x mu_k(x) M_{k+1}(t - x col_k) from M_n = delta_0
    (1 at syndrome 0) down to ends[0] in two working slots and keeps the
    segment ends it passes; at stop = n the last is M_n itself.  A draw reads
    `segment_tree`s, whose levels sum in `_level`'s order as the recursion does; a
    shift by x col_k is the plan's `gather` of M_{k+1} into contiguous scratch.
    """

    def __init__(self, plan: TablePlan, priors):
        self.plan = plan
        self.q, self.n, self.l, self.stop = plan.q, plan.n, plan.l, plan.stop
        self.priors = np.asarray(priors, dtype=float)
        self._tables = np.empty((len(plan.ends), self.q ** self.l))
        kept = dict(zip(plan.ends, self._tables))
        nxt, cur, scratch = np.zeros((3, self.q ** self.l))   # two working slots and scratch
        cur[0] = 1.0                                  # M_n = delta_0
        for k in range(self.n, plan.ends[0] - 1, -1):     # cur = M_k
            if k < self.n:
                nxt, cur = cur, nxt
                self._level(k, nxt, cur, scratch)
            if k in kept:
                kept[k][:] = cur

    def _level(self, k: int, nxt: np.ndarray, acc: np.ndarray, scratch: np.ndarray) -> None:
        """acc = M_k from nxt = M_{k+1}: the sum over x of mu_k(x) times nxt shifted by
        x col_k (the plan's gather into scratch, or nxt itself where x col_k = 0), x = 0
        first and zero priors skipped, the order each `segment_tree` level repeats."""
        v, live = self.plan.flat_cols[k], [(x, p) for x, p in enumerate(self.priors[k]) if p]
        for i, (x, p) in enumerate(live):  # 0 + p M == p M exactly: the first term fills acc
            np.multiply(self.plan.gather(nxt, v[x], scratch) if v[x] else nxt, p,
                        out=scratch if i else acc)
            if i:
                acc += scratch
        if not live:
            acc.fill(0.0)

    def segment_tree(self, i: int, flat: int) -> tuple:
        """(leaves, levels) of segment i = [a, b) rooted at the residual with flat
        index flat.  At p = sum x_{a+h} q**h, leaves[p] is the flat index of the
        residual less the segment's symbols, and level j holds M_{a+j} at the
        residual less x_a..x_{a+j-1}; the last level reads table b at the leaves,
        and level 0 is None.  Level j sums level j + 1 viewed as (q, q**j), row v
        times mu_{a+j}(v), over its rows in order: `_level`'s sum, a zero row adds 0."""
        q, a, b = self.q, self.plan.starts[i], self.plan.ends[i]
        leaves = self.plan.leaf_index(i, flat)
        tree, col = [self._tables[i][leaves]] if b > a else [], self.priors[a:b, :, None]
        for j in range(b - a - 1, 0, -1):
            tree.append(np.add.reduce(tree[-1].reshape(q, -1) * col[j], axis=0))
        return leaves, [None] + tree[::-1]


def is_uniform(priors: np.ndarray) -> bool:
    """True when every index's pmf is flat with positive mass: the law is uniform."""
    return bool(np.all(priors[:, :1] > 0) and np.all(priors == priors[:, :1]))


class CosetSampler:
    """Sampling structure of one matrix, shared by every prior and target.

    `reverse` eliminates A with its columns reversed: T A' = R'.  Read
    back in original column order, row i of R has support ending at a
    distinct pivot column e_i, and its other entries lie on free columns.
    With s = T (c - A[:, :k] x) for a prefix x of length k, the coset is
    empty iff s[rank:] != 0, the only feasible symbol at a pivot column
    k = e_i is s[i], every symbol is feasible at a free column, and once
    no free column is left x[e_i] = s[i] completes the member.  `_drive`
    forms s at pivot columns and at the stop, anew after a nonzero free symbol.
    """

    def __init__(self, A: SparseMatrix):
        self.A = A
        self._plans = {}

    def table_plan(self, stop: int) -> TablePlan:
        """The `ExactStepper` plan for draws that stop at `stop`, built on first use
        over R[:rank], not A: t in Im A is held as (T t)[:rank], one-to-one there."""
        if stop not in self._plans:
            rev = self.reverse
            _refuse_states(self.A.field.q, rev.rank)     # before R is unpacked
            R = SparseMatrix.from_dense(rev.reduced[:rev.rank, ::-1], self.A.field)
            self._plans[stop] = TablePlan(R, stop)
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
        s = self.reverse.transformed(c)
        if np.any(s[self.reverse.rank:]):
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
        """priors as an (n, q) float array; ValueError unless finite and non-negative.
        Where a product of the sums of rows k..n-1 leaves 2**±64, row k is scaled by
        2**(R_{k+1} - R_k), R_k that product's rounded log2 and R_n = 0: exact, so each
        step pmf and draw holds, while every such product lies within 2**(1/2) of 1."""
        priors = np.asarray(priors, dtype=float)
        want = (self.A.cols, self.A.field.q)
        if priors.shape != want:
            raise ValueError(f"priors have shape {priors.shape}, expected {want}")
        if not np.all(np.isfinite(priors)) or np.any(priors < 0):
            raise ValueError("priors must be finite and non-negative")
        with np.errstate(divide="ignore"):      # a zero row counts as a sum of 1
            logs = np.nan_to_num(np.logaddexp2.reduce(np.log2(priors), axis=1), neginf=0.0)
        R = np.round(np.append(np.cumsum(logs[::-1])[::-1], 0.0))
        return priors if np.all(np.abs(R) <= 64) else \
            np.ldexp(priors, np.diff(R).astype(int)[:, None])

    def engine(self, priors, cfg: SamplerConfig):
        """Sampling engine for one prior; its `draw(c, rng)` serves every target."""
        priors = self.checked_priors(priors)
        if is_uniform(priors):
            return _UniformEngine(self)
        return _STEPWISE[cfg.method](self, priors, cfg)


@dataclass
class CosetPair:
    """What both codes share: (A, B, c), checked once, with one `CosetSampler`
    for C_A(c) (`coset_a`) and one for the joint cosets
    C_AB(c, m) = {x : Ax = c, Bx = m} of the stacked map (`joint`).  The
    channel code samples on the joint coset and decodes on C_A(c); the
    lossy code samples on C_A(c) and decodes on the joint coset.  Set-up
    eliminates the stacked map alone and reads c in Im A, both ranks and
    Im B = {m : G m = 0} (G = `msg_constraints`, reduced at `msg_pivots`)
    off that echelon's cokernel; A's echelon is built on first use, to
    enumerate C_A(c) or draw uniformly on it."""

    A: SparseMatrix
    B: SparseMatrix
    c: np.ndarray

    def __post_init__(self):
        if self.A.cols != self.B.cols or self.A.field != self.B.field:
            raise ValueError("A and B must share the domain")
        self.n, self.q = self.A.cols, self.A.field.q
        self.c = np.asarray(self.c, dtype=np.int64) % self.q
        if self.c.shape != (self.A.rows,):
            raise ValueError("c length must equal the row count of A")
        self.coset_a = CosetSampler(self.A)
        self.stacked = self.A.stack(self.B)
        self.joint = CosetSampler(self.stacked)
        self.ech_stacked: EchelonForm = self.joint.echelon
        l, k = self.A.rows, self.B.rows
        on_c, _ = self.ech_stacked.image_constraints(0, l)
        if np.any(on_c @ self.c % self.q):
            raise ValueError("c is not in Im A")
        self.msg_constraints, self.msg_pivots = self.ech_stacked.image_constraints(l, l + k)
        self.rank_a, self.rank_b = l - on_c.shape[0], k - self.msg_constraints.shape[0]
        self.rate_r = self.rank_a / self.n * math.log2(self.q)

    def members_by_message(self):
        """(members of C_A(c), the distinct messages B x, each member's message
        index): the joint cosets of the messages partition C_A(c)."""
        members = self.coset_a.echelon.members(self.c)
        msgs, msg_of = np.unique(self.B.mat_mat(members), axis=0, return_inverse=True)
        return members, msgs, msg_of


# -- the driver -------------------------------------------------------------------


def _require_mass(pmf, k: int):
    """pmf, any sequence of q floats, once its mass is finite and positive."""
    if not math.isfinite(mass := sum(pmf)):
        raise FloatingPointError(f"step {k + 1} pmf has mass {mass!r}")
    if mass <= 0:
        if k == 0:
            raise EncodingError("coset has zero prior mass")
        raise DeadEndError(f"zero continuation mass at step {k + 1}")
    return pmf


def _drive(sampler: CosetSampler, c: np.ndarray, state, choose,
           early_stop: bool) -> GeneratedSample:
    """The step loop: x_k = choose(pmf_k) until the prefix pins the suffix.
    Pivot symbols and the suffix are read off s = T(c - A x), x zero past the
    prefix, formed anew only after a nonzero free symbol: R's pivot columns are
    unit vectors, so a pivot symbol moves s only at its own row, read no more."""
    A, n, q = sampler.A, sampler.A.cols, sampler.A.field.q
    rows, rev = sampler.pivot_row, sampler.reverse
    stop = sampler.early_stop_index if early_stop else n
    x, s = np.zeros(n, dtype=np.int64), None      # s is None when stale
    for k, row in enumerate(rows.tolist()):
        if row >= 0 and s is None:
            s = rev.transformed(c - A.mat_vec(x))
        if k == stop:       # only pivot columns are left
            x[stop:] = s[rows[stop:]]
            break
        pmf = _require_mass(state.pmf(k), k)
        if row >= 0:        # a point mass on the one feasible symbol, if pmf gives it mass
            v = int(s[row])
            pmf = _require_mass([float(u == v and pmf[v] > 0) for u in range(q)], k)
        x[k] = v = choose(pmf)
        state.commit(k, v)
        if v and row < 0:
            s = None
    if not np.array_equal(A.mat_vec(x), c):
        raise DeadEndError("generated sequence violates the constraint")
    return GeneratedSample(x, "early" if stop < n else "full", stop)


class _Flooded:
    """Per-target state of the sum-product engine: step k reads column k's
    marginal from the one BP run, and a commit changes nothing."""

    def __init__(self, marginals: np.ndarray):
        self.rows = marginals.tolist()

    def pmf(self, k: int) -> list:
        return self.rows[k]

    def commit(self, k: int, v: int) -> None:
        pass


class _UniformEngine:
    """Uniform priors + linear map: the restricted law is uniform on the coset."""

    def __init__(self, sampler: CosetSampler):
        self.sampler = sampler

    def draw(self, c, rng) -> GeneratedSample:
        x = self.sampler.echelon.random_member(c, rng)
        if x is None:
            raise EncodingError("coset is empty: c is outside Im A")
        return GeneratedSample(x, "full", self.sampler.A.cols)


class _ExactWalker:
    """Passes of the step loop `_drive` on one target, and the state of the pass
    under way: its segment i of the stepper's plan, that segment's leaf index and
    tree, and the index p = sum x_k q**(k - a) of the symbols drawn since the
    segment began at a.  The first segment's tree is built once per target; when
    a pass enters a later one, its tree is rooted at the leaf p of the one before.
    No tree has more than q**ceil(stop / T) leaves for the plan's T segments.

    With a shift y, the walker draws z = x - y from the stepper's prior on the
    target c - A y and shows `_drive` x: each step pmf rolled by y_k.  Under an
    additive test channel this is the source word's posterior draw (`lossy`)."""

    def __init__(self, engine: "_ExactEngine", c, shift=None):
        st = self.stepper = engine.stepper
        sampler, q = engine.sampler, st.q
        self.engine, self.c, self.prior_rows = engine, sampler.target(c), st.priors.tolist()
        self.shift = [0] * st.n if shift is None else (np.asarray(shift) % q).tolist()
        s = sampler.reduced_target(self.c - sampler.A.mat_vec(self.shift))   # empty iff c's is
        self.first = st.segment_tree(0, int(s[:sampler.reverse.rank] @ st.plan.weights))

    def __call__(self, choose) -> GeneratedSample:
        self.i, (self.leaves, self.tree), self.prefix = 0, self.first, 0
        return _drive(self.engine.sampler, self.c, self, choose, self.engine.cfg.early_stop)

    def pmf(self, k: int) -> list:
        st = self.stepper
        if k == st.plan.ends[self.i]:       # the pass enters the next segment
            self.i, root, self.prefix = self.i + 1, self.leaves.item(self.prefix), 0
            self.leaves, self.tree = st.segment_tree(self.i, root)
        j = k - st.plan.starts[self.i]      # mu_k(z) tree[j + 1][p + z q**j] for each z
        level, m = self.tree[j + 1], st.q ** j
        terms = [mu * level.item(self.prefix + z * m) for z, mu in enumerate(self.prior_rows[k])]
        mass = reduce(add, terms)           # left to right, as numpy sums q floats
        pmf = [t / mass for t in terms] if 0 < mass < math.inf else terms
        return pmf[-y:] + pmf[:-y] if (y := self.shift[k]) else pmf   # x_k = z + y_k

    def commit(self, k: int, v: int) -> None:
        st = self.stepper
        self.prefix += (v - self.shift[k]) % st.q * st.q ** (k - st.plan.starts[self.i])


class _ExactEngine:
    """Exact conditionals from the suffix-mass tables of one prior."""

    def __init__(self, sampler: CosetSampler, priors, cfg: SamplerConfig):
        self.sampler, self.cfg = sampler, cfg
        # a draw never reads a table past the early stop
        stop = sampler.early_stop_index if cfg.early_stop else sampler.A.cols
        self.stepper = ExactStepper(sampler.table_plan(stop), priors)

    def walker(self, c, shift=None) -> _ExactWalker:
        """Passes of `_drive` on target c, one per selector; with a shift y, of y + z."""
        return _ExactWalker(self, c, shift)

    def draw(self, c, rng, shift=None) -> GeneratedSample:
        return self.walker(c, shift)(partial(sample_pmf, rng))


class _SumProductEngine:
    """Step pmfs from the marginals of one BP run per target."""

    def __init__(self, sampler: CosetSampler, priors, cfg: SamplerConfig):
        self.sampler, self.priors, self.cfg = sampler, priors, cfg

    def walker(self, c):
        """Passes of the step loop on target c, one per selector: each reads the
        marginals of one BP run on c and carries that run's flag."""
        c = self.sampler.target(c)
        self.sampler.reduced_target(c)      # EncodingError on an empty coset
        bp = CosetBP(self.sampler.graph, c, self.priors)
        converged = bp.run(INIT_ITERS)
        if bp.failed:
            if np.all(self.priors > 0):      # the coset is nonempty, so it has mass
                raise DeadEndError("initial BP run failed on a nonempty coset")
            raise EncodingError("initial BP run failed: the coset may have zero prior mass")
        state = _Flooded(bp.marginals())

        def one_pass(choose) -> GeneratedSample:
            sample = _drive(self.sampler, c, state, choose, self.cfg.early_stop)
            sample.converged = converged
            return sample
        return one_pass

    def draw(self, c, rng) -> GeneratedSample:
        return self.walker(c)(partial(sample_pmf, rng))


_STEPWISE = {"exact": _ExactEngine, "sum-product": _SumProductEngine}


class _Interval:
    """Interval-algorithm selector: each symbol narrows [lo, hi) to its share.
    omega's binary expansion is read from `bits` one bit at a time, as needed."""

    def __init__(self, bits):
        self.bits = iter(bits)
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
            b = next(self.bits, None)
            if b is None:
                raise ValueError(
                    f"omega exhausted after {self.w_depth} bits; deeper expansion required")
            self.w_lo = (self.w_lo << 1) | int(b)
            self.w_depth += 1


def generate_interval(A: SparseMatrix, c, priors, cfg: SamplerConfig, bits):
    """Nested-interval selection driven by omega; law identical to `engine.draw`.

    Interval endpoints are exact rationals and omega's binary expansion is
    read bit by bit from the iterable `bits`, so a fixed omega gives a
    bit-reproducible deterministic encoder.
    Returns (GeneratedSample, bits_consumed).
    """
    sampler = CosetSampler(A)
    engine = _STEPWISE[cfg.method](sampler, sampler.checked_priors(priors), cfg)
    selector = _Interval(bits)
    return engine.walker(c)(selector), selector.w_depth


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
        if not abs(sum(pmf) - 1.0) < 1e-12:
            raise RuntimeError(f"step pmf sums to {sum(pmf)!r}, not 1")
        v = int(next(self.path))
        self.prob *= pmf[v]
        return v


def path_tree_law(A: SparseMatrix, c, priors, cfg: SamplerConfig):
    """Single-pass law of the engine cfg.method names, by full path-tree expansion.

    Each coset member's path is forced through one pass of the driver, as
    `generate_interval` runs it, and its step probabilities multiply.
    Every positive-probability path ends on the coset (step pmfs are
    normalized, and a pivot column is a point mass on its one feasible
    symbol), so expanding the members' paths covers the whole tree.  The
    exact engine's law is the restricted prior; the sum-product engine's
    is the product of BP's marginals over the free columns before the
    stop.  The missing mass, 1 - sum(path_probabilities), is the pass's
    dead-end probability, 0 for the exact engine.  Honors cfg.early_stop
    the same way `engine.draw` does.  Returns (members, path_probabilities).
    """
    sampler = CosetSampler(A)
    engine = _STEPWISE[cfg.method](sampler, sampler.checked_priors(priors), cfg)
    members = sampler.echelon.members(c)
    if members.shape[0] == 0:
        raise EncodingError("coset is empty: c is outside Im A")
    probs = np.zeros(members.shape[0])
    try:
        walk = engine.walker(c)
    except DeadEndError:          # a failed initial BP run: every pass dead-ends
        return members, probs
    for row, x in enumerate(members):
        path = _ForcedPath(x)
        try:
            sample = walk(path)
        except DeadEndError:      # a zero-probability prefix ran out of mass
            continue
        if not np.array_equal(sample.x, x):
            raise RuntimeError(f"the forced path {x} drew {sample.x}")
        probs[row] = path.prob
    return members, probs
