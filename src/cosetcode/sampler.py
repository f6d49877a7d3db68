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
              q**rank entries while that fits DENSE_CAP, kept only at the
              ends of the plan's segments: [0, split), split = min(rank, stop),
              then runs of at most rank columns up to the draw's `stop`;
              M_stop comes from the one completion of each syndrome, the
              others from the backward recursion; never dead-ends after a
              positive start; a lossy code with an additive test channel
              holds one per code, for its noise prior, and shifts it to each
              source word),
              sum-product (BP conditionals, the scaled path: INIT_ITERS
              iterations on the target, then at most STEP_ITERS after each
              commit before the next read; approximate on loopy graphs, so a
              dead end restarts the draw, up to RETRIES passes) or uniform
              (uniform priors make the law uniform on the coset: a solution
              plus a random kernel combination, with no sequential work);
  per target  `engine.draw(c, rng)`, or `engine.walker(c)` for many passes;
              an exact walker reads one tree per segment, rooted at the residual
              where it starts: the first once per target, the others per pass.
`_drive` is the one step loop.  A per-draw state gives the step pmf
(`pmf(k)`), which the driver narrows to a point mass wherever the prefix
forces x_k, and takes the chosen symbol (`commit(k, v)`); a selector
`choose(pmf)` picks it: a PRNG (`draw`), the interval algorithm over a
lazily expanded binary omega, which makes the encoder a deterministic
function of omega (`generate_interval`), or a forced path that multiplies
its step probabilities (`path_tree_law`).  The driver then reads the
suffix off the reverse echelon at the early stop and checks A x = c.
"""

import math
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


# the sum-product schedule: BP iterations on the target before the first
# step, BP iterations before each read after a commit, and passes per draw
INIT_ITERS, STEP_ITERS, RETRIES = 50, 2, 16


@dataclass
class SamplerConfig:
    """Which stepwise engine draws, and whether it stops early; uniform
    priors take the uniform engine whatever the method.  The sum-product
    schedule is INIT_ITERS, STEP_ITERS and RETRIES."""

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


def _mix(prior, term, acc: np.ndarray, scratch: np.ndarray) -> None:
    """acc = sum_x prior[x] term(x), x = 0 first and zero priors skipped: the one
    order of every table and tree level, so that both hold the recursion's bits."""
    live = [(xv, p) for xv, p in enumerate(prior) if p != 0]
    for i, (xv, p) in enumerate(live):  # 0 + p M == p M exactly: the first term fills acc
        np.multiply(term(xv), p, out=scratch if i else acc)
        if i:
            acc += scratch
    if not live:
        acc.fill(0.0)


def _normalized(terms: np.ndarray) -> np.ndarray:
    """A step's terms scaled to sum to 1, unless massless."""
    return terms / s if (s := terms.sum()) > 0 else terms


def _xor_span(images, out: np.ndarray, start: int) -> np.ndarray:
    """out[w] = start ^ (XOR of images[j] over the set bits j of w) for every
    w < 2**len(images), by doubling."""
    out[0] = start
    for j, img in enumerate(images):
        np.bitwise_xor(out[:1 << j], img, out=out[1 << j:2 << j])
    return out


class TablePlan:
    """What the suffix tables of one matrix and stop share across priors: the
    shifts, the split and each suffix's syndrome.  Its l coordinates are the
    matrix's rows; an engine's (`CosetSampler.table_plan`) span Im A alone.

    Columns 0..stop are cut into segments: [0, split) with split = min(l, stop)
    (1 if l = 0 < stop), then runs of at most max(l, 1) columns up to stop
    (`starts`, `ends`).  Inside segment [a, b) the residual t - A x over
    columns a..k-1 takes at most q**(k - a) <= q**l values, the trellis state
    bound, so a draw reads each segment off a tree whose leaves index table b
    (`leaf_index`) at the residual where the segment starts.

    A table holds syndrome t at its flat index t @ weights, axis 0 most
    significant.  Over GF(2) column k shifts a flat index by XOR with its
    image `flat_cols[k]`; over GF(q > 2) the shift by xv * col_k gathers
    through `shift_index[k]` composed xv times.
    """

    def __init__(self, A: SparseMatrix, stop: int | None = None):
        q = self.q = A.field.q
        self.l, self.n = A.rows, A.cols
        if q ** self.l > DENSE_CAP:
            raise ValueError(f"exact engine refused: {q}**{self.l} syndromes "
                             f"exceed state cap {DENSE_CAP}")
        self.stop = self.n if stop is None else stop
        if not 0 <= self.stop <= self.n:
            raise ValueError(f"stop {self.stop} lies outside 0..{self.n}")
        self.split = min(max(self.l, 1), self.stop)
        self.ends = list(range(self.split, self.stop, max(self.l, 1))) + [self.stop]
        self.starts = [0] + self.ends[:-1]
        dense = A.to_dense()
        self.cols = [dense[:, k] for k in range(self.n)]
        # the flat index of syndrome t is t @ weights, axis 0 most significant
        self.weights = q ** np.arange(self.l - 1, -1, -1, dtype=np.int64)
        if q == 2:
            self.flat_cols = [int(col @ self.weights) for col in self.cols]
        else:
            # _digit_weights[i, s, d] = weight of digit d - s on axis i
            digits = np.arange(q)
            self._digit_weights = ((digits - digits[:, None]) % q
                                   * self.weights[:, None, None]).astype(np.int32)
            # gathering at t - col_k shifts a table by col_k; None for a zero column
            self.shift_index = [self.source_index(col) if col.any() else None
                                for col in self.cols[:self.stop]]
        self.suffix_index = self._suffix_index()

    def source_index(self, shift: np.ndarray) -> np.ndarray:
        """src[flat t] = flat index of t - shift, for every syndrome t; GF(q > 2)."""
        src = np.zeros(1, dtype=np.int32)
        for i in range(self.l - 1, -1, -1):
            src = (self._digit_weights[i, shift[i], :, None] + src).ravel()
        return src

    def leaf_index(self, i: int, flat: int) -> np.ndarray:
        """idx[p] = the flat index of t - sum_j x_j col_j over segment i = [a, b),
        where flat is t's flat index and p = sum_j x_j q**(j - a): the newest
        symbol leads."""
        q, a, b = self.q, self.starts[i], self.ends[i]
        idx = np.empty(q ** (b - a), dtype=np.int64)
        if q == 2:
            return _xor_span(self.flat_cols[a:b], idx, flat)
        idx[0] = flat
        for j, step in enumerate(self.shift_index[a:b]):
            rows = idx[:q ** (j + 1)].reshape(q, -1)     # rows[xv]: prefixes with x_j = xv
            for xv in range(1, q):
                rows[xv] = rows[xv - 1] if step is None else step[rows[xv - 1]]
        return idx

    def shifted(self, k: int, flat: int, v: int) -> int:
        """The flat index of t - v col_k, where flat is t's."""
        if self.q == 2:
            return flat ^ self.flat_cols[k] if v else flat
        step = self.shift_index[k]
        for _ in range(v if step is not None else 0):
            flat = int(step[flat])
        return flat

    def _suffix_index(self) -> np.ndarray:
        """Each suffix x_stop..x_{n-1}'s flat syndrome, in the order
        `ExactStepper` forms their masses; refuses dependent columns."""
        q, stop = self.q, self.stop
        idx = np.zeros(1, dtype=np.intp)      # intp, so no build's scatter converts it
        for j in range(self.n - 1, stop - 1, -1):
            if q == 2:
                shifted = [idx, idx ^ self.flat_cols[j]]
            else:                   # t + x col_j = t - (-x col_j)
                shifted = [idx] + [self.source_index(-xv * self.cols[j] % q)[idx]
                                   for xv in range(1, q)]
            idx = np.concatenate(shifted)
        if np.bincount(idx).max() > 1:
            raise ValueError(f"columns {stop}..{self.n - 1} are dependent: "
                             f"stop {stop} does not pin the suffix")
        return idx


class ExactStepper:
    """Backward suffix-mass tables M_k(t) = mass of suffixes hitting syndrome t.

    M_k lives on the plan's GF(q)^l: A's rows, or Im A in q**rank entries on
    an engine's `CosetSampler.table_plan`.  The step conditional is
    mu_k(x) * M_{k+1}[target - x * col_k], normalized, which is the
    defining suffix sum evaluated exactly.  The tables do not depend on
    the target, so one stepper serves every c.

    A stepper keeps one table per segment of its plan, the one at the
    segment's end, in one block that is freed with it.  Columns stop..n-1
    must be independent: then each syndrome in their span is hit by exactly
    one suffix, so M_stop is that suffix's prior product and 0 off the span,
    put where the plan's `suffix_index` says.  The build runs the recursion
    M_k(t) = sum_x mu_k(x) M_{k+1}(t - x col_k) from stop down to split in
    two working slots and keeps the segment ends it passes.  A draw reads
    `segment_tree`s, whose levels sum by `_mix` as the recursion does, and
    `table(k)` fills any other table when read.  Over GF(2) the shift by
    col_k is a view of M_{k+1} that reverses the axes where col_k is 1;
    GF(q > 2) gathers it into scratch.  Both give the tables the full
    recursion gives, bit for bit.
    """

    def __init__(self, plan: TablePlan, priors):
        self.plan = plan
        self.q, self.n, self.l, self.stop = plan.q, plan.n, plan.l, plan.stop
        self.priors = np.asarray(priors, dtype=float)
        self._tables = np.empty((len(plan.ends), self.q ** self.l))
        self._fill_suffix_table(self._tables[-1])
        self._descend(len(plan.ends) - 1, plan.split)

    def _descend(self, e: int, k: int) -> np.ndarray:
        """M_k in a working slot, by `_level` down from the table kept at segment
        end e; keeps each segment end it passes on the way."""
        work = np.empty((3,) + (self.q,) * self.l)    # two working slots and scratch
        cur, nxt, scratch = work[0, ...], work[1, ...], work[2, ...]
        cur[...] = self._tables[e].reshape(cur.shape)
        for j in range(self.plan.ends[e] - 1, k - 1, -1):
            self._level(j, cur, nxt, scratch)
            cur, nxt = nxt, cur
            if j in self.plan.ends:
                self._tables[self.plan.ends.index(j)] = cur.reshape(-1)
        return cur

    def _fill_suffix_table(self, flat: np.ndarray) -> None:
        """flat = M_stop, from the one suffix x_stop..x_{n-1} per syndrome.

        Each mass is mu_j(x_j) times the mass of the suffix after j, the
        product the recursion forms; its other terms are exact zeros."""
        mass = np.ones(1)
        for j in range(self.n - 1, self.stop - 1, -1):
            mass = np.multiply.outer(self.priors[j], mass).ravel()
        flat.fill(0.0)
        flat[self.plan.suffix_index] = mass

    def _level(self, k: int, nxt: np.ndarray, acc: np.ndarray, scratch: np.ndarray) -> None:
        """acc = M_k from nxt = M_{k+1}, summed by `_mix`."""
        _mix(self.priors[k], partial(self._shifted, nxt, k, scratch), acc, scratch)

    def _shifted(self, nxt: np.ndarray, k: int, scratch: np.ndarray, xv: int) -> np.ndarray:
        """M_{k+1} shifted by xv * col_k: over GF(2) a view of it that reverses
        the axes where col_k is 1, over GF(q > 2) gathered into scratch through
        the plan's shift by col_k composed xv times."""
        if not xv:
            return nxt
        if self.q == 2:
            col = self.plan.flat_cols[k]
            return nxt[tuple(slice(None, None, -1) if col >> (self.l - 1 - a) & 1 else slice(None)
                             for a in range(self.l))]
        src = step = self.plan.shift_index[k]
        if step is None:
            return nxt
        for _ in range(xv - 1):
            src = step[src]
        np.take(nxt.reshape(-1), src, out=scratch.reshape(-1), mode="clip")
        return scratch

    def table(self, k: int) -> np.ndarray:
        """A copy of M_k in syndrome coordinates, for k in 0..stop."""
        if not 0 <= k <= self.stop:
            raise ValueError(f"table {k} lies outside 0..{self.stop}")
        e = next(e for e, end in enumerate(self.plan.ends) if end >= k)
        return self._descend(e, k).copy()

    def segment_tree(self, i: int, flat: int) -> list:
        """Levels 0..b-a of segment i = [a, b) rooted at the residual with flat index
        flat: level j holds M_{a+j} at the residual less the symbols x_a..x_{a+j-1},
        at p = sum x_{a+h} q**h; the leaves read table b, each level above sums the
        slices x_{a+j} = v of the one below by `_mix`, and level 0 is None."""
        q, a, b = self.q, self.plan.starts[i], self.plan.ends[i]
        tree = [None] + [np.empty(q ** j) for j in range(1, b - a)]
        tree += [self._tables[i][self.plan.leaf_index(i, flat)]] if b > a else []
        scratch = np.empty(q ** (b - a) // q)
        for j in range(b - a - 1, 0, -1):
            nxt, m = tree[j + 1], q ** j
            _mix(self.priors[a + j], lambda v: nxt[v * m:(v + 1) * m], tree[j], scratch[:m])
        return tree


def is_uniform(priors: np.ndarray) -> bool:
    """True when every index has the same uniform pmf of positive mass."""
    return bool(priors[0, 0] > 0 and np.all(priors == priors[0, 0]))


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
        """The `ExactStepper` plan for draws that stop at `stop`, built on first use
        over R[:rank], not A: t in Im A is held as (T t)[:rank], one-to-one there."""
        if stop not in self._plans:
            rev = self.reverse
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


def _require_mass(pmf: np.ndarray, k: int) -> np.ndarray:
    if pmf.sum() <= 0:
        if k == 0:
            raise EncodingError("coset has zero prior mass")
        raise DeadEndError(f"zero continuation mass at step {k + 1}")
    return pmf


def _drive(sampler: CosetSampler, c: np.ndarray, s: np.ndarray, state, choose,
           early_stop: bool) -> GeneratedSample:
    """The step loop: x_k = choose(pmf_k) until the prefix pins the suffix;
    s is c's reduced target, `sampler.reduced_target(c)`."""
    A, n, q = sampler.A, sampler.A.cols, sampler.A.field.q
    rows, rev = sampler.pivot_row, sampler.reverse
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


class _BeliefState:
    """Per-draw state of the sum-product engine: BP conditioned on the prefix.

    A commit fixes the symbol; the next pmf read first runs STEP_ITERS
    iterations, so a draw that stops early runs no wasted BP.
    """

    def __init__(self, bp: CosetBP):
        self.bp, self.stale = bp, False

    def pmf(self, k: int) -> np.ndarray:
        if self.stale:
            self.bp.run(STEP_ITERS)
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


class _ExactWalker:
    """Passes of the step loop `_drive` on one target, and the state of the pass
    under way: its segment i of the stepper's plan, that segment's tree, the
    index p = sum x_k q**(k - a) of the symbols drawn since the segment began at
    a, and the flat index of the residual target.  The first segment's tree is
    built once per target, each later one when a pass enters it.

    With a shift y, the walker draws z = x - y from the stepper's prior on the
    target c - A y and shows `_drive` x: each step pmf rolled by y_k.  Under an
    additive test channel this is the source word's posterior draw (`lossy`)."""

    def __init__(self, engine: "_ExactEngine", c, shift=None):
        st = self.stepper = engine.stepper
        sampler, q = engine.sampler, st.q
        self.engine, self.c = engine, sampler.target(c)
        self.s = sampler.reduced_target(self.c)
        s, self.unshift = self.s, None      # unshift[k][v] = v - y_k, the z of x_k = v
        if shift is not None:
            self.unshift = (np.arange(q) - np.asarray(shift)[:, None]) % q
            s = sampler.reduced_target((self.c - sampler.A.mat_vec(shift)) % q)
        self.root = int(s[:sampler.reverse.rank] @ st.plan.weights)
        self.first = st.segment_tree(0, self.root)

    def __call__(self, choose) -> GeneratedSample:
        self.i, self.tree, self.prefix, self.residual = 0, self.first, 0, self.root
        return _drive(self.engine.sampler, self.c, self.s, self, choose,
                      self.engine.cfg.early_stop)

    def pmf(self, k: int) -> np.ndarray:
        st = self.stepper
        if k == st.plan.ends[self.i]:       # the pass enters the next segment
            self.i, self.prefix = self.i + 1, 0
            self.tree = st.segment_tree(self.i, self.residual)
        j = k - st.plan.starts[self.i]      # mu_k(z) tree[j + 1][p + z q**j] for each z
        pmf = _normalized(st.priors[k] * self.tree[j + 1][self.prefix::st.q ** j])
        return pmf if self.unshift is None else pmf[self.unshift[k]]

    def commit(self, k: int, v: int) -> None:
        st = self.stepper
        z = v if self.unshift is None else int(self.unshift[k][v])
        self.prefix += z * st.q ** (k - st.plan.starts[self.i])
        self.residual = st.plan.shifted(k, self.residual, z)


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
    """BP conditionals on the matrix's graph; a dead end restarts the draw."""

    def __init__(self, sampler: CosetSampler, priors, cfg: SamplerConfig):
        self.sampler, self.priors, self.cfg = sampler, priors, cfg

    def walker(self, c):
        """Passes of the step loop on target c, one per selector, without restarts: each
        runs on a clone of BP after its initial run and carries that run's flag."""
        c = self.sampler.target(c)
        s = self.sampler.reduced_target(c)
        base = CosetBP(self.sampler.graph, c, self.priors)
        converged = base.run(INIT_ITERS)
        if base.failed:
            if np.all(self.priors > 0):      # the coset is nonempty, so it has mass
                raise DeadEndError("initial BP run failed on a nonempty coset")
            raise EncodingError("initial BP run failed: the coset may have zero prior mass")

        def one_pass(choose) -> GeneratedSample:
            state = _BeliefState(base.clone())
            sample = _drive(self.sampler, c, s, state, choose, self.cfg.early_stop)
            sample.converged = converged
            return sample
        return one_pass

    def draw(self, c, rng) -> GeneratedSample:
        walk, choose = self.walker(c), partial(sample_pmf, rng)
        for _ in range(RETRIES):
            try:
                return walk(choose)
            except DeadEndError:
                continue
        raise DeadEndError(f"sum-product engine failed after {RETRIES} restarts")


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
        assert abs(pmf.sum() - 1.0) < 1e-12
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
    is what one pass of its draw gives, without restarts.  The missing
    mass, 1 - sum(path_probabilities), is the pass's dead-end
    probability, 0 for the exact engine.  Honors cfg.early_stop the same
    way `engine.draw` does.  Returns (members, path_probabilities).
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
        assert np.array_equal(sample.x, x)
        probs[row] = path.prob
    return members, probs
