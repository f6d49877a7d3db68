"""Vectorized sum-product for coset-shaped graphs.

Flooding sum-product on graphs made of per-index priors plus affine
checks over GF(q), with all factor updates run as batched array ops:
check messages go through a DFT over Z_q so the per-factor convolutions
become products, and exclusive products come from prefix/suffix
products.  The tests hold it to an edge-major flooding kernel
(`FloodingReference`, message for message) and, on trees, to the coset
marginals of `sampler.exact_coset_law`.

The work is split in two.  `CosetGraph` holds what depends on the matrix
alone: the edges in CSR (check-major) order, the gather indices of both
sides, the DFT matrices and scratch buffers.  A code builds it once per
matrix, and every decode or draw on that matrix reuses it.  `CosetBP`
holds one run's state: targets, priors, messages and what conditioning
has fixed.  States that share a graph share its scratch, so they run one
at a time; until its first `condition()` a state shares the graph's
read-only conditioning arrays and its target's output index.

Messages are stored symbol-major, as (q, E) arrays over the edges in CSR
order, so every per-symbol operation reads a contiguous row of E values.
Each side (checks, variables) gathers them by one `take` into a table
where groups are ranked by degree and the j-th message of every group
sits in plane j; each step of the prefix and of the suffix scan then
multiplies one contiguous run, and one more `take` reads each edge's
exclusive product back in CSR order (see `_GroupProducts`).  Products
are taken in the order of a per-group left-to-right and right-to-left
scan, so over GF(2) the messages are the same bit for bit as with any
other layout.

Supports in-place conditioning (fix x_i = v): the symbol is folded into
the residual targets and the variable's edges go inactive, which is what
the sequential sampler needs.  An inactive edge sends delta_0 to its
check, whose transform is all-ones, and a neutral message to its
variable.

Every run floods undamped until its messages settle to within `TOL`.
The decoders run `DECODE_ITERS` iterations at most and also stop at the
first iteration whose hard decision lies in the coset (`run(...,
until_member=True)`), read from the variable pass the iteration already
ran; that member test forms the syndrome A x_hat - c in one pass over
the edges, and `marginals()` reuses the products it formed.  The member
test and both decoders read the hard decision by `hard_decision`.  The
sampler sets its own schedule (`sampler.INIT_ITERS`, `sampler.STEP_ITERS`)
and runs until its messages settle.
"""

import numpy as np

from .gf import GF
from .sparsemat import SparseMatrix


class _GroupProducts:
    """Per edge, the product of the other messages of its group (its check,
    or its variable), for messages given as (q, E) in CSR edge order.

    Groups are ranked by degree, most edges first, and the j-th message of
    every group of degree >= j sits in plane j of a flat table, a
    (count_j, q) block, so the groups one scan step covers are a contiguous
    run of it.  `before` holds, per entry, the product of the group's
    earlier messages, left to right, and `after` that of its later ones,
    right to left; both start as ones and are never written where a group
    has no earlier or no later message.  The products therefore come out
    as a per-group prefix/suffix scan makes them, whatever the layout.
    """

    def __init__(self, groups, size: int, q: int, dtype):
        E = groups.size
        order = np.argsort(groups, kind="stable")       # each group's edges, in edge order
        deg = np.bincount(groups, minlength=size)
        start = np.zeros(size + 1, dtype=np.int64)
        np.cumsum(deg, out=start[1:])
        slot = np.empty(E, dtype=np.int64)              # 1-based position in its group
        slot[order] = 1 + np.arange(E) - start[groups[order]]
        rank = np.empty(size, dtype=np.int64)
        rank[np.argsort(-deg, kind="stable")] = np.arange(size)
        D = int(deg.max()) if E else 0
        count = np.zeros(D + 2, dtype=np.int64)         # count[j]: groups of degree >= j
        count[1:D + 1] = np.cumsum(np.bincount(deg, minlength=D + 1)[::-1])[::-1][1:]
        offset = np.zeros(D + 2, dtype=np.int64)        # plane j starts at offset[j]
        np.cumsum(q * count[1:D + 1], out=offset[2:])

        # at[k, e]: flat table index of symbol k of edge e
        self.at = offset[slot] + rank[groups] * q + np.arange(q)[:, None]
        self.src = np.empty(q * E, dtype=np.int64)      # table entry -> flat message index
        self.src[self.at] = np.arange(q)[:, None] * E + np.arange(E)
        self.order, self.start, self.size = order, start, size
        self.last = order[start[1:][deg > 0] - 1]       # each group's last edge
        self.has_edges = np.flatnonzero(deg > 0)
        self.table = np.empty(q * E, dtype=dtype)
        self.before = np.ones(q * E, dtype=dtype)
        self.after = np.ones(q * E, dtype=dtype)

        def plane(buf, j, rows):
            """The first `rows` groups of plane j."""
            return buf[offset[j]:offset[j] + q * rows]

        self.before_steps = [(plane(self.before, j - 1, count[j]),
                              plane(self.table, j - 1, count[j]),
                              plane(self.before, j, count[j])) for j in range(2, D + 1)]
        self.after_steps = [(plane(self.after, j + 1, count[j + 1]),
                             plane(self.table, j + 1, count[j + 1]),
                             plane(self.after, j, count[j + 1])) for j in range(D - 1, 0, -1)]

    def __call__(self, messages):
        """(q, E): per edge, the product of the other messages of its group."""
        np.take(messages, self.src, out=self.table, mode="clip")
        for run, here, out in self.before_steps:
            np.multiply(run, here, out=out)
        for run, here, out in self.after_steps:
            np.multiply(run, here, out=out)
        return (self.before * self.after).take(self.at)

    def members(self, group: int) -> np.ndarray:
        """The group's edges, in increasing edge order."""
        return self.order[self.start[group]:self.start[group + 1]]

    def products(self, messages, excl=None) -> np.ndarray:
        """(q, groups): the product of all of each group's messages, left to
        right; one for a group without edges.  `excl`: `self(messages)`, if known."""
        excl = self(messages) if excl is None else excl
        out = np.ones((messages.shape[0], self.size), dtype=messages.dtype)
        out[:, self.has_edges] = excl.take(self.last, axis=1) * messages.take(self.last, axis=1)
        return out


class CosetGraph:
    """Factor graph of {x : A x = c} for every c: edges, indices and scratch."""

    def __init__(self, A: SparseMatrix):
        q, l, n = A.field.q, A.rows, A.cols
        self.q, self.l, self.n = q, l, n
        # edges in CSR (check-major) order; A is not modified after construction
        self.e_var, self.e_factor, self.e_coeff = A.col_idx, A.row_of, A.coeffs
        self.indptr = A.indptr
        E = self.E = int(self.e_var.size)
        self.f_deg = np.diff(A.indptr)
        self.check_start = A.indptr[:-1][self.f_deg > 0]    # first edge of each check with edges

        # DFT matrices; real Hadamard for q = 2, complex roots of unity otherwise
        if q == 2:
            self.W = np.array([[1.0, 1.0], [1.0, -1.0]])
            self.Winv = self.W / 2.0
            self.cdtype = np.float64
        else:
            j, k = np.meshgrid(np.arange(q), np.arange(q), indexing="ij")
            w = np.exp(-2j * np.pi / q)
            self.W = w ** (j * k)
            self.Winv = np.conj(self.W) / q
            self.cdtype = np.complex128
        sym = np.arange(q)[:, None]
        # scaled[v, e] = pi[coeff_e^-1 * v, e], read at flat index in_idx[v, e];
        # None when every coefficient is 1 (always for q = 2)
        invc = GF(q).inv_table[self.e_coeff]
        self.in_idx = None if np.all(self.e_coeff == 1) else \
            (invc * sym) % q * E + np.arange(E)
        self.neg_cx = (-self.e_coeff * sym) % q
        self.residue = np.arange(2 * q - 1) % q      # t + neg_cx lies in 0..2q-2

        self.checks = _GroupProducts(self.e_factor, l, q, self.cdtype)
        self.variables = _GroupProducts(self.e_var, n, q, np.float64)
        self.bare = self.variables.has_edges.size < n      # some variable has no edges
        self.all_active, self.unfixed = np.broadcast_to(True, E), np.broadcast_to(-1, n)
        self.f_deg.flags.writeable = False
        self.uniform, self.diff = np.full((q, E), 1.0 / q), np.empty((q, E))
        self._target = None     # (target, its target_state)

    def target_state(self, c):
        """(out_index(c), c at the checks with edges, whether a check without
        edges wants a nonzero value); the graph keeps the last target's, and
        every state on that target shares its arrays."""
        if self._target is None or not np.array_equal(self._target[0], c):
            self._target = c.copy(), (self.out_index(c), c[self.f_deg > 0],
                                      bool(np.any((self.f_deg == 0) & (c != 0))))
        return self._target[1]

    def out_index(self, targets, lo: int = 0, hi: int | None = None) -> np.ndarray:
        """Flat index into conv of sigma[v, e] = conv[t_f - a_e v, e], edges lo..hi."""
        hi = self.E if hi is None else hi
        cols = np.arange(lo, hi)
        sym = self.residue.take(targets[self.e_factor[lo:hi]] + self.neg_cx[:, lo:hi])
        return sym * self.E + cols


# messages have settled once no check-to-variable message moves by TOL or more
TOL = 1e-8
# iterations of the BP decoders, `channel.decode_bp` and `lossy.decode`
DECODE_ITERS = 100


def hard_decision(beliefs: np.ndarray) -> np.ndarray:
    """Per column of the (q, n) beliefs, the first symbol of largest belief,
    as np.argmax(beliefs, axis=0) reads it, by one comparison per symbol
    where np.argmax pays per column."""
    x = (beliefs[1] > beliefs[0]).astype(np.int64)
    best = np.maximum(beliefs[0], beliefs[1]) if beliefs.shape[0] > 2 else None
    for k in range(2, beliefs.shape[0]):
        np.putmask(x, beliefs[k] > best, k)
        np.maximum(best, beliefs[k], out=best)
    return x


class CosetBP:
    """One sum-product run on a coset graph: targets, priors and messages.

    `graph` may be shared with other runs on the same matrix.  Messages are
    (q, E) arrays over the graph's edges in CSR order: pi from variables to
    checks, sigma from checks to variables.  `run(iters)` floods them
    until they settle to within TOL; `iterations` counts every
    iteration this state and the state it was cloned from have run.

    Until its first `condition()` a state shares the `_OWNED` arrays: the
    graph's read-only `active`, `active_deg` and `fixed`, its output index for
    the target, and pi, which starts as the prior itself; `condition()` copies
    them, and so does `clone()` of a conditioned state.  Its priors are kept
    once, as the contiguous (q, n) `prior_t` that pi and the member test read.
    """
    _OWNED = ("targets", "pi", "out_idx", "active", "active_deg", "fixed")

    def __init__(self, graph: CosetGraph, c, priors):
        g = self.graph = graph
        q = self.q = g.q
        self.n, self.l, self.E = g.n, g.l, g.E
        priors = np.asarray(priors, dtype=float)
        if priors.shape != (self.n, q):
            raise ValueError("priors must be (n, q)")
        self.prior_t = np.ascontiguousarray(priors.T)
        c = np.asarray(c, dtype=np.int64) % q
        if c.shape != (self.l,):
            raise ValueError("target length mismatch")
        self.targets = c

        self.active, self.active_deg, self.fixed = g.all_active, g.f_deg, g.unfixed
        self.conditioned = False
        self.prior_e = self.pi = self.prior_t.take(g.e_var, axis=1)
        self.sigma = g.uniform
        self.out_idx, self.want, self.failed = g.target_state(c)
        self.iterations = 0
        self.kept = None    # (incoming, exclusive products) of the last variable pass
        self.belief = self.syndrome = None    # the member test's, on that pass

    def clone(self) -> "CosetBP":
        """Copy of the mutable state; the graph, priors and messages are
        shared, and so are the _OWNED arrays while this state is unconditioned."""
        other = object.__new__(CosetBP)
        other.__dict__.update(self.__dict__)
        for name in self._OWNED if self.conditioned else ():
            setattr(other, name, getattr(self, name).copy())
        return other

    # -- conditioning ------------------------------------------------------

    def condition(self, v: int, value: int) -> bool:
        """Fix x_v = value; returns False on an immediate contradiction."""
        if self.fixed[v] >= 0:
            raise ValueError(f"variable {v} already fixed")
        if not self.conditioned:
            self.__dict__.update({name: getattr(self, name).copy() for name in self._OWNED})
            self.conditioned = True
        self.fixed[v] = value
        g, q = self.graph, self.q
        ok = True
        for e in g.variables.members(v):
            f = g.e_factor[e]
            self.targets[f] = (self.targets[f] - g.e_coeff[e] * value) % q
            self.active[e] = False
            self.pi[:, e] = 0.0
            self.pi[value, e] = 1.0
            self.active_deg[f] -= 1
            if self.active_deg[f] == 0 and self.targets[f] != 0:
                ok = False
            lo, hi = g.indptr[f], g.indptr[f + 1]
            self.out_idx[:, lo:hi] = g.out_index(self.targets, lo, hi)
        if not ok:
            self.failed = True
        self.kept = self.belief = self.syndrome = None
        return ok

    # -- message passing ---------------------------------------------------

    def run(self, iters: int, *, until_member: bool = False) -> bool:
        """Up to `iters` flooding iterations; True once no message moves by
        TOL or, with `until_member`, once the hard decision lies in the coset."""
        if self.failed:
            return False
        if self.E == 0:
            return True
        g, q = self.graph, self.q
        idle = np.flatnonzero(~self.active) if self.conditioned else None
        in_coset = self._member_test(idle) if until_member else None

        def normalize(msg) -> bool:
            """Scale msg's columns to sum 1; False when an active one sums to 0.
            Idle columns are left to the caller, which overwrites them."""
            sums = msg.sum(axis=0)
            if idle is not None:
                sums[idle] = 1.0
            if sums.min() <= 0:
                return False
            msg /= sums
            return True

        for _ in range(iters):
            self.iterations += 1
            # factor side: sigma from pi
            scaled = self.pi if g.in_idx is None else self.pi.take(g.in_idx)
            F = g.W @ scaled.astype(g.cdtype, copy=False)
            if idle is not None:
                F[:, idle] = 1.0                # delta_0 transforms to all-ones
            conv = g.Winv @ g.checks(F)
            if g.cdtype is not np.float64:
                conv = conv.real
            np.maximum(conv, 0.0, out=conv)      # np.clip(conv, 0.0, None) without its wrapper
            sig_new = conv.take(self.out_idx)
            if not normalize(sig_new):
                self.failed = True
                return False
            if idle is not None:
                sig_new[:, idle] = 1.0 / q
            sig_old, self.sigma = self.sigma, sig_new

            # variable side: pi from sigma
            incoming = sig_new if idle is None else np.where(self.active, sig_new, 1.0)
            self.kept = incoming, g.variables(incoming)
            self.belief = self.syndrome = None
            pi_new = self.prior_e * self.kept[1]
            if not normalize(pi_new):
                self.failed = True
                return False
            if idle is not None:
                pi_new[:, idle] = self.pi[:, idle]
            self.pi = pi_new
            if in_coset is not None and in_coset(*self.kept):
                return True
            diff = np.abs(np.subtract(sig_new, sig_old, out=g.diff), out=g.diff)
            if idle is not None:
                diff[:, idle] = 0.0
            if diff.max() < TOL:
                return True
        return False

    def _member_test(self, idle):
        """in_coset(incoming, excl): whether the hard decision x_hat, the
        argmax of prior times full product, satisfies every check; a
        variable without edges enters no check.  A fixed variable keeps its
        value: its edges are idle and the value is in the targets, so the
        test sums the active edges alone.  Each call forms the syndrome
        A x_hat - c over the checks with edges by one `reduceat`, and leaves
        it in `syndrome` and the (q, n) prior times full product in `belief`."""
        g, q = self.graph, self.q
        has, last, prior = g.variables.has_edges, g.variables.last, self.prior_t
        if idle is None:
            coeff, want = None if g.in_idx is None else g.e_coeff, self.want
        else:
            coeff, want = np.where(self.active, g.e_coeff, 0), self.targets[g.f_deg > 0]

        def in_coset(incoming, excl) -> bool:
            full = excl.take(last, axis=1) * incoming.take(last, axis=1)
            if g.bare:                  # a variable without edges keeps its prior
                a = prior.copy()
                a[:, has] = prior[:, has] * full
            else:
                a = np.multiply(prior, full, out=full)
            terms = hard_decision(a).take(g.e_var)
            if coeff is not None:       # None: every coefficient is 1
                terms *= coeff
            self.belief = a
            s = self.syndrome = np.add.reduceat(terms, g.check_start)
            np.remainder(np.subtract(s, want, out=s), q, out=s)
            return not s.any()
        return in_coset

    # -- readout -------------------------------------------------------------

    def marginal(self, v: int):
        """Belief for x_v, or None when it is all zero (dead end)."""
        if self.fixed[v] >= 0:
            out = np.zeros(self.q)
            out[self.fixed[v]] = 1.0
            return out
        g = self.prior_t[:, v].copy()
        for e in self.graph.variables.members(v):
            if self.active[e]:
                g = g * self.sigma[:, e]
        s = g.sum()
        if s <= 0:
            return None
        return g / s

    def marginals(self) -> np.ndarray:
        """(n, q) beliefs, a view of a (q, n) array; an all-zero belief reads as
        uniform.  After a run, the products come from its last variable pass,
        or with `until_member` from the belief the member test formed on it."""
        if self.belief is not None:
            g = self.belief
        else:
            incoming, excl = self.kept or (np.where(self.active, self.sigma, 1.0), None)
            g = self.prior_t * self.graph.variables.products(incoming, excl)
        sums = g.sum(axis=0)
        zero = sums <= 0
        sums[zero] = 1.0
        out = g / sums
        out[:, zero] = 1.0 / self.q
        if self.conditioned:
            pinned = np.flatnonzero(self.fixed >= 0)
            out[:, pinned] = np.eye(self.q)[:, self.fixed[pinned]]
        return out.T
