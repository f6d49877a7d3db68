"""Vectorized sum-product for coset-shaped graphs.

Flooding sum-product on graphs made of per-index priors plus affine
checks over GF(q), with all factor updates run as batched array ops.
Over GF(2) a check reads one plane, d = pi_0 - pi_1 of normalised pi,
and sends sigma[v] = 1/2 + (-1)^(t_f + v) P / 2, P the product of its
other edges' d (Gallager's rule).  Over GF(q > 2) messages go through a
DFT over Z_q, so the per-factor convolutions become products.  Exclusive
products come from prefix/suffix products.  The tests hold it to an
edge-major flooding kernel (`FloodingReference`, message for message)
and, on trees, to the coset marginals of `sampler.exact_coset_law`.

The work is split in two.  `CosetGraph` holds what depends on the matrix
alone: the edges in CSR (check-major) order, the gather indices of both
sides, the GF(q > 2) DFT matrices and scratch buffers.  A code builds it
once per matrix, and every decode or draw on that matrix reuses it.
`CosetBP` holds one run's state: priors and messages.  States that share
a graph share its scratch and its last target's output index, so they run
one at a time.

Messages are stored symbol-major, as (q, E) arrays over the edges in CSR
order, so every per-symbol operation reads a contiguous row of E values.
Each side (checks, variables) gathers them by one `take` into a table
where groups are ranked by degree and the j-th message of every group
sits in plane j; each step of the prefix and of the suffix scan then
multiplies one contiguous run, and one more `take` reads each edge's
exclusive product back in CSR order (see `_GroupProducts`).  Products
are taken in the order of a per-group left-to-right and right-to-left
scan, so over GF(2) the messages are the same bit for bit as the
one-plane rule gives in any other layout.

Every run floods undamped until its messages settle to within `TOL`.
The decoders run `DECODE_ITERS` iterations at most and also stop at the
first iteration whose hard decision lies in the coset (`run(...,
until_member=True)`), read from the variable pass the iteration already
ran; that member test forms the syndrome A x_hat - c in one pass over
the edges, and `marginals()` reuses the products it formed.  The member
test and both decoders read the hard decision by `hard_decision`.  The
sampler runs `sampler.INIT_ITERS` iterations at most and reads `marginals()`.
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
        self.size = size
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
        E = self.E = int(self.e_var.size)
        self.f_deg = np.diff(A.indptr)
        self.check_start = A.indptr[:-1][self.f_deg > 0]    # first edge of each check with edges

        # DFT matrices of GF(q > 2); GF(2) checks take the products of one
        # plane, d = pi_0 - pi_1, and no transform
        if q > 2:
            j, k = np.meshgrid(np.arange(q), np.arange(q), indexing="ij")
            w = np.exp(-2j * np.pi / q)
            self.W = w ** (j * k)
            self.Winv = np.conj(self.W) / q
        sym = np.arange(q)[:, None]
        # scaled[v, e] = pi[coeff_e^-1 * v, e], read at flat index in_idx[v, e];
        # None when every coefficient is 1 (always for q = 2)
        invc = GF(q).inv_table[self.e_coeff]
        self.in_idx = None if np.all(self.e_coeff == 1) else \
            (invc * sym) % q * E + np.arange(E)
        self.neg_cx = (-self.e_coeff * sym) % q
        self.residue = np.arange(2 * q - 1) % q      # t + neg_cx lies in 0..2q-2

        self.checks = _GroupProducts(self.e_factor, l, 1, np.float64) if q == 2 else \
            _GroupProducts(self.e_factor, l, q, np.complex128)
        self.variables = _GroupProducts(self.e_var, n, q, np.float64)
        self.bare = self.variables.has_edges.size < n      # some variable has no edges
        self.uniform, self.diff = np.full((q, E), 1.0 / q), np.empty((q, E))
        self._target = None     # (target, its target_state)

    def target_state(self, c):
        """(out_index(c), c at the checks with edges, whether a check without
        edges wants a nonzero value); the graph keeps the last target's, and
        every state on that target shares its arrays, which none writes."""
        if self._target is None or not np.array_equal(self._target[0], c):
            self._target = c.copy(), (self.out_index(c), c[self.f_deg > 0],
                                      bool(np.any((self.f_deg == 0) & (c != 0))))
        return self._target[1]

    def out_index(self, targets) -> np.ndarray:
        """Where sigma[v, e] = conv[t_f - a_e v, e] is read: the flat index into
        conv, or over GF(2) the sign (-1)^(t_f + v) / 2 that the product of the
        other edges' d carries."""
        sym = self.residue.take(targets[self.e_factor] + self.neg_cx)
        return 0.5 - sym if self.q == 2 else sym * self.E + np.arange(self.E)


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
    """One sum-product run on a coset graph: priors and messages.

    `graph` may be shared with other runs on the same matrix.  Messages are
    (q, E) arrays over the graph's edges in CSR order: pi from variables to
    checks, sigma from checks to variables.  `run(iters)` floods them
    until they settle to within TOL; `iterations` counts every iteration
    run.  pi starts as the prior itself (over GF(2), scaled to mass 1), and
    the priors are kept once, as the contiguous (q, n) `prior_t` that pi
    and the member test read.
    """

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

        self.prior_e = self.pi = self.prior_t.take(g.e_var, axis=1)
        if q == 2:          # the one-plane rule reads pi of mass 1; a massless column stays 0
            mass = self.prior_t.sum(axis=0)
            self.pi = (self.prior_t / np.where(mass > 0, mass, 1.0)).take(g.e_var, axis=1)
        self.sigma = g.uniform
        self.out_idx, self.want, self.failed = g.target_state(c)
        self.iterations = 0
        self.kept = None    # (incoming, exclusive products) of the last variable pass
        self.belief = self.syndrome = None    # the member test's, on that pass

    # -- message passing ---------------------------------------------------

    def run(self, iters: int, *, until_member: bool = False) -> bool:
        """Up to `iters` flooding iterations; True once no message moves by
        TOL or, with `until_member`, once the hard decision lies in the coset."""
        if self.failed:
            return False
        if self.E == 0:
            return True
        g, q = self.graph, self.q
        in_coset = self._member_test() if until_member else None

        def normalize(msg) -> bool:
            """Scale msg's columns to sum 1; False when one sums to 0."""
            sums = msg.sum(axis=0)
            if sums.min() <= 0:
                return False
            msg /= sums
            return True

        for _ in range(iters):
            self.iterations += 1
            # factor side: sigma from pi
            if q == 2:                          # |d| <= 1: sigma needs no clamp, no normalising
                sig_new = g.checks(self.pi[0] - self.pi[1]) * self.out_idx
                sig_new += 0.5
            else:
                scaled = self.pi if g.in_idx is None else self.pi.take(g.in_idx)
                conv = (g.Winv @ g.checks(g.W @ scaled.astype(np.complex128))).real
                np.maximum(conv, 0.0, out=conv)  # np.clip(conv, 0.0, None) without its wrapper
                sig_new = conv.take(self.out_idx)
                if not normalize(sig_new):
                    self.failed = True
                    return False
            sig_old, self.sigma = self.sigma, sig_new

            # variable side: pi from sigma
            self.kept = sig_new, g.variables(sig_new)
            self.belief = self.syndrome = None
            pi_new = self.prior_e * self.kept[1]
            if not normalize(pi_new):
                self.failed = True
                return False
            self.pi = pi_new
            if in_coset is not None and in_coset(*self.kept):
                return True
            if np.abs(np.subtract(sig_new, sig_old, out=g.diff), out=g.diff).max() < TOL:
                return True
        return False

    def _member_test(self):
        """in_coset(incoming, excl): whether the hard decision x_hat, the
        argmax of prior times full product, satisfies every check; a
        variable without edges enters no check.  Each call forms the syndrome
        A x_hat - c over the checks with edges by one `reduceat`, and leaves
        it in `syndrome` and the (q, n) prior times full product in `belief`."""
        g, q = self.graph, self.q
        has, last, prior = g.variables.has_edges, g.variables.last, self.prior_t
        coeff, want = None if g.in_idx is None else g.e_coeff, self.want

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

    def marginals(self) -> np.ndarray:
        """(n, q) beliefs, a view of a (q, n) array; an all-zero belief stays
        zero.  After a run, the products come from its last variable pass,
        or with `until_member` from the belief the member test formed on it."""
        if self.belief is not None:
            g = self.belief
        else:
            g = self.prior_t * self.graph.variables.products(*(self.kept or (self.sigma,)))
        sums = g.sum(axis=0)
        return (g / np.where(sums > 0, sums, 1.0)).T
