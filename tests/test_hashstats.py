import itertools
from fractions import Fraction

import numpy as np
import pytest

from cosetcode.gf import GF
from cosetcode.hashstats import (
    AllLinearEnsemble,
    ExactScan,
    ExplicitEnsemble,
    ProductEnsemble,
    SparseTauEnsemble,
    all_types,
    alpha_beta,
    alpha_beta_direct,
    avg_spectrum,
    check_bcp,
    check_crp,
    check_h3,
    check_h3prime,
    collision_prob,
    compose_alpha_beta,
    default_h_hat,
    type_class_size,
    type_of,
)
from cosetcode.sparsemat import EnsembleSpec, all_vectors
from cosetcode.streams import stream

GF2 = GF(2)
GF3 = GF(3)


# ---------------------------------------------------------------------------
# types
# ---------------------------------------------------------------------------

def test_type_of_and_class_size():
    assert type_of([0, 1, 1, 2], 3) == (2, 1)
    assert type_class_size((2, 1), 4) == 12  # 4!/(1! 2! 1!)
    # class sizes partition the space
    n, q = 4, 3
    total = sum(type_class_size(t, n) for t in all_types(n, q))
    assert total == q ** n - 1  # everything but the zero vector


def test_all_types_excludes_zero():
    ts = all_types(3, 2)
    assert (0,) not in ts
    assert set(ts) == {(1,), (2,), (3,)}


# ---------------------------------------------------------------------------
# collision probabilities
# ---------------------------------------------------------------------------

def test_all_linear_two_universal_exact():
    ens = AllLinearEnsemble(4, 2, GF2)
    scan = ExactScan(ens)
    V = all_vectors(2, 4)
    for iu, iv in itertools.combinations(range(16), 2):
        assert scan.collision_prob(iu, iv) == Fraction(1, 4)


def test_collision_prob_usage_error():
    ens = AllLinearEnsemble(2, 1, GF2)
    with pytest.raises(ValueError):
        collision_prob(ens, [0, 1], [0, 1])


def test_sparse_tau_collision_algebraic_vs_exhaustive():
    spec = EnsembleSpec(n=4, l=2, field=GF2, tau=2)
    ens = SparseTauEnsemble(spec)
    assert ens.exact
    scan = ExactScan(ens)
    V = all_vectors(2, 4)
    rng = np.random.default_rng(3)
    for _ in range(10):
        iu, iv = rng.choice(16, size=2, replace=False)
        want = scan.collision_prob(int(iu), int(iv))
        got = ens.collision_prob_algebraic((V[iu] - V[iv]) % 2)
        assert got == want


@pytest.mark.parametrize("q, n, l, tau", [(3, 4, 2, 2), (2, 4, 4, 4)])
def test_sparse_tau_algebraic_and_spectrum_match_the_scan(q, n, l, tau):
    ens = SparseTauEnsemble(EnsembleSpec(n=n, l=l, field=GF(q), tau=tau))
    scan = ExactScan(ens)
    V = all_vectors(q, n)
    for iu, iv in itertools.combinations(range(q ** n), 2):
        assert ens.collision_prob_algebraic((V[iu] - V[iv]) % q) == scan.collision_prob(iu, iv)
    table = avg_spectrum(ens)
    hits = scan.weights @ (scan.codes == 0)      # weight of {A : A u = 0}, per input u
    u_types = [type_of(u, q) for u in V]
    for t in table.types:
        members = [i for i, ut in enumerate(u_types) if ut == t]
        assert table.values[t] == Fraction(int(hits[members].sum()), scan.total)


def test_sparse_tau_single_nonzero_diff_closed_form():
    # d = e_1: P(col_1 law sums to zero) with l=2, q=2, tau=2 is 1/2
    spec = EnsembleSpec(n=3, l=2, field=GF2, tau=2)
    ens = SparseTauEnsemble(spec)
    p = ens.collision_prob_algebraic([1, 0, 0])
    assert p == Fraction(1, 2)


def test_zero_matrix_ensemble_collides_always():
    ens = ExplicitEnsemble([(np.zeros((2, 3), dtype=int), 1)], GF2)
    assert collision_prob(ens, [0, 1, 0], [1, 1, 0]) == Fraction(1, 1)


def test_type_invariance_spot_check():
    spec = EnsembleSpec(n=4, l=2, field=GF3, tau=2)
    ens = SparseTauEnsemble(spec)
    by_type = {}
    V = all_vectors(3, 4)
    for u in V[1:20]:
        p = ens.collision_prob_algebraic(u)
        t = type_of(u, 3)
        if t in by_type:
            assert by_type[t] == p
        by_type[t] = p


def test_monte_carlo_collision_with_wilson():
    spec = EnsembleSpec(n=30, l=6, field=GF2, tau=4)
    ens = SparseTauEnsemble(spec)
    assert not ens.exact
    exact = ens.collision_prob_algebraic(np.eye(30, dtype=int)[0])
    # force the sampled path by calling with samples
    ens2 = AllLinearEnsemble(6, 10, GF2)  # 2^60 matrices: not exact
    assert not ens2.exact
    est, (lo, hi) = collision_prob(ens2, [1, 0, 0, 0, 0, 0], [0, 0, 0, 0, 0, 1],
                                   rng=stream(4, 0), samples=400)
    assert 0 <= lo <= hi <= 1


# ---------------------------------------------------------------------------
# spectrum
# ---------------------------------------------------------------------------

def test_all_linear_spectrum_closed_form():
    n, l = 4, 2
    ens = AllLinearEnsemble(n, l, GF2)
    table = avg_spectrum(ens)
    for t in table.types:
        want = Fraction(table.class_sizes[t], 2 ** l)
        assert table.values[t] == want


def test_identity_only_ensemble_spectrum_zero():
    ens = ExplicitEnsemble([(np.eye(3, dtype=int), 1)], GF2)
    table = avg_spectrum(ens)
    assert all(v == 0 for v in table.values.values())


def test_sparse_tau_monte_carlo_matches_exhaustive():
    spec = EnsembleSpec(n=6, l=3, field=GF2, tau=2)
    ens = SparseTauEnsemble(spec)
    exact_table = avg_spectrum(ens)
    mc = avg_spectrum(ens_for_mc(spec), sample_budget=600, rng=stream(8, 0))
    for t in exact_table.types:
        want = float(exact_table.values[t])
        got = mc.values[t]
        err = mc.stderr[t]
        assert abs(got - want) <= max(3 * err, 0.2)


def ens_for_mc(spec):
    ens = SparseTauEnsemble(spec)
    ens.exact = False  # force the sampled estimator
    return ens


def test_spectrum_total_bound_and_csv():
    spec = EnsembleSpec(n=5, l=2, field=GF2, tau=2)
    ens = SparseTauEnsemble(spec)
    table = avg_spectrum(ens)
    total = sum(table.values.values())
    assert total <= 2 ** 5 - 1


# ---------------------------------------------------------------------------
# alpha/beta
# ---------------------------------------------------------------------------

def test_alpha_beta_all_linear_is_one_zero():
    ens = AllLinearEnsemble(4, 2, GF2)
    table = avg_spectrum(ens)
    scan = ExactScan(ens)
    h_all = frozenset(table.types)
    ab = alpha_beta(table, h_all, scan.im_size())
    assert ab.alpha == 1 and ab.beta == 0


def test_alpha_beta_empty_h_hat_edge():
    ens = AllLinearEnsemble(3, 1, GF2)
    table = avg_spectrum(ens)
    scan = ExactScan(ens)
    ab = alpha_beta(table, frozenset(), scan.im_size())
    assert ab.alpha == 0
    assert ab.beta == sum(table.values.values())


def test_alpha_beta_two_routes_agree():
    for spec in [EnsembleSpec(n=4, l=2, field=GF2, tau=2),
                 EnsembleSpec(n=3, l=2, field=GF3, tau=2)]:
        ens = SparseTauEnsemble(spec)
        table = avg_spectrum(ens)
        scan = ExactScan(ens)
        im = scan.im_size()
        for rho in (0.0, 0.3, 0.6):
            h_hat = default_h_hat(spec.n, spec.field.q, rho)
            ab1 = alpha_beta(table, h_hat, im)
            ab2 = alpha_beta_direct(ens, h_hat, im)
            assert ab1.alpha == ab2.alpha  # exact rational equality
            assert ab1.beta == ab2.beta


def test_alpha_beta_rejects_foreign_type():
    ens = AllLinearEnsemble(3, 1, GF2)
    table = avg_spectrum(ens)
    with pytest.raises(ValueError):
        alpha_beta(table, frozenset({(99,)}), 2)


def test_appendix_identities_spectrum_vs_pat():
    # S(p_A, t) = |C_t| p_{A,t} for every type of an exact ensemble
    spec = EnsembleSpec(n=4, l=2, field=GF2, tau=2)
    ens = SparseTauEnsemble(spec)
    table = avg_spectrum(ens)
    scan = ExactScan(ens)
    V = all_vectors(2, 4)
    for t in table.types:
        rep = next(i for i in range(1, 16) if type_of(V[i], 2) == t)
        p_at = scan.collision_prob(rep, 0)
        assert table.values[t] == table.class_sizes[t] * p_at


# ---------------------------------------------------------------------------
# the checks
# ---------------------------------------------------------------------------

def test_h3_all_linear_passes_with_one_zero():
    ens = AllLinearEnsemble(4, 2, GF2)
    scan = ExactScan(ens)
    V = all_vectors(2, 4)
    for iu in range(0, 16, 5):
        ok, measured = check_h3(ens, V[iu], Fraction(1), Fraction(0), scan)
        assert ok and measured == 0


def test_h3_zero_matrix_ensemble():
    ens = ExplicitEnsemble([(np.zeros((2, 3), dtype=int), 1)], GF2)
    # against the declared codomain q**l the tail holds nothing back: fails
    ok, measured = check_h3(ens, [0, 0, 0], Fraction(1), Fraction(1, 2),
                            im_size=2 ** 2)
    assert not ok
    assert measured == 2 ** 3 - 1
    # against the realized image (a single point) the threshold is 1 and
    # the sum is empty: the condition holds vacuously
    ok, measured = check_h3(ens, [0, 0, 0], Fraction(1), Fraction(0))
    assert ok and measured == 0


def test_h3_sparse_tau_with_computed_alpha_beta():
    spec = EnsembleSpec(n=6, l=3, field=GF2, tau=2)
    ens = SparseTauEnsemble(spec)
    table = avg_spectrum(ens)
    scan = ExactScan(ens)
    h_hat = default_h_hat(6, 2, 0.1)
    ab = alpha_beta(table, h_hat, scan.im_size())
    V = all_vectors(2, 6)
    rng = np.random.default_rng(5)
    for iu in rng.choice(64, size=6, replace=False):
        ok, _ = check_h3(ens, V[iu], ab.alpha, ab.beta, scan)
        assert ok


def test_h3prime_diagonal_and_disjoint():
    ens = AllLinearEnsemble(4, 2, GF2)
    scan = ExactScan(ens)
    V = all_vectors(2, 4)
    ok, lhs, rhs = check_h3prime(ens, [V[3]], [V[3]], Fraction(1), Fraction(0), scan)
    assert ok and lhs == 1
    T, Tp = [V[1], V[2]], [V[4], V[5], V[6]]
    ok, lhs, rhs = check_h3prime(ens, T, Tp, Fraction(1), Fraction(0), scan)
    assert ok
    assert lhs == Fraction(6, 4)  # six pairs, each colliding w.p. 1/|Im|


def test_crp_examples():
    ens = AllLinearEnsemble(4, 2, GF2)
    scan = ExactScan(ens)
    V = all_vectors(2, 4)
    ok, prob, bound = check_crp(ens, [V[7]], V[7], Fraction(1), Fraction(0), scan)
    assert ok and prob == 0
    ok, prob, bound = check_crp(ens, list(V), V[0], Fraction(1), Fraction(0), scan)
    assert ok and bound >= 1
    rng = np.random.default_rng(9)
    G = [V[i] for i in rng.choice(16, size=4, replace=False)]
    ok, prob, bound = check_crp(ens, G, G[0], Fraction(1), Fraction(0), scan)
    assert ok and prob <= 1


def test_bcp_single_cell_edge():
    ens = AllLinearEnsemble(3, 0, GF2)  # l = 0: one constant map
    scan = ExactScan(ens)
    assert scan.im_size() == 1
    V = all_vectors(2, 3)
    Q = np.ones(8)
    ok, lhs, inner = check_bcp(ens, Q, list(V), Fraction(1), Fraction(0), scan)
    assert ok and lhs == 0


def test_bcp_uniform_full_space_all_linear():
    ens = AllLinearEnsemble(4, 2, GF2)
    scan = ExactScan(ens)
    V = all_vectors(2, 4)
    Q = [Fraction(1, 16)] * 16
    ok, lhs, inner = check_bcp(ens, Q, list(V), Fraction(1), Fraction(0), scan)
    assert ok
    assert inner == Fraction(1, 4)  # bound sqrt(1/4) = 1/2
    assert lhs <= Fraction(1, 2)


def test_bcp_point_mass_closed_form():
    ens = AllLinearEnsemble(3, 2, GF2)
    scan = ExactScan(ens)
    V = all_vectors(2, 3)
    Q = [0] * 8
    Q[5] = 7
    im = scan.im_size()
    ok, lhs, inner = check_bcp(ens, Q, [V[5]], Fraction(2), Fraction(1), scan)
    # the single point lands in exactly one cell of each partition
    assert lhs == 2 * Fraction(im - 1, im)
    assert ok


def test_bcp_rejects_zero_mass():
    ens = AllLinearEnsemble(3, 1, GF2)
    V = all_vectors(2, 3)
    with pytest.raises(ValueError):
        check_bcp(ens, [0] * 8, [V[1]], Fraction(1), Fraction(0))


GOOD = [0, 0, 0, 1]

# every word input of the five functions, fed the word w
WORD_INPUTS = {
    "collision_prob-u": lambda ens, w: collision_prob(ens, w, GOOD),
    "collision_prob-v": lambda ens, w: collision_prob(ens, GOOD, w),
    "check_h3-u": lambda ens, w: check_h3(ens, w, 1, 0),
    "check_h3prime-T": lambda ens, w: check_h3prime(ens, [w], [GOOD], 1, 0),
    "check_h3prime-Tp": lambda ens, w: check_h3prime(ens, [GOOD], [w], 1, 0),
    "check_crp-G": lambda ens, w: check_crp(ens, [w], GOOD, 1, 0),
    "check_crp-u": lambda ens, w: check_crp(ens, [GOOD], w, 1, 0),
    "check_bcp-T": lambda ens, w: check_bcp(ens, [1] * 16, [w], 1, 0),
}
BAD_WORDS = {
    "short": ([1, 0], "length mismatch"),
    "long": ([1, 0, 0, 0, 0], "length mismatch"),
    "symbol": ([0, 3, 0, 0], "symbol outside the alphabet"),
    "negative": ([0, -1, 0, 0], "symbol outside the alphabet"),
}


@pytest.mark.parametrize("bad", BAD_WORDS.values(), ids=BAD_WORDS.keys())
@pytest.mark.parametrize("call", WORD_INPUTS.values(), ids=WORD_INPUTS.keys())
def test_word_inputs_are_checked(call, bad):
    ens = AllLinearEnsemble(4, 1, GF2)
    word, message = bad
    call(ens, [1, 0, 1, 0])                      # a well-formed word is accepted
    with pytest.raises(ValueError, match=f"word {message}"):
        call(ens, word)


# batched word inputs, fed the list of words ws
BATCH_INPUTS = {
    "check_h3prime-T": lambda ens, ws: check_h3prime(ens, ws, [GOOD], 1, 0),
    "check_h3prime-Tp": lambda ens, ws: check_h3prime(ens, [GOOD], ws, 1, 0),
    "check_crp-G": lambda ens, ws: check_crp(ens, ws, GOOD, 1, 0),
    "check_bcp-T": lambda ens, ws: check_bcp(ens, [1] * 16, ws, 1, 0),
}


@pytest.mark.parametrize("call", BATCH_INPUTS.values(), ids=BATCH_INPUTS.keys())
def test_ragged_word_lists_are_a_length_mismatch(call):
    """Words of several lengths in one list are refused as such, not by numpy."""
    ens = AllLinearEnsemble(4, 1, GF2)
    call(ens, [GOOD, [1, 0, 1, 0]])
    for ragged in ([GOOD, [1, 0]], [[1, 0], GOOD], [GOOD, [1, 0, 0, 0, 0]]):
        with pytest.raises(ValueError, match="word length mismatch"):
            call(ens, ragged)


@pytest.mark.parametrize("bad", BAD_WORDS.values(), ids=BAD_WORDS.keys())
def test_algebraic_collision_prob_checks_its_word(bad):
    """diff must be a length-n word over GF(q), as every other word input is."""
    ens = SparseTauEnsemble(EnsembleSpec(n=4, l=2, field=GF2, tau=2))
    word, message = bad
    assert ens.collision_prob_algebraic([1, 0, 0, 0]) == Fraction(1, 2)
    with pytest.raises(ValueError, match=f"word {message}"):
        ens.collision_prob_algebraic(word)
    with pytest.raises(ValueError, match="word length mismatch"):
        ens.collision_prob_algebraic([1, 0, 0, 0, 0, 0, 1])


# ---------------------------------------------------------------------------
# products
# ---------------------------------------------------------------------------

def test_product_of_all_linear_is_two_universal():
    ea = AllLinearEnsemble(3, 1, GF2)
    eb = AllLinearEnsemble(3, 1, GF2)
    prod = ProductEnsemble(ea, eb)
    scan = ExactScan(prod)
    V = all_vectors(2, 3)
    for iu, iv in itertools.combinations(range(8), 2):
        assert scan.collision_prob(iu, iv) == Fraction(1, 4)
    ab = compose_alpha_beta(
        alpha_beta(avg_spectrum(ea), frozenset(all_types(3, 2)), ExactScan(ea).im_size()),
        alpha_beta(avg_spectrum(eb), frozenset(all_types(3, 2)), ExactScan(eb).im_size()))
    assert ab.alpha == 1 and ab.beta == 0
    ok, _ = check_h3(prod, V[3], ab.alpha, ab.beta, scan)
    assert ok


def test_compose_alpha_beta_formula():
    a = compose_alpha_beta(
        AlphaBetaStub(Fraction(12, 10), Fraction(1, 100)),
        AlphaBetaStub(Fraction(11, 10), Fraction(2, 100)))
    assert a.alpha == Fraction(132, 100)
    assert a.beta == Fraction(3, 100)


class AlphaBetaStub:
    def __init__(self, alpha, beta):
        self.alpha, self.beta, self.h_hat = alpha, beta, frozenset()


def test_product_of_sparse_tau_passes_h3_with_composed_pair():
    spec = EnsembleSpec(n=4, l=2, field=GF2, tau=2)
    ea, eb = SparseTauEnsemble(spec), SparseTauEnsemble(spec)
    h_hat = default_h_hat(4, 2, 0.1)
    im_a = ExactScan(ea).im_size()
    ab_a = alpha_beta(avg_spectrum(ea), h_hat, im_a)
    ab_b = alpha_beta(avg_spectrum(eb), h_hat, im_a)
    prod = ProductEnsemble(ea, eb)
    scan = ExactScan(prod)
    ab = compose_alpha_beta(ab_a, ab_b)
    V = all_vectors(2, 4)
    for iu in (1, 6, 11):
        ok, _ = check_h3(prod, V[iu], ab.alpha, ab.beta, scan)
        assert ok
