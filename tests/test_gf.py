import numpy as np
import pytest

from cosetcode.gf import GF, _is_prime

SMALL_PRIMES = [2, 3, 5, 7]


def test_construction_rejects_composites_and_bounds():
    for bad in [0, 1, 4, 6, 9, 15, 2 ** 16 + 1]:
        with pytest.raises(ValueError):
            GF(bad)
    for bad in [2.0, "3", None]:
        with pytest.raises(ValueError):
            GF(bad)
    assert GF(np.int64(5)).q == 5
    GF(65521)  # largest prime below 2**16


def test_trivial_examples():
    assert GF(5).inv_table[3] == 2
    assert GF(2).inv_table[1] == 1
    assert GF(7).inv_table[6] == 6
    assert GF(3) == GF(3) and GF(3) != GF(5) and GF(3) != 3
    assert hash(GF(3)) == hash(GF(3))
    assert repr(GF(7)) == "GF(7)"


def test_inv_table_maps_zero_to_zero():
    for q in SMALL_PRIMES + [251, 65521]:
        assert GF(q).inv_table[0] == 0


@pytest.mark.parametrize("q", SMALL_PRIMES)
def test_field_axioms_exhaustive(q):
    # inversion is an involution and a homomorphism of the multiplicative group
    inv = GF(q).inv_table
    for a in range(1, q):
        assert inv[inv[a]] == a
        for b in range(1, q):
            assert inv[a * b % q] == inv[a] * inv[b] % q


def test_field_axioms_randomized_larger_fields():
    rng = np.random.default_rng(7)
    for q in [11, 101, 251, 65521]:
        inv = GF(q).inv_table
        a = rng.integers(1, q, size=64)
        assert np.all(a * inv[a] % q == 1)
        assert np.array_equal(inv[inv[a]], a)


def test_inverses_exhaustive_up_to_251():
    for q in [p for p in range(2, 252) if _is_prime(p)]:
        a = np.arange(1, q)
        assert np.all(a * GF(q).inv_table[a] % q == 1)


def test_is_prime_helper():
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23}
    for n in range(25):
        assert _is_prime(n) == (n in primes)
