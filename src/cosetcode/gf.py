"""Prime field GF(q) arithmetic.

Elements are plain ints in [0, q) and vectors are numpy integer arrays,
reduced mod q where they are used; the GF context object carries the
modulus and an inverse table.
"""

import numpy as np


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


class GF:
    """Arithmetic context for the prime field GF(q), 2 <= q < 2**16."""

    def __init__(self, q: int):
        if not isinstance(q, (int, np.integer)):
            raise ValueError(f"field order must be an integer, got {q!r}")
        q = int(q)
        if not (2 <= q < 2 ** 16):
            raise ValueError(f"field order must satisfy 2 <= q < 2**16, got {q}")
        if not _is_prime(q):
            raise ValueError(f"field order must be prime, got {q}")
        self.q = q
        self._inv = None  # inverse table, built on first use

    @property
    def inv_table(self) -> np.ndarray:
        """table[a] = a^-1 for a in 1..q-1 (table[0] = 0, never a valid inverse)."""
        if self._inv is None:
            q = self.q
            t = np.zeros(q, dtype=np.int64)
            for a in range(1, q):
                t[a] = pow(a, q - 2, q)
            self._inv = t
        return self._inv

    # -- identity ---------------------------------------------------------

    def __eq__(self, other):
        return isinstance(other, GF) and other.q == self.q

    def __hash__(self):
        return hash(("GF", self.q))

    def __repr__(self):
        return f"GF({self.q})"
