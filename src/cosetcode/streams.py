"""Counter-based splittable random streams.

Every stream is a numpy Generator over a Philox engine keyed by the
experiment seed plus a mixing of integer path components, so that trial k
of run r always sees the same stream no matter how work is scheduled
across threads.
"""

import numpy as np

_MASK64 = (1 << 64) - 1


def _mix(*parts: int) -> int:
    # splitmix64-style avalanche over the path components
    h = 0x9E3779B97F4A7C15
    for p in parts:
        h = (h ^ (int(p) & _MASK64)) * 0xBF58476D1CE4E5B9 & _MASK64
        h = (h ^ (h >> 27)) * 0x94D049BB133111EB & _MASK64
        h ^= h >> 31
    return h


def stream(seed: int, *path: int) -> np.random.Generator:
    """Derive an independent Generator from (seed, path).

    Same (seed, path) -> identical stream on every platform and under any
    thread count; distinct paths give statistically independent streams.
    """
    key = np.array([int(seed) & _MASK64, _mix(*path)], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def sample_pmf(rng: np.random.Generator, pmf) -> int:
    """The first index where one uniform falls below a pmf's running sum; any sequence."""
    u = rng.random()
    acc = 0.0
    for i, p in enumerate(pmf):
        acc += p
        if u < acc:
            return i
    # rounding left u at or above the total: the last index with positive mass
    return max((i for i, p in enumerate(pmf) if p > 0), default=len(pmf) - 1)
