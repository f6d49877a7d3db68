"""Host speed, read from a fixed reference kernel timed between measured work.

On a shared virtual machine the same code runs 1.3-1.5x faster or slower
from one minute to the next, with no steal time to show for it: another
tenant's load slows the whole core.  A fixed kernel timed right after each
trial or build slows with it (over 20 s, trial and reference rates moved
with a correlation of about 0.97 on 2 vCPUs), so the benchmark states each
measured time at a nominal host speed:

    adjusted = measured * REF_NOMINAL_S / (mean of the WINDOW nearest reference times)

The kernel is plain numpy and Python, independent of the library, and
allocates nothing once loaded, so the library's heap state does not change
its cost.  The raw wall-clock figures are printed next to the adjusted ones.
"""

import mmap
import time

import numpy as np

# the reference time that adjusted figures are stated at (about this kernel's
# median on a 2-vCPU Xeon VM with numpy 2.4)
REF_NOMINAL_S = 0.006
# reference times averaged for one measured operation, centred on it
WINDOW = 32
# after an operation, the reference runs for at least this share of its time
COVER = 0.1
WARM = 4

_rng = np.random.default_rng(12345)
_A = _rng.random(1 << 16)
_B = np.empty_like(_A)
_IDX = _rng.integers(0, 4096, size=200_000)
_V = np.zeros(4096)
_S = _rng.random(64)
_T = np.empty_like(_S)
_BIG = _rng.random(1 << 19)             # 4 MiB, past the per-core cache
_BIG2 = np.empty_like(_BIG)
PAGES = 256
SHIFTS = (1, 3, 7, 15, 31, 63) * 4


def reference() -> int:
    """A fixed mix of array passes over 512 KiB and 4 MiB, scattered adds,
    small-array calls, interpreted Python and fresh pages, on preloaded
    buffers and a private mapping rather than the malloc heap."""
    a, b = _A, _B
    for s in SHIFTS:
        np.copyto(b[s:], a[:-s])
        np.copyto(b[:s], a[-s:])
        a += b
        a *= 0.5
    _V[:] = 0.0
    np.add.at(_V, _IDX, 1.0)
    for _ in range(200):
        np.multiply(_S, 0.5, out=_T)
        np.add(_T, 0.25, out=_S)
    np.multiply(_BIG, 1.0, out=_BIG2)
    np.multiply(_BIG2, 1.0, out=_BIG)
    with mmap.mmap(-1, PAGES * mmap.PAGESIZE) as m:
        np.frombuffer(m, dtype=np.uint8)[::mmap.PAGESIZE] = 1
    acc = 0
    for i in range(15_000):
        acc += i & 7
    return acc


class HostSpeed:
    """Reference times interleaved with measured operations."""

    def __init__(self):
        self.refs: list[float] = []
        for _ in range(WARM):
            reference()

    def after(self, seconds: float) -> int:
        """Run the reference for COVER of `seconds`, at least once; returns the
        position of the operation just measured among the reference times."""
        pos, spent = len(self.refs), 0.0
        while spent < COVER * seconds or len(self.refs) == pos:
            t0 = time.perf_counter()
            reference()
            d = time.perf_counter() - t0
            self.refs.append(d)
            spent += d
        return pos

    def scale(self, pos: int) -> float:
        """REF_NOMINAL_S over the mean of the WINDOW reference times nearest `pos`."""
        lo = max(0, min(pos - WINDOW // 2, len(self.refs) - WINDOW))
        return REF_NOMINAL_S / float(np.mean(self.refs[lo:lo + WINDOW]))

    def median_ms(self) -> float:
        return float(np.median(self.refs)) * 1e3 if self.refs else 0.0
