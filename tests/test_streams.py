import numpy as np
import pytest

from cosetcode.streams import sample_pmf


class FixedUniform:
    """A stand-in rng whose every uniform is u."""

    def __init__(self, u):
        self.u = u

    def random(self):
        return self.u


@pytest.mark.parametrize("u, want", [(0.0, 0), (0.19, 0), (0.2, 1), (0.49, 1), (0.5, 3),
                                     (0.999, 3)])
def test_sample_pmf_picks_the_first_index_where_u_is_below_the_running_sum(u, want):
    assert sample_pmf(FixedUniform(u), [0.2, 0.3, 0.0, 0.5]) == want   # never the zero


def test_sample_pmf_past_a_rounded_total_returns_the_last_index_with_mass():
    pmf = [0.1] * 10                                  # sums to 1 - 2**-53, not 1
    top = float(np.nextafter(1.0, 0.0))
    assert sum(pmf) <= top
    assert sample_pmf(FixedUniform(top), pmf) == 9
    assert sample_pmf(FixedUniform(top), pmf + [0.0, 0.0]) == 9   # trailing zeros skipped
    assert sample_pmf(FixedUniform(0.5), [0.0, 0.0]) == 1          # no mass at all


def test_sample_pmf_reads_a_list_as_the_array_it_holds():
    rng = np.random.default_rng(3)
    for q in (2, 3, 5):
        for _ in range(50):
            pmf = rng.dirichlet(np.ones(q)) * (rng.random(q) < 0.8)
            for u in (*rng.random(8), 0.0, float(np.nextafter(1.0, 0.0))):
                assert sample_pmf(FixedUniform(u), pmf.tolist()) == \
                    sample_pmf(FixedUniform(u), pmf)
