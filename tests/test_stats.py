import math

import pytest

from cosetcode.stats import binary_entropy, chi2_quantile, chi_square_stat, wilson_interval


@pytest.mark.parametrize("successes, trials", [(3, 2), (-1, 5), (6, 5), (1, 0), (0, -3)])
def test_wilson_interval_refuses_impossible_counts(successes, trials):
    with pytest.raises(ValueError):
        wilson_interval(successes, trials)


@pytest.mark.parametrize("trials", [1, 7, 1000])
def test_wilson_interval_covers_the_rate_at_every_possible_count(trials):
    for successes in range(trials + 1):
        lo, hi = wilson_interval(successes, trials)
        assert 0.0 <= lo <= successes / trials <= hi <= 1.0
    assert wilson_interval(0, trials)[0] == 0.0 and wilson_interval(trials, trials)[1] == 1.0


@pytest.mark.parametrize("df", [0, -1])
def test_chi2_quantile_refuses_df_below_one(df):
    with pytest.raises(ValueError, match="df"):
        chi2_quantile(df, 0.999)


def test_chi2_quantile_is_near_the_tabled_values():
    # upper 0.1% points of the chi-square law, to four figures
    for df, want in [(1, 10.83), (5, 20.52), (30, 59.70)]:
        assert math.isclose(chi2_quantile(df, 0.999), want, rel_tol=0.05)


@pytest.mark.parametrize("p", [1.5, -0.2, math.nan, math.inf])
def test_binary_entropy_refuses_p_outside_0_1(p):
    with pytest.raises(ValueError, match="0 <= p <= 1"):
        binary_entropy(p)


def test_binary_entropy_is_0_at_the_ends_and_1_at_a_half():
    assert binary_entropy(0.0) == binary_entropy(1.0) == 0.0
    assert binary_entropy(0.5) == 1.0
    assert binary_entropy(0.11) == pytest.approx(0.4999, abs=1e-4)


def test_chi_square_stat_is_inf_on_counts_in_a_zero_probability_cell():
    """Mass on an impossible outcome fails any gate; an empty zero cell adds nothing."""
    assert chi_square_stat([50, 50, 1], [50.0, 50.0, 0.0]) == math.inf
    assert chi_square_stat([50, 50, 0], [50.0, 50.0, 0.0]) == 0.0
    assert chi_square_stat([40, 60], [50.0, 50.0]) == pytest.approx(4.0)
