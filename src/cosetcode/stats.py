"""Small statistics helpers shared by simulators and tests."""

import math

import numpy as np


def entropy_bits(pmf) -> float:
    p = np.asarray(pmf, dtype=float)
    nz = p[p > 0]
    return float(-(nz * np.log2(nz)).sum())


def binary_entropy(p: float) -> float:
    """h(p) in bits; ValueError unless 0 <= p <= 1, which refuses NaN."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"need 0 <= p <= 1: got {p}")
    if p in (0.0, 1.0):
        return 0.0
    return -p * math.log2(p) - (1 - p) * math.log2(1 - p)


def wilson_interval(successes: int, trials: int):
    """Two-sided 99% Wilson score interval for successes out of trials."""
    if not 0 <= successes <= trials or trials <= 0:
        raise ValueError(f"need 0 <= successes <= trials, trials > 0: got {successes}, {trials}")
    z = 2.5758293035489004      # the two-sided 99% normal quantile
    phat = successes / trials
    z2 = z * z
    denom = 1 + z2 / trials
    center = (phat + z2 / (2 * trials)) / denom
    half = z * math.sqrt(phat * (1 - phat) / trials + z2 / (4 * trials * trials)) / denom
    return (max(0.0, center - half) if successes else 0.0,      # exact at the ends, where
            min(1.0, center + half) if successes < trials else 1.0)   # rounding misses 0 and 1


def chi2_quantile(df: int, p: float) -> float:
    """Wilson-Hilferty approximation, adequate for goodness-of-fit gates."""
    if df < 1:
        raise ValueError(f"df must be at least 1, got {df}")
    z = _normal_quantile(p)
    a = 2.0 / (9.0 * df)
    return df * (1 - a + z * math.sqrt(a)) ** 3


def _normal_quantile(p: float) -> float:
    # Acklam's rational approximation; |error| < 1.15e-9 over (0,1)
    if not 0.0 < p < 1.0:
        raise ValueError("p must be in (0,1)")
    a = [-3.969683028665376e+01, 2.209460984245205e+02, -2.759285104469687e+02,
         1.383577518672690e+02, -3.066479806614716e+01, 2.506628277459239e+00]
    b = [-5.447609879822406e+01, 1.615858368580409e+02, -1.556989798598866e+02,
         6.680131188771972e+01, -1.328068155288572e+01]
    c = [-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e+00,
         -2.549732539343734e+00, 4.374664141464968e+00, 2.938163982698783e+00]
    d = [7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e+00,
         3.754408661907416e+00]
    plow, phigh = 0.02425, 1 - 0.02425
    if p < plow:
        ql = math.sqrt(-2 * math.log(p))
        return (((((c[0] * ql + c[1]) * ql + c[2]) * ql + c[3]) * ql + c[4]) * ql + c[5]) / \
               ((((d[0] * ql + d[1]) * ql + d[2]) * ql + d[3]) * ql + 1)
    if p > phigh:
        ql = math.sqrt(-2 * math.log(1 - p))
        return -(((((c[0] * ql + c[1]) * ql + c[2]) * ql + c[3]) * ql + c[4]) * ql + c[5]) / \
               ((((d[0] * ql + d[1]) * ql + d[2]) * ql + d[3]) * ql + 1)
    ql = p - 0.5
    r = ql * ql
    return (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r + a[5]) * ql / \
           (((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1)


def chi_square_stat(counts, expected) -> float:
    """Pearson's statistic over the cells with positive expectation; inf when a
    cell expected to stay empty holds counts, which no sample of the law can do."""
    counts = np.asarray(counts, dtype=float)
    expected = np.asarray(expected, dtype=float)
    mask = expected > 0
    if np.any(counts[~mask]):
        return math.inf
    return float(((counts[mask] - expected[mask]) ** 2 / expected[mask]).sum())
