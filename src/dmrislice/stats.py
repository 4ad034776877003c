"""Paired Wilcoxon signed-rank test with an exact small-sample distribution.

The statistic W is the sum of ranks of the positive differences. For n <= 20
usable pairs the two-sided p-value comes from the exact null distribution of
W (all 2^n sign assignments, enumerated by dynamic programming on midranks);
larger samples use the normal approximation with tie correction and a
continuity correction. The sample size alone picks the path; both take the
same midranks and W.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DegenerateSample, ShapeError

EXACT_LIMIT = 20


def _exact_two_sided_p(ranks: np.ndarray, w: float) -> float:
    # Work on doubled ranks so midranks from ties stay integral.
    r2 = np.round(2.0 * ranks).astype(np.int64)
    total = int(r2.sum())
    counts = np.zeros(total + 1, dtype=np.float64)
    counts[0] = 1.0
    for r in r2:
        shifted = np.zeros_like(counts)
        shifted[r:] = counts[: total + 1 - r]
        counts = counts + shifted
    counts /= counts.sum()
    w2 = int(round(2.0 * w))
    cdf_le = counts[: w2 + 1].sum()
    cdf_ge = counts[w2:].sum()
    return float(min(1.0, 2.0 * min(cdf_le, cdf_ge)))


def _approx_two_sided_p(ranks: np.ndarray, w: float) -> float:
    n = ranks.shape[0]
    mean = n * (n + 1) / 4.0
    var = n * (n + 1) * (2 * n + 1) / 24.0
    # Tie correction: subtract sum(t^3 - t)/48 over groups of tied |d|.
    _, tie_counts = np.unique(ranks, return_counts=True)
    # Positive for n >= 1: with every |d| tied it is still n(n+1)(3n+3)/48.
    var -= float(((tie_counts**3 - tie_counts) / 48.0).sum())
    dev = w - mean
    correction = 0.5 * np.sign(dev)
    z = (dev - correction) / math.sqrt(var)
    p = math.erfc(abs(z) / math.sqrt(2.0))
    return float(min(1.0, max(p, np.finfo(float).tiny)))


def wilcoxon_signed_rank(x, y) -> tuple[float, float]:
    """Two-sided paired Wilcoxon signed-rank test.

    Returns (W, p) where W is the positive-rank sum. Zero differences are
    discarded; a non-finite pair or fewer than 5 usable pairs raises
    DegenerateSample. The p-value is exact up to ``EXACT_LIMIT`` usable
    pairs and approximate above.
    """
    x = np.asarray(x, dtype=np.float64).ravel()
    y = np.asarray(y, dtype=np.float64).ravel()
    if x.shape != y.shape:
        raise ShapeError(f"paired samples differ in length: {x.shape} vs {y.shape}")
    finite = np.isfinite(x) & np.isfinite(y)
    if not finite.all():
        i = int(np.argmin(finite))
        raise DegenerateSample(f"pair {i} is not finite: ({x[i]}, {y[i]})")

    d = x - y
    d = d[d != 0]
    n = d.shape[0]
    if n == 0:
        raise DegenerateSample("all paired differences are zero")
    if n < 5:
        raise DegenerateSample(f"only {n} nonzero differences, need at least 5")

    # Midranks: a group of c tied |d| whose last rank is e gets e - (c-1)/2.
    _, group, counts = np.unique(np.abs(d), return_inverse=True, return_counts=True)
    ranks = (np.cumsum(counts) - (counts - 1) / 2.0)[group]
    w = float(ranks[d > 0].sum())

    if n <= EXACT_LIMIT:
        p = _exact_two_sided_p(ranks, w)
    else:
        p = _approx_two_sided_p(ranks, w)
    return w, p
