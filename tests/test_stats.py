import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import rankdata

import dmrislice.stats as stats
from dmrislice.errors import DegenerateSample
from dmrislice.stats import _approx_two_sided_p, _exact_two_sided_p, wilcoxon_signed_rank


def brute_force_two_sided_p(diffs, w_obs):
    """Enumerate all sign assignments of |d| ranks (distinct |d| assumed)."""
    ranks = rankdata(np.abs(diffs))
    n = len(ranks)
    stats = []
    for signs in itertools.product((0, 1), repeat=n):
        stats.append(sum(r for r, s in zip(ranks, signs) if s))
    stats = np.array(stats)
    cdf_le = np.mean(stats <= w_obs)
    cdf_ge = np.mean(stats >= w_obs)
    return min(1.0, 2.0 * min(cdf_le, cdf_ge))


def test_all_positive_n5():
    x = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
    y = np.zeros(5)
    w, p = wilcoxon_signed_rank(x, y)
    assert w == 15.0
    assert p == pytest.approx(2.0 / 32.0, abs=1e-12)


def test_identical_samples_degenerate():
    x = np.arange(6, dtype=float)
    with pytest.raises(DegenerateSample):
        wilcoxon_signed_rank(x, x)


def test_too_few_nonzero():
    x = np.array([1.0, 0.0, 0.0, 0.0, 0.0, 0.0])
    with pytest.raises(DegenerateSample):
        wilcoxon_signed_rank(x, np.zeros(6))


def test_swap_symmetry():
    rng = np.random.default_rng(0)
    x = rng.standard_normal(10)
    y = rng.standard_normal(10)
    w1, p1 = wilcoxon_signed_rank(x, y)
    w2, p2 = wilcoxon_signed_rank(y, x)
    n = 10
    assert w1 + w2 == pytest.approx(n * (n + 1) / 2)
    assert p1 == pytest.approx(p2, abs=1e-12)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 100_000))
def test_exact_matches_brute_force(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(5, 10))
    d = rng.standard_normal(n)
    # regenerate until |d| are distinct so the brute force has no ties
    while len(np.unique(np.abs(d))) != n:
        d = rng.standard_normal(n)
    x = d
    y = np.zeros(n)
    w, p = wilcoxon_signed_rank(x, y)
    assert p == pytest.approx(brute_force_two_sided_p(d, w), abs=1e-12)


def test_exact_handles_ties_via_midranks():
    x = np.array([1.0, 1.0, 2.0, 2.0, 3.0, -1.0])
    y = np.zeros(6)
    w, p = wilcoxon_signed_rank(x, y)
    assert 0.0 < p <= 1.0


def test_exact_vs_normal_agreement_at_n20():
    rng = np.random.default_rng(42)
    for _ in range(10):
        x = rng.standard_normal(20)
        y = rng.standard_normal(20)
        d = x - y
        ranks = rankdata(np.abs(d))
        w = float(ranks[d > 0].sum())
        assert abs(_exact_two_sided_p(ranks, w) - _approx_two_sided_p(ranks, w)) < 0.02


def test_matches_scipy_exact():
    from scipy.stats import wilcoxon as scipy_wilcoxon

    rng = np.random.default_rng(7)
    for _ in range(8):
        x = rng.standard_normal(12)
        y = rng.standard_normal(12)
        w, p = wilcoxon_signed_rank(x, y)
        ref = scipy_wilcoxon(x, y, alternative="two-sided", method="exact")
        # scipy reports min(W+, W-); ours is W+
        assert p == pytest.approx(ref.pvalue, abs=1e-10)


def test_p_in_unit_interval():
    rng = np.random.default_rng(3)
    for n in (5, 15, 25, 40):
        x = rng.standard_normal(n)
        y = rng.standard_normal(n)
        _, p = wilcoxon_signed_rank(x, y)
        assert 0.0 < p <= 1.0


@pytest.mark.parametrize("n", [5, 12, 20, 21, 60])
def test_midranks_equal_rankdata_on_ties(monkeypatch, n):
    # The ranks both p-value paths receive, against scipy's average ranks.
    seen = []
    for name in ("_exact_two_sided_p", "_approx_two_sided_p"):
        path = getattr(stats, name)
        monkeypatch.setattr(stats, name, lambda r, w, path=path: seen.append((r, w)) or path(r, w))
    rng = np.random.default_rng(n)
    for _ in range(40):
        d = rng.integers(1, 4, n) * rng.choice([-0.5, 0.5, 1.5], n)  # few distinct |d|
        if len(np.unique(np.abs(d))) == 1:
            continue  # all tied: the normal approximation has no variance
        seen.clear()
        wilcoxon_signed_rank(d, np.zeros(n))
        ranks, w = seen[0]
        expected = rankdata(np.abs(d))
        assert np.array_equal(ranks, expected)
        assert w == float(expected[d > 0].sum())


@pytest.mark.parametrize("n", [6, 25])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_pair_is_degenerate(n, bad):
    x = np.arange(1.0, n + 1)
    y = np.zeros(n)
    y[3] = bad
    with pytest.raises(DegenerateSample, match=r"pair 3 is not finite"):
        wilcoxon_signed_rank(x, y)
    with pytest.raises(DegenerateSample, match=r"pair 3 is not finite"):
        wilcoxon_signed_rank(y, x)
