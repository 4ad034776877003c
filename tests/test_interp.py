import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dmrislice.errors import BoundaryGap
from dmrislice.interp import _z_weights, bspline5, interp_missing_slices, keys_cubic, kernel_eval
from dmrislice.volume import GapSpec, Volume4D


def dense_prefilter_oracle(x):
    """Solve the mirror-boundary quintic interpolation system directly."""
    n = len(x)
    period = 2 * n - 2
    a = np.zeros((n, n))
    for i in range(n):
        for j_virtual in range(-5, n + 5):
            j = abs(j_virtual) % period
            if j >= n:
                j = period - j
            a[i, j] += bspline5(i - j_virtual)
    return np.linalg.solve(a, x)


def direct_kernel_oracle(samples, positions, method):
    """Kernel taps applied directly to a mirror-extended stack (axis 0); for
    bspline5 to the extension of dense_prefilter_oracle's coefficients."""
    c = np.asarray(samples, dtype=float)
    n = c.shape[0]
    if method == "bspline5":
        c = dense_prefilter_oracle(c.reshape(n, -1)).reshape(c.shape)
    pad = 3  # the widest kernel support's half-width
    ext = np.pad(c, [(pad, pad)] + [(0, 0)] * (c.ndim - 1), mode="reflect")
    kernel = keys_cubic if method == "cubic" else bspline5
    return np.stack(
        [sum(kernel(p - k) * ext[k + pad] for k in range(-pad, n + pad)) for p in positions]
    )


def test_kernel_linear():
    assert np.allclose(kernel_eval("linear", 0.5), [0.5, 0.5])
    assert np.allclose(kernel_eval("linear", 0.0), [1.0, 0.0])


def test_kernel_cubic_interpolation_condition():
    assert np.allclose(kernel_eval("cubic", 0.0), [0.0, 1.0, 0.0, 0.0], atol=1e-15)


def test_kernel_bspline5_at_zero():
    expected = np.array([1.0, 26.0, 66.0, 26.0, 1.0, 0.0]) / 120.0
    assert np.allclose(kernel_eval("bspline5", 0.0), expected, atol=1e-15)


@settings(max_examples=100, deadline=None)
@given(st.floats(0.0, 1.0, exclude_max=True))
def test_partition_of_unity(t):
    for kind in ("linear", "cubic", "bspline5"):
        assert abs(kernel_eval(kind, t).sum() - 1.0) < 1e-12


def test_prefilter_constant():
    out = _z_weights(4, [0.0, 0.5, 1.25, 2.75, 3.0], "bspline5") @ np.full(4, 5.0)
    assert np.allclose(out, 5.0, atol=1e-12)


def test_prefilter_matches_dense_solve():
    rng = np.random.default_rng(1)
    x = rng.standard_normal(16)
    positions = [0.3, 2.5, 7.75, 14.9]
    expected = direct_kernel_oracle(x, positions, "bspline5")
    assert np.abs(_z_weights(16, positions, "bspline5") @ x - expected).max() < 1e-8


def test_prefilter_long_line_matches_dense_solve():
    rng = np.random.default_rng(2)
    x = rng.standard_normal(400)
    positions = [0.5, 1.25, 199.6, 398.75]
    expected = direct_kernel_oracle(x, positions, "bspline5")
    assert np.abs(_z_weights(400, positions, "bspline5") @ x - expected).max() < 1e-8


def test_interpolation_condition_all_methods():
    rng = np.random.default_rng(3)
    stack = rng.standard_normal((9, 4, 4, 2))
    for kind in ("linear", "cubic", "bspline5"):
        rec = _z_weights(9, [3.0], kind) @ stack.reshape(9, -1)
        assert np.abs(rec[0] - stack[3].ravel()).max() < 1e-8


def test_linear_midpoint():
    vol = np.zeros((3, 3, 3, 1))
    vol[:, :, 2, :] = 2.0
    out = interp_missing_slices(Volume4D(vol), GapSpec(1, 1), "linear")
    assert np.allclose(out[0].data, 1.0)


def test_linear_two_slice_weights_exact():
    vol = np.zeros((2, 2, 6, 1))
    a, b = 7.0, 1.0  # neighbors below (z=1) and above (z=4)
    vol[:, :, 1, :] = a
    vol[:, :, 4, :] = b
    out = interp_missing_slices(Volume4D(vol), GapSpec(2, 2), "linear")
    assert np.allclose(out[0].data, (2 * a + b) / 3.0)
    assert np.allclose(out[1].data, (a + 2 * b) / 3.0)


def gap_positions(gap: GapSpec) -> list[float]:
    """Fractional positions of the missing slices on the remaining grid."""
    return [(gap.gap_start - 1) + w_next for _, w_next in gap.weights]


def test_gap_positions():
    assert gap_positions(GapSpec(3, 1)) == [2.5]
    assert gap_positions(GapSpec(3, 2)) == [2 + 1 / 3, 2 + 2 / 3]


def test_cubic_reproduces_quadratic_profiles():
    # Per-voxel quadratic z-profile evaluated directly is the oracle: the
    # Keys kernel reproduces degree 2 on the uniform remaining grid, and
    # removing the gap keeps the neighbor samples uniformly spaced there.
    rng = np.random.default_rng(4)
    coef = rng.standard_normal((3, 2, 2))  # (a, b, c) shared per test voxel grid
    z = np.arange(24, dtype=float)
    stack = coef[0][None] + coef[1][None] * z[:, None, None] + coef[2][None] * z[:, None, None] ** 2
    vol = Volume4D(np.moveaxis(stack, 0, 2)[:, :, :, None])
    out = interp_missing_slices(vol, GapSpec(11, 1), "cubic")
    # with one slice removed the 4 cubic taps sit at -1.5, -0.5, +0.5, +1.5
    # slice spacings around the target: evaluate the polynomial there directly
    zs = np.array([zz for zz in range(24) if zz != 11], dtype=float)
    pos_remaining = 10.5  # between neighbors z=10 and z=12
    taps = [9, 10, 12, 13]
    weights = kernel_eval("cubic", 0.5)
    expected = sum(
        w * (coef[0] + coef[1] * zz + coef[2] * zz**2) for w, zz in zip(weights, np.array(taps, float))
    )
    assert np.abs(out[0].data[..., 0] - expected).max() < 1e-10


def test_polynomial_reproduction_on_uniform_grid():
    # degree-1 for linear, degree-2 for cubic, degree-3 for bspline5; the
    # quintic prefilter's mirror boundary influence decays like 0.43^d, so
    # evaluation stays deep in the interior of a long line.
    z = np.arange(64, dtype=float)
    positions = [30.25, 31.5, 32.75]
    import numpy.polynomial.polynomial as poly

    coefs = {
        "linear": [0.0, 1.0],
        "cubic": [1.0, 2.0, -0.7],
        "bspline5": [2.0, -1.0, 0.5, -0.05],
    }
    for kind, c in coefs.items():
        line = poly.polyval(z, np.array(c))[:, None]
        rec = _z_weights(len(z), positions, kind) @ line
        expected = poly.polyval(np.array(positions), np.array(c))
        scale = max(1.0, np.abs(expected).max())
        assert np.abs(rec[:, 0] - expected).max() < 1e-8 * scale


def test_linearity_of_interpolation():
    rng = np.random.default_rng(5)
    v = rng.standard_normal((2, 2, 8, 1))
    w = rng.standard_normal((2, 2, 8, 1))
    alpha = 2.75
    for kind in ("linear", "cubic", "bspline5"):
        gap = GapSpec(3, 1)
        a = interp_missing_slices(Volume4D(alpha * v + w), gap, kind)[0].data
        b = interp_missing_slices(Volume4D(v), gap, kind)[0].data
        c = interp_missing_slices(Volume4D(w), gap, kind)[0].data
        assert np.abs(a - (alpha * b + c)).max() < 1e-10


@pytest.mark.parametrize("kind", ["cubic", "bspline5"])
def test_boundary_gaps_match_direct_kernel_oracle(kind):
    # Gaps next to either end of the stack put taps in the mirror zone.
    rng = np.random.default_rng(7)
    v = rng.standard_normal((3, 2, 7, 2))
    for n_missing in (1, 2):
        for gap_start in range(1, 7 - n_missing):
            gap = GapSpec(gap_start, n_missing)
            out = interp_missing_slices(Volume4D(v), gap, kind)
            kept = np.delete(v, range(gap_start, gap_start + n_missing), axis=2)
            expected = direct_kernel_oracle(np.moveaxis(kept, 2, 0), gap_positions(gap), kind)
            for got, want in zip(out, expected):
                assert np.abs(got.data - want).max() < 1e-12


def test_smallest_stack_gives_the_midpoint():
    rng = np.random.default_rng(8)
    v = rng.standard_normal((2, 3, 3, 2))
    midpoint = (v[:, :, 0, :] + v[:, :, 2, :]) / 2.0
    for kind in ("linear", "cubic", "bspline5"):
        out = interp_missing_slices(Volume4D(v), GapSpec(1, 1), kind)[0].data
        assert np.abs(out - midpoint).max() < 1e-14


def test_boundary_gap_rejected():
    vol = Volume4D(np.zeros((2, 2, 5, 1)))
    with pytest.raises(BoundaryGap):
        interp_missing_slices(vol, GapSpec(0, 1), "linear")
    with pytest.raises(BoundaryGap):
        interp_missing_slices(vol, GapSpec(4, 1), "linear")
    with pytest.raises(BoundaryGap):
        interp_missing_slices(vol, GapSpec(3, 2), "linear")


def test_interp_fill_replaces_gap_only():
    rng = np.random.default_rng(6)
    vol = Volume4D(rng.standard_normal((3, 3, 7, 2)))
    gap = GapSpec(3, 1)
    filled = vol.data.copy()
    filled[:, :, gap.slab] = interp_missing_slices(vol, gap, "linear")[0].data[:, :, None]
    keep = [z for z in range(7) if z != 3]
    assert np.array_equal(filled[:, :, keep, :], vol.data[:, :, keep, :])
    assert not np.array_equal(filled[:, :, 3, :], vol.data[:, :, 3, :])
