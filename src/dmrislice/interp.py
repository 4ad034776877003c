"""Classical through-plane interpolation: linear, Keys cubic, and quintic
B-spline.

Because the in-plane grids of adjacent slices are identical, the paper-style
trilinear/tricubic interpolation of missing slices reduces to 1-D
interpolation along z. Every kernel is linear in the z-samples, so each
estimate is one weight vector over the slices, with whole-sample mirror
boundaries folded in. The bspline5 weights also fold in the inverse of the
sampled-quintic interpolation matrix, in place of a prefilter pass.
"""

from __future__ import annotations

import numpy as np

from .errors import ShapeError
from .volume import GapSpec, SliceImage, Volume4D

# Tap offsets of each kernel, relative to the floor of the evaluation point.
_TAPS = {"linear": (0, 1), "cubic": (-1, 0, 1, 2), "bspline5": (-2, -1, 0, 1, 2, 3)}
KINDS = tuple(_TAPS)


def keys_cubic(x: float) -> float:
    """Keys cubic convolution kernel with a = -0.5."""
    ax = abs(x)
    if ax < 1.0:
        return 1.5 * ax**3 - 2.5 * ax**2 + 1.0
    if ax < 2.0:
        return -0.5 * (ax**3 - 5.0 * ax**2 + 8.0 * ax - 4.0)
    return 0.0


def bspline5(x: float) -> float:
    """Centered quintic B-spline, support (-3, 3)."""
    ax = abs(x)
    if ax < 1.0:
        return (66.0 - 60.0 * ax**2 + 30.0 * ax**4 - 10.0 * ax**5) / 120.0
    if ax < 2.0:
        return (
            51.0 + 75.0 * ax - 210.0 * ax**2 + 150.0 * ax**3 - 45.0 * ax**4 + 5.0 * ax**5
        ) / 120.0
    if ax < 3.0:
        return (3.0 - ax) ** 5 / 120.0
    return 0.0


def kernel_eval(method, t: float) -> np.ndarray:
    """Tap weights at fractional offset t in [0, 1), one per tap offset; the
    bspline5 weights apply to prefiltered coefficients."""
    if method not in KINDS:
        raise ShapeError(f"unknown interpolation kind {method!r}")
    if not 0.0 <= t < 1.0:
        raise ShapeError(f"fractional offset {t} outside [0, 1)")
    if method == "linear":
        return np.array([1.0 - t, t])
    kernel = keys_cubic if method == "cubic" else bspline5
    return np.array([kernel(t - p) for p in _TAPS[method]])


def _mirror_index(idx: int, n: int) -> int:
    """Whole-sample symmetric reflection of an index into [0, n), n >= 2."""
    period = 2 * n - 2
    idx = abs(idx) % period
    return period - idx if idx >= n else idx


def _z_weights(n: int, positions, method) -> np.ndarray:
    """Weights of the n z-samples at each fractional position, shape
    (len(positions), n): the kernel taps, each added at its mirrored index.

    For bspline5 the taps weigh spline coefficients, which are the samples
    times the inverse of the same taps' matrix at the integer positions (the
    sampled-quintic interpolation matrix), so that inverse is folded in.
    """
    if n < 2:
        raise ShapeError("need at least 2 slices along z")
    positions = np.asarray(positions, dtype=np.float64)
    if method == "bspline5":
        positions = np.concatenate([positions, np.arange(n)])
    w = np.zeros((len(positions), n))
    for row, pos in zip(w, positions):
        base = int(np.floor(pos))
        for tap, off in zip(kernel_eval(method, pos - base), _TAPS[method]):
            row[_mirror_index(base + off, n)] += tap
    if method == "bspline5":
        w, samples_of_coeffs = w[:-n], w[-n:]
        w = np.linalg.solve(samples_of_coeffs.T, w.T).T
    return w


def _weighted_sum(w: np.ndarray, slices) -> np.ndarray:
    """sum_z w[z] * slices[z] over the nonzero weights, in increasing z."""
    nonzero = np.flatnonzero(w)
    est = w[nonzero[0]] * slices[nonzero[0]]
    for z in nonzero[1:]:
        est += w[z] * slices[z]
    return est


def interp_missing_slices(v: Volume4D, gap: GapSpec, method) -> list[SliceImage]:
    """Reconstruct N missing slices by 1-D interpolation along z.

    The slices inside the gap are treated as absent: interpolation runs
    through the remaining slice samples, where the gap's neighbors are
    adjacent, at the gap's fractional positions (see :attr:`GapSpec.weights`).
    """
    gap.validate_for(v.dims[2])
    z_prev, z_next = gap.neighbors
    kept = [v.data[:, :, z, :] for z in range(v.dims[2]) if not z_prev < z < z_next]
    # Among the kept samples the two neighbors sit at z_prev and z_prev + 1.
    weights = _z_weights(len(kept), [z_prev + w_next for _, w_next in gap.weights], method)
    if method == "linear":
        # The exact rational neighbor weights, not the kernel's 1 - t.
        weights[:, z_prev : z_prev + 2] = gap.weights
    return [SliceImage(_weighted_sum(w, kept)) for w in weights]
