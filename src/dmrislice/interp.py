"""Classical through-plane interpolation: linear, Keys cubic, and quintic
B-spline with recursive prefiltering.

Because the in-plane grids of adjacent slices are identical, the paper-style
trilinear/tricubic interpolation of missing slices reduces to 1-D
interpolation along z. All methods use whole-sample mirror boundaries.
"""

from __future__ import annotations

import numpy as np

from .errors import ShapeError
from .volume import GapSpec, SliceImage, Volume4D

# Real poles of the z-transform of the sampled quintic B-spline,
# i.e. the two roots of z^4 + 26 z^3 + 66 z^2 + 26 z + 1 inside the unit circle.
BSPLINE5_POLES = (-0.4305753470999736, -0.043096288203264665)

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
    if not 0.0 <= t < 1.0 + 1e-12:
        raise ShapeError(f"fractional offset {t} outside [0, 1)")
    if method == "linear":
        return np.array([1.0 - t, t])
    kernel = keys_cubic if method == "cubic" else bspline5
    return np.array([kernel(t - p) for p in _TAPS[method]])


def _initial_causal(c: np.ndarray, z: float, tol: float = 1e-14) -> np.ndarray:
    """Mirror-boundary start value of the causal recursion (Unser's scheme)."""
    n = c.shape[0]
    horizon = int(np.ceil(np.log(tol) / np.log(abs(z)))) if tol > 0 else n
    if horizon < n:
        powers = z ** np.arange(horizon)
        return np.tensordot(powers, c[:horizon], axes=(0, 0))
    # Full-length closed form, exact for short signals.
    z_n1 = z ** (n - 1)
    out = c[0] + z_n1 * c[-1]
    powers_fwd = z ** np.arange(1, n - 1)
    powers_bwd = z_n1 * z_n1 / z ** np.arange(1, n - 1)
    out = out + np.tensordot(powers_fwd + powers_bwd, c[1 : n - 1], axes=(0, 0))
    return out / (1.0 - z ** (2 * n - 2))


def bspline_prefilter(line: np.ndarray, order: int = 5) -> np.ndarray:
    """Coefficients whose quintic B-spline expansion interpolates the samples.

    Cascaded forward/backward recursive filters, one pass per real pole of
    the sampled-kernel z-transform, with whole-sample mirror boundaries.
    Operates along axis 0; trailing axes are filtered independently.
    """
    if order != 5:
        raise ShapeError(f"only quintic prefiltering is implemented, got order {order}")
    c = np.asarray(line, dtype=np.float64)
    squeeze = c.ndim == 1
    if squeeze:
        c = c[:, None]
    n = c.shape[0]
    if n < 2:
        raise ShapeError("need at least 2 samples to prefilter")
    c = c.copy()
    gain = 1.0
    for z in BSPLINE5_POLES:
        gain *= (1.0 - z) * (1.0 - 1.0 / z)
    c *= gain
    for z in BSPLINE5_POLES:
        c[0] = _initial_causal(c, z)
        for k in range(1, n):
            c[k] += z * c[k - 1]
        c[-1] = (z / (z * z - 1.0)) * (z * c[-2] + c[-1])
        for k in range(n - 2, -1, -1):
            c[k] = z * (c[k + 1] - c[k])
    return c[:, 0] if squeeze else c


def _mirror_index(idx: int, n: int) -> int:
    """Whole-sample symmetric reflection of an index into [0, n)."""
    if n == 1:
        return 0
    period = 2 * n - 2
    idx = abs(idx) % period
    return period - idx if idx >= n else idx


def _eval_at(flat, n, base, t, method):
    weights = kernel_eval(method, t)
    acc = np.zeros(flat.shape[1])
    for w, off in zip(weights, _TAPS[method]):
        if w == 0.0:
            continue
        acc += w * flat[_mirror_index(base + off, n)]
    return acc


def _prepare_stack(samples, method):
    arr = np.asarray(samples, dtype=np.float64)
    n = arr.shape[0]
    if n < 2:
        raise ShapeError("need at least 2 slices along z")
    flat = arr.reshape(n, -1)
    if method == "bspline5":
        flat = bspline_prefilter(flat)
    return arr, flat, n


def resample_z(samples: np.ndarray, positions, method) -> np.ndarray:
    """Interpolate a z-stack (axis 0) at fractional positions.

    ``samples`` has shape (Z, ...); the output has shape (len(positions), ...).
    For bspline5 the stack is prefiltered along axis 0 first.
    """
    arr, flat, n = _prepare_stack(samples, method)
    out = np.empty((len(positions),) + arr.shape[1:], dtype=np.float64)
    for i, pos in enumerate(positions):
        base = int(np.floor(pos))
        t = pos - base
        if t >= 1.0:  # numerical edge when pos is the next integer
            base += 1
            t = 0.0
        out[i] = _eval_at(flat, n, base, t, method).reshape(arr.shape[1:])
    return out


def interp_missing_slices(v: Volume4D, gap: GapSpec, method) -> list[SliceImage]:
    """Reconstruct N missing slices by 1-D interpolation along z.

    The slices inside the gap are treated as absent: interpolation runs
    through the remaining slice samples, where the gap's neighbors are
    adjacent, at the gap's fractional positions (see :attr:`GapSpec.weights`).
    """
    gap.validate_for(v.dims[2])
    end = gap.gap_start + gap.n_missing
    keep = [z for z in range(v.dims[2]) if not gap.gap_start <= z < end]
    remaining = np.moveaxis(v.data[:, :, keep, :], 2, 0)  # (Zr, X, Y, V)
    arr, flat, n = _prepare_stack(remaining, method)
    base = gap.gap_start - 1
    out = []
    for w_prev, w_next in gap.weights:
        if method == "linear":
            # The exact rational neighbor weights, not the kernel's 1 - t.
            est = w_prev * flat[base] + w_next * flat[base + 1]
        else:
            est = _eval_at(flat, n, base, w_next, method)
        out.append(SliceImage(est.reshape(arr.shape[1:])))
    return out
