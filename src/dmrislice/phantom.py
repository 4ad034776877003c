"""Synthetic dMRI phantom with known tensors and tissue labels.

The phantom substitutes for cohort data that cannot be redistributed: nested
in-plane shells of CSF, cortical gray matter and white matter around a
corpus-callosum band, with the monoexponential tensor signal
S(b, g) = S0 exp(-b g^T D g) per voxel. Diffusivities are standard
literature values and serve only as self-consistent ground truth.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ShapeError
from .volume import B0_THRESHOLD, GradientTable, Volume4D

LABELS = {"background": 0, "csf": 1, "cgm": 2, "wm": 3, "cc": 4}

CSF_DIFFUSIVITY = 3.0e-3  # mm^2/s, isotropic
CGM_DIFFUSIVITY = 0.8e-3  # mm^2/s, isotropic
WM_EIGENVALUES = (1.7e-3, 0.3e-3, 0.3e-3)  # mm^2/s, anisotropic

S0_BY_LABEL = {0: 0.0, 1: 1.0, 2: 0.8, 3: 0.7, 4: 0.75}

NOISE_MODELS = ("none", "gaussian", "rician")


@dataclass(frozen=True)
class PhantomSpec:
    dims: tuple[int, int, int] = (64, 64, 16)
    b_value: float = 1000.0
    n_directions: int = 88
    n_b0: int = 4
    noise: str = "none"  # one of NOISE_MODELS
    noise_sigma: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if len(self.dims) != 3 or any(d < 4 for d in self.dims):
            raise ShapeError(f"phantom dims must be 3 values >= 4, got {self.dims}")
        if self.n_b0 < 1:
            raise ShapeError(f"a phantom needs at least one b0 volume, got {self.n_b0}")
        if not B0_THRESHOLD < self.b_value < math.inf:
            raise ShapeError(f"b_value must lie in ({B0_THRESHOLD}, inf), got {self.b_value}")
        if self.noise not in NOISE_MODELS:
            raise ShapeError(f"unknown noise model {self.noise!r}")
        if not math.isfinite(self.noise_sigma):
            raise ShapeError(f"noise_sigma must be finite, got {self.noise_sigma}")
        if self.noise != "none" and self.noise_sigma <= 0:
            raise ShapeError("noise_sigma must be positive for noisy phantoms")
        if self.seed < 0:
            raise ShapeError(f"seed must be non-negative, got {self.seed}")


@dataclass(frozen=True)
class PhantomData:
    """Everything the evaluation harness needs about one study; a phantom's
    also holds its ground-truth ``(X, Y, Z, 6)`` tensor field and S0 map."""

    dwi: Volume4D
    b0: Volume4D
    gtab: GradientTable
    labels: Volume4D
    tensors: Volume4D | None = None
    s0: Volume4D | None = None
    spec: PhantomSpec | None = None


def fibonacci_directions(n: int) -> np.ndarray:
    """Deterministic near-uniform unit directions (spherical Fibonacci)."""
    if n < 1:
        raise ShapeError("need at least one direction")
    i = np.arange(n)
    z = 1.0 - (2.0 * i + 1.0) / n
    r = np.sqrt(np.maximum(0.0, 1.0 - z * z))
    golden = np.pi * (3.0 - np.sqrt(5.0))
    phi = golden * i
    dirs = np.column_stack([r * np.cos(phi), r * np.sin(phi), z])
    return dirs / np.linalg.norm(dirs, axis=1, keepdims=True)


def _region_layout(dims):
    """Label map plus the smooth geometry fields used to orient WM fibers."""
    nx, ny, nz = dims
    x, y, z = np.meshgrid(
        np.arange(nx), np.arange(ny), np.arange(nz), indexing="ij"
    )
    cx, cy, cz = (nx - 1) / 2.0, (ny - 1) / 2.0, (nz - 1) / 2.0
    # Head-like taper: in-plane radii shrink toward the top and bottom slices.
    taper = np.sqrt(1.0 - 0.55 * ((z - cz) / (nz / 2.0)) ** 2)
    rmax = min(nx, ny) / 2.0 - 1.0
    r = np.sqrt((x - cx) ** 2 + (y - cy) ** 2) / (rmax * taper)

    labels = np.zeros(dims, dtype=np.int64)
    labels[r <= 1.0] = LABELS["csf"]
    labels[r <= 0.86] = LABELS["cgm"]
    labels[r <= 0.72] = LABELS["wm"]
    cc = (np.abs(y - cy) <= 0.05 * ny * taper) & (r <= 0.45)
    labels[cc] = LABELS["cc"]

    azimuth = np.arctan2(y - cy, x - cx)
    return labels, azimuth, (z - cz) / nz


def _tensor_field(labels, azimuth, zfrac):
    """Per-voxel 6-vector tensors for each labeled region."""
    d6 = np.zeros(labels.shape + (6,))
    for label, diff in ((LABELS["csf"], CSF_DIFFUSIVITY), (LABELS["cgm"], CGM_DIFFUSIVITY)):
        sel = labels == label
        d6[sel, 0] = d6[sel, 1] = d6[sel, 2] = diff

    l1, l2, _ = WM_EIGENVALUES
    # WM fibers run tangentially around the center, tilting smoothly with z.
    wm = labels == LABELS["wm"]
    tilt = 0.35 * np.sin(2.0 * np.pi * zfrac)
    e1 = np.stack(
        [-np.sin(azimuth), np.cos(azimuth), np.broadcast_to(tilt, azimuth.shape)],
        axis=-1,
    )
    e1 = e1 / np.linalg.norm(e1, axis=-1, keepdims=True)
    outer = e1[..., :, None] * e1[..., None, :]
    aniso = (l1 - l2) * outer + l2 * np.eye(3)
    d6_wm = np.stack(
        [
            aniso[..., 0, 0],
            aniso[..., 1, 1],
            aniso[..., 2, 2],
            aniso[..., 0, 1],
            aniso[..., 0, 2],
            aniso[..., 1, 2],
        ],
        axis=-1,
    )
    d6[wm] = d6_wm[wm]

    cc = labels == LABELS["cc"]
    d6[cc, 0] = l1  # left-right principal axis
    d6[cc, 1] = l2
    d6[cc, 2] = l2
    return d6


def _add_noise(signal, spec, rng):
    """Adds the spec's noise to ``signal`` in place, one x-slab at a time.

    Gaussian noise is ``signal + sigma * n`` and Rician noise
    ``|signal + sigma * n + i sigma * m|``, with ``n`` and ``m`` successive
    standard normal draws of ``signal``'s shape. x is the slowest axis of the
    C-ordered ``signal``, so slab by slab the draws take the generator's
    stream in the order of one full draw, and the values are those of the
    formulas computed on whole arrays.
    """
    if spec.noise == "none":
        return
    draw = np.empty(signal.shape[1:])
    for slab in signal:
        rng.standard_normal(out=draw)
        draw *= spec.noise_sigma
        slab += draw
    if spec.noise == "rician":
        for slab in signal:
            rng.standard_normal(out=draw)
            draw *= spec.noise_sigma
            draw *= draw
            slab *= slab
            slab += draw
            np.sqrt(slab, out=slab)


# The (3, 3) tensor of a 6-vector (xx, yy, zz, xy, xz, yz), row by row.
_MATRIX_ENTRIES = [0, 3, 4, 3, 1, 5, 4, 5, 2]


def make_phantom(spec: PhantomSpec) -> PhantomData:
    """Simulate a phantom study, deterministic under spec.seed.

    The DWI is the one full-size array made: each x-slab's ``g^T D g`` is
    computed into it, and the signal and the noise are then formed in place.
    """
    labels, azimuth, zfrac = _region_layout(spec.dims)
    d6 = _tensor_field(labels, azimuth, zfrac)
    s0 = np.zeros(spec.dims)
    for label, value in S0_BY_LABEL.items():
        s0[labels == label] = value

    dirs = fibonacci_directions(spec.n_directions)
    signal = np.empty(spec.dims + (spec.n_directions,))
    for slab, slab_d6 in zip(signal, d6):
        dmat = slab_d6[..., _MATRIX_ENTRIES].reshape(slab_d6.shape[:2] + (3, 3))
        np.einsum("di,yzij,dj->yzd", dirs, dmat, dirs, optimize=True, out=slab)
    signal *= -spec.b_value
    np.exp(signal, out=signal)
    signal *= s0[..., None]

    rng = np.random.default_rng(spec.seed)
    _add_noise(signal, spec, rng)
    b0_data = np.repeat(s0[..., None], spec.n_b0, axis=3)
    _add_noise(b0_data, spec, rng)

    gtab = GradientTable(np.full(spec.n_directions, spec.b_value), dirs)
    return PhantomData(
        Volume4D(signal), Volume4D(b0_data), gtab, Volume4D(labels),
        tensors=Volume4D(d6), s0=Volume4D(s0), spec=spec,
    )
