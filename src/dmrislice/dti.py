"""Diffusion tensor estimation (log-linear least squares) and FA/MD maps.

Tensors are stored as 6 values per voxel in lower-triangular order
(Dxx, Dyy, Dzz, Dxy, Dxz, Dyz), units mm^2/s.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .errors import EmptyMask, ShapeError, Underdetermined
from .volume import GradientTable, Volume4D

SIGNAL_FLOOR = 1e-6


@dataclass(frozen=True)
class TensorVolume:
    """Per-voxel symmetric diffusion tensor plus estimated b0 signal."""

    d6: np.ndarray  # (X, Y, Z, 6)
    s0: np.ndarray  # (X, Y, Z)
    spacing: tuple[float, float, float] = (1.0, 1.0, 1.0)
    affine: np.ndarray = None

    def __post_init__(self):
        d6 = np.asarray(self.d6, dtype=np.float64)
        s0 = np.asarray(self.s0, dtype=np.float64)
        if d6.ndim != 4 or d6.shape[3] != 6:
            raise ShapeError(f"tensor array must be (X, Y, Z, 6), got {d6.shape}")
        if s0.shape != d6.shape[:3]:
            raise ShapeError(f"s0 shape {s0.shape} does not match {d6.shape[:3]}")
        object.__setattr__(self, "d6", d6)
        object.__setattr__(self, "s0", s0)
        affine = np.eye(4) if self.affine is None else np.asarray(self.affine)
        object.__setattr__(self, "affine", affine)

    @property
    def dims(self) -> tuple[int, int, int]:
        return self.d6.shape[:3]

    def to_volume(self) -> Volume4D:
        return Volume4D(self.d6, spacing=self.spacing, affine=self.affine, intent="scalar")


def _d6_to_matrix(d6: np.ndarray) -> np.ndarray:
    dxx, dyy, dzz, dxy, dxz, dyz = np.moveaxis(d6, -1, 0)
    mat = np.empty(d6.shape[:-1] + (3, 3))
    mat[..., 0, 0] = dxx
    mat[..., 1, 1] = dyy
    mat[..., 2, 2] = dzz
    mat[..., 0, 1] = mat[..., 1, 0] = dxy
    mat[..., 0, 2] = mat[..., 2, 0] = dxz
    mat[..., 1, 2] = mat[..., 2, 1] = dyz
    return mat


def design_matrix(bvals: np.ndarray, bvecs: np.ndarray) -> np.ndarray:
    """Rows [1, -b gx^2, -b gy^2, -b gz^2, -2b gx gy, -2b gx gz, -2b gy gz]
    so that X @ (ln S0, Dxx, Dyy, Dzz, Dxy, Dxz, Dyz) = ln S(b, g)."""
    b = np.asarray(bvals, dtype=np.float64)
    g = np.asarray(bvecs, dtype=np.float64)
    gx, gy, gz = g[:, 0], g[:, 1], g[:, 2]
    return np.column_stack(
        [
            np.ones_like(b),
            -b * gx * gx,
            -b * gy * gy,
            -b * gz * gz,
            -2 * b * gx * gy,
            -2 * b * gx * gz,
            -2 * b * gy * gz,
        ]
    )


def fit_dti(
    dwi: Volume4D,
    b0: Volume4D,
    g: GradientTable,
    mask: Volume4D | None = None,
) -> TensorVolume:
    """Ordinary log-linear least-squares tensor fit.

    The b0 volume contributes its measurements as b=0 rows of the design
    matrix. Signals at or below zero are floored to 1e-6 before the log.
    """
    if dwi.dims[:3] != b0.dims[:3]:
        raise ShapeError(f"dwi grid {dwi.dims[:3]} does not match b0 {b0.dims[:3]}")
    if len(g) != dwi.n_volumes:
        raise ShapeError(
            f"gradient table ({len(g)}) does not match volume count ({dwi.n_volumes})"
        )
    n_meas = dwi.n_volumes + b0.n_volumes
    if n_meas < 7:
        raise Underdetermined(f"{n_meas} measurements, need at least 7")

    bvals = np.concatenate([np.zeros(b0.n_volumes), g.bvals])
    bvecs = np.vstack([np.zeros((b0.n_volumes, 3)), g.bvecs])
    design = design_matrix(bvals, bvecs)
    solver = np.linalg.pinv(design)

    signal = np.concatenate([b0.data, dwi.data], axis=3)
    signal = np.maximum(signal, SIGNAL_FLOOR)
    nx, ny, nz, _ = signal.shape
    beta = np.log(signal).reshape(-1, n_meas) @ solver.T
    beta = beta.reshape(nx, ny, nz, 7)

    if mask is not None:
        keep = mask.data[..., 0] > 0
        if not np.any(keep):
            raise EmptyMask("mask selects no voxels")
        beta = np.where(keep[..., None], beta, 0.0)

    return TensorVolume(
        d6=beta[..., 1:7],
        s0=np.exp(beta[..., 0]),
        spacing=dwi.spacing,
        affine=dwi.affine,
    )


def _minor(u, v):
    """2x2 minor of two rows (B_ij, (B^2)_ij)."""
    return u[0] * v[1] - v[0] * u[1]


def _eigvals_sym3(d6: np.ndarray):
    """Eigenvalues of symmetric 3x3 matrices given as (..., 6) arrays.

    Trigonometric (Cardano) closed form of Hasan et al., "Analytical
    computation of the eigenvalues and eigenvectors in DT-MRI" (JMR 2001),
    on the entries directly. Returns the eigenvalues (..., 3) in descending
    order, the mask of isotropic matrices (all eigenvalues exactly
    q = trace / 3) and the matrix scale that the eigenvector tolerances use.
    """
    dxx, dyy, dzz, dxy, dxz, dyz = np.moveaxis(d6, -1, 0)
    q = (dxx + dyy + dzz) / 3.0
    off2 = dxy**2 + dxz**2 + dyz**2
    p2 = (dxx - q) ** 2 + (dyy - q) ** 2 + (dzz - q) ** 2 + 2.0 * off2
    p = np.sqrt(p2 / 6.0)
    scale = np.maximum(np.abs(q), np.sqrt(p2))
    isotropic = p <= 1e-14 * np.maximum(scale, 1e-300)

    # B = (A - q I) / p is traceless with tr(B^2) = 6; its eigenvalues are
    # 2 cos(phi + 2 pi k / 3) with cos(3 phi) = det(B) / 2.
    p_safe = np.where(isotropic, 1.0, p)
    b11, b22, b33 = (dxx - q) / p_safe, (dyy - q) / p_safe, (dzz - q) / p_safe
    b12, b13, b23 = dxy / p_safe, dxz / p_safe, dyz / p_safe
    det_b = (
        b11 * (b22 * b33 - b23 * b23)
        - b12 * (b12 * b33 - b23 * b13)
        + b13 * (b12 * b23 - b22 * b13)
    )
    # sin(3 phi) comes from the discriminant 108 sin^2(3 phi) =
    # prod_{i<j} (l_i - l_j)^2, not from arccos(det(B) / 2), which loses half
    # the digits of a nearly equal pair of eigenvalues. The discriminant is
    # the Gram determinant of I, B, B^2 (Parlett 2002), expanded by
    # Cauchy-Binet into a sum of squared 3x3 minors of the rows
    # (delta_ij, B_ij, (B^2)_ij); off-diagonal rows count twice.
    diag = (
        (b11, b11 * b11 + b12 * b12 + b13 * b13),
        (b22, b12 * b12 + b22 * b22 + b23 * b23),
        (b33, b13 * b13 + b23 * b23 + b33 * b33),
    )
    off = (
        (b12, b11 * b12 + b12 * b22 + b13 * b23),
        (b13, b11 * b13 + b12 * b23 + b13 * b33),
        (b23, b12 * b13 + b22 * b23 + b23 * b33),
    )
    disc = 12.0 * sum(_minor(u, v) ** 2 for u, v in combinations(off, 2))
    for o in off:
        m = [_minor(d, o) for d in diag]
        disc += 2.0 * sum((m[j] - m[i]) ** 2 for i, j in combinations(range(3), 2))
    m12, m13, m23 = (_minor(u, v) for u, v in combinations(diag, 2))
    disc += (m23 - m13 + m12) ** 2
    phi = np.arctan2(np.sqrt(disc), np.sqrt(27.0) * det_b) / 3.0

    lam1 = q + 2.0 * p * np.cos(phi)
    lam3 = q + 2.0 * p * np.cos(phi + 2.0 * np.pi / 3.0)
    lam2 = 3.0 * q - lam1 - lam3
    lam1 = np.where(isotropic, q, lam1)
    lam2 = np.where(isotropic, q, lam2)
    lam3 = np.where(isotropic, q, lam3)
    return np.stack([lam1, lam2, lam3], axis=-1), isotropic, scale


def eig_sym3(tensor) -> tuple[np.ndarray, np.ndarray]:
    """Analytic eigendecomposition of symmetric 3x3 matrices.

    Accepts (..., 6) arrays in (Dxx, Dyy, Dzz, Dxy, Dxz, Dyz) order. Returns
    eigenvalues (..., 3) in descending order and orthonormal eigenvectors
    (..., 3, 3) with column i belonging to eigenvalue i. Eigenvalues follow
    the trigonometric (Cardano) closed form.
    """
    d6 = np.asarray(tensor, dtype=np.float64)
    scalar_input = d6.ndim == 1
    d6 = np.atleast_2d(d6)
    if d6.shape[-1] != 6:
        raise ShapeError(f"expected trailing dimension 6, got {d6.shape}")
    eigvals, isotropic, scale = _eigvals_sym3(d6)
    vecs = _eigenvectors(_d6_to_matrix(d6), eigvals, isotropic, scale)
    if scalar_input:
        return eigvals[0], vecs[0]
    return eigvals, vecs


def _null_direction(a, lam, scale):
    """Best cross-product of rows of (A - lam I); zero norm means degenerate."""
    m = a - lam[..., None, None] * np.eye(3)
    c01 = np.cross(m[..., 0, :], m[..., 1, :])
    c02 = np.cross(m[..., 0, :], m[..., 2, :])
    c12 = np.cross(m[..., 1, :], m[..., 2, :])
    cand = np.stack([c01, c02, c12], axis=-2)
    norms = np.linalg.norm(cand, axis=-1)
    best = np.argmax(norms, axis=-1)
    idx = np.expand_dims(best, axis=(-2, -1))
    vec = np.take_along_axis(cand, np.broadcast_to(idx, cand.shape[:-2] + (1, 3)), axis=-2)[
        ..., 0, :
    ]
    best_norm = np.take_along_axis(norms, best[..., None], axis=-1)[..., 0]
    ok = best_norm > 1e-12 * np.maximum(scale, 1e-300) ** 2
    return vec, best_norm, ok


def _any_perpendicular(v):
    """A unit vector orthogonal to each unit vector in v."""
    helper = np.zeros_like(v)
    smallest = np.argmin(np.abs(v), axis=-1)
    np.put_along_axis(helper, smallest[..., None], 1.0, axis=-1)
    perp = np.cross(v, helper)
    return perp / np.linalg.norm(perp, axis=-1, keepdims=True)


def _eigenvectors(a, eigvals, isotropic, scale):
    e1_raw, _, ok1 = _null_direction(a, eigvals[..., 0], scale)
    e3_raw, _, ok3 = _null_direction(a, eigvals[..., 2], scale)

    fallback = np.zeros(a.shape[:-2] + (3,))
    fallback[..., 0] = 1.0
    e1 = np.where(ok1[..., None], e1_raw, fallback)
    e1 = e1 / np.linalg.norm(e1, axis=-1, keepdims=True)
    fallback_z = np.zeros_like(fallback)
    fallback_z[..., 2] = 1.0
    e3 = np.where(ok3[..., None], e3_raw, fallback_z)
    e3 = e3 / np.linalg.norm(e3, axis=-1, keepdims=True)

    # Repair the degenerate pairs: whichever side lost its cross product is
    # reconstructed orthogonal to the well-defined side.
    e1 = np.where((~ok1 & ok3)[..., None], _any_perpendicular(e3), e1)
    e3 = np.where((~ok3 & ok1)[..., None], _any_perpendicular(e1), e3)
    neither = ~ok1 & ~ok3
    e1 = np.where(neither[..., None], fallback, e1)
    e3 = np.where(neither[..., None], fallback_z, e3)

    # Orthonormalize exactly: project e3 off e1, then e2 completes the frame.
    e3 = e3 - np.sum(e3 * e1, axis=-1, keepdims=True) * e1
    e3 = e3 / np.linalg.norm(e3, axis=-1, keepdims=True)
    e2 = np.cross(e3, e1)

    ident = np.broadcast_to(np.eye(3), a.shape).copy()
    vecs = np.stack([e1, e2, e3], axis=-1)
    return np.where(isotropic[..., None, None], ident, vecs)


def dti_scalars(t: TensorVolume) -> tuple[Volume4D, Volume4D]:
    """Fractional anisotropy and mean diffusivity from one eigenvalue pass.

    Eigenvalues are clamped to be non-negative.
    FA = sqrt(1/2) sqrt((l1-l2)^2 + (l2-l3)^2 + (l3-l1)^2) / sqrt(l1^2+l2^2+l3^2),
    defined as 0 where all eigenvalues vanish; MD is their mean.
    """
    lam = np.maximum(_eigvals_sym3(t.d6)[0], 0.0)
    l1, l2, l3 = lam[..., 0], lam[..., 1], lam[..., 2]
    num = np.sqrt(0.5) * np.sqrt((l1 - l2) ** 2 + (l2 - l3) ** 2 + (l3 - l1) ** 2)
    den = np.sqrt(l1 * l1 + l2 * l2 + l3 * l3)
    fa = np.where(den > 0, num / np.where(den > 0, den, 1.0), 0.0)
    md = lam.mean(axis=-1)
    return tuple(
        Volume4D(m[..., None], spacing=t.spacing, affine=t.affine, intent="scalar")
        for m in (fa, md)
    )
