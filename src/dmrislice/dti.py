"""Diffusion tensor estimation (log-linear least squares) and FA/MD maps.

Tensors are stored as 6 values per voxel in lower-triangular order
(Dxx, Dyy, Dzz, Dxy, Dxz, Dyz), units mm^2/s.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np

from .errors import ShapeError, Underdetermined
from .volume import GradientTable, Volume4D, mask_voxels

SIGNAL_FLOOR = 1e-6


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
) -> Volume4D:
    """Ordinary log-linear least-squares tensor fit: the ``(X, Y, Z, 6)``
    tensor field on ``dwi``'s grid, zero outside ``mask`` where one is given.

    The b0 volume contributes its measurements as b=0 rows of the design
    matrix. Signals at or below zero are floored to 1e-6 before the log.
    The fitted intercept, ln S0, is not returned.
    """
    if dwi.dims[:3] != b0.dims[:3]:
        raise ShapeError(f"dwi grid {dwi.dims[:3]} does not match b0 {b0.dims[:3]}")
    keep = None if mask is None else mask_voxels(mask, dwi.dims)
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

    # The one full-size array: floored and logged in place.
    signal = np.concatenate([b0.data, dwi.data], axis=3)
    np.maximum(signal, SIGNAL_FLOOR, out=signal)
    np.log(signal, out=signal)
    beta = signal.reshape(-1, n_meas) @ solver.T
    del signal
    if keep is not None:
        beta[~keep.reshape(-1)] = 0.0
    return dwi.with_data(beta.reshape(dwi.dims[:3] + (7,))[..., 1:])


def _minor(u, v):
    """2x2 minor of two rows (B_ij, (B^2)_ij)."""
    return u[0] * v[1] - v[0] * u[1]


def _eigvals_sym3(d6: np.ndarray) -> np.ndarray:
    """Eigenvalues of symmetric 3x3 matrices given as (..., 6) arrays.

    Trigonometric (Cardano) closed form of Hasan et al., "Analytical
    computation of the eigenvalues and eigenvectors in DT-MRI" (JMR 2001),
    on the entries directly. Returns the eigenvalues (..., 3) in descending
    order; isotropic matrices get exactly q = trace / 3 three times.
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
    return np.stack([lam1, lam2, lam3], axis=-1)


def dti_scalars(t: Volume4D) -> tuple[Volume4D, Volume4D]:
    """Fractional anisotropy and mean diffusivity of the tensor field ``t``
    (6 values per voxel, as :func:`fit_dti` gives it) from one eigenvalue
    pass, on ``t``'s grid.

    Eigenvalues are clamped to be non-negative.
    FA = sqrt(1/2) sqrt((l1-l2)^2 + (l2-l3)^2 + (l3-l1)^2) / sqrt(l1^2+l2^2+l3^2),
    defined as 0 where all eigenvalues vanish; MD is their mean.
    """
    if t.n_volumes != 6:
        raise ShapeError(f"a tensor field holds 6 values per voxel, got {t.n_volumes}")
    lam = np.maximum(_eigvals_sym3(t.data), 0.0)
    l1, l2, l3 = lam[..., 0], lam[..., 1], lam[..., 2]
    num = np.sqrt(0.5) * np.sqrt((l1 - l2) ** 2 + (l2 - l3) ** 2 + (l3 - l1) ** 2)
    den = np.sqrt(l1 * l1 + l2 * l2 + l3 * l3)
    fa = np.where(den > 0, num / np.where(den > 0, den, 1.0), 0.0)
    md = lam.mean(axis=-1)
    return t.with_data(fa), t.with_data(md)
