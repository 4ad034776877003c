"""Real symmetric spherical harmonics: basis construction, least-squares
fitting of spherical signals, and projection onto arbitrary direction sets.

The basis is the modified real symmetric one commonly used for dMRI
(descoteaux07-style): even orders only, for coefficient j indexed by (l, m)

    B[i, j] = sqrt(2) * Re(Y_l^{|m|})(theta_i, phi_i)   m < 0
            = Y_l^0(theta_i, phi_i)                     m = 0
            = sqrt(2) * Im(Y_l^m)(theta_i, phi_i)       m > 0

with the Condon-Shortley phase, theta the polar angle from +z and phi the
azimuth from +x. Coefficients are ordered l ascending, m from -l to l.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidDirection, InvalidOrder, ParseError, ShapeError
from .nifti import read_nifti, write_nifti
from .volume import GradientTable, Volume4D, mask_voxels, read_text_lines

SUPPORTED_LMAX = (0, 2, 4, 6, 8)
# The SH order of the paper's sh4 nets, and of every fit that takes no order.
DEFAULT_LMAX = 4
# The basis name that SH sidecars record.
_BASIS = "modified_real_symmetric"


def n_coefficients(lmax: int) -> int:
    """Number of even-order real SH coefficients up to lmax."""
    return (lmax + 1) * (lmax + 2) // 2


def lmax_for(n: int) -> int:
    """The order whose basis has ``n`` coefficients; InvalidOrder if none has."""
    for lmax in SUPPORTED_LMAX:
        if n_coefficients(lmax) == n:
            return lmax
    counts = tuple(map(n_coefficients, SUPPORTED_LMAX))
    raise InvalidOrder(f"no SH order has {n} coefficients; orders {SUPPORTED_LMAX} have {counts}")


def _check_order(lmax: int) -> None:
    if lmax not in SUPPORTED_LMAX:
        raise InvalidOrder(f"lmax must be one of {SUPPORTED_LMAX}, got {lmax}")


def order_index(lmax: int) -> list[tuple[int, int]]:
    """(l, m) pairs in basis order: l ascending (even only), m from -l to l."""
    return [(l, m) for l in range(0, lmax + 1, 2) for m in range(-l, l + 1)]


def _legendre(lmax: int, x: np.ndarray) -> dict:
    """Associated Legendre functions P_l^m(x) with the Condon-Shortley phase,
    keyed (l, m) for 0 <= m <= l <= lmax, by the recurrences
    P_m^m = -(2m-1) sqrt(1-x^2) P_{m-1}^{m-1} and
    (l-m) P_l^m = (2l-1) x P_{l-1}^m - (l+m-1) P_{l-2}^m."""
    p = {(0, 0): np.ones_like(x)}
    for m in range(lmax + 1):
        if m:
            p[m, m] = -(2 * m - 1) * np.sqrt(1.0 - x * x) * p[m - 1, m - 1]
        for l in range(m + 1, lmax + 1):
            below = (l + m - 1) * p[l - 2, m] if l > m + 1 else 0.0
            p[l, m] = ((2 * l - 1) * x * p[l - 1, m] - below) / (l - m)
    return p


def sh_basis_matrix(directions, lmax: int) -> np.ndarray:
    """Evaluate the real symmetric SH basis at unit directions: the (D, R)
    sampling matrix, columns in :func:`order_index` order.

    Raises InvalidOrder for odd or out-of-range lmax, InvalidDirection when a
    direction deviates from unit norm by more than 1e-6.
    """
    _check_order(lmax)
    dirs = np.atleast_2d(np.asarray(directions, dtype=np.float64))
    if dirs.ndim != 2 or dirs.shape[1] != 3:
        raise ShapeError(f"directions must be (D, 3), got {dirs.shape}")
    norms = np.linalg.norm(dirs, axis=1)
    if np.any(np.abs(norms - 1.0) > 1e-6):
        worst = int(np.argmax(np.abs(norms - 1.0)))
        raise InvalidDirection(
            f"direction {worst} has norm {norms[worst]:.8f}, expected 1"
        )

    cos_theta = np.clip(dirs[:, 2], -1.0, 1.0)
    phi = np.arctan2(dirs[:, 1], dirs[:, 0])

    legendre = _legendre(lmax, cos_theta)
    pairs = order_index(lmax)
    mat = np.empty((dirs.shape[0], len(pairs)))
    for j, (l, m) in enumerate(pairs):
        am = abs(m)
        norm = math.sqrt(
            (2 * l + 1) / (4 * math.pi) * math.factorial(l - am) / math.factorial(l + am)
        )
        leg = legendre[l, am]
        if m < 0:
            mat[:, j] = math.sqrt(2.0) * norm * leg * np.cos(am * phi)
        elif m == 0:
            mat[:, j] = norm * leg
        else:
            mat[:, j] = math.sqrt(2.0) * norm * leg * np.sin(m * phi)
    return mat


def laplace_beltrami_diagonal(lmax: int) -> np.ndarray:
    """Diagonal of the smoothness penalty: l(l+1) per coefficient."""
    return np.array([l * (l + 1) for l, _ in order_index(lmax)], dtype=np.float64)


@dataclass(frozen=True)
class ShCoeffVolume:
    """Per-voxel SH coefficients stored as a Volume4D with V = R channels."""

    volume: Volume4D
    lmax: int
    lambda_reg: float = 0.0
    ill_conditioned: bool = False

    def __post_init__(self):
        _check_order(self.lmax)
        if self.volume.n_volumes != n_coefficients(self.lmax):
            raise ShapeError(
                f"coefficient count {self.volume.n_volumes} inconsistent with "
                f"lmax={self.lmax} (expected {n_coefficients(self.lmax)})"
            )
        _check_lambda_reg(self.lambda_reg)

    @property
    def n_coefficients(self) -> int:
        return self.volume.n_volumes


def _check_lambda_reg(lambda_reg: float) -> None:
    if not 0 <= lambda_reg < math.inf:
        raise ShapeError(f"lambda_reg must be non-negative and finite, got {lambda_reg}")


def _fit_matrix(b: np.ndarray, lambda_reg: float) -> np.ndarray:
    """Least-squares solve matrix mapping signals (D,) to coefficients (R,)."""
    if lambda_reg > 0:
        penalty = np.sqrt(lambda_reg) * np.diag(laplace_beltrami_diagonal(lmax_for(b.shape[1])))
        stacked = np.vstack([b, penalty])
        return np.linalg.pinv(stacked, rcond=1e-10)[:, : b.shape[0]]
    return np.linalg.pinv(b, rcond=1e-10)


def fit_sh(
    dwi: Volume4D,
    g: GradientTable,
    lmax: int = DEFAULT_LMAX,
    lambda_reg: float = 0.0,
    mask: Volume4D | None = None,
) -> ShCoeffVolume:
    """Least-squares SH fit of a single-shell signal, voxel by voxel.

    Minimizes ||B c - s||^2 + lambda_reg ||L c||^2 with L = diag(l(l+1)),
    solved through a pseudo-inverse with singular values below 1e-10 of the
    largest truncated. With lambda_reg = 0 and no more directions than
    coefficients the fit is flagged ill-conditioned but still returned.
    The coefficients are zero outside ``mask`` where one is given
    (:func:`~dmrislice.volume.mask_voxels`).
    """
    if len(g) != dwi.n_volumes:
        raise ShapeError(
            f"gradient table ({len(g)}) does not match volume count ({dwi.n_volumes})"
        )
    keep = None if mask is None else mask_voxels(mask, dwi.dims)
    _check_lambda_reg(lambda_reg)
    basis = sh_basis_matrix(g.bvecs, lmax)
    ill = lambda_reg == 0 and basis.shape[0] <= basis.shape[1]
    coeffs = fit_sh_slice(dwi.data, basis, lambda_reg)
    if keep is not None:
        coeffs[~keep] = 0.0
    vol = Volume4D(coeffs, spacing=dwi.spacing, affine=dwi.affine)
    return ShCoeffVolume(vol, lmax=lmax, lambda_reg=lambda_reg, ill_conditioned=ill)


def fit_sh_slice(signal: np.ndarray, basis: np.ndarray, lambda_reg: float = 0.0) -> np.ndarray:
    """The least-squares fit of :func:`fit_sh` of a (W, H, D) signal slice,
    or a (W, H, Z, D) slab, on the directions of a (D, R) basis ->
    (W, H, R) or (W, H, Z, R); the inverse of :func:`project_sh_slice`."""
    nd = signal.shape[-1]
    if nd != basis.shape[0]:
        raise ShapeError(f"slice has {nd} values per voxel, basis has {basis.shape[0]} directions")
    coeffs = signal.reshape(-1, nd) @ _fit_matrix(basis, lambda_reg).T
    return coeffs.reshape(signal.shape[:-1] + (basis.shape[1],))


def project_sh(sh: ShCoeffVolume, directions) -> Volume4D:
    """Evaluate per-voxel SH expansions on a direction set: s = B c."""
    signal = project_sh_slice(sh.volume.data, sh_basis_matrix(directions, sh.lmax))
    return Volume4D(signal, spacing=sh.volume.spacing, affine=sh.volume.affine)


def project_sh_slice(coeff_slice: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """Project a (W, H, R) coefficient slice, or a (W, H, Z, R) slab, onto the
    directions of a (D, R) basis -> (W, H, D) or (W, H, Z, D)."""
    nr = coeff_slice.shape[-1]
    if nr != basis.shape[1]:
        raise ShapeError(
            f"slice has {nr} channels, basis expects {basis.shape[1]}"
        )
    signal = coeff_slice.reshape(-1, nr) @ basis.T
    return signal.reshape(coeff_slice.shape[:-1] + (basis.shape[0],))


def sh_roundtrip_error(
    dwi: Volume4D,
    g: GradientTable,
    lmax: int = DEFAULT_LMAX,
    mask: Volume4D | None = None,
) -> float:
    """Mean squared fit-then-project error on [0, 1]-normalized intensities.

    The input signal is min-max scaled over the masked voxels and the
    reconstruction is mapped with the same affine transform, so the error is
    comparable across datasets regardless of raw intensity scale.
    """
    keep = np.ones(dwi.dims[:3], dtype=bool) if mask is None else mask_voxels(mask, dwi.dims)
    recon = project_sh(fit_sh(dwi, g, lmax=lmax), g.bvecs)
    values = dwi.data[keep]
    lo = values.min()
    hi = values.max()
    span = hi - lo if hi > lo else 1.0
    diff = (recon.data[keep] - dwi.data[keep]) / span
    return float(np.mean(diff * diff))


def write_sh(sh: ShCoeffVolume, path) -> None:
    """Persist coefficients as NIfTI plus a JSON sidecar describing the basis."""
    write_nifti(sh.volume, path)
    sidecar = {
        "lmax": sh.lmax,
        "basis": _BASIS,
        "lambda_reg": sh.lambda_reg,
        "ill_conditioned": sh.ill_conditioned,
    }
    with open(_sidecar_path(path), "w") as fh:
        json.dump(sidecar, fh, indent=2, sort_keys=True)
        fh.write("\n")


def read_sh(path) -> ShCoeffVolume:
    """Load a coefficient NIfTI written by :func:`write_sh`.

    The JSON sidecar must be an object with an integer ``lmax`` in
    ``SUPPORTED_LMAX``; the optional ``lambda_reg`` is a number,
    ``ill_conditioned`` a boolean and ``basis`` this module's. An unreadable
    sidecar, or one that breaks these rules, is a ParseError naming it, and
    a NIfTI whose volume count is not the order's coefficient count a
    ParseError naming both files; a negative or non-finite ``lambda_reg`` is
    a ShapeError.
    """
    sidecar_path = _sidecar_path(path)
    try:
        sidecar = json.loads("".join(read_text_lines(sidecar_path)))
    except (ValueError, RecursionError) as exc:
        raise ParseError(f"malformed SH sidecar {sidecar_path}: {exc!r}") from exc
    if not isinstance(sidecar, dict) or "lmax" not in sidecar:
        raise ParseError(f"malformed SH sidecar {sidecar_path}: needs an object with an lmax")
    lmax = sidecar["lmax"]
    lambda_reg = sidecar.get("lambda_reg", 0.0)
    ill_conditioned = sidecar.get("ill_conditioned", False)
    basis = sidecar.get("basis", _BASIS)
    # Each key at its JSON type; a JSON true or false is not a number here.
    for key, value, ok in (
        ("lmax", lmax, type(lmax) is int and lmax in SUPPORTED_LMAX),
        ("lambda_reg", lambda_reg, type(lambda_reg) in (int, float)),
        ("ill_conditioned", ill_conditioned, type(ill_conditioned) is bool),
        ("basis", basis, basis == _BASIS),
    ):
        if not ok:
            raise ParseError(f"malformed SH sidecar {sidecar_path}: {key} is {value!r}")
    try:
        lambda_reg = float(lambda_reg)
    except OverflowError as exc:
        raise ParseError(f"malformed SH sidecar {sidecar_path}: {exc!r}") from exc
    vol = read_nifti(path)
    if vol.n_volumes != n_coefficients(lmax):
        raise ParseError(
            f"{path} holds {vol.n_volumes} volumes, not the {n_coefficients(lmax)} "
            f"coefficients of lmax {lmax} in {sidecar_path}"
        )
    return ShCoeffVolume(
        vol, lmax=lmax, lambda_reg=lambda_reg, ill_conditioned=ill_conditioned
    )


def _sidecar_path(path) -> str:
    text = str(path)
    if text.endswith(".nii"):
        return text[:-4] + ".json"
    return text + ".json"
