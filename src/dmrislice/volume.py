"""Core data model: 4D volumes, gradient tables, slices, and intensity scaling.

Volumes are stored as float64 arrays indexed (x, y, z, v). Instances are
frozen after construction and safe to share across threads.

Facts several stages share are owned here: the memory layout of a volume
(:class:`Volume4D` always holds C-contiguous data, so each voxel's V values
sit together, as the per-voxel SH and tensor fits and the slice reads want
them), the shell window of a gradient table and its checks
(:func:`shell_window`, whose mask a caller applies to its volumes), the gap
geometry, its slab, its two neighbor slices and their weights
(:class:`GapSpec`), the crop/pad onto the model grid (:func:`crop_windows`,
:func:`center_crop_pad`) and the b0 mean of the tensor fits (:func:`b0_mean`).
A slice is a plain (W, H, C) array, such as the view ``v.data[:, :, z]``.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .errors import BoundaryGap, EmptyMask, EmptyShell, ParseError, ShapeError

# b-values at or below this (s/mm^2) are treated as unweighted (b0) images.
B0_THRESHOLD = 50.0


@dataclass(frozen=True)
class Volume4D:
    """A 4D image volume: X*Y*Z voxels with V values per voxel.

    ``data`` is C-contiguous float64 (x, y, z, v); input in another layout or
    dtype is copied once, C-contiguous float64 input is kept as is.
    """

    data: np.ndarray
    spacing: tuple[float, float, float] = (1.0, 1.0, 1.0)
    affine: np.ndarray = field(default_factory=lambda: np.eye(4))

    def __post_init__(self):
        data = np.asarray(self.data, dtype=np.float64)
        if data.ndim == 3:
            data = data[..., None]
        if data.ndim != 4:
            raise ShapeError(f"expected 3D or 4D data, got ndim={data.ndim}")
        object.__setattr__(self, "data", np.ascontiguousarray(data))
        spacing = tuple(float(s) for s in self.spacing)
        if len(spacing) != 3 or not all(0 < s < np.inf for s in spacing):
            raise ShapeError(f"spacing must be 3 positive finite reals, got {self.spacing}")
        object.__setattr__(self, "spacing", spacing)
        affine = np.asarray(self.affine, dtype=np.float64)
        if affine.shape != (4, 4):
            raise ShapeError(f"affine must be 4x4, got {affine.shape}")
        if not np.all(np.isfinite(affine)):
            raise ShapeError("affine must be finite")
        object.__setattr__(self, "affine", affine)

    @property
    def dims(self) -> tuple[int, int, int, int]:
        return self.data.shape

    @property
    def n_volumes(self) -> int:
        return self.data.shape[3]

    def with_data(self, data: np.ndarray) -> "Volume4D":
        return replace(self, data=data)


@dataclass(frozen=True)
class GradientTable:
    """Per-volume b-values (s/mm^2) and unit gradient directions."""

    bvals: np.ndarray
    bvecs: np.ndarray

    def __post_init__(self):
        bvals = np.asarray(self.bvals, dtype=np.float64).ravel()
        bvecs = np.asarray(self.bvecs, dtype=np.float64)
        if bvecs.ndim != 2 or bvecs.shape[1] != 3:
            raise ShapeError(f"bvecs must be (V, 3), got {bvecs.shape}")
        if bvecs.shape[0] != bvals.shape[0]:
            raise ShapeError(
                f"bvals ({bvals.shape[0]}) and bvecs ({bvecs.shape[0]}) disagree on V"
            )
        if np.any(bvals < 0):
            raise ShapeError("b-values must be non-negative")
        norms = np.linalg.norm(bvecs, axis=1)
        weighted = bvals > B0_THRESHOLD
        if np.any(np.abs(norms[weighted] - 1.0) > 1e-6):
            raise ShapeError("weighted gradient directions must be unit length")
        object.__setattr__(self, "bvals", bvals)
        object.__setattr__(self, "bvecs", bvecs)

    def __len__(self) -> int:
        return self.bvals.shape[0]

    @property
    def b0_mask(self) -> np.ndarray:
        return self.bvals <= B0_THRESHOLD


@dataclass(frozen=True)
class SliceImage:
    """One estimated slice of a gap, as a gap estimator returns it: a
    (width, height, channels) array."""

    data: np.ndarray


def normalize_slice(s: np.ndarray) -> np.ndarray:
    """Min-max rescale each channel of a (W, H, C) slice to [0, 1]; a
    constant channel maps to all zeros.

    The result is a (W, H, C) view of contiguous channel planes, the layout
    the per-channel reductions want and the (C, W, H) model input is.
    """
    planes = np.moveaxis(s, 2, 0).copy()
    for plane in planes.reshape(s.shape[2], -1):
        lo = plane.min()
        span = plane.max() - lo
        if span > 0:
            plane -= lo
            plane /= span
        else:
            plane[:] = 0.0
    return np.moveaxis(planes, 0, 2)


def shell_window(
    g: GradientTable, b_target: float | None = None, tol: float = 50.0
) -> tuple[np.ndarray, GradientTable]:
    """The mask of the volumes with \\|b - b_target\\| <= tol, and their
    gradient table, order preserved; ``b_target`` is by default the largest
    b-value present. A negative ``tol`` is a ``ShapeError`` and an empty
    window an ``EmptyShell``. A shell's volumes are fitted as
    diffusion-weighted measurements, so a window that reaches a b0 volume
    (b <= ``B0_THRESHOLD``) is a ``ShapeError``."""
    if tol < 0:
        raise ShapeError("shell tolerance must be non-negative")
    if b_target is None:
        b_target = float(g.bvals.max())
    keep = np.abs(g.bvals - b_target) <= tol
    if np.any(keep & g.b0_mask):
        raise ShapeError(
            f"shell tolerance {tol} around b = {b_target} reaches the b0 volumes "
            f"(b <= {B0_THRESHOLD})"
        )
    if not np.any(keep):
        raise EmptyShell(f"no volumes with b within {tol} of {b_target}")
    return keep, GradientTable(g.bvals[keep], g.bvecs[keep])


def read_text_lines(path) -> list[str]:
    """The lines of a UTF-8 text file; an unreadable or undecodable file is
    a ParseError."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.readlines()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path} is not UTF-8 text: {exc}") from exc


def _parse_numeric_rows(path) -> list[list[float]]:
    rows = []
    for lineno, line in enumerate(read_text_lines(path), start=1):
        tokens = line.split()
        if not tokens:
            continue
        try:
            row = [float(t) for t in tokens]
        except ValueError as exc:
            raise ParseError(f"non-numeric token in {path} line {lineno}") from exc
        if not np.all(np.isfinite(row)):
            raise ParseError(f"non-finite value in {path} line {lineno}")
        rows.append(row)
    return rows


def read_gradient_table(bval_path, bvec_path) -> GradientTable:
    """Parse FSL-convention bval/bvec text files.

    Directions are renormalized to unit length whenever their norm is
    positive; zero vectors are kept as-is (b0 entries).
    """
    bval_rows = _parse_numeric_rows(bval_path)
    bvals = [x for row in bval_rows for x in row]
    if not bvals:
        raise ParseError(f"{bval_path} holds no b-values")

    bvec_rows = _parse_numeric_rows(bvec_path)
    if len(bvec_rows) != 3:
        raise ParseError(
            f"{bvec_path} must hold exactly 3 rows, found {len(bvec_rows)}"
        )
    lengths = {len(r) for r in bvec_rows}
    if len(lengths) != 1:
        raise ParseError(f"{bvec_path} rows have inconsistent lengths {sorted(lengths)}")
    (ncols,) = lengths
    if ncols != len(bvals):
        raise ShapeError(
            f"bvec columns ({ncols}) do not match bval count ({len(bvals)})"
        )
    bvecs = np.array(bvec_rows, dtype=np.float64).T
    norms = np.linalg.norm(bvecs, axis=1)
    nonzero = norms > 0
    bvecs[nonzero] /= norms[nonzero, None]
    return GradientTable(np.asarray(bvals), bvecs)


def write_gradient_table(g: GradientTable, bval_path, bvec_path) -> None:
    """Emit FSL-convention bval/bvec text files."""
    with open(bval_path, "w") as fh:
        fh.write(" ".join(f"{b:g}" for b in g.bvals) + "\n")
    with open(bvec_path, "w") as fh:
        for axis in range(3):
            fh.write(" ".join(f"{x:.9g}" for x in g.bvecs[:, axis]) + "\n")


def check_grid(labels: Volume4D, dims, what: str = "labels") -> None:
    """Raises a ``ShapeError`` naming both grids unless the label map or mask
    ``labels`` lies on the ``(X, Y, Z)`` voxel grid ``dims`` of the data."""
    if labels.dims[:3] != tuple(dims[:3]):
        raise ShapeError(f"{what} on a {labels.dims[:3]} grid, the data on {tuple(dims[:3])}")


def mask_voxels(mask: Volume4D, dims) -> np.ndarray:
    """The ``(X, Y, Z)`` map of the voxels ``mask`` selects, its positive
    ones; a ``ShapeError`` off the data's grid ``dims``, an ``EmptyMask``
    when it selects none."""
    check_grid(mask, dims, "mask")
    keep = mask.data[..., 0] > 0
    if not np.any(keep):
        raise EmptyMask("mask selects no voxels")
    return keep


def b0_mean(b0: Volume4D) -> Volume4D:
    """Voxelwise mean of the b0 volumes, as a single-volume DWI in their
    space.

    Summed volume by volume, ``((b0_0 + b0_1) + ...) / n``: one fixed order
    for any volume count, where ``mean`` over the contiguous v axis would
    switch to pairwise summation from 8 volumes on.
    """
    data = b0.data
    total = data[..., :1].copy()
    for k in range(1, data.shape[3]):
        total += data[..., k : k + 1]
    return b0.with_data(total / data.shape[3])


@dataclass(frozen=True)
class GapSpec:
    """N consecutive missing slices starting at gap_start."""

    gap_start: int
    n_missing: int

    def __post_init__(self):
        if self.n_missing not in (1, 2):
            raise ShapeError(f"n_missing must be 1 or 2, got {self.n_missing}")
        if self.gap_start < 1:
            raise BoundaryGap("gap must leave a neighbor slice below it")

    @property
    def weights(self) -> list[tuple[float, float]]:
        """Per missing slice: (weight of previous, weight of next) neighbor.

        Slice k sits at fraction (k+1)/(N+1) between the neighbors, so the
        nearer one weighs more: (2/3, 1/3) and (1/3, 2/3) for N=2.
        """
        n = self.n_missing
        return [((n - k) / (n + 1), (k + 1) / (n + 1)) for k in range(n)]

    @property
    def slab(self) -> slice:
        """The z range of the missing slices, to index a volume's third axis."""
        return slice(self.gap_start, self.gap_start + self.n_missing)

    @property
    def neighbors(self) -> tuple[int, int]:
        """(z_prev, z_next): the slices just below and just above the gap."""
        return self.gap_start - 1, self.gap_start + self.n_missing

    def validate_for(self, z_dim: int) -> None:
        z_next = self.neighbors[1]
        if z_next > z_dim - 1:
            raise BoundaryGap(
                f"gap [{self.gap_start}, {z_next}) needs neighbors on both sides "
                f"of a {z_dim}-slice volume"
            )


def crop_windows(shape: tuple[int, int], size: int) -> tuple[tuple, tuple]:
    """The (source, destination) windows of a center crop or zero pad from a
    ``shape`` grid onto a (size, size) one, each a pair of slices over the two
    axes."""
    src, dst = [], []
    for n in shape:
        keep = min(n, size)
        src0 = max(0, (n - size) // 2)
        dst0 = max(0, (size - n) // 2)
        src.append(slice(src0, src0 + keep))
        dst.append(slice(dst0, dst0 + keep))
    return tuple(src), tuple(dst)


def center_crop_pad(data: np.ndarray, size: int) -> np.ndarray:
    """Center-crop or zero-pad the last two axes of ``data`` to (size, size):
    with ``src, dst`` the :func:`crop_windows` of those two axes,
    ``out[..., *dst] == data[..., *src]``."""
    src, dst = crop_windows(data.shape[-2:], size)
    out = np.zeros(data.shape[:-2] + (size, size))
    out[(...,) + dst] = data[(...,) + src]
    return out
