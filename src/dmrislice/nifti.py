"""Minimal NIfTI-1 single-file (.nii) reader and writer.

Supports little-endian, uncompressed files with scalar datatypes
{uint8, int16, int32, float32, float64}. On disk x varies fastest, as NIfTI
prescribes, for reading and writing alike. In memory, data come back as the
C-contiguous float64 (x, y, z, v) array a :class:`~dmrislice.volume.Volume4D`
stores, v fastest, with scl_slope/scl_inter applied when the slope is
nonzero. Every read goes through :func:`read_volumes`, which decodes the
payload once through a bounded buffer into one array per selection of
volumes, so a caller that keeps some of the volumes never holds all of
them. Non-finite voxel values are rejected on reading, and so is a
non-finite spacing (``pixdim[1..3]``) or affine (``srow_*``, or
``quatern_*`` and ``qoffset_*``); :func:`read_labels` also rejects label
maps that are not non-negative integers or do not lie on the data's voxel
grid. The writer always emits float32 with vox_offset 352.
"""

from __future__ import annotations

import math
import os
import struct
from dataclasses import dataclass

import numpy as np

from .errors import IoError, ParseError, ShapeError, UnsupportedFormat
from .volume import Volume4D, check_grid

HEADER_SIZE = 348
VOX_OFFSET = 352
MAGIC_SINGLE = b"n+1\x00"
MAGIC_PAIR = b"ni1\x00"

# NIfTI-1 datatype codes for the supported scalar types.
_DTYPES = {
    2: np.dtype("<u1"),
    4: np.dtype("<i2"),
    8: np.dtype("<i4"),
    16: np.dtype("<f4"),
    64: np.dtype("<f8"),
}
_FLOAT32_CODE = 16

_OFF_DIM = 40
_OFF_DATATYPE = 70
_OFF_BITPIX = 72
_OFF_PIXDIM = 76
_OFF_VOX_OFFSET = 108
_OFF_SCL_SLOPE = 112
_OFF_SCL_INTER = 116
_OFF_QFORM_CODE = 252
_OFF_SFORM_CODE = 254
_OFF_QUATERN = 256
_OFF_SROW = 280
_OFF_MAGIC = 344

# The float32 header fields of the voxel geometry, as named in error messages.
_PIXDIM_FIELDS = ("pixdim[1]", "pixdim[2]", "pixdim[3]")
_QUATERN_FIELDS = ("quatern_b", "quatern_c", "quatern_d", "qoffset_x", "qoffset_y", "qoffset_z")
_SROW_FIELDS = tuple(f"srow_{axis}[{k}]" for axis in "xyz" for k in range(4))

# The reader decodes a block of about this many bytes of float64 values at a
# time; its one buffer holds the block's raw bytes.
_TILE_BYTES = 1 << 20


def _finite_fields(head: bytes, path, offset: int, names) -> tuple[float, ...]:
    """The float32 header fields ``names`` that follow each other from
    ``offset``; a non-finite one is a ParseError naming it and its offset."""
    values = struct.unpack_from(f"<{len(names)}f", head, offset)
    for k, (name, value) in enumerate(zip(names, values)):
        if not math.isfinite(value):
            raise ParseError(f"{path}: header field {name} is {value}", offset=offset + 4 * k)
    return values


def _quaternion_affine(header: bytes, path, spacing) -> np.ndarray:
    b, c, d, ox, oy, oz = _finite_fields(header, path, _OFF_QUATERN, _QUATERN_FIELDS)
    qfac = struct.unpack_from("<f", header, _OFF_PIXDIM)[0]
    qfac = -1.0 if qfac < 0 else 1.0
    a2 = 1.0 - (b * b + c * c + d * d)
    a = np.sqrt(a2) if a2 > 0 else 0.0
    rot = np.array(
        [
            [a * a + b * b - c * c - d * d, 2 * (b * c - a * d), 2 * (b * d + a * c)],
            [2 * (b * c + a * d), a * a + c * c - b * b - d * d, 2 * (c * d - a * b)],
            [2 * (b * d - a * c), 2 * (c * d + a * b), a * a + d * d - b * b - c * c],
        ]
    )
    affine = np.eye(4)
    affine[:3, :3] = rot @ np.diag([spacing[0], spacing[1], qfac * spacing[2]])
    affine[:3, 3] = (ox, oy, oz)
    return affine


def read_nifti(path) -> Volume4D:
    """Read an uncompressed single-file NIfTI-1 volume."""
    (volume,) = read_volumes(path, None)
    return volume


def read_volumes(path, *keep) -> tuple[Volume4D, ...]:
    """The volumes of a single-file NIfTI-1 file that each of ``keep``
    selects, in file order: a boolean mask with one value per volume of the
    file, as the file's gradient table has, or None for every volume. The
    masks must be disjoint.

    The header is parsed from the file's first bytes and checked against the
    file's size before any array is made. The payload is then read once,
    through one buffer of about ``_TILE_BYTES``: a block of rows of one
    slice of every volume at a time, cast and scaled straight into the
    results and checked for non-finite values. The volumes that no mask
    selects are checked too, and no array of the whole file is made.
    """
    try:
        with open(path, "rb", buffering=0) as fh:
            header = _parse_header(fh.read(HEADER_SIZE), os.fstat(fh.fileno()).st_size, path)
            nv = header.dims[3]
            masks = [np.ones(nv, bool) if m is None else np.asarray(m, bool) for m in keep]
            for mask in masks:
                if mask.shape != (nv,):
                    raise ParseError(
                        f"{path}: gradient table ({mask.size}) does not match the volumes ({nv})"
                    )
            outs = [np.empty(header.dims[:3] + (int(np.count_nonzero(m)),)) for m in masks]
            _decode(fh, path, header, masks, outs)
    except OSError as exc:
        raise IoError(f"cannot read {path}: {exc}") from exc
    return tuple(Volume4D(data=out, spacing=header.spacing, affine=header.affine) for out in outs)


@dataclass(frozen=True)
class _Header:
    """What :func:`read_volumes` reads of a checked header."""

    dims: tuple[int, int, int, int]
    dtype: np.dtype
    vox_offset: int
    scaling: tuple[float, float] | None  # (scl_slope, scl_inter), None when it changes nothing
    spacing: tuple[float, float, float]
    affine: np.ndarray


def _parse_header(head: bytes, size: int, path) -> _Header:
    """The header of a file of ``size`` bytes that starts with ``head``."""
    if len(head) < HEADER_SIZE:
        raise ParseError(f"{path}: file shorter than a NIfTI-1 header", offset=len(head))
    sizeof_hdr = struct.unpack_from("<i", head, 0)[0]
    if sizeof_hdr != HEADER_SIZE:
        raise ParseError(
            f"{path}: sizeof_hdr is {sizeof_hdr}, expected {HEADER_SIZE} "
            "(not a little-endian NIfTI-1 file)",
            offset=0,
        )
    magic = struct.unpack_from("<4s", head, _OFF_MAGIC)[0]
    if magic == MAGIC_PAIR:
        raise UnsupportedFormat(f"{path}: two-file NIfTI (.hdr/.img) is not supported")
    if magic != MAGIC_SINGLE:
        raise ParseError(f"{path}: bad magic {magic!r}", offset=_OFF_MAGIC)

    dim = struct.unpack_from("<8h", head, _OFF_DIM)
    ndim = dim[0]
    if not 1 <= ndim <= 7:
        raise ParseError(f"{path}: dim[0]={ndim} outside [1, 7]", offset=_OFF_DIM)
    extents = [max(1, dim[i]) if i <= ndim else 1 for i in range(1, 8)]
    if any(e > 1 for e in extents[4:]):
        raise UnsupportedFormat(f"{path}: more than 4 non-trivial dimensions")
    dims = tuple(extents[:4])

    datatype = struct.unpack_from("<h", head, _OFF_DATATYPE)[0]
    if datatype not in _DTYPES:
        raise UnsupportedFormat(f"{path}: datatype code {datatype} not supported")
    dtype = _DTYPES[datatype]
    bitpix = struct.unpack_from("<h", head, _OFF_BITPIX)[0]
    if bitpix != dtype.itemsize * 8:
        raise ParseError(
            f"{path}: bitpix {bitpix} inconsistent with datatype {datatype}",
            offset=_OFF_BITPIX,
        )

    pixdim = _finite_fields(head, path, _OFF_PIXDIM + 4, _PIXDIM_FIELDS)
    spacing = tuple(p if p > 0 else 1.0 for p in pixdim)

    # The data section of a single file starts after the header and its
    # 4-byte extension flag, at a whole byte.
    vox_offset = struct.unpack_from("<f", head, _OFF_VOX_OFFSET)[0]
    if not VOX_OFFSET <= vox_offset <= size:
        raise ParseError(
            f"{path}: vox_offset {vox_offset} lies outside the data section "
            f"[{VOX_OFFSET}, {size}]",
            offset=_OFF_VOX_OFFSET,
        )
    if vox_offset != int(vox_offset):
        raise ParseError(
            f"{path}: vox_offset {vox_offset} is not a whole number of bytes",
            offset=_OFF_VOX_OFFSET,
        )
    vox_offset = int(vox_offset)
    needed = vox_offset + math.prod(dims) * dtype.itemsize
    if size < needed:
        raise ParseError(
            f"{path}: data section truncated ({size} bytes, need {needed})", offset=size
        )

    slope, inter = struct.unpack_from("<2f", head, _OFF_SCL_SLOPE)
    scaling = None if slope == 0.0 or (slope == 1.0 and inter == 0.0) else (slope, inter)

    sform_code = struct.unpack_from("<h", head, _OFF_SFORM_CODE)[0]
    qform_code = struct.unpack_from("<h", head, _OFF_QFORM_CODE)[0]
    if sform_code > 0:
        rows = _finite_fields(head, path, _OFF_SROW, _SROW_FIELDS)
        affine = np.vstack([np.array(rows).reshape(3, 4), [0, 0, 0, 1]])
    elif qform_code > 0:
        affine = _quaternion_affine(head, path, spacing)
    else:
        affine = np.diag([spacing[0], spacing[1], spacing[2], 1.0])
    return _Header(dims, dtype, vox_offset, scaling, spacing, affine)


def _decode(fh, path, header: _Header, masks, outs) -> None:
    """Fills each of ``outs`` with the volumes its mask selects, one block of
    rows of a slice of every volume at a time.

    A block's volumes are read into the buffer grouped by result, the
    volumes of no result last, so each result takes one run of the buffer's
    rows; they are cast and scaled straight into the result, and those of
    no result into a block-sized scratch array. A non-finite value is a
    ``ShapeError`` that names their count and the first, in the file's
    (x, y, z, v) order, once every block is read.
    """
    nx, ny, nz, nv = header.dims
    itemsize = header.dtype.itemsize
    unkept = np.ones(nv, bool)
    for mask in masks:
        unkept &= ~mask
    order = np.concatenate([np.flatnonzero(m) for m in (*masks, unkept)])
    rows = min(ny, max(1, _TILE_BYTES // (nv * nx * 8)))
    raw = np.empty(nv * rows * nx, header.dtype)
    scratch = np.empty((nx, rows, int(np.count_nonzero(unkept))))
    volume_starts = [header.vox_offset + v * nz * ny * nx * itemsize for v in order.tolist()]
    n_bad, first_bad = 0, None
    for z in range(nz):
        for y0 in range(0, ny, rows):
            r = min(rows, ny - y0)
            block = raw[: nv * r * nx]
            view = memoryview(block).cast("B")
            size = r * nx * itemsize
            for i, volume_start in enumerate(volume_starts):
                fh.seek(volume_start + (z * ny + y0) * nx * itemsize)
                if fh.readinto(view[i * size : (i + 1) * size]) != size:
                    raise ParseError(f"{path}: data section truncated while reading")
            block = block.reshape(nv, r, nx).transpose(2, 1, 0)
            start = 0
            for dest in [out[:, y0 : y0 + r, z, :] for out in outs] + [scratch[:, :r, :]]:
                stop = start + dest.shape[2]
                if stop == start:
                    continue
                # A signaling NaN in the payload, or a scaling that makes inf
                # or NaN, raises floating-point flags; the check reports them.
                with np.errstate(invalid="ignore", over="ignore"):
                    np.copyto(dest, block[..., start:stop])
                    if header.scaling is not None:
                        dest *= header.scaling[0]
                        dest += header.scaling[1]
                    # Any non-finite value makes the sum non-finite, so one
                    # reduction screens the block; the mask is built only to
                    # report them (a sum that overflows builds it for none).
                    total = dest.sum()
                if not np.isfinite(total):
                    x, y, j = np.nonzero(~np.isfinite(dest))
                    if x.size:
                        n_bad += x.size
                        v = order[start + j]
                        first = np.lexsort((v, y, x))[0]
                        here = (int(x[first]), y0 + int(y[first]), z, int(v[first]))
                        first_bad = here if first_bad is None else min(first_bad, here)
                start = stop
    if n_bad:
        raise ShapeError(f"{path}: {n_bad} non-finite voxel values, the first at {first_bad}")


def read_labels(path, dims) -> Volume4D:
    """Read a label map or mask for the ``(X, Y, Z)`` voxel grid ``dims``; its
    values must be non-negative integers."""
    labels = read_nifti(path)
    check_grid(labels, dims, f"{path}: labels")
    data = labels.data
    if np.any(data < 0) or np.any(data != np.round(data)):
        raise ShapeError(f"{path}: labels must be non-negative integers")
    return labels


def nifti_extents(path, v: Volume4D, *more: Volume4D) -> tuple[int, int, int, int]:
    """The (X, Y, Z, V) extents of the file :func:`write_nifti` makes of
    ``v`` and ``more``; a ShapeError naming ``path`` where they do not lie
    on one voxel grid or the header cannot store them: the reader takes a
    zero dimension as 1, and each extent is an int16."""
    if 0 in v.dims:
        raise ShapeError(f"cannot write {path}: the volume has a zero extent, {v.dims}")
    for part in more:
        check_grid(part, v.dims, f"cannot write {path}: a further volume")
    extents = v.dims[:3] + (sum(part.n_volumes for part in (v, *more)),)
    if max(extents) > 32767:
        raise ShapeError(
            f"cannot write {path}: NIfTI-1 stores each extent as an int16, at most 32767, "
            f"got {extents}"
        )
    return extents


def write_nifti(v: Volume4D, path, *more: Volume4D) -> None:
    """Write a single-file NIfTI-1 volume with float32 data.

    Values are cast to float32; the round trip through :func:`read_nifti` is
    bit-exact whenever the data are float32-representable. Extents the
    header cannot store are refused before the file is opened
    (:func:`nifti_extents`). ``more`` are volumes on ``v``'s voxel grid
    whose values follow ``v``'s along the volume axis, as if concatenated
    with it; the header, spacing and affine are ``v``'s. The payload is cast
    and written one volume at a time, the outermost axis of its x-fastest
    order, so no full-size copy is made.
    """
    nx, ny, nz, nv = nifti_extents(path, v, *more)
    header = bytearray(VOX_OFFSET)
    struct.pack_into("<i", header, 0, HEADER_SIZE)
    struct.pack_into("<b", header, 39, 0)  # dim_info
    struct.pack_into("<8h", header, _OFF_DIM, 4, nx, ny, nz, nv, 1, 1, 1)
    struct.pack_into("<h", header, _OFF_DATATYPE, _FLOAT32_CODE)
    struct.pack_into("<h", header, _OFF_BITPIX, 32)
    struct.pack_into(
        "<8f", header, _OFF_PIXDIM, 1.0, v.spacing[0], v.spacing[1], v.spacing[2], 1.0, 1.0, 1.0, 1.0
    )
    struct.pack_into("<f", header, _OFF_VOX_OFFSET, float(VOX_OFFSET))
    struct.pack_into("<2f", header, _OFF_SCL_SLOPE, 1.0, 0.0)
    struct.pack_into("<h", header, _OFF_QFORM_CODE, 0)
    struct.pack_into("<h", header, _OFF_SFORM_CODE, 2)
    struct.pack_into("<12f", header, _OFF_SROW, *v.affine[:3, :].ravel())
    struct.pack_into("<4s", header, _OFF_MAGIC, MAGIC_SINGLE)

    try:
        with open(path, "wb") as fh:
            fh.write(header)
            for part in (v, *more):
                for i in range(part.n_volumes):
                    # The transposed volume in C order is the volume x-fastest.
                    fh.write(part.data[..., i].T.astype("<f4", order="C"))
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc}") from exc
