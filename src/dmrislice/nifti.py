"""Minimal NIfTI-1 single-file (.nii) reader and writer.

Supports little-endian, uncompressed files with scalar datatypes
{uint8, int16, int32, float32, float64}. On disk x varies fastest, as NIfTI
prescribes, for reading and writing alike. In memory, data come back as the
C-contiguous float64 (x, y, z, v) array a :class:`~dmrislice.volume.Volume4D`
stores, v fastest, with scl_slope/scl_inter applied when the slope is
nonzero. Non-finite voxel values are rejected on reading, and
:func:`read_labels` also rejects label maps that are not non-negative
integers or do not lie on the data's voxel grid. The writer always emits
float32 with vox_offset 352.
"""

from __future__ import annotations

import struct

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


def _quaternion_affine(header: bytes, spacing) -> np.ndarray:
    b, c, d, ox, oy, oz = struct.unpack_from("<6f", header, _OFF_QUATERN)
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
    try:
        with open(path, "rb") as fh:
            buf = fh.read()
    except OSError as exc:
        raise IoError(f"cannot read {path}: {exc}") from exc

    if len(buf) < HEADER_SIZE:
        raise ParseError(f"{path}: file shorter than a NIfTI-1 header", offset=len(buf))
    sizeof_hdr = struct.unpack_from("<i", buf, 0)[0]
    if sizeof_hdr != HEADER_SIZE:
        raise ParseError(
            f"{path}: sizeof_hdr is {sizeof_hdr}, expected {HEADER_SIZE} "
            "(not a little-endian NIfTI-1 file)",
            offset=0,
        )
    magic = struct.unpack_from("<4s", buf, _OFF_MAGIC)[0]
    if magic == MAGIC_PAIR:
        raise UnsupportedFormat(f"{path}: two-file NIfTI (.hdr/.img) is not supported")
    if magic != MAGIC_SINGLE:
        raise ParseError(f"{path}: bad magic {magic!r}", offset=_OFF_MAGIC)

    dim = struct.unpack_from("<8h", buf, _OFF_DIM)
    ndim = dim[0]
    if not 1 <= ndim <= 7:
        raise ParseError(f"{path}: dim[0]={ndim} outside [1, 7]", offset=_OFF_DIM)
    extents = [max(1, dim[i]) if i <= ndim else 1 for i in range(1, 8)]
    if any(e > 1 for e in extents[4:]):
        raise UnsupportedFormat(f"{path}: more than 4 non-trivial dimensions")
    nx, ny, nz, nv = extents[:4]

    datatype = struct.unpack_from("<h", buf, _OFF_DATATYPE)[0]
    if datatype not in _DTYPES:
        raise UnsupportedFormat(f"{path}: datatype code {datatype} not supported")
    dtype = _DTYPES[datatype]
    bitpix = struct.unpack_from("<h", buf, _OFF_BITPIX)[0]
    if bitpix != dtype.itemsize * 8:
        raise ParseError(
            f"{path}: bitpix {bitpix} inconsistent with datatype {datatype}",
            offset=_OFF_BITPIX,
        )

    pixdim = struct.unpack_from("<8f", buf, _OFF_PIXDIM)
    spacing = tuple(float(p) if p > 0 else 1.0 for p in pixdim[1:4])

    vox_offset = struct.unpack_from("<f", buf, _OFF_VOX_OFFSET)[0]
    if not vox_offset >= HEADER_SIZE or vox_offset > len(buf):
        raise ParseError(
            f"{path}: vox_offset {vox_offset} lies outside the data section",
            offset=_OFF_VOX_OFFSET,
        )
    vox_offset = int(round(vox_offset))
    count = nx * ny * nz * nv
    needed = vox_offset + count * dtype.itemsize
    if len(buf) < needed:
        raise ParseError(
            f"{path}: data section truncated ({len(buf)} bytes, need {needed})",
            offset=len(buf),
        )

    raw = np.frombuffer(buf, dtype=dtype, count=count, offset=vox_offset)
    slope, inter = struct.unpack_from("<2f", buf, _OFF_SCL_SLOPE)
    # A signaling NaN in the payload, or a scaling that makes inf or NaN,
    # raises floating-point flags; the non-finite check below reports them.
    with np.errstate(invalid="ignore", over="ignore"):
        # One casting copy from the x-fastest payload into the voxel-major layout.
        data = raw.reshape((nx, ny, nz, nv), order="F").astype(np.float64, order="C")
        if slope != 0.0 and not (slope == 1.0 and inter == 0.0):
            data *= slope
            data += inter
    # NaN propagates through min and max, and +-inf is an extreme, so two
    # reductions check every value; the mask is built only to report one.
    if not (np.isfinite(data.min()) and np.isfinite(data.max())):
        bad = ~np.isfinite(data)
        first = tuple(int(i) for i in np.unravel_index(np.argmax(bad), bad.shape))
        raise ShapeError(
            f"{path}: {np.count_nonzero(bad)} non-finite voxel values, the first at {first}"
        )

    sform_code = struct.unpack_from("<h", buf, _OFF_SFORM_CODE)[0]
    qform_code = struct.unpack_from("<h", buf, _OFF_QFORM_CODE)[0]
    if sform_code > 0:
        rows = struct.unpack_from("<12f", buf, _OFF_SROW)
        affine = np.vstack([np.array(rows).reshape(3, 4), [0, 0, 0, 1]])
    elif qform_code > 0:
        affine = _quaternion_affine(buf, spacing)
    else:
        affine = np.diag([spacing[0], spacing[1], spacing[2], 1.0])
    return Volume4D(data=data, spacing=spacing, affine=affine)


def read_labels(path, dims) -> Volume4D:
    """Read a label map or mask for the ``(X, Y, Z)`` voxel grid ``dims``; its
    values must be non-negative integers."""
    labels = read_nifti(path)
    check_grid(labels, dims, f"{path}: labels")
    data = labels.data
    if np.any(data < 0) or np.any(data != np.round(data)):
        raise ShapeError(f"{path}: labels must be non-negative integers")
    return labels


def write_nifti(v: Volume4D, path, *more: Volume4D) -> None:
    """Write a single-file NIfTI-1 volume with float32 data.

    Values are cast to float32; the round trip through :func:`read_nifti` is
    bit-exact whenever the data are float32-representable. A volume with a
    zero extent is refused, since the header cannot store it: the reader
    takes a zero dimension as 1. ``more`` are volumes on ``v``'s voxel grid
    whose values follow ``v``'s along the volume axis, as if concatenated
    with it; the header, spacing and affine are ``v``'s. The payload is cast
    and written one volume at a time, the outermost axis of its x-fastest
    order, so no full-size copy is made.
    """
    if 0 in v.dims:
        raise ShapeError(f"cannot write {path}: the volume has a zero extent, {v.dims}")
    for part in more:
        check_grid(part, v.dims, f"cannot write {path}: a further volume")
    nx, ny, nz = v.dims[:3]
    nv = sum(part.n_volumes for part in (v, *more))
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
