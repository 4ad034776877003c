import os
import struct
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import mutation
from dmrislice.errors import DmrisliceError, ParseError, ShapeError, UnsupportedFormat
from dmrislice.nifti import HEADER_SIZE, VOX_OFFSET, read_nifti, write_nifti
from dmrislice.volume import Volume4D


def synth_nifti(path, dims, datatype_code, dtype, values):
    """Hand-rolled NIfTI-1 file for reader tests."""
    nx, ny, nz, nv = dims
    header = bytearray(VOX_OFFSET)
    struct.pack_into("<i", header, 0, HEADER_SIZE)
    struct.pack_into("<8h", header, 40, 4, nx, ny, nz, nv, 1, 1, 1)
    struct.pack_into("<h", header, 70, datatype_code)
    struct.pack_into("<h", header, 72, np.dtype(dtype).itemsize * 8)
    struct.pack_into("<8f", header, 76, 1, 1, 1, 1, 1, 1, 1, 1)
    struct.pack_into("<f", header, 108, float(VOX_OFFSET))
    struct.pack_into("<4s", header, 344, b"n+1\x00")
    payload = np.asarray(values, dtype=dtype).flatten(order="F").tobytes()
    path.write_bytes(bytes(header) + payload)


def test_read_minimal_header(tmp_path):
    p = tmp_path / "t.nii"
    values = np.arange(8 * 8 * 4 * 3, dtype=np.float32).reshape(8, 8, 4, 3)
    synth_nifti(p, (8, 8, 4, 3), 16, "<f4", values)
    v = read_nifti(p)
    assert v.dims == (8, 8, 4, 3)
    assert np.array_equal(v.data, values)


@pytest.mark.parametrize("code,dtype", [(4, "<i2"), (16, "<f4"), (64, "<f8")])
def test_read_returns_c_contiguous_data_of_the_x_fastest_payload(tmp_path, code, dtype):
    p = tmp_path / "t.nii"
    dims = (5, 4, 3, 6)
    values = np.arange(np.prod(dims)).reshape(dims) * 3 - 100
    synth_nifti(p, dims, code, dtype, values)
    payload = np.frombuffer(p.read_bytes(), dtype=dtype, offset=VOX_OFFSET)
    v = read_nifti(p)
    assert v.data.flags.c_contiguous and v.data.dtype == np.float64
    assert np.array_equal(v.data, payload.reshape(dims, order="F"))


def test_bad_sizeof_hdr(tmp_path):
    p = tmp_path / "t.nii"
    p.write_bytes(b"\x00" * 400)
    with pytest.raises(ParseError) as err:
        read_nifti(p)
    assert err.value.offset == 0


def test_unsupported_datatype(tmp_path):
    p = tmp_path / "t.nii"
    synth_nifti(p, (2, 2, 2, 1), 16, "<f4", np.zeros((2, 2, 2, 1)))
    raw = bytearray(p.read_bytes())
    struct.pack_into("<h", raw, 70, 32)  # complex64, unsupported
    struct.pack_into("<h", raw, 72, 64)
    p.write_bytes(bytes(raw))
    with pytest.raises(UnsupportedFormat):
        read_nifti(p)


def test_truncated_data_section(tmp_path):
    p = tmp_path / "t.nii"
    synth_nifti(p, (4, 4, 4, 1), 16, "<f4", np.zeros((4, 4, 4, 1)))
    raw = p.read_bytes()
    p.write_bytes(raw[:-8])
    with pytest.raises(ParseError):
        read_nifti(p)


def test_scl_slope_applied(tmp_path):
    p = tmp_path / "t.nii"
    synth_nifti(p, (2, 2, 1, 1), 4, "<i2", np.ones((2, 2, 1, 1)))
    raw = bytearray(p.read_bytes())
    struct.pack_into("<2f", raw, 112, 2.0, 5.0)
    p.write_bytes(bytes(raw))
    v = read_nifti(p)
    assert np.all(v.data == 7.0)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_voxels_rejected(tmp_path, bad):
    p = tmp_path / "t.nii"
    values = np.ones((3, 2, 2, 2), dtype=np.float32)
    values[1, 0, 1, 0] = bad
    values[2, 1, 1, 1] = bad
    synth_nifti(p, (3, 2, 2, 2), 16, "<f4", values)
    with pytest.raises(ShapeError, match=r"2 non-finite voxel values, the first at \(1, 0, 1, 0\)"):
        read_nifti(p)


@pytest.mark.parametrize(
    "scaling, message",
    [
        ((1.0, 0.0), "1 non-finite voxel values, the first at (1, 0, 1, 0)"),
        ((-np.inf, np.inf), "16 non-finite voxel values, the first at (0, 0, 0, 0)"),
    ],
    ids=["signaling-nan", "inf-scaling"],
)
def test_signaling_nan_or_inf_scaling_is_rejected_without_a_warning(tmp_path, scaling, message):
    # A signaling NaN, and -inf * x + inf, raise the invalid flag in NumPy.
    p = tmp_path / "t.nii"
    bits = np.full((2, 2, 2, 2), np.float32(1.0).view(np.uint32))
    bits[1, 0, 1, 0] = 0x7FA00000  # a signaling NaN
    synth_nifti(p, (2, 2, 2, 2), 16, "<u4", bits)
    raw = bytearray(p.read_bytes())
    struct.pack_into("<2f", raw, 112, *scaling)
    p.write_bytes(bytes(raw))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ShapeError) as info:
            read_nifti(p)
    assert message in str(info.value)


def test_write_header_constants(tmp_path):
    p = tmp_path / "o.nii"
    write_nifti(Volume4D(np.zeros((2, 2, 2, 1))), p)
    raw = p.read_bytes()
    assert struct.unpack_from("<i", raw, 0)[0] == 348
    assert raw[344:348] == b"n+1\x00"
    assert struct.unpack_from("<f", raw, 108)[0] == 352.0


def test_write_zero_volume_payload(tmp_path):
    p = tmp_path / "o.nii"
    write_nifti(Volume4D(np.zeros((2, 2, 2, 1))), p)
    raw = p.read_bytes()
    assert len(raw) == 352 + 32
    assert raw[352:] == b"\x00" * 32


def test_roundtrip_bit_exact(tmp_path):
    rng = np.random.default_rng(0)
    data = rng.standard_normal((5, 4, 3, 2)).astype(np.float32).astype(np.float64)
    v = Volume4D(data, spacing=(1.17, 1.17, 1.5))
    p = tmp_path / "o.nii"
    write_nifti(v, p)
    back = read_nifti(p)
    assert back.dims == v.dims
    assert np.array_equal(back.data, v.data)
    assert np.allclose(back.spacing, v.spacing, atol=1e-6)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_roundtrip_property(seed):
    import tempfile, os

    rng = np.random.default_rng(seed)
    dims = tuple(int(d) for d in rng.integers(1, 5, size=4))
    data = rng.standard_normal(dims).astype(np.float32).astype(np.float64)
    v = Volume4D(data)
    with tempfile.TemporaryDirectory() as tmp:
        p = os.path.join(tmp, "x.nii")
        write_nifti(v, p)
        back = read_nifti(p)
        assert np.array_equal(back.data, v.data)


@pytest.mark.parametrize(
    "code,dtype",
    [(2, "<u1"), (4, "<i2"), (8, "<i4"), (16, "<f4"), (64, "<f8")],
)
def test_all_supported_datatypes(tmp_path, code, dtype):
    rng = np.random.default_rng(code)
    values = rng.integers(0, 100, size=(3, 3, 2, 2)).astype(dtype)
    p = tmp_path / "t.nii"
    synth_nifti(p, (3, 3, 2, 2), code, dtype, values)
    v = read_nifti(p)
    assert np.array_equal(v.data, values.astype(np.float64))
    # our writer's output re-reads bit-exactly
    q = tmp_path / "o.nii"
    write_nifti(v, q)
    again = read_nifti(q)
    assert np.array_equal(again.data, v.data)


def test_two_file_magic_rejected(tmp_path):
    p = tmp_path / "t.nii"
    synth_nifti(p, (2, 2, 1, 1), 16, "<f4", np.zeros((2, 2, 1, 1)))
    raw = bytearray(p.read_bytes())
    struct.pack_into("<4s", raw, 344, b"ni1\x00")
    p.write_bytes(bytes(raw))
    with pytest.raises(UnsupportedFormat):
        read_nifti(p)


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -1.0, 1e30])
def test_vox_offset_outside_the_file_rejected(tmp_path, value):
    p = tmp_path / "t.nii"
    synth_nifti(p, (2, 2, 1, 1), 16, "<f4", np.zeros((2, 2, 1, 1)))
    raw = bytearray(p.read_bytes())
    struct.pack_into("<f", raw, 108, value)
    p.write_bytes(bytes(raw))
    with pytest.raises(ParseError):
        read_nifti(p)


def _small_nifti_bytes() -> bytes:
    rng = np.random.default_rng(3)
    v = Volume4D(rng.uniform(0, 1, (3, 2, 2, 2)), spacing=(1.0, 1.5, 2.0))
    with tempfile.TemporaryDirectory() as tmp:
        p = os.path.join(tmp, "x.nii")
        write_nifti(v, p)
        with open(p, "rb") as fh:
            return fh.read()


SMALL_NIFTI = _small_nifti_bytes()


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(mutation.variants(SMALL_NIFTI, hot=VOX_OFFSET))
def test_nifti_fuzz_reads_or_raises_dmrislice_error(variant):
    with tempfile.TemporaryDirectory() as tmp:
        p = os.path.join(tmp, "x.nii")
        with open(p, "wb") as fh:
            fh.write(mutation.apply(SMALL_NIFTI, variant))
        try:
            read_nifti(p)
        except DmrisliceError:
            pass
