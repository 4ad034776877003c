import struct

import numpy as np
import pytest

from dmrislice import nifti
from dmrislice.errors import ParseError, ShapeError
from dmrislice.nifti import VOX_OFFSET, read_nifti, write_nifti
from dmrislice.phantom import PhantomSpec, make_phantom
from dmrislice.study import load_study, write_study
from dmrislice.volume import (
    GradientTable,
    Volume4D,
    read_gradient_table,
    shell_window,
    write_gradient_table,
)


def test_study_roundtrip(tmp_path):
    data = make_phantom(PhantomSpec(dims=(16, 16, 8), n_directions=12, n_b0=3, seed=4))
    write_study(data, tmp_path)
    for name in ("dwi.nii", "dwi.bval", "dwi.bvec", "labels.nii", "tensors.nii", "s0.nii", "phantom.json"):
        assert (tmp_path / name).exists()

    back = load_study(tmp_path)
    assert back.dwi.n_volumes == 12
    assert back.b0.n_volumes == 3
    assert len(back.gtab) == 12
    assert np.allclose(back.dwi.data, data.dwi.data, atol=1e-6)
    assert np.array_equal(back.labels.data, data.labels.data)
    for name, vol in (("tensors.nii", data.tensors), ("s0.nii", data.s0)):
        assert np.array_equal(read_nifti(tmp_path / name).data, vol.data.astype(np.float32))
    for vol in (back.dwi, back.b0, back.labels):
        assert vol.data.flags.c_contiguous


def test_load_specific_shell(tmp_path):
    data = make_phantom(PhantomSpec(dims=(16, 16, 8), n_directions=10, b_value=700.0))
    write_study(data, tmp_path)
    back = load_study(tmp_path, b_target=700.0)
    assert np.all(back.gtab.bvals == 700.0)


def test_write_study_holds_no_full_size_copy(tmp_path, traced_peak):
    data = make_phantom(PhantomSpec(dims=(32, 32, 8), n_directions=30))
    _, peak = traced_peak(write_study, data, tmp_path)
    assert peak <= 0.5 * data.dwi.data.nbytes


def test_load_study_holds_the_b0_and_shell_arrays_only(tmp_path, traced_peak):
    # No combined volume, no copy of the shell: the b0 volumes, the shell
    # and the labels, and the reader's buffer.
    data = make_phantom(PhantomSpec(dims=(32, 32, 8), n_directions=30))
    write_study(data, tmp_path)
    back, peak = traced_peak(load_study, tmp_path)
    assert np.array_equal(back.dwi.data, data.dwi.data.astype(np.float32))
    assert peak <= 1.3 * data.dwi.data.nbytes


def _whole_file(path, b_target):
    """(b0, shell volumes, shell table) of the study at ``path``, selected
    from the whole file's volume."""
    combined = read_nifti(path / "dwi.nii")
    gtab = read_gradient_table(path / "dwi.bval", path / "dwi.bvec")
    b0 = np.compress(gtab.b0_mask, combined.data, axis=3)
    keep, shell = shell_window(gtab, b_target)
    return b0, np.compress(keep, combined.data, axis=3), shell


def _write_table(path, bvals):
    rng = np.random.default_rng(len(bvals))
    bvecs = rng.standard_normal((len(bvals), 3))
    bvecs /= np.linalg.norm(bvecs, axis=1, keepdims=True)
    bvecs[np.asarray(bvals) <= 50] = 0.0
    write_gradient_table(GradientTable(bvals, bvecs), path / "dwi.bval", path / "dwi.bvec")


def _write_int16_dwi(path, n_volumes, slope=0.5, inter=3.0, dims=(5, 7, 3)):
    """An int16 ``dwi.nii`` with ``scl_slope``/``scl_inter``; its values
    in (x, y, z, v) order."""
    rng = np.random.default_rng(n_volumes)
    values = rng.integers(-300, 300, size=dims + (n_volumes,)).astype("<i2")
    write_nifti(Volume4D(np.zeros(dims + (n_volumes,))), path / "dwi.nii")
    raw = bytearray((path / "dwi.nii").read_bytes()[:VOX_OFFSET])
    struct.pack_into("<2h", raw, 70, 4, 16)  # datatype int16, bitpix 16
    struct.pack_into("<2f", raw, 112, slope, inter)
    (path / "dwi.nii").write_bytes(bytes(raw) + values.flatten(order="F").tobytes())
    return values


TABLES = {
    "b0-first": [0, 0, 1000, 1000, 1000, 1000, 1000],
    "b0-interleaved": [1000, 0, 1000, 1000, 0, 1000, 0, 1000],
    "two-shells": [0, 2000, 1000, 1000, 2000, 0, 1000, 2000, 2000],
}


@pytest.mark.parametrize("tile", ["default", "one row"])
@pytest.mark.parametrize("table", TABLES)
def test_load_study_matches_the_whole_file_path(tmp_path, monkeypatch, table, tile):
    if tile == "one row":
        monkeypatch.setattr(nifti, "_TILE_BYTES", 1)
    bvals = np.array(TABLES[table], dtype=float)
    _write_table(tmp_path, bvals)
    values = _write_int16_dwi(tmp_path, len(bvals))
    for b_target in sorted(set(bvals[bvals > 50])):
        back = load_study(tmp_path, b_target=b_target)
        b0, dwi, shell = _whole_file(tmp_path, b_target)
        assert back.b0.data.tobytes() == b0.tobytes()
        assert back.dwi.data.tobytes() == dwi.tobytes()
        assert np.array_equal(back.gtab.bvals, shell.bvals)
        assert np.array_equal(back.gtab.bvecs, shell.bvecs)
        assert np.array_equal(back.dwi.data, values[..., bvals == b_target] * 0.5 + 3.0)
        for vol in (back.b0, back.dwi):
            assert vol.data.flags.c_contiguous


def test_a_non_finite_value_in_a_dropped_shell_is_refused(tmp_path):
    bvals = np.array(TABLES["two-shells"], dtype=float)
    _write_table(tmp_path, bvals)
    data = np.ones((4, 3, 2, len(bvals)))
    data[2, 1, 1, 7] = np.nan  # b = 2000
    data[3, 0, 0, 4] = np.inf
    write_nifti(Volume4D(data), tmp_path / "dwi.nii")
    with pytest.raises(ShapeError) as whole:
        read_nifti(tmp_path / "dwi.nii")
    assert "2 non-finite voxel values, the first at (2, 1, 1, 7)" in str(whole.value)
    with pytest.raises(ShapeError) as err:
        load_study(tmp_path, b_target=1000.0)
    assert str(err.value) == str(whole.value)


def test_a_gradient_table_of_another_length_is_a_parse_error(tmp_path):
    data = make_phantom(PhantomSpec(dims=(8, 8, 4), n_directions=6, n_b0=2))
    write_study(data, tmp_path)
    _write_table(tmp_path, [0, 0] + [1000] * 7)
    with pytest.raises(ParseError, match=r"gradient table \(9\) does not match the volumes \(8\)"):
        load_study(tmp_path)


def test_a_truncated_payload_is_refused_before_the_arrays_are_made(tmp_path, traced_peak):
    data = make_phantom(PhantomSpec(dims=(32, 32, 8), n_directions=30))
    write_study(data, tmp_path)
    raw = (tmp_path / "dwi.nii").read_bytes()
    (tmp_path / "dwi.nii").write_bytes(raw[:-4])

    def load():
        with pytest.raises(ParseError, match="data section truncated"):
            load_study(tmp_path)

    _, peak = traced_peak(load)
    assert peak <= 0.05 * data.dwi.data.nbytes
