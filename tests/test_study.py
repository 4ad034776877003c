import numpy as np
from dmrislice.nifti import read_nifti
from dmrislice.phantom import PhantomSpec, make_phantom
from dmrislice.study import load_study, write_study


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
