import struct

import numpy as np
import pytest

from dmrislice.dti import dti_scalars, fit_dti
from dmrislice.phantom import (
    LABELS,
    PhantomSpec,
    fibonacci_directions,
    make_phantom,
)
from dmrislice.study import write_study

WM_FA = 0.7990222037494896  # FA formula at (1.7, 0.3, 0.3)e-3


def test_directions_unit_and_spread():
    dirs = fibonacci_directions(88)
    assert dirs.shape == (88, 3)
    assert np.allclose(np.linalg.norm(dirs, axis=1), 1.0, atol=1e-12)
    # near-uniform: mean direction close to zero
    assert np.linalg.norm(dirs.mean(axis=0)) < 0.05


def test_phantom_has_all_regions_on_every_slice():
    data = make_phantom(PhantomSpec())
    lab = data.labels.data[..., 0]
    for z in range(lab.shape[2]):
        present = set(np.unique(lab[:, :, z]))
        assert {LABELS["csf"], LABELS["cgm"], LABELS["wm"], LABELS["cc"]} <= present


def test_phantom_determinism():
    a = make_phantom(PhantomSpec(noise="rician", noise_sigma=0.05, seed=9))
    b = make_phantom(PhantomSpec(noise="rician", noise_sigma=0.05, seed=9))
    assert np.array_equal(a.dwi.data, b.dwi.data)
    assert np.array_equal(a.b0.data, b.b0.data)
    c = make_phantom(PhantomSpec(noise="rician", noise_sigma=0.05, seed=10))
    assert not np.array_equal(a.dwi.data, c.dwi.data)


def test_noiseless_fit_recovers_wm_fa():
    data = make_phantom(PhantomSpec())
    t = fit_dti(data.dwi, data.b0, data.gtab)
    fa = dti_scalars(t)[0].data[..., 0]
    wm = data.labels.data[..., 0] == LABELS["wm"]
    assert np.abs(fa[wm] - WM_FA).max() < 1e-6


def test_noiseless_fit_recovers_csf_md():
    data = make_phantom(PhantomSpec())
    t = fit_dti(data.dwi, data.b0, data.gtab)
    md = dti_scalars(t)[1].data[..., 0]
    csf = data.labels.data[..., 0] == LABELS["csf"]
    assert np.abs(md[csf] - 3.0e-3).max() < 1e-10


def test_cc_band_left_right_axis():
    data = make_phantom(PhantomSpec())
    cc = data.labels.data[..., 0] == LABELS["cc"]
    d6 = data.tensors.data[cc]
    assert np.allclose(d6[:, 0], 1.7e-3)
    assert np.allclose(d6[:, 1], 0.3e-3)
    assert np.allclose(d6[:, 3:], 0.0)


def test_noise_models():
    g = make_phantom(PhantomSpec(noise="gaussian", noise_sigma=0.02, seed=1))
    r = make_phantom(PhantomSpec(noise="rician", noise_sigma=0.02, seed=1))
    clean = make_phantom(PhantomSpec())
    assert not np.array_equal(g.dwi.data, clean.dwi.data)
    assert np.all(r.dwi.data >= 0.0)  # rician magnitudes are non-negative


def test_spec_validation():
    with pytest.raises(Exception):
        PhantomSpec(noise="gaussian", noise_sigma=0.0)
    with pytest.raises(Exception):
        PhantomSpec(dims=(2, 2))


def _noise_out_of_place(signal, spec, rng):
    if spec.noise == "none":
        return signal
    if spec.noise == "gaussian":
        return signal + spec.noise_sigma * rng.standard_normal(signal.shape)
    real = signal + spec.noise_sigma * rng.standard_normal(signal.shape)
    imag = spec.noise_sigma * rng.standard_normal(signal.shape)
    return np.sqrt(real * real + imag * imag)


def _reference_dwi_and_b0(data):
    """The phantom's DWI and b0 arrays by the whole-array formulas: one
    full-volume einsum for g^T D g, then the signal and the noise out of
    place, from the phantom's ground-truth tensors and S0."""
    spec, d6, s0 = data.spec, data.tensors.data, data.s0.data[..., 0]
    dirs = fibonacci_directions(spec.n_directions)
    dmat = np.zeros(spec.dims + (3, 3))
    dmat[..., 0, 0] = d6[..., 0]
    dmat[..., 1, 1] = d6[..., 1]
    dmat[..., 2, 2] = d6[..., 2]
    dmat[..., 0, 1] = dmat[..., 1, 0] = d6[..., 3]
    dmat[..., 0, 2] = dmat[..., 2, 0] = d6[..., 4]
    dmat[..., 1, 2] = dmat[..., 2, 1] = d6[..., 5]
    gdg = np.einsum("di,xyzij,dj->xyzd", dirs, dmat, dirs, optimize=True)
    signal = s0[..., None] * np.exp(-spec.b_value * gdg)
    rng = np.random.default_rng(spec.seed)
    signal = _noise_out_of_place(signal, spec, rng)
    b0 = _noise_out_of_place(np.repeat(s0[..., None], spec.n_b0, axis=3), spec, rng)
    return signal, b0


def _bytes(a):
    return np.ascontiguousarray(a).tobytes()


@pytest.mark.parametrize("noise", ["none", "gaussian", "rician"])
@pytest.mark.parametrize(
    "dims, n_directions", [((32, 32, 8), 30), ((9, 7, 5), 13), ((7, 24, 6), 20)]
)
def test_phantom_is_the_whole_array_formulas_to_the_byte(dims, n_directions, noise):
    sigma = 0.0 if noise == "none" else 0.03
    spec = PhantomSpec(
        dims=dims, n_directions=n_directions, n_b0=3, noise=noise, noise_sigma=sigma, seed=11
    )
    data = make_phantom(spec)
    dwi, b0 = _reference_dwi_and_b0(data)
    assert data.dwi.data.flags.c_contiguous and data.b0.data.flags.c_contiguous
    assert data.dwi.data.tobytes() == _bytes(dwi)
    assert data.b0.data.tobytes() == _bytes(b0)


def test_phantom_with_three_directions_is_the_whole_array_formulas_to_rounding():
    # With two or three directions OpenBLAS can run the x-slab GEMMs of
    # g^T D g through other kernels than the full-volume GEMM, and on some
    # grids, this one among them, the last bits of the signal differ. The
    # noise draws stay the same.
    spec = PhantomSpec(dims=(24, 13, 41), n_directions=3, noise="rician", noise_sigma=0.03)
    data = make_phantom(spec)
    dwi, b0 = _reference_dwi_and_b0(data)
    np.testing.assert_allclose(data.dwi.data, dwi, rtol=1e-14, atol=0)
    assert data.b0.data.tobytes() == _bytes(b0)


def _reference_dwi_nii(data) -> bytes:
    """``dwi.nii`` as a whole-array writer makes it: the b0 and diffusion
    volumes concatenated, cast to float32 and laid out x-fastest."""
    combined = np.concatenate([data.b0.data, data.dwi.data], axis=3)
    nx, ny, nz, nv = combined.shape
    header = bytearray(352)
    struct.pack_into("<i", header, 0, 348)
    struct.pack_into("<8h", header, 40, 4, nx, ny, nz, nv, 1, 1, 1)
    struct.pack_into("<h", header, 70, 16)
    struct.pack_into("<h", header, 72, 32)
    struct.pack_into("<8f", header, 76, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0)
    struct.pack_into("<f", header, 108, 352.0)
    struct.pack_into("<2f", header, 112, 1.0, 0.0)
    struct.pack_into("<h", header, 254, 2)
    struct.pack_into("<12f", header, 280, *np.eye(4)[:3, :].ravel())
    struct.pack_into("<4s", header, 344, b"n+1\x00")
    return bytes(header) + combined.astype("<f4").tobytes(order="F")


def test_write_study_dwi_file_is_the_concatenated_volumes(tmp_path):
    data = make_phantom(
        PhantomSpec(dims=(9, 7, 5), n_directions=13, n_b0=3, noise="rician", noise_sigma=0.03)
    )
    write_study(data, tmp_path)
    assert (tmp_path / "dwi.nii").read_bytes() == _reference_dwi_nii(data)


@pytest.mark.parametrize("noise", ["gaussian", "rician"])
def test_make_phantom_holds_little_beyond_its_dwi(noise, traced_peak):
    make_phantom(PhantomSpec(dims=(4, 4, 4), n_directions=6))  # first-call set-up
    spec = PhantomSpec(dims=(32, 32, 8), n_directions=30, noise=noise, noise_sigma=0.02)
    data, peak = traced_peak(make_phantom, spec)
    assert peak <= 2.2 * data.dwi.data.nbytes

