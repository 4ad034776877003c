import numpy as np
import pytest

from dmrislice.dti import dti_scalars, fit_dti
from dmrislice.phantom import (
    LABELS,
    PhantomSpec,
    fibonacci_directions,
    make_phantom,
)

WM_FA = 0.7990222037494896  # FA formula at (1.7, 0.3, 0.3)e-3


def test_directions_unit_and_spread():
    dirs = fibonacci_directions(88)
    assert dirs.shape == (88, 3)
    assert np.allclose(np.linalg.norm(dirs, axis=1), 1.0, atol=1e-12)
    # near-uniform: mean direction close to zero
    assert np.linalg.norm(dirs.mean(axis=0)) < 0.05


def test_phantom_has_all_regions_on_every_slice():
    data = make_phantom(PhantomSpec())
    lab = data.labels.labels_array()
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
    wm = data.labels.labels_array() == LABELS["wm"]
    assert np.abs(fa[wm] - WM_FA).max() < 1e-6


def test_noiseless_fit_recovers_csf_md():
    data = make_phantom(PhantomSpec())
    t = fit_dti(data.dwi, data.b0, data.gtab)
    md = dti_scalars(t)[1].data[..., 0]
    csf = data.labels.labels_array() == LABELS["csf"]
    assert np.abs(md[csf] - 3.0e-3).max() < 1e-10


def test_cc_band_left_right_axis():
    data = make_phantom(PhantomSpec())
    cc = data.labels.labels_array() == LABELS["cc"]
    d6 = data.tensors.d6[cc]
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
