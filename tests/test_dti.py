import numpy as np
import pytest

from dmrislice.dti import _eigvals_sym3, dti_scalars, fit_dti
from dmrislice.errors import ShapeError, Underdetermined
from dmrislice.phantom import PhantomSpec, fibonacci_directions, make_phantom
from dmrislice.volume import GradientTable, Volume4D

WM_EIG = np.array([1.7e-3, 0.3e-3, 0.3e-3])
# FA of (1.7, 0.3, 0.3)e-3 computed from the FA formula directly.
WM_FA = float(
    np.sqrt(0.5)
    * np.sqrt((WM_EIG[0] - WM_EIG[1]) ** 2 + (WM_EIG[1] - WM_EIG[2]) ** 2 + (WM_EIG[2] - WM_EIG[0]) ** 2)
    / np.sqrt((WM_EIG**2).sum())
)


def tensor_signal(d6, bvals, bvecs, s0=1.0):
    """Forward monoexponential signal for one tensor, the fit oracle."""
    dxx, dyy, dzz, dxy, dxz, dyz = d6
    quad = (
        bvecs[:, 0] ** 2 * dxx
        + bvecs[:, 1] ** 2 * dyy
        + bvecs[:, 2] ** 2 * dzz
        + 2 * bvecs[:, 0] * bvecs[:, 1] * dxy
        + 2 * bvecs[:, 0] * bvecs[:, 2] * dxz
        + 2 * bvecs[:, 1] * bvecs[:, 2] * dyz
    )
    return s0 * np.exp(-bvals * quad)


def _setup_fit(d6, n_dirs=88, b=1000.0, s0=1.0):
    dirs = fibonacci_directions(n_dirs)
    bvals = np.full(n_dirs, b)
    signal = tensor_signal(d6, bvals, dirs)
    dwi = Volume4D(np.broadcast_to(signal, (2, 2, 1, n_dirs)).copy())
    b0 = Volume4D(np.full((2, 2, 1, 1), s0))
    g = GradientTable(bvals, dirs)
    return dwi, b0, g


def test_fit_recovers_anisotropic_tensor():
    d6 = np.array([1.7e-3, 0.3e-3, 0.3e-3, 0.0, 0.0, 0.0])
    dwi, b0, g = _setup_fit(d6)
    t = fit_dti(dwi, b0, g)
    assert t.dims == (2, 2, 1, 6)
    assert np.abs(t.data - d6).max() < 1e-10


def test_fit_isotropic():
    d = 3.0e-3
    d6 = np.array([d, d, d, 0.0, 0.0, 0.0])
    dwi, b0, g = _setup_fit(d6)
    t = fit_dti(dwi, b0, g)
    assert np.abs(t.data[..., :3] - d).max() < 1e-10
    assert np.abs(t.data[..., 3:]).max() < 1e-10


def test_fit_handles_zero_signal_sample():
    d6 = np.array([1.0e-3, 1.0e-3, 1.0e-3, 0.0, 0.0, 0.0])
    dwi, b0, g = _setup_fit(d6, n_dirs=30)
    data = dwi.data.copy()
    data[0, 0, 0, 5] = 0.0  # floored to 1e-6 internally, no error
    t = fit_dti(Volume4D(data), b0, g)
    assert np.isfinite(t.data).all()


def test_fit_underdetermined():
    d6 = np.array([1.0e-3, 1.0e-3, 1.0e-3, 0.0, 0.0, 0.0])
    dwi, b0, g = _setup_fit(d6, n_dirs=5)
    with pytest.raises(Underdetermined):
        fit_dti(dwi, b0, g)


def test_eig_diagonal():
    lam = _eigvals_sym3(np.array([3.0, 2.0, 1.0, 0.0, 0.0, 0.0]))
    assert np.allclose(lam, [3.0, 2.0, 1.0], atol=1e-12)


def test_eig_identity_degenerate():
    lam = _eigvals_sym3(np.array([1.0, 1.0, 1.0, 0.0, 0.0, 0.0]))
    assert np.allclose(lam, 1.0, atol=1e-14)


def test_eig_known_offdiagonal():
    # Dxx=Dyy=2, Dxy=1, Dzz=1: characteristic roots 3, 1, 1.
    lam = _eigvals_sym3(np.array([2.0, 2.0, 1.0, 1.0, 0.0, 0.0]))
    assert np.allclose(lam, [3.0, 1.0, 1.0], atol=1e-12)


def test_eig_matches_numpy_on_random_tensors():
    rng = np.random.default_rng(0)
    d6 = rng.standard_normal((200, 6))
    lam = _eigvals_sym3(d6)
    for i in range(d6.shape[0]):
        m = np.array(
            [
                [d6[i, 0], d6[i, 3], d6[i, 4]],
                [d6[i, 3], d6[i, 1], d6[i, 5]],
                [d6[i, 4], d6[i, 5], d6[i, 2]],
            ]
        )
        ref = np.sort(np.linalg.eigvalsh(m))[::-1]
        assert np.allclose(lam[i], ref, atol=1e-10 * max(1.0, np.abs(ref).max()))


def test_eigensolver_trace_consistency():
    rng = np.random.default_rng(1)
    d6 = rng.standard_normal((500, 6))
    lam = _eigvals_sym3(d6)
    trace = d6[:, 0] + d6[:, 1] + d6[:, 2]
    assert np.abs(lam.sum(axis=1) - trace).max() < 1e-12 * max(1.0, np.abs(trace).max())


def test_eigvals_only_matches_numpy_on_random_tensors():
    rng = np.random.default_rng(4)
    d6 = rng.standard_normal((500, 6))
    lam = _eigvals_sym3(d6)
    ref = np.linalg.eigvalsh(d6[:, [[0, 3, 4], [3, 1, 5], [4, 5, 2]]])[:, ::-1]
    for i in range(d6.shape[0]):
        assert np.allclose(lam[i], ref[i], atol=1e-10 * max(1.0, np.abs(ref[i]).max()))


def test_eigvals_only_degenerate_limits():
    iso = np.array([[2.0, 2.0, 2.0, 0, 0, 0], [1e-3, 1e-3, 1e-3, 0, 0, 0], [0.7, 0.7, 0.7, 0, 0, 0]])
    q = (iso[:, 0] + iso[:, 1] + iso[:, 2]) / 3.0
    assert np.array_equal(_eigvals_sym3(iso), np.repeat(q[:, None], 3, axis=1))
    assert np.array_equal(_eigvals_sym3(np.zeros((4, 6))), np.zeros((4, 3)))
    stick = _eigvals_sym3(np.array([1.0, 0, 0, 0, 0, 0]))
    assert np.abs(stick - [1.0, 0.0, 0.0]).max() < 1e-9


def _tensor_volume_from_eigs(lam):
    d6 = np.zeros((1, 1, 1, 6))
    d6[0, 0, 0, :3] = lam
    return Volume4D(d6)


def fa_of(lam):
    return dti_scalars(_tensor_volume_from_eigs(lam))[0].data.ravel()[0]


def md_of(lam):
    return dti_scalars(_tensor_volume_from_eigs(lam))[1].data.ravel()[0]


def test_fa_values():
    assert fa_of([1e-3, 1e-3, 1e-3]) == pytest.approx(0.0, abs=1e-12)
    # the doubly degenerate stick limit
    assert fa_of([1.0, 0.0, 0.0]) == pytest.approx(1.0, abs=1e-8)
    fa = fa_of(WM_EIG)
    assert fa == pytest.approx(WM_FA, abs=1e-12)
    assert fa == pytest.approx(0.7990, abs=1e-4)
    assert fa_of([0.0, 0.0, 0.0]) == 0.0


def test_md_values():
    md = md_of(WM_EIG)
    assert md == pytest.approx(WM_EIG.mean(), abs=1e-12)
    assert md == pytest.approx(0.76667e-3, abs=1e-7)
    assert md_of([0, 0, 0]) == 0.0
    assert md_of([1.0, 1.0, 1.0]) == pytest.approx(1.0)


def test_fa_bounded_on_noisy_fits():
    rng = np.random.default_rng(2)
    d6 = rng.standard_normal((4, 4, 2, 6)) * 1e-3
    fa = dti_scalars(Volume4D(d6))[0].data
    assert fa.min() >= 0.0 and fa.max() <= 1.0 + 1e-12


def _random_rotation(rng):
    q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def test_rotation_equivariance_of_fa_md():
    rng = np.random.default_rng(3)
    lam = np.diag([1.7e-3, 0.3e-3, 0.3e-3])
    rot = _random_rotation(rng)
    d = rot @ lam @ rot.T
    d6 = np.array([d[0, 0], d[1, 1], d[2, 2], d[0, 1], d[0, 2], d[1, 2]])

    dwi_r, b0, g = _setup_fit(d6)
    dwi_0, _, _ = _setup_fit(np.array([1.7e-3, 0.3e-3, 0.3e-3, 0, 0, 0]))
    t_r = fit_dti(dwi_r, b0, g)
    t_0 = fit_dti(dwi_0, b0, g)
    (fa_r, md_r), (fa_0, md_0) = dti_scalars(t_r), dti_scalars(t_0)
    assert np.abs(fa_r.data - fa_0.data).max() < 1e-8
    assert np.abs(md_r.data - md_0.data).max() < 1e-8


def test_fit_dti_holds_one_full_size_array(traced_peak):
    spec = PhantomSpec(dims=(32, 32, 8), n_directions=30, noise="rician", noise_sigma=0.02)
    data = make_phantom(spec)
    _, peak = traced_peak(fit_dti, data.dwi, data.b0, data.gtab)
    assert peak <= 1.4 * (data.dwi.data.nbytes + data.b0.data.nbytes)


def test_fit_is_a_tensor_field_on_the_dwi_grid_zero_outside_the_mask():
    d6 = np.array([1.7e-3, 0.3e-3, 0.3e-3, 0.0, 0.0, 0.0])
    dwi, b0, g = _setup_fit(d6)
    affine = np.diag([2.0, 2.0, 3.0, 1.0])
    dwi = Volume4D(dwi.data, spacing=(2.0, 2.0, 3.0), affine=affine)
    mask = Volume4D(np.array([[1.0, 0.0], [0.0, 2.0]])[:, :, None])
    t = fit_dti(dwi, b0, g, mask=mask)
    assert t.dims == (2, 2, 1, 6) and t.data.flags.c_contiguous
    assert t.spacing == (2.0, 2.0, 3.0) and np.array_equal(t.affine, affine)
    assert np.array_equal(t.data[[0, 1], [1, 0]], np.zeros((2, 1, 6)))
    assert np.array_equal(t.data[[0, 1], [0, 1]], fit_dti(dwi, b0, g).data[[0, 1], [0, 1]])
    fa, md = dti_scalars(t)
    for m in (fa, md):
        assert m.dims == (2, 2, 1, 1) and m.spacing == t.spacing
        assert np.array_equal(m.affine, affine)


@pytest.mark.parametrize("values", [1, 5, 7])
def test_scalars_need_six_values_per_voxel(values):
    with pytest.raises(ShapeError, match=f"6 values per voxel, got {values}"):
        dti_scalars(Volume4D(np.zeros((2, 2, 1, values))))
