import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import lpmv

from dmrislice.errors import EmptyMask, InvalidDirection, InvalidOrder
from dmrislice.phantom import fibonacci_directions
from dmrislice.sh import (
    SUPPORTED_LMAX,
    ShCoeffVolume,
    fit_sh,
    lmax_for,
    n_coefficients,
    order_index,
    project_sh,
    read_sh,
    sh_basis_matrix,
    sh_roundtrip_error,
    write_sh,
)
from dmrislice.volume import GradientTable, Volume4D

Y00 = 0.28209479177387814  # 1 / (2 sqrt(pi))


def shell_table(n=88, b=1000.0):
    dirs = fibonacci_directions(n)
    return GradientTable(np.full(n, b), dirs), dirs


def lpmv_basis(dirs, lmax):
    """The basis built from ``scipy.special.lpmv``, the reference for the
    package's own Legendre recurrence."""
    cos_theta = np.clip(dirs[:, 2], -1.0, 1.0)
    phi = np.arctan2(dirs[:, 1], dirs[:, 0])
    columns = []
    for l, m in order_index(lmax):
        am = abs(m)
        norm = math.sqrt(
            (2 * l + 1) / (4 * math.pi) * math.factorial(l - am) / math.factorial(l + am)
        )
        leg = norm * lpmv(am, l, cos_theta)
        if m < 0:
            columns.append(math.sqrt(2.0) * leg * np.cos(am * phi))
        elif m == 0:
            columns.append(leg)
        else:
            columns.append(math.sqrt(2.0) * leg * np.sin(m * phi))
    return np.stack(columns, axis=1)


@pytest.mark.parametrize("lmax", SUPPORTED_LMAX)
def test_basis_matches_the_lpmv_reference(lmax):
    rng = np.random.default_rng(lmax)
    random = rng.standard_normal((2000, 3))
    random /= np.linalg.norm(random, axis=1, keepdims=True)
    s = math.sqrt(0.5)
    poles_and_equator = np.array(
        [[0, 0, 1], [0, 0, -1], [1, 0, 0], [0, 1, 0], [-1, 0, 0], [0, -1, 0], [s, -s, 0]]
    )
    dirs = np.vstack([random, poles_and_equator])
    basis = sh_basis_matrix(dirs, lmax)
    assert basis.shape == (len(dirs), n_coefficients(lmax))
    assert np.abs(basis - lpmv_basis(dirs, lmax)).max() <= 1e-13


def test_basis_shape_and_constant_column():
    _, dirs = shell_table(88)
    basis = sh_basis_matrix(dirs, 4)
    assert basis.shape == (88, 15)
    assert n_coefficients(4) == 15
    assert np.allclose(basis[:, 0], Y00, atol=1e-12)
    assert order_index(4)[0] == (0, 0)
    assert order_index(4)[1:6] == [(2, -2), (2, -1), (2, 0), (2, 1), (2, 2)]


def test_basis_pole_direction():
    # At the +z pole every m != 0 harmonic vanishes.
    basis = sh_basis_matrix(np.array([[0.0, 0.0, 1.0]]), 4)
    for j, (l, m) in enumerate(order_index(4)):
        if m != 0:
            assert abs(basis[0, j]) < 1e-12
        else:
            assert abs(basis[0, j]) > 1e-3


def test_basis_rejects_bad_inputs():
    dirs = np.array([[0.0, 0.0, 1.0]])
    with pytest.raises(InvalidOrder):
        sh_basis_matrix(dirs, 3)
    with pytest.raises(InvalidOrder):
        sh_basis_matrix(dirs, 10)
    with pytest.raises(InvalidDirection):
        sh_basis_matrix(np.array([[0.0, 0.0, 2.0]]), 4)


def test_a_coefficient_volume_refuses_an_unsupported_order():
    # n_coefficients(3) = 10, so the count alone would let order 3 through.
    with pytest.raises(InvalidOrder, match=r"^lmax must be one of \(0, 2, 4, 6, 8\), got 3$"):
        ShCoeffVolume(Volume4D(np.zeros((2, 2, 1, 10))), lmax=3)


def test_basis_gram_near_identity():
    # Orthonormality under discrete near-uniform quadrature.
    dirs = fibonacci_directions(250)
    basis = sh_basis_matrix(dirs, 4)
    gram = 4.0 * np.pi / 250 * (basis.T @ basis)
    assert np.abs(gram - np.eye(15)).max() < 5e-2


def test_antipodal_symmetry():
    rng = np.random.default_rng(3)
    dirs = fibonacci_directions(40)
    basis_pos = sh_basis_matrix(dirs, 4)
    basis_neg = sh_basis_matrix(-dirs, 4)
    assert np.allclose(basis_pos, basis_neg, atol=1e-12)


def test_fit_constant_signal():
    g, dirs = shell_table(88)
    c = 3.7
    vol = Volume4D(np.full((2, 2, 1, 88), c))
    sh = fit_sh(vol, g, lmax=4)
    c00 = sh.volume.data[..., 0]
    assert np.allclose(c00, c * 2.0 * np.sqrt(np.pi), atol=1e-8)
    assert np.abs(sh.volume.data[..., 1:]).max() < 1e-8


def test_fit_recovers_synthesized_coefficients():
    rng = np.random.default_rng(0)
    g, dirs = shell_table(88)
    basis = sh_basis_matrix(dirs, 4)
    c0 = rng.standard_normal((3, 2, 2, 15))
    signal = c0 @ basis.T
    sh = fit_sh(Volume4D(signal), g, lmax=4)
    assert np.abs(sh.volume.data - c0).max() < 1e-8
    assert not sh.ill_conditioned


def test_fit_exactly_determined_flagged():
    g, dirs = shell_table(15)
    vol = Volume4D(np.random.default_rng(1).random((2, 2, 1, 15)))
    sh = fit_sh(vol, g, lmax=4, lambda_reg=0.0)
    assert sh.ill_conditioned
    sh_reg = fit_sh(vol, g, lmax=4, lambda_reg=0.006)
    assert not sh_reg.ill_conditioned


def test_fit_scale_equivariance():
    rng = np.random.default_rng(2)
    g, dirs = shell_table(60)
    vol = rng.random((2, 2, 2, 60))
    a = fit_sh(Volume4D(vol), g, lmax=4).volume.data
    b = fit_sh(Volume4D(3.5 * vol), g, lmax=4).volume.data
    assert np.allclose(3.5 * a, b, atol=1e-10)


def test_project_zero_and_constant():
    g, dirs = shell_table(20)
    coeffs = np.zeros((2, 2, 1, 15))
    sh = fit_sh(Volume4D(np.zeros((2, 2, 1, 20))), g, lmax=4)
    out = project_sh(sh, dirs)
    assert np.all(out.data == 0.0)

    coeffs[..., 0] = 1.0
    from dmrislice.sh import ShCoeffVolume

    sh2 = ShCoeffVolume(Volume4D(coeffs), lmax=4)
    out2 = project_sh(sh2, dirs)
    assert np.allclose(out2.data, Y00, atol=1e-12)


def test_project_fit_idempotent():
    rng = np.random.default_rng(4)
    g, dirs = shell_table(88)
    vol = Volume4D(rng.random((3, 3, 1, 88)))
    once = project_sh(fit_sh(vol, g, lmax=4), dirs)
    twice = project_sh(fit_sh(once, g, lmax=4), dirs)
    assert np.abs(once.data - twice.data).max() < 1e-10


def test_roundtrip_error_bandlimited_is_zero():
    rng = np.random.default_rng(5)
    g, dirs = shell_table(88)
    basis = sh_basis_matrix(dirs, 4)
    signal = rng.standard_normal((4, 4, 2, 15)) @ basis.T
    err = sh_roundtrip_error(Volume4D(signal), g, lmax=4)
    assert err <= 1e-12


def test_roundtrip_error_white_noise_matches_projection_residual():
    # For white noise the fit+project is an orthogonal rank-15 projection of
    # an 88-dim vector, so the residual keeps (88-15)/88 of the variance.
    rng = np.random.default_rng(6)
    g, dirs = shell_table(88)
    noise = rng.uniform(0.0, 1.0, size=(12, 12, 4, 88))
    err = sh_roundtrip_error(Volume4D(noise), g, lmax=4)
    expected = (88 - 15) / 88 * (1.0 / 12.0)  # variance of U(0, 1)
    assert abs(err - expected) / expected < 0.05


def test_roundtrip_error_empty_mask():
    g, dirs = shell_table(20)
    vol = Volume4D(np.random.default_rng(0).random((2, 2, 1, 20)))
    mask = Volume4D(np.zeros((2, 2, 1, 1)))
    with pytest.raises(EmptyMask):
        sh_roundtrip_error(vol, g, lmax=4, mask=mask)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000), st.floats(0.1, 10.0))
def test_fit_scale_equivariance_property(seed, alpha):
    rng = np.random.default_rng(seed)
    dirs = fibonacci_directions(40)
    g = GradientTable(np.full(40, 1000.0), dirs)
    vol = rng.random((2, 2, 1, 40))
    a = fit_sh(Volume4D(vol), g, lmax=4).volume.data
    b = fit_sh(Volume4D(alpha * vol), g, lmax=4).volume.data
    assert np.allclose(alpha * a, b, atol=1e-8 * max(1.0, alpha))


def test_sidecar_roundtrip(tmp_path):
    rng = np.random.default_rng(7)
    g, dirs = shell_table(30)
    sh = fit_sh(Volume4D(rng.random((2, 2, 2, 30))), g, lmax=4, lambda_reg=0.006)
    path = tmp_path / "sh.nii"
    write_sh(sh, path)
    assert (tmp_path / "sh.json").exists()
    back = read_sh(path)
    assert back.lmax == 4
    assert back.lambda_reg == 0.006
    assert np.allclose(back.volume.data, sh.volume.data, atol=1e-6)


def test_order_index_count():
    for lmax in (0, 2, 4, 6, 8):
        assert len(order_index(lmax)) == n_coefficients(lmax)
        assert lmax_for(n_coefficients(lmax)) == lmax


@pytest.mark.parametrize("n", [0, 3, 7, 66])
def test_a_count_of_no_sh_order_is_refused(n):
    with pytest.raises(InvalidOrder, match=f"no SH order has {n} coefficients"):
        lmax_for(n)
