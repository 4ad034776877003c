"""Results do not depend on the memory layout a volume's data arrive in.

Every stage runs on the same phantom given as C-order data, as its
F-order copy (the NIfTI disk order) and as a volume-outermost copy (what
boolean indexing on the v axis returns); the outputs must agree bit for bit.
"""

import numpy as np
import pytest

from dmrislice.ae import Autoencoder, ModelConfig
from dmrislice.dti import fit_dti
from dmrislice.inference import infer_gap_sh, infer_gap_signal
from dmrislice.interp import KINDS, interp_missing_slices
from dmrislice.phantom import PhantomSpec, make_phantom
from dmrislice.sh import fit_sh
from dmrislice.volume import GapSpec, Volume4D, b0_mean
from test_volume import volume_outermost

TINY_SH = ModelConfig(input_channels=15, latent_maps=2, input_size=16, base_width=1, seed=1)
TINY_B0 = ModelConfig(input_channels=1, latent_maps=2, input_size=16, base_width=1, seed=2)


def _layouts(vol: Volume4D) -> list[Volume4D]:
    a = vol.data
    return [vol.with_data(d) for d in (a, np.asfortranarray(a), volume_outermost(a))]


@pytest.fixture(scope="module")
def phantom():
    spec = PhantomSpec(
        dims=(16, 16, 8), n_directions=20, n_b0=3, noise="rician", noise_sigma=0.02, seed=11
    )
    return make_phantom(spec)


def _assert_all_equal(outputs):
    first = outputs[0]
    for other in outputs[1:]:
        assert len(other) == len(first)
        for a, b in zip(first, other):
            assert np.array_equal(a, b)


def test_fits_and_b0_mean_ignore_the_input_layout(phantom):
    outputs = []
    for dwi, b0 in zip(_layouts(phantom.dwi), _layouts(phantom.b0)):
        tensors = fit_dti(dwi, b0_mean(b0), phantom.gtab)
        outputs.append(
            [
                fit_sh(dwi, phantom.gtab, lmax=4).volume.data,
                tensors.data,
                b0_mean(b0).data,
            ]
        )
    _assert_all_equal(outputs)


@pytest.mark.parametrize("method", KINDS)
def test_interpolation_ignores_the_input_layout(phantom, method):
    gap = GapSpec(3, 2)
    outputs = [interp_missing_slices(dwi, gap, method) for dwi in _layouts(phantom.dwi)]
    _assert_all_equal([[s.data for s in slices] for slices in outputs])


@pytest.mark.parametrize("n", [1, 2])
def test_sh_inference_ignores_the_input_layout(phantom, n):
    sh_model, b0_model = Autoencoder(TINY_SH), Autoencoder(TINY_B0)
    outputs = []
    for dwi, b0 in zip(_layouts(phantom.dwi), _layouts(phantom.b0)):
        dwi_slices, b0_slices = infer_gap_sh(
            sh_model, b0_model, dwi, b0, phantom.gtab, GapSpec(3, n)
        )
        outputs.append([s.data for s in dwi_slices + b0_slices])
    _assert_all_equal(outputs)
    # The b0 mean of the two neighbor slices alone gives the slices of the
    # whole-volume b0 mean.
    whole = infer_gap_signal(b0_model, b0_mean(phantom.b0), GapSpec(3, n))
    _assert_all_equal([outputs[0][n:], [s.data for s in whole]])
