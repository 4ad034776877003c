"""dmrislice: through-plane slice reconstruction for diffusion MRI.

Reconstructs missing or thick slices either with classical interpolation or
with a convolutional autoencoder whose latent codes of the two neighboring
slices are blended, operating on raw signals or on their spherical-harmonics
representation. Ships diffusion-tensor scalar maps and a phantom-driven
evaluation harness.
"""

from .dti import dti_scalars, fit_dti
from .evaluate import EvalReport, mse_region, run_experiment
from .inference import blend_latents, histogram_match, infer_gap_sh, infer_gap_signal
from .interp import interp_missing_slices
from .nifti import read_labels, read_nifti, write_nifti
from .phantom import PhantomData, PhantomSpec, fibonacci_directions, make_phantom
from .sh import (
    ShCoeffVolume,
    fit_sh,
    project_sh,
    read_sh,
    sh_basis_matrix,
    sh_roundtrip_error,
    write_sh,
)
from .stats import wilcoxon_signed_rank
from .volume import (
    GapSpec,
    GradientTable,
    SliceImage,
    Volume4D,
    normalize_slice,
    read_gradient_table,
)

__version__ = "0.1.0"

__all__ = [
    "blend_latents",
    "dti_scalars",
    "EvalReport",
    "fibonacci_directions",
    "fit_dti",
    "fit_sh",
    "GapSpec",
    "GradientTable",
    "histogram_match",
    "infer_gap_sh",
    "infer_gap_signal",
    "interp_missing_slices",
    "make_phantom",
    "mse_region",
    "normalize_slice",
    "PhantomData",
    "PhantomSpec",
    "project_sh",
    "read_gradient_table",
    "read_labels",
    "read_nifti",
    "read_sh",
    "run_experiment",
    "sh_basis_matrix",
    "sh_roundtrip_error",
    "ShCoeffVolume",
    "SliceImage",
    "Volume4D",
    "wilcoxon_signed_rank",
    "write_nifti",
    "write_sh",
]
