"""Latent-space inference of missing slices.

Inference runs in two halves. :func:`encode_slice` normalizes one surviving
neighbor, crops or pads it onto the model grid and encodes it on its own, so
a neighbor's latent code is the same whichever gap it borders and can be
computed once and reused. :func:`decode_gap` blends two neighbors' codes with
gap-position weights (equal for N=1; {2/3, 1/3} and {1/3, 2/3} for N=2,
nearer neighbor heavier), decodes all N blends in one batch and maps each
decoded slice back to input intensities by histogram matching against the
same weighted average of the two unnormalized neighbor slices.
:func:`infer_between_slices` is the two halves for one gap, with both
neighbors encoded in one call.
"""

from __future__ import annotations

import numpy as np

from .ae.model import Autoencoder
from .errors import ShapeError
from .sh import fit_sh, project_sh_slice, sh_basis_matrix
from .volume import (
    GapSpec,
    GradientTable,
    SliceImage,
    Volume4D,
    b0_mean,
    center_crop_pad,
    crop_windows,
    normalize_slice,
)


def blend_latents(a: np.ndarray, b: np.ndarray, alpha: float) -> np.ndarray:
    """Convex combination alpha*a + (1-alpha)*b of two latent codes.

    Evaluated as b + alpha*(a-b) so equal inputs reproduce exactly.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise ShapeError(f"latent shapes differ: {a.shape} vs {b.shape}")
    if not 0.0 < alpha < 1.0:
        raise ShapeError(f"alpha must lie in (0, 1), got {alpha}")
    return b + alpha * (a - b)


def _match_channel(source: np.ndarray, reference: np.ndarray) -> np.ndarray:
    """Exact sorted-quantile CDF matching of one channel (no binning)."""
    src_values, src_inverse, src_counts = np.unique(
        source.ravel(), return_inverse=True, return_counts=True
    )
    ref_values, ref_counts = np.unique(reference.ravel(), return_counts=True)
    src_quantiles = np.cumsum(src_counts) / source.size
    ref_quantiles = np.cumsum(ref_counts) / reference.size
    mapped = np.interp(src_quantiles, ref_quantiles, ref_values)
    return mapped[src_inverse].reshape(source.shape)


def histogram_match(source: SliceImage, reference: SliceImage) -> SliceImage:
    """Map source intensities so their distribution matches the reference,
    channel by channel."""
    if source.channels != reference.channels:
        raise ShapeError(
            f"channel mismatch: source {source.channels}, reference {reference.channels}"
        )
    out = np.empty_like(source.data)
    for c in range(source.channels):
        out[:, :, c] = _match_channel(source.data[:, :, c], reference.data[:, :, c])
    return SliceImage(out)


def _model_items(model: Autoencoder, s: SliceImage) -> np.ndarray:
    """One slice as the model's input items: each channel min-max
    normalized, the slice center-cropped or padded onto the model grid, as
    one item of all its channels, or one item per channel for a 1-channel
    model. Either way the items, read in order, hold the slice's channels in
    order, which :func:`decode_gap` relies on to undo the layout."""
    c, size = model.cfg.input_channels, model.cfg.input_size
    if c not in (1, s.channels):
        raise ShapeError(f"model expects {c} channels, slice has {s.channels}")
    chw = normalize_slice(s).data.transpose(2, 0, 1)
    return center_crop_pad(chw, size).reshape(-1, c, size, size)


def encode_slice(model: Autoencoder, s: SliceImage) -> np.ndarray:
    """The latent code of one slice, encoded on its own (:func:`_model_items`)."""
    return model.encode(_model_items(model, s))


def decode_gap(
    model: Autoencoder,
    z_prev: np.ndarray,
    z_next: np.ndarray,
    prev_slice: SliceImage,
    next_slice: SliceImage,
    gap: GapSpec,
) -> list[SliceImage]:
    """Decode blends of the two neighbors' codes from :func:`encode_slice`,
    one image per missing slice, histogram-matched to the neighbors."""
    if prev_slice.data.shape != next_slice.data.shape:
        raise ShapeError("adjacent slices must share a shape")
    size = model.cfg.input_size
    src, dst = crop_windows(prev_slice.data.shape[:2], size)
    blended = [blend_latents(z_prev, z_next, w_prev) for w_prev, _ in gap.weights]
    decoded = np.split(model.decode(np.concatenate(blended)), len(blended))

    outputs = []
    for (w_prev, w_next), batch in zip(gap.weights, decoded):
        raw = batch.reshape(prev_slice.channels, size, size).transpose(1, 2, 0)
        reference = w_prev * prev_slice.data + w_next * next_slice.data
        # Histogram-match over the model's real field of view (padding and
        # crop borders excluded); anything outside the crop falls back to the
        # reference, the weighted neighbor average. The crop windows cover
        # (W, H), the leading axes of these (W, H, C) arrays.
        matched = histogram_match(SliceImage(raw[dst]), SliceImage(reference[src]))
        out = reference.copy()
        out[src] = matched.data
        outputs.append(SliceImage(out))
    return outputs


def infer_between_slices(
    model: Autoencoder,
    prev_slice: SliceImage,
    next_slice: SliceImage,
    gap: GapSpec,
) -> list[SliceImage]:
    """Decode blended latents of the two neighbors, one image per missing slice.

    Both neighbors are encoded in one call; an item's code does not depend on
    its batch-mates, so each equals its :func:`encode_slice` code.
    """
    if prev_slice.data.shape != next_slice.data.shape:
        raise ShapeError("adjacent slices must share a shape")
    items = [_model_items(model, s) for s in (prev_slice, next_slice)]
    z_prev, z_next = np.split(model.encode(np.concatenate(items)), 2)
    return decode_gap(model, z_prev, z_next, prev_slice, next_slice, gap)


def infer_gap_signal(model: Autoencoder, v: Volume4D, gap: GapSpec) -> list[SliceImage]:
    """Infer the missing slices of a volume in the raw signal domain.

    Multi-volume inputs are handled channel by channel through a 1-channel
    model, or jointly when the model's channel count matches V.
    """
    gap.validate_for(v.dims[2])
    z_prev, z_next = gap.neighbors
    return infer_between_slices(model, v.slice_at(z_prev), v.slice_at(z_next), gap)


def infer_gap_sh(
    model_sh: Autoencoder,
    model_b0: Autoencoder,
    dwi: Volume4D,
    b0: Volume4D,
    g: GradientTable,
    gap: GapSpec,
    lmax: int = 4,
) -> tuple[list[SliceImage], list[SliceImage]]:
    """SH-domain gap inference plus matching b0 slices.

    The two neighbor slices are SH-fit at order ``lmax`` with no
    regularization, as the sh4 nets are trained, the coefficient stacks
    inferred with the SH model, which must read that order's coefficients,
    and the histogram-matched outputs projected back onto the acquisition
    directions. The b0 slices come from the 1-channel b0 model
    applied to the voxelwise mean of the b0 volumes at the two neighbors;
    both are returned so a tensor fit can run downstream.
    """
    if b0.dims[:3] != dwi.dims[:3]:
        raise ShapeError(f"b0 grid {b0.dims[:3]} does not match dwi {dwi.dims[:3]}")
    gap.validate_for(dwi.dims[2])
    z_prev, z_next = gap.neighbors
    # The two neighbor slices, z_prev and z_next, as one strided view.
    neighbors = np.s_[:, :, z_prev : z_next + 1 : z_next - z_prev]

    sh = fit_sh(dwi.with_data(dwi.data[neighbors]), g, lmax=lmax)
    inferred = infer_between_slices(model_sh, sh.volume.slice_at(0), sh.volume.slice_at(1), gap)

    basis = sh_basis_matrix(g.bvecs, lmax)
    dwi_slices = [SliceImage(project_sh_slice(s.data, basis)) for s in inferred]

    b0_pair = b0_mean(b0.with_data(b0.data[neighbors]))
    b0_slices = infer_between_slices(model_b0, b0_pair.slice_at(0), b0_pair.slice_at(1), gap)
    return dwi_slices, b0_slices
