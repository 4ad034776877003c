"""Latent-space inference of missing slices.

Inference runs in two halves. :func:`encode_slice` normalizes one surviving
neighbor, crops or pads it onto the model grid and encodes it on its own, so
a neighbor's latent code is the same whichever gap it borders and can be
computed once and reused. :func:`decode_gap` blends two neighbors' codes with
gap-position weights (equal for N=1; {2/3, 1/3} and {1/3, 2/3} for N=2,
nearer neighbor heavier), decodes all N blends in one batch and maps each
decoded slice back to input intensities by histogram matching against the
same weighted average of the two unnormalized neighbor slices. It takes the
codes a caller already has, or encodes both neighbors in one call.
"""

from __future__ import annotations

import numpy as np

from .ae.model import Autoencoder
from .errors import ShapeError
from .sh import fit_sh_slice, n_coefficients, project_sh_slice, sh_basis_matrix
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


def _distinct_finite(ascending: np.ndarray) -> bool:
    """Whether sorted values hold no tie (-0.0 and 0.0 tie), no NaN and no
    infinity."""
    return bool(np.isfinite(ascending[[0, -1]]).all() and (ascending[1:] > ascending[:-1]).all())


def _match_channel(source: np.ndarray, reference: np.ndarray) -> np.ndarray:
    """Exact sorted-quantile CDF matching of one channel (no binning).

    Each distinct source value maps to the reference's value at its
    quantile, interpolated between the reference's quantiles. When source
    and reference are the same size and each is finite and tie-free, every
    quantile is ``(k + 1) / n`` on both sides, computed alike, and ``np.interp``
    returns ``fp[j]`` exactly where ``x == xp[j]``: the source value of rank
    k gets the reference value of rank k. That rank path is one argsort and
    one sort, the same bytes as the ``np.unique`` path every other input takes.
    """
    src, ref = source.ravel(), reference.ravel()
    if 0 < src.size == ref.size:
        order = np.argsort(src)
        ref_sorted = np.sort(ref)
        if _distinct_finite(src[order]) and _distinct_finite(ref_sorted):
            mapped = np.empty(src.size)
            mapped[order] = ref_sorted
            return mapped.reshape(source.shape)
    src_values, src_inverse, src_counts = np.unique(src, return_inverse=True, return_counts=True)
    ref_values, ref_counts = np.unique(ref, return_counts=True)
    src_quantiles = np.cumsum(src_counts) / src.size
    ref_quantiles = np.cumsum(ref_counts) / ref.size
    mapped = np.interp(src_quantiles, ref_quantiles, ref_values)
    return mapped[src_inverse].reshape(source.shape)


def histogram_match(source: np.ndarray, reference: np.ndarray) -> np.ndarray:
    """Map the intensities of a (W, H, C) source slice so their distribution
    matches the (W', H', C) reference's, channel by channel."""
    if source.shape[2] != reference.shape[2]:
        raise ShapeError(
            f"channel mismatch: source {source.shape[2]}, reference {reference.shape[2]}"
        )
    out = np.empty(source.shape)
    for c in range(source.shape[2]):
        out[:, :, c] = _match_channel(source[:, :, c], reference[:, :, c])
    return out


def _model_items(model: Autoencoder, s: np.ndarray) -> np.ndarray:
    """One (W, H, C) slice as the model's input items: each channel min-max
    normalized, the slice center-cropped or padded onto the model grid, as
    one item of all its channels, or one item per channel for a 1-channel
    model. Either way the items, read in order, hold the slice's channels in
    order, which :func:`decode_gap` relies on to undo the layout."""
    c, size = model.cfg.input_channels, model.cfg.input_size
    if c not in (1, s.shape[2]):
        raise ShapeError(f"model expects {c} channels, slice has {s.shape[2]}")
    chw = normalize_slice(s).transpose(2, 0, 1)
    return center_crop_pad(chw, size).reshape(-1, c, size, size)


def encode_slice(model: Autoencoder, s: np.ndarray) -> np.ndarray:
    """The latent code of one slice, encoded on its own (:func:`_model_items`)."""
    return model.encode(_model_items(model, s))


def decode_gap(
    model: Autoencoder,
    prev_slice: np.ndarray,
    next_slice: np.ndarray,
    gap: GapSpec,
    codes: tuple[np.ndarray, np.ndarray] | None = None,
) -> list[SliceImage]:
    """Decode blends of the codes of the two (W, H, C) neighbor slices, one
    image per missing slice, histogram-matched to the neighbors. ``codes`` are
    the neighbors' :func:`encode_slice` codes, (previous, next), if the caller
    has them; else both neighbors are encoded in one call, which gives the
    same codes."""
    if prev_slice.shape != next_slice.shape:
        raise ShapeError("adjacent slices must share a shape")
    if codes is None:
        items = [_model_items(model, s) for s in (prev_slice, next_slice)]
        codes = np.split(model.encode(np.concatenate(items)), 2)
    z_prev, z_next = codes
    size = model.cfg.input_size
    src, dst = crop_windows(prev_slice.shape[:2], size)
    blended = [blend_latents(z_prev, z_next, w_prev) for w_prev, _ in gap.weights]
    decoded = np.split(model.decode(np.concatenate(blended)), len(blended))

    outputs = []
    for (w_prev, w_next), batch in zip(gap.weights, decoded):
        raw = batch.reshape(prev_slice.shape[2], size, size).transpose(1, 2, 0)
        out = w_prev * prev_slice + w_next * next_slice
        # Histogram-match over the model's real field of view (padding and
        # crop borders excluded); anything outside the crop keeps the
        # reference, the weighted neighbor average. The crop windows cover
        # (W, H), the leading axes of these (W, H, C) arrays.
        out[src] = histogram_match(raw[dst], out[src])
        outputs.append(SliceImage(out))
    return outputs


def check_sh_model(model: Autoencoder, lmax: int) -> None:
    """A ``ShapeError`` unless the SH net reads one channel per coefficient
    of order ``lmax``: a 1-channel net would otherwise run once per
    coefficient, as for the signal, and the result would read as SH."""
    want = n_coefficients(lmax)
    if model.cfg.input_channels != want:
        raise ShapeError(
            f"SH order {lmax} needs an SH net of {want} input channels, "
            f"not {model.cfg.input_channels}"
        )


def infer_gap_signal(model: Autoencoder, v: Volume4D, gap: GapSpec) -> list[SliceImage]:
    """Infer the missing slices of a volume in the raw signal domain.

    Multi-volume inputs are handled channel by channel through a 1-channel
    model, or jointly when the model's channel count matches V.
    """
    gap.validate_for(v.dims[2])
    z_prev, z_next = gap.neighbors
    return decode_gap(model, v.data[:, :, z_prev], v.data[:, :, z_next], gap)


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
    inferred with the SH model, which must read that order's coefficients
    (:func:`check_sh_model`), and the histogram-matched outputs projected
    back onto the acquisition directions through the basis the fit used.
    The b0 slices come from the 1-channel b0 model
    applied to the voxelwise mean of the b0 volumes at the two neighbors;
    both are returned so a tensor fit can run downstream.
    """
    if b0.dims[:3] != dwi.dims[:3]:
        raise ShapeError(f"b0 grid {b0.dims[:3]} does not match dwi {dwi.dims[:3]}")
    gap.validate_for(dwi.dims[2])
    basis = sh_basis_matrix(g.bvecs, lmax)
    check_sh_model(model_sh, lmax)
    z_prev, z_next = gap.neighbors
    # The two neighbor slices, z_prev and z_next, as one strided view.
    neighbors = np.s_[:, :, z_prev : z_next + 1 : z_next - z_prev]

    sh = fit_sh_slice(dwi.data[neighbors], basis)
    inferred = decode_gap(model_sh, sh[:, :, 0], sh[:, :, 1], gap)
    dwi_slices = [SliceImage(project_sh_slice(s.data, basis)) for s in inferred]

    b0_pair = b0_mean(b0.with_data(b0.data[neighbors])).data
    b0_slices = decode_gap(model_b0, b0_pair[:, :, 0], b0_pair[:, :, 1], gap)
    return dwi_slices, b0_slices
