from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dmrislice.ae import Autoencoder, ModelConfig, load_checkpoint, save_checkpoint
from dmrislice.errors import BoundaryGap, ShapeError
from dmrislice.inference import (
    GapSpec,
    blend_latents,
    decode_gap,
    histogram_match,
    infer_gap_sh,
    infer_gap_signal,
)
from dmrislice.phantom import PhantomSpec, make_phantom
from dmrislice.volume import Volume4D, center_crop_pad, crop_windows, normalize_slice

MODEL16 = ModelConfig(input_channels=1, latent_maps=2, input_size=16, base_width=1, seed=0)


def test_gap_weights():
    assert GapSpec(3, 1).weights == [(0.5, 0.5)]
    w = GapSpec(3, 2).weights
    assert w[0] == pytest.approx((2 / 3, 1 / 3))
    assert w[1] == pytest.approx((1 / 3, 2 / 3))
    for pair in w:
        assert pair[0] > 0 and pair[1] > 0
        assert sum(pair) == pytest.approx(1.0)


def test_gap_validation():
    with pytest.raises(BoundaryGap):
        GapSpec(0, 1)
    with pytest.raises(ShapeError):
        GapSpec(2, 3)
    with pytest.raises(BoundaryGap):
        GapSpec(4, 1).validate_for(5)
    assert GapSpec(3, 2).neighbors == (2, 5)
    z = np.arange(9)
    assert GapSpec(3, 2).slab == slice(3, 5)
    for gap in (GapSpec(1, 1), GapSpec(3, 2), GapSpec(4, 1)):
        # The slab is the slices strictly between the two neighbors.
        z_prev, z_next = gap.neighbors
        assert z[gap.slab].tolist() == list(range(z_prev + 1, z_next))
    for gap in (GapSpec(1, 1), GapSpec(3, 2), GapSpec(4, 1)):
        z_next = gap.neighbors[1]
        for z in range(2, 9):
            if z_next <= z - 1:
                gap.validate_for(z)
            else:
                with pytest.raises(BoundaryGap):
                    gap.validate_for(z)


def test_blend_identity_and_values():
    rng = np.random.default_rng(0)
    a = rng.standard_normal((1, 4, 2, 2))
    assert np.array_equal(blend_latents(a, a, 0.3), a)
    ones = np.ones((1, 2, 2, 2))
    zeros = np.zeros((1, 2, 2, 2))
    assert np.allclose(blend_latents(ones, zeros, 2 / 3), 2 / 3)
    b = rng.standard_normal((1, 4, 2, 2))
    assert np.allclose(blend_latents(a, b, 0.5), (a + b) / 2)


def test_blend_affine_invariance():
    rng = np.random.default_rng(1)
    a = rng.standard_normal((1, 3, 2, 2))
    b = rng.standard_normal((1, 3, 2, 2))
    alpha, scale, shift = 0.25, 1.7, 0.3
    left = blend_latents(scale * a + shift, scale * b + shift, alpha)
    right = scale * blend_latents(a, b, alpha) + shift
    assert np.allclose(left, right, atol=1e-12)


def test_blend_shape_mismatch():
    with pytest.raises(ShapeError):
        blend_latents(np.zeros((1, 2, 2, 2)), np.zeros((1, 3, 2, 2)), 0.5)


def test_histogram_match_identity():
    rng = np.random.default_rng(2)
    src = rng.random((8, 8, 1))
    out = histogram_match(src, src.copy())
    assert np.allclose(out, src, atol=1e-12)


def test_histogram_match_constant_reference():
    rng = np.random.default_rng(3)
    src = rng.random((6, 6, 1))
    ref = np.full((6, 6, 1), 4.2)
    out = histogram_match(src, ref)
    assert np.all(out == 4.2)


def test_histogram_match_affine_reference():
    rng = np.random.default_rng(4)
    src = rng.random((10, 10, 1))
    ref = 2.0 * src + 1.0
    out = histogram_match(src, ref)
    assert np.abs(out - ref).max() < 1e-8


def test_histogram_match_rank_preserving():
    rng = np.random.default_rng(5)
    src = rng.random((12, 12, 1))
    ref = rng.standard_normal((12, 12, 1)) * 3 + 10
    out = histogram_match(src, ref)
    s = src.ravel()
    o = out.ravel()
    order = np.argsort(s)
    assert np.all(np.diff(o[order]) >= -1e-12)
    assert out.min() >= ref.min() - 1e-12
    assert out.max() <= ref.max() + 1e-12


def test_crop_pad_roundtrip():
    rng = np.random.default_rng(6)
    for w, h in ((10, 14), (20, 24), (16, 16)):
        data = rng.random((2, w, h))
        cropped = center_crop_pad(data, 16)
        src, dst = crop_windows((w, h), 16)
        assert cropped.shape == (2, 16, 16)
        restored = np.zeros_like(data)
        restored[(...,) + src] = cropped[(...,) + dst]
        # within the overlap region the values survive
        mask = np.zeros((w, h), dtype=bool)
        w0 = max(0, (w - 16) // 2)
        h0 = max(0, (h - 16) // 2)
        mask[w0 : w0 + min(w, 16), h0 : h0 + min(h, 16)] = True
        assert np.array_equal(restored[:, mask], data[:, mask])


@pytest.fixture(scope="module")
def model16():
    return Autoencoder(MODEL16)


def test_infer_identical_neighbors_fixed_point(model16):
    rng = np.random.default_rng(7)
    x = rng.random((16, 16, 1))
    gap = GapSpec(2, 1)
    out = decode_gap(model16, x, x, gap)
    assert len(out) == 1
    # reference is x itself; histogram matching maps into x's value set
    assert out[0].data.min() >= x.min() - 1e-12
    assert out[0].data.max() <= x.max() + 1e-12


def test_infer_zero_neighbors_zero_output(model16):
    zero = np.zeros((16, 16, 1))
    out = decode_gap(model16, zero, zero, GapSpec(2, 1))
    assert np.all(out[0].data == 0.0)


def test_infer_output_range_inside_reference(model16):
    rng = np.random.default_rng(8)
    a = rng.random((16, 16, 1)) * 3.0
    b = rng.random((16, 16, 1)) * 3.0 + 1.0
    for n in (1, 2):
        gap = GapSpec(2, n)
        outs = decode_gap(model16, a, b, gap)
        assert len(outs) == n
        for (w_prev, w_next), out in zip(gap.weights, outs):
            ref = w_prev * a + w_next * b
            assert out.data.min() >= ref.min() - 1e-9
            assert out.data.max() <= ref.max() + 1e-9


def test_infer_swap_symmetry(model16):
    # Swapping the neighbor slices mirrors the outputs for N=2.
    rng = np.random.default_rng(9)
    a = rng.random((16, 16, 1))
    b = rng.random((16, 16, 1))
    gap = GapSpec(2, 2)
    fwd = decode_gap(model16, a, b, gap)
    rev = decode_gap(model16, b, a, gap)
    assert np.abs(fwd[0].data - rev[1].data).max() < 1e-6
    assert np.abs(fwd[1].data - rev[0].data).max() < 1e-6


def test_float64_head_keeps_saturated_outputs_distinct(tmp_path):
    # A head bias of +16 puts every sigmoid output within ~1e-7 of 1, where
    # float32 spacing would fold them into a few ties.
    model = Autoencoder(replace(MODEL16, base_width=2, seed=5))
    model.decoder[-1].params["b"][:] = 16.0
    save_checkpoint(model, tmp_path / "m.ckpt")
    loaded = load_checkpoint(tmp_path / "m.ckpt")
    wide = load_checkpoint(tmp_path / "m.ckpt").astype(np.float64)
    assert loaded.dtype == np.float32
    rng = np.random.default_rng(14)
    z = rng.standard_normal((3, 2, 1, 1))
    y, y_wide = loaded.decode(z), wide.decode(z)
    assert np.all(y > 0.999)
    for item, item_wide in zip(y, y_wide):
        for c, c_wide in zip(item, item_wide):
            assert len(np.unique(c)) == len(np.unique(c_wide))
    a = rng.random((16, 16, 2))
    b = rng.random((16, 16, 2)) + 0.5
    gap = GapSpec(2, 2)
    for out, out_wide in zip(decode_gap(loaded, a, b, gap), decode_gap(wide, a, b, gap)):
        assert np.linalg.norm(out.data - out_wide.data) <= 1e-5 * np.linalg.norm(out_wide.data)


def test_infer_gap_signal_volume(model16):
    rng = np.random.default_rng(10)
    vol = Volume4D(rng.random((16, 16, 6, 3)))
    before = vol.data.copy()
    outs = infer_gap_signal(model16, vol, GapSpec(2, 2))
    assert len(outs) == 2
    assert outs[0].data.shape == (16, 16, 3)
    # The neighbors are read as views of the volume, which stays as it was.
    assert np.array_equal(vol.data, before)
    with pytest.raises(BoundaryGap):
        infer_gap_signal(model16, vol, GapSpec(4, 2))


def per_call_inference(model, prev_slice, next_slice, gap):
    """The per-neighbour encode and per-slice decode reference: returns the
    decoded batches and the histogram-matched slices."""
    one_item = model.cfg.input_channels == prev_slice.shape[2]
    latents = []
    for s in (prev_slice, next_slice):
        chw = normalize_slice(s).transpose(2, 0, 1)
        cropped = center_crop_pad(chw, model.cfg.input_size)
        src, dst = crop_windows(chw.shape[1:], model.cfg.input_size)
        latents.append(model.encode(cropped[None] if one_item else cropped[:, None]))
    decoded, slices = [], []
    for w_prev, w_next in gap.weights:
        batch = model.decode(blend_latents(latents[0], latents[1], w_prev))
        decoded.append(batch)
        raw = np.moveaxis(batch[0] if one_item else batch[:, 0], 0, -1)
        reference = w_prev * prev_slice + w_next * next_slice
        out = reference.copy()
        out[src] = histogram_match(raw[dst], reference[src])
        slices.append(out)
    return decoded, slices


# (model channels, slice channels, n_missing, encode items per neighbor,
# decode batch); the 18x14 slices are cropped in x and padded in y to the
# 16x16 model grid.
BATCHING_CASES = {
    "1ch-model-5ch-slice-N1": (1, 5, 1, 5, 5),
    "1ch-model-5ch-slice-N2": (1, 5, 2, 5, 10),
    "15ch-model-N1": (15, 15, 1, 1, 1),
    "15ch-model-N2": (15, 15, 2, 1, 2),
}


@pytest.mark.parametrize("case", BATCHING_CASES.values(), ids=BATCHING_CASES.keys())
def test_one_encode_and_one_decode_match_per_call_inference(case):
    model_c, slice_c, n, encode_items, decode_items = case
    model = Autoencoder(
        ModelConfig(input_channels=model_c, latent_maps=2, input_size=16, base_width=1, seed=4)
    )
    rng = np.random.default_rng(15)
    prev_slice, next_slice = (rng.random((18, 14, slice_c)) * 2.0 for _ in range(2))
    gap = GapSpec(2, n)
    truth = [
        w_prev * prev_slice + w_next * next_slice
        + 0.1 * rng.standard_normal(prev_slice.shape)
        for w_prev, w_next in gap.weights
    ]
    want_decoded, want_slices = per_call_inference(model, prev_slice, next_slice, gap)

    calls = []
    for name in ("encode", "decode"):
        def call(x, name=name, inner=getattr(model, name)):
            out = inner(x)
            calls.append((name, len(x), out))
            return out

        setattr(model, name, call)
    got = decode_gap(model, prev_slice, next_slice, gap)

    # Both neighbors encoded at once, then all N blends decoded at once; a
    # slice encodes the same alone or in a batch.
    assert [(name, items) for name, items, _ in calls] == [
        ("encode", 2 * encode_items), ("decode", decode_items)
    ]
    got_decoded = np.split(calls[1][2], n)
    for got_batch, want_batch in zip(got_decoded, want_decoded):
        np.testing.assert_allclose(got_batch, want_batch, rtol=1e-12, atol=0)
    assert len(got) == n
    for out, want, gt in zip(got, want_slices, truth):
        mse, want_mse = np.mean((out.data - gt) ** 2), np.mean((want - gt) ** 2)
        assert abs(mse - want_mse) <= 1e-12 * want_mse


def test_infer_gap_sh_shapes():
    data = make_phantom(PhantomSpec(dims=(16, 16, 8), n_directions=20, n_b0=2))
    sh_model = Autoencoder(
        ModelConfig(input_channels=15, latent_maps=2, input_size=16, base_width=1, seed=1)
    )
    b0_model = Autoencoder(MODEL16)
    dwi_slices, b0_slices = infer_gap_sh(
        sh_model, b0_model, data.dwi, data.b0, data.gtab, GapSpec(3, 2)
    )
    assert len(dwi_slices) == 2 and len(b0_slices) == 2
    assert dwi_slices[0].data.shape == (16, 16, 20)
    assert b0_slices[0].data.shape == (16, 16, 1)
    short_b0 = data.b0.with_data(data.b0.data[:, :, :5])
    with pytest.raises(ShapeError, match="b0 grid"):
        infer_gap_sh(sh_model, b0_model, data.dwi, short_b0, data.gtab, GapSpec(3, 2))


def test_overfit_sh_inference_reaches_representability_bound():
    # Band-limited phantom with a constant z-profile across the gap: a model
    # overfit on exactly the slice the encoder sees must reconstruct the gap
    # to within the SH fit-project floor (~0 here) plus a small residual.
    # The decoder's last width must be >= 15 to span the coefficient channels.
    from dmrislice import fit_sh, project_sh, sh_roundtrip_error
    from dmrislice.ae import TrainConfig, train
    from dmrislice.ae.train import SliceSample, stacked_slices

    base = make_phantom(PhantomSpec(dims=(32, 32, 12), n_directions=30, seed=3))
    band = project_sh(fit_sh(base.dwi, base.gtab, lmax=4), base.gtab.bvecs)
    data = band.data.copy()
    gap = GapSpec(6, 2)
    for z in (6, 7, 8):
        data[:, :, z, :] = data[:, :, 5, :]
    dwi = Volume4D(data)
    bound = sh_roundtrip_error(dwi, base.gtab, lmax=4)
    assert bound < 1e-12

    sh_all = fit_sh(dwi, base.gtab, lmax=4)
    target = stacked_slices(sh_all.volume)[5]
    dataset = [SliceSample(data=target.data, subject=f"s{i}") for i in range(6)]
    cfg = TrainConfig(
        lr=5e-3, batch_size=4, epochs=500, val_fraction=0.2, seed=0, split_by="slice"
    )
    mcfg = ModelConfig(
        input_channels=15, latent_maps=16, input_size=32, base_width=16, seed=1
    )
    ckpt = train(dataset, cfg, mcfg)

    b0_model = Autoencoder(
        ModelConfig(input_channels=1, latent_maps=4, input_size=32, base_width=2, seed=2)
    )
    dwi_slices, _ = infer_gap_sh(ckpt.model, b0_model, dwi, base.b0, base.gtab, gap)
    span = float(data.max() - data.min())
    for k, z in enumerate((6, 7)):
        mse = float(np.mean(((dwi_slices[k].data - data[:, :, z, :]) / span) ** 2))
        assert mse <= bound + 1e-3


def test_infer_gap_sh_15_direction_regime():
    # few-direction, lower-b inputs run through the same pipeline
    data = make_phantom(PhantomSpec(dims=(16, 16, 8), n_directions=15, b_value=700.0, n_b0=1))
    sh_model = Autoencoder(
        ModelConfig(input_channels=15, latent_maps=2, input_size=16, base_width=1, seed=2)
    )
    b0_model = Autoencoder(MODEL16)
    dwi_slices, _ = infer_gap_sh(
        sh_model, b0_model, data.dwi, data.b0, data.gtab, GapSpec(3, 1)
    )
    assert dwi_slices[0].data.shape == (16, 16, 15)


def test_a_one_channel_sh_net_is_refused():
    # A 1-channel net would run once per coefficient and read as the SH net.
    data = make_phantom(PhantomSpec(dims=(16, 16, 8), n_directions=20, n_b0=2))
    one = Autoencoder(MODEL16)
    with pytest.raises(ShapeError, match="^SH order 4 needs an SH net of 15 input channels, not 1$"):
        infer_gap_sh(one, one, data.dwi, data.b0, data.gtab, GapSpec(3, 1))


def _unique_match(source, reference):
    """The np.unique matching of one channel, which the rank path must equal."""
    src_values, src_inverse, src_counts = np.unique(
        source.ravel(), return_inverse=True, return_counts=True
    )
    ref_values, ref_counts = np.unique(reference.ravel(), return_counts=True)
    src_quantiles = np.cumsum(src_counts) / source.size
    ref_quantiles = np.cumsum(ref_counts) / reference.size
    mapped = np.interp(src_quantiles, ref_quantiles, ref_values)
    return mapped[src_inverse].reshape(source.shape)


FINITE = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)
SPECIAL = {"signed-zero": [-0.0, 0.0], "nan": [np.nan], "inf": [np.inf]}


@st.composite
def channels(draw, n, kinds):
    """(kind, values) of one channel of ``n`` values: tie-free, with ties,
    all equal, or tie-free apart from a -0.0/0.0 pair, a NaN or an infinity."""
    kind = draw(st.sampled_from(kinds))
    if kind == "distinct":
        values = draw(st.lists(FINITE, min_size=n, max_size=n, unique=True))
    elif kind == "ties":
        pool = draw(st.lists(FINITE, min_size=1, max_size=n - 1, unique=True))
        values = draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n))
    elif kind == "equal":
        values = [draw(FINITE)] * n
    else:
        special = SPECIAL[kind]
        nonzero = FINITE.filter(lambda v: v != 0.0)
        values = special + draw(
            st.lists(nonzero, min_size=n - len(special), max_size=n - len(special), unique=True)
        )
    return kind, np.array(draw(st.permutations(values)), dtype=np.float64)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_histogram_match_rank_path_gives_the_unique_paths_bytes(data):
    # Tie-free channels of one size, the rank path's inputs, in about one of
    # four channels.
    kinds = ["distinct"] * 4 + ["ties", "equal", *SPECIAL]
    c = data.draw(st.integers(1, 3))
    src_shape = (data.draw(st.integers(1, 5)), data.draw(st.integers(2, 5)))
    larger = (src_shape[0] + 1, src_shape[1])
    ref_shape = data.draw(st.sampled_from([src_shape, src_shape, larger]))
    src = [data.draw(channels(src_shape[0] * src_shape[1], kinds)) for _ in range(c)]
    ref = [data.draw(channels(ref_shape[0] * ref_shape[1], kinds)) for _ in range(c)]
    source = np.stack([v.reshape(src_shape) for _, v in src], axis=2)
    reference = np.stack([v.reshape(ref_shape) for _, v in ref], axis=2)
    want = np.empty_like(source)
    for k in range(c):
        want[:, :, k] = _unique_match(source[:, :, k], reference[:, :, k])
    ranked = sum(
        src_shape == ref_shape and a == b == "distinct" for (a, _), (b, _) in zip(src, ref)
    )
    with mock.patch.object(np, "unique", wraps=np.unique) as unique:
        got = histogram_match(source, reference)
    assert got.tobytes() == want.tobytes()
    # Each channel off the rank path runs np.unique on its source and reference.
    assert unique.call_count == 2 * (c - ranked)
