import json
import os
import struct
import sys
import tempfile
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings

from dmrislice.ae import (
    Adam,
    Autoencoder,
    ModelConfig,
    load_checkpoint,
    save_checkpoint,
)
from dmrislice.ae.model import tensor_manifest
from dmrislice.ae.optim import BETA1, BETA2, EPS
from dmrislice.blas import _openblas, one_blas_thread
from dmrislice.errors import DmrisliceError, ParseError, ShapeError
import mutation
from gradcheck import check_model_gradients
from layer_state import assert_state_unchanged, layer_state

TINY = ModelConfig(input_channels=1, latent_maps=2, input_size=16, base_width=1, seed=3)


def test_model_config_fields():
    names = [f.name for f in fields(ModelConfig)]
    assert names == ["input_channels", "latent_maps", "input_size", "base_width", "seed"]


def test_latent_shapes_full_scale():
    # 128 -> 8 through four 2x2 poolings; M maps in the bottleneck.
    cfg = ModelConfig(input_channels=15, latent_maps=64, input_size=128, seed=0)
    model = Autoencoder(cfg)
    x = np.random.default_rng(0).uniform(0, 1, (1, 15, 128, 128))
    z = model.encode(x)
    assert z.shape == (1, 64, 8, 8)
    y = model.decode(z)
    assert y.shape == x.shape

    cfg_b0 = ModelConfig(input_channels=1, latent_maps=32, input_size=128, seed=0)
    z0 = Autoencoder(cfg_b0).encode(x[:, :1])
    assert z0.shape == (1, 32, 8, 8)


def test_encoder_halves_spatial_dims():
    cfg = ModelConfig(input_channels=1, latent_maps=4, input_size=64, base_width=2, seed=1)
    model = Autoencoder(cfg)
    x = np.random.default_rng(1).uniform(0, 1, (1, 1, 64, 64))
    sizes = []
    for layer in model.encoder:
        x = layer.forward(x)
        sizes.append(x.shape[2])
    assert sorted(set(sizes), reverse=True) == [64, 32, 16, 8, 4]


def test_decoder_defaults_to_nearest_upsampling():
    from dmrislice.ae.layers import Conv2D, Head, UpsampleConv2D

    model = Autoencoder(TINY)
    kinds = [type(layer) for layer in model.decoder]
    assert kinds == [Conv2D] + [UpsampleConv2D] * 4 + [Head]


# The three network shapes: b0/signal, SH and full-scale.
SHAPES = {
    "1x64-w4": ModelConfig(input_channels=1, latent_maps=4, input_size=64, base_width=4),
    "15x64-w16": ModelConfig(input_channels=15, latent_maps=16, input_size=64, base_width=16),
    "1x128-w32": ModelConfig(input_channels=1, latent_maps=32, input_size=128, base_width=32),
}


@pytest.mark.parametrize("cfg", SHAPES.values(), ids=SHAPES.keys())
def test_every_shape_has_one_layer_per_block_and_its_manifest(cfg):
    from dmrislice.ae.layers import AvgPool2x2, Conv2D, Head, UpsampleConv2D

    model = Autoencoder(cfg)
    kinds = [type(layer) for layer in model.encoder + model.decoder]
    assert len(kinds) == 21
    assert kinds.count(Conv2D) == 12 and kinds.count(UpsampleConv2D) == 4
    assert kinds.count(AvgPool2x2) == 4 and kinds[-1] is Head
    built = [(name, arr.shape) for name, arr in model.parameters() + model.named_buffers()]
    assert tensor_manifest(cfg) == built


def test_output_in_unit_interval():
    model = Autoencoder(TINY)
    x = np.random.default_rng(2).uniform(0, 1, (3, 1, 16, 16))
    y = model.forward(x)
    assert np.all(y > 0.0) and np.all(y < 1.0)


def test_same_seed_same_parameters():
    a = Autoencoder(TINY)
    b = Autoencoder(TINY)
    for (na, pa), (nb, pb) in zip(a.parameters(), b.parameters()):
        assert na == nb
        assert np.array_equal(pa, pb)


def test_encode_decode_equals_forward():
    model = Autoencoder(TINY)
    x = np.random.default_rng(3).uniform(0, 1, (2, 1, 16, 16))
    y = model.forward(x, train=False)
    y2 = model.decode(model.encode(x, train=False), train=False)
    assert np.array_equal(y, y2)


def test_inference_writes_no_layer_state():
    model = Autoencoder(TINY)
    rng = np.random.default_rng(13)
    model.loss_and_grads(rng.uniform(0, 1, (4, 1, 16, 16)))  # running stats, grads
    x = rng.uniform(0, 1, (3, 1, 16, 16))
    model.forward(x, train=False)  # drops the activations training cached
    before = layer_state(model)
    z = model.encode(x, train=False)
    model.decode(z, train=False)
    model.forward(x, train=False)
    assert_state_unchanged(model, before)


def test_two_threads_share_one_model():
    model = Autoencoder(ModelConfig(latent_maps=2, input_size=32, base_width=2, seed=4))
    rng = np.random.default_rng(14)
    inputs = [rng.uniform(0, 1, (3, 1, 32, 32)), rng.uniform(0, 1, (5, 1, 32, 32))]

    def run(x):
        return model.decode(model.encode(x, train=False), train=False)

    serial = [run(x) for x in inputs]

    def rounds(k):
        return [np.array_equal(run(inputs[k]), serial[k]) for _ in range(20)]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads as often as possible
    try:
        with ThreadPoolExecutor(max_workers=2) as pool:
            results = list(pool.map(rounds, range(2), timeout=300))
    finally:
        sys.setswitchinterval(interval)
    assert results == [[True] * 20, [True] * 20]


def test_decoder_is_function_of_latent_only():
    model = Autoencoder(TINY)
    z = np.zeros((1, 2, 1, 1))
    a = model.decode(z)
    b = model.decode(z)
    assert np.array_equal(a, b)


def test_identical_inputs_identical_latents():
    model = Autoencoder(TINY)
    x = np.random.default_rng(4).uniform(0, 1, (1, 1, 16, 16))
    batch = np.concatenate([x, x])
    z = model.encode(batch)
    assert np.array_equal(z[0], z[1])


def test_shape_errors():
    model = Autoencoder(TINY)
    with pytest.raises(ShapeError):
        model.encode(np.zeros((1, 2, 16, 16)))  # wrong channels
    with pytest.raises(ShapeError):
        model.encode(np.zeros((1, 1, 32, 32)))  # wrong spatial size
    with pytest.raises(ShapeError):
        model.decode(np.zeros((1, 3, 1, 1)))  # wrong latent maps


@pytest.mark.parametrize("side", [3, 2, 0])
def test_decode_rejects_a_latent_of_another_spatial_size(side):
    model = Autoencoder(TINY)  # 16-pixel input, so a 1x1 latent
    want = rf"latent must be \(B, 2, 1, 1\), got \(1, 2, {side}, {side}\)"
    with pytest.raises(ShapeError, match=want):
        model.decode(np.zeros((1, 2, side, side)))


def test_loss_zero_when_output_equals_input():
    # Feeding the model's own eval-mode output as both input and target is
    # impractical; instead verify the loss/grad identities directly on a
    # crafted case: identical duplicated batches give identical mean grads.
    model = Autoencoder(TINY)
    x = np.random.default_rng(5).uniform(0, 1, (2, 1, 16, 16))
    mse1, grads1 = model.loss_and_grads(x)
    mse2, grads2 = model.loss_and_grads(np.concatenate([x, x]))
    assert mse2 == pytest.approx(mse1, rel=1e-12)
    for g1, g2 in zip(grads1, grads2):
        assert np.allclose(g1, g2, atol=1e-12)


def test_first_layer_input_gradient_skipped_with_identical_parameter_gradients():
    x = np.random.default_rng(13).uniform(0, 1, (2, 1, 16, 16))
    model = Autoencoder(TINY)
    mse, grads = model.loss_and_grads(x)
    # The full backward, down to the gradient w.r.t. the batch.
    full = Autoencoder(TINY)
    y = full.forward(x, train=True)
    diff = y - x
    assert float(np.mean(diff * diff)) == mse
    grad = 2.0 * diff / diff.size
    for layer in reversed(full.encoder + full.decoder):
        grad = layer.backward(grad)
    assert grad.shape == x.shape
    assert len(grads) == len(full.gradients())
    for g, g_full in zip(grads, full.gradients()):
        assert np.array_equal(g, g_full)


def test_loss_and_grads_leaves_the_batch_unchanged():
    # The first convolution caches the float64 batch itself, not a copy.
    x = np.random.default_rng(15).uniform(0, 1, (3, 1, 16, 16))
    before = x.copy()
    Autoencoder(TINY).loss_and_grads(x)
    assert np.array_equal(x, before)


def test_composed_gradients_tiny_model():
    model = Autoencoder(TINY)
    x = np.random.default_rng(7).uniform(0.05, 0.95, (2, 1, 16, 16))
    worst = check_model_gradients(model, x, n_per_tensor=6, seed=11)
    assert worst < 1e-4


def test_adam_first_step_closed_form():
    # With g=1 on the first step, m_hat = 1, v_hat = 1: update = lr / (1 + eps).
    p = [np.array([1.0])]
    Adam(lr=5e-5).step(p, [np.ones(1)])
    assert p[0][0] == pytest.approx(1.0 - 5e-5 / (1.0 + 1e-7), abs=1e-15)


def _check_three_adam_steps(dtypes):
    rng = np.random.default_rng(21)
    shapes = [(4, 3, 3, 3), (4,), (2, 5)]
    params = [rng.standard_normal(shape).astype(dt) for shape, dt in zip(shapes, dtypes)]
    want = [p.copy() for p in params]
    m = [np.zeros(shape, dt) for shape, dt in zip(shapes, dtypes)]
    v = [np.zeros(shape, dt) for shape, dt in zip(shapes, dtypes)]
    lr = 2e-3
    opt = Adam(lr=lr)
    for t in (1, 2, 3):
        grads = [rng.standard_normal(shape).astype(dt) for shape, dt in zip(shapes, dtypes)]
        grads_before = [g.copy() for g in grads]
        opt.step(params, grads)
        bc1, bc2 = 1.0 - BETA1**t, 1.0 - BETA2**t
        for p, g, m_t, v_t in zip(want, grads, m, v):
            m_t[...] = BETA1 * m_t + (1.0 - BETA1) * g
            v_t[...] = BETA2 * v_t + (1.0 - BETA2) * g * g
            p -= lr * (m_t / bc1) / (np.sqrt(v_t / bc2) + EPS)
        for got, p, g, g_before in zip(params, want, grads, grads_before):
            assert got.dtype == p.dtype and np.array_equal(got, p)
            assert np.array_equal(g, g_before)


def test_three_adam_steps_match_the_formula_bit_for_bit():
    _check_three_adam_steps((np.float64,) * 3)


def test_adam_updates_each_tensor_in_its_own_dtype():
    # A float32 body behind a float64 head, as train() steps it.
    _check_three_adam_steps((np.float32, np.float32, np.float64))


def test_adam_zero_gradient_keeps_parameters():
    opt = Adam(lr=1e-3)
    p = [np.array([1.0, -2.0])]
    opt.step(p, [np.zeros(2)])
    assert np.array_equal(p[0], [1.0, -2.0])


def test_adam_moment_decay():
    opt = Adam(lr=1e-3)
    p = [np.array([0.0])]
    opt.step(p, [np.array([1.0])])
    m_after_first = opt.m[0].copy()
    opt.step(p, [np.array([0.0])])
    assert abs(opt.m[0][0]) < abs(m_after_first[0])


def test_checkpoint_roundtrip_bit_exact(tmp_path):
    model = Autoencoder(TINY)
    # make running stats non-trivial
    model.forward(np.random.default_rng(9).uniform(0, 1, (2, 1, 16, 16)), train=True)
    p1 = tmp_path / "a.ckpt"
    p2 = tmp_path / "b.ckpt"
    save_checkpoint(model, p1)
    loaded = load_checkpoint(p1)
    save_checkpoint(loaded, p2)
    assert p1.read_bytes() == p2.read_bytes()
    x = np.random.default_rng(10).uniform(0, 1, (1, 1, 16, 16))
    y1 = loaded.forward(x)
    y2 = load_checkpoint(p2).forward(x)
    assert np.array_equal(y1, y2)


def _saved_checkpoint(tmp_path):
    """A TINY checkpoint with non-trivial running statistics, and the float64
    model it was saved from."""
    model = Autoencoder(TINY)
    model.forward(np.random.default_rng(9).uniform(0, 1, (2, 1, 16, 16)), train=True)
    p = tmp_path / "m.ckpt"
    save_checkpoint(model, p)
    return p, model


def test_loaded_checkpoint_has_a_float32_body_and_a_float64_head(tmp_path):
    p, _ = _saved_checkpoint(tmp_path)
    model = load_checkpoint(p)
    *body, head = model.encoder + model.decoder
    assert model.dtype == np.float32
    for layer in body:
        for arr in list(layer.params.values()) + list(layer.buffers.values()):
            assert arr.dtype == np.float32
    assert [arr.dtype for arr in head.params.values()] == [np.float64, np.float64]
    x = np.random.default_rng(10).uniform(0, 1, (2, 1, 16, 16))
    y, z = model.forward(x), model.encode(x)
    assert z.dtype == np.float32 and y.dtype == np.float64
    save_checkpoint(model, tmp_path / "again.ckpt")
    assert (tmp_path / "again.ckpt").read_bytes() == p.read_bytes()


def test_float64_conversion_of_a_loaded_model_is_the_stored_float64_model(tmp_path):
    p, saved = _saved_checkpoint(tmp_path)
    # Every stored value widened to float64: what a float64 loader builds.
    stored = Autoencoder(TINY)
    params, buffers = saved.state_snapshot()
    stored.load_snapshot(
        ([a.astype(np.float32) for a in params], [a.astype(np.float32) for a in buffers])
    )
    model = load_checkpoint(p).astype(np.float64)
    assert model.dtype == np.float64
    for (_, a), (_, b) in zip(
        model.parameters() + model.named_buffers(), stored.parameters() + stored.named_buffers()
    ):
        assert a.dtype == np.float64 and np.array_equal(a, b)
    x = np.random.default_rng(10).uniform(0, 1, (2, 1, 16, 16))
    for got, want in [(model.forward(x), stored.forward(x)), (model.encode(x), stored.encode(x))]:
        assert got.dtype == np.float64 and np.array_equal(got, want)
    with pytest.raises(ShapeError):
        model.astype(np.float16)


def test_float32_body_gradients_have_their_parameters_dtype(tmp_path):
    # A float32 body trains in float32 behind the float64 head; the float64
    # model it converts back to still trains in float64.
    p, _ = _saved_checkpoint(tmp_path)
    model = load_checkpoint(p)
    x = np.random.default_rng(10).uniform(0, 1, (2, 1, 16, 16))
    # The gradient is cast once, where it leaves the head: no body layer's
    # backward multiplies a float64 gradient into its float32 arrays.
    incoming = []
    for layer in model.encoder + model.decoder[:-1]:
        def backward(dy, *args, _backward=layer.backward, **kwargs):
            incoming.append(dy.dtype)
            return _backward(dy, *args, **kwargs)

        layer.backward = backward
    mse32, grads = model.loss_and_grads(x)
    assert incoming == [np.float32] * (len(model.encoder) + len(model.decoder) - 1)
    dtypes = [g.dtype for g in grads]
    assert dtypes == [arr.dtype for _, arr in model.parameters()]
    assert dtypes[:-2] == [np.float32] * (len(grads) - 2)
    assert dtypes[-2:] == [np.float64, np.float64]
    assert all(np.all(np.isfinite(g)) for g in grads)
    mse64, grads = model.astype(np.float64).loss_and_grads(x)
    assert all(g.dtype == np.float64 for g in grads)
    assert abs(mse32 - mse64) <= 1e-6 * mse64


def test_checkpoint_magic(tmp_path):
    p = tmp_path / "x.ckpt"
    save_checkpoint(Autoencoder(TINY), p)
    assert p.read_bytes()[:5] == b"DSAE1"


def test_checkpoint_truncated(tmp_path):
    p = tmp_path / "x.ckpt"
    save_checkpoint(Autoencoder(TINY), p)
    raw = p.read_bytes()
    p.write_bytes(raw[: len(raw) - 16])
    with pytest.raises(ParseError):
        load_checkpoint(p)


def test_checkpoint_bad_magic(tmp_path):
    p = tmp_path / "x.ckpt"
    save_checkpoint(Autoencoder(TINY), p)
    raw = bytearray(p.read_bytes())
    raw[:5] = b"WRONG"
    p.write_bytes(bytes(raw))
    with pytest.raises(ParseError):
        load_checkpoint(p)


def rewrite_header(path, edit):
    """Replace a checkpoint's JSON header by ``edit(header)``, keeping the tensors."""
    raw = path.read_bytes()
    (n,) = struct.unpack_from("<I", raw, 5)
    blob = json.dumps(edit(json.loads(raw[9 : 9 + n]))).encode()
    path.write_bytes(raw[:5] + struct.pack("<I", len(blob)) + blob + raw[9 + n :])


def edit_config(**changes):
    def edit(header):
        for key, value in changes.items():
            if value is None:
                del header["config"][key]
            else:
                header["config"][key] = value
        return header

    return edit


def edit_entry(entry):
    def edit(header):
        header["tensors"][0] = entry(header["tensors"][0])
        return header

    return edit


def assert_rejected(tmp_path, edit):
    p = tmp_path / "x.ckpt"
    save_checkpoint(Autoencoder(TINY), p)
    rewrite_header(p, edit)
    with pytest.raises(ParseError):
        load_checkpoint(p)


@pytest.mark.parametrize(
    "edit",
    [lambda h: [h], lambda h: {"tensors": h["tensors"]}, lambda h: {**h, "extra": 1}],
    ids=["list", "no-config", "extra-key"],
)
def test_checkpoint_header_must_be_config_and_tensors(tmp_path, edit):
    assert_rejected(tmp_path, edit)


# The config a checkpoint carried while the decoder mode and the batch-norm
# constants were model options.
EIGHT_KEY_CONFIG = edit_config(upsample="nearest", bn_momentum=0.99, bn_eps=1e-3)


@pytest.mark.parametrize(
    "edit",
    [edit_config(seed=None), edit_config(dtype="float32"), EIGHT_KEY_CONFIG],
    ids=["no-seed", "extra-field", "eight-key-config"],
)
def test_checkpoint_config_keys_must_be_the_model_config_fields(tmp_path, edit):
    assert_rejected(tmp_path, edit)


@pytest.mark.parametrize(
    "edit",
    [
        edit_config(input_size="16"),
        edit_config(base_width=True),
        edit_config(input_channels=1.0),
    ],
    ids=["str-for-int", "bool-for-int", "float-for-int"],
)
def test_checkpoint_config_values_must_have_the_field_json_type(tmp_path, edit):
    assert_rejected(tmp_path, edit)


@pytest.mark.parametrize(
    "edit",
    [
        edit_entry(lambda e: e["name"]),
        edit_entry(lambda e: {"name": e["name"]}),
        edit_entry(lambda e: {**e, "shape": [str(d) for d in e["shape"]]}),
        edit_entry(lambda e: {**e, "dtype": "<f4"}),
        lambda h: {**h, "tensors": {"layer00.w": h["tensors"][0]}},
    ],
    ids=["string", "no-shape", "str-dims", "extra-key", "not-a-list"],
)
def test_checkpoint_malformed_manifest_entry_rejected(tmp_path, edit):
    assert_rejected(tmp_path, edit)


def test_tensor_manifest_matches_the_built_model():
    cfg = ModelConfig(input_channels=3, latent_maps=2, input_size=16, base_width=2)
    model = Autoencoder(cfg)
    built = [(name, arr.shape) for name, arr in model.parameters() + model.named_buffers()]
    assert tensor_manifest(cfg) == built


def test_corrupt_config_is_rejected_before_the_model_is_built(tmp_path):
    # base_width 91 names a model of ~140M parameters; the manifest of the
    # base_width 1 tensors must be found wrong without allocating it.
    p = tmp_path / "x.ckpt"
    save_checkpoint(Autoencoder(TINY), p)
    rewrite_header(p, edit_config(base_width=91))
    tracemalloc.start()
    try:
        with pytest.raises(ParseError):
            load_checkpoint(p)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 50e6


def test_checkpoint_trailing_bytes_rejected(tmp_path):
    p = tmp_path / "x.ckpt"
    save_checkpoint(Autoencoder(TINY), p)
    p.write_bytes(p.read_bytes() + b"\x00")
    with pytest.raises(ParseError):
        load_checkpoint(p)


def write_tensor_value(path, name, value):
    """Overwrite the first stored value of tensor ``name`` in a TINY checkpoint."""
    raw = bytearray(path.read_bytes())
    (n,) = struct.unpack_from("<I", raw, 5)
    offset = 9 + n
    for entry, shape in tensor_manifest(TINY):
        if entry == name:
            break
        offset += 4 * int(np.prod(shape))
    raw[offset : offset + 4] = np.float32(value).astype("<f4").tobytes()
    path.write_bytes(bytes(raw))


@pytest.mark.parametrize(
    "name, value, message",
    [
        ("layer00.w", np.nan, "non-finite"),
        ("layer00.w", -np.inf, "non-finite"),
        ("layer01.running_mean", np.inf, "non-finite"),
        ("layer01.running_var", -1e-3, "negative"),
    ],
    ids=["nan-weight", "inf-weight", "inf-running-mean", "negative-running-var"],
)
def test_checkpoint_with_malformed_tensor_values_rejected(tmp_path, name, value, message):
    p = tmp_path / "x.ckpt"
    save_checkpoint(Autoencoder(TINY), p)
    write_tensor_value(p, name, value)
    with pytest.raises(ParseError, match=f"{name} holds a {message}"):
        load_checkpoint(p)


def test_checkpoint_with_a_zero_running_variance_loads(tmp_path):
    p = tmp_path / "x.ckpt"
    save_checkpoint(Autoencoder(TINY), p)
    write_tensor_value(p, "layer01.running_var", 0.0)
    model = load_checkpoint(p)
    assert model.encoder[0].buffers["running_var"][0] == 0.0


def _tiny_checkpoint_bytes() -> bytes:
    with tempfile.TemporaryDirectory() as tmp:
        p = os.path.join(tmp, "x.ckpt")
        save_checkpoint(Autoencoder(TINY), p)
        with open(p, "rb") as fh:
            return fh.read()


TINY_BYTES = _tiny_checkpoint_bytes()
(_HEADER_LEN,) = struct.unpack_from("<I", TINY_BYTES, 5)


# Half the mutations land in the magic, length or JSON header, where almost
# every loader check lives; the rest anywhere in the file.
@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(mutation.variants(TINY_BYTES, hot=9 + _HEADER_LEN))
def test_checkpoint_fuzz_loads_or_raises_dmrislice_error(variant):
    with tempfile.TemporaryDirectory() as tmp:
        p = os.path.join(tmp, "x.ckpt")
        with open(p, "wb") as fh:
            fh.write(mutation.apply(TINY_BYTES, variant))
        try:
            load_checkpoint(p)
        except DmrisliceError:
            pass


def test_wrong_channel_checkpoint_raises_at_use(tmp_path):
    p = tmp_path / "one_channel.ckpt"
    save_checkpoint(Autoencoder(TINY), p)
    model = load_checkpoint(p)
    sh_batch = np.zeros((1, 15, 16, 16))
    with pytest.raises(ShapeError):
        model.encode(sh_batch)


def test_eval_forward_bit_identical():
    model = Autoencoder(TINY)
    x = np.random.default_rng(11).uniform(0, 1, (1, 1, 16, 16))
    model.forward(np.random.default_rng(12).uniform(0, 1, (4, 1, 16, 16)), train=True)
    y1 = model.forward(x, train=False)
    y2 = model.forward(x, train=False)
    assert np.array_equal(y1, y2)


# The north star's three network shapes, b0/signal, SH and full scale, as
# float32 bodies, each with the batch sizes it is encoded and decoded at.
BATCH_SHAPES = {
    "1x64-w4": (
        ModelConfig(input_channels=1, latent_maps=8, input_size=64, base_width=4), (1, 2, 9, 88)
    ),
    "15x64-w16": (
        ModelConfig(input_channels=15, latent_maps=8, input_size=64, base_width=16), (1, 2, 9)
    ),
    "1x128-w32": (ModelConfig(), (1, 3, 7)),
}


@pytest.fixture(scope="module")
def one_item_outputs():
    """Per shape: the model, inputs ``x`` and latents ``z`` for its largest
    batch, and each item encoded and decoded on its own."""
    cache = {}

    def get(name):
        if name not in cache:
            cfg, sizes = BATCH_SHAPES[name]
            model = Autoencoder(cfg).astype(np.float32)
            rng = np.random.default_rng(20)
            n, side = max(sizes), cfg.latent_size
            x = rng.uniform(0, 1, (n, cfg.input_channels, cfg.input_size, cfg.input_size))
            z = rng.standard_normal((n, cfg.latent_maps, side, side))
            encoded = np.concatenate([model.encode(item[None]) for item in x])
            decoded = np.concatenate([model.decode(item[None]) for item in z])
            cache[name] = model, x, z, encoded, decoded
        return cache[name]

    return get


@pytest.mark.parametrize("blas_threads", ["default", "one"])
@pytest.mark.parametrize("name", BATCH_SHAPES)
def test_a_batch_encodes_and_decodes_bit_for_bit_as_its_items_one_at_a_time(
    one_item_outputs, name, blas_threads
):
    # An item's outputs depend neither on its batch-mates nor on the BLAS
    # thread count: the gap inference blends latents of slices encoded in
    # any grouping, and the experiment grid runs on one BLAS thread.
    if blas_threads == "one" and _openblas() is None:
        pytest.skip("NumPy's BLAS is not OpenBLAS")
    model, x, z, encoded, decoded = one_item_outputs(name)
    with one_blas_thread() if blas_threads == "one" else nullcontext():
        for n in BATCH_SHAPES[name][1]:
            assert np.array_equal(model.encode(x[:n]), encoded[:n])
            assert np.array_equal(model.decode(z[:n]), decoded[:n])
