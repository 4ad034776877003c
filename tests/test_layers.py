import numpy as np
import pytest

from dmrislice.ae.layers import (
    BN_EPS,
    BN_MOMENTUM,
    AvgPool2x2,
    Conv2D,
    Correlation,
    Head,
    Layer,
    PhaseCorrelation,
    UpsampleConv2D,
    _column_tiles,
)
from dmrislice.errors import ShapeError
from gradcheck import check_layer_gradients


C = (slice(None), None, None)  # a per-channel vector against an NCHW array


@pytest.fixture
def x():
    return np.random.default_rng(0).standard_normal((2, 3, 8, 8))


def identity_tap(layer):
    """Give a block or head with as many input as output channels the
    identity kernel (the centre tap of each channel 1, every other tap 0), so
    that its convolution's output is exactly its input; returns the layer."""
    w = layer.params["w"]
    w[...] = 0.0
    k = w.shape[2] // 2
    for c in range(w.shape[0]):
        w[c, c, k, k] = 1.0
    return layer


def identity_norm(block):
    """Make a block's inference batch norm pass its input on unchanged: its
    scale, gamma / sqrt(running_var + eps), is then exactly 1 and its shift
    exactly 0."""
    block.params["gamma"] = np.sqrt(block.buffers["running_var"] + BN_EPS)
    return block


def elu(z):
    return np.where(z > 0, z, np.expm1(np.minimum(z, 0.0)))


def test_conv3x3_gradients(x):
    rng = np.random.default_rng(1)
    check_layer_gradients(Conv2D(3, 4, rng), x, input_stride=7)


def test_conv1x1_gradients(x):
    # The head: a 1x1 convolution with bias, then the sigmoid.
    rng = np.random.default_rng(2)
    head = Head(3, 4, rng)
    head.params["b"] = rng.standard_normal(4)
    check_layer_gradients(head, x, input_stride=7)


def test_batchnorm_train_gradients(x):
    # The batch norm alone, behind an identity convolution.
    rng = np.random.default_rng(3)
    block = identity_tap(Conv2D(3, 3, rng))
    block.params["gamma"] = rng.standard_normal(3)
    block.params["beta"] = rng.standard_normal(3)
    check_layer_gradients(block, x, train=True, input_stride=5)


def test_batchnorm_eval_affine_matches_formula(x):
    rng = np.random.default_rng(4)
    block = identity_tap(Conv2D(3, 3, rng))
    block.params["gamma"] = rng.standard_normal(3)
    block.params["beta"] = rng.standard_normal(3)
    mean = rng.standard_normal(3) * 0.2
    var = np.abs(rng.standard_normal(3)) + 0.5
    block.buffers["running_mean"], block.buffers["running_var"] = mean, var
    gamma, beta = block.params["gamma"], block.params["beta"]
    want = elu(gamma[C] * (x - mean[C]) / np.sqrt(var[C] + BN_EPS) + beta[C])
    np.testing.assert_allclose(block.forward(x, train=False), want, rtol=1e-12, atol=0)


def caching_layers():
    rng = np.random.default_rng(8)
    return {
        "Conv2D": Conv2D(3, 4, rng),
        "UpsampleConv2D": UpsampleConv2D(3, 4, rng),
        "Head": Head(3, 2, rng),
    }


@pytest.mark.parametrize("name", caching_layers())
def test_backward_after_an_inference_forward_raises(x, name):
    layer = caching_layers()[name]
    with pytest.raises(ShapeError, match=f"^{name}.backward needs a train=True forward$"):
        layer.backward(np.ones_like(layer.forward(x, train=False)))
    # An inference forward also drops what a training forward cached.
    dy = np.ones_like(layer.forward(x, train=True))
    layer.backward(dy)
    layer.forward(x, train=True)
    layer.forward(x, train=False)
    with pytest.raises(ShapeError, match="needs a train=True forward"):
        layer.backward(dy)


@pytest.mark.parametrize("name", caching_layers())
def test_backward_lets_go_of_the_training_cache(x, name):
    layer = caching_layers()[name]
    dy = np.ones_like(layer.forward(x, train=True))
    layer.backward(dy)
    assert layer._cache is None
    with pytest.raises(ShapeError, match=f"^{name}.backward needs a train=True forward$"):
        layer.backward(dy)


def test_elu_gradients(x):
    # ELU behind an identity convolution, its input shifted per channel to
    # lie mostly below the kink, around it and mostly above it.
    block = identity_tap(Conv2D(3, 3, np.random.default_rng(6)))
    block.params["beta"] = np.array([-1.5, 0.0, 1.5])
    check_layer_gradients(block, x, input_stride=5)


def test_avgpool_gradients(x):
    check_layer_gradients(AvgPool2x2(), x, input_stride=5)


def test_upsample_gradients(x):
    # Every input size takes the one 2x2 phase path: two and four items.
    rng = np.random.default_rng(3)
    four = np.concatenate([x, x[:, ::-1] * 0.5])
    check_layer_gradients(UpsampleConv2D(3, 4, rng), x, input_stride=5)
    check_layer_gradients(UpsampleConv2D(3, 4, rng), four, input_stride=5)


def test_sigmoid_gradients(x):
    # The sigmoid alone, behind an identity 1x1 convolution with zero bias,
    # on inputs reaching its saturated tails.
    head = identity_tap(Head(3, 3, np.random.default_rng(7)))
    check_layer_gradients(head, x * 4, input_stride=5)


def test_conv_output_matches_direct_convolution():
    rng = np.random.default_rng(5)
    block = identity_norm(Conv2D(2, 3, rng))
    x = rng.standard_normal((1, 2, 5, 5))
    y = block.forward(x)
    xp = np.pad(x, ((0, 0), (0, 0), (1, 1), (1, 1)))
    w = block.params["w"]
    for o in range(3):
        for i in range(5):
            for j in range(5):
                acc = 0.0
                for c in range(2):
                    acc += np.sum(xp[0, c, i : i + 3, j : j + 3] * w[o, c])
                assert y[0, o, i, j] == pytest.approx(elu(acc), rel=1e-12)


def test_avgpool_backward_distributes_equally():
    layer = AvgPool2x2()
    x = np.arange(16, dtype=float).reshape(1, 1, 4, 4)
    layer.forward(x)
    dy = np.ones((1, 1, 2, 2))
    dx = layer.backward(dy)
    assert np.all(dx == 0.25)


def test_batchnorm_eval_deterministic():
    rng = np.random.default_rng(7)
    block = Conv2D(3, 3, rng)
    x = rng.standard_normal((2, 3, 4, 4))
    block.forward(x, train=True)  # populate running stats
    a = block.forward(x, train=False)
    b = block.forward(x, train=False)
    assert np.array_equal(a, b)


def test_sigmoid_output_bounded():
    head = identity_tap(Head(1, 1, np.random.default_rng(0)))
    x = np.array([[-1e6, -5.0, 0.0, 5.0, 1e6]]).reshape(1, 1, 1, 5)
    y = head.forward(x)
    assert np.all(y >= 0.0) and np.all(y <= 1.0)
    assert np.all(np.isfinite(y))


def test_elu_values():
    block = identity_norm(identity_tap(Conv2D(1, 1, np.random.default_rng(0))))
    x = np.array([-2.0, -0.5, 0.0, 0.5, 2.0]).reshape(1, 1, 1, 5)
    y = block.forward(x)
    expected = np.where(x > 0, x, np.expm1(x))
    assert np.allclose(y, expected, atol=1e-15)


def test_elu_matches_the_where_formula_bit_for_bit():
    # Behind an identity convolution and batch norm, in inference.
    rng = np.random.default_rng(9)
    x = rng.standard_normal((4, 3, 8, 8)) * 3
    x[0, 0, 0, :4] = [0.0, 1e-300, -1e-300, 5e-324]
    block = identity_norm(identity_tap(Conv2D(3, 3, rng)))
    y = block.forward(x)
    assert np.array_equal(y, np.where(x > 0, x, np.expm1(np.minimum(x, 0.0))))


def test_avgpool_within_one_ulp_of_the_mean():
    x = np.random.default_rng(10).standard_normal((5, 3, 16, 12)) * 100
    b, c, h, w = x.shape
    want = x.reshape(b, c, h // 2, 2, w // 2, 2).mean(axis=(3, 5))
    got = AvgPool2x2().forward(x)
    assert np.all(np.abs(got - want) <= np.spacing(np.abs(want)))


@pytest.mark.parametrize("train", [False, True])
def test_avgpool_of_an_odd_side_is_a_shape_error(train):
    with pytest.raises(ShapeError, match="even spatial dims, got 5x4"):
        AvgPool2x2().forward(np.zeros((1, 1, 5, 4)), train=train)


# -- the tiled im2col kernel against the whole-batch einsum formula ----------


def einsum_correlate(x, w, pad):
    """The earlier kernel: one einsum over a sliding-window view of the whole
    padded batch. Returns the output and the window view."""
    k = w.shape[2]
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    cols = np.lib.stride_tricks.sliding_window_view(xp, (k, k), axis=(2, 3))
    return np.einsum("bchwij,ocij->bohw", cols, w, optimize=True), cols


def einsum_conv(w, x, dy):
    """Forward output, input gradient and weight gradient of a same-size conv."""
    pad = w.shape[2] // 2
    y, cols = einsum_correlate(x, w, pad)
    dw = np.einsum("bchwij,bohw->ocij", cols, dy, optimize=True)
    dx, _ = einsum_correlate(dy, w[:, :, ::-1, ::-1].transpose(1, 0, 2, 3), pad)
    return y, dx, dw


def tile_sizes(batch, c, k, h, w):
    x = np.zeros((batch, c, h, w))
    return [items.stop - items.start for items, _ in _column_tiles(x, k)]


def assert_close(got, want):
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * np.abs(want).max())


# (batch, c_in, c_out, ksize, size, items per tile); one 4x64x64 item's
# 3x3 columns take 1.2 MB, over the tile budget. The 3x3 kernel is the
# blocks' convolution, the 1x1 kernel the head's.
KERNEL_CASES = {
    "batch-1": (1, 3, 4, 3, 8, [1]),
    "ragged-tiles": (31, 4, 3, 3, 16, [14, 14, 3]),
    "item-over-budget": (2, 4, 2, 3, 64, [1, 1]),
    "1x1": (5, 3, 5, 1, 8, [5]),
    "c_in-1": (3, 1, 4, 3, 8, [3]),
    "3x3-on-1x1": (4, 2, 3, 3, 1, [4]),
    "3x3-on-2x2": (3, 2, 3, 3, 2, [3]),
}


@pytest.mark.parametrize("case", KERNEL_CASES.values(), ids=KERNEL_CASES.keys())
def test_conv_matches_einsum_formula(case):
    batch, c_in, c_out, k, size, tiles = case
    assert tile_sizes(batch, c_in, k, size, size) == tiles
    rng = np.random.default_rng(20)
    w = rng.standard_normal((c_out, c_in, k, k))
    x = rng.standard_normal((batch, c_in, size, size))
    dy = rng.standard_normal((batch, c_out, size, size))
    conv = Correlation.of(w)
    y = conv(x)
    dw, dx = conv.backward(x, dy)
    want_y, want_dx, want_dw = einsum_conv(w, x, dy)
    assert_close(y, want_y)
    assert_close(dx, want_dx)
    assert_close(dw, want_dw)


# The decoder stages' 2x2 columns: windows of x padded by 1 at (h+1) x (w+1)
# positions; a 4x16x16 item's take 37 KB.
COLUMN_CASES = {
    **KERNEL_CASES,
    "2x2-on-1x1": (3, 2, None, 2, 1, [3]),
    "2x2-ragged-tiles": (31, 4, None, 2, 16, [28, 3]),
}


@pytest.mark.parametrize("case", COLUMN_CASES.values(), ids=COLUMN_CASES.keys())
def test_column_tiles_are_the_blocks_of_the_padded_input(case):
    batch, c_in, _, k, size, tiles = case
    pad = k // 2
    x = np.random.default_rng(21).standard_normal((batch, c_in, size, size))
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    sizes = []
    for items, cols in _column_tiles(x, k):
        # (n, c, h, w, k, k) windows -> per item, rows (c, i, j), columns (h, w).
        win = np.lib.stride_tricks.sliding_window_view(xp[items], (k, k), axis=(2, 3))
        n = items.stop - items.start
        want = win.transpose(0, 1, 4, 5, 2, 3).reshape(n, c_in * k * k, -1)
        assert np.array_equal(cols, want)
        sizes.append(n)
    assert sizes == tiles


# -- the decoder block against the block on upsample(x) ----------------------


def upsampled_block(layer, x, dy):
    """A float64 Conv2D block with the parameters and buffers of ``layer`` on
    the nearest-upsampled x, in train mode: its output, input gradient
    (summed back over each 2x2), weight gradient, and the block."""
    block = Conv2D(layer.c_in, layer.c_out, np.random.default_rng(0))
    for mine, theirs in ((block.params, layer.params), (block.buffers, layer.buffers)):
        mine.update({name: arr.astype(np.float64) for name, arr in theirs.items()})
    y = block.forward(np.repeat(np.repeat(x, 2, axis=2), 2, axis=3), train=True)
    du = block.backward(dy)
    n, c, h, wd = x.shape
    return y, du.reshape(n, c, h, 2, wd, 2).sum(axis=(3, 5)), block.grads["w"], block


# (batch, c_in, c_out, h, w, items per column tile). A tile holds the 2x2
# columns of the input, 4*c_in rows over (h+1) x (w+1) windows; a 256x8x8
# item's take 664 KB and a 64x16x16 item's 592 KB, over half the tile budget.
# The ids keep the size classes of an older two-path layer: "plain" cases
# hold under 256 input pixels (batch x h x w), "stacked" ones more; every
# size now takes the one path.
STAGE_CASES = {
    "1x1-plain": (3, 2, 3, 1, 1, [3]),
    "1x1-stacked": (300, 2, 3, 1, 1, [300]),
    "3x5-plain": (2, 3, 2, 3, 5, [2]),
    "3x5-stacked": (20, 3, 2, 3, 5, [20]),
    "8x8-plain-one-item-tiles": (2, 256, 3, 8, 8, [1, 1]),
    "8x8-stacked-ragged-tiles": (40, 16, 3, 8, 8, [25, 15]),
    "16x16-stacked-one-item-tiles": (2, 64, 2, 16, 16, [1, 1]),
}


@pytest.mark.parametrize("case", STAGE_CASES.values(), ids=STAGE_CASES.keys())
def test_upsample_conv_matches_conv_of_the_upsampled_map(case):
    batch, c_in, c_out, h, w, tiles = case
    assert tile_sizes(batch, c_in, 2, h, w) == tiles
    rng = np.random.default_rng(25)
    layer = UpsampleConv2D(c_in, c_out, rng)
    layer.params["gamma"] = rng.uniform(0.5, 2, c_out)
    layer.params["beta"] = rng.standard_normal(c_out)
    x = rng.standard_normal((batch, c_in, h, w))
    dy = rng.standard_normal((batch, c_out, 2 * h, 2 * w))
    x_before, dy_before = x.copy(), dy.copy()
    want_y, want_dx, want_dw, block = upsampled_block(layer, x, dy)
    y = layer.forward(x, train=True)
    dx = layer.backward(dy)
    assert_close(y, want_y)
    assert_close(dx, want_dx)
    assert_close(layer.grads["w"], want_dw)
    for name in ("gamma", "beta"):
        assert_close(layer.grads[name], block.grads[name])
    assert np.array_equal(x, x_before) and np.array_equal(dy, dy_before)
    up = np.repeat(np.repeat(x, 2, axis=2), 2, axis=3)
    assert_close(layer.forward(x, train=False), block.forward(up, train=False))


# The sh4 net's decoder blocks (c_in, c_out, input size) at the batches of
# inference (1, 2) and training (8), with a float32 body.
SH4_STAGES = [(256, 128, 4), (128, 64, 8), (64, 32, 16), (32, 16, 32)]


@pytest.mark.parametrize("batch", [1, 2, 8])
@pytest.mark.parametrize("stage", SH4_STAGES, ids=lambda s: f"{s[0]}to{s[1]}-{s[2]}px")
def test_float32_stage_matches_the_float64_conv_of_the_upsampled_map(stage, batch):
    c_in, c_out, size = stage
    rng = np.random.default_rng(28)
    layer = UpsampleConv2D(c_in, c_out, rng)
    for tensors in (layer.params, layer.buffers):
        tensors.update({name: arr.astype(np.float32) for name, arr in tensors.items()})
    x = rng.standard_normal((batch, c_in, size, size)).astype(np.float32)
    dy = rng.standard_normal((batch, c_out, 2 * size, 2 * size)).astype(np.float32)
    want = upsampled_block(layer, x.astype(np.float64), dy)[:3]
    y = layer.forward(x, train=True)
    dx = layer.backward(dy)
    got = (y, dx, layer.grads["w"])
    assert all(a.dtype == np.float32 for a in got)
    for g, wnt in zip(got, want):
        assert np.abs(g - wnt).max() <= 1e-5 * np.abs(wnt).max()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_stage_input_gradient_is_the_stacked_gemm_col2im_bit_for_bit(dtype):
    # The backward runs k.T @ map one item at a time; one stacked matmul over
    # the items runs the same GEMM per item, so the bytes are the same.
    rng = np.random.default_rng(31)
    n, c, o, h, w = 3, 4, 5, 6, 7
    conv = PhaseCorrelation.of(rng.standard_normal((o, c, 3, 3)).astype(dtype))
    x = rng.standard_normal((n, c, h, w)).astype(dtype)
    dy = rng.standard_normal((n, o, 2 * h, 2 * w)).astype(dtype)
    _, dx = conv.backward(x, dy)
    dmap = np.zeros((n, 2, 2, o, h + 1, w + 1), dtype)
    for a in range(2):
        for b in range(2):
            dmap[:, a, b, :, a : a + h, b : b + w] = dy[:, :, a::2, b::2]
    g = (conv.kernel.T @ dmap.reshape(n, 4 * o, -1)).reshape(n, c, 2, 2, h + 1, w + 1)
    want = g[:, :, 0, 0, 1:, 1:] + g[:, :, 0, 1, 1:, :-1]
    want += g[:, :, 1, 0, :-1, 1:]
    want += g[:, :, 1, 1, :-1, :-1]
    assert dx.dtype == want.dtype and dx.tobytes() == want.tobytes()


def test_no_stage_call_builds_the_upsampled_map(monkeypatch):
    from dmrislice.ae import layers

    def refuse(x):
        raise AssertionError("the upsampled map was built")

    monkeypatch.setattr(layers, "_repeat2x2", refuse)
    rng = np.random.default_rng(26)
    for shape in [(1, 3, 1, 1), (1, 3, 4, 4), (2, 3, 3, 5), (4, 3, 8, 8), (1, 3, 16, 16)]:
        layer = UpsampleConv2D(3, 2, rng)
        x = rng.standard_normal(shape)
        layer.forward(x)
        y = layer.forward(x, train=True)
        layer.backward(np.ones_like(y))
    # The patch is in force: average pooling's backward still repeats.
    with pytest.raises(AssertionError, match="upsampled map"):
        AvgPool2x2().backward(np.ones((1, 1, 2, 2)))


# -- the in-place kernels against the plain formulas, bit for bit -------------


def test_batchnorm_train_pass_matches_the_textbook_formulas_bit_for_bit():
    # Batch norm and ELU behind an identity convolution, whose input
    # gradient then passes the batch norm's on unchanged.
    rng = np.random.default_rng(22)
    # 300 values per channel: a power-of-two count would divide exactly.
    x = rng.standard_normal((5, 3, 6, 10)) * 3 + 1
    dy = rng.standard_normal(x.shape)
    block = identity_tap(Conv2D(3, 3, rng))
    gamma, beta = rng.standard_normal(3), rng.standard_normal(3)
    running_mean, running_var = rng.standard_normal(3), rng.uniform(0.5, 2, 3)
    block.params["gamma"], block.params["beta"] = gamma, beta
    block.buffers["running_mean"], block.buffers["running_var"] = running_mean, running_var

    y = block.forward(x, train=True)
    dx = block.backward(dy)

    mean, var = x.mean(axis=(0, 2, 3)), x.var(axis=(0, 2, 3))
    inv_std = 1.0 / np.sqrt(var + BN_EPS)
    xhat = (x - mean[C]) * inv_std[C]
    z = gamma[C] * xhat + beta[C]
    neg = np.expm1(np.minimum(z, 0.0))
    assert np.array_equal(y, np.where(z > 0, z, neg))
    m = BN_MOMENTUM
    assert np.array_equal(block.buffers["running_mean"], m * running_mean + (1 - m) * mean)
    assert np.array_equal(block.buffers["running_var"], m * running_var + (1 - m) * var)

    dz = dy * np.where(z > 0, 1.0, neg + 1.0)
    n = x.size // 3
    dxhat = dz * gamma[C]
    sum_dxhat = dxhat.sum(axis=(0, 2, 3), keepdims=True)
    sum_dxhat_xhat = (dxhat * xhat).sum(axis=(0, 2, 3), keepdims=True)
    want_dx = (inv_std[C] / n) * (n * dxhat - sum_dxhat - xhat * sum_dxhat_xhat)
    assert np.array_equal(dx, want_dx)
    assert np.array_equal(block.grads["gamma"], (dz * xhat).sum(axis=(0, 2, 3)))
    assert np.array_equal(block.grads["beta"], dz.sum(axis=(0, 2, 3)))


def test_sigmoid_matches_the_masked_two_branch_formula_bit_for_bit():
    # The sigmoid behind a one-channel identity 1x1 convolution with zero
    # bias, so that no channel mixes another's NaN in.
    rng = np.random.default_rng(23)
    x = rng.standard_normal((6, 1, 8, 8)) * 20
    special = [0.0, -0.0, 1e6, -1e6, 745.0, -745.0, 5e-324, -5e-324, np.nan, -np.nan]
    x.flat[: len(special)] = special
    dy = rng.standard_normal(x.shape)
    head = identity_tap(Head(1, 1, rng))
    y = head.forward(x, train=True)
    dx = head.backward(dy)

    want = np.empty_like(x)
    pos = x >= 0
    want[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    want[~pos] = ex / (1.0 + ex)
    # Compared as bit patterns, so NaNs and their signs count too. The input
    # gradient's identity convolution sums each value onto a zero, which
    # turns -0.0 into 0.0 and keeps every other value: so does adding 0.0.
    assert np.array_equal(y.view(np.uint64), want.view(np.uint64))
    want_dx = dy * want * (1.0 - want) + 0.0
    assert np.array_equal(dx.view(np.uint64), want_dx.view(np.uint64))


def every_layer(rng):
    return {
        "Conv2D-3x3": Conv2D(3, 4, rng),
        "Head": Head(3, 2, rng),
        "AvgPool2x2": AvgPool2x2(),
        "UpsampleConv2D": UpsampleConv2D(3, 4, rng),
    }


def subclasses(cls):
    return {sub for direct in cls.__subclasses__() for sub in {direct} | subclasses(direct)}


def test_every_layer_class_is_checked_for_writes():
    checked = {type(layer) for layer in every_layer(np.random.default_rng(0)).values()}
    assert checked == subclasses(Layer)


@pytest.mark.parametrize("name", every_layer(np.random.default_rng(0)))
def test_no_layer_writes_its_input_or_its_incoming_gradient(x, name):
    rng = np.random.default_rng(24)
    layer = every_layer(rng)[name]
    x_before = x.copy()
    y = layer.forward(x, train=True)
    dy = rng.standard_normal(y.shape)
    dy_before = dy.copy()
    layer.backward(dy)
    assert np.array_equal(x, x_before)
    assert np.array_equal(dy, dy_before)
