import numpy as np
import pytest

from dmrislice.ae.layers import (
    BN_EPS,
    BN_MOMENTUM,
    ELU,
    AvgPool2x2,
    BatchNorm2D,
    Conv2D,
    Layer,
    NearestUpsample2x2,
    Sigmoid,
    _column_tiles,
)
from dmrislice.errors import ShapeError
from gradcheck import check_layer_gradients


C = (slice(None), None, None)  # a per-channel vector against an NCHW array


@pytest.fixture
def x():
    return np.random.default_rng(0).standard_normal((2, 3, 8, 8))


def test_conv3x3_gradients(x):
    rng = np.random.default_rng(1)
    check_layer_gradients(Conv2D(3, 4, 3, rng, bias=True), x, input_stride=7)


def test_conv1x1_gradients(x):
    rng = np.random.default_rng(2)
    check_layer_gradients(Conv2D(3, 4, 1, rng, bias=True), x, input_stride=7)


def test_batchnorm_train_gradients(x):
    check_layer_gradients(BatchNorm2D(3), x, train=True, input_stride=5)


def test_batchnorm_eval_affine_matches_formula(x):
    rng = np.random.default_rng(4)
    bn = BatchNorm2D(3)
    bn.params["gamma"] = rng.standard_normal(3)
    bn.params["beta"] = rng.standard_normal(3)
    mean = rng.standard_normal(3) * 0.2
    var = np.abs(rng.standard_normal(3)) + 0.5
    bn.buffers["running_mean"], bn.buffers["running_var"] = mean, var
    want = bn.params["gamma"][C] * (x - mean[C]) / np.sqrt(var[C] + BN_EPS) + bn.params["beta"][C]
    np.testing.assert_allclose(bn.forward(x, train=False), want, rtol=1e-12, atol=0)


def caching_layers():
    rng = np.random.default_rng(8)
    return {
        "Conv2D": Conv2D(3, 4, 3, rng),
        "BatchNorm2D": BatchNorm2D(3),
        "ELU": ELU(),
        "Sigmoid": Sigmoid(),
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


def test_elu_gradients(x):
    check_layer_gradients(ELU(), x, input_stride=5)


def test_avgpool_gradients(x):
    check_layer_gradients(AvgPool2x2(), x, input_stride=5)


def test_upsample_gradients(x):
    check_layer_gradients(NearestUpsample2x2(), x, input_stride=5)


def test_sigmoid_gradients(x):
    check_layer_gradients(Sigmoid(), x, input_stride=5)


def test_conv_output_matches_direct_convolution():
    rng = np.random.default_rng(5)
    conv = Conv2D(2, 3, 3, rng, bias=True)
    x = rng.standard_normal((1, 2, 5, 5))
    y = conv.forward(x)
    xp = np.pad(x, ((0, 0), (0, 0), (1, 1), (1, 1)))
    w, b = conv.params["w"], conv.params["b"]
    for o in range(3):
        for i in range(5):
            for j in range(5):
                acc = b[o]
                for c in range(2):
                    acc += np.sum(xp[0, c, i : i + 3, j : j + 3] * w[o, c])
                assert y[0, o, i, j] == pytest.approx(acc, rel=1e-12)


def test_avgpool_backward_distributes_equally():
    layer = AvgPool2x2()
    x = np.arange(16, dtype=float).reshape(1, 1, 4, 4)
    layer.forward(x)
    dy = np.ones((1, 1, 2, 2))
    dx = layer.backward(dy)
    assert np.all(dx == 0.25)


def test_batchnorm_eval_deterministic():
    rng = np.random.default_rng(7)
    bn = BatchNorm2D(3)
    x = rng.standard_normal((2, 3, 4, 4))
    bn.forward(x, train=True)  # populate running stats
    a = bn.forward(x, train=False)
    b = bn.forward(x, train=False)
    assert np.array_equal(a, b)


def test_sigmoid_output_bounded():
    layer = Sigmoid()
    x = np.array([[-1e6, -5.0, 0.0, 5.0, 1e6]]).reshape(1, 1, 1, 5)
    y = layer.forward(x)
    assert np.all(y >= 0.0) and np.all(y <= 1.0)
    assert np.all(np.isfinite(y))


def test_elu_values():
    layer = ELU()
    x = np.array([-2.0, -0.5, 0.0, 0.5, 2.0]).reshape(1, 1, 1, 5)
    y = layer.forward(x)
    expected = np.where(x > 0, x, np.expm1(x))
    assert np.allclose(y, expected, atol=1e-15)


def test_elu_matches_the_where_formula_bit_for_bit():
    rng = np.random.default_rng(9)
    x = rng.standard_normal((4, 3, 8, 8)) * 3
    x[0, 0, 0, :4] = [0.0, 1e-300, -1e-300, 5e-324]
    dy = rng.standard_normal(x.shape)
    layer = ELU()
    y = layer.forward(x, train=True)
    dx = layer.backward(dy)
    neg = np.expm1(np.minimum(x, 0.0))
    assert np.array_equal(y, np.where(x > 0, x, neg))
    assert np.array_equal(dx, dy * np.where(x > 0, 1.0, neg + 1.0))


def test_avgpool_within_one_ulp_of_the_mean():
    x = np.random.default_rng(10).standard_normal((5, 3, 16, 12)) * 100
    b, c, h, w = x.shape
    want = x.reshape(b, c, h // 2, 2, w // 2, 2).mean(axis=(3, 5))
    got = AvgPool2x2().forward(x)
    assert np.all(np.abs(got - want) <= np.spacing(np.abs(want)))


# -- the tiled im2col kernel against the whole-batch einsum formula ----------


def einsum_correlate(x, w, bias, pad):
    """The earlier kernel: one einsum over a sliding-window view of the whole
    padded batch. Returns the output and the window view."""
    k = w.shape[2]
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    cols = np.lib.stride_tricks.sliding_window_view(xp, (k, k), axis=(2, 3))
    y = np.einsum("bchwij,ocij->bohw", cols, w, optimize=True)
    if bias is not None:
        y += bias[:, None, None]
    return y, cols


def einsum_conv(w, bias, x, dy):
    """Forward output, input gradient and weight gradient of a same-size conv."""
    pad = w.shape[2] // 2
    y, cols = einsum_correlate(x, w, bias, pad)
    dw = np.einsum("bchwij,bohw->ocij", cols, dy, optimize=True)
    dx, _ = einsum_correlate(dy, w[:, :, ::-1, ::-1].transpose(1, 0, 2, 3), None, pad)
    return y, dx, dw


def tile_sizes(batch, c, k, h, w):
    x = np.zeros((batch, c, h, w))
    return [items.stop - items.start for items, _ in _column_tiles(x, k)]


def assert_close(got, want):
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * np.abs(want).max())


# (batch, c_in, c_out, ksize, size, items per tile); one 4x64x64 item's
# 3x3 columns take 1.2 MB, over the tile budget.
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
    conv = Conv2D(c_in, c_out, k, rng, bias=True)
    conv.params["b"] = rng.standard_normal(c_out)
    x = rng.standard_normal((batch, c_in, size, size))
    dy = rng.standard_normal((batch, c_out, size, size))
    y = conv.forward(x, train=True)
    dx = conv.backward(dy)
    want_y, want_dx, want_dw = einsum_conv(conv.params["w"], conv.params["b"], x, dy)
    assert_close(y, want_y)
    assert_close(dx, want_dx)
    assert_close(conv.grads["w"], want_dw)


@pytest.mark.parametrize("case", KERNEL_CASES.values(), ids=KERNEL_CASES.keys())
def test_column_tiles_are_the_blocks_of_the_padded_input(case):
    batch, c_in, _, k, size, tiles = case
    pad = k // 2
    x = np.random.default_rng(21).standard_normal((batch, c_in, size, size))
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    sizes = []
    for items, cols in _column_tiles(x, k):
        # (n, c, h, w, k, k) windows -> rows (c, i, j), columns (n, h, w).
        win = np.lib.stride_tricks.sliding_window_view(xp[items], (k, k), axis=(2, 3))
        want = win.transpose(1, 4, 5, 0, 2, 3).reshape(c_in * k * k, -1)
        assert np.array_equal(cols, want)
        sizes.append(items.stop - items.start)
    assert sizes == tiles


# -- the in-place kernels against the plain formulas, bit for bit -------------


def test_batchnorm_train_pass_matches_the_textbook_formulas_bit_for_bit():
    rng = np.random.default_rng(22)
    # 300 values per channel: a power-of-two count would divide exactly.
    x = rng.standard_normal((5, 3, 6, 10)) * 3 + 1
    dy = rng.standard_normal(x.shape)
    bn = BatchNorm2D(3)
    gamma, beta = rng.standard_normal(3), rng.standard_normal(3)
    running_mean, running_var = rng.standard_normal(3), rng.uniform(0.5, 2, 3)
    bn.params["gamma"], bn.params["beta"] = gamma, beta
    bn.buffers["running_mean"], bn.buffers["running_var"] = running_mean, running_var

    y = bn.forward(x, train=True)
    dx = bn.backward(dy)

    mean, var = x.mean(axis=(0, 2, 3)), x.var(axis=(0, 2, 3))
    inv_std = 1.0 / np.sqrt(var + BN_EPS)
    xhat = (x - mean[C]) * inv_std[C]
    assert np.array_equal(y, gamma[C] * xhat + beta[C])
    m = BN_MOMENTUM
    assert np.array_equal(bn.buffers["running_mean"], m * running_mean + (1 - m) * mean)
    assert np.array_equal(bn.buffers["running_var"], m * running_var + (1 - m) * var)

    n = x.size // 3
    dxhat = dy * gamma[C]
    sum_dxhat = dxhat.sum(axis=(0, 2, 3), keepdims=True)
    sum_dxhat_xhat = (dxhat * xhat).sum(axis=(0, 2, 3), keepdims=True)
    want_dx = (inv_std[C] / n) * (n * dxhat - sum_dxhat - xhat * sum_dxhat_xhat)
    assert np.array_equal(dx, want_dx)
    assert np.array_equal(bn.grads["gamma"], (dy * xhat).sum(axis=(0, 2, 3)))
    assert np.array_equal(bn.grads["beta"], dy.sum(axis=(0, 2, 3)))


def test_sigmoid_matches_the_masked_two_branch_formula_bit_for_bit():
    rng = np.random.default_rng(23)
    x = rng.standard_normal((2, 3, 8, 8)) * 20
    special = [0.0, -0.0, 1e6, -1e6, 745.0, -745.0, 5e-324, -5e-324, np.nan, -np.nan]
    x.flat[: len(special)] = special
    dy = rng.standard_normal(x.shape)
    layer = Sigmoid()
    y = layer.forward(x, train=True)
    dx = layer.backward(dy)

    want = np.empty_like(x)
    pos = x >= 0
    want[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    want[~pos] = ex / (1.0 + ex)
    # Compared as bit patterns, so NaNs and their signs count too.
    assert np.array_equal(y.view(np.uint64), want.view(np.uint64))
    assert np.array_equal(dx.view(np.uint64), (dy * want * (1.0 - want)).view(np.uint64))


def every_layer(rng):
    return {
        "Conv2D-3x3": Conv2D(3, 4, 3, rng),
        "Conv2D-1x1-bias": Conv2D(3, 2, 1, rng, bias=True),
        "BatchNorm2D": BatchNorm2D(3),
        "ELU": ELU(),
        "AvgPool2x2": AvgPool2x2(),
        "NearestUpsample2x2": NearestUpsample2x2(),
        "Sigmoid": Sigmoid(),
    }


def test_every_layer_class_is_checked_for_writes():
    checked = {type(layer) for layer in every_layer(np.random.default_rng(0)).values()}
    assert checked == set(Layer.__subclasses__())


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
