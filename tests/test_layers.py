import numpy as np
import pytest

from dmrislice.ae.layers import (
    BN_EPS,
    ELU,
    AvgPool2x2,
    BatchNorm2D,
    Conv2D,
    NearestUpsample2x2,
    Sigmoid,
    _column_tiles,
)
from dmrislice.errors import ShapeError
from gradcheck import check_layer_gradients


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
    c = (slice(None), None, None)
    want = bn.params["gamma"][c] * (x - mean[c]) / np.sqrt(var[c] + BN_EPS) + bn.params["beta"][c]
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
    xp = np.zeros((batch, c, h + k - 1, w + k - 1))
    return [items.stop - items.start for items, _ in _column_tiles(xp, k)]


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
