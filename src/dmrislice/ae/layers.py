"""Neural-network layers with explicit forward and backward passes.

All arrays are NCHW, and every layer computes in the dtype of its arrays,
forward and backward: a model that :func:`~dmrislice.ae.model.build_model`
builds is float64 throughout, while the model ``train`` steps and returns
and a loaded checkpoint have a float32 body and a float64 closing 1x1
convolution, whose output NumPy promotes to float64 (see
:meth:`~dmrislice.ae.model.Autoencoder.astype`). Each layer
owns its parameters and, after a backward call, the matching gradients. Only
a ``train=True`` forward records state: the activations its backward pass
needs and, in batch normalization, the running statistics. A ``train=False``
forward reads the parameters and buffers and writes nothing but the return
value (it drops whatever an earlier training forward cached), so one model
can serve inference on several threads at once, and ``backward`` after it
raises a ``ShapeError``.

Convolutions are im2col GEMMs over tiles of the batch. Each tile's column
block, ``(c*k*k, n*h*w)`` with rows ordered like ``w.reshape(o, -1)``, holds
about ``_TILE_BYTES`` so that it stays in cache while one GEMM consumes it; a
single item whose columns exceed the budget forms a tile of its own. The
zero padding lives in the column blocks: each tap copies only its in-bounds
window of the unpadded input, and no padded copy of the input is made. A
one-item tile's GEMM writes straight into its item of the output. A
convolution layer caches only its unpadded input, which it never writes: the
weight gradient rebuilds each tile's column block from it and sums
``dy_tile @ cols_tile.T`` over the tiles, and the input gradient is the
forward kernel applied to ``dy`` with the flipped, channel-transposed weights.

No layer writes its input or its incoming gradient; the in-place arithmetic
of batch normalization, ELU and sigmoid runs on arrays the layer allocated,
in the operation order of the plain formulas, so the results are the same to
the bit.
"""

from __future__ import annotations

import numpy as np

from ..errors import ShapeError

_TILE_BYTES = 1 << 20

# Batch normalization: weight of the old running statistics in each update,
# and the variance offset.
BN_MOMENTUM, BN_EPS = 0.99, 1e-3


def _window(t, pad, size):
    """Output positions at which tap ``t`` of a same-size kernel reads inside
    the input, and the input positions it reads there."""
    lo, hi = max(0, pad - t), min(size, size + pad - t)
    return slice(lo, hi), slice(lo + t - pad, hi + t - pad)


def _column_tiles(x, k):
    """Yields ``(batch slice, column block)`` over the unpadded input ``x``.

    The block of a tile of n items is ``(c*k*k, n*h*w)``: row ``(c, i, j)``
    holds ``xp[:, c, i:i+h, j:j+w]`` of every item, where ``xp`` is ``x``
    zero-padded by ``k // 2``. Each tap writes only the window that falls
    inside ``x``; the rest of the block stays zero. All tiles share one
    buffer, so a block is only valid until the next one is yielded.
    """
    b, c, h, w = x.shape
    pad = k // 2
    per_item = c * k * k * h * w
    n_max = min(b, max(1, _TILE_BYTES // (per_item * x.itemsize)))
    buf = (np.zeros if pad else np.empty)(n_max * per_item, dtype=x.dtype)
    taps = [
        (i, j, _window(i, pad, h), _window(j, pad, w)) for i in range(k) for j in range(k)
    ]
    for start in range(0, b, n_max):
        n = min(n_max, b - start)
        cols = buf[: n * per_item].reshape(c, k, k, n, h, w)
        if pad and n < n_max:  # a shorter last tile moves the zero borders
            cols.fill(0)
        tile = x[start : start + n].transpose(1, 0, 2, 3)
        for i, j, (out_r, in_r), (out_c, in_c) in taps:
            cols[:, i, j, :, out_r, out_c] = tile[:, :, in_r, in_c]
        yield slice(start, start + n), cols.reshape(c * k * k, n * h * w)


def _conv_correlate(x, w, bias):
    """'Same'-size 2-D correlation: y[b,o] = sum_c x[b,c] * w[o,c] + bias[o],
    with ``x`` zero-padded by ``k // 2``."""
    o, k = w.shape[0], w.shape[2]
    b, c, h, wd = x.shape
    w2 = w.reshape(o, -1)
    y = np.empty((b, o, h, wd), dtype=np.result_type(x, w))
    for items, cols in _column_tiles(x, k):
        if items.stop - items.start == 1:
            np.matmul(w2, cols, out=y[items.start].reshape(o, -1))
        else:
            y[items] = (w2 @ cols).reshape(o, -1, h, wd).transpose(1, 0, 2, 3)
    if bias is not None:
        y += bias[:, None, None]
    return y


def _conv_weight_grad(x, dy, k):
    """Gradient of the correlation w.r.t. its ``(o, c, k, k)`` weights, from
    the unpadded input and the output gradient."""
    o = dy.shape[1]
    dw = np.zeros((o, x.shape[1] * k * k), dtype=np.result_type(x, dy))
    for items, cols in _column_tiles(x, k):
        dw += dy[items].transpose(1, 0, 2, 3).reshape(o, -1) @ cols.T
    return dw.reshape(o, -1, k, k)


class Layer:
    """Base: parameter-free identity-ish layer interface."""

    def __init__(self):
        self.params: dict[str, np.ndarray] = {}
        self.grads: dict[str, np.ndarray] = {}
        self.buffers: dict[str, np.ndarray] = {}

    @staticmethod
    def tensor_shapes(*args) -> tuple[dict, dict]:
        """Parameter and buffer shapes, by name in creation order, of the
        layer these constructor arguments build."""
        return {}, {}

    def forward(self, x, train=False):
        raise NotImplementedError

    def backward(self, dy):
        raise NotImplementedError

    def _trained(self, cache):
        """The cache of the last forward, which must have run in train mode."""
        if cache is None:
            raise ShapeError(f"{type(self).__name__}.backward needs a train=True forward")
        return cache


class Conv2D(Layer):
    """3x3 (zero-padded, size-preserving) or 1x1 convolution.

    Bias is optional; convolutions feeding straight into batch normalization
    are built without one because the normalization would cancel it.
    """

    @staticmethod
    def tensor_shapes(c_in, c_out, ksize, rng=None, bias=False):
        params = {"w": (c_out, c_in, ksize, ksize)}
        if bias:
            params["b"] = (c_out,)
        return params, {}

    def __init__(self, c_in, c_out, ksize, rng, bias=False):
        super().__init__()
        self.c_in, self.c_out, self.ksize = c_in, c_out, ksize
        shapes, _ = self.tensor_shapes(c_in, c_out, ksize, bias=bias)
        fan_in = c_in * ksize * ksize
        limit = np.sqrt(6.0 / fan_in)  # He-uniform
        self.params["w"] = rng.uniform(-limit, limit, size=shapes["w"])
        if bias:
            self.params["b"] = np.zeros(shapes["b"])
        self._x = None

    def forward(self, x, train=False):
        if x.shape[1] != self.c_in:
            raise ShapeError(f"conv expects {self.c_in} channels, got {x.shape[1]}")
        y = _conv_correlate(x, self.params["w"], self.params.get("b"))
        self._x = x if train else None
        return y

    def backward(self, dy, need_dx=True):
        """Parameter gradients, and the input gradient unless ``need_dx`` is
        false (then ``None``: the model's first layer has no use for it)."""
        w = self.params["w"]
        self.grads["w"] = _conv_weight_grad(self._trained(self._x), dy, self.ksize)
        if "b" in self.params:
            self.grads["b"] = dy.sum(axis=(0, 2, 3))
        if not need_dx:
            return None
        # Gradient w.r.t. input: correlate dy with the spatially flipped,
        # channel-transposed kernel.
        w_flip = w[:, :, ::-1, ::-1].transpose(1, 0, 2, 3)
        return _conv_correlate(dy, w_flip, None)


class BatchNorm2D(Layer):
    """Per-channel batch normalization with running statistics.

    Training normalizes with the batch statistics and updates the running
    ones; inference is one per-channel affine map built from the running
    statistics.
    """

    @staticmethod
    def tensor_shapes(channels):
        one = (channels,)
        return {"gamma": one, "beta": one}, {"running_mean": one, "running_var": one}

    def __init__(self, channels):
        super().__init__()
        self.channels = channels
        params, buffers = self.tensor_shapes(channels)
        self.params["gamma"] = np.ones(params["gamma"])
        self.params["beta"] = np.zeros(params["beta"])
        self.buffers["running_mean"] = np.zeros(buffers["running_mean"])
        self.buffers["running_var"] = np.ones(buffers["running_var"])
        self._cache = None

    def forward(self, x, train=False):
        if x.shape[1] != self.channels:
            raise ShapeError(f"batchnorm expects {self.channels} channels, got {x.shape[1]}")
        gamma, beta = self.params["gamma"], self.params["beta"]
        if not train:
            self._cache = None
            scale = gamma / np.sqrt(self.buffers["running_var"] + BN_EPS)
            shift = beta - self.buffers["running_mean"] * scale
            y = x * scale[:, None, None]
            y += shift[:, None, None]
            return y
        mean = x.mean(axis=(0, 2, 3))
        # np.var's own steps: the squared deviations summed, over the count.
        xhat = x - mean[:, None, None]
        y = np.square(xhat)
        var = y.sum(axis=(0, 2, 3)) / (y.size // self.channels)
        m = BN_MOMENTUM
        self.buffers["running_mean"] = m * self.buffers["running_mean"] + (1 - m) * mean
        self.buffers["running_var"] = m * self.buffers["running_var"] + (1 - m) * var
        inv_std = 1.0 / np.sqrt(var + BN_EPS)
        xhat *= inv_std[:, None, None]
        self._cache = (xhat, inv_std)
        np.multiply(xhat, gamma[:, None, None], out=y)
        y += beta[:, None, None]
        return y

    def backward(self, dy):
        # (inv_std / n) * (n * dxhat - sum(dxhat) - xhat * sum(dxhat * xhat)),
        # evaluated in two scratch arrays.
        xhat, inv_std = self._trained(self._cache)
        prod = dy * xhat
        self.grads["gamma"] = prod.sum(axis=(0, 2, 3))
        self.grads["beta"] = dy.sum(axis=(0, 2, 3))
        dx = dy * self.params["gamma"][:, None, None]  # dxhat, until overwritten
        n = dy.shape[0] * dy.shape[2] * dy.shape[3]
        sum_dxhat = dx.sum(axis=(0, 2, 3), keepdims=True)
        np.multiply(dx, xhat, out=prod)
        sum_dxhat_xhat = prod.sum(axis=(0, 2, 3), keepdims=True)
        dx *= n
        dx -= sum_dxhat
        np.multiply(xhat, sum_dxhat_xhat, out=prod)
        dx -= prod
        dx *= inv_std[:, None, None] / n
        return dx


class ELU(Layer):
    """ELU with alpha 1."""

    def __init__(self):
        super().__init__()
        self._y = None

    def forward(self, x, train=False):
        # max(x, 0) + expm1(min(x, 0)): one branch is always exactly 0.
        neg = np.minimum(x, 0.0)
        np.expm1(neg, out=neg)
        y = np.maximum(x, 0.0)
        y += neg
        self._y = y if train else None
        return y

    def backward(self, dy):
        # y > 0 exactly where x > 0, and there y' = 1; elsewhere y' = y + 1,
        # which is at most 1: so y' = min(y + 1, 1), NaN included.
        dx = self._trained(self._y) + 1.0
        np.minimum(dx, 1.0, out=dx)
        dx *= dy
        return dx


def _block_sum2x2(x):
    """Sum of each 2x2 block of the last two axes, in pairs along w and then
    the two rows: the order NumPy's mean over both window axes uses."""
    y = x[:, :, ::2, ::2] + x[:, :, ::2, 1::2]
    y += x[:, :, 1::2, ::2] + x[:, :, 1::2, 1::2]
    return y


def _repeat2x2(x):
    """Each value of the last two axes repeated into a 2x2 block."""
    return np.repeat(np.repeat(x, 2, axis=2), 2, axis=3)


class AvgPool2x2(Layer):
    def forward(self, x, train=False):
        h, w = x.shape[2:]
        if h % 2 or w % 2:
            raise ShapeError(f"average pooling needs even spatial dims, got {h}x{w}")
        y = _block_sum2x2(x)
        y *= 0.25
        return y

    def backward(self, dy):
        return _repeat2x2(dy * 0.25)


class NearestUpsample2x2(Layer):
    def forward(self, x, train=False):
        return _repeat2x2(x)

    def backward(self, dy):
        return _block_sum2x2(dy)


class Sigmoid(Layer):
    def __init__(self):
        super().__init__()
        self._y = None

    def forward(self, x, train=False):
        # Stable two-branch logistic: with e = exp(-|x|), 1 / (1 + e) where
        # x >= 0 and e / (1 + e) elsewhere. -|x| is min(x, -x), which passes
        # a NaN on with its sign, as exp(x) did in the negative branch.
        e = np.negative(x)
        np.minimum(x, e, out=e)
        np.exp(e, out=e)
        y = np.where(x >= 0, 1.0, e)
        e += 1.0
        y /= e
        self._y = y if train else None
        return y

    def backward(self, dy):
        y = self._trained(self._y)
        return dy * y * (1.0 - y)
