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

A decoder stage, nearest 2x upsampling then a 3x3 convolution, is one layer,
:class:`UpsampleConv2D`, that works at its input's resolution: each output
phase ``y[:, :, a::2, b::2]`` is a 3x3 convolution of the input whose taps
are sums of the stage's taps, so the four phases are one convolution with a
stacked kernel, derived on every call, and the 4x-size upsampled map is not
built. Small inputs, where deriving that kernel costs more than it saves,
take the plain upsample-then-convolve path.

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


def _he_uniform(rng, shape):
    """He-uniform weights of an ``(o, c, k, k)`` kernel."""
    limit = np.sqrt(6.0 / (shape[1] * shape[2] * shape[3]))
    return rng.uniform(-limit, limit, size=shape)


def _flip(w):
    """The kernel whose correlation with ``dy`` is the input gradient of the
    correlation with ``w``: spatially flipped, channels transposed."""
    return w[:, :, ::-1, ::-1].transpose(1, 0, 2, 3)


class Layer:
    """Base: parameter-free identity-ish layer interface."""

    # Checkpoint layer indices the layer spans (see UpsampleConv2D).
    slots = 1

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
        self.params["w"] = _he_uniform(rng, shapes["w"])
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
        return _conv_correlate(dy, _flip(w), None)


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


# The phase kernels of a 3x3 convolution on a map upsampled 2x by
# repetition. Along each axis, output 2i reads input (i-1, i, i) and output
# 2i+1 reads (i, i, i+1), and the zero border maps onto the zero border, so
# phase a's 3-tap kernel on the input sums old taps: (0 | 1+2 | -) for a = 0
# and (- | 0+1 | 2) for a = 1. _FOLDS lists the (phase, new tap, old taps)
# that are not zero; _UNFOLDS, per old tap, the two (phase, new tap) that
# read it.
_FOLDS = ((0, 0, (0,)), (0, 1, (1, 2)), (1, 1, (0, 1)), (1, 2, (2,)))
_UNFOLDS = (((0, 0), (1, 1)), ((0, 1), (1, 1)), ((0, 1), (1, 2)))


def _tap_sum(taps, which, out=None):
    """Sum of ``taps[k]`` over the one or two ``k`` in ``which``."""
    if len(which) == 1:
        if out is None:
            return taps[which[0]]
        out[...] = taps[which[0]]
        return out
    return np.add(taps[which[0]], taps[which[1]], out=out)


def _stage_kernel(w, transpose=False):
    """The ``(4*o, c, 3, 3)`` kernel whose output channel ``(2*a + b)*o + p``
    on the low-resolution map is phase ``(a, b)`` of output channel ``p`` of
    the 3x3 convolution ``w`` on the upsampled map; with ``transpose``, that
    kernel as :func:`_flip` turns it, ``(c, 4*o, 3, 3)``, for the input
    gradient. The taps are summed on a ``(3, 3, ...)`` copy of ``w``, and
    each phase tap is written over all channels in one call."""
    o, c = w.shape[:2]
    if transpose:
        taps = np.ascontiguousarray(w.transpose(2, 3, 1, 0))  # (i, j, c, o)
        k = np.zeros((c, 2, 2, o, 3, 3), dtype=w.dtype)
        phases = k.transpose(1, 2, 4, 5, 0, 3)[:, :, ::-1, ::-1]  # (a, b, i, j, c, o)
    else:
        taps = np.ascontiguousarray(w.transpose(2, 3, 0, 1))  # (i, j, o, c)
        k = np.zeros((2, 2, o, c, 3, 3), dtype=w.dtype)
        phases = k.transpose(0, 1, 4, 5, 2, 3)  # (a, b, i, j, o, c)
    for a, i, rows in _FOLDS:
        row = _tap_sum(taps, rows)
        for b, j, cols in _FOLDS:
            _tap_sum(row, cols, out=phases[a, b, i, j])
    return k.reshape(-1, 4 * o if transpose else c, 3, 3)


def _stage_weight_grad(dk):
    """Gradient of the 3x3 weights from that of :func:`_stage_kernel`'s."""
    o, c = dk.shape[0] // 4, dk.shape[1]
    d = dk.reshape(2, 2, o, c, 3, 3)
    rows = np.empty((2, 3, 3, o, c), dtype=dk.dtype)  # (a, i, old j, o, c)
    for a, i, _ in _FOLDS:
        for jj, ((b1, j1), (b2, j2)) in enumerate(_UNFOLDS):
            np.add(d[a, b1, :, :, i, j1], d[a, b2, :, :, i, j2], out=rows[a, i, jj])
    dw = np.empty((o, c, 3, 3), dtype=dk.dtype)
    for ii, ((a1, i1), (a2, i2)) in enumerate(_UNFOLDS):
        for jj in range(3):
            np.add(rows[a1, i1, jj], rows[a2, i2, jj], out=dw[:, :, ii, jj])
    return dw


def _stage_correlate(x, k):
    """conv(upsample(x)) from the stacked kernel ``k`` of
    :func:`_stage_kernel`: each tile's GEMM gives the tile's four phase maps,
    which are written straight into their phase of the output."""
    n, _, h, w = x.shape
    o = k.shape[0] // 4
    k2 = k.reshape(4 * o, -1)
    y = np.empty((n, o, 2 * h, 2 * w), dtype=np.result_type(x, k))
    for items, cols in _column_tiles(x, 3):
        phases = (k2 @ cols).reshape(2, 2, o, -1, h, w)
        for a in range(2):
            for b in range(2):
                y[items, :, a::2, b::2] = phases[a, b].transpose(1, 0, 2, 3)
    return y


def _phase_maps(y):
    """``(n, o, 2h, 2w)`` -> the ``(n, 4*o, h, w)`` maps of its phases, in the
    channel order of :func:`_stage_kernel`."""
    n, o, h2, w2 = y.shape
    h, w = h2 // 2, w2 // 2
    return y.reshape(n, o, h, 2, w, 2).transpose(0, 3, 5, 1, 2, 4).reshape(n, 4 * o, h, w)


# Inputs of fewer pixels (n*h*w) than this run conv(upsample(x)) as written:
# deriving the stacked kernel costs 36*o*c operations per call, more than the
# smaller column blocks save on the deep stages of batch-1 decodes.
_STAGE_MIN_PIXELS = 256


class UpsampleConv2D(Layer):
    """Nearest-neighbor 2x upsampling followed by a bias-free, size-preserving
    3x3 convolution, computed at the input's resolution.

    Each of the four output phases ``y[:, :, a::2, b::2]`` is a 3x3
    correlation of the input whose taps are sums of the convolution's taps,
    so one convolution with the stacked ``(4*o, c, 3, 3)`` kernel of
    :func:`_stage_kernel`, pixel-shuffled, is the stage's output; the
    backward pass folds that kernel's gradient back onto the nine taps. The
    upsampled map is never built, except on inputs under
    ``_STAGE_MIN_PIXELS`` pixels, which take the plain path. The weights are
    those of the convolution, under its name in the checkpoint.
    """

    # Checkpoint layer indices the stage spans: those of the upsampling and
    # of the convolution it replaced; its weights carry the second.
    slots = 2

    @staticmethod
    def tensor_shapes(c_in, c_out, rng=None):
        return Conv2D.tensor_shapes(c_in, c_out, 3)

    def __init__(self, c_in, c_out, rng):
        super().__init__()
        self.c_in = c_in
        self.params["w"] = _he_uniform(rng, self.tensor_shapes(c_in, c_out)[0]["w"])
        self._x = None

    @staticmethod
    def _stacked(x):
        n, _, h, w = x.shape
        return n * h * w >= _STAGE_MIN_PIXELS

    def forward(self, x, train=False):
        if x.shape[1] != self.c_in:
            raise ShapeError(f"conv expects {self.c_in} channels, got {x.shape[1]}")
        w = self.params["w"]
        if self._stacked(x):
            y = _stage_correlate(x, _stage_kernel(w))
        else:
            y = _conv_correlate(_repeat2x2(x), w, None)
        self._x = x if train else None
        return y

    def backward(self, dy):
        x = self._trained(self._x)
        w = self.params["w"]
        if not self._stacked(x):
            self.grads["w"] = _conv_weight_grad(_repeat2x2(x), dy, 3)
            return _block_sum2x2(_conv_correlate(dy, _flip(w), None))
        dy = _phase_maps(dy)
        self.grads["w"] = _stage_weight_grad(_conv_weight_grad(x, dy, 3))
        return _conv_correlate(dy, _stage_kernel(w, transpose=True), None)


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
