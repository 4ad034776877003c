"""Neural-network layers with explicit forward and backward passes.

Each layer is one block of the network. :class:`Conv2D` is a bias-free 3x3
convolution, then batch normalization, then ELU; :class:`UpsampleConv2D` is
the same block on the nearest 2x upsampling of its input, and differs only
in its convolution; :class:`Head` closes the network with a 1x1 convolution
with bias and the sigmoid. :class:`AvgPool2x2` pools between encoder blocks.

All arrays are NCHW, and every layer computes in the dtype of its arrays,
forward and backward: a newly built :class:`~dmrislice.ae.model.Autoencoder`
is float64 throughout, while the model ``train`` steps and returns
and a loaded checkpoint have a float32 body and a float64 :class:`Head`,
whose output NumPy promotes to float64 (see
:meth:`~dmrislice.ae.model.Autoencoder.astype`). Each layer
owns its parameters and, after a backward call, the matching gradients. Only
a ``train=True`` forward records state: the activations its backward pass
needs and, in batch normalization, the running statistics. A ``train=False``
forward reads the parameters and buffers and writes nothing but the return
value (it drops whatever an earlier training forward cached), so one model
can serve inference on several threads at once, and ``backward`` after it
raises a ``ShapeError``.

Convolutions are im2col GEMMs over tiles of the batch. Each tile's column
block is item-major, ``(n, c*k*k, oh*ow)``: per item, rows ordered like
``w.reshape(o, -1)`` over the ``oh x ow`` output positions. A tile holds
about ``_TILE_BYTES`` so that it stays in cache while its GEMMs consume it; a
single item whose columns exceed the budget forms a tile of its own. The
zero padding lives in the column blocks: each tap copies only its in-bounds
window of the unpadded input, and no padded copy of the input is made. The
forward pass is one stacked ``matmul`` per tile, which writes straight into
the tile's items of the output: one GEMM of one shape per item, whatever the
batch. So an item's output depends neither on its batch-mates nor, with
OpenBLAS, on the BLAS thread count; ``tests/test_model.py`` pins both. A
block caches its unpadded input, which it never writes: the weight gradient
rebuilds each tile's column block from it and contracts it with the tile's
``dy`` over the items and positions, and the input gradient is the forward
kernel applied to ``dy`` with the flipped, channel-transposed weights.

A decoder block's convolution works at its input's resolution: output phase
``y[:, :, a::2, b::2]`` at ``(i, j)`` reads only the 2x2 window at
``(i + a, j + b)`` of the input zero-padded by 1, through taps that are sums
of the block's 3x3 taps (resize-convolution as a stride-2 transposed
convolution: Odena et al., Distill 2016; Shi et al. 2016, arXiv:1609.05158).
So the four phases are one GEMM per item of a ``(4*o, 4*c)`` kernel with the
2x2 columns of the input over its ``(h+1) x (w+1)`` windows:
``4(h+1)(w+1) / 9hw`` of the multiply-adds of nine-tap phases, and the
4x-size upsampled map is never built. Every input size takes this path.

Each convolution kind is one class that owns its forward and its backward:
:class:`Correlation` and, for a decoder stage, :class:`PhaseCorrelation`.
Inference runs through a plan: each layer's ``plan`` is plain data holding
what the layer's weights and buffers fix, derived once: a block's
``(conv, scale, shift)``, its convolution (a decoder stage's holds the phase
kernel) and the batch-norm scale and shift, and the head's ``(conv, bias)``;
pooling fixes nothing, and its plan is ``None``. A layer's
``forward(train=False)`` applies the plan it is given, or one built for the
call; :class:`~dmrislice.ae.model.Autoencoder` keeps one plan per net, hands
each layer its own, and drops it whenever it changes the weights. A
training forward derives its convolution the same way and keeps it for the
backward pass, which calls that convolution's ``backward``.

No layer writes its input or its incoming gradient. Batch normalization and
ELU run in place on the convolution's output, and the sigmoid on arrays the
head allocated, in the operation order of the plain formulas, so the results
are the same to the bit.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from ..errors import ShapeError

_TILE_BYTES = 1 << 20

# Batch normalization: weight of the old running statistics in each update,
# and the variance offset.
BN_MOMENTUM, BN_EPS = 0.99, 1e-3


def _window(t, pad, size, out):
    """Output positions, of ``out``, at which tap ``t`` reads inside an input
    of ``size`` zero-padded by ``pad``, and the input positions it reads
    there."""
    lo, hi = max(0, pad - t), min(out, size + pad - t)
    return slice(lo, hi), slice(lo + t - pad, hi + t - pad)


@functools.cache
def _taps(k, h, w):
    """Each tap ``(i, j)`` of a ``k x k`` correlation over an ``h x w`` input
    zero-padded by ``k // 2``, with its :func:`_window` along each axis.
    Cached: every training forward and backward pass asks for them."""
    pad = k // 2
    oh, ow = h + 2 * pad - k + 1, w + 2 * pad - k + 1
    return tuple(
        (i, j, _window(i, pad, h, oh), _window(j, pad, w, ow))
        for i in range(k)
        for j in range(k)
    )


def _column_tiles(x, k):
    """Yields ``(batch slice, column block)`` over the unpadded input ``x``
    for the correlation of ``k x k`` taps with ``xp``, ``x`` zero-padded by
    ``k // 2``, at every window inside ``xp``: ``oh = h + 2*(k//2) - k + 1``
    rows of them, which is ``h`` for odd ``k`` and ``h + 1`` for ``k = 2``.

    The block of a tile of n items is item-major, ``(n, c*k*k, oh*ow)``:
    row ``(c, i, j)`` of item ``m`` holds ``xp[m, c, i:i+oh, j:j+ow]``. Each
    tap writes only the window that falls inside ``x``; the rest of the block
    stays zero. All tiles share one buffer, in which each item's block keeps
    its place, so a block is only valid until the next one is yielded.
    """
    b, c, h, w = x.shape
    pad = k // 2
    oh, ow = h + 2 * pad - k + 1, w + 2 * pad - k + 1
    per_item = c * k * k * oh * ow
    n_max = min(b, max(1, _TILE_BYTES // (per_item * x.itemsize)))
    buf = (np.zeros if pad else np.empty)(n_max * per_item, dtype=x.dtype)
    taps = _taps(k, h, w)
    for start in range(0, b, n_max):
        items = slice(start, min(start + n_max, b))
        n = items.stop - start
        cols = buf[: n * per_item].reshape(n, c, k, k, oh, ow)
        for i, j, (out_r, in_r), (out_c, in_c) in taps:
            cols[:, :, i, j, out_r, out_c] = x[items, :, in_r, in_c]
        yield items, cols.reshape(n, c * k * k, oh * ow)


def _flip(w):
    """The kernel whose correlation with ``dy`` is the input gradient of the
    correlation with ``w``: spatially flipped, channels transposed."""
    return w[:, :, ::-1, ::-1].transpose(1, 0, 2, 3)


@dataclass(frozen=True)
class Correlation:
    """'Same'-size 2-D correlation, y[b,o] = sum_c x[b,c] * w[o,c] with ``x``
    zero-padded by ``k // 2``, with the ``(o, c*k*k)`` GEMM kernel of its
    weights derived once."""

    kernel: np.ndarray
    k: int

    @classmethod
    def of(cls, w):
        """The correlation with the ``(o, c, k, k)`` weights ``w``."""
        return cls(w.reshape(w.shape[0], -1), w.shape[2])

    def __call__(self, x):
        b, _, h, w = x.shape
        o = self.kernel.shape[0]
        y = np.empty((b, o, h, w), dtype=np.result_type(x, self.kernel))
        for items, cols in _column_tiles(x, self.k):
            np.matmul(self.kernel, cols, out=y.reshape(b, o, -1)[items])
        return y

    def backward(self, x, dy, need_dx=True):
        """Gradients ``(dw, dx)`` of the weights and of the input ``x`` from
        the output gradient ``dy``; ``dx`` is ``None`` unless ``need_dx``."""
        k = self.k
        dw = _conv_weight_grad(x, dy, k)
        if not need_dx:
            return dw, None
        w = self.kernel.reshape(self.kernel.shape[0], -1, k, k)
        return dw, Correlation.of(_flip(w))(dy)


def _conv_weight_grad(x, dy, k):
    """Gradient of the correlation w.r.t. its ``(o, c, k, k)`` weights, from the
    unpadded input and the ``(b, o, oh, ow)`` or ``(b, o, oh*ow)`` output gradient."""
    b, o = dy.shape[:2]
    dy = dy.reshape(b, o, -1)
    dw = np.zeros((o, x.shape[1] * k * k), dtype=np.result_type(x, dy))
    for items, cols in _column_tiles(x, k):
        # One GEMM over the tile's items and positions (tensordot copies the columns
        # to (c*k*k, n*oh*ow)): cheaper than a GEMM per item on the small deep maps.
        dw += np.tensordot(cols, dy[items], axes=([0, 2], [0, 2])).T
    return dw.reshape(o, -1, k, k)


def _he_uniform(rng, shape):
    """He-uniform weights of an ``(o, c, k, k)`` kernel."""
    limit = np.sqrt(6.0 / (shape[1] * shape[2] * shape[3]))
    return rng.uniform(-limit, limit, size=shape)


def _check_channels(x, c_in):
    if x.shape[1] != c_in:
        raise ShapeError(f"conv expects {c_in} channels, got {x.shape[1]}")


class Layer:
    """Base: a layer's parameters, their gradients and its buffers, by name."""

    # Checkpoint layer indices the layer spans: those of the one-operation
    # layers it replaced, so that checkpoint names stay as they were.
    slots = 1

    @staticmethod
    def tensor_shapes(*args) -> tuple[dict, dict]:
        """Parameter and buffer shapes, by name in creation order, of the
        layer these constructor arguments build."""
        return {}, {}

    @staticmethod
    def slot_of(name) -> int:
        """Offset, from the layer's first checkpoint index, of the index that
        names tensor ``name``."""
        return 0

    def __init__(self):
        self.params: dict[str, np.ndarray] = {}
        self.grads: dict[str, np.ndarray] = {}
        self.buffers: dict[str, np.ndarray] = {}

    def plan(self):
        """What the layer's tensors fix for inference, for inputs of any
        size, as data that :meth:`forward` applies; ``None`` when they fix
        nothing."""
        return None

    def forward(self, x, train=False, plan=None):
        """The layer on ``x``. Inference applies ``plan``, the layer's
        :meth:`plan`, which a model keeps; without one it builds its own for
        the call."""
        raise NotImplementedError

    def backward(self, dy):
        raise NotImplementedError

    def _trained(self, cache):
        """The cache of the last forward, which must have run in train mode."""
        if cache is None:
            raise ShapeError(f"{type(self).__name__}.backward needs a train=True forward")
        return cache


def _elu(y):
    """ELU in place: max(y, 0) + expm1(min(y, 0)), one term always exactly 0."""
    neg = np.minimum(y, 0.0)
    np.expm1(neg, out=neg)
    np.maximum(y, 0.0, out=y)
    y += neg
    return y


def _sigmoid(z):
    """Stable two-branch logistic: with e = exp(-|z|), 1 / (1 + e) where
    z >= 0 and e / (1 + e) elsewhere, in new arrays. -|z| is min(z, -z),
    which passes a NaN on with its sign, as exp(z) did in the negative
    branch."""
    e = np.negative(z)
    np.minimum(z, e, out=e)
    np.exp(e, out=e)
    y = np.where(z >= 0, 1.0, e)
    e += 1.0
    y /= e
    return y


class Conv2D(Layer):
    """A network block: a bias-free, zero-padded, size-preserving 3x3
    convolution, then per-channel batch normalization, then ELU (alpha 1).

    The convolution has no bias because the normalization would cancel it.
    Training normalizes with the batch statistics and updates the running
    ones; inference is one per-channel affine map built from the running
    statistics. Both run in place on the convolution's output: inference
    normalizes and activates there, and training normalizes there, keeps the
    normalized values for the backward pass and activates in one more array,
    the block's output. The backward pass multiplies ``dy`` by ELU's
    derivative, runs the batch-norm backward in that product and one scratch
    array, and hands the result to the convolution's backward.

    The block spans the checkpoint indices of the convolution, batch norm
    and ELU it replaced: the weights carry the first, the batch-norm tensors
    the second.
    """

    ksize = 3
    slots = 3
    _w_slot = 0

    @classmethod
    def tensor_shapes(cls, c_in, c_out, rng=None):
        k, one = cls.ksize, (c_out,)
        params = {"w": (c_out, c_in, k, k), "gamma": one, "beta": one}
        return params, {"running_mean": one, "running_var": one}

    @classmethod
    def slot_of(cls, name) -> int:
        return cls._w_slot if name == "w" else cls._w_slot + 1

    def __init__(self, c_in, c_out, rng):
        super().__init__()
        self.c_in, self.c_out = c_in, c_out
        params, buffers = self.tensor_shapes(c_in, c_out)
        self.params["w"] = _he_uniform(rng, params["w"])
        self.params["gamma"] = np.ones(params["gamma"])
        self.params["beta"] = np.zeros(params["beta"])
        self.buffers["running_mean"] = np.zeros(buffers["running_mean"])
        self.buffers["running_var"] = np.ones(buffers["running_var"])
        self._cache = None

    # The convolution's kind: a decoder stage's differs.
    correlation = Correlation

    def plan(self):
        """``(conv, scale, shift)``: the convolution, and batch normalization
        as the per-channel affine map of the running statistics, ``(c, 1, 1)``
        scale and shift."""
        scale = self.params["gamma"] / np.sqrt(self.buffers["running_var"] + BN_EPS)
        shift = self.params["beta"] - self.buffers["running_mean"] * scale
        conv = self.correlation.of(self.params["w"])
        return conv, scale[:, None, None], shift[:, None, None]

    def forward(self, x, train=False, plan=None):
        _check_channels(x, self.c_in)
        if not train:
            self._cache = None
            conv, scale, shift = plan or self.plan()
            y = conv(x)
            y *= scale
            y += shift
            return _elu(y)
        conv = self.correlation.of(self.params["w"])
        h = conv(x)
        mean = h.mean(axis=(0, 2, 3))
        # np.var's own steps: the squared deviations summed, over the count.
        h -= mean[:, None, None]
        y = np.square(h)
        var = y.sum(axis=(0, 2, 3)) / (y.size // self.c_out)
        m = BN_MOMENTUM
        self.buffers["running_mean"] = m * self.buffers["running_mean"] + (1 - m) * mean
        self.buffers["running_var"] = m * self.buffers["running_var"] + (1 - m) * var
        inv_std = 1.0 / np.sqrt(var + BN_EPS)
        h *= inv_std[:, None, None]  # the normalized values, xhat
        np.multiply(h, self.params["gamma"][:, None, None], out=y)
        y += self.params["beta"][:, None, None]
        _elu(y)
        self._cache = (x, conv, h, inv_std, y)
        return y

    def backward(self, dy, need_dx=True):
        """Parameter gradients, and the input gradient unless ``need_dx`` is
        false (then ``None``: the model's first layer has no use for it)."""
        x, conv, xhat, inv_std, y = self._trained(self._cache)
        # ELU': y > 0 exactly where its input is, and there 1; elsewhere it is
        # y + 1, which is at most 1: so min(y + 1, 1), NaN included.
        d = y + 1.0
        np.minimum(d, 1.0, out=d)
        d *= dy
        # Batch norm: (inv_std / n) * (n * dxhat - sum(dxhat) - xhat *
        # sum(dxhat * xhat)), evaluated in d and one scratch array.
        prod = d * xhat
        self.grads["gamma"] = prod.sum(axis=(0, 2, 3))
        self.grads["beta"] = d.sum(axis=(0, 2, 3))
        d *= self.params["gamma"][:, None, None]  # dxhat, until overwritten
        n = d.shape[0] * d.shape[2] * d.shape[3]
        sum_dxhat = d.sum(axis=(0, 2, 3), keepdims=True)
        np.multiply(d, xhat, out=prod)
        sum_dxhat_xhat = prod.sum(axis=(0, 2, 3), keepdims=True)
        d *= n
        d -= sum_dxhat
        np.multiply(xhat, sum_dxhat_xhat, out=prod)
        d -= prod
        d *= inv_std[:, None, None] / n
        self.grads["w"], dx = conv.backward(x, d, need_dx)
        return dx


def _repeat2x2(x):
    """Each value of the last two axes repeated into a 2x2 block."""
    return np.repeat(np.repeat(x, 2, axis=2), 2, axis=3)


def _avg_pool(x):
    """Mean of each 2x2 block of the last two axes: summed in pairs along w
    and then the two rows, the order NumPy's mean over both window axes
    uses, then scaled by 1/4."""
    h, w = x.shape[2:]
    if h % 2 or w % 2:
        raise ShapeError(f"average pooling needs even spatial dims, got {h}x{w}")
    y = x[:, :, ::2, ::2] + x[:, :, ::2, 1::2]
    y += x[:, :, 1::2, ::2] + x[:, :, 1::2, 1::2]
    y *= 0.25
    return y


class AvgPool2x2(Layer):
    def forward(self, x, train=False, plan=None):
        return _avg_pool(x)

    def backward(self, dy):
        return _repeat2x2(dy * 0.25)


# Along each axis, output 2i + a of a 3x3 convolution of the 2x-upsampled map
# reads the input, zero-padded by 1, at i + a + d for d in {0, 1}: output 2i
# reads input (i-1, i, i) and output 2i+1 reads (i, i, i+1), and the zero
# border maps onto the zero border. _TAP_SUMS[a, d, t] is 1 where that read
# sums 3x3 tap t: taps 0 | 1+2 for a = 0, and 0+1 | 2 for a = 1.
_TAP_SUMS = np.array([[[1, 0, 0], [0, 1, 1]], [[1, 1, 0], [0, 0, 1]]], dtype=float)
# (phase (a, b), 3x3 tap (i, j), 2x2 tap (d, e)): 1 where phase (a, b)'s tap
# (d, e) sums tap (i, j), else 0.
_PHASE_KERNEL = np.einsum("adi,bej->abijde", _TAP_SUMS, _TAP_SUMS).reshape(4, 9, 4)


def _phase_kernel(w):
    """The ``(4*o, 4*c)`` 2x2 kernel of the stage's 3x3 weights ``w``: row
    ``(a, b, p)`` holds phase ``(a, b)`` of output channel ``p``, column
    ``(c, d, e)`` the tap at window offset ``(d, e)`` of input channel ``c``,
    in the row order of :func:`_column_tiles` (k = 2). One small GEMM of the
    ``(o*c, 9)`` weights with the 0/1 :data:`_PHASE_KERNEL` writes every
    phase's block in place; no transpose follows."""
    o, c = w.shape[:2]
    k = w.reshape(o * c, 9) @ _PHASE_KERNEL.astype(w.dtype, copy=False)
    return k.reshape(4 * o, 4 * c)


def _tap_grad(dk):
    """Gradient of the ``(o, c, 3, 3)`` weights from that of
    :func:`_phase_kernel`'s: each tap's, summed over the phase taps it
    feeds."""
    o, c = dk.shape[0] // 4, dk.shape[1] // 4
    dw = dk.reshape(4, o * c, 4) @ _PHASE_KERNEL.transpose(0, 2, 1).astype(dk.dtype, copy=False)
    return dw.sum(axis=0).reshape(o, c, 3, 3)


class PhaseCorrelation(Correlation):
    """A decoder stage's convolution of the 2x upsampled input, computed at
    the input's resolution: ``kernel`` is the :func:`_phase_kernel` of the
    3x3 weights, over the 2x2 taps' windows."""

    @classmethod
    def of(cls, w):
        return cls(_phase_kernel(w), 2)

    def __call__(self, x):
        k = self.kernel
        o = k.shape[0] // 4
        n, _, h, w = x.shape
        y = np.empty((n, o, 2 * h, 2 * w), dtype=np.result_type(x, k))
        for items, cols in _column_tiles(x, 2):
            g = (k @ cols).reshape(-1, 2, 2, o, h + 1, w + 1)
            for a in range(2):
                for b in range(2):
                    y[items, :, a::2, b::2] = g[:, a, b, :, a : a + h, b : b + w]
        return y

    def backward(self, x, dy, need_dx=True):
        """``dy``'s phases placed at their window offsets in an
        ``(n, 4*o, h+1, w+1)`` map: the weight gradient is the 2x2 kernel's
        (:func:`_conv_weight_grad` of the map) folded back onto the nine taps
        (:func:`_tap_grad`), and the input gradient the col2im of
        ``kernel.T @ map``, four shifted adds."""
        k = self.kernel
        o = k.shape[0] // 4
        n, c, h, w = x.shape
        dmap = np.zeros((n, 2, 2, o, h + 1, w + 1), dtype=dy.dtype)
        for a in range(2):
            for b in range(2):
                dmap[:, a, b, :, a : a + h, b : b + w] = dy[:, :, a::2, b::2]
        dmap = dmap.reshape(n, 4 * o, -1)
        dw = _tap_grad(_conv_weight_grad(x, dmap, 2).reshape(k.shape))
        if not need_dx:
            return dw, None
        # Window (p, q)'s tap (d, e) read the padded input at (p + d, q + e),
        # so input (i, j), padded (i + 1, j + 1), gets window (i+1-d, j+1-e)'s.
        g = (k.T @ dmap).reshape(n, c, 2, 2, h + 1, w + 1)
        dx = np.add(g[:, :, 0, 0, 1:, 1:], g[:, :, 0, 1, 1:, :-1])
        dx += g[:, :, 1, 0, :-1, 1:]
        dx += g[:, :, 1, 1, :-1, :-1]
        return dw, dx


class UpsampleConv2D(Conv2D):
    """A decoder block: nearest-neighbor 2x upsampling, then the
    :class:`Conv2D` block, with its convolution computed at the input's
    resolution.

    Output phase ``y[:, :, a::2, b::2]`` at ``(i, j)`` reads only the 2x2
    window at ``(i + a, j + b)`` of the input zero-padded by 1, through
    taps that are sums of the convolution's taps. The four phases' 2x2
    kernels stack into the ``(4*o, 4*c)`` matrix of :func:`_phase_kernel`,
    derived once per :class:`PhaseCorrelation`, which a training forward
    keeps for its backward pass. The forward pass runs one GEMM per item over its
    2x2 columns at the ``(h+1) x (w+1)`` windows and writes each phase's row
    block, shifted by its window offset, straight into its phase of the
    output; :meth:`PhaseCorrelation.backward` reverses that placement. The
    upsampled map is never built. Batch normalization and ELU are
    :class:`Conv2D`'s.
    """

    # Checkpoint layer indices the block spans: those of the upsampling, the
    # convolution, batch norm and ELU it replaced; the weights carry the
    # convolution's, the second.
    slots = 4
    _w_slot = 1
    correlation = PhaseCorrelation


class Head(Layer):
    """The closing layer: a 1x1 convolution with bias, then the sigmoid.

    Its weights stay float64 whatever the body's dtype (see
    :meth:`~dmrislice.ae.model.Autoencoder.astype`), so its output is
    float64; its backward pass returns the input gradient in the dtype of
    its input, so the gradient is cast once, where it leaves the head. The
    head spans the checkpoint indices of the convolution and the sigmoid it
    replaced, and both tensors carry the first.
    """

    slots = 2

    @staticmethod
    def tensor_shapes(c_in, c_out, rng=None):
        return {"w": (c_out, c_in, 1, 1), "b": (c_out,)}, {}

    def __init__(self, c_in, c_out, rng):
        super().__init__()
        self.c_in = c_in
        params, _ = self.tensor_shapes(c_in, c_out)
        self.params["w"] = _he_uniform(rng, params["w"])
        self.params["b"] = np.zeros(params["b"])
        self._cache = None

    def plan(self):
        """``(conv, bias)``: the 1x1 convolution and its ``(o, 1, 1)`` bias."""
        return Correlation.of(self.params["w"]), self.params["b"][:, None, None]

    def forward(self, x, train=False, plan=None):
        _check_channels(x, self.c_in)
        conv, bias = plan or self.plan()
        z = conv(x)
        z += bias
        y = _sigmoid(z)
        self._cache = (x, conv, y) if train else None
        return y

    def backward(self, dy):
        x, conv, y = self._trained(self._cache)
        dz = dy * y * (1.0 - y)
        self.grads["w"], dx = conv.backward(x, dz)
        self.grads["b"] = dz.sum(axis=(0, 2, 3))
        return dx.astype(x.dtype, copy=False)
