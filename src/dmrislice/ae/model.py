"""The convolutional autoencoder: four levels of two encoder blocks and a
2x2 average pooling, three more blocks forming the latent feature maps, and
a mirrored decoder of one block and four upsampling blocks, closed by a 1x1
convolution with sigmoid output. A block is one layer: a 3x3 convolution,
batch normalization with the fixed constants of :mod:`.layers`, and ELU
(:class:`~.layers.Conv2D`), or the same on the nearest 2x upsampling of its
input (:class:`~.layers.UpsampleConv2D`), whose convolution runs at the
input's resolution. The model has 21 layers for every config.

``encode``, ``decode`` and ``forward`` are forward-only. They run each
layer with its part of the model's inference plan: every layer's ``plan``,
the plain data its ``forward`` applies (``None`` for pooling), one per net
whatever the input size, built on first use and kept. Pool threads share it
read-only; two threads that build it at once build equal plans, and either
may be kept. :meth:`Autoencoder.loss_and_grads` runs the training pass. It,
:meth:`Autoencoder.load_snapshot` and :meth:`Autoencoder.astype` change the
weights or buffers, and each drops the plan. An optimizer steps the weights
in place after ``loss_and_grads``, which has dropped the plan; inference run
between the two would keep a plan of the weights before the step.

The checkpoint names tensors by layer index as if each convolution, batch
norm, ELU, upsampling and sigmoid were still a layer of its own: each layer
spans ``slots`` indices, and a tensor's index is the layer's first index
plus the layer's ``slot_of`` the tensor's name.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from ..errors import ShapeError
from .layers import AvgPool2x2, Conv2D, Head, UpsampleConv2D

N_POOLINGS = 4

# Activation bytes an encode or decode may hold at once: it runs its items
# in chunks of as many as fit, by :func:`_chunk_items`.
_INFERENCE_BUDGET = 64 << 20


@dataclass(frozen=True)
class ModelConfig:
    input_channels: int = 1
    latent_maps: int = 32
    input_size: int = 128
    base_width: int = 32  # width of the first encoder block; 4 gives the /8 reduced model
    seed: int = 0

    def __post_init__(self):
        if self.input_size % (2**N_POOLINGS) != 0 or self.input_size < 2**N_POOLINGS:
            raise ShapeError(
                f"input_size must be a multiple of {2 ** N_POOLINGS}, got {self.input_size}"
            )
        if self.input_channels < 1 or self.latent_maps < 1 or self.base_width < 1:
            raise ShapeError("channel counts must be positive")
        if self.seed < 0:
            raise ShapeError(f"seed must be non-negative, got {self.seed}")

    @property
    def latent_size(self) -> int:
        return self.input_size // (2**N_POOLINGS)


def _chunk_items(cfg: ModelConfig) -> int:
    """Items per chunk of an encode or decode of the model built from
    ``cfg``: the budget over an item's bytes where the pass holds the most,
    at full resolution in float64: the second encoder block's input and
    output (2w maps), or the head's input, its output and the sigmoid's
    temporaries (w + 3c maps); at least one."""
    maps = max(2 * cfg.base_width, cfg.base_width + 3 * cfg.input_channels)
    return max(1, _INFERENCE_BUDGET // (8 * maps * cfg.input_size**2))


def _architecture(cfg: ModelConfig, rng):
    """Encoder and decoder as lists of (layer class, constructor arguments).

    This is the one description of the network: the constructor builds the
    layers from it and :func:`tensor_manifest` reads their tensor shapes from
    it. ``rng`` is passed to the seeded layers in construction order.
    """
    widths = [cfg.base_width * 2**i for i in range(N_POOLINGS + 1)]  # e.g. 32, 64, ..., 512
    encoder: list = []
    c = cfg.input_channels
    for width in widths[:-1]:
        encoder += [(Conv2D, (c, width, rng)), (Conv2D, (width, width, rng)), (AvgPool2x2, ())]
        c = width
    for width in (widths[-1], widths[-2], cfg.latent_maps):
        encoder.append((Conv2D, (c, width, rng)))
        c = width

    widths.reverse()  # e.g. 512, 256, ..., 32
    decoder: list = [(Conv2D, (cfg.latent_maps, widths[0], rng))]
    decoder += [(UpsampleConv2D, (c, width, rng)) for c, width in zip(widths, widths[1:])]
    decoder.append((Head, (widths[-1], cfg.input_channels, rng)))
    return encoder, decoder


def _named(kinds, tensors) -> list[tuple[str, object]]:
    """(checkpoint name, value) of each entry of ``tensors``, one dict per
    layer of ``kinds`` (layers or their classes), in layer order."""
    firsts = accumulate((kind.slots for kind in kinds), initial=0)
    return [
        (f"layer{first + kind.slot_of(name):02d}.{name}", value)
        for kind, first, named in zip(kinds, firsts, tensors)
        for name, value in named.items()
    ]


def tensor_manifest(cfg: ModelConfig) -> list[tuple[str, tuple[int, ...]]]:
    """(name, shape) of every parameter, then every buffer, of the model
    built from ``cfg``, in the order of ``parameters()`` and
    ``named_buffers()``; nothing is allocated."""
    encoder, decoder = _architecture(cfg, None)
    kinds = [cls for cls, _ in encoder + decoder]
    shapes = [cls.tensor_shapes(*args) for cls, args in encoder + decoder]
    return _named(kinds, [p for p, _ in shapes]) + _named(kinds, [b for _, b in shapes])


class Autoencoder:
    """Holds the ordered layer stacks and provides encode/decode/forward.

    The constructor draws every weight He-uniform from ``cfg.seed`` and gives
    a float64 model; :meth:`astype` converts its body.
    """

    def __init__(self, cfg: ModelConfig):
        self.cfg = cfg
        encoder, decoder = _architecture(cfg, np.random.default_rng(cfg.seed))
        self.encoder = [cls(*args) for cls, args in encoder]
        self.decoder = [cls(*args) for cls, args in decoder]
        self._plan = None

    # -- plumbing ----------------------------------------------------------
    def _layers(self):
        return self.encoder + self.decoder

    def parameters(self):
        """(name, array) pairs in fixed declaration order."""
        layers = self._layers()
        return _named(layers, [layer.params for layer in layers])

    def gradients(self):
        return [layer.grads[name] for layer in self._layers() for name in layer.params]

    def named_buffers(self):
        layers = self._layers()
        return _named(layers, [layer.buffers for layer in layers])

    def state_snapshot(self):
        return (
            [arr.copy() for _, arr in self.parameters()],
            [arr.copy() for _, arr in self.named_buffers()],
        )

    def load_snapshot(self, snapshot):
        """Restore arrays taken by ``state_snapshot`` from this model."""
        params, buffers = snapshot
        for (_, current), new in zip(self.parameters() + self.named_buffers(), params + buffers):
            current[...] = new
        self._plan = None

    @property
    def dtype(self) -> np.dtype:
        """The dtype of the body, which encode and decode compute in."""
        return self.encoder[0].params["w"].dtype

    def astype(self, dtype):
        """Convert the body, every layer but the closing :class:`~.layers.Head`,
        to ``dtype`` (float32 or float64) in place, and return the model.

        The head keeps float64 weights, so its 1x1 convolution and sigmoid
        are float64 whatever the body: a float32 sigmoid rounds outputs near
        1 into ties, which the rank-based histogram matching of inference
        would then carry into the result. A float32 body is what ``train``
        steps and what a checkpoint stores; the float64 body that the
        constructor gives serves the gradient checks.
        """
        dtype = np.dtype(dtype)
        if dtype not in (np.float32, np.float64):
            raise ShapeError(f"a model computes in float32 or float64, not {dtype}")
        for layer in self._layers()[:-1]:
            for tensors in (layer.params, layer.buffers):
                for name, arr in tensors.items():
                    tensors[name] = arr.astype(dtype, copy=False)
        self._plan = None
        return self

    # -- computation -------------------------------------------------------
    def _check_input(self, x):
        if x.ndim != 4:
            raise ShapeError(f"expected NCHW batch, got ndim={x.ndim}")
        if x.shape[1] != self.cfg.input_channels:
            raise ShapeError(
                f"model expects {self.cfg.input_channels} channels, got {x.shape[1]}"
            )
        if x.shape[2] != self.cfg.input_size or x.shape[3] != self.cfg.input_size:
            raise ShapeError(
                f"model expects {self.cfg.input_size}x{self.cfg.input_size} slices, "
                f"got {x.shape[2]}x{x.shape[3]}"
            )

    def _inference_plan(self):
        """The encoder's and the decoder's plans, each a tuple of one layer
        plan per layer; built here unless kept from an earlier call."""
        plan = self._plan
        if plan is None:
            plan = self._plan = tuple(
                tuple(layer.plan() for layer in part) for part in (self.encoder, self.decoder)
            )
        return plan

    def _run(self, part, x):
        """The encoder (``part`` 0) or the decoder (1) on ``x``."""
        layers = (self.encoder, self.decoder)[part]
        for layer, plan in zip(layers, self._inference_plan()[part]):
            x = layer.forward(x, plan=plan)
        return x

    def _pass(self, part, x):
        """The encoder (``part`` 0) or the decoder (1) on the checked batch
        ``x``, in chunks of :func:`_chunk_items` items, which give the
        batch's output bit for bit: an item's output does not depend on its
        batch-mates."""
        step = _chunk_items(self.cfg)
        if len(x) <= step:
            return self._run(part, np.asarray(x, dtype=self.dtype))
        out = None
        for i in range(0, len(x), step):
            y = self._run(part, np.asarray(x[i : i + step], dtype=self.dtype))
            if out is None:
                out = np.empty((len(x),) + y.shape[1:], y.dtype)
            out[i : i + len(y)] = y
        return out

    def encode(self, x):
        x = np.asarray(x)
        self._check_input(x)
        return self._pass(0, x)

    def decode(self, z):
        z = np.asarray(z)
        m, side = self.cfg.latent_maps, self.cfg.latent_size
        if z.ndim != 4 or z.shape[1:] != (m, side, side):
            raise ShapeError(f"latent must be (B, {m}, {side}, {side}), got {z.shape}")
        return self._pass(1, z)

    def forward(self, x):
        """The reconstruction of a batch; :meth:`encode` gives its latent code."""
        return self.decode(self.encode(x))

    def loss_and_grads(self, batch):
        """Mean-squared reconstruction error and gradients for all parameters.

        Runs the training pass: each layer in train mode (batch statistics,
        activations kept for the backward pass); gradients are averaged over
        every output value, matching the loss reduction. The loss and the
        head's backward pass run in float64, as its forward pass does; the
        head returns its input gradient in the body's dtype, so a float32
        body trains in float32, and each gradient has its parameter's dtype.
        """
        x = np.asarray(batch, dtype=np.float64)
        if x.size == 0:
            raise ShapeError("empty batch")
        self._check_input(x)
        self._plan = None  # batch norm moves its running statistics
        y = np.asarray(x, dtype=self.dtype)
        for layer in self._layers():
            y = layer.forward(y, train=True)
        diff = y - x
        mse = float(np.mean(diff * diff))
        grad = 2.0 * diff / diff.size
        first, *rest = self._layers()
        for layer in reversed(rest):
            grad = layer.backward(grad)
        # Nothing reads the gradient w.r.t. the batch itself.
        first.backward(grad, need_dx=False)
        return mse, self.gradients()

