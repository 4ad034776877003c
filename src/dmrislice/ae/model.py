"""The convolutional autoencoder: four levels of two encoder blocks and a
2x2 average pooling, three more blocks forming the latent feature maps, and
a mirrored decoder of one block and four upsampling blocks, closed by a 1x1
convolution with sigmoid output. A block is one layer: a 3x3 convolution,
batch normalization with the fixed constants of :mod:`.layers`, and ELU
(:class:`~.layers.Conv2D`), or the same on the nearest 2x upsampling of its
input (:class:`~.layers.UpsampleConv2D`), whose convolution runs at the
input's resolution. The model has 21 layers for every config.

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

    def encode(self, x, train=False):
        x = np.asarray(x, dtype=self.dtype)
        self._check_input(x)
        for layer in self.encoder:
            x = layer.forward(x, train=train)
        return x

    def decode(self, z, train=False):
        z = np.asarray(z, dtype=self.dtype)
        m, side = self.cfg.latent_maps, self.cfg.latent_size
        if z.ndim != 4 or z.shape[1:] != (m, side, side):
            raise ShapeError(f"latent must be (B, {m}, {side}, {side}), got {z.shape}")
        for layer in self.decoder:
            z = layer.forward(z, train=train)
        return z

    def forward(self, x, train=False):
        """The reconstruction of a batch; :meth:`encode` gives its latent code."""
        return self.decode(self.encode(x, train=train), train=train)

    def loss_and_grads(self, batch):
        """Mean-squared reconstruction error and gradients for all parameters.

        Runs in train mode (batch statistics); gradients are averaged over
        every output value, matching the loss reduction. The loss and the
        head's backward pass run in float64, as its forward pass does; the
        head returns its input gradient in the body's dtype, so a float32
        body trains in float32, and each gradient has its parameter's dtype.
        """
        x = np.asarray(batch, dtype=np.float64)
        if x.size == 0:
            raise ShapeError("empty batch")
        y = self.forward(x, train=True)
        diff = y - x
        mse = float(np.mean(diff * diff))
        grad = 2.0 * diff / diff.size
        first, *rest = self._layers()
        for layer in reversed(rest):
            grad = layer.backward(grad)
        # Nothing reads the gradient w.r.t. the batch itself.
        first.backward(grad, need_dx=False)
        return mse, self.gradients()

