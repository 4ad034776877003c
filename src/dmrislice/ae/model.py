"""The convolutional autoencoder: four two-conv encoder blocks with 2x2
average pooling, three extra convolutions forming the latent feature maps,
and a mirrored decoder in which each block is a nearest-neighbor 2x2
upsampling followed by a 3x3 convolution, closed by a 1x1 convolution with
sigmoid output. Every convolution feeding an ELU goes through batch
normalization with the fixed constants of :mod:`.layers`.

Each decoder upsampling and the convolution after it are one layer,
:class:`~.layers.UpsampleConv2D`, computed at the input's resolution: each of
the four output phases is a 2x2-tap convolution of the input whose taps are
sums of the 3x3 taps, and all four run as one GEMM. The checkpoint names
tensors by layer index as if the two were still separate layers (``slots``),
so the stage's weights keep the convolution's name.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from ..errors import ShapeError
from .layers import ELU, AvgPool2x2, BatchNorm2D, Conv2D, Sigmoid, UpsampleConv2D

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

    @property
    def encoder_widths(self) -> tuple[int, ...]:
        return tuple(self.base_width * (2**i) for i in range(N_POOLINGS))

    @property
    def extra_widths(self) -> tuple[int, int, int]:
        return (self.base_width * 16, self.base_width * 8, self.latent_maps)

    @property
    def decoder_widths(self) -> tuple[int, ...]:
        return tuple(self.base_width * (2**i) for i in range(N_POOLINGS, -1, -1))


def _architecture(cfg: ModelConfig, rng):
    """Encoder and decoder as lists of (layer class, constructor arguments).

    This is the one description of the network: the constructor builds the
    layers from it and :func:`tensor_manifest` reads their tensor shapes from
    it. ``rng`` is passed to the seeded layers in construction order.
    """
    encoder: list = []
    decoder: list = []

    def block(layers, conv, c_in, c_out, *args):
        layers.append((conv, (c_in, c_out, *args, rng)))
        layers.append((BatchNorm2D, (c_out,)))
        layers.append((ELU, ()))

    c = cfg.input_channels
    for width in cfg.encoder_widths:
        block(encoder, Conv2D, c, width, 3)
        block(encoder, Conv2D, width, width, 3)
        encoder.append((AvgPool2x2, ()))
        c = width
    for width in cfg.extra_widths:
        block(encoder, Conv2D, c, width, 3)
        c = width

    widths = cfg.decoder_widths  # e.g. (512, 256, 128, 64, 32)
    block(decoder, Conv2D, cfg.latent_maps, widths[0], 3)
    c = widths[0]
    for width in widths[1:]:
        block(decoder, UpsampleConv2D, c, width)
        c = width
    decoder.append((Conv2D, (c, cfg.input_channels, 1, rng, True)))
    decoder.append((Sigmoid, ()))
    return encoder, decoder


def _tensor_name(index: int, name: str) -> str:
    return f"layer{index:02d}.{name}"


def _indices(kinds) -> list[int]:
    """Checkpoint index of each layer (or layer class): the last of the
    ``slots`` indices it spans."""
    return [end - 1 for end in accumulate(kind.slots for kind in kinds)]


def tensor_manifest(cfg: ModelConfig) -> list[tuple[str, tuple[int, ...]]]:
    """(name, shape) of every parameter, then every buffer, of the model
    built from ``cfg``, in the order of ``parameters()`` and
    ``named_buffers()``; nothing is allocated."""
    encoder, decoder = _architecture(cfg, None)
    params, buffers = [], []
    layers = encoder + decoder
    for i, (cls, args) in zip(_indices(cls for cls, _ in layers), layers):
        p, b = cls.tensor_shapes(*args)
        params += [(_tensor_name(i, name), shape) for name, shape in p.items()]
        buffers += [(_tensor_name(i, name), shape) for name, shape in b.items()]
    return params + buffers


class Autoencoder:
    """Holds the ordered layer stacks and provides encode/decode/forward."""

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
        out = []
        layers = self._layers()
        for i, layer in zip(_indices(layers), layers):
            for name, arr in layer.params.items():
                out.append((_tensor_name(i, name), arr))
        return out

    def gradients(self):
        out = []
        for layer in self._layers():
            for name in layer.params:
                out.append(layer.grads[name])
        return out

    def named_buffers(self):
        out = []
        layers = self._layers()
        for i, layer in zip(_indices(layers), layers):
            for name, arr in layer.buffers.items():
                out.append((_tensor_name(i, name), arr))
        return out

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
        """Convert the body, every layer but the closing 1x1 convolution, to
        ``dtype`` (float32 or float64) in place, and return the model.

        The head keeps float64 weights, so the last activation and the
        sigmoid are float64 whatever the body: a float32 sigmoid rounds
        outputs near 1 into ties, which the rank-based histogram matching of
        inference would then carry into the result. A float32 body is what
        ``train`` steps and what a checkpoint stores; the float64 body that
        :func:`build_model` gives serves the gradient checks.
        """
        dtype = np.dtype(dtype)
        if dtype not in (np.float32, np.float64):
            raise ShapeError(f"a model computes in float32 or float64, not {dtype}")
        for layer in self._layers()[:-2]:
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
        """Reconstruction and latent code for a batch."""
        z = self.encode(x, train=train)
        return self.decode(z, train=train), z

    def loss_and_grads(self, batch):
        """Mean-squared reconstruction error and gradients for all parameters.

        Runs in train mode (batch statistics); gradients are averaged over
        every output value, matching the loss reduction. The loss and the
        backward pass of the sigmoid and the closing 1x1 convolution run in
        float64, as their forward pass does; the gradient leaving the head
        is cast once to the body's dtype, so a float32 body trains in
        float32, and each gradient has its parameter's dtype.
        """
        x = np.asarray(batch, dtype=np.float64)
        if x.size == 0:
            raise ShapeError("empty batch")
        y, _ = self.forward(x, train=True)
        diff = y - x
        mse = float(np.mean(diff * diff))
        grad = 2.0 * diff / diff.size
        *body, head, sigmoid = self._layers()
        grad = head.backward(sigmoid.backward(grad)).astype(self.dtype, copy=False)
        first, *rest = body
        for layer in reversed(rest):
            grad = layer.backward(grad)
        # Nothing reads the gradient w.r.t. the batch itself.
        first.backward(grad, need_dx=False)
        return mse, self.gradients()


def build_model(cfg: ModelConfig) -> Autoencoder:
    """Construct an autoencoder with He-uniform seeded initialization."""
    return Autoencoder(cfg)

