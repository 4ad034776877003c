"""Checkpoint persistence.

File layout: 5-byte magic "DSAE1", a little-endian uint32 header length, a
JSON header holding the model config and the tensor manifest (names and
shapes, parameters first then batch-norm running statistics), followed by the
raw little-endian float32 tensor payloads in manifest order, and nothing after
them; loading raises ParseError on any departure from this layout, on a
non-finite tensor value and on a negative batch-norm running variance. Saving
casts float64 state to float32.

A loaded model infers with a float32 body, where the stored values are exact,
and a float64 closing 1x1 convolution and sigmoid (see
:meth:`~dmrislice.ae.model.Autoencoder.astype`). Its outputs differ from those
of the float64 model that was saved by about 1e-6 relative. Inference matches
histograms by rank, so where that reorders two near-equal outputs a result
moves further: report means on 64x64x16 phantoms moved by 1e-7 to 2e-5
relative. Every array writes back out exactly, so save -> load -> save is
byte-identical.
``load_checkpoint(p).astype(np.float64)`` is the float64 model the checkpoint
holds, for training or comparison.

The config holds exactly the :class:`~dmrislice.ae.model.ModelConfig` fields,
five integers. A header from before the upsampling mode and the batch-norm
momentum and epsilon left the config has the same magic and tensor layout,
but its three extra keys fail the key check: a ParseError (exit code 2 from
the CLI), and the model has to be retrained.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import asdict

import numpy as np

from ..errors import IoError, ParseError
from .model import Autoencoder, ModelConfig, tensor_manifest

MAGIC = b"DSAE1"


def _manifest(model: Autoencoder):
    return list(model.parameters()) + list(model.named_buffers())


def save_checkpoint(model: Autoencoder, path) -> None:
    tensors = _manifest(model)
    header = {
        "config": asdict(model.cfg),
        "tensors": [{"name": name, "shape": list(arr.shape)} for name, arr in tensors],
    }
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    try:
        with open(path, "wb") as fh:
            fh.write(MAGIC)
            fh.write(struct.pack("<I", len(blob)))
            fh.write(blob)
            for _, arr in tensors:
                fh.write(arr.astype("<f4").tobytes(order="C"))
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc}") from exc


def load_checkpoint(path) -> Autoencoder:
    try:
        with open(path, "rb") as fh:
            buf = fh.read()
    except OSError as exc:
        raise IoError(f"cannot read {path}: {exc}") from exc

    if len(buf) < len(MAGIC) + 4:
        raise ParseError(f"{path}: truncated checkpoint", offset=len(buf))
    if buf[: len(MAGIC)] != MAGIC:
        raise ParseError(f"{path}: bad magic {buf[:len(MAGIC)]!r}", offset=0)
    (header_len,) = struct.unpack_from("<I", buf, len(MAGIC))
    header_end = len(MAGIC) + 4 + header_len
    if len(buf) < header_end:
        raise ParseError(f"{path}: truncated header", offset=len(buf))
    try:
        header = json.loads(buf[len(MAGIC) + 4 : header_end].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ParseError(f"{path}: unreadable header: {exc}", offset=len(MAGIC) + 4) from exc

    if not isinstance(header, dict) or header.keys() != {"config", "tensors"}:
        raise ParseError(f"{path}: header must be an object with 'config' and 'tensors'")
    cfg = _read_config(header["config"], path)
    # Check the manifest and the file size against the config before the
    # model is built, so a corrupt config allocates nothing.
    expected = tensor_manifest(cfg)
    manifest = header["tensors"]
    if not isinstance(manifest, list) or len(manifest) != len(expected):
        raise ParseError(f"{path}: manifest must list the model's {len(expected)} tensors")
    for i, (entry, (name, shape)) in enumerate(zip(manifest, expected)):
        want = {"name": name, "shape": list(shape)}
        if entry != want:
            raise ParseError(f"{path}: manifest entry {i} is {entry!r}, model has {want}")
    data_end = header_end + 4 * sum(math.prod(shape) for _, shape in expected)
    if len(buf) < data_end:
        raise ParseError(f"{path}: truncated tensor data", offset=len(buf))
    if len(buf) > data_end:
        raise ParseError(f"{path}: {len(buf) - data_end} bytes after the last tensor", offset=data_end)

    model = Autoencoder(cfg).astype(np.float32)
    offset = header_end
    for name, arr in _manifest(model):
        values = np.frombuffer(buf, dtype="<f4", count=arr.size, offset=offset)
        if not np.isfinite(values).all():
            raise ParseError(f"{path}: tensor {name} holds a non-finite value", offset=offset)
        if name.endswith(".running_var") and (values < 0).any():
            raise ParseError(f"{path}: tensor {name} holds a negative variance", offset=offset)
        arr[...] = values.reshape(arr.shape)
        offset += arr.size * 4
    return model


def _read_config(cfg, path) -> ModelConfig:
    """The model config: exactly the ModelConfig fields, each with the JSON
    type of its default."""
    defaults = asdict(ModelConfig())
    if not isinstance(cfg, dict) or cfg.keys() != defaults.keys():
        raise ParseError(f"{path}: config must hold exactly the keys {sorted(defaults)}")
    for key, default in defaults.items():
        value = cfg[key]
        if type(value) is not type(default):
            raise ParseError(f"{path}: config {key} must be {type(default).__name__}: {value!r}")
    return ModelConfig(**cfg)
