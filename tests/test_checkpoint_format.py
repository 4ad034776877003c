"""The checkpoint format is pinned: tensor names and order, and a checkpoint
written before the decoder stages were computed at the input's resolution.

``data/tiny32.ckpt`` holds the float32 model built from :data:`TINY32`, with
its batch-norm running statistics moved by three training forwards, as the
code of that time saved it. ``data/tiny32_outputs.npz`` holds an input batch
(``x``) and what that code decoded it to (``decoded``), on an x86-64 AVX-512
machine with OpenBLAS 0.3.31, and the latent code (``latent``) that the code
of the 2x2-tap decoder stages gave each item of ``x`` encoded on its own. The
encoder now makes one GEMM of one shape per item, so it gives a batch the
latents of its items encoded one at a time: it must reproduce ``latent`` bit
for bit, batched or not. The decoder's stages sum 3x3 taps in float32 before
they multiply, which moves the output by rounding only.
"""

from pathlib import Path

import numpy as np

from dmrislice.ae import ModelConfig, load_checkpoint, save_checkpoint
from dmrislice.ae.model import tensor_manifest

DATA = Path(__file__).parent / "data"
TINY = ModelConfig(input_channels=1, latent_maps=2, input_size=16, base_width=1, seed=3)
TINY32 = ModelConfig(input_channels=1, latent_maps=2, input_size=32, base_width=1, seed=3)

TINY_MANIFEST = [
    ("layer00.w", (1, 1, 3, 3)), ("layer01.gamma", (1,)), ("layer01.beta", (1,)),
    ("layer03.w", (1, 1, 3, 3)), ("layer04.gamma", (1,)), ("layer04.beta", (1,)),
    ("layer07.w", (2, 1, 3, 3)), ("layer08.gamma", (2,)), ("layer08.beta", (2,)),
    ("layer10.w", (2, 2, 3, 3)), ("layer11.gamma", (2,)), ("layer11.beta", (2,)),
    ("layer14.w", (4, 2, 3, 3)), ("layer15.gamma", (4,)), ("layer15.beta", (4,)),
    ("layer17.w", (4, 4, 3, 3)), ("layer18.gamma", (4,)), ("layer18.beta", (4,)),
    ("layer21.w", (8, 4, 3, 3)), ("layer22.gamma", (8,)), ("layer22.beta", (8,)),
    ("layer24.w", (8, 8, 3, 3)), ("layer25.gamma", (8,)), ("layer25.beta", (8,)),
    ("layer28.w", (16, 8, 3, 3)), ("layer29.gamma", (16,)), ("layer29.beta", (16,)),
    ("layer31.w", (8, 16, 3, 3)), ("layer32.gamma", (8,)), ("layer32.beta", (8,)),
    ("layer34.w", (2, 8, 3, 3)), ("layer35.gamma", (2,)), ("layer35.beta", (2,)),
    ("layer37.w", (16, 2, 3, 3)), ("layer38.gamma", (16,)), ("layer38.beta", (16,)),
    ("layer41.w", (8, 16, 3, 3)), ("layer42.gamma", (8,)), ("layer42.beta", (8,)),
    ("layer45.w", (4, 8, 3, 3)), ("layer46.gamma", (4,)), ("layer46.beta", (4,)),
    ("layer49.w", (2, 4, 3, 3)), ("layer50.gamma", (2,)), ("layer50.beta", (2,)),
    ("layer53.w", (1, 2, 3, 3)), ("layer54.gamma", (1,)), ("layer54.beta", (1,)),
    ("layer56.w", (1, 1, 1, 1)), ("layer56.b", (1,)), ("layer01.running_mean", (1,)),
    ("layer01.running_var", (1,)), ("layer04.running_mean", (1,)),
    ("layer04.running_var", (1,)), ("layer08.running_mean", (2,)),
    ("layer08.running_var", (2,)), ("layer11.running_mean", (2,)),
    ("layer11.running_var", (2,)), ("layer15.running_mean", (4,)),
    ("layer15.running_var", (4,)), ("layer18.running_mean", (4,)),
    ("layer18.running_var", (4,)), ("layer22.running_mean", (8,)),
    ("layer22.running_var", (8,)), ("layer25.running_mean", (8,)),
    ("layer25.running_var", (8,)), ("layer29.running_mean", (16,)),
    ("layer29.running_var", (16,)), ("layer32.running_mean", (8,)),
    ("layer32.running_var", (8,)), ("layer35.running_mean", (2,)),
    ("layer35.running_var", (2,)), ("layer38.running_mean", (16,)),
    ("layer38.running_var", (16,)), ("layer42.running_mean", (8,)),
    ("layer42.running_var", (8,)), ("layer46.running_mean", (4,)),
    ("layer46.running_var", (4,)), ("layer50.running_mean", (2,)),
    ("layer50.running_var", (2,)), ("layer54.running_mean", (1,)),
    ("layer54.running_var", (1,)),
]


FULL_MANIFEST = [
    ("layer00.w", (32, 1, 3, 3)), ("layer01.gamma", (32,)), ("layer01.beta", (32,)),
    ("layer03.w", (32, 32, 3, 3)), ("layer04.gamma", (32,)), ("layer04.beta", (32,)),
    ("layer07.w", (64, 32, 3, 3)), ("layer08.gamma", (64,)), ("layer08.beta", (64,)),
    ("layer10.w", (64, 64, 3, 3)), ("layer11.gamma", (64,)), ("layer11.beta", (64,)),
    ("layer14.w", (128, 64, 3, 3)), ("layer15.gamma", (128,)), ("layer15.beta", (128,)),
    ("layer17.w", (128, 128, 3, 3)), ("layer18.gamma", (128,)), ("layer18.beta", (128,)),
    ("layer21.w", (256, 128, 3, 3)), ("layer22.gamma", (256,)), ("layer22.beta", (256,)),
    ("layer24.w", (256, 256, 3, 3)), ("layer25.gamma", (256,)), ("layer25.beta", (256,)),
    ("layer28.w", (512, 256, 3, 3)), ("layer29.gamma", (512,)), ("layer29.beta", (512,)),
    ("layer31.w", (256, 512, 3, 3)), ("layer32.gamma", (256,)), ("layer32.beta", (256,)),
    ("layer34.w", (32, 256, 3, 3)), ("layer35.gamma", (32,)), ("layer35.beta", (32,)),
    ("layer37.w", (512, 32, 3, 3)), ("layer38.gamma", (512,)), ("layer38.beta", (512,)),
    ("layer41.w", (256, 512, 3, 3)), ("layer42.gamma", (256,)), ("layer42.beta", (256,)),
    ("layer45.w", (128, 256, 3, 3)), ("layer46.gamma", (128,)), ("layer46.beta", (128,)),
    ("layer49.w", (64, 128, 3, 3)), ("layer50.gamma", (64,)), ("layer50.beta", (64,)),
    ("layer53.w", (32, 64, 3, 3)), ("layer54.gamma", (32,)), ("layer54.beta", (32,)),
    ("layer56.w", (1, 32, 1, 1)), ("layer56.b", (1,)), ("layer01.running_mean", (32,)),
    ("layer01.running_var", (32,)), ("layer04.running_mean", (32,)),
    ("layer04.running_var", (32,)), ("layer08.running_mean", (64,)),
    ("layer08.running_var", (64,)), ("layer11.running_mean", (64,)),
    ("layer11.running_var", (64,)), ("layer15.running_mean", (128,)),
    ("layer15.running_var", (128,)), ("layer18.running_mean", (128,)),
    ("layer18.running_var", (128,)), ("layer22.running_mean", (256,)),
    ("layer22.running_var", (256,)), ("layer25.running_mean", (256,)),
    ("layer25.running_var", (256,)), ("layer29.running_mean", (512,)),
    ("layer29.running_var", (512,)), ("layer32.running_mean", (256,)),
    ("layer32.running_var", (256,)), ("layer35.running_mean", (32,)),
    ("layer35.running_var", (32,)), ("layer38.running_mean", (512,)),
    ("layer38.running_var", (512,)), ("layer42.running_mean", (256,)),
    ("layer42.running_var", (256,)), ("layer46.running_mean", (128,)),
    ("layer46.running_var", (128,)), ("layer50.running_mean", (64,)),
    ("layer50.running_var", (64,)), ("layer54.running_mean", (32,)),
    ("layer54.running_var", (32,)),
]


def test_tensor_manifests_keep_their_names_and_order():
    assert tensor_manifest(TINY) == TINY_MANIFEST
    assert tensor_manifest(ModelConfig()) == FULL_MANIFEST


def test_an_older_checkpoint_loads_encodes_exactly_and_saves_back_byte_identical(tmp_path):
    path = DATA / "tiny32.ckpt"
    ref = np.load(DATA / "tiny32_outputs.npz")
    model = load_checkpoint(path)
    assert model.cfg == TINY32

    latent = model.encode(ref["x"])
    assert latent.dtype == ref["latent"].dtype
    assert np.array_equal(latent, ref["latent"])
    one_by_one = np.concatenate([model.encode(item[None]) for item in ref["x"]])
    assert np.array_equal(latent, one_by_one)
    decoded = model.decode(latent)
    err = np.abs(decoded - ref["decoded"]).max() / np.abs(ref["decoded"]).max()
    assert err <= 1e-5

    again = tmp_path / "again.ckpt"
    save_checkpoint(model, again)
    assert again.read_bytes() == path.read_bytes()
