"""Slice datasets and the training loop.

Slices are min-max normalized per channel at dataset-construction time.
Slices whose brain-mask coverage falls below 1% are dropped. The train/val
split is by subject when at least two subjects are present, otherwise it
falls back to a slice-level split.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, field, replace

import numpy as np

from ..errors import DmrisliceError, InsufficientData, IoError, ShapeError
from ..volume import SliceImage, Volume4D, center_crop_pad, check_grid, normalize_slice
from .model import Autoencoder, ModelConfig
from .optim import Adam


@dataclass(frozen=True)
class TrainConfig:
    lr: float = 5e-5
    batch_size: int = 32
    epochs: int = 200
    val_fraction: float = 0.15
    seed: int = 0
    split_by: str = "subject"  # subject | slice

    def __post_init__(self):
        if self.epochs < 1 or self.batch_size < 1:
            raise ShapeError(f"epochs {self.epochs} and batch_size {self.batch_size} must be >= 1")
        if not 0 < self.lr < math.inf:
            raise ShapeError(f"learning rate must be positive and finite, got {self.lr}")
        if not 0 < self.val_fraction < 1:
            raise ShapeError("val_fraction must lie in (0, 1)")
        if self.split_by not in ("subject", "slice"):
            raise ShapeError(f"unknown split_by {self.split_by!r}")
        if self.seed < 0:
            raise ShapeError(f"seed must be non-negative, got {self.seed}")


@dataclass(frozen=True)
class SliceSample:
    data: np.ndarray  # (C, H, W), normalized to [0, 1]
    subject: str = "s0"


@dataclass
class Checkpoint:
    """Model at the minimum-validation-loss epoch plus the loss history."""

    model: Autoencoder
    history: list[tuple[int, float, float]] = field(default_factory=list)
    best_epoch: int = 0

    @property
    def best_val_mse(self) -> float:
        return self.history[self.best_epoch][2]


MIN_MASK_FRACTION = 0.01


def stacked_slices(
    vol: Volume4D, mask: Volume4D | None = None, subject: str = "s0"
) -> list[SliceSample]:
    """One multi-channel sample per z (all V values as channels), dropping
    slices whose mask coverage falls below ``MIN_MASK_FRACTION``."""
    if mask is not None:
        check_grid(mask, vol.dims, "mask")
    samples = []
    for z in range(vol.dims[2]):
        if mask is not None:
            plane = mask.data[:, :, z, 0]
            if np.count_nonzero(plane) / plane.size < MIN_MASK_FRACTION:
                continue
        normalized = normalize_slice(SliceImage(vol.data[:, :, z, :])).data
        samples.append(SliceSample(data=normalized.transpose(2, 0, 1), subject=subject))
    return samples


def slices_per_volume(
    vol: Volume4D, mask: Volume4D | None = None, subject: str = "s0"
) -> list[SliceSample]:
    """One 1-channel sample per (z, volume index), z-major: the channels of
    :func:`stacked_slices`, which normalizes each channel on its own."""
    return [
        SliceSample(data=channel[None], subject=subject)
        for sample in stacked_slices(vol, mask, subject)
        for channel in sample.data
    ]


def averaged_dwi_slices(
    dwi: Volume4D,
    n_average: int = 15,
    n_samples: int = 10,
    seed: int = 0,
    mask: Volume4D | None = None,
    subject: str = "s0",
) -> list[SliceSample]:
    """Training samples from averages of n randomly selected DWI volumes.

    Each draw averages ``n_average`` distinct volumes (all of them when fewer
    are available): their sum, added volume by volume in draw order, over
    their count. It contributes the :func:`stacked_slices` of that average,
    draw-major.
    """
    if n_average < 1 or n_samples < 1:
        raise ShapeError(f"n_average {n_average} and n_samples {n_samples} must be >= 1")
    if seed < 0:
        raise ShapeError(f"seed must be non-negative, got {seed}")
    rng = np.random.default_rng(seed)
    take = min(n_average, dwi.n_volumes)
    samples = []
    for _ in range(n_samples):
        first, *rest = rng.choice(dwi.n_volumes, size=take, replace=False)
        total = dwi.data[..., first].copy()
        for v in rest:
            total += dwi.data[..., v]
        total /= take
        samples += stacked_slices(Volume4D(total), mask, subject)
    return samples


def fit_to_size(samples: list[SliceSample], size: int) -> list[SliceSample]:
    """Center-crop or zero-pad normalized samples to a square model grid."""
    out = []
    for s in samples:
        if s.data.shape[1:] != (size, size):
            s = SliceSample(data=center_crop_pad(s.data, size), subject=s.subject)
        out.append(s)
    return out


def _split(dataset, cfg: TrainConfig, rng):
    n = len(dataset)
    subjects = sorted({s.subject for s in dataset})
    if cfg.split_by == "subject" and len(subjects) >= 2:
        order = list(rng.permutation(len(subjects)))
        target = cfg.val_fraction * n
        val_subjects = set()
        count = 0
        for idx in order:
            if count >= target and val_subjects:
                break
            if len(val_subjects) == len(subjects) - 1:
                break
            name = subjects[idx]
            val_subjects.add(name)
            count += sum(1 for s in dataset if s.subject == name)
        val_idx = [i for i, s in enumerate(dataset) if s.subject in val_subjects]
        train_idx = [i for i, s in enumerate(dataset) if s.subject not in val_subjects]
    else:
        perm = rng.permutation(n)
        n_val = max(1, int(round(cfg.val_fraction * n)))
        val_idx = list(perm[:n_val])
        train_idx = list(perm[n_val:])
    return train_idx, val_idx


def _eval_mse(model: Autoencoder, batch: np.ndarray) -> float:
    y = model.forward(batch, train=False)
    d = y - batch
    return float(np.mean(d * d))


def _open_log(path):
    """The CSV training-log file; an in-memory stand-in when there is no path."""
    if path is None:
        return io.StringIO()
    try:
        return open(path, "w", newline="")
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc}") from exc


def train(
    dataset: list[SliceSample],
    cfg: TrainConfig,
    model_cfg: ModelConfig,
    log_path=None,
) -> Checkpoint:
    """Train an autoencoder, returning the checkpoint with minimal val loss.

    Deterministic under (cfg.seed, model_cfg.seed): the split, the batch
    order, and the initialization are all driven by seeded generators.

    Every step runs the model a checkpoint stores: a float32 body behind a
    float64 closing 1x1 convolution and sigmoid (see
    :meth:`~dmrislice.ae.model.Autoencoder.astype`), with the loss in float64.

    An epoch whose train or validation MSE is not finite ends training with
    a ``DmrisliceError`` naming it, after its log row is written. NumPy's
    overflow and invalid-value warnings are silenced while training runs:
    the check on the MSE is what reports such a run.
    """
    if not dataset:
        raise InsufficientData("empty dataset")
    shapes = {s.data.shape for s in dataset}
    if len(shapes) != 1:
        raise ShapeError(f"inconsistent sample shapes: {sorted(shapes)}")

    rng = np.random.default_rng(cfg.seed)
    train_idx, val_idx = _split(dataset, cfg, rng)
    if len(train_idx) < cfg.batch_size:
        raise InsufficientData(
            f"{len(train_idx)} training slices cannot fill a batch of {cfg.batch_size}"
        )

    stack = np.stack([s.data for s in dataset])
    train_idx = np.asarray(train_idx)
    val_data = stack[val_idx]

    model = Autoencoder(model_cfg).astype(np.float32)
    opt = Adam(lr=cfg.lr)
    params = [arr for _, arr in model.parameters()]

    history = []
    best = None
    best_epoch = 0
    n_batches = len(train_idx) // cfg.batch_size
    with _open_log(log_path) as fh, np.errstate(over="ignore", invalid="ignore"):
        # One flushed row per epoch, so a killed run keeps its log.
        log = csv.writer(fh)
        log.writerow(["epoch", "train_mse", "val_mse"])
        for epoch in range(cfg.epochs):
            order = rng.permutation(len(train_idx))
            epoch_losses = []
            for b in range(n_batches):
                batch = stack[train_idx[order[b * cfg.batch_size : (b + 1) * cfg.batch_size]]]
                mse, grads = model.loss_and_grads(batch)
                opt.step(params, grads)
                epoch_losses.append(mse)
            train_mse = float(np.mean(epoch_losses))
            val_mse = _eval_mse(model, val_data)
            history.append((epoch, train_mse, val_mse))
            log.writerow(history[-1])
            fh.flush()
            if not (math.isfinite(train_mse) and math.isfinite(val_mse)):
                raise DmrisliceError(
                    f"training diverged at epoch {epoch}: train_mse {train_mse}, "
                    f"val_mse {val_mse}; try a smaller learning rate"
                )
            if best is None or val_mse < best[0]:
                best = (val_mse, model.state_snapshot())
                best_epoch = epoch

    model.load_snapshot(best[1])
    return Checkpoint(model=model, history=history, best_epoch=best_epoch)


def sweep_latent_size(
    dataset,
    cfg: TrainConfig,
    model_cfg: ModelConfig,
    m_values=(16, 32, 64, 128),
) -> tuple[Checkpoint, dict[int, float]]:
    """Train once per candidate latent width, keep the best validation loss."""
    if not m_values:
        raise ShapeError("m_values must hold at least one latent width")
    results = {}
    best_ckpt = None
    for m in m_values:
        ckpt = train(dataset, cfg, replace(model_cfg, latent_maps=m))
        results[m] = ckpt.best_val_mse
        if best_ckpt is None or ckpt.best_val_mse < best_ckpt.best_val_mse:
            best_ckpt = ckpt
    return best_ckpt, results
