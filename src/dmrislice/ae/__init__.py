"""Convolutional autoencoder: layers, model, optimizer, training, checkpoints."""

from .checkpoint import load_checkpoint, save_checkpoint
from .model import Autoencoder, ModelConfig
from .optim import Adam
from .train import (
    Checkpoint,
    SliceSample,
    TrainConfig,
    averaged_dwi_slices,
    fit_to_size,
    slices_per_volume,
    stacked_slices,
    sweep_latent_size,
    train,
)

__all__ = [
    "Adam",
    "Autoencoder",
    "averaged_dwi_slices",
    "Checkpoint",
    "fit_to_size",
    "load_checkpoint",
    "ModelConfig",
    "save_checkpoint",
    "SliceSample",
    "slices_per_volume",
    "stacked_slices",
    "sweep_latent_size",
    "train",
    "TrainConfig",
]
