"""Study-directory layout: one DWI acquisition as files on disk.

A study directory holds ``dwi.nii`` (b0 volumes and the diffusion shell
together), FSL ``dwi.bval``/``dwi.bvec`` and optionally ``labels.nii`` with
tissue labels. For phantoms :func:`write_study` also writes the ground-truth
``tensors.nii``/``s0.nii`` and ``phantom.json`` for inspection;
:func:`load_study` does not read them.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict

import numpy as np

from .errors import EmptyShell
from .nifti import nifti_extents, read_labels, read_volumes, write_nifti
from .phantom import PhantomData
from .volume import (
    B0_THRESHOLD,
    SHELL_TOL,
    GradientTable,
    Volume4D,
    read_gradient_table,
    shell_window,
    write_gradient_table,
)


def write_study(data: PhantomData, out_dir) -> None:
    """Writes ``data`` as a study directory. A DWI the NIfTI header cannot
    store is refused before the directory is made."""
    dwi_path = os.path.join(out_dir, "dwi.nii")
    nifti_extents(dwi_path, data.b0, data.dwi)
    os.makedirs(out_dir, exist_ok=True)
    n_b0 = data.b0.n_volumes
    bvals = np.concatenate([np.zeros(n_b0), data.gtab.bvals])
    bvecs = np.vstack([np.zeros((n_b0, 3)), data.gtab.bvecs])
    write_nifti(data.b0, dwi_path, data.dwi)
    write_gradient_table(
        GradientTable(bvals, bvecs),
        os.path.join(out_dir, "dwi.bval"),
        os.path.join(out_dir, "dwi.bvec"),
    )
    write_nifti(data.labels, os.path.join(out_dir, "labels.nii"))
    if data.tensors is not None:
        write_nifti(data.tensors, os.path.join(out_dir, "tensors.nii"))
    if data.s0 is not None:
        write_nifti(data.s0, os.path.join(out_dir, "s0.nii"))
    if data.spec is not None:
        with open(os.path.join(out_dir, "phantom.json"), "w") as fh:
            json.dump(asdict(data.spec), fh, indent=2, sort_keys=True)
            fh.write("\n")


def load_study(path, b_target: float | None = None, shell_tol: float = SHELL_TOL) -> PhantomData:
    """Load a study directory back into memory.

    ``b_target`` selects the diffusion shell; by default the largest b-value
    present is used. The gradient table is read first, so ``dwi.nii`` is
    read once into the b0 volumes and the shell's; the volumes of other
    shells are checked but not kept. Without a labels file every voxel is
    tagged with label 1 so mask-based slice filtering keeps everything.
    """
    gtab = read_gradient_table(
        os.path.join(path, "dwi.bval"), os.path.join(path, "dwi.bvec")
    )
    if not np.any(gtab.b0_mask):
        raise EmptyShell(f"{path}: no b0 volumes (b <= {B0_THRESHOLD})")
    keep, shell = shell_window(gtab, b_target, shell_tol)
    b0, dwi = read_volumes(os.path.join(path, "dwi.nii"), gtab.b0_mask, keep)

    labels_path = os.path.join(path, "labels.nii")
    if os.path.exists(labels_path):
        labels = read_labels(labels_path, dwi.dims[:3])
    else:
        labels = Volume4D(np.ones(dwi.dims[:3]))
    return PhantomData(dwi=dwi, b0=b0, gtab=shell, labels=labels)
