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

from .errors import EmptyShell, ParseError
from .nifti import read_labels, read_nifti, write_nifti
from .phantom import PhantomData
from .volume import (
    B0_THRESHOLD,
    GradientTable,
    Volume4D,
    read_gradient_table,
    select_diffusion_shell,
    write_gradient_table,
)


def write_study(data: PhantomData, out_dir) -> None:
    os.makedirs(out_dir, exist_ok=True)
    n_b0 = data.b0.n_volumes
    bvals = np.concatenate([np.zeros(n_b0), data.gtab.bvals])
    bvecs = np.vstack([np.zeros((n_b0, 3)), data.gtab.bvecs])
    write_nifti(data.b0, os.path.join(out_dir, "dwi.nii"), data.dwi)
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


def load_study(path, b_target: float | None = None, shell_tol: float = 50.0) -> PhantomData:
    """Load a study directory back into memory.

    ``b_target`` selects the diffusion shell; by default the largest b-value
    present is used. Without a labels file every voxel is tagged with label 1
    so mask-based slice filtering keeps everything.
    """
    dwi_path = os.path.join(path, "dwi.nii")
    combined = read_nifti(dwi_path)
    gtab = read_gradient_table(
        os.path.join(path, "dwi.bval"), os.path.join(path, "dwi.bvec")
    )
    if len(gtab) != combined.n_volumes:
        raise ParseError(
            f"{path}: gradient table ({len(gtab)}) does not match dwi volumes "
            f"({combined.n_volumes})"
        )

    b0_idx = gtab.b0_mask
    if not np.any(b0_idx):
        raise EmptyShell(f"{path}: no b0 volumes (b <= {B0_THRESHOLD})")
    b0 = combined.with_data(np.compress(b0_idx, combined.data, axis=3))

    dwi, shell = select_diffusion_shell(combined, gtab, b_target, tol=shell_tol)

    labels_path = os.path.join(path, "labels.nii")
    if os.path.exists(labels_path):
        labels = read_labels(labels_path, combined.dims[:3])
    else:
        labels = Volume4D(np.ones(combined.dims[:3]))
    return PhantomData(dwi=dwi, b0=b0, gtab=shell, labels=labels)
