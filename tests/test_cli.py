import csv
import inspect
import json
import os
import re
import shlex
import shutil
import struct
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mutation
import dmrislice.cli as cli
from dmrislice.ae import Autoencoder, ModelConfig, TrainConfig, load_checkpoint, save_checkpoint
from dmrislice.ae.train import _split, averaged_dwi_slices
from dmrislice.cli import _build_dataset, build_parser, dispatch, parse_config_file
from dmrislice.dti import dti_scalars, fit_dti
from dmrislice.errors import DmrisliceError, ParseError, ShapeError
from dmrislice.evaluate import DEFAULT_METHODS, run_experiment
from dmrislice.inference import infer_gap_sh
from dmrislice.nifti import read_labels, read_nifti, write_nifti
from dmrislice.phantom import PhantomSpec
from dmrislice.sh import ShCoeffVolume, fit_sh, read_sh, sh_roundtrip_error, write_sh
from dmrislice.study import load_study
from dmrislice.volume import GapSpec, Volume4D, read_gradient_table, shell_window


@pytest.fixture(scope="module")
def study_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("study")
    code = dispatch(
        ["phantom", "--dims", "16,16,8", "--directions", "20", "--b0", "2",
         "--out", str(path), "--seed", "3"]
    )
    assert code == 0
    return path


def test_phantom_writes_study(study_dir):
    assert (study_dir / "dwi.nii").exists()
    assert (study_dir / "dwi.bval").exists()
    v = read_nifti(study_dir / "dwi.nii")
    assert v.dims == (16, 16, 8, 22)  # 2 b0 + 20 dwi


def test_phantom_deterministic(tmp_path, study_dir):
    other = tmp_path / "again"
    dispatch(
        ["phantom", "--dims", "16,16,8", "--directions", "20", "--b0", "2",
         "--out", str(other), "--seed", "3"]
    )
    assert (other / "dwi.nii").read_bytes() == (study_dir / "dwi.nii").read_bytes()


def test_fit_sh_emits_15_channels(study_dir, tmp_path):
    out = tmp_path / "sh.nii"
    code = dispatch(
        ["fit-sh", "--dwi", str(study_dir / "dwi.nii"), "--bval", str(study_dir / "dwi.bval"),
         "--bvec", str(study_dir / "dwi.bvec"), "--lmax", "4", "--out", str(out)]
    )
    assert code == 0
    sh = read_sh(out)
    assert sh.volume.n_volumes == 15
    assert json.loads((tmp_path / "sh.json").read_text())["basis"] == "modified_real_symmetric"


def test_a_masked_fit_sh_writes_the_bytes_of_the_whole_file_path(study_dir, tmp_path):
    # fit-sh reads only the shell's volumes; the coefficients are those of
    # the shell selected from the whole file's volume.
    out = tmp_path / "sh.nii"
    code = dispatch(
        ["fit-sh", "--dwi", str(study_dir / "dwi.nii"), "--bval", str(study_dir / "dwi.bval"),
         "--bvec", str(study_dir / "dwi.bvec"), "--mask", str(study_dir / "labels.nii"),
         "--out", str(out)]
    )
    assert code == 0
    combined = read_nifti(study_dir / "dwi.nii")
    gtab = read_gradient_table(study_dir / "dwi.bval", study_dir / "dwi.bvec")
    keep, shell = shell_window(gtab, 1000.0)
    shell_vol = combined.with_data(np.compress(keep, combined.data, axis=3))
    mask = read_labels(study_dir / "labels.nii", combined.dims)
    write_sh(fit_sh(shell_vol, shell, mask=mask), tmp_path / "whole.nii")
    assert out.read_bytes() == (tmp_path / "whole.nii").read_bytes()
    assert (tmp_path / "sh.json").read_bytes() == (tmp_path / "whole.json").read_bytes()


def test_a_regularized_fit_sh_writes_the_bytes_of_the_library_fit(study_dir, tmp_path):
    out = tmp_path / "sh.nii"
    code = dispatch(
        ["fit-sh", "--dwi", str(study_dir / "dwi.nii"), "--bval", str(study_dir / "dwi.bval"),
         "--bvec", str(study_dir / "dwi.bvec"), "--reg", "0.01", "--out", str(out)]
    )
    assert code == 0
    data = load_study(study_dir)
    sh = fit_sh(data.dwi, data.gtab, lambda_reg=0.01)
    assert sh.lambda_reg == 0.01
    write_sh(sh, tmp_path / "lib.nii")
    assert out.read_bytes() == (tmp_path / "lib.nii").read_bytes()
    assert (tmp_path / "sh.json").read_bytes() == (tmp_path / "lib.json").read_bytes()
    # The penalty moves the coefficients: the regularized branch ran.
    write_sh(fit_sh(data.dwi, data.gtab), tmp_path / "plain.nii")
    assert out.read_bytes() != (tmp_path / "plain.nii").read_bytes()


def test_project_sh_roundtrip(study_dir, tmp_path):
    sh_path = tmp_path / "sh.nii"
    dispatch(
        ["fit-sh", "--dwi", str(study_dir / "dwi.nii"), "--bval", str(study_dir / "dwi.bval"),
         "--bvec", str(study_dir / "dwi.bvec"), "--lmax", "4", "--out", str(sh_path)]
    )
    out = tmp_path / "proj.nii"
    code = dispatch(
        ["project-sh", "--sh", str(sh_path), "--bval", str(study_dir / "dwi.bval"),
         "--bvec", str(study_dir / "dwi.bvec"), "--out", str(out)]
    )
    assert code == 0
    assert read_nifti(out).dims == (16, 16, 8, 20)


def test_project_sh_onto_a_table_without_weighted_directions_exits_2(study_dir, tmp_path, capsys):
    sh_path = tmp_path / "sh.nii"
    dispatch(
        ["fit-sh", "--dwi", str(study_dir / "dwi.nii"), "--bval", str(study_dir / "dwi.bval"),
         "--bvec", str(study_dir / "dwi.bvec"), "--lmax", "4", "--out", str(sh_path)]
    )
    (tmp_path / "b0.bval").write_text("0 0\n")
    (tmp_path / "b0.bvec").write_text("0 0\n0 0\n0 0\n")
    capsys.readouterr()
    out = tmp_path / "proj.nii"
    code = dispatch(
        ["project-sh", "--sh", str(sh_path), "--bval", str(tmp_path / "b0.bval"),
         "--bvec", str(tmp_path / "b0.bvec"), "--out", str(out)]
    )
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("dmrislice: ") and "no diffusion-weighted directions" in err
    assert err.count("\n") == 1
    assert not out.exists()


def test_fit_dti_without_an_output_is_a_usage_error(tmp_path, capsys):
    # Exits before the study is read: there is none here.
    assert dispatch(["fit-dti", "--data", str(tmp_path / "missing")]) == 1
    err = capsys.readouterr().err
    assert "--out-fa, --out-md or --out-tensor" in err and err.count("\n") == 1


def test_fit_dti_outputs(study_dir, tmp_path):
    code = dispatch(
        ["fit-dti", "--data", str(study_dir), "--out-fa", str(tmp_path / "fa.nii"),
         "--out-md", str(tmp_path / "md.nii"), "--out-tensor", str(tmp_path / "dt.nii")]
    )
    assert code == 0
    fa = read_nifti(tmp_path / "fa.nii")
    assert fa.dims == (16, 16, 8, 1)
    assert float(fa.data.max()) <= 1.0
    assert read_nifti(tmp_path / "dt.nii").dims == (16, 16, 8, 6)


def test_a_masked_fit_dti_writes_the_fa_of_the_library_fit(study_dir, tmp_path):
    out = tmp_path / "fa.nii"
    mask_path = study_dir / "labels.nii"
    code = dispatch(
        ["fit-dti", "--data", str(study_dir), "--mask", str(mask_path), "--out-fa", str(out)]
    )
    assert code == 0
    data = load_study(study_dir)
    mask = read_labels(mask_path, data.dwi.dims[:3])
    fa, _ = dti_scalars(fit_dti(data.dwi, data.b0, data.gtab, mask=mask))
    write_nifti(fa, tmp_path / "lib.nii")
    assert out.read_bytes() == (tmp_path / "lib.nii").read_bytes()
    # Voxels outside the mask are zeroed, and the mask leaves some out.
    outside = mask.data[..., 0] == 0
    assert outside.any() and not read_nifti(out).data[outside].any()


def test_interp_writes_slices_and_volume(study_dir, tmp_path):
    out = tmp_path / "interp"
    code = dispatch(
        ["interp", "--input", str(study_dir / "dwi.nii"), "--gap-start", "3",
         "--n", "2", "--method", "linear", "--out", str(out)]
    )
    assert code == 0
    assert (out / "slice_003.nii").exists()
    assert (out / "slice_004.nii").exists()
    assert (out / "volume.nii").exists()


# Spacing and an oblique affine with entries float32 cannot hold exactly.
OBLIQUE_SPACING = (1.5, 1.25, 2.5)
OBLIQUE_AFFINE = np.array(
    [[0.0, -1.25, 0.3, 10.1], [1.5, 0.0, -0.2, -4.7], [0.0, 0.1, 2.5, 7.3], [0.0, 0.0, 0.0, 1.0]]
)


def _assert_slice_files_line_up(out, names_by_z):
    """Each slice file keeps volume.nii's spacing, holds its slice z, and has
    volume.nii's affine with the origin moved by z times the third column,
    as float32 stores it."""
    vol = read_nifti(out / "volume.nii")
    for z, name in names_by_z:
        s = read_nifti(out / name)
        expected = vol.affine.copy()
        expected[:3, 3] += z * expected[:3, 2]
        assert not np.array_equal(expected, vol.affine)
        assert np.array_equal(s.affine, expected.astype(np.float32)), name
        assert s.spacing == vol.spacing == OBLIQUE_SPACING
        if not name.startswith("b0"):
            assert np.array_equal(s.data[:, :, 0], vol.data[:, :, z]), name


def test_slice_files_line_up_with_their_volume(study_dir, tmp_path):
    study = tmp_path / "study"
    shutil.copytree(study_dir, study)
    dwi = read_nifti(study_dir / "dwi.nii")
    write_nifti(
        Volume4D(dwi.data, spacing=OBLIQUE_SPACING, affine=OBLIQUE_AFFINE), study / "dwi.nii"
    )

    out = tmp_path / "interp"
    assert dispatch(["interp", "--input", str(study / "dwi.nii"), "--gap-start", "3",
                     "--n", "2", "--out", str(out)]) == 0
    _assert_slice_files_line_up(out, [(3, "slice_003.nii"), (4, "slice_004.nii")])

    ckpt = tmp_path / "m.ckpt"
    save_checkpoint(Autoencoder(ModelConfig(latent_maps=2, input_size=16, base_width=1)), ckpt)
    out = tmp_path / "infer"
    assert dispatch(["infer", "--data", str(study), "--model", str(ckpt), "--b0-model",
                     str(ckpt), "--gap-start", "3", "--n", "2", "--out", str(out)]) == 0
    _assert_slice_files_line_up(
        out, [(3, "slice_003.nii"), (4, "slice_004.nii"),
              (3, "b0_slice_003.nii"), (4, "b0_slice_004.nii")]
    )


@pytest.mark.parametrize("command", ["interp", "infer"])
def test_volume_is_the_input_with_the_gap_filled_by_the_slice_files(
    study_dir, tiny_ckpt, tmp_path, command
):
    # Gap of N = 2 at z = 3: volume.nii holds the input at z 0-2 and 5-7, and
    # slice_003.nii and slice_004.nii at z 3 and 4, byte for byte.
    out = tmp_path / "out"
    if command == "interp":
        argv = ["interp", "--input", str(study_dir / "dwi.nii")]
        original = read_nifti(study_dir / "dwi.nii").data
    else:
        argv = ["infer", "--data", str(study_dir), "--model", str(tiny_ckpt), "--domain", "signal"]
        original = load_study(study_dir).dwi.data
    assert dispatch([*argv, "--gap-start", "3", "--n", "2", "--out", str(out)]) == 0
    filled = read_nifti(out / "volume.nii").data
    assert filled.shape == original.shape
    outside = [0, 1, 2, 5, 6, 7]
    assert filled[:, :, outside].tobytes() == original[:, :, outside].tobytes()
    for z in (3, 4):
        s = read_nifti(out / f"slice_{z:03d}.nii").data
        assert s.shape == filled[:, :, z : z + 1].shape
        assert s.tobytes() == filled[:, :, z : z + 1].tobytes()
        assert not np.array_equal(s[:, :, 0], original[:, :, z])


def test_train_and_infer_signal(study_dir, tmp_path):
    ckpt = tmp_path / "m.ckpt"
    code = dispatch(
        ["train", "--data", str(study_dir), "--net", "avg-b1000", "--avg-n", "15",
         "--avg-samples", "2", "--m", "2", "--base-width", "1", "--epochs", "2",
         "--batch", "4", "--lr", "1e-3", "--split-by", "slice", "--out", str(ckpt)]
    )
    assert code == 0 and ckpt.exists()
    out = tmp_path / "inferred"
    code = dispatch(
        ["infer", "--data", str(study_dir), "--model", str(ckpt), "--domain", "signal",
         "--gap-start", "3", "--n", "2", "--out", str(out)]
    )
    assert code == 0
    assert (out / "slice_003.nii").exists() and (out / "slice_004.nii").exists()


def test_train_sh4_and_infer_sh_domain(study_dir, tmp_path):
    sh_ckpt = tmp_path / "sh.ckpt"
    b0_ckpt = tmp_path / "b0.ckpt"
    assert dispatch(
        ["train", "--data", str(study_dir), "--net", "sh4", "--m", "2", "--base-width", "1",
         "--epochs", "2", "--batch", "4", "--lr", "1e-3", "--split-by", "slice",
         "--out", str(sh_ckpt)]
    ) == 0
    assert dispatch(
        ["train", "--data", str(study_dir), "--net", "b0", "--m", "2", "--base-width", "1",
         "--epochs", "2", "--batch", "4", "--lr", "1e-3", "--split-by", "slice",
         "--out", str(b0_ckpt)]
    ) == 0
    out = tmp_path / "sh_inferred"
    code = dispatch(
        ["infer", "--data", str(study_dir), "--model", str(sh_ckpt), "--b0-model", str(b0_ckpt),
         "--domain", "sh4", "--gap-start", "3", "--n", "2", "--out", str(out)]
    )
    assert code == 0
    inferred = read_nifti(out / "slice_003.nii")
    assert inferred.dims == (16, 16, 1, 20)  # back on the acquisition directions
    assert (out / "b0_slice_003.nii").exists()


def test_infer_reads_the_sh_order_from_the_sh4_net(study_dir, tmp_path, capsys):
    sh_ckpt, b0_ckpt = tmp_path / "sh2.ckpt", tmp_path / "b0.ckpt"
    assert dispatch(
        ["train", "--data", str(study_dir), "--net", "sh4", "--lmax", "2", "--m", "2",
         "--base-width", "1", "--epochs", "1", "--batch", "4", "--split-by", "slice",
         "--out", str(sh_ckpt)]
    ) == 0
    assert load_checkpoint(sh_ckpt).cfg.input_channels == 6
    save_checkpoint(Autoencoder(ModelConfig(latent_maps=2, input_size=16, base_width=1)), b0_ckpt)
    infer = ["infer", "--data", str(study_dir), "--b0-model", str(b0_ckpt), "--domain", "sh4",
             "--gap-start", "3"]
    out = tmp_path / "sh2_inferred"
    assert dispatch([*infer, "--model", str(sh_ckpt), "--out", str(out)]) == 0
    assert read_nifti(out / "slice_003.nii").dims == (16, 16, 1, 20)

    # Three channels are no SH coefficient count (1, 6, 15, ...).
    odd = tmp_path / "odd.ckpt"
    save_checkpoint(
        Autoencoder(ModelConfig(input_channels=3, latent_maps=2, input_size=16, base_width=1)),
        odd,
    )
    capsys.readouterr()
    assert dispatch([*infer, "--model", str(odd), "--out", str(tmp_path / "odd")]) == 2
    err = capsys.readouterr().err
    assert "no SH order has 3 coefficients" in err and err.count("\n") == 1


def test_evaluate_with_a_one_channel_sh_net_exits_2(study_dir, tmp_path, capsys):
    one = tmp_path / "one.ckpt"
    save_checkpoint(Autoencoder(ModelConfig(latent_maps=2, input_size=16, base_width=1)), one)
    out = tmp_path / "report"
    assert dispatch(
        ["evaluate", "--data", str(study_dir), "--methods", "ae-sh4", "--gaps", "3", "--n", "1",
         "--sh-model", str(one), "--b0-model", str(one), "--out", str(out)]
    ) == 2
    err = capsys.readouterr().err
    assert err == "dmrislice: SH order 4 needs an SH net of 15 input channels, not 1\n"
    assert not out.exists()


def test_train_multiple_subjects_split(study_dir, tmp_path):
    # a second study acts as a second subject; the default split is by subject
    other = tmp_path / "study_b"
    assert dispatch(
        ["phantom", "--dims", "16,16,8", "--directions", "20", "--b0", "2",
         "--out", str(other), "--seed", "4"]
    ) == 0
    ckpt = tmp_path / "multi.ckpt"
    code = dispatch(
        ["train", "--data", str(study_dir), str(other), "--net", "b0",
         "--m", "2", "--base-width", "1", "--epochs", "2", "--batch", "4",
         "--lr", "1e-3", "--out", str(ckpt)]
    )
    assert code == 0 and ckpt.exists()

    # Two studies in directories of one name are two subjects, each held out whole.
    a, b = tmp_path / "a" / "study", tmp_path / "b" / "study"
    shutil.copytree(study_dir, a)
    shutil.copytree(other, b)
    argv = [*TRAIN, "--split-by", "subject", "--data", str(a), str(b),
            "--out", str(tmp_path / "same_name.ckpt")]
    dataset = _build_dataset(build_parser().parse_args(argv))
    assert len({s.subject for s in dataset}) == 2
    train_idx, val_idx = _split(dataset, TrainConfig(), np.random.default_rng(0))
    held_out = {dataset[i].subject for i in val_idx}
    assert held_out and held_out.isdisjoint(dataset[i].subject for i in train_idx)
    assert dispatch(argv) == 0


@pytest.mark.parametrize("order", [("s16", "s40"), ("s40", "s16")], ids=["16-40", "40-16"])
def test_train_grid_fits_the_largest_study_in_any_order(tmp_path, order):
    for name, side in (("s16", 16), ("s40", 40)):
        argv = [*PHANTOM, "--dims", f"{side},{side},6", "--out", str(tmp_path / name)]
        assert dispatch(argv) == 0
    ckpt = tmp_path / "m.ckpt"
    assert dispatch([*TRAIN, "--data", *(str(tmp_path / name) for name in order),
                     "--out", str(ckpt)]) == 0
    assert load_checkpoint(ckpt).cfg.input_size == 48  # 40 up to a multiple of 16


def test_train_sweep_checks_every_width_before_training(study_dir, tmp_path, capsys):
    out = tmp_path / "m.ckpt"
    assert dispatch([*TRAIN, "--data", str(study_dir), "--sweep-m", "2,0", "--verbose",
                     "--out", str(out)]) == 2
    assert capsys.readouterr() == ("", "dmrislice: channel counts must be positive\n")
    assert not out.exists()


def test_evaluate_report(study_dir, tmp_path):
    out = tmp_path / "report"
    code = dispatch(
        ["evaluate", "--data", str(study_dir), "--methods", "linear,cubic",
         "--gaps", "2,3,4", "--n", "1", "--out", str(out)]
    )
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    assert set(report["results"]["1"]) == {"linear", "cubic"}
    assert (out / "report.csv").exists()


def test_evaluate_folds_block_is_the_library_one(study_dir, tmp_path):
    out = tmp_path / "report"
    code = dispatch(
        ["evaluate", "--data", str(study_dir), "--methods", "linear,cubic",
         "--gaps", "2,3,4", "--n", "1", "--folds", "2", "--out", str(out)]
    )
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    lib = run_experiment(load_study(study_dir), methods=("linear", "cubic"), gaps=(2, 3, 4),
                         n_values=(1,), folds=2)
    assert report["folds"] == json.loads(lib.to_json())["folds"]
    folds = report["folds"]["1"]
    assert (folds["fold0"]["gaps"], folds["fold1"]["gaps"]) == ([2, 4], [3])


def test_sh_bound_prints_value(study_dir, tmp_path, capsys):
    out = tmp_path / "bound.json"
    code = dispatch(["sh-bound", "--data", str(study_dir), "--lmax", "4", "--out", str(out)])
    assert code == 0
    printed = capsys.readouterr().out.strip()
    assert float(printed) >= 0.0
    assert json.loads(out.read_text())["lmax"] == 4


def test_usage_errors_exit_1(capsys):
    with pytest.raises(SystemExit) as exc:
        dispatch(["frobnicate"])
    assert exc.value.code == 1
    assert dispatch([]) == 1


def test_data_errors_exit_2(tmp_path):
    code = dispatch(["evaluate", "--data", str(tmp_path / "missing"), "--out", str(tmp_path / "r")])
    assert code == 2


@pytest.mark.parametrize("bad", [0.5, -1.0])
def test_malformed_labels_and_masks_exit_2(study_dir, tmp_path, capsys, bad):
    labels = read_nifti(study_dir / "labels.nii").data.copy()
    labels[4, 5, 2, 0] = bad
    mask = tmp_path / "mask.nii"
    write_nifti(Volume4D(labels), mask)
    assert dispatch(["sh-bound", "--data", str(study_dir), "--mask", str(mask)]) == 2
    assert "labels must be non-negative integers" in capsys.readouterr().err

    study = tmp_path / "study"
    shutil.copytree(study_dir, study)
    shutil.copy(mask, study / "labels.nii")
    assert dispatch(["sh-bound", "--data", str(study)]) == 2
    assert "labels must be non-negative integers" in capsys.readouterr().err


def test_corrupt_checkpoint_exits_2(study_dir, tmp_path):
    ckpt = tmp_path / "m.ckpt"
    save_checkpoint(Autoencoder(ModelConfig(latent_maps=2, input_size=16, base_width=1)), ckpt)
    ckpt.write_bytes(ckpt.read_bytes() + b"\x00")  # a byte after the last tensor
    code = dispatch(
        ["infer", "--data", str(study_dir), "--model", str(ckpt), "--gap-start", "3",
         "--out", str(tmp_path / "out")]
    )
    assert code == 2


def test_checkpoint_with_a_nan_weight_exits_2(study_dir, tmp_path, capsys):
    ckpt = tmp_path / "m.ckpt"
    save_checkpoint(Autoencoder(ModelConfig(latent_maps=2, input_size=16, base_width=1)), ckpt)
    raw = bytearray(ckpt.read_bytes())
    first_value = 9 + int.from_bytes(raw[5:9], "little")  # layer00.w[0, 0, 0, 0]
    raw[first_value : first_value + 4] = np.float32(np.nan).tobytes()
    ckpt.write_bytes(bytes(raw))
    code = dispatch(
        ["infer", "--data", str(study_dir), "--model", str(ckpt), "--gap-start", "3",
         "--out", str(tmp_path / "out")]
    )
    assert code == 2
    err = capsys.readouterr().err
    assert "layer00.w holds a non-finite value" in err and err.count("\n") == 1
    assert not (tmp_path / "out").exists()


def test_checkpoint_with_the_removed_config_keys_exits_2(study_dir, tmp_path, capsys):
    # The header config of checkpoints saved while the decoder mode and the
    # batch-norm constants were model options: three keys more than today's.
    ckpt = tmp_path / "old.ckpt"
    save_checkpoint(Autoencoder(ModelConfig(latent_maps=2, input_size=16, base_width=1)), ckpt)
    raw = ckpt.read_bytes()
    n = int.from_bytes(raw[5:9], "little")
    header = json.loads(raw[9 : 9 + n])
    header["config"].update(upsample="nearest", bn_momentum=0.99, bn_eps=0.001)
    blob = json.dumps(header, sort_keys=True).encode()
    ckpt.write_bytes(raw[:5] + len(blob).to_bytes(4, "little") + blob + raw[9 + n :])
    for argv in (
        ["infer", "--data", str(study_dir), "--model", str(ckpt), "--gap-start", "3",
         "--out", str(tmp_path / "out")],
        ["evaluate", "--data", str(study_dir), "--methods", "ae-signal", "--gaps", "3",
         "--n", "1", "--signal-model", str(ckpt), "--b0-model", str(ckpt),
         "--out", str(tmp_path / "report")],
    ):
        assert dispatch(argv) == 2
        err = capsys.readouterr().err
        assert "config must hold exactly the keys" in err and err.count("\n") == 1


@pytest.mark.parametrize("command, option, value", [("train", "reg", "0"), ("infer", "lmax", "4")])
def test_options_that_served_one_value_are_usage_errors(
    study_dir, tmp_path, command, option, value
):
    # train fits SH with lambda = 0 for the sh4 net, as infer and evaluate do;
    # infer reads the SH order from the sh4 net.
    argv = {
        "train": ["train", "--data", str(study_dir), "--net", "sh4"],
        "infer": ["infer", "--data", str(study_dir), "--model", "m.ckpt", "--gap-start", "3"],
    }[command] + ["--out", str(tmp_path / "out")]
    with pytest.raises(SystemExit) as exc:
        dispatch(argv + [f"--{option}", value])
    assert exc.value.code == 1
    cfg = tmp_path / "c.toml"
    cfg.write_text(f"{option} = {value}\n")
    assert dispatch(argv + ["--config", str(cfg)]) == 1
    assert not (tmp_path / "out").exists()


def test_removed_upsample_option_is_a_usage_error(study_dir, tmp_path):
    argv = ["train", "--data", str(study_dir), "--net", "b0", "--out", str(tmp_path / "m.ckpt")]
    with pytest.raises(SystemExit) as exc:
        dispatch(argv + ["--upsample", "nearest"])
    assert exc.value.code == 1
    cfg = tmp_path / "c.toml"
    cfg.write_text("upsample = nearest\n")
    assert dispatch(argv + ["--config", str(cfg)]) == 1
    assert not (tmp_path / "m.ckpt").exists()


TRAIN = ["train", "--net", "b0", "--m", "2", "--base-width", "1", "--epochs", "1",
         "--batch", "4", "--split-by", "slice"]
PHANTOM = ["phantom", "--dims", "8,8,6", "--directions", "6"]
# Counts and sizes below 1, negative seeds, and numbers that are not finite
# or out of range; each must end as a data error.
BAD_VALUES = {
    "epochs-0": [*TRAIN, "--epochs", "0"],
    "batch-0": [*TRAIN, "--batch", "0"],
    "batch-negative": [*TRAIN, "--batch", "-2"],
    "avg-n-negative": [*TRAIN, "--net", "avg-b1000", "--avg-n", "-1"],
    "avg-n-0": [*TRAIN, "--net", "avg-b1000", "--avg-n", "0"],
    "avg-samples-0": [*TRAIN, "--net", "avg-b1000", "--avg-samples", "0"],
    "input-size-negative": [*TRAIN, "--input-size", "-16"],
    "b0-negative": [*PHANTOM, "--b0", "-1"],
    "b0-0": [*PHANTOM, "--b0", "0"],
    "phantom-seed-negative": [*PHANTOM, "--seed", "-1"],
    "train-seed-negative": [*TRAIN, "--net", "avg-b1000", "--seed", "-1"],
    "bvalue-nan": [*PHANTOM, "--bvalue", "nan"],
    "bvalue-0": [*PHANTOM, "--bvalue", "0"],
    "bvalue-b0": [*PHANTOM, "--bvalue", "50"],
    "sigma-inf": [*PHANTOM, "--noise", "rician", "--sigma", "inf"],
    "sigma-nan": [*PHANTOM, "--sigma", "nan"],
    "lr-nan": [*TRAIN, "--lr", "nan"],
    "lr-inf": [*TRAIN, "--lr", "inf"],
    "lr-diverging": [*TRAIN, "--lr", "1e30"],
}


@pytest.mark.parametrize("argv", BAD_VALUES.values(), ids=BAD_VALUES.keys())
def test_counts_below_one_exit_2(study_dir, tmp_path, capsys, argv):
    out = tmp_path / "out"
    data = ["--data", str(study_dir)] if argv[0] == "train" else []
    assert dispatch([*argv, *data, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("dmrislice: ") and err.count("\n") == 1
    assert not out.exists()


def test_a_phantom_of_more_volumes_than_nifti_stores_exits_2(tmp_path, capsys):
    # 4 b0 volumes and 40000 directions: NIfTI-1 stores at most 32767.
    out = tmp_path / "out"
    assert dispatch(["phantom", "--dims", "4,4,4", "--directions", "40000",
                     "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == (
        f"dmrislice: cannot write {out / 'dwi.nii'}: NIfTI-1 stores each extent as an int16, "
        "at most 32767, got (4, 4, 4, 40004)\n"
    )
    assert not out.exists()


@pytest.mark.parametrize(
    "command", ["fit-sh", "fit-dti", "sh-bound", "train", "evaluate", "infer"]
)
def test_a_shell_tolerance_that_reaches_the_b0_volumes_exits_2(study_dir, tmp_path, capsys,
                                                                command):
    out = tmp_path / "out"
    argv = {
        "fit-sh": ["fit-sh", "--dwi", str(study_dir / "dwi.nii"),
                   "--bval", str(study_dir / "dwi.bval"), "--bvec", str(study_dir / "dwi.bvec"),
                   "--out", str(out)],
        "fit-dti": ["fit-dti", "--data", str(study_dir), "--out-fa", str(out)],
        "sh-bound": ["sh-bound", "--data", str(study_dir), "--out", str(out)],
        "train": [*TRAIN, "--data", str(study_dir), "--out", str(out)],
        "evaluate": ["evaluate", "--data", str(study_dir), "--methods", "linear",
                     "--gaps", "3", "--n", "1", "--out", str(out)],
        # The study is read before the model, so no checkpoint is needed.
        "infer": ["infer", "--data", str(study_dir), "--model", str(tmp_path / "m.ckpt"),
                  "--gap-start", "3", "--out", str(out)],
    }[command]
    if command in ("fit-sh", "fit-dti"):  # b = 1000 against b0 volumes at b = 0
        assert dispatch([*argv, "--shell-tol", "999"]) == 0
        assert out.exists()
        out.unlink()
        capsys.readouterr()
    assert dispatch([*argv, "--shell-tol", "1000"]) == 2
    err = capsys.readouterr().err
    assert err == ("dmrislice: shell tolerance 1000.0 around b = 1000.0 reaches the b0 volumes "
                   "(b <= 50.0)\n")
    assert not out.exists()


@pytest.mark.parametrize("command", ["train", "fit-sh", "fit-dti", "sh-bound", "evaluate"])
def test_labels_on_another_grid_exit_2(study_dir, tmp_path, capsys, command):
    small = tmp_path / "labels.nii"
    write_nifti(Volume4D(np.ones((8, 8, 4, 1))), small)
    study = tmp_path / "study"
    shutil.copytree(study_dir, study)
    shutil.copy(small, study / "labels.nii")
    out = tmp_path / "out"
    argv = {
        "train": [*TRAIN, "--data", str(study), "--out", str(out)],
        "fit-sh": ["fit-sh", "--dwi", str(study_dir / "dwi.nii"),
                   "--bval", str(study_dir / "dwi.bval"), "--bvec", str(study_dir / "dwi.bvec"),
                   "--mask", str(small), "--out", str(out)],
        "fit-dti": ["fit-dti", "--data", str(study_dir), "--mask", str(small),
                    "--out-fa", str(out)],
        "sh-bound": ["sh-bound", "--data", str(study_dir), "--mask", str(small),
                     "--out", str(out)],
        "evaluate": ["evaluate", "--data", str(study), "--methods", "linear", "--gaps", "3",
                     "--n", "1", "--out", str(out)],
    }[command]
    assert dispatch(argv) == 2
    err = capsys.readouterr().err
    assert "(8, 8, 4)" in err and "(16, 16, 8)" in err and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("command", ["fit-sh", "fit-dti", "sh-bound"])
def test_a_mask_selecting_no_voxel_exits_2(study_dir, tmp_path, capsys, command):
    empty = tmp_path / "empty.nii"
    write_nifti(Volume4D(np.zeros((16, 16, 8, 1))), empty)
    out = tmp_path / "out"
    argv = {
        "fit-sh": ["fit-sh", "--dwi", str(study_dir / "dwi.nii"),
                   "--bval", str(study_dir / "dwi.bval"), "--bvec", str(study_dir / "dwi.bvec"),
                   "--mask", str(empty), "--out", str(out)],
        "fit-dti": ["fit-dti", "--data", str(study_dir), "--mask", str(empty),
                    "--out-fa", str(out)],
        "sh-bound": ["sh-bound", "--data", str(study_dir), "--mask", str(empty),
                     "--out", str(out)],
    }[command]
    assert dispatch(argv) == 2
    assert capsys.readouterr().err == "dmrislice: mask selects no voxels\n"
    assert not out.exists()


def test_infer_checks_its_inputs_before_it_makes_its_output_directory(
    study_dir, tiny_ckpt, tmp_path, capsys
):
    out = tmp_path / "out"
    infer = ["infer", "--data", str(study_dir), "--model", str(tiny_ckpt), "--gap-start", "3",
             "--out", str(out)]
    assert dispatch([*infer, "--domain", "sh4"]) == 1
    assert capsys.readouterr().err == "dmrislice: infer --domain sh4 needs --b0-model\n"
    assert not out.exists()
    assert dispatch([*infer, "--b0-model", str(tmp_path / "missing.ckpt")]) == 2
    assert capsys.readouterr().err.count("\n") == 1
    assert not out.exists()


# One perturbed file of a study: a labels.nii or a --mask on some (X, Y, Z)
# grid, or a dwi.nii with some volume count against the 22 of dwi.bval.
GRIDS = st.tuples(st.integers(1, 20), st.integers(1, 20), st.integers(1, 10))
PERTURBATIONS = st.one_of(
    st.tuples(st.just("labels"), GRIDS),
    st.tuples(st.just("mask"), GRIDS),
    st.tuples(st.just("volumes"), st.integers(1, 30)),
)


def _study_commands(study, mask, out):
    """The fast subcommands that read a study or a mask."""
    masked = ["--mask", str(mask)] if mask else []
    return [
        ["fit-sh", "--dwi", str(study / "dwi.nii"), "--bval", str(study / "dwi.bval"),
         "--bvec", str(study / "dwi.bvec"), *masked, "--out", str(out / "sh.nii")],
        ["fit-dti", "--data", str(study), *masked, "--out-fa", str(out / "fa.nii")],
        ["interp", "--input", str(study / "dwi.nii"), "--gap-start", "3",
         "--out", str(out / "interp")],
        ["sh-bound", "--data", str(study), *masked, "--out", str(out / "bound.json")],
        ["evaluate", "--data", str(study), "--methods", "linear,cubic,bspline5",
         "--gaps", "3", "--n", "1", "--out", str(out / "report")],
    ]


@settings(max_examples=50, deadline=None)
@given(PERTURBATIONS, st.integers(0, 2**32 - 1))
def test_perturbed_study_exits_0_or_2(study_dir, perturbation, seed):
    kind, arg = perturbation
    rng = np.random.default_rng(seed)
    with tempfile.TemporaryDirectory() as tmp:
        study, out = Path(tmp) / "study", Path(tmp) / "out"
        shutil.copytree(study_dir, study)
        mask = None
        if kind == "volumes":
            dwi = read_nifti(study / "dwi.nii")
            picked = rng.integers(0, dwi.n_volumes, size=arg)
            write_nifti(dwi.with_data(dwi.data[..., picked]), study / "dwi.nii")
        else:
            labels = Volume4D(rng.integers(0, 5, size=arg).astype(float))
            target = study / "labels.nii" if kind == "labels" else Path(tmp) / "mask.nii"
            write_nifti(labels, target)
            mask = target if kind == "mask" else None
        for argv in _study_commands(study, mask, out):
            assert dispatch(argv) in (0, 2), argv


@pytest.mark.parametrize("reg", ["-1", "nan", "inf"])
def test_fit_sh_negative_reg_exits_2(study_dir, tmp_path, capsys, reg):
    out = tmp_path / "sh.nii"
    code = dispatch(
        ["fit-sh", "--dwi", str(study_dir / "dwi.nii"), "--bval", str(study_dir / "dwi.bval"),
         "--bvec", str(study_dir / "dwi.bvec"), "--reg", reg, "--out", str(out)]
    )
    assert code == 2
    err = capsys.readouterr().err
    assert "lambda_reg must be non-negative and finite" in err and err.count("\n") == 1
    assert not out.exists()


def test_sh_sidecar_with_negative_reg_is_refused(tmp_path):
    sh_path = tmp_path / "sh.nii"
    _write_sh_file(sh_path)
    sidecar = tmp_path / "sh.json"
    text = sidecar.read_text()
    for bad in ("-1.0", "Infinity", "NaN"):  # json reads the last two as floats
        sidecar.write_text(text.replace('"lambda_reg": 0.0', f'"lambda_reg": {bad}'))
        with pytest.raises(ShapeError, match="lambda_reg must be non-negative and finite"):
            read_sh(sh_path)


def test_non_finite_input_exits_2(tmp_path):
    data = np.ones((4, 4, 5, 1))
    data[1, 2, 3, 0] = np.nan
    path = tmp_path / "nan.nii"
    write_nifti(Volume4D(data), path)
    code = dispatch(
        ["interp", "--input", str(path), "--gap-start", "2", "--out", str(tmp_path / "out")]
    )
    assert code == 2


# (field, offset, value, qform_code, sform_code) of a header whose spacing or
# affine is not finite.
NON_FINITE_GEOMETRY = {
    "pixdim1-inf": ("pixdim[1]", 80, np.inf, 0, 2),
    "srow_x0-nan": ("srow_x[0]", 280, np.nan, 0, 2),
    "qoffset_z-nan": ("qoffset_z", 276, np.nan, 1, 0),
}


@pytest.mark.parametrize("case", NON_FINITE_GEOMETRY.values(), ids=NON_FINITE_GEOMETRY.keys())
def test_non_finite_header_geometry_exits_2(tmp_path, capsys, case):
    field, offset, value, qform_code, sform_code = case
    path = tmp_path / "v.nii"
    write_nifti(Volume4D(np.ones((4, 4, 5, 1))), path)
    raw = bytearray(path.read_bytes())
    struct.pack_into("<f", raw, offset, value)
    struct.pack_into("<2h", raw, 252, qform_code, sform_code)
    path.write_bytes(bytes(raw))
    out = tmp_path / "out"
    assert dispatch(["interp", "--input", str(path), "--gap-start", "2", "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        f"dmrislice: {path}: header field {field} is {value} (at offset {offset})\n"
    )
    assert not out.exists()


# (dim, datatype, bitpix) of a header the reader refuses, and its message.
MALFORMED_HEADERS = {
    "dim0-0": ((0, 4, 4, 5, 1, 1, 1, 1), 16, 32, "dim[0]=0 outside [1, 7] (at offset 40)"),
    "dim0-8": ((8, 4, 4, 5, 1, 1, 1, 1), 16, 32, "dim[0]=8 outside [1, 7] (at offset 40)"),
    "fifth-dim": ((5, 4, 4, 5, 1, 2, 1, 1), 16, 32, "more than 4 non-trivial dimensions"),
    "bitpix": ((4, 4, 4, 5, 1, 1, 1, 1), 16, 64,
               "bitpix 64 inconsistent with datatype 16 (at offset 72)"),
}


@pytest.mark.parametrize("case", MALFORMED_HEADERS.values(), ids=MALFORMED_HEADERS.keys())
def test_malformed_nifti_header_exits_2(tmp_path, capsys, case):
    dim, datatype, bitpix, message = case
    path = tmp_path / "v.nii"
    write_nifti(Volume4D(np.ones((4, 4, 5, 1))), path)
    raw = bytearray(path.read_bytes())
    struct.pack_into("<8h", raw, 40, *dim)
    struct.pack_into("<2h", raw, 70, datatype, bitpix)
    path.write_bytes(bytes(raw))
    out = tmp_path / "out"
    assert dispatch(["interp", "--input", str(path), "--gap-start", "2", "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"dmrislice: {path}: {message}\n"
    assert not out.exists()


def test_a_study_without_b0_volumes_exits_2(study_dir, tmp_path, capsys):
    study = tmp_path / "study"
    shutil.copytree(study_dir, study)
    # The b0 volumes become b = 1000 along x.
    bvals = np.loadtxt(study / "dwi.bval")
    bvecs = np.loadtxt(study / "dwi.bvec")
    bvecs[0, bvals == 0] = 1.0
    np.savetxt(study / "dwi.bval", np.full((1, bvals.size), 1000.0))
    np.savetxt(study / "dwi.bvec", bvecs)
    assert dispatch(["sh-bound", "--data", str(study)]) == 2
    assert capsys.readouterr().err == f"dmrislice: {study}: no b0 volumes (b <= 50.0)\n"


def test_train_on_labels_that_are_all_background_exits_2(study_dir, tmp_path, capsys):
    study = tmp_path / "study"
    shutil.copytree(study_dir, study)
    write_nifti(Volume4D(np.zeros((16, 16, 8, 1))), study / "labels.nii")
    out = tmp_path / "m.ckpt"
    assert dispatch([*TRAIN, "--data", str(study), "--out", str(out)]) == 2
    assert capsys.readouterr().err == "dmrislice: no training slices after mask filtering\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "bval,bvec",
    [
        (b"0 1000\x80\n", b"0 1\n0 0\n0 0\n"),
        (b"0 1000\n", b"0 nan\n0 0\n0 0\n"),
        (b"0 1000\n", b"0 1\n0 0\n"),
        (b"0 1000 x\n", b"0 1\n0 0\n0 0\n"),
    ],
    ids=["not-utf8", "nan", "two-rows", "non-numeric"],
)
def test_corrupt_gradient_table_exits_2(tmp_path, bval, bvec):
    write_nifti(Volume4D(np.ones((4, 4, 3, 2))), tmp_path / "dwi.nii")
    (tmp_path / "x.bval").write_bytes(bval)
    (tmp_path / "x.bvec").write_bytes(bvec)
    code = dispatch(
        ["fit-sh", "--dwi", str(tmp_path / "dwi.nii"), "--bval", str(tmp_path / "x.bval"),
         "--bvec", str(tmp_path / "x.bvec"), "--out", str(tmp_path / "sh.nii")]
    )
    assert code == 2


@pytest.mark.parametrize(
    "text", [b"seed = 7\nmethods\n", b"seed = \n", b"seed = 7 \xff\n"],
    ids=["no-equals", "empty-value", "not-utf8"],
)
def test_corrupt_config_file_exits_2(study_dir, tmp_path, text):
    cfg = tmp_path / "c.toml"
    cfg.write_bytes(text)
    code = dispatch(
        ["evaluate", "--data", str(study_dir), "--config", str(cfg), "--out", str(tmp_path / "r")]
    )
    assert code == 2


def test_a_quoted_empty_list_in_a_config_file_exits_2(tmp_path, capsys):
    cfg = tmp_path / "c.toml"
    cfg.write_text('data = ""\n')
    out = tmp_path / "m.ckpt"
    assert dispatch(["train", "--net", "b0", "--config", str(cfg), "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        "dmrislice: config error: config key 'data': expected at least one value\n"
    )
    assert not out.exists()


def test_threads_only_on_evaluate(study_dir, tmp_path):
    with pytest.raises(SystemExit) as exc:
        dispatch(["sh-bound", "--data", str(study_dir), "--threads", "2"])
    assert exc.value.code == 1
    assert dispatch(["sh-bound", "--data", str(study_dir)]) == 0
    code = dispatch(
        ["evaluate", "--data", str(study_dir), "--threads", "0", "--out", str(tmp_path / "r")]
    )
    assert code == 1


@pytest.mark.parametrize("affinity", [True, False], ids=["affinity-mask", "no-affinity-call"])
def test_evaluate_defaults_threads_to_the_usable_cpus(study_dir, tmp_path, monkeypatch, affinity):
    import dmrislice.cli as cli

    seen = []

    class Report:
        def write(self, out):
            pass

    def fake_run_experiment(data, **kwargs):
        seen.append(kwargs["threads"])
        return Report()

    monkeypatch.setattr(cli, "run_experiment", fake_run_experiment)
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    if affinity:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 2, 5}, raising=False)
    else:
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    argv = ["evaluate", "--data", str(study_dir), "--methods", "linear", "--out", str(tmp_path)]
    assert dispatch(argv) == 0
    assert dispatch(argv + ["--threads", "2"]) == 0
    assert seen == [3 if affinity else 64, 2]


# Sidecar bytes (None: no sidecar file) that read_sh must reject.
BAD_SIDECARS = {
    "not-json": b"lmax = 4\n",
    "no-lmax": b"{}",
    "lmax-not-a-number": b'{"lmax": "x"}',
    "not-an-object": b"[1]",
    "not-utf8": b'{"lmax": 4, "basis": "\xff"}',
    "missing": None,
    "lmax-fractional": b'{"lmax": 4.7}',
    "lmax-bool": b'{"lmax": true}',
    "lambda-reg-string": b'{"lmax": 4, "lambda_reg": "0.5"}',
    "lambda-reg-bool": b'{"lmax": 4, "lambda_reg": false}',
    "lambda-reg-huge": b'{"lmax": 4, "lambda_reg": 1' + b"0" * 400 + b"}",
    "ill-conditioned-string": b'{"lmax": 4, "ill_conditioned": "false"}',
    "ill-conditioned-number": b'{"lmax": 4, "ill_conditioned": 0}',
    "other-basis": b'{"lmax": 4, "basis": "tournier07"}',
    "basis-not-a-string": b'{"lmax": 4, "basis": null}',
    "lmax-unsupported": b'{"lmax": 3}',
    "lmax-of-another-count": b'{"lmax": 6}',
}


def _write_sh_file(path):
    coeffs = Volume4D(np.zeros((2, 2, 2, 15)))
    write_sh(ShCoeffVolume(coeffs, lmax=4), path)


@pytest.mark.parametrize("sidecar", BAD_SIDECARS.values(), ids=BAD_SIDECARS.keys())
def test_malformed_sh_sidecar_exits_2(study_dir, tmp_path, capsys, sidecar):
    sh_path = tmp_path / "sh.nii"
    _write_sh_file(sh_path)
    if sidecar is None:
        (tmp_path / "sh.json").unlink()
    else:
        (tmp_path / "sh.json").write_bytes(sidecar)
    code = dispatch(
        ["project-sh", "--sh", str(sh_path), "--bval", str(study_dir / "dwi.bval"),
         "--bvec", str(study_dir / "dwi.bvec"), "--out", str(tmp_path / "proj.nii")]
    )
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("dmrislice: ") and "sh.json" in err
    assert err.count("\n") == 1
    assert not (tmp_path / "proj.nii").exists()


def test_an_unsupported_order_is_refused_even_where_the_count_fits(study_dir, tmp_path, capsys):
    # Order 3 has n_coefficients(3) = 10 coefficients, the count of the file.
    sh_path = tmp_path / "sh.nii"
    write_nifti(Volume4D(np.zeros((2, 2, 2, 10))), sh_path)
    (tmp_path / "sh.json").write_bytes(b'{"lmax": 3}')
    code = dispatch(
        ["project-sh", "--sh", str(sh_path), "--bval", str(study_dir / "dwi.bval"),
         "--bvec", str(study_dir / "dwi.bvec"), "--out", str(tmp_path / "proj.nii")]
    )
    assert code == 2
    err = capsys.readouterr().err
    assert err == f"dmrislice: malformed SH sidecar {tmp_path / 'sh.json'}: lmax is 3\n"
    assert not (tmp_path / "proj.nii").exists()


SIDECAR = b"""{
  "basis": "modified_real_symmetric",
  "ill_conditioned": false,
  "lambda_reg": 0.006,
  "lmax": 4
}
"""


@settings(max_examples=300, deadline=None)
@given(mutation.variants(SIDECAR, hot=len(SIDECAR), alphabet=b'{}[]":, -.0123456789eElmaxnul'))
def test_sh_sidecar_fuzz_reads_or_raises_dmrislice_error(variant):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "sh.nii")
        _write_sh_file(path)
        with open(os.path.join(tmp, "sh.json"), "wb") as fh:
            fh.write(mutation.apply(SIDECAR, variant))
        try:
            read_sh(path)
        except DmrisliceError:
            pass


@pytest.fixture(scope="module")
def tiny_ckpt(study_dir, tmp_path_factory):
    """A width-1 b0 net trained for one epoch on the test study."""
    ckpt = tmp_path_factory.mktemp("tiny") / "b0.ckpt"
    assert dispatch([*TRAIN, "--data", str(study_dir), "--out", str(ckpt)]) == 0
    return ckpt


def _float_option_runs(study, ckpt, out):
    """A run of each subcommand that has a float option, on the test study;
    a value typed after it overrides any given here."""
    dwi = ["--dwi", str(study / "dwi.nii"), "--bval", str(study / "dwi.bval"),
           "--bvec", str(study / "dwi.bvec")]
    return {
        "fit-sh": ["fit-sh", *dwi, "--out", str(out / "sh.nii")],
        "fit-dti": ["fit-dti", "--data", str(study), "--out-fa", str(out / "fa.nii"),
                    "--out-tensor", str(out / "dt.nii")],
        "train": [*TRAIN, "--net", "sh4", "--data", str(study), "--out", str(out / "m.ckpt")],
        "infer": ["infer", "--data", str(study), "--model", str(ckpt), "--b0-model", str(ckpt),
                  "--gap-start", "3", "--out", str(out / "infer")],
        "phantom": [*PHANTOM, "--noise", "gaussian", "--sigma", "0.01",
                    "--out", str(out / "phantom")],
        "evaluate": ["evaluate", "--data", str(study), "--methods", "linear", "--gaps", "3",
                     "--n", "1", "--out", str(out / "report")],
        "sh-bound": ["sh-bound", "--data", str(study), "--out", str(out / "bound.json")],
    }


FLOAT_OPTIONS = sorted(
    (name, action.option_strings[0])
    for name, parser in build_parser().subcommands.items()
    for action in parser.options.values()
    if action.type is float
)


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize(
    "command, flag", FLOAT_OPTIONS, ids=[f"{c}{f}" for c, f in FLOAT_OPTIONS]
)
def test_non_finite_float_options_exit_cleanly(
    study_dir, tiny_ckpt, tmp_path, command, flag, value
):
    argv = _float_option_runs(study_dir, tiny_ckpt, tmp_path)[command]
    code = dispatch([*argv, f"{flag}={value}"])
    assert code in (0, 1, 2)
    if code == 0:
        for path in tmp_path.rglob("*.nii"):
            read_nifti(path)
        for path in tmp_path.rglob("*.ckpt"):
            load_checkpoint(path)


@pytest.mark.parametrize("command", ["interp", "phantom", "sh-bound"])
def test_unwritable_output_exits_2(study_dir, tmp_path, capsys, command):
    blocker = tmp_path / "file"
    blocker.write_text("a regular file\n")
    argv = {
        "interp": ["interp", "--input", str(study_dir / "dwi.nii"), "--gap-start", "3",
                   "--out", str(blocker / "out")],
        "phantom": ["phantom", "--dims", "8,8,6", "--directions", "6",
                    "--out", str(blocker / "study")],
        "sh-bound": ["sh-bound", "--data", str(study_dir),
                     "--out", str(tmp_path / "missing" / "bound.json")],
    }[command]
    assert dispatch(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("dmrislice: ") and err.count("\n") == 1


def _no_study_read(*args, **kwargs):
    raise AssertionError("read a study before checking the outputs")


@pytest.mark.parametrize("option", ["--out", "--log"])
def test_train_refuses_an_output_in_a_missing_directory_before_reading(
    study_dir, tmp_path, capsys, monkeypatch, option
):
    monkeypatch.setattr(cli, "load_study", _no_study_read)
    paths = {"--out": tmp_path / "m.ckpt", "--log": tmp_path / "log.csv"}
    paths[option] = tmp_path / "missing" / paths[option].name
    argv = [*TRAIN, "--data", str(study_dir)]
    assert dispatch(argv + [arg for pair in paths.items() for arg in map(str, pair)]) == 2
    missing = paths[option]
    assert capsys.readouterr().err == (
        f"dmrislice: cannot write {missing}: no directory {missing.parent}\n"
    )
    assert list(tmp_path.iterdir()) == []


def test_evaluate_refuses_an_output_that_is_a_file_before_reading(
    study_dir, tmp_path, capsys, monkeypatch
):
    monkeypatch.setattr(cli, "load_study", _no_study_read)
    out = tmp_path / "report"
    out.write_text("a regular file\n")
    assert dispatch(["evaluate", "--data", str(study_dir), "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        f"dmrislice: cannot write the report to {out}: not a directory\n"
    )
    assert list(tmp_path.iterdir()) == [out] and out.read_text() == "a regular file\n"


def _default(func, name):
    return inspect.signature(func).parameters[name].default


def test_cli_defaults_and_choices_are_the_library_ones():
    """Each option default and choice list the CLI shares with the library
    is the library's own."""
    lmax, tol = _default(fit_sh, "lmax"), _default(shell_window, "tol")
    widths = _default(run_experiment, "n_values")
    assert {_default(f, "lmax") for f in (sh_roundtrip_error, run_experiment, infer_gap_sh)} \
        == {lmax}
    assert _default(load_study, "shell_tol") == tol
    train, model, spec = TrainConfig(), ModelConfig(), PhantomSpec()
    owners = {
        ("train", "lr"): train.lr,
        ("train", "batch"): train.batch_size,
        ("train", "epochs"): train.epochs,
        ("train", "val_fraction"): train.val_fraction,
        ("train", "split_by"): train.split_by,
        ("train", "m"): model.latent_maps,
        ("train", "base_width"): model.base_width,
        ("train", "avg_n"): _default(averaged_dwi_slices, "n_average"),
        ("train", "avg_samples"): _default(averaged_dwi_slices, "n_samples"),
        ("phantom", "dims"): list(spec.dims),
        ("phantom", "directions"): spec.n_directions,
        ("phantom", "b0"): spec.n_b0,
        ("phantom", "bvalue"): spec.b_value,
        ("phantom", "noise"): spec.noise,
        ("phantom", "sigma"): spec.noise_sigma,
        ("evaluate", "n"): list(widths),
        **{(name, "lmax"): lmax for name in ("fit-sh", "train", "evaluate", "sh-bound")},
        **{(name, "shell_tol"): tol
           for name in ("fit-sh", "fit-dti", "train", "infer", "evaluate", "sh-bound")},
    }
    minimal = {"train": ["--data", "s", "--net", "b0", "--out", "m"], "phantom": ["--out", "s"],
               "evaluate": ["--data", "s", "--out", "r"], "sh-bound": ["--data", "s"],
               "fit-sh": ["--dwi", "d", "--bval", "b", "--bvec", "v", "--out", "o"],
               "fit-dti": ["--data", "s"],
               "infer": ["--data", "s", "--model", "m", "--gap-start", "2", "--out", "o"]}
    parser = build_parser()
    args = {name: vars(parser.parse_args([name, *argv])) for name, argv in minimal.items()}
    for (name, dest), value in owners.items():
        assert args[name][dest] == value, (name, dest)

    options = {name: sub.options for name, sub in parser.subcommands.items()}
    for split_by in options["train"]["split_by"].choices:
        TrainConfig(split_by=split_by)
    with pytest.raises(ShapeError):
        TrainConfig(split_by="voxel")
    for noise in options["phantom"]["noise"].choices:
        PhantomSpec(noise=noise, noise_sigma=0.1)
    with pytest.raises(ShapeError):
        PhantomSpec(noise="poisson", noise_sigma=0.1)
    assert options["interp"]["n"].choices == options["infer"]["n"].choices == tuple(widths)
    for n in widths:
        GapSpec(gap_start=1, n_missing=n)
    for n in (0, max(widths) + 1):
        with pytest.raises(ShapeError):
            GapSpec(gap_start=1, n_missing=n)


# The shared options each subcommand declares: exactly those it reads.
SHARED_OPTIONS = {
    "fit-sh": {"shell_tol", "verbose"},
    "project-sh": {"verbose"},
    "fit-dti": {"shell_tol"},
    "interp": set(),
    "train": {"seed", "shell_tol", "verbose"},
    "infer": {"shell_tol"},
    "phantom": {"seed", "verbose"},
    "evaluate": {"shell_tol", "verbose"},
    "sh-bound": {"shell_tol"},
}


def test_shared_options_only_where_read(tmp_path):
    parser = build_parser()
    assert parser.subcommands.keys() == SHARED_OPTIONS.keys()
    for name, shared in SHARED_OPTIONS.items():
        options = parser.subcommands[name].options
        assert "config" in options
        assert options.keys() & {"seed", "shell_tol", "verbose"} == shared, name
    for argv in (["train", "--data", "s", "--net", "b0", "--out", "m.ckpt"],
                 ["phantom", "--out", "s"]):
        assert build_parser().parse_args(argv + ["--seed", "1"]).seed == 1
    with pytest.raises(SystemExit) as exc:
        dispatch(["interp", "--input", "v.nii", "--gap-start", "3", "--out", "o",
                  "--seed", "1"])
    assert exc.value.code == 1
    cfg = tmp_path / "c.toml"
    cfg.write_text("seed = 1\n")
    assert dispatch(["interp", "--input", "v.nii", "--gap-start", "3", "--out", "o",
                     "--config", str(cfg)]) == 1


def test_train_sweep_keeps_the_best_latent_width(study_dir, tmp_path, capsys, monkeypatch):
    # What each width's run had seen printed before it started.
    real, seen = cli.ae.train, []

    def train(*args, **kwargs):
        seen.append(capsys.readouterr().out)
        return real(*args, **kwargs)

    monkeypatch.setattr(cli.ae, "train", train)
    ckpt = tmp_path / "sweep.ckpt"
    code = dispatch(
        ["train", "--data", str(study_dir), "--net", "b0", "--sweep-m", "2,4",
         "--base-width", "1", "--epochs", "2", "--batch", "4", "--lr", "1e-3",
         "--split-by", "slice", "--verbose", "--out", str(ckpt)]
    )
    assert code == 0
    assert seen[0] == "" and re.search(r"^M=2: ", seen[1], re.M)
    lines = re.findall(r"^M=(\d+): val_mse=(\S+)$", "".join(seen) + capsys.readouterr().out, re.M)
    assert [int(m) for m, _ in lines] == [2, 4]
    val_mse = {int(m): float(v) for m, v in lines}
    assert val_mse[load_checkpoint(ckpt).cfg.latent_maps] == min(val_mse.values())


def test_train_verbose_prints_each_epoch_as_it_ends(study_dir, tmp_path, capsys, monkeypatch):
    # What each training step had seen printed before it ran: epoch k's line
    # must be out before epoch k + 1's first step.
    real = Autoencoder.loss_and_grads
    seen = []

    def loss_and_grads(self, x):
        seen.append(capsys.readouterr().out)
        return real(self, x)

    monkeypatch.setattr(Autoencoder, "loss_and_grads", loss_and_grads)
    log, ckpt = tmp_path / "log.csv", tmp_path / "m.ckpt"
    assert dispatch([*TRAIN, "--data", str(study_dir), "--epochs", "3", "--verbose",
                     "--log", str(log), "--out", str(ckpt)]) == 0
    rest = capsys.readouterr().out
    steps = len(seen) // 3
    assert len(seen) == 3 * steps
    printed = ""
    for k, out in enumerate(seen):
        printed += out
        assert printed.count("\n") == k // steps, k
    printed += rest
    lines = printed.splitlines()
    epoch_line = re.compile(r"^epoch (\d): train_mse=(\S+) val_mse=(\S+) \(\d+\.\d s\)$")
    got = [epoch_line.match(line).groups() for line in lines[:3]]
    with open(log) as fh:
        rows = list(csv.reader(fh))[1:]
    assert got == [(e, f"{float(t):.6g}", f"{float(v):.6g}") for e, t, v in rows]
    assert len(lines) == 4 and lines[3].startswith("best epoch ")


@pytest.mark.parametrize("via_config", [False, True], ids=["flags", "config"])
def test_train_refuses_a_training_log_with_a_latent_sweep(
    study_dir, tmp_path, capsys, via_config
):
    log, out = tmp_path / "log.csv", tmp_path / "m.ckpt"
    options = ["--sweep-m", "2,4", "--log", str(log)]
    if via_config:
        cfg = tmp_path / "c.toml"
        cfg.write_text(f'sweep_m = "2,4"\nlog = "{log}"\n')
        options = ["--config", str(cfg)]
    code = dispatch([*TRAIN, "--data", str(study_dir), *options, "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert "--sweep-m" in err and "--log" in err and err.count("\n") == 1
    assert not log.exists() and not out.exists()


def test_help_exits_zero():
    for cmd in ("fit-sh", "project-sh", "fit-dti", "interp", "train", "infer",
                "phantom", "evaluate", "sh-bound"):
        with pytest.raises(SystemExit) as exc:
            dispatch([cmd, "--help"])
        assert exc.value.code == 0


def test_config_file_parsing(tmp_path):
    cfg = tmp_path / "c.toml"
    cfg.write_text(
        """
# comment line
methods = "linear,cubic"
gaps = "2,3"   # trailing comment
seed = 7
verbose = true
sigma = 0.5
name = 'quoted'
"""
    )
    parsed = parse_config_file(cfg)
    assert parsed == {
        "methods": "linear,cubic",
        "gaps": "2,3",
        "seed": "7",
        "verbose": "true",
        "sigma": "0.5",
        "name": "quoted",
    }


CONFIG = b"""# comment line
methods = "linear,cubic"
gaps = '2,3'   # trailing comment
seed = 7
verbose = true
sigma = 0.5
"""


@settings(max_examples=300, deadline=None)
@given(mutation.variants(CONFIG, hot=len(CONFIG), alphabet=b"=#\"' \n-_.0123456789eE"))
def test_config_fuzz_parses_or_raises_dmrislice_error(variant):
    with tempfile.TemporaryDirectory() as tmp:
        p = os.path.join(tmp, "c.toml")
        with open(p, "wb") as fh:
            fh.write(mutation.apply(CONFIG, variant))
        try:
            parse_config_file(p)
        except DmrisliceError:
            pass


def test_config_flags_override_file(study_dir, tmp_path):
    cfg = tmp_path / "c.toml"
    cfg.write_text('gaps = "2,3"\nmethods = "linear"\n')
    out = tmp_path / "rep"
    code = dispatch(
        ["evaluate", "--data", str(study_dir), "--config", str(cfg),
         "--methods", "cubic", "--n", "1", "--out", str(out)]
    )
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    assert report["config"]["methods"] == ["cubic"]  # flag wins
    assert report["config"]["gaps"] == [2, 3]  # file fills the rest


def test_config_does_not_override_an_abbreviated_flag(tmp_path):
    write_nifti(Volume4D(np.ones((4, 4, 7, 1))), tmp_path / "v.nii")
    cfg = tmp_path / "c.toml"
    cfg.write_text("gap_start = 2\n")
    out = tmp_path / "o"
    code = dispatch(["interp", "--input", str(tmp_path / "v.nii"), "--gap", "4",
                     "--config", str(cfg), "--out", str(out)])
    assert code == 0
    assert (out / "slice_004.nii").exists()
    assert not (out / "slice_002.nii").exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["phantom", "--dims", "a,b", "--out", "s"],
        ["evaluate", "--data", "s", "--gaps", "x", "--out", "r"],
        ["evaluate", "--data", "s", "--n", "1,2.5", "--out", "r"],
        ["train", "--data", "s", "--net", "b0", "--sweep-m", "2,x", "--out", "m.ckpt"],
        ["phantom", "--dims", "", "--out", "s"],
        ["evaluate", "--data", "s", "--gaps", "", "--out", "r"],
        ["evaluate", "--data", "s", "--n", " , ", "--out", "r"],
        ["train", "--data", "s", "--net", "b0", "--sweep-m", "", "--out", "m.ckpt"],
    ],
    ids=["dims", "gaps", "n", "sweep-m", "empty-dims", "empty-gaps", "empty-n", "empty-sweep-m"],
)
def test_bad_int_lists_are_usage_errors(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        dispatch(argv)
    assert exc.value.code == 1
    assert "invalid _int_list value" in capsys.readouterr().err


@pytest.mark.parametrize(
    "axis, argv",
    [
        ("gaps", ["--methods", "linear", "--gaps", "3,3,3", "--n", "1"]),
        ("methods", ["--methods", "linear,linear", "--gaps", "3", "--n", "1"]),
        ("n_values", ["--methods", "linear", "--gaps", "3", "--n", "1,1"]),
        ("methods", ["--methods", ",", "--gaps", "3", "--n", "1"]),
    ],
    ids=["repeated-gaps", "repeated-methods", "repeated-n", "empty-methods"],
)
def test_empty_or_repeated_grid_axes_exit_2(study_dir, tmp_path, capsys, axis, argv):
    out = tmp_path / "rep"
    code = dispatch(["evaluate", "--data", str(study_dir), *argv, "--out", str(out)])
    assert code == 2
    assert f"dmrislice: {axis} must not" in capsys.readouterr().err
    assert not out.exists()


def test_int_list_options_parse_their_values():
    parser = build_parser()
    assert parser.parse_args(["phantom", "--out", "s"]).dims == [64, 64, 16]
    args = parser.parse_args(["evaluate", "--data", "s", "--out", "r", "--gaps", "2, 4,6"])
    assert (args.gaps, args.n) == ([2, 4, 6], [1, 2])
    assert parser.parse_args(["evaluate", "--data", "s", "--out", "r"]).methods == ",".join(
        DEFAULT_METHODS
    )
    args = parser.parse_args(["train", "--data", "s", "--net", "b0", "--sweep-m", "2,4",
                              "--out", "m.ckpt"])
    assert args.sweep_m == [2, 4]


def test_config_unknown_key_rejected(study_dir, tmp_path):
    cfg = tmp_path / "c.toml"
    cfg.write_text("not_an_option = 1\n")
    code = dispatch(
        ["evaluate", "--data", str(study_dir), "--config", str(cfg), "--out", str(tmp_path / "r")]
    )
    assert code == 1


# (subcommand, config text, exit code, part of the error message)
CONFIG_VALUE_CASES = {
    "bad-int": ("evaluate", 'threads = "abc"', 2, "config key 'threads': invalid int"),
    "float-for-int": ("evaluate", "lmax = 4.0", 2, "config key 'lmax': invalid int"),
    "bad-float": ("evaluate", "bvalue = fast", 2, "config key 'bvalue': invalid float"),
    "bad-choice": ("phantom", 'noise = "loud"', 2, "config key 'noise': 'loud' is not"),
    "bad-int-list": ("evaluate", 'gaps = "2,x"', 2, "config key 'gaps': invalid _int_list"),
    "empty-int-list": ("evaluate", 'n = ""', 2, "config key 'n': invalid _int_list"),
    "non-boolean-flag": ("evaluate", "verbose = 1", 2, "config key 'verbose' takes"),
    "zero-threads": ("evaluate", "threads = 0", 1, "--threads must be >= 1"),
    "unknown-key": ("evaluate", "threads = 2\nfunc = 1", 1, "unknown config key 'func'"),
    "help-key": ("evaluate", "help = true", 1, "unknown config key 'help'"),
    "nested-config": ("evaluate", "config = nothere.toml", 1, "unknown config key 'config'"),
}


@pytest.mark.parametrize(
    "command, text, code, message", CONFIG_VALUE_CASES.values(), ids=CONFIG_VALUE_CASES.keys()
)
def test_config_values_are_checked_like_typed_ones(
    study_dir, tmp_path, capsys, command, text, code, message
):
    cfg = tmp_path / "c.toml"
    cfg.write_text(text + "\n")
    args = ["--data", str(study_dir)] if command == "evaluate" else []
    out = tmp_path / "out"
    assert dispatch([command, *args, "--config", str(cfg), "--out", str(out)]) == code
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_config_values_take_their_option_type(study_dir, tmp_path):
    cfg = tmp_path / "c.toml"
    cfg.write_text('threads = "2"\nlmax = "4"\nbvalue = 1000\ngaps = 2\nverbose = false\n')
    out = tmp_path / "rep"
    code = dispatch(
        ["evaluate", "--data", str(study_dir), "--config", str(cfg),
         "--methods", "linear", "--n", "1", "--out", str(out)]
    )
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    assert report["config"]["gaps"] == [2]
    assert report["config"]["lmax"] == 4


def test_config_supplies_a_required_option(study_dir, tmp_path, capsys):
    cfg = tmp_path / "c.toml"
    cfg.write_text(f'data = "{study_dir}"\n')
    assert dispatch(["sh-bound", "--config", str(cfg)]) == 0
    assert float(capsys.readouterr().out) >= 0.0


def test_config_values_reach_their_option_as_written(study_dir, tmp_path, monkeypatch):
    # Numbered subject directories and file names that read as numbers.
    shutil.copytree(study_dir, tmp_path / "007")
    monkeypatch.chdir(tmp_path)
    Path("c.toml").write_text("data = 007\nout = 1e3\n")
    assert dispatch(["sh-bound", "--config", "c.toml"]) == 0
    assert json.loads(Path("1e3").read_text())["lmax"] == 4


def test_config_list_option_takes_whitespace_separated_values(study_dir, tmp_path, monkeypatch):
    read = []
    monkeypatch.setattr("dmrislice.cli.load_study",
                        lambda path, **kw: read.append(path) or load_study(path, **kw))
    shutil.copytree(study_dir, tmp_path / "a")
    shutil.copytree(study_dir, tmp_path / "b")
    monkeypatch.chdir(tmp_path)
    Path("c.toml").write_text("data = a b\nout = m.ckpt\n")
    assert dispatch([*TRAIN, "--config", "c.toml"]) == 0
    assert read == ["a", "b"] and Path("m.ckpt").exists()


def test_config_quoted_value_keeps_its_hash(study_dir, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    Path("c.toml").write_text('out = "run#1"  # the rest is a comment\n')
    assert parse_config_file("c.toml") == {"out": "run#1"}
    assert dispatch(["sh-bound", "--data", str(study_dir), "--config", "c.toml"]) == 0
    assert Path("run#1").exists()


@pytest.mark.parametrize("text", ['methods = "linear', "methods = 'linear\"", 'out = "a" b'])
def test_config_malformed_quotes_exit_2(study_dir, tmp_path, capsys, text):
    cfg = tmp_path / "c.toml"
    cfg.write_text(text + "\n")
    out = tmp_path / "r"
    assert dispatch(["evaluate", "--data", str(study_dir), "--config", str(cfg),
                     "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("dmrislice: config error: ")
    assert not out.exists()


@pytest.mark.parametrize("text, line", [("threads = 2\nno equals sign", 2),
                                        ("# note\n\nout = 'r", 3)])
def test_config_parse_error_names_its_line(tmp_path, text, line):
    cfg = tmp_path / "c.toml"
    cfg.write_text(text + "\n")
    with pytest.raises(ParseError) as err:
        parse_config_file(cfg)
    assert f"{cfg} line {line}: " in str(err.value)
    assert err.value.offset is None and "offset" not in str(err.value)


def test_config_key_given_twice_exits_2_naming_both_lines(study_dir, tmp_path, capsys):
    cfg = tmp_path / "c.toml"
    cfg.write_text("gap-start = 3\n# note\ngap_start = 5\n")
    with pytest.raises(ParseError, match=r"lines 1 and 3: key 'gap_start' given twice"):
        parse_config_file(cfg)
    out = tmp_path / "r"
    assert dispatch(["infer", "--data", str(study_dir), "--config", str(cfg),
                     "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("dmrislice: config error: ") and "lines 1 and 3" in err
    assert not out.exists()


def test_config_without_a_path_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        dispatch(["evaluate", "--data", "s", "--out", "r", "--config"])
    assert exc.value.code == 1
    err = capsys.readouterr().err
    assert err.startswith("usage: dmrislice evaluate") and "--config: expected one" in err


README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_commands_parse():
    blocks = re.findall(r"^```[^\n]*\n(.*?)^```", README.read_text(), re.M | re.S)
    lines = "\n".join(blocks).replace("\\\n", " ").splitlines()
    commands = [shlex.split(line)[1:] for line in lines if line.startswith("dmrislice ")]
    assert len(commands) >= 19  # README's examples; fewer means the extraction broke
    for argv in commands:
        parser = build_parser()
        if "--config" in argv:  # the file may supply any option, required ones too
            for action in parser.subcommands[argv[0]].options.values():
                action.required = False
        try:
            parser.parse_args(argv)
        except SystemExit:
            pytest.fail(f"README command does not parse: dmrislice {shlex.join(argv)}")


def test_seeded_commands_deterministic(study_dir, tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    for out in (a, b):
        code = dispatch(
            ["evaluate", "--data", str(study_dir), "--methods", "linear",
             "--gaps", "2,3", "--n", "1", "--out", str(out)]
        )
        assert code == 0
    ja = json.loads((a / "report.json").read_text())
    jb = json.loads((b / "report.json").read_text())
    ja.pop("timing")
    jb.pop("timing")
    assert ja == jb


def test_importing_the_package_and_cli_loads_no_scipy():
    import dmrislice

    src = os.path.dirname(os.path.dirname(dmrislice.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = ("import sys, dmrislice, dmrislice.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=120)
    assert out.stdout.strip() == "[]"
