"""Command-line entry point.

Subcommands: fit-sh, project-sh, fit-dti, interp, train, infer, phantom,
evaluate, sh-bound. A TOML-style ``key = value`` config file can supply any
option, required ones included; explicit flags always win and unknown keys
are rejected. A value is text (in quotes it may hold a ``#``), typed once by
its option as if it had been typed: a flag takes true or false, and a list
option whitespace-separated values. Exit codes:
0 success, 1 usage error, 2 data error (malformed input or an output path
that cannot be written).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import ae
from .ae.model import N_POOLINGS
from .errors import DmrisliceError, EmptyShell, ParseError
from .evaluate import ALL_METHODS, DEFAULT_METHODS, run_experiment
from .inference import infer_gap_sh, infer_gap_signal
from .interp import KINDS, interp_missing_slices
from .dti import dti_scalars, fit_dti
from .nifti import read_labels, read_nifti, read_volumes, write_nifti
from .phantom import PhantomSpec, make_phantom
from .sh import fit_sh, lmax_for, project_sh, read_sh, sh_roundtrip_error, write_sh
from .study import load_study, write_study
from .volume import (
    B0_THRESHOLD,
    GapSpec,
    Volume4D,
    b0_mean,
    read_gradient_table,
    read_text_lines,
    shell_window,
)

USAGE_ERROR = 1
DATA_ERROR = 2


class _Parser(argparse.ArgumentParser):
    """Exits with the usage-error code."""

    @property
    def options(self) -> dict:
        """Each option's action by dest, --help aside: what a config file may set."""
        return {a.dest: a for a in self._actions if a.default is not argparse.SUPPRESS}

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(USAGE_ERROR, f"{self.prog}: error: {message}\n")


def parse_config_file(path) -> dict[str, str]:
    """Parse a flat TOML-style config: ``key = value`` lines, # comments.

    Each value is kept as text, for its option to type. A value in single or
    double quotes is the text between them and may hold a ``#``; a bare value
    ends at the first ``#``. An unterminated quote is a ParseError, and so is
    a key given twice (``gap-start`` and ``gap_start`` are one key), as in
    TOML.
    """
    options, lines = {}, {}
    for lineno, line in enumerate(read_text_lines(path), start=1):
        text = line.strip()
        if not text or text.startswith("#"):
            continue
        key, eq, raw = text.partition("=")
        key, raw = key.strip().replace("-", "_"), raw.strip()
        if not eq or not key or "#" in key:
            raise ParseError(f"{path} line {lineno}: expected 'key = value'")
        if raw[:1] in ('"', "'"):
            value, closed, rest = raw[1:].partition(raw[0])
            if not closed:
                raise ParseError(f"{path} line {lineno}: unterminated quote")
            if rest.strip()[:1] not in ("", "#"):
                raise ParseError(f"{path} line {lineno}: text after the closing quote")
        else:
            value = raw.split("#", 1)[0].strip()
            if not value:
                raise ParseError(f"{path} line {lineno}: empty value")
        if key in lines:
            raise ParseError(f"{path} lines {lines[key]} and {lineno}: key {key!r} given twice")
        options[key], lines[key] = value, lineno
    return options


def _config_value(action, key, text: str):
    """A config value as its option would hold it had it been typed: a flag
    takes true or false, a list option (``nargs="+"``) whitespace-separated
    values, and each value goes once through the option's type and choices.
    A value the option rejects is a ParseError."""
    if action.nargs == 0:
        if text.lower() not in ("true", "false"):
            raise ParseError(f"config key {key!r} takes true or false, got {text!r}")
        return text.lower() == "true"
    words = text.split() if action.nargs == "+" else [text]
    if not words:
        raise ParseError(f"config key {key!r}: expected at least one value")
    values = []
    for word in words:
        try:
            value = (action.type or str)(word)
        except ValueError:
            raise ParseError(
                f"config key {key!r}: invalid {action.type.__name__} value {word!r}"
            ) from None
        if action.choices is not None and value not in action.choices:
            choices = ", ".join(map(repr, action.choices))
            raise ParseError(f"config key {key!r}: {value!r} is not one of {choices}")
        values.append(value)
    return values if action.nargs == "+" else values[0]


def _int_list(text: str) -> list[int]:
    values = [int(tok) for tok in text.replace(",", " ").split()]
    if not values:
        raise ValueError("empty list")
    return values


def _mask_arg(args, vol: Volume4D):
    """The ``--mask`` file, which must lie on ``vol``'s voxel grid."""
    if args.mask:
        return read_labels(args.mask, vol.dims[:3])
    return None


def _write_gap(slices, vol: Volume4D, gap: GapSpec, out_dir, prefix="slice") -> Volume4D:
    """``vol`` with its gap slab filled by the estimated ``slices``. Each
    slice z of the slab is written as ``{prefix}_{z:03d}.nii``, a one-slice
    volume in ``vol``'s space: the input spacing, and the affine's origin
    moved by z times its third column, so the file lines up with slice z."""
    filled = vol.data.copy()
    filled[:, :, gap.slab] = np.stack([s.data for s in slices], axis=2)
    for z in range(vol.dims[2])[gap.slab]:
        affine = vol.affine.copy()
        affine[:3, 3] += z * affine[:3, 2]
        out = Volume4D(filled[:, :, z : z + 1], spacing=vol.spacing, affine=affine)
        write_nifti(out, os.path.join(out_dir, f"{prefix}_{z:03d}.nii"))
    return vol.with_data(filled)


# -- subcommand implementations ---------------------------------------------

def cmd_fit_sh(args):
    keep, shell = shell_window(
        read_gradient_table(args.bval, args.bvec), args.bvalue, tol=args.shell_tol
    )
    (dwi,) = read_volumes(args.dwi, keep)
    sh = fit_sh(dwi, shell, lmax=args.lmax, lambda_reg=args.reg, mask=_mask_arg(args, dwi))
    write_sh(sh, args.out)
    if args.verbose:
        print(f"wrote {sh.n_coefficients}-coefficient SH volume to {args.out}")
    return 0


def cmd_project_sh(args):
    sh = read_sh(args.sh)
    gtab = read_gradient_table(args.bval, args.bvec)
    keep = ~gtab.b0_mask
    if not keep.any():
        raise EmptyShell(f"{args.bval}: no diffusion-weighted directions (b > {B0_THRESHOLD})")
    out = project_sh(sh, gtab.bvecs[keep])
    write_nifti(out, args.out)
    if args.verbose:
        print(f"projected onto {int(keep.sum())} directions -> {args.out}")
    return 0


def cmd_fit_dti(args):
    if not (args.out_fa or args.out_md or args.out_tensor):
        print("dmrislice: fit-dti writes nothing without --out-fa, --out-md or --out-tensor",
              file=sys.stderr)
        return USAGE_ERROR
    data = load_study(args.data, b_target=args.bvalue, shell_tol=args.shell_tol)
    tensors = fit_dti(data.dwi, data.b0, data.gtab, mask=_mask_arg(args, data.dwi))
    if args.out_tensor:
        write_nifti(tensors, args.out_tensor)
    if args.out_fa or args.out_md:
        fa, md = dti_scalars(tensors)
        if args.out_fa:
            write_nifti(fa, args.out_fa)
        if args.out_md:
            write_nifti(md, args.out_md)
    return 0


def cmd_interp(args):
    vol = read_nifti(args.input)
    gap = GapSpec(gap_start=args.gap_start, n_missing=args.n)
    slices = interp_missing_slices(vol, gap, args.method)
    os.makedirs(args.out, exist_ok=True)
    write_nifti(_write_gap(slices, vol, gap, args.out), os.path.join(args.out, "volume.nii"))
    return 0


def _build_dataset(args):
    """The training samples of every ``--data`` study. A study's subject is
    its directory name, or its resolved path where another study shares that
    name, so that a subject split never mixes two studies."""
    datasets = []
    names = [os.path.basename(os.path.normpath(path)) for path in args.data]
    for path, name in zip(args.data, names):
        study = load_study(path, b_target=args.bvalue, shell_tol=args.shell_tol)
        subject = name if names.count(name) == 1 else os.path.realpath(path)
        mask = study.labels
        if args.net == "b0":
            datasets += ae.slices_per_volume(study.b0, mask=mask, subject=subject)
        elif args.net == "avg-b1000":
            datasets += ae.averaged_dwi_slices(
                study.dwi,
                n_average=args.avg_n,
                n_samples=args.avg_samples,
                seed=args.seed,
                mask=mask,
                subject=subject,
            )
        else:  # sh4
            sh = fit_sh(study.dwi, study.gtab, lmax=args.lmax)
            datasets += ae.stacked_slices(sh.volume, mask=mask, subject=subject)
    return datasets


def cmd_train(args):
    if args.sweep_m and args.log:
        print("dmrislice: --log is not written by a --sweep-m run; drop one of the two",
              file=sys.stderr)
        return USAGE_ERROR
    dataset = _build_dataset(args)
    if not dataset:
        raise DmrisliceError("no training slices after mask filtering")

    channels = dataset[0].data.shape[0]
    # The largest in-plane side of any study, up to the model's grid step.
    side, step = max(max(s.data.shape[1:]) for s in dataset), 2**N_POOLINGS
    input_size = args.input_size or -(-side // step) * step
    model_cfg = ae.ModelConfig(
        input_channels=channels,
        latent_maps=args.m,
        input_size=input_size,
        base_width=args.base_width,
        seed=args.seed,
    )
    dataset = ae.fit_to_size(dataset, input_size)  # once the config has checked the size
    train_cfg = ae.TrainConfig(
        lr=args.lr,
        batch_size=args.batch,
        epochs=args.epochs,
        val_fraction=args.val_fraction,
        seed=args.seed,
        split_by=args.split_by,
    )
    if args.sweep_m:
        ckpt, sweep = ae.sweep_latent_size(
            dataset, train_cfg, model_cfg, m_values=args.sweep_m
        )
        if args.verbose:
            for m, val in sorted(sweep.items()):
                print(f"M={m}: val_mse={val:.6g}")
    else:
        ckpt = ae.train(dataset, train_cfg, model_cfg, log_path=args.log)
    ae.save_checkpoint(ckpt.model, args.out)
    if args.verbose:
        print(
            f"best epoch {ckpt.best_epoch}: val_mse={ckpt.best_val_mse:.6g} -> {args.out}"
        )
    return 0


def cmd_infer(args):
    if args.domain == "sh4" and not args.b0_model:
        print("dmrislice: infer --domain sh4 needs --b0-model", file=sys.stderr)
        return USAGE_ERROR
    data = load_study(args.data, b_target=args.bvalue, shell_tol=args.shell_tol)
    gap = GapSpec(gap_start=args.gap_start, n_missing=args.n)
    model = ae.load_checkpoint(args.model)
    b0_model = ae.load_checkpoint(args.b0_model) if args.b0_model else None

    b0 = b0_mean(data.b0)
    if args.domain == "signal":
        slices = infer_gap_signal(model, data.dwi, gap)
        b0_slices = None if b0_model is None else infer_gap_signal(b0_model, b0, gap)
    else:
        # An sh4 net reads the coefficients of the order its channels count.
        lmax = lmax_for(model.cfg.input_channels)
        slices, b0_slices = infer_gap_sh(model, b0_model, data.dwi, data.b0, data.gtab, gap, lmax)

    os.makedirs(args.out, exist_ok=True)
    write_nifti(_write_gap(slices, data.dwi, gap, args.out), os.path.join(args.out, "volume.nii"))
    if b0_slices is not None:
        _write_gap(b0_slices, b0, gap, args.out, prefix="b0_slice")
    return 0


def cmd_phantom(args):
    spec = PhantomSpec(
        dims=tuple(args.dims),
        b_value=args.bvalue,
        n_directions=args.directions,
        n_b0=args.b0,
        noise=args.noise,
        noise_sigma=args.sigma,
        seed=args.seed,
    )
    data = make_phantom(spec)
    write_study(data, args.out)
    if args.verbose:
        print(f"phantom {spec.dims} with {spec.n_directions} directions -> {args.out}")
    return 0


def usable_cpus() -> int:
    """The CPUs this process may run on: its affinity mask where the
    platform has one (taskset, container cpusets), else the host's count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def cmd_evaluate(args):
    data = load_study(args.data, b_target=args.bvalue, shell_tol=args.shell_tol)
    paths = {"signal": args.signal_model, "sh4": args.sh_model, "b0": args.b0_model}
    models = {kind: ae.load_checkpoint(path) for kind, path in paths.items() if path}

    methods = [m.strip() for m in args.methods.split(",") if m.strip()]
    threads = args.threads if args.threads is not None else usable_cpus()
    report = run_experiment(
        data,
        methods=methods,
        gaps=args.gaps,
        n_values=args.n,
        models=models or None,
        lmax=args.lmax,
        threads=threads,
        folds=args.folds,
    )
    report.write(args.out)
    if args.verbose:
        print(f"report written to {args.out}")
    return 0


def cmd_sh_bound(args):
    data = load_study(args.data, b_target=args.bvalue, shell_tol=args.shell_tol)
    mask = _mask_arg(args, data.dwi)
    err = sh_roundtrip_error(data.dwi, data.gtab, lmax=args.lmax, mask=mask)
    print(f"{err:.10g}")
    if args.out:
        with open(args.out, "w") as fh:
            json.dump({"lmax": args.lmax, "roundtrip_mse": err}, fh, indent=2)
            fh.write("\n")
    return 0


# -- parser wiring ------------------------------------------------------------

def _add_common(p, *shared):
    """Adds --config, and those of the shared options seed, shell_tol and
    verbose that the subcommand reads."""
    if "seed" in shared:
        p.add_argument("--seed", type=int, default=0, help="random seed")
    if "shell_tol" in shared:
        p.add_argument("--shell-tol", dest="shell_tol", type=float, default=50.0,
                       help="b-value tolerance for shell selection (s/mm^2)")
    if "verbose" in shared:
        p.add_argument("--verbose", action="store_true", help="chatty output")
    p.add_argument("--config", default=None, help="TOML-style key=value config file")


def build_parser() -> _Parser:
    parser = _Parser(prog="dmrislice", description=__doc__)
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")
    parser.subcommands = sub.choices  # name -> subcommand parser

    p = sub.add_parser("fit-sh", parents=[], help="fit spherical harmonics to a DWI shell")
    p.add_argument("--dwi", required=True)
    p.add_argument("--bval", required=True)
    p.add_argument("--bvec", required=True)
    p.add_argument("--lmax", type=int, default=4)
    p.add_argument("--reg", type=float, default=0.0, help="Laplace-Beltrami weight")
    p.add_argument("--bvalue", type=float, default=None, help="shell b-value (default max)")
    p.add_argument("--mask", default=None)
    p.add_argument("--out", required=True)
    _add_common(p, "shell_tol", "verbose")
    p.set_defaults(func=cmd_fit_sh)

    p = sub.add_parser("project-sh", help="project SH coefficients onto directions")
    p.add_argument("--sh", required=True, help="coefficient NIfTI with JSON sidecar")
    p.add_argument("--bval", required=True)
    p.add_argument("--bvec", required=True)
    p.add_argument("--out", required=True)
    _add_common(p, "verbose")
    p.set_defaults(func=cmd_project_sh)

    p = sub.add_parser("fit-dti", help="fit tensors and write FA/MD maps")
    p.add_argument("--data", required=True, help="study directory")
    p.add_argument("--bvalue", type=float, default=None)
    p.add_argument("--mask", default=None)
    p.add_argument("--out-fa", default=None)
    p.add_argument("--out-md", default=None)
    p.add_argument("--out-tensor", default=None)
    _add_common(p, "shell_tol")
    p.set_defaults(func=cmd_fit_dti)

    p = sub.add_parser("interp", help="classical interpolation of missing slices")
    p.add_argument("--input", required=True, help="4D NIfTI volume")
    p.add_argument("--gap-start", type=int, required=True)
    p.add_argument("--n", type=int, choices=(1, 2), default=1)
    p.add_argument("--method", choices=KINDS, default="linear")
    p.add_argument("--out", required=True, help="output directory")
    _add_common(p)
    p.set_defaults(func=cmd_interp)

    p = sub.add_parser("train", help="train an autoencoder on study data")
    p.add_argument("--data", nargs="+", required=True, help="study directories")
    p.add_argument("--net", choices=("b0", "avg-b1000", "sh4"), required=True)
    p.add_argument("--avg-n", dest="avg_n", type=int, default=15,
                   help="volumes averaged per avg-b1000 sample")
    p.add_argument("--avg-samples", type=int, default=10,
                   help="random averages drawn per study")
    p.add_argument("--lmax", type=int, default=4)
    p.add_argument("--bvalue", type=float, default=None)
    p.add_argument("--m", type=int, default=32, help="latent feature maps")
    p.add_argument("--sweep-m", type=_int_list, default=None,
                   help="comma list of M values to sweep")
    p.add_argument("--base-width", type=int, default=32)
    p.add_argument("--input-size", type=int, default=0, help="0 = use slice size")
    p.add_argument("--epochs", type=int, default=200)
    p.add_argument("--batch", type=int, default=32)
    p.add_argument("--lr", type=float, default=5e-5)
    p.add_argument("--val-fraction", type=float, default=0.15)
    p.add_argument("--split-by", choices=("subject", "slice"), default="subject")
    p.add_argument("--log", default=None, help="training-log CSV path (not with --sweep-m)")
    p.add_argument("--out", required=True, help="checkpoint path")
    _add_common(p, "seed", "shell_tol", "verbose")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("infer", help="infer missing slices with a trained model")
    p.add_argument("--data", required=True, help="study directory")
    p.add_argument("--model", required=True, help="checkpoint")
    p.add_argument("--b0-model", dest="b0_model", default=None, help="b0 checkpoint")
    p.add_argument("--domain", choices=("signal", "sh4"), default="signal")
    p.add_argument("--gap-start", type=int, required=True)
    p.add_argument("--n", type=int, choices=(1, 2), default=1)
    p.add_argument("--bvalue", type=float, default=None)
    p.add_argument("--out", required=True, help="output directory")
    _add_common(p, "shell_tol")
    p.set_defaults(func=cmd_infer)

    p = sub.add_parser("phantom", help="generate a synthetic phantom study")
    p.add_argument("--dims", type=_int_list, default="64,64,16")
    p.add_argument("--directions", type=int, default=88)
    p.add_argument("--b0", type=int, default=4)
    p.add_argument("--bvalue", type=float, default=1000.0)
    p.add_argument("--noise", choices=("none", "gaussian", "rician"), default="none")
    p.add_argument("--sigma", type=float, default=0.0)
    p.add_argument("--out", required=True)
    _add_common(p, "seed", "verbose")
    p.set_defaults(func=cmd_phantom)

    p = sub.add_parser("evaluate", help="run the slice-removal evaluation harness")
    p.add_argument("--data", required=True, help="study directory")
    p.add_argument("--methods", default=",".join(DEFAULT_METHODS),
                   help=f"comma list from {ALL_METHODS}")
    p.add_argument("--gaps", type=_int_list, default=None,
                   help="comma list of gap z-indices")
    p.add_argument("--n", type=_int_list, default="1,2", help="comma list of gap widths")
    p.add_argument("--folds", type=int, default=1,
                   help="per-fold breakdown over gap positions (default single split)")
    p.add_argument("--lmax", type=int, default=4)
    p.add_argument("--bvalue", type=float, default=None)
    p.add_argument("--signal-model", default=None)
    p.add_argument("--sh-model", default=None)
    p.add_argument("--b0-model", dest="b0_model", default=None)
    p.add_argument("--threads", type=int, default=None, help="worker thread cap")
    p.add_argument("--out", required=True, help="report directory")
    _add_common(p, "shell_tol", "verbose")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("sh-bound", help="SH fit-project round-trip error")
    p.add_argument("--data", required=True, help="study directory")
    p.add_argument("--lmax", type=int, default=4)
    p.add_argument("--bvalue", type=float, default=None)
    p.add_argument("--mask", default=None)
    p.add_argument("--out", default=None, help="optional JSON output")
    _add_common(p, "shell_tol")
    p.set_defaults(func=cmd_sh_bound)

    return parser


def dispatch(argv) -> int:
    parser = build_parser()
    sub = parser.subcommands.get(argv[0]) if argv else None
    pre = argparse.ArgumentParser(add_help=False, exit_on_error=False)  # reads --config ahead
    pre.add_argument("--config")
    try:
        path = sub and pre.parse_known_args(argv[1:])[0].config
    except argparse.ArgumentError:  # --config without its value: the parse below reports it
        path = None
    if path:
        try:
            config = parse_config_file(path)
            # Like an unknown flag. So is ``config``: a file names no other file.
            unknown = [key for key in config if key not in sub.options or key == "config"]
            if unknown:
                print(f"dmrislice: config error: unknown config key {unknown[0]!r}",
                      file=sys.stderr)
                return USAGE_ERROR
            values = {key: _config_value(sub.options[key], key, text)
                      for key, text in config.items()}
        except ParseError as exc:  # a malformed file, or a value its option rejects
            print(f"dmrislice: config error: {exc}", file=sys.stderr)
            return DATA_ERROR
        # The file's values become the defaults of the one parse below, so an
        # option typed there, abbreviated or not, wins, and one the file gives
        # is no longer required.
        for key in values:
            sub.options[key].required = False
        sub.set_defaults(**values)

    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_help()
        return USAGE_ERROR

    threads = getattr(args, "threads", None)  # only evaluate has --threads
    if threads is not None and threads < 1:
        print("dmrislice: --threads must be >= 1", file=sys.stderr)
        return USAGE_ERROR

    try:
        return args.func(args)
    except (DmrisliceError, OSError) as exc:  # bad input or an unwritable output
        print(f"dmrislice: {exc}", file=sys.stderr)
        return DATA_ERROR


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
