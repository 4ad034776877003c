#!/usr/bin/env python3
"""Desk-scale slice-removal experiment on a synthetic phantom.

Generates a phantom study, trains the three reduced autoencoders (signal,
b0, SH), and runs the full evaluation grid: classical interpolators, linear
SH interpolation, and both autoencoder routes, for one and two missing
slices, with per-region FA/MD errors and paired Wilcoxon tests. Writes
report.json and report.csv plus the trained checkpoints.

Example:
    python scripts/run_phantom_experiment.py --out runs/demo --epochs 40
"""

import argparse
import os
import sys
import time

from dmrislice import make_phantom
from dmrislice.ae import ModelConfig, TrainConfig, save_checkpoint, train
from dmrislice.ae.train import averaged_dwi_slices, slices_per_volume, stacked_slices
from dmrislice.evaluate import default_gaps, run_experiment
from dmrislice.phantom import PhantomSpec
from dmrislice.sh import fit_sh
from dmrislice.study import write_study


def parse_args():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--dims", default="64,64,16")
    p.add_argument("--directions", type=int, default=88)
    p.add_argument("--noise", default="rician", choices=("none", "gaussian", "rician"))
    p.add_argument("--sigma", type=float, default=0.02)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--epochs", type=int, default=40)
    p.add_argument("--batch", type=int, default=8)
    p.add_argument("--lr", type=float, default=2e-3)
    p.add_argument("--base-width", type=int, default=4)
    p.add_argument("--sh-base-width", type=int, default=16,
                   help="decoder last width must cover the 15 SH channels")
    p.add_argument("--m-signal", type=int, default=8)
    p.add_argument("--m-sh", type=int, default=8)
    p.add_argument("--avg-n", type=int, default=15)
    p.add_argument("--avg-samples", type=int, default=4)
    p.add_argument("--gaps", default=None, help="comma list of gap z-indices")
    p.add_argument("--threads", type=int, default=None)
    return p.parse_args()


def main():
    args = parse_args()
    os.makedirs(args.out, exist_ok=True)
    dims = tuple(int(t) for t in args.dims.split(","))
    sigma = args.sigma if args.noise != "none" else 0.0

    print("generating phantom ...", flush=True)
    data = make_phantom(
        PhantomSpec(
            dims=dims,
            n_directions=args.directions,
            noise=args.noise,
            noise_sigma=sigma,
            seed=args.seed,
        )
    )
    write_study(data, os.path.join(args.out, "study"))

    size = -(-max(dims[0], dims[1]) // 16) * 16
    train_cfg = TrainConfig(
        lr=args.lr,
        batch_size=args.batch,
        epochs=args.epochs,
        seed=args.seed,
        split_by="slice",
    )

    def model_cfg(channels, m, base_width=None):
        return ModelConfig(
            input_channels=channels,
            latent_maps=m,
            input_size=size,
            base_width=base_width or args.base_width,
            seed=args.seed,
        )

    print("training avg-signal network ...", flush=True)
    t0 = time.time()
    sig_ds = averaged_dwi_slices(
        data.dwi, n_average=args.avg_n, n_samples=args.avg_samples,
        seed=args.seed, mask=data.labels,
    )
    sig = train(sig_ds, train_cfg, model_cfg(1, args.m_signal),
                log_path=os.path.join(args.out, "signal_log.csv"))
    print(f"  best val {sig.best_val_mse:.4e} @ epoch {sig.best_epoch} "
          f"({time.time() - t0:.0f}s)", flush=True)

    print("training b0 network ...", flush=True)
    b0_ds = slices_per_volume(data.b0, mask=data.labels)
    b0 = train(b0_ds, train_cfg, model_cfg(1, args.m_signal),
               log_path=os.path.join(args.out, "b0_log.csv"))
    print(f"  best val {b0.best_val_mse:.4e} @ epoch {b0.best_epoch}", flush=True)

    print("training SH network ...", flush=True)
    sh_ds = stacked_slices(fit_sh(data.dwi, data.gtab, lmax=4).volume, mask=data.labels)
    sh = train(sh_ds, train_cfg, model_cfg(15, args.m_sh, args.sh_base_width),
               log_path=os.path.join(args.out, "sh4_log.csv"))
    print(f"  best val {sh.best_val_mse:.4e} @ epoch {sh.best_epoch}", flush=True)

    for name, ckpt in (("signal", sig), ("b0", b0), ("sh4", sh)):
        save_checkpoint(ckpt.model, os.path.join(args.out, f"{name}.ckpt"))

    gaps = [int(t) for t in args.gaps.split(",")] if args.gaps else default_gaps(dims[2])
    print(f"evaluating gaps {gaps} ...", flush=True)
    report = run_experiment(
        data,
        methods=("linear", "cubic", "bspline5", "sh-linear", "ae-signal", "ae-sh4"),
        gaps=gaps,
        n_values=(1, 2),
        models={"signal": sig.model, "b0": b0.model, "sh4": sh.model},
        seed=args.seed,
        threads=args.threads,
    )
    report.write(args.out)

    for n in ("1", "2"):
        print(f"\nN={n} signal MSE (mean over gaps):")
        for method, cell in sorted(report.results[n].items()):
            print(f"  {method:10s} {cell['signal_mse']['mean']:.5e}")
        print(f"  {'sh4-bound':10s} {report.sh_bound[n]['mean']:.5e}")
    print(f"\nreport written to {args.out}/report.json and report.csv")
    return 0


if __name__ == "__main__":
    sys.exit(main())
