"""The three benchmark workloads and their output checks.

Every workload builds its study from the workload seed: the criterion-08
phantom, 64x64x16 with 88 directions, 4 b0 volumes and Rician noise of
sigma 0.02, with the seed as its noise seed. The nets that eval-grid and
infer-sh4 apply are trained in set-up on the criterion-08 study itself
(seed 8), as a user trains once and applies the nets to new subjects; so the
set-up work and the nets are the same for every seed, and the quality
metrics vary with the seed only through the study they are applied to.

Each workload is a closed loop with one caller: the next operation starts
when the previous one returns. The library is driven only through its public
calls, looked up on the module at call time so that a traced run sees them.
"""

from __future__ import annotations

import math
import os
from contextlib import nullcontext
from dataclasses import dataclass

import numpy as np

import dmrislice as dm
from dmrislice import ae
from dmrislice import study as dm_study

METHODS = ("linear", "cubic", "bspline5", "sh-linear", "ae-signal", "ae-sh4")
N_VALUES = (1, 2)
N_DIRECTIONS = 88
N_B0 = 4
SIGMA = 0.02
THREADS = 2  # the CLI default on a 2-core machine


@dataclass(frozen=True)
class Config:
    """The sizes the smoke run shrinks; everything else is fixed above."""

    dims: tuple[int, int, int] = (64, 64, 16)
    gaps: tuple[int, ...] = (2, 4, 6, 8, 10)
    setup_epochs: int = 2  # the nets that eval-grid and infer-sh4 use
    op_epochs: int = 2  # one train-nets operation
    batch: int = 8


FULL = Config()
# The self-test's smoke run: the smallest study every workload accepts.
SMOKE = Config(dims=(32, 32, 8), gaps=(2, 4), setup_epochs=1, op_epochs=1, batch=4)

# (name, model base width); every net has latent width 8, as in criterion 08.
NETS = (("signal", 4), ("b0", 4), ("sh4", 16))
TRAIN_SEED = 8  # the criterion-08 study the applied nets are trained on


def span(rec, name, **attrs):
    """The benchmark's own span around a library call, when tracing."""
    return rec.span(name, **attrs) if rec is not None else nullcontext()


def make_study(cfg: Config, seed: int, work_dir: str, name: str = "study"):
    """Phantom, written as a study directory and read back."""
    spec = dm.PhantomSpec(
        dims=cfg.dims,
        n_directions=N_DIRECTIONS,
        n_b0=N_B0,
        noise="rician",
        noise_sigma=SIGMA,
        seed=seed,
    )
    data = dm.make_phantom(spec)
    path = os.path.join(work_dir, name)
    dm_study.write_study(data, path)
    return dm_study.load_study(path)


def datasets(data) -> dict:
    """Training slices of the three nets, on the smallest multiple-of-16 grid."""
    mask = data.labels
    sh = dm.fit_sh(data.dwi, data.gtab, lmax=4)
    raw = {
        "signal": ae.averaged_dwi_slices(data.dwi, n_average=15, n_samples=3, seed=0, mask=mask),
        "b0": ae.slices_per_volume(data.b0, mask=mask),
        "sh4": ae.stacked_slices(sh.volume, mask=mask),
    }
    size = -(-max(data.dwi.dims[:2]) // 16) * 16
    return {name: ae.fit_to_size(ds, size) for name, ds in raw.items()}


def train_nets(cfg: Config, sets: dict, epochs: int, rec) -> dict:
    """One ``train()`` per net in ``sets``, with the criterion-08 settings."""
    out = {}
    for name, width in NETS:
        if name not in sets:
            continue
        ds = sets[name]
        channels, size = ds[0].data.shape[0], ds[0].data.shape[1]
        model_cfg = ae.ModelConfig(
            input_channels=channels, latent_maps=8, input_size=size, base_width=width, seed=0
        )
        train_cfg = ae.TrainConfig(
            lr=2e-3, batch_size=cfg.batch, epochs=epochs, seed=0, split_by="slice"
        )
        with span(rec, "bench.train", net=name, epochs=epochs):
            out[name] = ae.train(ds, train_cfg, model_cfg)
    return out


def trained_models(cfg: Config, work_dir: str, rec) -> dict:
    """Nets trained on the criterion-08 study, saved and loaded back."""
    data = make_study(cfg, TRAIN_SEED, work_dir, "train-study")
    ckpts = train_nets(cfg, datasets(data), cfg.setup_epochs, rec)
    models = {}
    for name, ckpt in ckpts.items():
        path = os.path.join(work_dir, f"{name}.ckpt")
        ae.save_checkpoint(ckpt.model, path)
        models[name] = ae.load_checkpoint(path)
    return models


def trained_slices(n: int, batch: int) -> int:
    """Slices one epoch of ``train()`` steps on, out of ``n``: the slice split
    holds out ``val_fraction`` of them (at least one) and the last partial
    batch is dropped."""
    n_val = max(1, round(ae.TrainConfig().val_fraction * n))
    return (n - n_val) // batch * batch


def _finite(x) -> bool:
    return x is not None and math.isfinite(x)


def _nmse(est: np.ndarray, gt: np.ndarray, span_: float) -> float:
    d = (est - gt) / span_
    return float(np.mean(d * d))


class Workload:
    """One closed loop: ``setup``, then ``op`` repeatedly, ``check`` after each.

    ``cycle`` ops make one pass over the workload's inputs; the loop always
    stops at the end of a pass so every run weighs the inputs alike.
    """

    cycle = 1
    unit = "op"
    setup_repeats = 1  # set-ups per untraced run; setup_s is their median

    def __init__(self, cfg: Config, seed: int, work_dir: str):
        self.cfg, self.seed, self.work_dir = cfg, seed, work_dir

    def setup(self, rec) -> None:
        raise NotImplementedError

    def op(self, i: int, rec):
        raise NotImplementedError

    def check(self, i: int, out) -> list[str]:
        """Problems with one op's output; an empty list means it passed."""
        raise NotImplementedError

    def items(self, i: int) -> int:
        """Units of work (``unit``) one op completes."""
        raise NotImplementedError

    def kind(self, i: int) -> int:
        """The class of op ``i``; ``op_ms_p50`` is the mean of the classes' medians."""
        return 0

    def finish(self) -> list[str]:
        """Run-level checks after the loop."""
        return []

    def quality(self) -> dict[str, float]:
        """The run's quality figures; empty when no op's output was checked."""
        raise NotImplementedError


class EvalGrid(Workload):
    """One op: the full paper grid, 6 methods x N in {1, 2} x 5 gaps, threaded."""

    unit = "cell"

    def setup(self, rec):
        self.data = make_study(self.cfg, self.seed, self.work_dir)
        self.models = trained_models(self.cfg, self.work_dir, rec)
        # The serial == threaded contract: the seed picks the gap checked.
        self.ref_gap = self.cfg.gaps[self.seed % len(self.cfg.gaps)]
        self.reference = dm.run_experiment(
            self.data, methods=METHODS, gaps=(self.ref_gap,), n_values=N_VALUES,
            models=self.models,
        )
        self.first = None

    def op(self, i, rec):
        return dm.run_experiment(
            self.data, methods=METHODS, gaps=self.cfg.gaps, n_values=N_VALUES,
            models=self.models, threads=THREADS,
        )

    def items(self, i):
        return len(METHODS) * len(N_VALUES) * len(self.cfg.gaps)

    def check(self, i, report):
        problems = []
        k = self.cfg.gaps.index(self.ref_gap)
        for n in map(str, N_VALUES):
            for method in METHODS:
                cell = report.results.get(n, {}).get(method)
                if cell is None:
                    problems.append(f"cell N={n} {method} missing")
                    continue
                values = list(cell["signal_mse"]["per_gap"])
                for metric in ("fa_mse", "md_mse"):
                    for region in sorted(cell[metric]):
                        values += cell[metric][region]["per_gap"]
                if len(cell["signal_mse"]["per_gap"]) != len(self.cfg.gaps):
                    problems.append(f"cell N={n} {method} lacks gaps")
                if not all(_finite(v) for v in values):
                    problems.append(f"cell N={n} {method} not finite")
                ref = self.reference.results[n][method]
                same = cell["signal_mse"]["per_gap"][k] == ref["signal_mse"]["per_gap"][0]
                for metric in ("fa_mse", "md_mse"):
                    for region, entry in ref[metric].items():
                        same &= cell[metric][region]["per_gap"][k] == entry["per_gap"][0]
                if not same:
                    problems.append(f"N={n} {method} gap {self.ref_gap}: threaded != serial")
        if self.first is None:
            self.first = report.results
        elif report.results != self.first:
            problems.append("grid differs from the first grid of the run")
        return problems

    def quality(self):
        if self.first is None:
            return {}
        cells = [c for per_n in self.first.values() for c in per_n.values()]
        return {
            "signal_mse": float(np.mean([c["signal_mse"]["per_gap"] for c in cells])),
            "fa_mse_wm": float(np.mean([c["fa_mse"]["wm"]["per_gap"] for c in cells])),
        }


class TrainNets(Workload):
    """One op: three ``train()`` calls, avg-b1000, b0 and sh4."""

    unit = "trained slice-epoch"
    setup_repeats = 5  # about 1 s each

    def setup(self, rec):
        self.data = make_study(self.cfg, self.seed, self.work_dir)
        self.sets = datasets(self.data)
        self.slices_per_op = self.cfg.op_epochs * sum(
            trained_slices(len(ds), self.cfg.batch) for ds in self.sets.values()
        )
        self.first = None

    def op(self, i, rec):
        return train_nets(self.cfg, self.sets, self.cfg.op_epochs, rec)

    def items(self, i):
        return self.slices_per_op

    def check(self, i, ckpts):
        problems = []
        for name, ckpt in ckpts.items():
            losses = [v for _, tr, va in ckpt.history for v in (tr, va)]
            if len(ckpt.history) != self.cfg.op_epochs or not all(map(_finite, losses)):
                problems.append(f"{name}: losses not finite or epochs missing")
        histories = {name: ckpt.history for name, ckpt in ckpts.items()}
        if self.first is None:
            self.first = histories
            self.best = {name: ckpt.best_val_mse for name, ckpt in ckpts.items()}
        elif histories != self.first:
            problems.append("training differs from the first op of the run")
        return problems

    def finish(self):
        if self.first is None:
            return ["no op completed, so the 1-epoch sh4 retrain has nothing to repeat"]
        # A fresh 1-epoch run of the sh4 net, same seed, repeats epoch 0.
        again = train_nets(self.cfg, {"sh4": self.sets["sh4"]}, 1, None)
        if again["sh4"].history != self.first["sh4"][:1]:
            return ["1-epoch sh4 retrain does not reproduce the history"]
        return []

    def quality(self):
        if self.first is None:
            return {}
        return {"val_mse": float(np.mean(list(self.best.values())))}


class InferSh4(Workload):
    """One op: one ``infer_gap_sh`` call; ops cycle over gaps x N."""

    unit = "slice"
    setup_repeats = 2  # about 6 s each, next to a 15 s loop

    def setup(self, rec):
        self.data = make_study(self.cfg, self.seed, self.work_dir)
        self.models = trained_models(self.cfg, self.work_dir, rec)
        self.combos = [(g, n) for g in self.cfg.gaps for n in N_VALUES]
        self.cycle = len(self.combos)
        values = self.data.dwi.data
        self.span = float(values.max() - values.min()) or 1.0
        self.b0_mean = self.data.b0.data.mean(axis=3)
        self.first = {}
        self.mse = {}

    def op(self, i, rec):
        g, n = self.combos[i % self.cycle]
        d = self.data
        return dm.infer_gap_sh(
            self.models["sh4"], self.models["b0"], d.dwi, d.b0, d.gtab,
            dm.GapSpec(gap_start=g, n_missing=n), lmax=4,
        )

    def items(self, i):
        return self.combos[i % self.cycle][1]

    def kind(self, i):
        # N=1 and N=2 calls form two clusters of op times; a pooled median
        # would fall in the gap between them.
        return self.combos[i % self.cycle][1]

    def check(self, i, out):
        g, n = self.combos[i % self.cycle]
        dwi_slices, b0_slices = out
        x, y, _, v = self.data.dwi.dims
        problems = []
        if len(dwi_slices) != n or len(b0_slices) != n:
            return [f"gap {g} N={n}: {len(dwi_slices)} slices"]
        for k, (s, b) in enumerate(zip(dwi_slices, b0_slices)):
            if s.data.shape != (x, y, v) or not np.all(np.isfinite(s.data)):
                problems.append(f"gap {g} N={n}: slice {k} shaped {s.data.shape} or not finite")
            w_prev, w_next = (n - k) / (n + 1), (k + 1) / (n + 1)
            ref = w_prev * self.b0_mean[:, :, g - 1] + w_next * self.b0_mean[:, :, g + n]
            if not (b.data.min() >= ref.min() and b.data.max() <= ref.max()):
                problems.append(f"gap {g} N={n}: b0 slice {k} leaves the reference range")
        stack = np.stack([s.data for s in dwi_slices], axis=2)
        if (g, n) not in self.first:
            self.first[(g, n)] = stack
            gt = self.data.dwi.data[:, :, g : g + n, :]
            self.mse[(g, n)] = _nmse(stack, gt, self.span)
        elif not np.array_equal(stack, self.first[(g, n)]):
            problems.append(f"gap {g} N={n}: output differs from its first op")
        return problems

    def quality(self):
        if not self.mse:
            return {}
        return {"gap_mse": float(np.mean(list(self.mse.values())))}


WORKLOADS = {"eval-grid": EvalGrid, "train-nets": TrainNets, "infer-sh4": InferSh4}
