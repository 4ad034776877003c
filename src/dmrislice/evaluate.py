"""Slice-removal evaluation harness.

For each gap and method the harness reconstructs the missing slices,
scores the signal error against the held-out ground truth on a shared
[0, 1] intensity scale, fits diffusion tensors to the reconstructed slices and
scores FA/MD per tissue region on them against the ground-truth maps. The SH
fit-project error of the ground-truth slices is reported alongside as the
representability lower bound. Paired Wilcoxon signed-rank tests compare
methods across gap positions.

All tensor fits (ground truth and reconstructions) use the voxelwise mean of
the b0 volumes as the single unweighted measurement, so every method differs
only in how the missing slices were filled. The log-linear tensor fit is
voxelwise, so each cell fits only its gap slab (the N reconstructed slices):
the scored voxels get the same tensors as in a fit of the whole volume with
the slab put back, up to floating-point rounding, and nothing outside the
slab is ever scored.

A method is a (domain, estimator) pair (:data:`METHODS`). Built once per
experiment and shared read-only by every cell: the ground-truth FA/MD maps,
the volume of each domain and of b0 (the DWI, its full-volume SH fit, which
the SH bound reads too, and the b0 mean), the SH basis on the directions,
and the latent code of every neighbor slice an autoencoder cell reads, one
per (model, z), from which each ``ae`` cell decodes its slices, b0 included.
The autoencoders are shared too: inference keeps no layer state, and a
model's inference plan, built on its first use, is only read after, so every
pool thread runs the caller's models and none is cloned.
"""

from __future__ import annotations

import csv
import io
import json
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from itertools import combinations

import numpy as np

from .blas import one_blas_thread
from .dti import dti_scalars, fit_dti
from .errors import DegenerateSample, EmptyMask, ModelMissing, ShapeError
from .inference import check_sh_model, decode_gap, encode_slice
from .interp import interp_missing_slices
from .phantom import LABELS, PhantomData
from .sh import DEFAULT_LMAX, fit_sh_slice, project_sh_slice, sh_basis_matrix
from .stats import wilcoxon_signed_rank
from .volume import GAP_WIDTHS, GapSpec, Volume4D, b0_mean

# Each method as (domain, estimator): the volume whose gap slices it
# estimates, the DWI or its SH coefficients, and an interpolation kind or
# "ae", the domain's autoencoder. It estimates the b0 slices the same way.
METHODS = {
    "linear": ("signal", "linear"),
    "cubic": ("signal", "cubic"),
    "bspline5": ("signal", "bspline5"),
    "sh-linear": ("sh4", "linear"),
    "ae-signal": ("signal", "ae"),
    "ae-sh4": ("sh4", "ae"),
}
ALL_METHODS = tuple(METHODS)
# The grid's methods unless a caller names others: those that need no model.
DEFAULT_METHODS = tuple(m for m, (_, estimator) in METHODS.items() if estimator != "ae")

REGION_LABELS = {"wm": LABELS["wm"], "cgm": LABELS["cgm"], "cc": LABELS["cc"]}

# The scored series, as (metric, region), in report.csv row order: the
# signal error over the whole gap slab, then FA and MD per tissue region.
SIGNAL = ("signal", "all")
SERIES = (SIGNAL,) + tuple((m, r) for m in ("fa", "md") for r in sorted(REGION_LABELS))


def _results_cell(values: dict) -> dict:
    """A method's results cell from its series -> per-gap scores: each series
    as {"per_gap", "mean"}, held directly by ``signal_mse`` and per region by
    ``fa_mse`` and ``md_mse``."""
    cell = {}
    for (metric, region), per_gap in values.items():
        entry = {"per_gap": per_gap, "mean": float(np.mean(per_gap))}
        if region == "all":
            cell[f"{metric}_mse"] = entry
        else:
            cell.setdefault(f"{metric}_mse", {})[region] = entry
    return cell


def mse_region(est: Volume4D, gt: Volume4D, mask: Volume4D, label: int) -> float:
    """Mean squared difference over voxels carrying the given label in the
    integer label map ``mask`` (as ``read_labels`` and ``make_phantom`` give)."""
    if est.dims != gt.dims or est.dims[:3] != mask.dims[:3]:
        raise ShapeError(
            f"shape mismatch: est {est.dims}, gt {gt.dims}, mask {mask.dims}"
        )
    sel = mask.data[..., 0] == label
    if not np.any(sel):
        raise EmptyMask(f"no voxels with label {label}")
    diff = est.data[sel] - gt.data[sel]
    return float(np.mean(diff * diff))


@dataclass
class EvalReport:
    config: dict
    results: dict = field(default_factory=dict)
    sh_bound: dict = field(default_factory=dict)
    wilcoxon: dict = field(default_factory=dict)
    timing: dict = field(default_factory=dict)
    folds: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        out = {
            "config": self.config,
            "results": self.results,
            "sh_bound": self.sh_bound,
            "wilcoxon": self.wilcoxon,
            "timing": self.timing,
        }
        if self.folds:
            out["folds"] = self.folds
        return out

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["n_missing", "method", "metric", "region", "gap", "value"])

        def rows(n_key, method, metric, region, entry):
            for gap, value in zip(self.config["gaps"], entry["per_gap"]):
                writer.writerow([n_key, method, f"{metric}_mse", region, gap, value])
            writer.writerow([n_key, method, f"{metric}_mse", region, "mean", entry["mean"]])

        for n_key in sorted(self.results):
            for method, cell in sorted(self.results[n_key].items()):
                for metric, region in SERIES:
                    entry = cell[f"{metric}_mse"]
                    rows(n_key, method, metric, region, entry if region == "all" else entry[region])
            rows(n_key, "sh4-bound", *SIGNAL, self.sh_bound[n_key])
            for metric, region in sorted(SERIES):
                tests = self.wilcoxon[n_key][metric][region]
                for pair in sorted(tests):
                    p = tests[pair]["p"]
                    writer.writerow([n_key, pair, f"wilcoxon_p_{metric}", region, "", p])
        return buf.getvalue()

    def write(self, out_dir) -> None:
        os.makedirs(out_dir, exist_ok=True)
        with open(os.path.join(out_dir, "report.json"), "w") as fh:
            fh.write(self.to_json())
        with open(os.path.join(out_dir, "report.csv"), "w") as fh:
            fh.write(self.to_csv())


def _normalized_mse(est: np.ndarray, gt: np.ndarray, span: float) -> float:
    diff = est - gt
    diff /= span
    diff *= diff
    return float(np.mean(diff))


@dataclass(frozen=True)
class _Shared:
    """Per-experiment inputs every cell reads; built once, never written."""

    span: float  # range of the ground-truth signal, the signal_mse scale
    fa_gt: Volume4D
    md_gt: Volume4D
    inputs: dict  # "signal", "sh4", "b0" -> the DWI, its full-volume SH fit, the b0 mean
    sh_basis: np.ndarray  # the (D, R) SH basis on the acquisition directions
    latents: dict = field(default_factory=dict)  # (model name, z) -> latent code


def _shared_inputs(data: PhantomData, lmax: int) -> _Shared:
    b0 = b0_mean(data.b0)
    fa_gt, md_gt = dti_scalars(fit_dti(data.dwi, b0, data.gtab))
    basis = sh_basis_matrix(data.gtab.bvecs, lmax)
    sh_coeffs = data.dwi.with_data(fit_sh_slice(data.dwi.data, basis))
    span = float(np.ptp(data.dwi.data)) or 1.0
    return _Shared(span, fa_gt, md_gt, {"signal": data.dwi, "sh4": sh_coeffs, "b0": b0}, basis)


def _with_latents(shared: _Shared, pool, methods, gaps, n_values, models):
    """``shared`` plus the latent code of every neighbor slice the grid's
    autoencoder cells read, one per (model, z).

    A slice encodes the same alone or in any batch, so the grouping is free.
    Each (model, z) is its own pool task because those tasks are the pool's
    parallel work: the signal net carries nearly all encoded items (one per
    direction), so one call per model would run them on one thread.
    """
    ae_domains = {METHODS[m][0] for m in methods if METHODS[m][1] == "ae"}
    names = sorted(ae_domains | {"b0"}) if ae_domains else []
    neighbors = sorted({z for n in n_values for g in gaps for z in GapSpec(g, n).neighbors})
    keys = [(name, z) for name in names for z in neighbors]
    codes = pool.map(
        lambda key: encode_slice(models[key[0]], shared.inputs[key[0]].data[:, :, key[1]]), keys
    )
    return replace(shared, latents=dict(zip(keys, codes)))


def _estimate(shared: _Shared, name: str, estimator: str, gap: GapSpec, models):
    """The gap's slices of ``shared.inputs[name]`` by one estimator, as a
    (W, H, N, C) stack: an interpolation kind, or the ``name`` model decoding
    its neighbors' codes."""
    volume = shared.inputs[name]
    if estimator == "ae":
        z_prev, z_next = gap.neighbors
        codes = shared.latents[(name, z_prev)], shared.latents[(name, z_next)]
        neighbors = volume.data[:, :, z_prev], volume.data[:, :, z_next]
        slices = decode_gap(models[name], *neighbors, gap, codes)
    else:
        slices = interp_missing_slices(volume, gap, estimator)
    if name == "sh4":  # onto the acquisition directions
        return np.stack([project_sh_slice(s.data, shared.sh_basis) for s in slices], axis=2)
    return np.stack([s.data for s in slices], axis=2)


def _evaluate_cell(data, shared: _Shared, method, gap, models):
    """The cell's score for each of SERIES, in that order, then its runtime:
    the method's estimator runs on its domain and on b0, both read from
    ``shared.inputs``."""
    start = time.perf_counter()
    domain, estimator = METHODS[method]
    est_stack = _estimate(shared, domain, estimator, gap, models)
    signal_mse = _normalized_mse(est_stack, data.dwi.data[:, :, gap.slab], shared.span)

    b0_stack = _estimate(shared, "b0", estimator, gap, models)
    fa_est, md_est = dti_scalars(fit_dti(Volume4D(est_stack), Volume4D(b0_stack), data.gtab))
    est = {"fa": fa_est, "md": md_est}
    gt = {
        "fa": Volume4D(shared.fa_gt.data[:, :, gap.slab]),
        "md": Volume4D(shared.md_gt.data[:, :, gap.slab]),
    }
    labels_gap = Volume4D(data.labels.data[:, :, gap.slab])
    scores = tuple(
        signal_mse
        if region == "all"
        else mse_region(est[metric], gt[metric], labels_gap, REGION_LABELS[region])
        for metric, region in SERIES
    )
    return scores + (time.perf_counter() - start,)


def default_gaps(z_dim: int) -> list[int]:
    """Up to five interior gap starts, every other slice from z = 2, each with
    room for N = 2 plus both neighbors; the middle slice when none fits."""
    gaps = list(range(2, z_dim - 3))[::2][:5]
    return gaps or [z_dim // 2]


def _sh_bound_for_gap(data: PhantomData, shared: _Shared, gap: GapSpec) -> float:
    """The SH fit-project error of the gap's ground-truth slices."""
    recon = project_sh_slice(shared.inputs["sh4"].data[:, :, gap.slab], shared.sh_basis)
    return _normalized_mse(recon, data.dwi.data[:, :, gap.slab], shared.span)


def run_experiment(
    data: PhantomData,
    methods=DEFAULT_METHODS,
    gaps=None,
    n_values=GAP_WIDTHS,
    models=None,
    lmax: int = DEFAULT_LMAX,
    threads: int | None = None,
    folds: int = 1,
) -> EvalReport:
    """Run the full method x N x gap grid and assemble the report.

    ``models`` maps {'signal', 'sh4', 'b0'} to Autoencoder instances for the
    ``ae`` methods of :data:`METHODS`; the sh4 net must read one channel per
    SH coefficient of order ``lmax``, else a ``ShapeError``. They are shared,
    not copied: every cell reads the caller's instances, which inference does
    not change (an encode or decode keeps no layer state, and a model builds
    its inference plan once), and they must not be trained or
    otherwise mutated while the grid runs. One thread pool of
    ``max(1, threads or 1)`` workers first encodes each neighbor slice the
    autoencoder cells read, once per model, then runs the cells; report
    assembly is always in fixed order, so the worker count never changes the
    report. The pool runs with one BLAS thread, so its threads do not
    oversubscribe the cores and ``threads`` never changes what a task
    computes; the setting is process-wide while the pool runs and the previous
    count is restored afterwards. A method's ``timing`` is the sum of its
    cells' run times, each covering the cell's estimates (its b0 slices
    included), tensor fit and scores but not the shared per-experiment work.
    ``gaps`` defaults to :func:`default_gaps` of the study's slice count.
    ``methods``, ``gaps`` and ``n_values`` must be non-empty and free of
    repeats, every gap must keep a neighbor slice on both sides, and every
    region of :data:`REGION_LABELS` must have voxels in every gap's slab, else
    an ``EmptyMask`` before any fit or encode runs. ``folds``
    > 1 adds a per-fold breakdown (gap positions split round-robin), the
    desk-scale stand-in for subject-level cross-validation.
    """
    methods = list(methods)
    gaps = default_gaps(data.dwi.dims[2]) if gaps is None else [int(z) for z in gaps]
    n_values = [int(n) for n in n_values]
    for axis, values in (("methods", methods), ("gaps", gaps), ("n_values", n_values)):
        if not values:
            raise ShapeError(f"{axis} must not be empty")
        if len(set(values)) != len(values):
            raise ShapeError(f"{axis} must not repeat a value, got {values}")
    for m in methods:
        if m not in METHODS:
            raise ShapeError(f"unknown method {m!r} (choose from {ALL_METHODS})")
        domain, estimator = METHODS[m]
        if estimator == "ae" and (models is None or not {domain, "b0"} <= models.keys()):
            raise ModelMissing(f"{m} needs {domain!r} and 'b0' models")
        if estimator == "ae" and domain == "sh4":
            check_sh_model(models[domain], lmax)
    if folds < 1 or folds > len(gaps):
        raise ShapeError(f"folds must lie in [1, {len(gaps)}], got {folds}")
    for n in n_values:
        for g in gaps:
            gap = GapSpec(gap_start=g, n_missing=n)
            gap.validate_for(data.dwi.dims[2])
            labels = data.labels.data[:, :, gap.slab, 0]
            for region, label in REGION_LABELS.items():
                if not np.any(labels == label):
                    raise EmptyMask(
                        f"no voxels of region {region!r} (label {label}) in the gap "
                        f"of N = {n} at z = {g}"
                    )

    shared = _shared_inputs(data, lmax)

    config = {
        "methods": methods,
        "gaps": gaps,
        "n_values": n_values,
        "lmax": lmax,
        "folds": folds,
        "regions": sorted(REGION_LABELS),
    }
    report = EvalReport(config=config)

    jobs = [(n, m, g) for n in n_values for m in methods for g in gaps]
    with one_blas_thread(), ThreadPoolExecutor(max_workers=max(1, threads or 1)) as pool:
        shared = _with_latents(shared, pool, methods, gaps, n_values, models)
        scores = pool.map(
            lambda job: _evaluate_cell(data, shared, job[1], GapSpec(job[2], job[0]), models),
            jobs,
        )
        cells = dict(zip(jobs, scores))

    for n in n_values:
        n_key = str(n)
        values = {}  # method -> series -> per-gap scores
        report.results[n_key], report.timing[n_key] = {}, {}
        for method in methods:
            *columns, runtimes = map(list, zip(*(cells[(n, method, g)] for g in gaps)))
            values[method] = dict(zip(SERIES, columns))
            report.results[n_key][method] = _results_cell(values[method])
            report.timing[n_key][method] = float(np.sum(runtimes))

        bound_vals = [_sh_bound_for_gap(data, shared, GapSpec(g, n)) for g in gaps]
        report.sh_bound[n_key] = {
            "per_gap": bound_vals,
            "mean": float(np.mean(bound_vals)),
        }

        report.wilcoxon[n_key] = _wilcoxon_block(values, methods)

        if folds > 1:
            report.folds[n_key] = {
                f"fold{f}": {
                    "gaps": gaps[f::folds],
                    "signal_mse": {
                        method: float(np.mean(values[method][SIGNAL][f::folds]))
                        for method in methods
                    },
                }
                for f in range(folds)
            }
    return report


def _wilcoxon_block(values: dict, methods) -> dict:
    """Paired tests of every method pair on each of SERIES, keyed
    [metric][region][a_vs_b]; ``values`` maps method -> series -> per-gap scores."""
    block = {}
    for series in SERIES:
        metric, region = series
        tests = {}
        block.setdefault(metric, {})[region] = tests
        for a, b in combinations(methods, 2):
            try:
                w, p = wilcoxon_signed_rank(values[a][series], values[b][series])
                entry = {"W": w, "p": p}
            except DegenerateSample as exc:
                entry = {"W": None, "p": None, "note": str(exc)}
            tests[f"{a}_vs_{b}"] = entry
    return block
