"""Span recording around the public calls of the ``dmrislice`` modules.

Nothing in the library is edited. :class:`Instrumentation` replaces every
public function and every public method of every ``dmrislice`` module, in
the defining module and in each module that imported the name, with a wrapper
that records a span; :meth:`Instrumentation.uninstall` puts the originals
back. Spans are kept in memory and written as JSON lines when the run ends.
Per-layer metrics are computed from the spans by :func:`layer_metrics`.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import os
import sys
import threading
import weakref
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, field
from time import perf_counter

# Modules left unwrapped: ``cli`` parses arguments and ``errors`` only holds
# exception classes; the benchmark calls neither.
SKIPPED_MODULES = {"dmrislice.cli", "dmrislice.errors"}

SETUP = "setup"
LOOP = "loop"


@dataclass
class Span:
    sid: int
    name: str
    start: float
    end: float
    parent: int | None
    thread: int
    phase: str
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """Thread-safe span recorder.

    Each thread keeps its own stack of open spans; a new span's parent is the
    innermost open span of its thread unless one is passed explicitly (the
    thread-pool wrapper passes the span that submitted the task).
    """

    def __init__(self):
        self.spans: list[Span] = []
        self.phase = SETUP
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._lock = threading.Lock()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> int | None:
        stack = self._stack()
        return stack[-1] if stack else None

    @contextmanager
    def span(self, name: str, parent: int | None = None, **attrs):
        """Record ``name`` around the body; the body may add to ``attrs``."""
        stack = self._stack()
        with self._lock:
            sid = next(self._ids)
        if parent is None and stack:
            parent = stack[-1]
        phase = self.phase
        stack.append(sid)
        start = perf_counter()
        try:
            yield attrs
        finally:
            end = perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append(
                    Span(sid, name, start, end, parent, threading.get_ident(), phase, attrs)
                )

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(
                    json.dumps(
                        {
                            "id": s.sid,
                            "name": s.name,
                            "start": s.start,
                            "end": s.end,
                            "parent": s.parent,
                            "thread": s.thread,
                            "phase": s.phase,
                            "attrs": s.attrs,
                        }
                    )
                    + "\n"
                )


# -- counters taken at the layer boundaries ---------------------------------


def _voxels(vol) -> int:
    x, y, z = vol.dims[:3]
    return x * y * z


def _conv_counts(layer, activation, backward: bool) -> dict:
    """Computed (not measured) FLOPs and bytes of one same-size convolution.

    ``activation`` is the input (forward) or the output gradient (backward);
    both share the batch and spatial size. Forward: 2*B*Cout*Cin*k*k*H*W
    FLOPs; bytes are the input, the weights and the output. Backward computes
    the weight and the input gradients, twice the forward FLOPs, and reads the
    input, the output gradient and the weights and writes both gradients.
    Cache misses and the sliding-window view are ignored.
    """
    b, _, h, w = activation.shape
    cin, cout, k = layer.c_in, layer.c_out, layer.ksize
    flops = 2 * b * cout * cin * k * k * h * w
    act_in = b * cin * h * w
    act_out = b * cout * h * w
    weights = cout * cin * k * k
    size = activation.itemsize
    if backward:
        return {"flop": 2 * flops, "bytes": size * (2 * act_in + act_out + 2 * weights)}
    return {"flop": flops, "bytes": size * (act_in + weights + act_out)}


def _grid_useful_voxels(data, methods, gaps, n_values) -> int:
    """Voxels a grid scores: each cell's gap slab plus, once, every slice of
    the ground-truth maps that some cell reads."""
    x, y = data.dwi.dims[:2]
    gt_slices = {z for n in n_values for g in gaps for z in range(g, g + n)}
    cell_slices = len(methods) * len(gaps) * sum(n_values)
    return x * y * (cell_slices + len(gt_slices))


def _channels(img) -> int:
    if hasattr(img, "channels"):
        return img.channels
    return img.shape[2] if img.ndim == 3 else 1


def _grid_counts(a, attrs):
    threads = a["threads"]
    attrs["threads"] = threads if threads and threads > 1 else 1
    attrs["useful_voxels"] = _grid_useful_voxels(a["data"], a["methods"], a["gaps"], a["n_values"])


# Counters taken before a call, from its bound arguments, keyed by span name.
BEFORE = {
    "dti.fit_dti": lambda a, attrs: attrs.update(voxels=_voxels(a["dwi"])),
    "sh.fit_sh": lambda a, attrs: attrs.update(voxels=_voxels(a["dwi"])),
    "inference.histogram_match": lambda a, attrs: attrs.update(channels=_channels(a["source"])),
    "ae.model.Autoencoder.encode": lambda a, attrs: attrs.update(items=len(a["x"])),
    "ae.model.Autoencoder.decode": lambda a, attrs: attrs.update(items=len(a["z"])),
    "ae.layers.Conv2D.forward": lambda a, attrs: attrs.update(
        _conv_counts(a["self"], a["x"], backward=False)
    ),
    "ae.layers.Conv2D.backward": lambda a, attrs: attrs.update(
        _conv_counts(a["self"], a["dy"], backward=True)
    ),
    "nifti.read_nifti": lambda a, attrs: attrs.update(bytes=os.path.getsize(a["path"])),
    "evaluate.run_experiment": _grid_counts,
}
AFTER = {
    "nifti.write_nifti": lambda a, attrs: attrs.update(bytes=os.path.getsize(a["path"])),
}


class Instrumentation:
    """Installs and removes the span wrappers."""

    def __init__(self, recorder: Recorder):
        self.rec = recorder
        self._saved: list[tuple[object, str, object]] = []
        # Clones made by Autoencoder.clone that no encode or decode has used yet.
        self._unused_clones: weakref.WeakSet = weakref.WeakSet()
        self._clone_lock = threading.Lock()

    def _clone_made(self, model) -> None:
        with self._clone_lock:
            self._unused_clones.add(model)

    def _first_use(self, model, attrs) -> None:
        with self._clone_lock:
            if model in self._unused_clones:
                self._unused_clones.discard(model)
                attrs["clone_first_use"] = 1

    def _wrap(self, fn, name):
        rec = self.rec
        before, after = BEFORE.get(name), AFTER.get(name)
        model_call = name in ("ae.model.Autoencoder.encode", "ae.model.Autoencoder.decode")
        clone = name == "ae.model.Autoencoder.clone"
        if before is None and after is None and not clone:

            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                with rec.span(name):
                    return fn(*args, **kwargs)

            return wrapper

        sig = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            with rec.span(name) as attrs:
                if before is not None:
                    before(bound.arguments, attrs)
                if model_call:
                    self._first_use(args[0], attrs)
                result = fn(*args, **kwargs)
                if after is not None:
                    after(bound.arguments, attrs)
                if clone:
                    self._clone_made(result)
                return result

        return wrapper

    def _set(self, owner, attr, value):
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("instrumentation is already installed")
        modules = [
            m
            for name, m in sorted(sys.modules.items())
            if m is not None and (name == "dmrislice" or name.startswith("dmrislice."))
        ]
        replaced = {}
        for mod in modules:
            if mod.__name__ in SKIPPED_MODULES:
                continue
            short = mod.__name__[len("dmrislice.") :]
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    replaced[obj] = self._wrap(obj, f"{short}.{attr}")
                elif inspect.isclass(obj):
                    for meth, fn in list(vars(obj).items()):
                        if not meth.startswith("_") and inspect.isfunction(fn):
                            self._set(obj, meth, self._wrap(fn, f"{short}.{attr}.{meth}"))
        # Rebind every module-level reference to a wrapped function, so calls
        # through ``from .x import f`` copies are recorded too.
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in replaced:
                    self._set(mod, attr, replaced[obj])
        evaluate = sys.modules.get("dmrislice.evaluate")
        if evaluate is not None:
            self._set(evaluate, "ThreadPoolExecutor", self._traced_pool())

    def _traced_pool(self):
        rec = self.rec

        class TracedPool(ThreadPoolExecutor):
            """Records each task as ``evaluate.pool.task``, parented to the
            span that submitted it."""

            def submit(self, fn, /, *args, **kwargs):
                parent = rec.current()

                def task():
                    with rec.span("evaluate.pool.task", parent=parent):
                        return fn(*args, **kwargs)

                return super().submit(task)

        return TracedPool

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


# -- metrics ------------------------------------------------------------------


def covered(interval: tuple[float, float], children: list[tuple[float, float]]) -> float:
    """Length of the part of ``interval`` that the union of ``children`` covers."""
    lo, hi = interval
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in children if b > lo and a < hi)
    total = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the part of it its child spans cover.

    Children running on other threads (pool tasks) may overlap each other;
    the union of their intervals is subtracted, never their sum.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    return {
        s.sid: s.duration - covered((s.start, s.end), children.get(s.sid, []))
        for s in spans
    }


LAYER_CLASSES = {
    "conv2d": "Conv2D",
    "batchnorm": "BatchNorm2D",
    "elu": "ELU",
    "pool": "AvgPool2x2",
    "upsample": "NearestUpsample2x2",
    "sigmoid": "Sigmoid",
}

def unit_of(metric: str) -> str:
    """Unit of a per-layer metric, from its name."""
    last = metric.rsplit(".", 1)[-1]
    if last.endswith("ratio"):
        return "ratio"
    if last == "gflop":
        return "GFLOP"
    if last == "gflop_per_s":
        return "GFLOP/s"
    if last == "flop_per_byte":
        return "flop/B"
    if last in ("calls", "items", "channels"):
        return "count"
    if last in ("voxels", "bytes"):
        return last
    return "s"


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer metrics from one traced run.

    Metrics of set-up layers (NIfTI, phantom, checkpoints) use the set-up
    spans; the per-net epoch times use every ``bench.train`` span, the
    benchmark's own span around each ``train()`` call; all others use the
    spans of the measured loop only. A ratio without a base reads 0.
    """
    by_phase = {
        SETUP: [s for s in spans if s.phase == SETUP],
        LOOP: [s for s in spans if s.phase == LOOP],
        "all": spans,
    }
    self_s = self_times(spans)

    def pick(phase, name):
        return [s for s in by_phase[phase] if s.name == name]

    def total(name, phase=LOOP):
        return float(sum(s.duration for s in pick(phase, name)))

    def count(name, phase=LOOP):
        return float(len(pick(phase, name)))

    def attr(name, key, phase=LOOP):
        return float(sum(s.attrs.get(key, 0) for s in pick(phase, name)))

    def self_total(name, phase=LOOP):
        return float(sum(self_s[s.sid] for s in pick(phase, name)))

    m: dict[str, float] = {}
    m["dti.fit_dti.s"] = total("dti.fit_dti")
    m["dti.fit_dti.voxels"] = attr("dti.fit_dti", "voxels")
    m["dti.fit_dti.useful_ratio"] = _ratio(
        attr("evaluate.run_experiment", "useful_voxels"), m["dti.fit_dti.voxels"]
    )
    m["dti.eig_sym3.s"] = total("dti.eig_sym3")
    m["dti.eig_sym3.calls"] = count("dti.eig_sym3")
    m["dti.fa_map.s"] = total("dti.fa_map")
    m["dti.md_map.s"] = total("dti.md_map")

    m["interp.interp_missing_slices.s"] = total("interp.interp_missing_slices")
    m["interp.bspline_prefilter.s"] = total("interp.bspline_prefilter")

    m["sh.fit_sh.s"] = total("sh.fit_sh")
    m["sh.fit_sh.calls"] = count("sh.fit_sh")
    m["sh.fit_sh.voxels"] = attr("sh.fit_sh", "voxels")
    m["sh.sh_basis_matrix.s"] = total("sh.sh_basis_matrix")
    m["sh.project_sh_slice.s"] = total("sh.project_sh_slice")

    m["inference.infer_between_slices.self_s"] = self_total("inference.infer_between_slices")
    m["inference.histogram_match.s"] = total("inference.histogram_match")
    m["inference.histogram_match.channels"] = attr("inference.histogram_match", "channels")

    model = "ae.model.Autoencoder"
    for op in ("encode", "decode"):
        m[f"ae.{op}.s"] = total(f"{model}.{op}")
        m[f"ae.{op}.calls"] = count(f"{model}.{op}")
        m[f"ae.{op}.items"] = attr(f"{model}.{op}", "items")
    m["ae.loss_and_grads.s"] = total(f"{model}.loss_and_grads")
    m["ae.state_snapshot.s"] = total(f"{model}.state_snapshot")
    m["ae.clone.s"] = total(f"{model}.clone")
    m["ae.clone.calls"] = count(f"{model}.clone")

    for short, cls in LAYER_CLASSES.items():
        m[f"ae.{short}.fwd_s"] = total(f"ae.layers.{cls}.forward")
        m[f"ae.{short}.bwd_s"] = total(f"ae.layers.{cls}.backward")
    conv = [f"ae.layers.Conv2D.{d}" for d in ("forward", "backward")]
    flop = sum(attr(n, "flop") for n in conv)
    nbytes = sum(attr(n, "bytes") for n in conv)
    m["ae.conv2d.gflop"] = flop / 1e9
    m["ae.conv2d.flop_per_byte"] = _ratio(flop, nbytes)
    m["ae.conv2d.gflop_per_s"] = _ratio(
        flop / 1e9, m["ae.conv2d.fwd_s"] + m["ae.conv2d.bwd_s"]
    )

    m["ae.adam.step_s"] = total("ae.optim.Adam.step")
    for net in ("b0", "signal", "sh4"):
        runs = [s for s in pick("all", "bench.train") if s.attrs["net"] == net]
        m[f"ae.train.epoch_s.{net}"] = _ratio(
            sum(s.duration for s in runs), sum(s.attrs["epochs"] for s in runs)
        )
    m["ae.save_checkpoint.s"] = total("ae.checkpoint.save_checkpoint", SETUP)
    m["ae.load_checkpoint.s"] = total("ae.checkpoint.load_checkpoint", SETUP)

    m["evaluate.run_experiment.self_s"] = self_total("evaluate.run_experiment")
    m["evaluate.mse_region.s"] = total("evaluate.mse_region")
    m["evaluate.clone.useful_ratio"] = _ratio(
        attr(f"{model}.encode", "clone_first_use") + attr(f"{model}.decode", "clone_first_use"),
        m["ae.clone.calls"],
    )
    capacity = sum(
        s.duration * s.attrs["threads"]
        for s in pick(LOOP, "evaluate.run_experiment")
        if s.attrs["threads"] > 1
    )
    m["evaluate.thread_busy_ratio"] = _ratio(total("evaluate.pool.task"), capacity)

    m["stats.wilcoxon_signed_rank.s"] = total("stats.wilcoxon_signed_rank")
    m["stats.wilcoxon_signed_rank.calls"] = count("stats.wilcoxon_signed_rank")

    m["nifti.read_nifti.s"] = total("nifti.read_nifti", SETUP)
    m["nifti.write_nifti.s"] = total("nifti.write_nifti", SETUP)
    m["nifti.bytes"] = attr("nifti.read_nifti", "bytes", SETUP) + attr(
        "nifti.write_nifti", "bytes", SETUP
    )
    m["phantom.make_phantom.s"] = total("phantom.make_phantom", SETUP)
    m["volume.normalize_slice.s"] = total("volume.normalize_slice")
    m["volume.replace_slices.s"] = total("volume.replace_slices")
    return m
