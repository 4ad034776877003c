"""Benchmark of dmrislice: one workload, one seed, one run.

    python3 bench/run.py --workload eval-grid --seed 8 --seconds 15 --trace 0

Builds the workload's inputs from the seed, sets up, then runs the
workload's operation in a closed loop for ``--seconds`` seconds (always at
least one whole pass over its inputs) and checks every output. Human-readable
lines come first; the last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``. With ``--trace 0`` the
metrics are the end-to-end metrics; with ``--trace 1`` they are the
per-layer metrics of a traced run, whose spans are written to
``bench/out/``. See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import shutil
import sys
import tempfile
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np
import scipy

import spans

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

# Percentiles a tail may be reported at, from the median up.
LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)


def tail_percentile(n: int) -> float | None:
    """The highest percentile of ``LADDER`` with at least ten of ``n`` samples
    beyond it, or None when even the median has fewer."""
    best = None
    for p in LADDER:
        if n * (100.0 - p) / 100.0 >= 10.0 - 1e-9:
            best = p
    return best


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas_threads():
    """Thread count reported by the OpenBLAS that NumPy loaded, if any."""
    try:
        with open("/proc/self/maps") as fh:
            libs = {ln.split()[-1] for ln in fh if "openblas" in ln.lower() and "/" in ln}
    except OSError:
        return None
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for sym in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment(seed: int) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError, ValueError):
        blas = {}
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": _blas_threads(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "seed": seed,
    }


@dataclass
class LoopResult:
    times: list[float] = field(default_factory=list)  # seconds, one per completed op
    kinds: list[int] = field(default_factory=list)  # the workload's class of each
    items: int = 0
    attempted: int = 0
    failed: int = 0

    def p50(self) -> float:
        """Mean over the classes of op of their median op time, in seconds."""
        times, kinds = np.array(self.times), np.array(self.kinds)
        return float(np.mean([np.median(times[kinds == k]) for k in np.unique(kinds)]))


def _one_op(w, i: int, res: LoopResult, rec) -> None:
    res.attempted += 1
    try:
        t0 = perf_counter()
        out = w.op(i, rec)
        res.times.append(perf_counter() - t0)
        res.kinds.append(w.kind(i))
        res.items += w.items(i)
        problems = w.check(i, out)
    except Exception:  # a failed op is counted, the loop keeps running
        traceback.print_exc(file=sys.stderr)
        problems = ["op raised"]
    if problems:
        res.failed += 1
        print(f"op {i} failed: {'; '.join(problems)}", file=sys.stderr)


def closed_loop(w, seconds: float, instr=None) -> tuple[LoopResult, LoopResult | None]:
    """Run ops back to back until ``seconds`` have passed and the current pass
    over the workload's inputs is complete; check each output untimed.

    With ``instr`` (a traced run) every op runs twice back to back, untraced
    and traced, alternating which goes first, so that both see the same
    machine state; returns (untraced, traced), else (untraced, None).
    """
    plain = LoopResult()
    traced = LoopResult() if instr else None
    start = perf_counter()
    i = 0
    while i == 0 or i % w.cycle or perf_counter() - start < seconds:
        if instr is None:
            _one_op(w, i, plain, None)
        else:
            for with_trace in ((False, True) if i % 2 == 0 else (True, False)):
                if with_trace:
                    instr.install()
                    try:
                        _one_op(w, i, traced, instr.rec)
                    finally:
                        instr.uninstall()
                else:
                    _one_op(w, i, plain, None)
        i += 1
    return plain, traced


# The end-to-end metrics of BENCHMARK.json and their units; bench/README.md
# gives what each reads on each workload.
END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "pass_ratio": "ratio",
    "op_ms_p50": "ms",
    "op_ms_p90": "ms",
    "work_per_s": "1/s",
    "quality_mse": "mse",
}

# The eleven workload-specific metric names (grid_s, gap_ms_p50, ...), each
# read from the run on the workloads that produce it.
NAMED_METRICS = (
    ("setup_s", "s", None),
    ("peak_rss_mb", "MB", None),
    ("fail_ratio", "ratio", None),
    ("grid_s", "s", "eval-grid"),
    ("grid_signal_mse", "mse", "eval-grid"),
    ("grid_fa_mse_wm", "mse", "eval-grid"),
    ("train_slices_per_s", "1/s", "train-nets"),
    ("val_mse", "mse", "train-nets"),
    ("gap_ms_p50", "ms", "infer-sh4"),
    ("gap_ms_p90", "ms", "infer-sh4"),
    ("gap_mse", "mse", "infer-sh4"),
)


def named_values(m: dict, quality: dict) -> dict:
    """The workload-specific metrics; None where the run produced no figure."""
    p50 = m.get("op_ms_p50")
    return {
        "setup_s": m["setup_s"],
        "peak_rss_mb": m["peak_rss_mb"],
        "fail_ratio": 1.0 - m["pass_ratio"],
        "grid_s": None if p50 is None else p50 / 1000.0,
        "grid_signal_mse": quality.get("signal_mse"),
        "grid_fa_mse_wm": quality.get("fa_mse_wm"),
        "train_slices_per_s": m.get("work_per_s"),
        "val_mse": quality.get("val_mse"),
        "gap_ms_p50": p50,
        "gap_ms_p90": m.get("op_ms_p90"),
        "gap_mse": quality.get("gap_mse"),
    }


def run(workload: str, seed: int, seconds: float, trace: bool, cfg=None, out_dir=OUT_DIR):
    """One benchmark run; returns (result line, report for the results file)."""
    import workloads  # imports dmrislice, so only once ``src`` is on the path

    cfg = cfg or workloads.FULL
    os.makedirs(out_dir, exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix="work-", dir=out_dir)
    rec = spans.Recorder() if trace else None
    instr = spans.Instrumentation(rec) if trace else None
    try:
        # An untraced run sets up ``setup_repeats`` times, each time afresh,
        # reports the median and keeps the last; a traced run sets up once.
        cls = workloads.WORKLOADS[workload]
        setup_times = []
        for _ in range(1 if trace else cls.setup_repeats):
            shutil.rmtree(work_dir)
            os.makedirs(work_dir)
            w = cls(cfg, seed, work_dir)
            if instr:
                instr.install()
            t0 = perf_counter()
            try:
                w.setup(rec)
            finally:
                if instr:
                    instr.uninstall()
            setup_times.append(perf_counter() - t0)
        setup_s = float(np.median(setup_times))
        if rec:
            rec.phase = spans.LOOP
        plain, traced = closed_loop(w, seconds, instr)
        try:
            finish_problems = w.finish()
        except Exception:
            traceback.print_exc(file=sys.stderr)
            finish_problems = ["run check raised"]
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    for p in finish_problems:
        print(f"run check failed: {p}", file=sys.stderr)
    loops = [plain] + ([traced] if traced else [])
    # The run-level check counts as one more check attempted.
    attempted = sum(r.attempted for r in loops) + 1
    failed = sum(r.failed for r in loops) + bool(finish_problems)
    # A traced run reports the traced ops; an untraced run the only ones.
    loop = traced or plain
    quality = w.quality()
    e2e = {
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "pass_ratio": 1.0 - failed / attempted,
    }
    # With no op completed there is no time or quality to report; the run is
    # then incorrect (every op failed) and reports the three figures above.
    if loop.times and quality:
        e2e.update(
            op_ms_p50=loop.p50() * 1000.0,
            op_ms_p90=float(np.percentile(loop.times, 90)) * 1000.0,
            work_per_s=loop.items / sum(loop.times),
            quality_mse=next(iter(quality.values())),
        )
    if trace:
        metrics = spans.layer_metrics(rec.spans)
        if traced.times and plain.times:
            metrics["trace.overhead_ratio"] = traced.p50() / plain.p50()
        units = {k: spans.unit_of(k) for k in metrics}
        rec.write(os.path.join(out_dir, f"trace-{workload}-seed{seed}.jsonl"))
    else:
        metrics = e2e
        units = END_TO_END
    report = {
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        "env": environment(seed),
        "ops": len(loop.times),
        "tail_percentile_allowed": tail_percentile(len(loop.times)),
        "unit_of_work": w.unit,
        "end_to_end": e2e,
        "named_metrics": named_values(e2e, quality),
        "per_layer": metrics if trace else None,
    }
    line = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    return line, report


def _print_human(workload: str, report: dict) -> None:
    print("env " + json.dumps(report["env"], sort_keys=True))
    tail = report["tail_percentile_allowed"]
    print(
        f"workload {workload}: {report['ops']} ops; the highest percentile with "
        f"ten samples beyond it is {'none' if tail is None else f'p{tail:g}'}"
    )
    named = report["named_metrics"]
    for name, unit, only in NAMED_METRICS:
        value = named[name]
        if only not in (None, workload):
            shown = "n/a (other workload)"
        elif value is None:
            shown = "n/a (no op completed)"
        else:
            shown = f"{value:.6g} {unit}"
        print(f"  {name:<20} {shown}")
    for name, value in report["end_to_end"].items():
        print(f"  e2e {name:<16} {value:.6g} {END_TO_END[name]}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=["eval-grid", "train-nets", "infer-sh4"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    if not (SRC / "dmrislice" / "__init__.py").is_file():
        print(f"no dmrislice sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import dmrislice

    if Path(dmrislice.__file__).resolve().parent != SRC / "dmrislice":
        print(f"imported dmrislice from {dmrislice.__file__}, not {SRC}", file=sys.stderr)
        return 2

    line, report = run(args.workload, args.seed, args.seconds, bool(args.trace))
    with open(
        OUT_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json", "w"
    ) as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    _print_human(args.workload, report)
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
