"""Self-tests of the benchmark: the percentile rule, the self-time arithmetic,
and a smoke run of every workload, untraced and traced, on a 32x32x8 phantom
with 1 training epoch."""

import json
import math
import sys
import threading
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
for path in (BENCH.parent / "src", BENCH):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import dmrislice  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


@pytest.mark.parametrize(
    "n, expected",
    [(10000, 99.9), (1000, 99.0), (200, 95.0), (100, 90.0), (99, 75.0), (40, 75.0),
     (39, 50.0), (20, 50.0), (19, None), (1, None)],
)
def test_tail_percentile_keeps_ten_samples_beyond(n, expected):
    assert run.tail_percentile(n) == expected


def _span(sid, start, end, parent=None, thread=1):
    return spans.Span(sid, f"s{sid}", start, end, parent, thread, spans.LOOP)


def test_self_time_subtracts_children_not_grandchildren():
    tree = [
        _span(1, 0.0, 10.0),
        _span(2, 1.0, 3.0, parent=1),
        _span(3, 4.0, 6.5, parent=1),
        _span(4, 4.5, 5.0, parent=3),
    ]
    got = spans.self_times(tree)
    assert got == {1: 10.0 - 2.0 - 2.5, 2: 2.0, 3: 2.5 - 0.5, 4: 0.5}


def test_self_time_takes_the_union_of_overlapping_children():
    # Two pool tasks on two threads overlap in [2, 6]; one runs past the parent.
    tree = [
        _span(1, 0.0, 10.0),
        _span(2, 1.0, 6.0, parent=1, thread=2),
        _span(3, 2.0, 12.0, parent=1, thread=3),
    ]
    assert spans.self_times(tree)[1] == pytest.approx(1.0)
    assert spans.covered((0.0, 10.0), []) == 0.0


def test_recorder_links_parents_per_thread():
    rec = spans.Recorder()

    def task(parent):
        with rec.span("task", parent=parent):
            pass

    with rec.span("outer"):
        with rec.span("inner"):
            pass
        worker = threading.Thread(target=task, args=(rec.current(),))
        worker.start()
        worker.join(timeout=10)
    assert not worker.is_alive()
    by_name = {s.name: s for s in rec.spans}
    assert by_name["outer"].parent is None
    assert by_name["inner"].parent == by_name["outer"].sid
    assert by_name["task"].parent == by_name["outer"].sid
    assert by_name["task"].thread != by_name["outer"].thread


def _finite_metrics(line):
    return all(math.isfinite(m["value"]) for m in line["metrics"].values())


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_untraced(workload, tmp_path):
    line, report = run.run(workload, 3, 0.01, False, cfg=workloads.SMOKE, out_dir=tmp_path)
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
    assert list(line["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == {
        k: v["unit"] for k, v in line["metrics"].items()
    }
    assert _finite_metrics(line)
    assert all(v["value"] > 0 for v in line["metrics"].values())
    assert set(report["env"]) >= {"nproc", "cpu_model", "blas", "blas_threads", "seed"}


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_traced_predicts_no_work(workload, tmp_path):
    line, _ = run.run(workload, 3, 0.01, True, cfg=workloads.SMOKE, out_dir=tmp_path)
    assert line["correct"] and line["failed"] == 0
    assert list(line["metrics"]) == [m["name"] for m in SPEC["per_layer"]]
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == {
        k: v["unit"] for k, v in line["metrics"].items()
    }
    assert _finite_metrics(line)
    m = {k: v["value"] for k, v in line["metrics"].items()}
    assert m["trace.overhead_ratio"] > 0
    assert m["ae.conv2d.fwd_s"] > 0
    if workload != "eval-grid":
        assert all(v == 0 for k, v in m.items() if k.startswith(("dti.", "interp.")))
    if workload != "train-nets":
        assert m["ae.adam.step_s"] == 0
        assert all(v == 0 for k, v in m.items() if k.endswith(".bwd_s"))
    assert (tmp_path / f"trace-{workload}-seed3.jsonl").is_file()
    # The wrappers are gone once the run ends.
    assert not hasattr(dmrislice.fit_dti, "__wrapped__")
    assert not hasattr(dmrislice.ae.Autoencoder.encode, "__wrapped__")


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_run_whose_every_op_raises_reports_failure(workload, tmp_path, monkeypatch):
    class Raising(workloads.WORKLOADS[workload]):
        def op(self, i, rec):
            raise RuntimeError("op fails on purpose")

    monkeypatch.setitem(workloads.WORKLOADS, workload, Raising)
    line, report = run.run(workload, 3, 0.01, False, cfg=workloads.SMOKE, out_dir=tmp_path)
    ops = report["ops"]
    assert ops == 0 and not line["correct"]
    assert line["failed"] >= line["attempted"] - 1 >= 1
    assert set(line["metrics"]) == {"setup_s", "peak_rss_mb", "pass_ratio"}
    assert line["metrics"]["pass_ratio"]["value"] < 1


def test_trained_slices_follows_the_split_and_batch_rules():
    # 16 slices: 2 held out for validation, 14 left, one batch of 8 trained.
    assert workloads.trained_slices(16, 8) == 8
    assert workloads.trained_slices(64, 8) == 48
    assert workloads.trained_slices(3, 1) == 2


def test_p50_averages_the_median_of_each_class_of_op():
    # A pooled median would fall between the clusters, at (3 + 10) / 2.
    res = run.LoopResult(times=[1.0, 2.0, 3.0, 10.0, 20.0, 30.0], kinds=[1, 1, 1, 2, 2, 2])
    assert res.p50() == pytest.approx((2.0 + 20.0) / 2)
