import csv
import json
from dataclasses import replace

import numpy as np
import pytest

import dmrislice.evaluate as evaluate
import dmrislice.inference as inference
from dmrislice.ae import Autoencoder, ModelConfig, load_checkpoint, save_checkpoint
from dmrislice.dti import _eigvals_sym3, fit_dti
from dmrislice.errors import EmptyMask, ModelMissing, ShapeError
from dmrislice.evaluate import REGION_LABELS, mse_region, run_experiment
from dmrislice.inference import infer_gap_sh, infer_gap_signal
from dmrislice.interp import interp_missing_slices
from dmrislice.phantom import PhantomSpec, make_phantom
from dmrislice.volume import GapSpec, Volume4D, b0_mean
from layer_state import assert_state_unchanged, layer_state


@pytest.fixture(scope="module")
def noisy_phantom():
    return make_phantom(
        PhantomSpec(dims=(24, 24, 12), n_directions=20, noise="rician", noise_sigma=0.02, seed=5)
    )


def labels_volume(shape, label=1):
    data = np.full(shape + (1,), float(label))
    return Volume4D(data)


def test_mse_region_exact_cases():
    gt = Volume4D(np.zeros((4, 4, 2, 1)))
    labels = labels_volume((4, 4, 2))
    assert mse_region(gt, gt, labels, 1) == 0.0
    est = Volume4D(np.full((4, 4, 2, 1), 0.1))
    assert mse_region(est, gt, labels, 1) == pytest.approx(0.01, abs=1e-15)


def test_mse_region_half_offset():
    data = np.zeros((4, 4, 2, 1))
    data[:2] = 0.2  # half the region offset by 0.2, half exact
    est = Volume4D(data)
    gt = Volume4D(np.zeros((4, 4, 2, 1)))
    labels = labels_volume((4, 4, 2))
    assert mse_region(est, gt, labels, 1) == pytest.approx(0.02, abs=1e-15)


def test_mse_region_ignores_other_labels():
    rng = np.random.default_rng(0)
    gt = Volume4D(np.zeros((4, 4, 2, 1)))
    est_data = np.zeros((4, 4, 2, 1))
    labels_data = np.ones((4, 4, 2, 1))
    labels_data[0, 0] = 2  # voxels outside the region carry huge error
    est_data[0, 0] = 100.0
    assert (
        mse_region(Volume4D(est_data), gt, Volume4D(labels_data), 1)
        == 0.0
    )


def test_mse_region_empty():
    gt = Volume4D(np.zeros((2, 2, 2, 1)))
    labels = labels_volume((2, 2, 2), label=0)
    with pytest.raises(EmptyMask):
        mse_region(gt, gt, labels, 3)


def test_constant_z_profile_gives_zero_error():
    # every slice identical: any interpolation reproduces the gap exactly
    data = make_phantom(PhantomSpec(dims=(16, 16, 6), n_directions=12))
    flat_dwi = data.dwi.data.copy()
    flat_dwi[:] = flat_dwi[:, :, [2], :]
    flat_b0 = data.b0.data.copy()
    flat_b0[:] = flat_b0[:, :, [2], :]
    flat_labels = data.labels.data.copy()
    flat_labels[:] = flat_labels[:, :, [2], :]
    from dataclasses import replace

    flat = replace(
        data,
        dwi=data.dwi.with_data(flat_dwi),
        b0=data.b0.with_data(flat_b0),
        labels=Volume4D(flat_labels),
    )
    report = run_experiment(
        flat, methods=("linear", "cubic", "bspline5"), gaps=(2, 3), n_values=(1,)
    )
    for method, cell in report.results["1"].items():
        assert cell["signal_mse"]["mean"] < 1e-20


def test_report_structure_and_regions(noisy_phantom):
    report = run_experiment(
        noisy_phantom, methods=("linear", "cubic"), gaps=(1, 3, 5, 7, 9), n_values=(1, 2)
    )
    d = report.to_dict()
    for n in ("1", "2"):
        for method in ("linear", "cubic"):
            cell = d["results"][n][method]
            assert set(cell["fa_mse"]) == {"wm", "cgm", "cc"}
            assert set(cell["md_mse"]) == {"wm", "cgm", "cc"}
            assert len(cell["signal_mse"]["per_gap"]) == 5
        assert "linear_vs_cubic" in d["wilcoxon"][n]["signal"]["all"]
        assert d["sh_bound"][n]["mean"] >= 0.0
        assert n in d["timing"]


def test_sh_bound_below_methods_on_noiseless_phantom():
    data = make_phantom(PhantomSpec(dims=(24, 24, 12), n_directions=30, seed=2))
    report = run_experiment(
        data, methods=("linear", "cubic", "bspline5", "sh-linear"), gaps=(3, 6, 9), n_values=(1, 2)
    )
    d = report.to_dict()
    for n in ("1", "2"):
        bound = d["sh_bound"][n]["mean"]
        for method, cell in d["results"][n].items():
            assert bound <= cell["signal_mse"]["mean"]


def test_model_methods_require_models(noisy_phantom):
    with pytest.raises(ModelMissing):
        run_experiment(noisy_phantom, methods=("ae-signal",), gaps=(3, 5), n_values=(1,))
    with pytest.raises(ModelMissing):
        run_experiment(noisy_phantom, methods=("ae-sh4",), gaps=(3, 5), n_values=(1,))


def test_unknown_method_rejected(noisy_phantom):
    with pytest.raises(ShapeError):
        run_experiment(noisy_phantom, methods=("nearest",), gaps=(3,), n_values=(1,))


def test_determinism_modulo_timing(noisy_phantom):
    kw = dict(methods=("linear", "sh-linear"), gaps=(1, 3, 5, 7, 9), n_values=(1,))
    a = run_experiment(noisy_phantom, **kw).to_dict()
    b = run_experiment(noisy_phantom, **kw).to_dict()
    a.pop("timing")
    b.pop("timing")
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def _grid_models():
    return {
        "signal": Autoencoder(ModelConfig(latent_maps=2, input_size=16, base_width=1, seed=0)),
        "b0": Autoencoder(ModelConfig(latent_maps=2, input_size=16, base_width=1, seed=1)),
        "sh4": Autoencoder(
            ModelConfig(input_channels=15, latent_maps=2, input_size=16, base_width=1, seed=2)
        ),
    }


def test_a_one_channel_sh_net_is_refused(noisy_phantom):
    # A 1-channel net would run once per SH coefficient and exit cleanly.
    models = {**_grid_models(), "sh4": _grid_models()["b0"]}
    with pytest.raises(ShapeError, match="^SH order 4 needs an SH net of 15 input channels, not 1$"):
        run_experiment(noisy_phantom, methods=("ae-sh4",), gaps=(3,), n_values=(1,), models=models)


def test_threaded_equals_serial(noisy_phantom):
    _check_threaded_equals_serial(noisy_phantom, _grid_models())


def test_threaded_equals_serial_on_loaded_models(noisy_phantom, tmp_path):
    # Loaded checkpoints run the ae cells with a float32 body.
    models = {}
    for name, model in _grid_models().items():
        save_checkpoint(model, tmp_path / f"{name}.ckpt")
        models[name] = load_checkpoint(tmp_path / f"{name}.ckpt")
        assert models[name].dtype == np.float32
    threaded = _check_threaded_equals_serial(noisy_phantom, models)
    again = _check_threaded_equals_serial(noisy_phantom, models)
    assert json.dumps(again, sort_keys=True) == json.dumps(threaded, sort_keys=True)


def _check_threaded_equals_serial(noisy_phantom, models):
    """Serial and threaded grids over the ae methods give the same report,
    and every cell runs the caller's models without changing them; returns
    the threaded report without its timing block."""
    kw = dict(
        methods=("linear", "cubic", "ae-signal", "ae-sh4"), gaps=(3, 5, 7), n_values=(1, 2),
        models=models,
    )
    encoded = []  # names of the passed-in models, per encode call
    for name, model in models.items():
        def encode(x, name=name, inner=model.encode):
            encoded.append(name)
            return inner(x)

        model.encode = encode
    before = {name: layer_state(model) for name, model in models.items()}
    serial = run_experiment(noisy_phantom, **kw).to_dict()
    serial_encoded = sorted(encoded)
    encoded.clear()
    threaded = run_experiment(noisy_phantom, threads=3, **kw).to_dict()
    serial.pop("timing")
    threaded.pop("timing")
    assert json.dumps(serial, sort_keys=True) == json.dumps(threaded, sort_keys=True)
    # Serial or pooled, every cell ran the caller's models and changed none.
    assert sorted(encoded) == serial_encoded
    assert set(encoded) == set(models)
    for name, model in models.items():
        assert_state_unchanged(model, before[name])
        del model.encode  # back to the class's encode
    return threaded


def test_run_experiment_defaults_to_the_gaps_of_the_study(noisy_phantom):
    z = noisy_phantom.dwi.dims[2]
    assert z == 12  # too few slices for the gap starts 3..11 of larger studies
    report = run_experiment(noisy_phantom, methods=("linear",))
    assert report.config["gaps"] == evaluate.default_gaps(z)
    report = run_experiment(noisy_phantom, gaps=(4,), n_values=(1,))
    assert report.config["methods"] == list(evaluate.DEFAULT_METHODS)


def test_report_files(noisy_phantom, tmp_path):
    report = run_experiment(noisy_phantom, methods=("linear",), gaps=(3, 5), n_values=(1,))
    report.write(tmp_path)
    data = json.loads((tmp_path / "report.json").read_text())
    assert "results" in data and "wilcoxon" in data
    lines = (tmp_path / "report.csv").read_text().splitlines()
    assert lines[0] == "n_missing,method,metric,region,gap,value"
    assert len(lines) > 10


def test_report_csv_rows_match_report_json(noisy_phantom, tmp_path):
    methods, gaps = ("linear", "cubic", "sh-linear"), (1, 3, 5, 7, 9)
    run_experiment(noisy_phantom, methods=methods, gaps=gaps, n_values=(1, 2)).write(tmp_path)
    report = json.loads((tmp_path / "report.json").read_text())
    with open(tmp_path / "report.csv", newline="") as fh:
        header, *rows = csv.reader(fh)
    assert header == ["n_missing", "method", "metric", "region", "gap", "value"]
    got = [row[:5] + [float(row[5]) if row[5] else None] for row in rows]

    def series_rows(n, method, metric, region, entry):
        per_gap = [[n, method, metric, region, str(g), v] for g, v in zip(gaps, entry["per_gap"])]
        return per_gap + [[n, method, metric, region, "mean", entry["mean"]]]

    # Per N: each method's signal rows, then FA and MD with regions sorted;
    # the sh4-bound rows; the Wilcoxon p rows by metric, region and pair.
    pairs = sorted(f"{a}_vs_{b}" for k, a in enumerate(methods) for b in methods[k + 1:])
    regions = {"fa": ["cc", "cgm", "wm"], "md": ["cc", "cgm", "wm"], "signal": ["all"]}
    expected = []
    for n in ("1", "2"):
        for method in sorted(methods):
            cell = report["results"][n][method]
            expected += series_rows(n, method, "signal_mse", "all", cell["signal_mse"])
            for metric in ("fa_mse", "md_mse"):
                for region in regions["fa"]:
                    expected += series_rows(n, method, metric, region, cell[metric][region])
        expected += series_rows(n, "sh4-bound", "signal_mse", "all", report["sh_bound"][n])
        for metric, metric_regions in regions.items():
            assert sorted(report["wilcoxon"][n][metric]) == metric_regions
            for region in metric_regions:
                tests = report["wilcoxon"][n][metric][region]
                assert sorted(tests) == pairs
                for pair in pairs:
                    expected.append([n, pair, f"wilcoxon_p_{metric}", region, "", tests[pair]["p"]])
    assert got == expected
    assert any(row[5] is not None for row in got if row[2].startswith("wilcoxon_p_"))


def test_folds_breakdown(noisy_phantom):
    report = run_experiment(
        noisy_phantom, methods=("linear",), gaps=(2, 4, 6, 8), n_values=(1,), folds=2
    )
    block = report.folds["1"]
    assert block["fold0"]["gaps"] == [2, 6]
    assert block["fold1"]["gaps"] == [4, 8]
    assert "folds" in report.to_dict()
    with pytest.raises(ShapeError):
        run_experiment(noisy_phantom, methods=("linear",), gaps=(2, 4), n_values=(1,), folds=3)


def test_wilcoxon_cells_present_with_five_gaps(noisy_phantom):
    report = run_experiment(
        noisy_phantom, methods=("linear", "cubic"), gaps=(1, 3, 5, 7, 9), n_values=(1,)
    )
    block = report.wilcoxon["1"]
    entry = block["fa"]["wm"]["linear_vs_cubic"]
    assert entry["p"] is None or 0.0 < entry["p"] <= 1.0


def _whole_volume_fa_md(data, method, gap_start, n):
    """Reference scoring: fill the gap, refit the whole volume, then score
    FA/MD on the gap slab only."""
    b0 = b0_mean(data.b0)

    def maps(dwi, b0):
        lam = np.maximum(_eigvals_sym3(fit_dti(dwi, b0, data.gtab).data), 0.0)
        l1, l2, l3 = np.moveaxis(lam, -1, 0)
        num = np.sqrt(0.5) * np.sqrt((l1 - l2) ** 2 + (l2 - l3) ** 2 + (l3 - l1) ** 2)
        den = np.sqrt(l1 * l1 + l2 * l2 + l3 * l3)
        fa = np.where(den > 0, num / np.where(den > 0, den, 1.0), 0.0)
        return {"fa_mse": fa, "md_mse": lam.mean(axis=-1)}

    def filled(vol):
        gap = GapSpec(gap_start, n)
        data = vol.data.copy()
        data[:, :, gap.slab] = np.stack(
            [s.data for s in interp_missing_slices(vol, gap, method)], axis=2
        )
        return vol.with_data(data)

    gt = maps(data.dwi, b0)
    est = maps(filled(data.dwi), filled(b0))
    z = slice(gap_start, gap_start + n)
    labels = Volume4D(data.labels.data[:, :, z])
    return {
        metric: {
            region: mse_region(
                Volume4D(est[metric][:, :, z]), Volume4D(gt[metric][:, :, z]), labels, label
            )
            for region, label in REGION_LABELS.items()
        }
        for metric in est
    }


def test_gap_slab_fit_matches_whole_volume_fit(noisy_phantom):
    methods, gaps, n_values = ("linear", "cubic", "bspline5"), (2, 5, 8), (1, 2)
    report = run_experiment(noisy_phantom, methods=methods, gaps=gaps, n_values=n_values)
    for n in n_values:
        for method in methods:
            cell = report.results[str(n)][method]
            for k, gap_start in enumerate(gaps):
                ref = _whole_volume_fa_md(noisy_phantom, method, gap_start, n)
                for metric, per_region in ref.items():
                    for region, expected in per_region.items():
                        got = cell[metric][region]["per_gap"][k]
                        assert abs(got - expected) <= 1e-12 * abs(expected)


def test_fit_sh_runs_once_per_experiment(noisy_phantom, monkeypatch):
    """One full-volume SH fit feeds sh-linear, the ae-sh4 neighbors and the
    SH bound, whichever methods run."""
    fitted = []
    fit_sh_slice = evaluate.fit_sh_slice

    def counting_fit_sh_slice(signal, *args, **kwargs):
        fitted.append(signal.shape)
        return fit_sh_slice(signal, *args, **kwargs)

    for module in (evaluate, inference):
        monkeypatch.setattr(module, "fit_sh_slice", counting_fit_sh_slice)
    for methods in (("sh-linear",), ("ae-sh4",), ("linear",)):
        fitted.clear()
        run_experiment(
            noisy_phantom, methods=methods, gaps=(3, 7), n_values=(1, 2),
            models=_grid_models(), threads=2,
        )
        assert fitted == [noisy_phantom.dwi.dims], methods


def test_each_model_encodes_each_neighbor_slice_once(noisy_phantom):
    models = _grid_models()
    encoded = {name: [] for name in models}
    for name, model in models.items():
        def encode(x, calls=encoded[name], inner=model.encode):
            calls.append(np.array(x))
            return inner(x)

        model.encode = encode
    gaps, n_values = (3, 5, 7), (1, 2)
    neighbors = {z for n in n_values for g in gaps for z in (g - 1, g + n)}
    items = {"signal": noisy_phantom.dwi.n_volumes, "sh4": 1, "b0": 1}
    for threads in (None, 2):
        run_experiment(
            noisy_phantom, methods=("ae-signal", "ae-sh4"), gaps=gaps, n_values=n_values,
            models=models, threads=threads,
        )
        for name, calls in encoded.items():
            # b0 serves both methods, and still sees each slice once.
            assert len(calls) == len(neighbors), name
            assert all(len(x) == items[name] for x in calls), name
            assert len({x.tobytes() for x in calls}) == len(calls), name
            calls.clear()


def test_ae_cells_estimate_what_single_gap_inference_infers(noisy_phantom, monkeypatch):
    models, data = _grid_models(), noisy_phantom
    estimates = []
    estimate = evaluate._estimate

    def recording(shared, name, estimator, gap, models):
        out = estimate(shared, name, estimator, gap, models)
        estimates.append((name, gap, out))
        return out

    monkeypatch.setattr(evaluate, "_estimate", recording)
    run_experiment(
        data, methods=("ae-signal", "ae-sh4"), gaps=(3, 5, 7), n_values=(1, 2),
        models=models, threads=2,
    )
    # Each of the 12 cells estimates its domain's slices and the b0 slices.
    assert sorted(name for name, _, _ in estimates) == ["b0"] * 12 + ["sh4"] * 6 + ["signal"] * 6
    for name, gap, got in estimates:
        if name == "signal":
            wants = [infer_gap_signal(models["signal"], data.dwi, gap)]
        else:
            sh_dwi, sh_b0 = infer_gap_sh(
                models["sh4"], models["b0"], data.dwi, data.b0, data.gtab, gap
            )
            wants = [sh_dwi]
            if name == "b0":
                wants = [sh_b0, infer_gap_signal(models["b0"], b0_mean(data.b0), gap)]
        for want in wants:
            assert np.array_equal(got, np.stack([s.data for s in want], axis=2)), (name, gap)


@pytest.mark.parametrize(
    "kw, message",
    [
        (dict(methods=()), "methods must not be empty"),
        (dict(gaps=()), "gaps must not be empty"),
        (dict(n_values=()), "n_values must not be empty"),
        (dict(methods=("linear", "cubic", "linear")), "methods must not repeat"),
        (dict(gaps=(3, 5, 3)), "gaps must not repeat"),
        (dict(n_values=(1, 1)), "n_values must not repeat"),
    ],
    ids=["no-methods", "no-gaps", "no-n", "repeated-method", "repeated-gap", "repeated-n"],
)
def test_empty_or_repeated_grid_axes_rejected(noisy_phantom, kw, message):
    grid = dict(methods=("linear",), gaps=(3, 5), n_values=(1,)) | kw
    with pytest.raises(ShapeError, match=message):
        run_experiment(noisy_phantom, **grid)


def test_missing_models_raise_before_any_encode(noisy_phantom):
    models = _grid_models()
    del models["b0"]
    for model in models.values():
        model.encode = None  # any encode would fail with a TypeError
    for method in ("ae-signal", "ae-sh4"):
        with pytest.raises(ModelMissing, match=f"{method} needs"):
            run_experiment(noisy_phantom, methods=(method,), gaps=(3,), n_values=(1,),
                           models=models)


def test_labels_without_a_scored_region_raise_before_any_fit_or_encode(noisy_phantom,
                                                                      monkeypatch):
    models = _grid_models()
    for model in models.values():
        model.encode = None  # any encode would fail with a TypeError
    monkeypatch.setattr(evaluate, "fit_dti", None)  # and so would any tensor fit
    kw = dict(methods=("linear", "ae-signal"), n_values=(1, 2), models=models)
    # As load_study labels a study without labels.nii: every voxel 1.
    ones = replace(noisy_phantom, labels=labels_volume(noisy_phantom.dwi.dims[:3]))
    want = (rf"^no voxels of region 'wm' \(label {REGION_LABELS['wm']}\) "
            r"in the gap of N = 1 at z = 3$")
    with pytest.raises(EmptyMask, match=want):
        run_experiment(ones, gaps=(3, 5), **kw)
    # One slab without the corpus callosum: the error names its gap and N.
    labels = noisy_phantom.labels.data.copy()
    cc = labels[:, :, 6] == REGION_LABELS["cc"]
    assert cc.any()
    labels[:, :, 6][cc] = REGION_LABELS["wm"]
    holed = replace(noisy_phantom, labels=Volume4D(labels))
    want = (rf"^no voxels of region 'cc' \(label {REGION_LABELS['cc']}\) "
            r"in the gap of N = 1 at z = 6$")
    with pytest.raises(EmptyMask, match=want):
        run_experiment(holed, gaps=(3, 6), **kw)


@pytest.mark.parametrize("n", [6, 25])
def test_wilcoxon_block_notes_a_non_finite_score(n):
    values = {"a": {s: np.arange(1.0, n + 1) for s in evaluate.SERIES},
              "b": {s: np.zeros(n) for s in evaluate.SERIES}}
    values["b"][evaluate.SIGNAL] = np.where(np.arange(n) == 2, np.nan, 0.0)
    block = evaluate._wilcoxon_block(values, ("a", "b"))
    metric, region = evaluate.SIGNAL
    note = {"W": None, "p": None, "note": "pair 2 is not finite: (3.0, nan)"}
    assert block[metric][region]["a_vs_b"] == note
    assert block["fa"]["wm"]["a_vs_b"]["p"] is not None
