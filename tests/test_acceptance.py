"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; plain `pytest` reports the same outcomes as test results.
"""

import json
import time

import numpy as np
from scipy.stats import rankdata

from dmrislice import (
    GapSpec,
    GradientTable,
    SliceImage,
    Volume4D,
    blend_latents,
    dti_scalars,
    fibonacci_directions,
    fit_dti,
    fit_sh,
    histogram_match,
    interp_missing_slices,
    make_phantom,
    project_sh,
    sh_basis_matrix,
    sh_roundtrip_error,
    wilcoxon_signed_rank,
)
from dmrislice.ae import (
    Autoencoder,
    ModelConfig,
    TrainConfig,
    load_checkpoint,
    save_checkpoint,
    train,
)
from dmrislice.ae.layers import AvgPool2x2, Conv2D, Head, UpsampleConv2D
from dmrislice.ae.train import slices_per_volume
from dmrislice.cli import dispatch
from dmrislice.evaluate import run_experiment
from dmrislice.interp import _z_weights
from dmrislice.nifti import read_nifti, write_nifti
from dmrislice.phantom import LABELS, PhantomSpec
from dmrislice.stats import _approx_two_sided_p, _exact_two_sided_p
from gradcheck import check_layer_gradients, check_model_gradients

WM_EIG = np.array([1.7e-3, 0.3e-3, 0.3e-3])
WM_FA = float(
    np.sqrt(0.5)
    * np.sqrt(
        (WM_EIG[0] - WM_EIG[1]) ** 2
        + (WM_EIG[1] - WM_EIG[2]) ** 2
        + (WM_EIG[2] - WM_EIG[0]) ** 2
    )
    / np.sqrt((WM_EIG**2).sum())
)


def report(criterion, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] criterion {criterion}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def test_criterion_01_sh_roundtrip_exactness():
    rng = np.random.default_rng(1)
    dirs = fibonacci_directions(88)
    basis = sh_basis_matrix(dirs, 4)
    coeffs = rng.standard_normal((64, 64, 16, 15))
    signal = Volume4D(coeffs @ basis.matrix.T)
    gtab = GradientTable(np.full(88, 1000.0), dirs)

    start = time.perf_counter()
    recon = project_sh(fit_sh(signal, gtab, lmax=4), dirs)
    elapsed = time.perf_counter() - start
    mse = float(np.mean((recon.data - signal.data) ** 2))
    report(
        1,
        mse <= 1e-12 and elapsed < 1.0,
        f"band-limited fit-project MSE {mse:.2e} (<=1e-12), {elapsed:.2f}s (<1s)",
    )


def test_criterion_02_sh_lower_bound_ordering():
    base = make_phantom(PhantomSpec(dims=(32, 32, 12), n_directions=88, seed=2))
    # band-limit the phantom signal at lmax=6 so the order-6 fit is exact
    band = project_sh(fit_sh(base.dwi, base.gtab, lmax=6), base.gtab.bvecs)
    from dataclasses import replace

    data = replace(base, dwi=band)

    err4 = sh_roundtrip_error(band, base.gtab, lmax=4)
    err6 = sh_roundtrip_error(band, base.gtab, lmax=6)
    rep = run_experiment(
        data, methods=("linear", "cubic", "bspline5", "sh-linear"), gaps=(2, 4, 6, 8), n_values=(1, 2)
    ).to_dict()
    method_mses = [
        cell["signal_mse"]["mean"]
        for n in ("1", "2")
        for cell in rep["results"][n].values()
    ]
    bounds = [rep["sh_bound"][n]["mean"] for n in ("1", "2")]
    ok = (
        err4 >= err6
        and all(err4 <= m for m in method_mses)
        and all(err6 <= m for m in method_mses)
        and all(b <= m for b in bounds for m in method_mses)
    )
    report(
        2,
        ok,
        f"err4={err4:.2e} >= err6={err6:.2e}, both <= min method MSE {min(method_mses):.2e}",
    )


def test_criterion_03_dti_correctness():
    data = make_phantom(PhantomSpec(dims=(64, 64, 16), n_directions=88, seed=3))
    tensors = fit_dti(data.dwi, data.b0, data.gtab)
    fa, md = (m.data[..., 0] for m in dti_scalars(tensors))
    lab = data.labels.labels_array()
    fa_err = np.abs(fa[lab == LABELS["wm"]] - WM_FA).max()
    md_err = np.abs(md[lab == LABELS["csf"]] - 3.0e-3).max()

    # rotation equivariance on a synthetic tensor
    rng = np.random.default_rng(3)
    q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    d_rot = q @ np.diag(WM_EIG) @ q.T
    dirs = fibonacci_directions(88)
    bvals = np.full(88, 1000.0)
    quad = np.einsum("di,ij,dj->d", dirs, d_rot, dirs)
    sig = np.exp(-bvals * quad)
    dwi = Volume4D(np.broadcast_to(sig, (2, 2, 1, 88)).copy())
    b0 = Volume4D(np.ones((2, 2, 1, 1)))
    t_rot = fit_dti(dwi, b0, GradientTable(bvals, dirs))
    fa_rot, md_rot = dti_scalars(t_rot)
    fa_rot_err = abs(float(fa_rot.data[0, 0, 0, 0]) - WM_FA)
    md_rot_err = abs(float(md_rot.data[0, 0, 0, 0]) - WM_EIG.mean())

    ok = fa_err < 1e-6 and md_err < 1e-10 and fa_rot_err < 1e-8 and md_rot_err < 1e-8
    report(
        3,
        ok,
        f"WM FA err {fa_err:.1e} (<1e-6), CSF MD err {md_err:.1e} (<1e-10), "
        f"rotation FA/MD err {fa_rot_err:.1e}/{md_rot_err:.1e} (<1e-8)",
    )


def test_criterion_04_interpolation_exactness():
    import numpy.polynomial.polynomial as poly

    # polynomial reproduction, interior of a long line (mirror zone excluded)
    z = np.arange(64, dtype=float)
    positions = [30.25, 31.5, 32.75]
    degree_ok = True
    for kind, coefs in (
        ("linear", [0.0, 1.0]),
        ("cubic", [1.0, 2.0, -0.7]),
        ("bspline5", [2.0, -1.0, 0.5, -0.05]),
    ):
        line = poly.polyval(z, np.array(coefs))[:, None]
        rec = _z_weights(len(z), positions, kind) @ line
        expected = poly.polyval(np.array(positions), np.array(coefs))
        scale = max(1.0, float(np.abs(expected).max()))
        degree_ok &= float(np.abs(rec[:, 0] - expected).max()) < 1e-8 * scale

    rng = np.random.default_rng(4)
    v = rng.standard_normal((6, 6, 8, 3))
    vol = Volume4D(v)
    mid = interp_missing_slices(vol, GapSpec(3, 1), "linear")[0].data
    exact_n1 = np.array_equal(mid, (v[:, :, 2, :] + v[:, :, 4, :]) / 2.0)

    two = interp_missing_slices(vol, GapSpec(3, 2), "linear")
    exact_n2 = np.array_equal(
        two[0].data, (2 / 3) * v[:, :, 2, :] + (1 / 3) * v[:, :, 5, :]
    ) and np.array_equal(two[1].data, (1 / 3) * v[:, :, 2, :] + (2 / 3) * v[:, :, 5, :])

    ok = degree_ok and exact_n1 and exact_n2
    report(
        4,
        ok,
        f"degree-1/2/3 reproduction {degree_ok}, N=1 neighbor average exact {exact_n1}, "
        f"N=2 weights (2/3,1/3)/(1/3,2/3) exact {exact_n2}",
    )


def test_criterion_05_gradient_checks():
    start = time.perf_counter()
    rng = np.random.default_rng(5)
    x = rng.standard_normal((2, 3, 8, 8))
    # Every layer class: the encoder and decoder blocks, the head, pooling.
    head = Head(3, 4, rng)
    head.params["b"] = rng.standard_normal(4)
    check_layer_gradients(Conv2D(3, 4, rng), x, input_stride=11)
    check_layer_gradients(UpsampleConv2D(3, 4, rng), x, input_stride=11)
    check_layer_gradients(head, x, input_stride=11)
    check_layer_gradients(AvgPool2x2(), x, input_stride=11)

    # composed reduced network: widths /8 of the full model, 16x16 input
    cfg = ModelConfig(input_channels=1, latent_maps=4, input_size=16, base_width=4, seed=5)
    model = Autoencoder(cfg)
    batch = np.random.default_rng(6).uniform(0.05, 0.95, (2, 1, 16, 16))
    worst = check_model_gradients(model, batch, n_per_tensor=8, seed=1234)
    elapsed = time.perf_counter() - start
    ok = elapsed < 60.0
    report(
        5,
        ok,
        f"all layers + composed /8 network rel err (worst {worst:.1e} < 1e-4), "
        f"{elapsed:.1f}s (<60s)",
    )


def test_criterion_06_overfit_convergence():
    data = make_phantom(PhantomSpec(dims=(32, 32, 12), n_directions=12, n_b0=1, seed=6))
    slices = slices_per_volume(data.b0, mask=data.labels)[:10]
    assert len(slices) == 10
    model_cfg = ModelConfig(input_channels=1, latent_maps=8, input_size=32, base_width=4, seed=101)
    cfg = TrainConfig(lr=5e-3, batch_size=4, epochs=500, val_fraction=0.15, seed=0, split_by="slice")
    ckpt = train(slices, cfg, model_cfg)
    train_curve = [h[1] for h in ckpt.history]
    best = min(train_curve)
    reached = next((i for i, v in enumerate(train_curve) if v < 1e-3), None)

    # determinism: two short runs produce bit-identical loss curves
    short = TrainConfig(lr=5e-3, batch_size=4, epochs=8, val_fraction=0.15, seed=0, split_by="slice")
    h1 = train(slices, short, model_cfg).history
    h2 = train(slices, short, model_cfg).history
    deterministic = h1 == h2

    ok = reached is not None and deterministic
    report(
        6,
        ok,
        f"train MSE reached {best:.2e} (<1e-3 at epoch {reached} of 500), "
        f"seeded determinism {deterministic}",
    )


def test_criterion_07_latent_blending_contracts():
    rng = np.random.default_rng(7)
    a = rng.standard_normal((1, 8, 4, 4))
    identity_ok = np.array_equal(blend_latents(a, a.copy(), 0.37), a)

    ones = np.ones((1, 4, 2, 2))
    zeros = np.zeros((1, 4, 2, 2))
    blend = blend_latents(ones, zeros, 2 / 3)
    thirds_ok = np.allclose(blend, 2 / 3, atol=1e-15)

    src = SliceImage(rng.random((8, 8, 1)))
    const_ref = SliceImage(np.full((8, 8, 1), 3.25))
    matched = histogram_match(src, const_ref)
    const_ok = np.all(matched.data == 3.25)

    weights = GapSpec(3, 2).weights
    weights_ok = weights == [(2 / 3, 1 / 3), (1 / 3, 2 / 3)]

    ok = identity_ok and thirds_ok and const_ok and weights_ok
    report(
        7,
        ok,
        f"identity blend {identity_ok}, alpha=2/3 value {thirds_ok}, "
        f"constant-reference matching {const_ok}, N=2 weights {weights_ok}",
    )


def test_criterion_08_end_to_end_pipeline(tmp_path):
    start = time.perf_counter()
    study = tmp_path / "study"
    assert dispatch(
        ["phantom", "--dims", "64,64,16", "--directions", "88", "--b0", "4",
         "--noise", "rician", "--sigma", "0.02", "--seed", "8", "--out", str(study)]
    ) == 0

    common = ["--base-width", "4", "--m", "8", "--batch", "8", "--lr", "2e-3",
              "--split-by", "slice", "--seed", "0"]
    assert dispatch(
        ["train", "--data", str(study), "--net", "avg-b1000", "--avg-n", "15",
         "--avg-samples", "3", "--epochs", "8", "--out", str(tmp_path / "sig.ckpt")] + common
    ) == 0
    assert dispatch(
        ["train", "--data", str(study), "--net", "b0", "--epochs", "8",
         "--out", str(tmp_path / "b0.ckpt")] + common
    ) == 0
    assert dispatch(
        ["train", "--data", str(study), "--net", "sh4", "--epochs", "8",
         "--out", str(tmp_path / "sh4.ckpt")] + common
    ) == 0

    assert dispatch(
        ["infer", "--data", str(study), "--model", str(tmp_path / "sh4.ckpt"),
         "--b0-model", str(tmp_path / "b0.ckpt"), "--domain", "sh4",
         "--gap-start", "8", "--n", "2", "--out", str(tmp_path / "inferred")]
    ) == 0
    assert (tmp_path / "inferred" / "slice_008.nii").exists()
    assert (tmp_path / "inferred" / "slice_009.nii").exists()

    assert dispatch(
        ["fit-dti", "--data", str(study), "--out-fa", str(tmp_path / "fa.nii"),
         "--out-md", str(tmp_path / "md.nii")]
    ) == 0

    assert dispatch(
        ["evaluate", "--data", str(study),
         "--methods", "linear,cubic,bspline5,sh-linear,ae-signal,ae-sh4",
         "--signal-model", str(tmp_path / "sig.ckpt"),
         "--sh-model", str(tmp_path / "sh4.ckpt"),
         "--b0-model", str(tmp_path / "b0.ckpt"),
         "--n", "1,2", "--threads", "2", "--out", str(tmp_path / "report")]
    ) == 0
    elapsed = time.perf_counter() - start

    rep = json.loads((tmp_path / "report" / "report.json").read_text())
    methods = {"linear", "cubic", "bspline5", "sh-linear", "ae-signal", "ae-sh4"}
    cells_ok = True
    for n in ("1", "2"):
        cells_ok &= set(rep["results"][n]) == methods
        for cell in rep["results"][n].values():
            cells_ok &= set(cell["fa_mse"]) == {"wm", "cgm", "cc"}
            cells_ok &= set(cell["md_mse"]) == {"wm", "cgm", "cc"}
            cells_ok &= "signal_mse" in cell
        n_pairs = len(methods) * (len(methods) - 1) // 2
        cells_ok &= len(rep["wilcoxon"][n]["signal"]["all"]) == n_pairs
        for region in ("wm", "cgm", "cc"):
            cells_ok &= len(rep["wilcoxon"][n]["fa"][region]) == n_pairs
        cells_ok &= n in rep["sh_bound"]

    ok = elapsed < 600.0 and cells_ok
    report(
        8,
        ok,
        f"phantom->train->infer(sh4,n=2)->fit-dti->evaluate in {elapsed:.0f}s (<600s), "
        f"report holds all method x N x region cells and Wilcoxon p per comparison: {cells_ok}",
    )


def test_criterion_09_wilcoxon_exactness():
    x = np.array([0.3, 1.2, 2.4, 0.7, 3.3])
    w, p = wilcoxon_signed_rank(x, np.zeros(5))
    exact_ok = w == 15.0 and abs(p - 0.0625) < 1e-12

    rng = np.random.default_rng(9)
    agreements = []
    for _ in range(10):
        a = rng.standard_normal(20)
        b = rng.standard_normal(20)
        d = a - b
        ranks = rankdata(np.abs(d))
        w = float(ranks[d > 0].sum())
        agreements.append(abs(_exact_two_sided_p(ranks, w) - _approx_two_sided_p(ranks, w)))
    approx_ok = max(agreements) < 0.02

    ok = exact_ok and approx_ok
    report(
        9,
        ok,
        f"n=5 all-positive p={p:.4f} (=0.0625), exact-vs-normal max gap "
        f"{max(agreements):.3f} (<0.02 at n=20)",
    )


def test_criterion_10_io_fidelity(tmp_path):
    rng = np.random.default_rng(10)
    vol = Volume4D(rng.standard_normal((6, 5, 4, 3)).astype(np.float32).astype(np.float64))
    p1 = tmp_path / "a.nii"
    p2 = tmp_path / "b.nii"
    write_nifti(vol, p1)
    back = read_nifti(p1)
    write_nifti(back, p2)
    nifti_ok = np.array_equal(back.data, vol.data) and p1.read_bytes() == p2.read_bytes()

    # a trained channels=15 / M=64 checkpoint reports an 8x8x64 latent
    cfg = ModelConfig(input_channels=15, latent_maps=64, input_size=128, seed=10)
    model = Autoencoder(cfg)
    batch = rng.uniform(0, 1, (2, 15, 128, 128))
    from dmrislice.ae import Adam

    mse, grads = model.loss_and_grads(batch)
    Adam(lr=5e-5).step([arr for _, arr in model.parameters()], grads)

    c1 = tmp_path / "m.ckpt"
    c2 = tmp_path / "m2.ckpt"
    save_checkpoint(model, c1)
    loaded = load_checkpoint(c1)
    save_checkpoint(loaded, c2)
    ckpt_ok = c1.read_bytes() == c2.read_bytes()
    latent = loaded.encode(batch[:1])
    latent_ok = latent.shape == (1, 64, 8, 8)

    ok = nifti_ok and ckpt_ok and latent_ok
    report(
        10,
        ok,
        f"NIfTI round trip bit-exact {nifti_ok}, checkpoint round trip bit-exact "
        f"{ckpt_ok}, SH4 checkpoint latent 8x8x64 {latent_ok}",
    )
