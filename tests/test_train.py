import csv
import sys

import numpy as np
import pytest

import dmrislice.blas as blas
from dmrislice.blas import one_blas_thread
from dmrislice.ae import ModelConfig, TrainConfig, load_checkpoint, save_checkpoint, train
from dmrislice.ae.model import Autoencoder
from dmrislice.ae.optim import Adam
from dmrislice.ae.train import (
    SliceSample,
    _split,
    averaged_dwi_slices,
    slices_per_volume,
    stacked_slices,
)
from dmrislice.errors import DmrisliceError, InsufficientData, ShapeError
from dmrislice.phantom import PhantomSpec, make_phantom
from dmrislice.sh import fit_sh
from dmrislice.volume import Volume4D

TINY_MODEL = ModelConfig(input_channels=1, latent_maps=2, input_size=16, base_width=1, seed=0)


@pytest.fixture(scope="module")
def phantom16():
    return make_phantom(PhantomSpec(dims=(16, 16, 8), n_directions=10, n_b0=2))


def small_dataset(phantom, n=12):
    return slices_per_volume(phantom.b0, mask=phantom.labels)[:n]


def quick_cfg(**kw):
    base = dict(lr=1e-3, batch_size=4, epochs=3, val_fraction=0.2, seed=0, split_by="slice")
    base.update(kw)
    return TrainConfig(**base)


def test_insufficient_data(phantom16):
    with pytest.raises(InsufficientData):
        train(small_dataset(phantom16, 4), quick_cfg(batch_size=32), TINY_MODEL)
    with pytest.raises(InsufficientData):
        train([], quick_cfg(), TINY_MODEL)


def test_checkpoint_is_argmin_of_val_loss(phantom16):
    ckpt = train(small_dataset(phantom16), quick_cfg(epochs=5), TINY_MODEL)
    vals = [h[2] for h in ckpt.history]
    assert ckpt.best_val_mse == min(vals)
    assert vals[ckpt.best_epoch] <= vals[-1]


def _tensors(model):
    return model.parameters() + model.named_buffers()


def test_training_deterministic_under_seed(phantom16):
    ds = small_dataset(phantom16)
    a = train(ds, quick_cfg(), TINY_MODEL)
    b = train(ds, quick_cfg(), TINY_MODEL)
    assert a.history == b.history
    for (_, ta), (_, tb) in zip(_tensors(a.model), _tensors(b.model)):
        assert ta.dtype == tb.dtype and np.array_equal(ta, tb)


@pytest.mark.skipif(blas._openblas() is None, reason="NumPy's BLAS is not OpenBLAS")
def test_training_is_the_same_at_any_blas_thread_count():
    # At the sh4 shape some backward GEMMs round differently on 2 threads.
    data = make_phantom(PhantomSpec(dims=(32, 32, 8), n_directions=20, seed=3))
    ds = stacked_slices(fit_sh(data.dwi, data.gtab, lmax=4).volume, mask=data.labels)
    model_cfg = ModelConfig(input_channels=15, latent_maps=8, input_size=32, base_width=16)
    get, set_ = blas._openblas()
    before = get()
    runs = []
    try:
        for threads in (2, 1):
            set_(threads)
            runs.append(train(ds, quick_cfg(epochs=2), model_cfg))
    finally:
        set_(before)
    a, b = runs
    assert a.history == b.history
    for (_, ta), (_, tb) in zip(_tensors(a.model), _tensors(b.model)):
        assert ta.tobytes() == tb.tobytes()


def test_trained_body_saves_and_loads_exactly(phantom16, tmp_path):
    # train() steps a float32 body, which the checkpoint stores as it is:
    # only the float64 head rounds on saving.
    ds = small_dataset(phantom16)
    model = train(ds, quick_cfg(), TINY_MODEL).model
    assert model.dtype == np.float32
    assert [a.dtype for a in model.decoder[-1].params.values()] == [np.float64] * 2
    save_checkpoint(model, tmp_path / "m.ckpt")
    loaded = load_checkpoint(tmp_path / "m.ckpt")
    for (name, t), (_, lt) in zip(_tensors(model), _tensors(loaded)):
        assert lt.dtype == t.dtype and np.array_equal(lt, t.astype(np.float32)), name
    batch = np.stack([s.data for s in ds])
    z, loaded_z = model.encode(batch), loaded.encode(batch)
    assert z.dtype == np.float32 and np.array_equal(z, loaded_z)


def test_training_log_csv(phantom16, tmp_path):
    log = tmp_path / "log.csv"
    ckpt = train(small_dataset(phantom16), quick_cfg(), TINY_MODEL, log_path=log)
    with open(log) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["epoch", "train_mse", "val_mse"]
    assert len(rows) == 1 + len(ckpt.history)


def test_a_diverging_run_raises_naming_its_epoch(phantom16, tmp_path):
    # A step this large makes every weight non-finite after one batch; the
    # pytest config turns a library RuntimeWarning into an error, so this
    # also checks that training warns of nothing on the way.
    log = tmp_path / "log.csv"
    with pytest.raises(DmrisliceError, match=r"^training diverged at epoch 0: train_mse nan"):
        train(small_dataset(phantom16), quick_cfg(lr=1e30), TINY_MODEL, log_path=log)
    with open(log) as fh:
        rows = list(csv.reader(fh))
    assert rows == [["epoch", "train_mse", "val_mse"], ["0", "nan", "nan"]]


def test_training_log_keeps_the_rows_of_a_killed_run(phantom16, tmp_path, monkeypatch):
    train_module = sys.modules["dmrislice.ae.train"]
    real_eval = train_module._eval_mse
    calls = []

    def eval_then_die(*args):
        calls.append(1)
        if len(calls) == 3:  # epoch 2
            raise RuntimeError("killed")
        return real_eval(*args)

    monkeypatch.setattr(train_module, "_eval_mse", eval_then_die)
    log = tmp_path / "log.csv"
    with pytest.raises(RuntimeError, match="killed"):
        train(small_dataset(phantom16), quick_cfg(epochs=5), TINY_MODEL, log_path=log)
    with open(log) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["epoch", "train_mse", "val_mse"]
    assert len(rows) == 1 + 2


def test_validation_runs_in_batches_and_gives_the_whole_split_mse(phantom16, monkeypatch):
    train_module = sys.modules["dmrislice.ae.train"]
    real_eval, real_forward = train_module._eval_mse, Autoencoder.forward
    sizes, pairs = [], []

    def forward(self, x):
        sizes.append(len(x))
        return real_forward(self, x)

    def eval_both(model, dataset, idx, batch_size):
        got = real_eval(model, dataset, idx, batch_size)
        whole = np.stack([dataset[i].data for i in idx])  # the whole split in one forward
        d = real_forward(model, whole) - whole
        pairs.append((got, float(np.mean(d * d))))
        return got

    monkeypatch.setattr(Autoencoder, "forward", forward)
    monkeypatch.setattr(train_module, "_eval_mse", eval_both)
    cfg = quick_cfg(batch_size=4, val_fraction=0.5)  # 6 held-out items: batches of 4 and 2
    ckpt = train(small_dataset(phantom16), cfg, TINY_MODEL)
    assert sizes == [4, 2] * cfg.epochs
    assert [val for _, _, val in ckpt.history] == [got for got, _ in pairs]
    assert all(got == whole for got, whole in pairs)


def _stacking_train(dataset, cfg, model_cfg):
    """The training loop as it ran when ``train`` stacked its whole dataset
    up front and indexed its batches out of that copy."""
    rng = np.random.default_rng(cfg.seed)
    train_idx, val_idx = _split(dataset, cfg, rng)
    stack = np.stack([s.data for s in dataset])
    train_idx, val_idx = np.asarray(train_idx), np.asarray(val_idx)
    model = Autoencoder(model_cfg).astype(np.float32)
    opt = Adam(lr=cfg.lr)
    params = [arr for _, arr in model.parameters()]
    history, best = [], None
    n_batches = len(train_idx) // cfg.batch_size
    with one_blas_thread():
        for epoch in range(cfg.epochs):
            order = rng.permutation(len(train_idx))
            losses = []
            for b in range(n_batches):
                batch = stack[train_idx[order[b * cfg.batch_size : (b + 1) * cfg.batch_size]]]
                mse, grads = model.loss_and_grads(batch)
                opt.step(params, grads)
                losses.append(mse)
            diff = np.empty((len(val_idx),) + stack.shape[1:])
            for start in range(0, len(val_idx), cfg.batch_size):
                batch = stack[val_idx[start : start + cfg.batch_size]]
                np.subtract(model.forward(batch), batch, out=diff[start : start + cfg.batch_size])
            diff *= diff
            history.append((epoch, float(np.mean(losses)), float(np.mean(diff))))
            if best is None or history[-1][2] < best[0]:
                best = (history[-1][2], model.state_snapshot())
    model.load_snapshot(best[1])
    return history, model


def test_batches_gathered_from_the_samples_train_as_the_stacked_dataset(phantom16):
    ds = stacked_slices(fit_sh(phantom16.dwi, phantom16.gtab, lmax=2).volume,
                        mask=phantom16.labels)
    model_cfg = ModelConfig(input_channels=6, latent_maps=4, input_size=16, base_width=2)
    cfg = quick_cfg(epochs=2, val_fraction=0.25)
    ckpt = train(ds, cfg, model_cfg)
    history, model = _stacking_train(ds, cfg, model_cfg)
    assert ckpt.history == history
    for (name, got), (_, want) in zip(_tensors(ckpt.model), _tensors(model)):
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), name


def test_training_never_copies_the_dataset(phantom16, traced_peak):
    # 60 and 480 slices, each its own array, in batches of eight. A step of
    # this net holds the same few hundred KB at either size; what grows with
    # the dataset is validation's float64 difference of a tenth of it. A
    # stacked copy of the dataset would grow with all of it.
    base = small_dataset(phantom16)
    cfg = quick_cfg(epochs=1, batch_size=8, val_fraction=0.1)
    sizes, peaks = [], []
    for n in (60, 480):
        ds = [SliceSample(data=base[i % len(base)].data.copy()) for i in range(n)]
        sizes.append(sum(s.data.nbytes for s in ds))
        peaks.append(traced_peak(train, ds, cfg, TINY_MODEL)[1])
    assert peaks[1] - peaks[0] < (sizes[1] - sizes[0]) / 2


def test_subject_split_avoids_leakage(phantom16):
    ds = small_dataset(phantom16, 8)
    tagged = []
    for i, s in enumerate(ds):
        from dmrislice.ae.train import SliceSample

        tagged.append(SliceSample(data=s.data, subject=f"subj{i % 2}"))
    from dmrislice.ae.train import _split

    rng = np.random.default_rng(0)
    train_idx, val_idx = _split(tagged, quick_cfg(split_by="subject", val_fraction=0.4), rng)
    train_subjects = {tagged[i].subject for i in train_idx}
    val_subjects = {tagged[i].subject for i in val_idx}
    assert train_subjects.isdisjoint(val_subjects)
    assert val_idx


def test_subject_split_keeps_one_subject_for_training():
    # At val_fraction 0.9 the share is never reached: all but the last
    # subject in the seeded order validate.
    x = np.zeros((1, 2, 2))
    dataset = [SliceSample(data=x, subject=name) for name in "abcabc"]
    for seed in range(3):
        train_idx, val_idx = _split(dataset, quick_cfg(split_by="subject", val_fraction=0.9),
                                    np.random.default_rng(seed))
        assert len({dataset[i].subject for i in val_idx}) == 2
        assert len({dataset[i].subject for i in train_idx}) == 1
        assert sorted(train_idx + val_idx) == list(range(6))


# Validation indices of a 14-slice dataset of subjects a to d (3, 5, 2 and 4
# slices) per (seed, val_fraction), pinned so that the split keeps its draws.
SUBJECT_SPLITS = {
    (0, 0.15): [0, 2, 3, 7, 9],
    (0, 0.5): [0, 1, 2, 3, 5, 7, 8, 9, 11, 12],
    (1, 0.15): [0, 3, 9],
    (1, 0.5): [0, 1, 3, 5, 8, 9, 11, 12],
    (2, 0.5): [0, 2, 3, 4, 6, 7, 9, 10, 13],
    (3, 0.5): [1, 2, 4, 5, 6, 7, 8, 10, 11, 12, 13],
    (4, 0.15): [4, 6, 10, 13],
}


@pytest.mark.parametrize("seed, val_fraction", SUBJECT_SPLITS)
def test_subject_split_draws_are_pinned(seed, val_fraction):
    x = np.zeros((1, 2, 2))
    dataset = [SliceSample(data=x, subject=name) for name in "abcadbdcbadbbd"]
    cfg = quick_cfg(split_by="subject", val_fraction=val_fraction, seed=seed)
    train_idx, val_idx = _split(dataset, cfg, np.random.default_rng(seed))
    assert [int(i) for i in val_idx] == SUBJECT_SPLITS[seed, val_fraction]
    assert train_idx == [i for i in range(len(dataset)) if i not in val_idx]


def test_mask_fraction_filter(phantom16):
    # an all-background mask drops every slice
    empty_mask = Volume4D(np.zeros(phantom16.b0.dims[:3] + (1,)))
    assert slices_per_volume(phantom16.b0, mask=empty_mask) == []


def _normalized(plane):
    return (plane - plane.min()) / (plane.max() - plane.min())


def test_slice_builders_keep_their_order_and_values():
    rng = np.random.default_rng(7)
    data = rng.random((6, 5, 4, 5))
    mask = np.ones((6, 5, 4))
    mask[:, :, 1] = 0  # below the coverage floor: z = 1 is dropped
    kept = [0, 2, 3]
    vol, mask_vol = Volume4D(data), Volume4D(mask)

    # slices_per_volume: z-major, volume-minor
    expected = [_normalized(data[:, :, z, v]) for z in kept for v in range(5)]
    got = slices_per_volume(vol, mask=mask_vol, subject="x")
    assert len(got) == len(expected)
    for s, e in zip(got, expected):
        assert s.data.shape == (1, 6, 5) and s.subject == "x"
        assert np.array_equal(s.data[0], e)

    # averaged_dwi_slices: draw-major, then z
    draws = np.random.default_rng(3)
    expected = []
    for _ in range(3):
        avg = data[:, :, :, draws.choice(5, size=2, replace=False)].mean(axis=3)
        expected += [_normalized(avg[:, :, z]) for z in kept]
    assert not np.array_equal(expected[0], expected[len(kept)])
    got = averaged_dwi_slices(vol, n_average=2, n_samples=3, seed=3, mask=mask_vol)
    assert len(got) == len(expected)
    for s, e in zip(got, expected):
        assert s.data.shape == (1, 6, 5)
        assert np.array_equal(s.data[0], e)


def test_averaged_slices_add_the_drawn_volumes_in_draw_order():
    # With 8 or more volumes, a pairwise sum (what mean over a contiguous
    # axis does) rounds differently from this sequential one.
    rng = np.random.default_rng(11)
    data = rng.random((4, 3, 2, 12)) * 10.0 ** rng.integers(-3, 4, 12)
    draws = np.random.default_rng(5)
    expected = []
    for _ in range(2):
        first, *rest = draws.choice(12, size=9, replace=False)
        total = data[:, :, :, first].copy()
        for v in rest:
            total = total + data[:, :, :, v]
        avg = total / 9
        expected += [_normalized(avg[:, :, z]) for z in range(2)]
    got = averaged_dwi_slices(Volume4D(data), n_average=9, n_samples=2, seed=5)
    assert len(got) == len(expected)
    for s, e in zip(got, expected):
        assert np.array_equal(s.data[0], e)


def test_slices_normalized(phantom16):
    for s in small_dataset(phantom16):
        assert s.data.min() >= 0.0
        assert s.data.max() <= 1.0


def test_averaged_dataset_counts(phantom16):
    ds = averaged_dwi_slices(
        phantom16.dwi, n_average=15, n_samples=3, seed=0, mask=phantom16.labels
    )
    kept_z = sum(
        1
        for z in range(phantom16.dwi.dims[2])
        if np.count_nonzero(phantom16.labels.data[:, :, z, 0])
        / (phantom16.labels.data[:, :, z, 0].size)
        >= 0.01
    )
    assert len(ds) == 3 * kept_z
    assert ds[0].data.shape[0] == 1


def test_averaged_dataset_uses_distinct_volumes(phantom16):
    # n_average capped at the available volume count, still averages
    ds1 = averaged_dwi_slices(phantom16.dwi, n_average=100, n_samples=1, seed=0)
    ds2 = averaged_dwi_slices(phantom16.dwi, n_average=10, n_samples=1, seed=0)
    assert len(ds1) == len(ds2)


def test_stacked_slices_channels(phantom16):
    ds = stacked_slices(phantom16.dwi, mask=phantom16.labels)
    assert ds[0].data.shape[0] == phantom16.dwi.n_volumes


def test_fit_to_size_crop_and_pad(phantom16):
    from dmrislice.ae.train import fit_to_size

    ds = small_dataset(phantom16, 2)  # (1, 16, 16) samples
    padded = fit_to_size(ds, 32)
    assert padded[0].data.shape == (1, 32, 32)
    assert np.array_equal(padded[0].data[:, 8:24, 8:24], ds[0].data)
    cropped = fit_to_size(padded, 16)
    assert np.array_equal(cropped[0].data, ds[0].data)

