import csv
import sys

import numpy as np
import pytest

from dmrislice.ae import ModelConfig, TrainConfig, load_checkpoint, save_checkpoint, train
from dmrislice.ae.train import (
    averaged_dwi_slices,
    slices_per_volume,
    stacked_slices,
    sweep_latent_size,
)
from dmrislice.errors import InsufficientData, ShapeError
from dmrislice.phantom import PhantomSpec, make_phantom
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


def test_trained_body_saves_and_loads_exactly(phantom16, tmp_path):
    # train() steps a float32 body, which the checkpoint stores as it is:
    # only the float64 head rounds on saving.
    ds = small_dataset(phantom16)
    model = train(ds, quick_cfg(), TINY_MODEL).model
    assert model.dtype == np.float32
    assert [a.dtype for a in model.decoder[-2].params.values()] == [np.float64] * 2
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


def test_training_log_keeps_the_rows_of_a_killed_run(phantom16, tmp_path, monkeypatch):
    train_module = sys.modules["dmrislice.ae.train"]
    real_eval = train_module._eval_mse
    calls = []

    def eval_then_die(model, batch):
        calls.append(1)
        if len(calls) == 3:  # epoch 2
            raise RuntimeError("killed")
        return real_eval(model, batch)

    monkeypatch.setattr(train_module, "_eval_mse", eval_then_die)
    log = tmp_path / "log.csv"
    with pytest.raises(RuntimeError, match="killed"):
        train(small_dataset(phantom16), quick_cfg(epochs=5), TINY_MODEL, log_path=log)
    with open(log) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["epoch", "train_mse", "val_mse"]
    assert len(rows) == 1 + 2


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


def test_sweep_latent_size(phantom16):
    ds = small_dataset(phantom16)
    best, results = sweep_latent_size(ds, quick_cfg(epochs=2), TINY_MODEL, m_values=(2, 4))
    assert set(results) == {2, 4}
    assert best.best_val_mse == min(results.values())


def test_sweep_latent_size_refuses_an_empty_sweep(phantom16):
    with pytest.raises(ShapeError, match="at least one latent width"):
        sweep_latent_size(small_dataset(phantom16), quick_cfg(epochs=1), TINY_MODEL, m_values=())
