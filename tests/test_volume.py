import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mutation
from dmrislice.errors import DmrisliceError, EmptyMask, EmptyShell, ParseError, ShapeError
from dmrislice import ae
from dmrislice.dti import fit_dti
from dmrislice.nifti import read_labels, write_nifti
from dmrislice.phantom import PhantomSpec, make_phantom
from dmrislice.sh import fit_sh, sh_roundtrip_error
from dmrislice.volume import (
    GradientTable,
    Volume4D,
    b0_mean,
    mask_voxels,
    normalize_slice,
    read_gradient_table,
    shell_window,
)


def test_volume_shape_and_invariants():
    v = Volume4D(np.zeros((3, 4, 5, 2)), spacing=(1.0, 1.0, 1.5))
    assert v.dims == (3, 4, 5, 2)
    assert v.data.size == 3 * 4 * 5 * 2


def volume_outermost(a):
    """A copy of ``a`` laid out as boolean indexing on the v axis lays it out:
    each volume contiguous, the v axis outermost."""
    return np.moveaxis(np.ascontiguousarray(np.moveaxis(a, 3, 0)), 0, 3)


def layouts(a):
    """``a`` in the layouts a volume's data arrive in: C order, F order (the
    NIfTI disk order), volume-outermost and a z-slab view."""
    keep = np.arange(a.shape[3]) != 1
    return {
        "C": np.ascontiguousarray(a),
        "F": np.asfortranarray(a),
        "volume-outermost": a[:, :, :, keep],
        "z-slab": a[:, :, 1:3, :],
    }


def test_volume_stores_c_contiguous_float64_from_any_layout():
    a = np.random.default_rng(0).random((4, 5, 6, 3))
    assert volume_outermost(a).strides[3] > volume_outermost(a).strides[0]
    for name, data in layouts(a).items():
        v = Volume4D(data)
        assert v.data.flags.c_contiguous and v.data.dtype == np.float64, name
        assert np.array_equal(v.data, data), name
    labels = Volume4D(np.asfortranarray(np.arange(24).reshape(2, 3, 4)))
    assert labels.data.flags.c_contiguous and labels.dims == (2, 3, 4, 1)


def test_volume_keeps_c_contiguous_float64_input_without_a_copy():
    data = np.random.default_rng(1).random((3, 4, 5, 2))
    v = Volume4D(data)
    assert np.shares_memory(v.data, data)
    assert np.shares_memory(v.with_data(v.data).data, data)


@pytest.mark.parametrize("n", [1, 4, 9])
def test_b0_mean_sums_volume_by_volume(n):
    # n = 9 is past the 8 values from which NumPy sums a contiguous axis
    # pairwise; b0_mean keeps the sequential order for every count.
    a = volume_outermost(np.random.default_rng(n).random((5, 4, 3, n)) * 1.7)
    want = a[..., 0].copy()
    for k in range(1, n):
        want = want + a[..., k]
    want = want / n
    for data in (a, np.ascontiguousarray(a), np.asfortranarray(a)):
        got = b0_mean(Volume4D(data))
        assert got.dims == (5, 4, 3, 1)
        assert np.array_equal(got.data[..., 0], want)


def test_volume_rejects_bad_spacing():
    with pytest.raises(ShapeError):
        Volume4D(np.zeros((2, 2, 2, 1)), spacing=(1.0, 0.0, 1.0))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_volume_rejects_non_finite_geometry(bad):
    with pytest.raises(ShapeError, match="finite"):
        Volume4D(np.zeros((2, 2, 2, 1)), spacing=(bad, 1.0, 1.0))
    affine = np.eye(4)
    affine[1, 3] = bad
    with pytest.raises(ShapeError, match="finite"):
        Volume4D(np.zeros((2, 2, 2, 1)), affine=affine)


def test_labels_must_be_nonnegative_integers(tmp_path):
    path = tmp_path / "labels.nii"
    for bad in (0.5, -1.0):
        write_nifti(Volume4D(np.full((2, 2, 2, 1), bad)), path)
        with pytest.raises(ShapeError):
            read_labels(path, (2, 2, 2))
    write_nifti(Volume4D(np.full((2, 2, 2, 1), 3.0)), path)
    assert read_labels(path, (2, 2, 2)).data.max() == 3


def test_labels_must_lie_on_the_data_grid(tmp_path):
    path = tmp_path / "labels.nii"
    write_nifti(Volume4D(np.ones((2, 2, 2, 1))), path)
    with pytest.raises(ShapeError, match=r"\(2, 2, 2\) grid, the data on \(2, 2, 3\)"):
        read_labels(path, (2, 2, 3))


MASKED_CALLS = {
    "fit_sh": lambda data, mask: fit_sh(data.dwi, data.gtab, mask=mask),
    "fit_dti": lambda data, mask: fit_dti(data.dwi, data.b0, data.gtab, mask=mask),
    "sh_roundtrip_error": lambda data, mask: sh_roundtrip_error(data.dwi, data.gtab, mask=mask),
    "stacked_slices": lambda data, mask: ae.stacked_slices(data.dwi, mask=mask),
    "slices_per_volume": lambda data, mask: ae.slices_per_volume(data.dwi, mask=mask),
}


@pytest.mark.parametrize("grid", [(8, 8, 8), (16, 16, 4)])
@pytest.mark.parametrize("call", MASKED_CALLS.values(), ids=MASKED_CALLS.keys())
def test_a_mask_on_another_grid_is_a_shape_error_naming_both_grids(call, grid):
    data = make_phantom(PhantomSpec(dims=(16, 16, 8), n_directions=8, n_b0=1))
    with pytest.raises(ShapeError, match=rf"mask on a \({grid[0]}, {grid[1]}, {grid[2]}\) grid, "
                       r"the data on \(16, 16, 8\)"):
        call(data, Volume4D(np.ones(grid)))


@pytest.mark.parametrize("name", ["fit_sh", "fit_dti"])
def test_a_mask_selecting_no_voxel_is_an_empty_mask(name):
    data = make_phantom(PhantomSpec(dims=(16, 16, 8), n_directions=8, n_b0=1))
    with pytest.raises(EmptyMask, match="^mask selects no voxels$"):
        MASKED_CALLS[name](data, Volume4D(np.zeros((16, 16, 8))))


def test_mask_voxels_are_the_positive_ones():
    mask = Volume4D(np.array([[0.0, 1.0], [3.0, 0.0]])[:, :, None])
    assert np.array_equal(mask_voxels(mask, (2, 2, 1, 9)), [[[False], [True]], [[True], [False]]])


def test_gradient_table_renormalization_guard():
    with pytest.raises(ShapeError):
        GradientTable(np.array([1000.0]), np.array([[2.0, 0.0, 0.0]]))
    g = GradientTable(np.array([0.0]), np.array([[0.0, 0.0, 0.0]]))
    assert g.b0_mask.all()


def test_normalize_basic():
    out = normalize_slice(np.array([2.0, 4.0, 6.0]).reshape(3, 1, 1))
    assert np.allclose(out.ravel(), [0.0, 0.5, 1.0])


def test_normalize_constant_channel():
    out = normalize_slice(np.full((2, 1, 1), 5.0))
    assert np.all(out == 0.0)


def test_normalize_matches_the_per_channel_formula_bit_for_bit():
    a = np.random.default_rng(2).standard_normal((6, 5, 4, 3)) * 3.1
    a[..., 2] = 7.0  # a constant channel
    for name, data in layouts(a).items():
        s = data[:, :, 1]
        before = s.copy()
        want = np.zeros_like(s)
        for c in range(s.shape[2]):
            lo, hi = s[:, :, c].min(), s[:, :, c].max()
            if hi - lo > 0:
                want[:, :, c] = (s[:, :, c] - lo) / (hi - lo)
        assert np.array_equal(normalize_slice(s), want), name
        assert np.array_equal(s, before), name


@settings(max_examples=50, deadline=None)
@given(
    st.lists(st.floats(-1e6, 1e6, allow_nan=False), min_size=2, max_size=40),
)
def test_normalize_roundtrip_property(values):
    arr = np.array(values).reshape(-1, 1, 1)
    normalized = normalize_slice(arr)
    assert normalized.min() >= 0.0 and normalized.max() <= 1.0
    span = arr.max() - arr.min()
    expected = (arr - arr.min()) / span if span > 0 else np.zeros_like(arr)
    assert np.all(np.abs(normalized - expected) <= 1e-6)


def test_shell_window_keeps_matching_volumes():
    g = GradientTable(
        np.array([0.0, 400.0, 1000.0, 1000.0]),
        np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1.0]]),
    )
    keep, gt = shell_window(g, 1000.0, tol=50.0)
    assert np.array_equal(keep, [False, False, True, True])
    assert np.all(gt.bvals == 1000.0)
    assert np.array_equal(gt.bvecs, g.bvecs[2:])


def test_shell_window_is_idempotent():
    bvals = np.array([0.0, 1000.0, 990.0, 2600.0, 1010.0])
    bvecs = np.tile(np.array([[1.0, 0, 0]]), (5, 1))
    bvecs[0] = 0
    g = GradientTable(bvals, bvecs)
    keep1, g1 = shell_window(g, 1000.0)
    keep2, g2 = shell_window(g1, 1000.0)
    assert np.array_equal(keep1, [False, True, True, False, True])
    assert keep2.all()
    assert np.array_equal(g1.bvals, g2.bvals)
    assert np.array_equal(g1.bvecs, g2.bvecs)


def test_a_diffusion_shell_never_reaches_the_b0_volumes():
    g = GradientTable(
        np.array([0.0, 40.0, 1000.0, 1000.0]),
        np.array([[0, 0, 0], [0, 0, 0], [0, 1, 0], [0, 0, 1.0]]),
    )
    keep, gt = shell_window(g, tol=959.0)
    assert np.array_equal(keep, [False, False, True, True])
    assert np.array_equal(gt.bvals, [1000.0, 1000.0])
    assert np.array_equal(gt.bvecs, g.bvecs[2:])
    for b_target, tol in [(None, 960.0), (None, np.inf), (1000.0, 1000.0), (0.0, 50.0)]:
        with pytest.raises(ShapeError, match=f"^shell tolerance {tol} around b = "):
            shell_window(g, b_target, tol)


def test_the_shell_window_checks_its_tolerance_and_its_volumes():
    g = GradientTable(np.array([0.0, 1000.0]), np.array([[0, 0, 0], [1, 0, 0.0]]))
    with pytest.raises(ShapeError, match="non-negative"):
        shell_window(g, 1000.0, -1.0)
    with pytest.raises(EmptyShell, match="within 50.0 of 2600.0"):
        shell_window(g, 2600.0)


def test_read_gradient_table(tmp_path):
    bval = tmp_path / "x.bval"
    bvec = tmp_path / "x.bvec"
    bval.write_text("0 1000\n")
    bvec.write_text("0 1\n0 0\n0 0\n")
    g = read_gradient_table(bval, bvec)
    assert g.bvals[1] == 1000.0
    assert np.allclose(g.bvecs[1], [1.0, 0.0, 0.0])


def test_read_gradient_table_renormalizes(tmp_path):
    bval = tmp_path / "x.bval"
    bvec = tmp_path / "x.bvec"
    bval.write_text("1000\n")
    bvec.write_text("2\n0\n0\n")
    g = read_gradient_table(bval, bvec)
    assert np.allclose(g.bvecs[0], [1.0, 0.0, 0.0])


def test_read_gradient_table_shape_errors(tmp_path):
    bval = tmp_path / "x.bval"
    bvec = tmp_path / "x.bvec"
    bval.write_text("0 1000\n")
    bvec.write_text("0\n0\n0\n")  # one column short
    with pytest.raises(ShapeError):
        read_gradient_table(bval, bvec)
    bvec.write_text("0 1\n0 0\n")  # two rows only
    with pytest.raises(ParseError):
        read_gradient_table(bval, bvec)


@pytest.mark.parametrize("text, message", [("0 1000\n1000 x\n", "non-numeric token"),
                                           ("0\n\n1000 nan\n", "non-finite value")])
def test_gradient_table_parse_error_names_its_line(tmp_path, text, message):
    bval = tmp_path / "x.bval"
    bvec = tmp_path / "x.bvec"
    bval.write_text(text)
    bvec.write_text("0 1\n0 0\n0 0\n")
    with pytest.raises(ParseError) as err:
        read_gradient_table(bval, bvec)
    line = text.count("\n")
    assert str(err.value) == f"{message} in {bval} line {line}"
    assert err.value.offset is None


BVAL = b"0 1000 1000 2000\n"
BVEC = b"0 1 0 0.6\n0 0 1 0.8\n0 0 0 0\n"
NUMERIC = b"0123456789.-+eE \t\nnaif"


@settings(max_examples=300, deadline=None)
@given(
    st.one_of(
        st.tuples(st.just("bval"), mutation.variants(BVAL, hot=len(BVAL), alphabet=NUMERIC)),
        st.tuples(st.just("bvec"), mutation.variants(BVEC, hot=len(BVEC), alphabet=NUMERIC)),
    )
)
def test_gradient_table_fuzz_reads_or_raises_dmrislice_error(target):
    which, variant = target
    with tempfile.TemporaryDirectory() as tmp:
        files = {"bval": BVAL, "bvec": BVEC}
        files[which] = mutation.apply(files[which], variant)
        paths = {}
        for name, raw in files.items():
            paths[name] = os.path.join(tmp, f"x.{name}")
            with open(paths[name], "wb") as fh:
                fh.write(raw)
        try:
            g = read_gradient_table(paths["bval"], paths["bvec"])
        except DmrisliceError:
            return
        assert np.all(np.isfinite(g.bvals)) and np.all(np.isfinite(g.bvecs))
