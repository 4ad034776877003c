import pytest

import dmrislice.blas as blas
import dmrislice.evaluate as evaluate
from dmrislice.blas import one_blas_thread
from dmrislice.evaluate import run_experiment
from dmrislice.phantom import PhantomSpec, make_phantom

OPENBLAS = blas._openblas()
needs_openblas = pytest.mark.skipif(OPENBLAS is None, reason="NumPy's BLAS is not OpenBLAS")


@pytest.fixture
def two_threads():
    """Sets NumPy's OpenBLAS to two threads; yields the getter; restores."""
    get, set_ = OPENBLAS
    before = get()
    set_(2)
    try:
        yield get
    finally:
        set_(before)


@needs_openblas
def test_scope_restores_the_count_after_a_normal_exit(two_threads):
    with one_blas_thread():
        assert two_threads() == 1
    assert two_threads() == 2


@needs_openblas
def test_scope_restores_the_count_after_an_exception(two_threads):
    with pytest.raises(KeyError):
        with one_blas_thread():
            assert two_threads() == 1
            raise KeyError("boom")
    assert two_threads() == 2


def test_scope_does_nothing_without_openblas(monkeypatch):
    count = OPENBLAS[0] if OPENBLAS else (lambda: None)
    before = count()
    monkeypatch.setattr(blas, "_openblas", lambda: None)
    inside = []
    with one_blas_thread():
        inside.append(count())
    assert inside == [before]
    assert count() == before


@needs_openblas
@pytest.mark.parametrize("threads", [None, 2])
def test_run_experiment_runs_cells_on_one_blas_thread(two_threads, monkeypatch, threads):
    data = make_phantom(PhantomSpec(dims=(12, 12, 8), n_directions=8, seed=1))
    seen = []
    interp = evaluate.interp_missing_slices

    def recording(*args, **kwargs):
        seen.append(two_threads())
        return interp(*args, **kwargs)

    monkeypatch.setattr(evaluate, "interp_missing_slices", recording)
    run_experiment(data, methods=("linear",), gaps=(2, 4), n_values=(1,), threads=threads)
    assert seen and set(seen) == {1}
    assert two_threads() == 2
