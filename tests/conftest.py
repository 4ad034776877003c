import tracemalloc

import pytest

from dmrislice.blas import _openblas


@pytest.fixture(autouse=True)
def blas_thread_count_is_restored():
    """Every test leaves NumPy's OpenBLAS thread count as it found it, so a
    later test cannot pass only because an earlier one left one thread."""
    lib = _openblas()
    if lib is None:
        yield
        return
    before = lib[0]()
    yield
    assert lib[0]() == before, "the test changed the OpenBLAS thread count"


def _traced_peak(fn, *args, **kwargs):
    """``(fn(*args, **kwargs), peak)``: the call's result, and the most bytes
    it held at once beyond what was allocated when it started, by
    ``tracemalloc`` (which sees NumPy's array buffers). Tracing stops when
    the call ends, however it ends, unless it was already on."""
    was_tracing = tracemalloc.is_tracing()
    if not was_tracing:
        tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        result = fn(*args, **kwargs)
        return result, tracemalloc.get_traced_memory()[1] - start
    finally:
        if not was_tracing:
            tracemalloc.stop()


@pytest.fixture
def traced_peak():
    """The function ``traced_peak(fn, *args, **kwargs) -> (result, peak
    bytes)``; see :func:`_traced_peak`."""
    return _traced_peak
