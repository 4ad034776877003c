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
