"""Thread count of the OpenBLAS that NumPy calls.

Where NumPy is linked against OpenBLAS, :func:`one_blas_thread` runs a block
with one BLAS thread and then restores the previous count. The setting is
process-wide: every thread's NumPy calls see it while the block runs.
Elsewhere (another BLAS, or none found) the block runs unchanged.
"""

from __future__ import annotations

import ctypes
import functools
from contextlib import contextmanager

# (get, set) symbol pairs of the OpenBLAS builds NumPy ships with or links to.
_SYMBOLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("openblas_get_num_threads64_", "openblas_set_num_threads64_"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)


@functools.cache
def _openblas():
    """(get, set) thread-count functions of NumPy's OpenBLAS, or None."""
    try:
        from numpy._core import _multiarray_umath as ext
    except ImportError:  # NumPy 1.x
        from numpy.core import _multiarray_umath as ext
    try:
        # Symbols of the libraries the extension links to resolve through it.
        handle = ctypes.CDLL(ext.__file__)
    except OSError:
        return None
    for get_name, set_name in _SYMBOLS:
        get, set_ = getattr(handle, get_name, None), getattr(handle, set_name, None)
        if get is not None and set_ is not None:
            get.argtypes, get.restype = [], ctypes.c_int
            set_.argtypes, set_.restype = [ctypes.c_int], None
            return get, set_
    return None


@contextmanager
def one_blas_thread():
    """Run the block with one OpenBLAS thread; restore the count on exit."""
    lib = _openblas()
    if lib is None:
        yield
        return
    get, set_ = lib
    before = get()
    set_(1)
    try:
        yield
    finally:
        set_(before)
