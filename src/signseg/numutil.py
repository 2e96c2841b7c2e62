"""Small numeric helpers shared across modules."""

import functools
import math
import os
import sys
from contextlib import contextmanager


def round_half_away(x: float) -> int:
    """Round to nearest integer, halves away from zero.

    Python's round() ties to even, which is not what frame retiming wants:
    0.5 must map to 1 on every platform.
    """
    if x >= 0:
        return math.floor(x + 0.5)
    return math.ceil(x - 0.5)


def is_finite_real(x) -> bool:
    """An int or float that a float holds finitely, and not a bool.

    Comparing with the float range, not calling math.isfinite, keeps out NaN,
    the infinities and ints too large for a float without an OverflowError.
    """
    return (isinstance(x, (int, float)) and not isinstance(x, bool)
            and -sys.float_info.max <= x <= sys.float_info.max)


def check_fps(fps, name: str = "fps"):
    """The one frame-rate rule: a positive, finite number that is not a bool."""
    if not (is_finite_real(fps) and fps > 0):
        raise ValueError(f"{name} must be a positive finite number")
    return fps


@functools.cache
def _openblas_threads():
    """numpy's bundled OpenBLAS thread-count calls as (get, set), or None.

    Looked up on first use, so importing the package neither globs for nor
    opens the library. The names are those of numpy's scipy-openblas64
    wheels; a numpy built otherwise finds None.
    """
    import ctypes
    import glob
    import numpy as np

    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libs, "libscipy_openblas64_*.so"))):
        try:
            lib = ctypes.CDLL(path)
            get = lib.scipy_openblas_get_num_threads64_
            set_ = lib.scipy_openblas_set_num_threads64_
        except (OSError, AttributeError):
            continue
        get.argtypes, get.restype = [], ctypes.c_int
        set_.argtypes, set_.restype = [ctypes.c_int], None
        return get, set_
    return None


@contextmanager
def single_blas_thread():
    """Run the block with OpenBLAS on one thread, then restore its count.

    For a pool of worker threads: each worker's matrix products then run on
    the worker's own thread, not on BLAS threads that compete with the other
    workers for the same cores. A no-op when numpy's OpenBLAS is not found.
    """
    calls = _openblas_threads()
    if calls is None:
        yield
        return
    get, set_ = calls
    previous = get()
    set_(1)
    try:
        yield
    finally:
        set_(previous)
