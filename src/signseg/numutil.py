"""Small numeric helpers shared across modules."""

import functools
import json
import math
import os
import sys
from contextlib import contextmanager


# The errors that bad input, a failed read or a refused allocation raise:
# a command reports each as an error of the stage it happened in.
INPUT_ERRORS = (ValueError, RuntimeError, OSError, KeyError, TypeError, OverflowError,
                MemoryError)


@contextmanager
def naming(path):
    """Raises an error of the block as a ValueError whose message names path
    first: the one input file the block works on."""
    try:
        yield
    except INPUT_ERRORS as e:
        raise ValueError(f"{path}: {e}") from e


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


def load_json(text, what: str):
    """json.loads(text), each error it raises (nesting too deep and invalid
    UTF-8 in bytes too) a ValueError "malformed <what>: <the error>"."""
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as e:
        raise ValueError(f"malformed {what}: {e}") from None


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


def pin_one_blas_thread() -> None:
    """Puts numpy's OpenBLAS on one thread for the rest of the process; a
    no-op when numpy's OpenBLAS is not found.

    Each `segment --workers` pool process calls it as it starts, so that the
    processes' matrix products do not compete for the cores.
    """
    calls = _openblas_threads()
    if calls is not None:
        calls[1](1)
