"""Small numeric helpers shared across modules."""

import math
import sys


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
