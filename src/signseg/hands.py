"""3D hand landmark geometry: canonical normalization and the multi-view /
crop consistency metrics.

Axis convention throughout: screen style, x right, y down, z toward the camera.
All operations take 21-landmark hands in the standard anatomical order
(WRIST, thumb, index, middle, ring, pinky; 4 joints per finger).
"""

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .pose import HAND_POINTS

WRIST = 0
I_MCP = HAND_POINTS.index("I_MCP")
M_MCP = HAND_POINTS.index("M_MCP")
P_MCP = HAND_POINTS.index("P_MCP")

BONE_LENGTH = 200.0  # canonical middle-metacarpal length after normalization

_EPS = 1e-12


class Handedness(Enum):
    LEFT = "left"
    RIGHT = "right"


@dataclass(frozen=True)
class HandPose:
    """points: (21, 3) float array; handedness tells which hand was captured."""

    points: np.ndarray
    handedness: Handedness = Handedness.RIGHT

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.shape != (21, 3):
            raise ValueError(f"hand must have shape (21, 3), got {pts.shape}")
        if not np.isfinite(pts).all():
            raise ValueError("hand contains non-finite coordinates")
        object.__setattr__(self, "points", pts)


# Degeneracies in the order they are tested; fault code i + 1 is _FAULTS[i].
_FAULTS = (
    "zero-length middle metacarpal",
    "degenerate palm: WRIST, I_MCP, P_MCP are collinear",
    "degenerate hand: palm normal parallel to the metacarpal",
)


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise dot product of (N, 3) arrays.

    A stack of (1, 3) @ (3, 1) products sums each row exactly as np.dot sums
    one pair of vectors, so a batch and a single hand round alike.
    """
    return (a[:, None, :] @ b[:, :, None])[:, 0, 0]


def _norm(v: np.ndarray) -> np.ndarray:
    return np.sqrt(_dot(v, v))


def _palm_normals(points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Unit WRIST/I_MCP/P_MCP normals of (N, 21, 3) hands and a collinear mask."""
    a = points[:, I_MCP] - points[:, WRIST]
    b = points[:, P_MCP] - points[:, WRIST]
    n = np.cross(a, b)
    norm = _norm(n)
    scale = np.maximum(np.maximum(_norm(a), _norm(b)), _EPS)
    return n / norm[:, None], norm <= _EPS * scale * scale


def _canonicalize(points: np.ndarray, handedness: Handedness):
    """(N, 21, 3) hands in the canonical frame, and a fault code per hand (0 = ok)."""
    if handedness is Handedness.LEFT:
        points = points * np.array([-1.0, 1.0, 1.0])
    q = points - points[:, WRIST, None]
    bone = q[:, M_MCP]
    with np.errstate(divide="ignore", invalid="ignore"):
        length = _norm(bone)
        y = bone / length[:, None]
        n, collinear = _palm_normals(q)
        z = n - _dot(n, y)[:, None] * y
        z_norm = _norm(z)
        z = z / z_norm[:, None]
        x = np.cross(y, z)
        basis = np.stack([x, y, z], axis=1)  # rows are the new axes
        out = (q @ basis.transpose(0, 2, 1)) * (BONE_LENGTH / length)[:, None, None]
    fault = np.select([length <= _EPS, collinear, z_norm <= 1e-9], [1, 2, 3], 0)
    return out, fault


def normalize_hands(points, handedness: Handedness) -> tuple[np.ndarray, np.ndarray]:
    """hand_normalize over a batch: (N, 21, 3) points of one handedness.

    Returns the normalized points and a per-hand ok mask. Hands that are
    degenerate, or whose result is not finite, are not ok and come out as
    zero rows.
    """
    out, fault = _canonicalize(np.asarray(points, dtype=float), handedness)
    ok = (fault == 0) & np.isfinite(out).all(axis=(1, 2))
    out[~ok] = 0.0
    return out, ok


def hand_normalize(hand: HandPose) -> HandPose:
    """Map a hand into the canonical frame.

    Left hands are mirrored across the YZ plane first so both hands share one
    frame. Then the hand is rotated so the middle metacarpal lies exactly on
    +Y with the palm normal in the +Z half of the YZ plane, scaled so the
    metacarpal is BONE_LENGTH long, and the wrist is moved to the origin.
    Idempotent, and invariant to rigid motion plus positive uniform scaling.
    """
    out, fault = _canonicalize(hand.points[None], hand.handedness)
    if fault[0]:
        raise ValueError(_FAULTS[fault[0] - 1])
    return HandPose(out[0], Handedness.RIGHT)


def mean_landmark_std(stacks: np.ndarray) -> float:
    """Population std of (N, 21, 3) hands per landmark and axis, then the mean
    of all 63. Raises where that is not finite, as when hands lie too far apart."""
    with np.errstate(over="ignore", invalid="ignore"):
        std = float(stacks.std(axis=0, ddof=0).mean())
    if not math.isfinite(std):
        raise ValueError(f"mean landmark std {std:g} is not finite")
    return std


def mace(members: list[HandPose]) -> float:
    """Multi-angle consistency: mean landmark std across members after full normalization."""
    if len(members) < 2:
        raise ValueError("consistency metrics need at least 2 members")
    stacks = np.stack([hand_normalize(m).points for m in members])
    return mean_landmark_std(stacks)


def cce(members: list[HandPose]) -> float:
    """Crop consistency: mean landmark std after wrist alignment only."""
    if len(members) < 2:
        raise ValueError("consistency metrics need at least 2 members")
    stacks = np.stack([m.points - m.points[WRIST] for m in members])
    return mean_landmark_std(stacks)
