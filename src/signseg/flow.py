"""Optical flow over pose keypoints and per-frame feature assembly in float32."""

from dataclasses import dataclass

import numpy as np

from . import hands
from .pose import HAND_POINTS, PoseSequence, component_columns, point_names


# optical_flow takes the displacements of this many frames at a time, so it
# holds one (FLOW_ROWS, K, 3) block of floats beside its (T, K) result.
FLOW_ROWS = 64


@np.errstate(over="ignore", invalid="ignore")  # check_finite rejects what overflows
def optical_flow(seq: PoseSequence) -> np.ndarray:
    """(T, K) displacement magnitude between consecutive frames, in pose units per second.

    A point's entry is 0 in frame 0 and wherever the point is untracked in
    the frame or the one before.
    """
    t, k = seq.conf.shape
    values = np.zeros((t, k), dtype=float)
    block = np.empty((min(t, FLOW_ROWS), k, 3))
    for start in range(1, t, FLOW_ROWS):
        stop = min(start + FLOW_ROWS, t)
        rows, before = slice(start, stop), slice(start - 1, stop - 1)
        # the magnitude with the operations of np.linalg.norm(axis=2), times fps
        step = np.subtract(seq.coords[rows], seq.coords[before], out=block[:stop - start])
        np.multiply(step, step, out=step)
        out = values[rows]
        np.add.reduce(step, axis=2, out=out)
        np.sqrt(out, out=out)
        out *= seq.fps
        out[~((seq.conf[rows] > 0) & (seq.conf[before] > 0))] = 0.0
    return values


def check_finite(values: np.ndarray, seq: PoseSequence, per_point: int = 1) -> None:
    """Raises naming the first frame and point with a value that is not
    finite. values is (T, F): per_point values of each of seq's points, then
    any normalized hands' 3 per point, as assemble_features lays them out."""
    if np.isfinite(values).all():
        return
    t, col = np.argwhere(~np.isfinite(values))[0]
    names = [f"{comp}/{point}" for comp, point in point_names(seq.components)]
    width = len(names) * per_point
    i = col // per_point if col < width else len(names) + (col - width) // 3
    names += [f"normalized {hand}/{point}" for hand in ("LEFT_HAND", "RIGHT_HAND")
              for point in HAND_POINTS]
    raise ValueError(f"frame {t}, point {names[i]}: value {values[t, col]} is not finite")


@dataclass(frozen=True)
class FeatureMatrix:
    """values: (T, F), the points' x, y, z(, flow), then any normalized hands."""

    values: np.ndarray

    @property
    def width(self) -> int:
        return self.values.shape[1]


def _normalized_hand_block(seq: PoseSequence, comp_name: str, handedness) -> np.ndarray:
    """(T, 63) normalized hands in bone units: the middle metacarpal is 1
    long, so the block is on the scale of the shoulder-normalized points."""
    cols = component_columns(seq.components, comp_name)
    if len(cols) != 21:
        raise ValueError(f"component {comp_name!r} has {len(cols)} points, expected 21")
    hand = slice(cols.start, cols.stop)  # a view; a range would index a copy
    conf = seq.conf[:, hand]
    out, ok = hands.normalize_hands(seq.coords[:, hand], handedness)
    # frames with an untracked anchor stay zero, like a missing hand
    anchors = [hands.WRIST, hands.I_MCP, hands.M_MCP, hands.P_MCP]
    out[~(ok & (conf[:, anchors] > 0).all(axis=1))] = 0.0
    out[conf == 0] = 0.0
    out /= hands.BONE_LENGTH
    return out.reshape(seq.num_frames, 63)


def assemble_features(seq: PoseSequence, include_flow: bool = True,
                      include_hand_norm: bool = False) -> FeatureMatrix:
    """Per-frame tagger input: x,y,z(,flow) per point, then optional normalized hands.

    Missing points (confidence 0) contribute zeros everywhere. Each block is
    computed in float64 and written into one (T, F) float32 array, the
    tagger's precision, which rounds it as astype(np.float32) would. A value
    past float32's range, or one that is not finite, raises (check_finite).
    """
    t, k = seq.conf.shape
    per_point = 4 if include_flow else 3
    width = k * per_point
    out = np.empty((t, width + 126 * include_hand_norm), dtype=np.float32)
    # each point's columns of out: splitting the last axis of a row slice
    # gives a view, so these writes land in out
    points = out[:, :width].reshape(t, k, per_point)
    with np.errstate(over="ignore", invalid="ignore"):  # the casts to float32
        points[:, :, :3] = seq.coords
        points[seq.conf == 0] = 0.0
        if include_flow:
            points[:, :, 3] = optical_flow(seq)
        if include_hand_norm:
            out[:, width:width + 63] = _normalized_hand_block(seq, "LEFT_HAND",
                                                              hands.Handedness.LEFT)
            out[:, width + 63:] = _normalized_hand_block(seq, "RIGHT_HAND",
                                                         hands.Handedness.RIGHT)
    check_finite(out, seq, per_point)
    return FeatureMatrix(out)
