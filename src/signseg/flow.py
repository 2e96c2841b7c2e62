"""Optical flow over pose keypoints and per-frame feature assembly."""

from dataclasses import dataclass

import numpy as np

from . import hands
from .pose import PoseSequence


@dataclass(frozen=True)
class FlowMatrix:
    """values: (T, K) motion magnitude in pose units per second; mask: valid entries."""

    values: np.ndarray
    mask: np.ndarray


def optical_flow(seq: PoseSequence) -> FlowMatrix:
    """Per-point displacement magnitude between consecutive frames, scaled by fps.

    A point contributes only where it is tracked in both frames; frame 0 and
    masked entries are 0.
    """
    t, k = seq.conf.shape
    values = np.zeros((t, k), dtype=float)
    mask = np.zeros((t, k), dtype=bool)
    if t > 1:
        disp = np.linalg.norm(seq.coords[1:] - seq.coords[:-1], axis=2)
        mask[1:] = (seq.conf[1:] > 0) & (seq.conf[:-1] > 0)
        values[1:] = np.where(mask[1:], disp * seq.fps, 0.0)
    return FlowMatrix(values, mask)


@dataclass(frozen=True)
class FeatureMatrix:
    """values: (T, F); layout: ordered (block name, width) pairs with sum F."""

    values: np.ndarray
    layout: tuple[tuple[str, int], ...]

    @property
    def width(self) -> int:
        return self.values.shape[1]


def _normalized_hand_block(seq: PoseSequence, comp_name: str, handedness) -> np.ndarray:
    off = seq.component_offset(comp_name)
    comp = seq.component(comp_name)
    if len(comp.points) != 21:
        raise ValueError(f"component {comp_name!r} has {len(comp.points)} points, expected 21")
    conf = seq.conf[:, off:off + 21]
    out, ok = hands.normalize_hands(seq.coords[:, off:off + 21, :], handedness)
    # frames with an untracked anchor stay zero, like a missing hand
    anchors = [hands.WRIST, hands.I_MCP, hands.M_MCP, hands.P_MCP]
    out[~(ok & (conf[:, anchors] > 0).all(axis=1))] = 0.0
    out[conf == 0] = 0.0
    return out.reshape(seq.num_frames, 63)


def assemble_features(seq: PoseSequence, include_flow: bool = True,
                      include_hand_norm: bool = False) -> FeatureMatrix:
    """Per-frame tagger input: x,y,z(,flow) per point, then optional normalized hands.

    Missing points (confidence 0) contribute zeros everywhere.
    """
    t, k = seq.conf.shape
    coords = seq.coords.copy()
    coords[seq.conf == 0] = 0.0
    per_point = 3
    if include_flow:
        flow = optical_flow(seq)
        block = np.concatenate([coords, flow.values[:, :, None]], axis=2)
        per_point = 4
    else:
        block = coords
    layout = [("points", k * per_point)]
    parts = [block.reshape(t, k * per_point)]
    if include_hand_norm:
        missing = [c for c in ("LEFT_HAND", "RIGHT_HAND")
                   if all(comp.name != c for comp in seq.components)]
        if missing:
            raise ValueError(f"hand normalization needs components {missing} in the sequence")
        parts.append(_normalized_hand_block(seq, "LEFT_HAND", hands.Handedness.LEFT))
        parts.append(_normalized_hand_block(seq, "RIGHT_HAND", hands.Handedness.RIGHT))
        layout.append(("hands_normalized", 126))
    return FeatureMatrix(np.concatenate(parts, axis=1), tuple(layout))
