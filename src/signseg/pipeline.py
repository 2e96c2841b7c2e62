"""Shared pose-to-feature preparation used by training and inference.

Order is fixed: resample to the target rate, normalize (which drops leg
points), select the keypoint subset, then assemble per-frame features in
float32, the precision the tagger runs in.
"""

from dataclasses import dataclass

import numpy as np

from .flow import FeatureMatrix, assemble_features
from .numutil import check_fps
from .pose import (
    PoseSequence, check_selector, drop_legs, named_selector, resample_index, select_columns,
    shoulder_columns, shoulder_stats,
)

FEATURE_FLAGS = ("flow", "handnorm")


@dataclass(frozen=True)
class PipelineOptions:
    fps: float = 25.0
    selector: str = "body75"
    features: tuple[str, ...] = ("flow",)

    def __post_init__(self):
        object.__setattr__(self, "fps", float(check_fps(self.fps)))
        check_selector(self.selector)
        unknown = [f for f in self.features if f not in FEATURE_FLAGS]
        if unknown:
            raise ValueError(
                f"unknown feature flags {unknown}; known flags: {', '.join(FEATURE_FLAGS)}"
            )
        if "handnorm" in self.features:
            selected = {comp for comp, _ in named_selector(self.selector).entries}
            if not {"LEFT_HAND", "RIGHT_HAND"} <= selected:
                raise ValueError(f"feature handnorm needs the LEFT_HAND and RIGHT_HAND "
                                 f"components, and selector {self.selector!r} drops them")

    def read_columns(self, components) -> list[int] | None:
        """The columns prepare_pose reads of a pose with these components, as
        load_pose's columns: the selected points and the two shoulders, in
        ascending order. None where prepare_pose raises on the components;
        the whole pose is then read, and prepare_pose raises in its stage."""
        try:
            shoulders = shoulder_columns(components)
            selected = _selected_columns(components, self.selector)[1]
        except ValueError:
            return None
        return sorted({*shoulders, *selected})


def parse_feature_flags(text: str) -> tuple[str, ...]:
    """Comma-separated flag list; empty string means bare coordinates."""
    return tuple(part for part in text.split(",") if part)


def _selected_columns(components, selector: str):
    """The components prepare_pose returns, and the columns of their points."""
    kept, keep = drop_legs(components)
    selected, order = select_columns(kept, named_selector(selector))
    return selected, [keep[i] for i in order]


def prepare_pose(seq: PoseSequence, opts: PipelineOptions) -> PoseSequence:
    """select_points(normalize_pose(resample_fps(seq, fps)), selector), bit for bit.

    The statistics come from the resampled frames as normalize_pose takes
    them; then only the selected points of those frames are copied and
    transformed. body75 reads 65 of a holistic pose's 543 points: its 75
    less the 10 leg points that normalization drops. On a pose that
    load_pose cut to opts.read_columns it gives the same bits.
    """
    idx = resample_index(seq, opts.fps)
    fps, frames = (seq.fps, np.arange(seq.num_frames)) if idx is None else (opts.fps, idx)
    mean_mid, mean_dist = shoulder_stats(seq, frames)
    components, cols = _selected_columns(seq.components, opts.selector)
    rows = frames[:, None]
    with np.errstate(over="ignore"):  # check_finite rejects what overflows
        coords = (seq.coords[rows, cols] - mean_mid) / mean_dist
    conf = seq.conf[rows, cols]
    coords[conf == 0] = 0.0
    return PoseSequence(fps, components, coords, conf)


def prepare_features(seq: PoseSequence, opts: PipelineOptions) -> FeatureMatrix:
    """The features of the prepared pose, as a (T, F) float32 array."""
    return assemble_features(
        prepare_pose(seq, opts),
        include_flow="flow" in opts.features,
        include_hand_norm="handnorm" in opts.features,
    )
