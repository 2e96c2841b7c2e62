"""Shared pose-to-feature preparation used by training and inference.

Order is fixed: resample to the target rate, normalize (which drops leg
points), select the keypoint subset, then assemble per-frame features.
"""

from dataclasses import dataclass

from .flow import FeatureMatrix, assemble_features
from .numutil import check_fps
from .pose import PoseSequence, named_selector, normalize_pose, resample_fps, select_points

FEATURE_FLAGS = ("flow", "handnorm")


@dataclass(frozen=True)
class PipelineOptions:
    fps: float = 25.0
    selector: str = "body75"
    features: tuple[str, ...] = ("flow",)

    def __post_init__(self):
        object.__setattr__(self, "fps", float(check_fps(self.fps)))
        unknown = [f for f in self.features if f not in FEATURE_FLAGS]
        if unknown:
            raise ValueError(
                f"unknown feature flags {unknown}; known flags: {', '.join(FEATURE_FLAGS)}"
            )


def parse_feature_flags(text: str) -> tuple[str, ...]:
    """Comma-separated flag list; empty string means bare coordinates."""
    return tuple(part for part in text.split(",") if part)


def prepare_pose(seq: PoseSequence, opts: PipelineOptions) -> PoseSequence:
    seq = resample_fps(seq, opts.fps)
    seq = normalize_pose(seq)
    return select_points(seq, named_selector(opts.selector))


def prepare_features(seq: PoseSequence, opts: PipelineOptions) -> FeatureMatrix:
    return assemble_features(
        prepare_pose(seq, opts),
        include_flow="flow" in opts.features,
        include_hand_norm="handnorm" in opts.features,
    )
