"""Corpus loading and the training loop with early stopping on frame F1."""

import os
from dataclasses import dataclass

import numpy as np

from .metrics import frame_f1
from .pipeline import PipelineOptions, prepare_features
from .pose import load_pose
from .tagger import AdamState, TaggerModel, class_weights_from_tags, forward_clips, train_step
from .tags import (SEGMENTS_TIERS, TagScheme, clamp_segments, encode_tags,
                   load_segments, retime_segments)

POSE_SUFFIX = ".pose.json"
SEGMENTS_SUFFIX = ".segments.json"


@dataclass
class ClipData:
    name: str
    features: np.ndarray
    gold: dict  # tier -> list of tag ints, aligned with feature rows


def list_pairs(data_dir) -> list[tuple[str, str, str]]:
    """(stem, pose path, segments path) for every paired clip in a directory."""
    poses, segs = {}, {}
    for entry in sorted(os.listdir(data_dir)):
        if entry.endswith(POSE_SUFFIX):
            poses[entry[:-len(POSE_SUFFIX)]] = os.path.join(data_dir, entry)
        elif entry.endswith(SEGMENTS_SUFFIX):
            segs[entry[:-len(SEGMENTS_SUFFIX)]] = os.path.join(data_dir, entry)
    unpaired = sorted(set(poses) ^ set(segs))
    if unpaired:
        raise ValueError(f"unpaired clips in {data_dir}: {', '.join(unpaired)}")
    if not poses:
        raise ValueError(f"no {POSE_SUFFIX} clips found in {data_dir}")
    return [(stem, poses[stem], segs[stem]) for stem in sorted(poses)]


def load_clip(stem: str, pose_path, segments_path, opts: PipelineOptions) -> ClipData:
    feats = prepare_features(load_pose(pose_path, opts.read_columns), opts)
    t_out = feats.values.shape[0]
    seg_fps, tiers = load_segments(segments_path)
    gold = {}
    for tier in SEGMENTS_TIERS:
        retimed = retime_segments(tiers.get(tier, []), seg_fps, opts.fps)
        gold[tier] = encode_tags(clamp_segments(retimed, t_out), t_out, TagScheme.BIO)
    return ClipData(stem, feats.values, gold)


def load_corpus(data_dir, opts: PipelineOptions) -> list[ClipData]:
    clips = [load_clip(stem, p, s, opts) for stem, p, s in list_pairs(data_dir)]
    widths = {c.features.shape[1] for c in clips}
    if len(widths) > 1:
        raise ValueError(f"clips disagree on feature width: {sorted(widths)}")
    return clips


def corpus_class_weights(clips) -> dict:
    return {tier: class_weights_from_tags([c.gold[tier] for c in clips]) for tier in SEGMENTS_TIERS}


def mean_frame_f1(model: TaggerModel, clips) -> float:
    """Mean over clips and tiers of F1 between argmax tags and gold tags."""
    scores = []
    for clip, probs in zip(clips, forward_clips(model, [c.features for c in clips])):
        for tier in SEGMENTS_TIERS:
            pred = np.argmax(probs[tier], axis=1)
            scores.append(frame_f1(pred, clip.gold[tier]))
    return float(np.mean(scores))


@dataclass
class EpochRow:
    epoch: int
    step: int
    train_loss: float
    val_f1: float | None


@dataclass
class TrainResult:
    model: TaggerModel  # best-validation parameters
    best_val_f1: float
    best_step: int
    steps: int
    history: list
    stopped: str  # "max_steps" or "early"


# A step that overflows float32 or makes a NaN is caught by the checks of
# every step's loss and of the returned parameters, which raise; numpy's
# overflow and invalid-value warnings would only come first.
@np.errstate(over="ignore", invalid="ignore")
def train(model: TaggerModel, train_clips, val_clips, max_steps: int = 0,
          patience: int = 20, val_every: int = 1, shuffle_seed: int = 0) -> TrainResult:
    """Sequence-at-a-time epochs; keeps the parameters of the best validation F1.

    max_steps = 0 removes the step cap; patience counts evaluations without
    improvement and 0 disables early stopping. At least one limit must be set.
    """
    if not train_clips:
        raise ValueError("training set is empty")
    if not val_clips:
        raise ValueError("validation set is empty")
    for name, value in (("max_steps", max_steps), ("patience", patience)):
        if value < 0:
            raise ValueError(f"{name} must be >= 0 (0 = off)")
    if max_steps == 0 and patience == 0:
        raise ValueError("either max_steps or patience must be positive")
    if val_every <= 0:
        raise ValueError("val_every must be positive")
    rng = np.random.default_rng(shuffle_seed)
    cfg = model.config
    dropout_rng = np.random.default_rng(cfg.seed + 1) if cfg.dropout > 0 else None
    state = AdamState()
    history: list[EpochRow] = []
    # every run evaluates before it returns (at the step cap, or before an
    # early stop), and frame F1 >= 0 beats -1, so best_params is always set
    best_f1, best_step, best_params = -1.0, 0, None
    since_best = 0
    steps = 0
    epoch = 0
    stopped = "max_steps"
    while max_steps <= 0 or steps < max_steps:
        epoch += 1
        losses = []
        for idx in rng.permutation(len(train_clips)):
            clip = train_clips[idx]
            losses.append(train_step(model, clip.features, clip.gold, state,
                                     dropout_rng=dropout_rng))
            steps += 1
            if max_steps > 0 and steps >= max_steps:
                break
        at_cap = max_steps > 0 and steps >= max_steps
        val_f1 = None
        if epoch % val_every == 0 or at_cap:
            val_f1 = mean_frame_f1(model, val_clips)
        history.append(EpochRow(epoch, steps, float(np.mean(losses)), val_f1))
        if val_f1 is not None:
            if val_f1 > best_f1:
                best_f1, best_step = val_f1, steps
                # the run ends after an evaluation at the cap: no step follows
                # to change the parameters, so they need no copy
                best_params = (model.params if at_cap
                               else {k: v.copy() for k, v in model.params.items()})
                since_best = 0
            else:
                since_best += 1
                if patience > 0 and since_best >= patience:
                    stopped = "early"
                    break
    # an update can overflow a parameter with no later step's loss to show
    # it, and load_model would reject the checkpoint
    for name, arr in best_params.items():
        if not np.isfinite(arr).all():
            raise RuntimeError(f"trained parameter {name} holds a non-finite value")
    return TrainResult(TaggerModel(cfg, best_params), best_f1, best_step,
                       steps, history, stopped)

