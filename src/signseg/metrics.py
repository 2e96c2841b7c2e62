"""Evaluation metrics for frame tagging and segment prediction."""

import json
from dataclasses import dataclass

import numpy as np

from .numutil import check_fps
from .tags import MAX_TIMELINE_FRAMES, B, I, O, TagScheme, encode_tag_array


def _tag_array(tags) -> np.ndarray:
    """Tags as an integer array; one already of an integer type is not copied."""
    tags = np.asarray(tags)
    return tags if tags.dtype.kind in "iu" else tags.astype(int)


def frame_f1(pred_tags, gold_tags) -> float:
    """Macro-averaged F1 over the three tag classes.

    A class absent from both prediction and gold contributes F1 = 1.
    """
    pred = _tag_array(pred_tags)
    gold = _tag_array(gold_tags)
    if pred.shape != gold.shape:
        raise ValueError(f"length mismatch: {pred.shape} pred vs {gold.shape} gold tags")
    scores = []
    for c in (B, I, O):
        is_pred, is_gold = pred == c, gold == c
        tp = int(np.count_nonzero(is_pred & is_gold))
        fp = int(np.count_nonzero(is_pred)) - tp
        fn = int(np.count_nonzero(is_gold)) - tp
        if tp + fp + fn == 0:
            scores.append(1.0)
        else:
            scores.append(2 * tp / (2 * tp + fp + fn))
    return float(np.mean(scores))


def _frame_mask(segments, num_frames: int) -> np.ndarray:
    mask = np.zeros(num_frames, dtype=bool)
    for s in segments:
        if not (0 <= s.start < s.end <= num_frames):
            raise ValueError(f"segment [{s.start}, {s.end}) outside [0, {num_frames})")
        mask[s.start:s.end] = True
    return mask


def segment_iou(pred, gold, num_frames: int) -> float:
    """IoU of the frame sets covered by the two segment lists; 1 when both empty."""
    p = _frame_mask(pred, num_frames)
    g = _frame_mask(gold, num_frames)
    union = int((p | g).sum())
    if union == 0:
        return 1.0
    return int((p & g).sum()) / union


def percentage(pred, gold) -> float:
    if len(gold) == 0:
        raise ValueError("percentage undefined with zero gold segments")
    return len(pred) / len(gold)


def roc_auc_o(probs, gold_tags) -> float:
    """AUC of the O probability as a detector of gold O frames; ties count half.

    Average-rank form of the pairwise statistic: equals brute-force pair
    counting with 1/2 credit for tied scores.
    """
    probs = np.asarray(probs, dtype=float)
    scores = probs[:, O] if probs.ndim == 2 else probs
    gold = _tag_array(gold_tags)
    if scores.shape != gold.shape:
        raise ValueError("scores and gold tags differ in length")
    positive = gold == O
    n_pos = int(positive.sum())
    n_neg = len(gold) - n_pos
    if n_pos == 0 or n_neg == 0:
        raise ValueError("roc_auc_o needs both O and non-O frames in gold")
    # c ties ending at 1-based rank e share e - (c - 1) / 2; return_index ranks NaNs by index
    _, _, run, counts = np.unique(scores, return_index=True, return_inverse=True,
                                  return_counts=True, equal_nan=False)
    rank_sum = float((np.cumsum(counts) - (counts - 1) / 2)[run][positive].sum())
    return (rank_sum - n_pos * (n_pos + 1) / 2) / (n_pos * n_neg)


@dataclass(frozen=True)
class Histogram:
    edges: np.ndarray
    density: np.ndarray


def _check_bins(bins) -> None:
    if isinstance(bins, bool) or not isinstance(bins, (int, np.integer)) or bins <= 0:
        raise ValueError("bins must be a positive integer")
    # a histogram of segment lengths resolves no more bins than a timeline has
    # frames, and np.histogram allocates every bin
    if bins > MAX_TIMELINE_FRAMES:
        raise ValueError(f"{bins} bins are over the timeline limit of {MAX_TIMELINE_FRAMES}")


def length_density(segments, fps: float, bins: int = 10) -> Histogram:
    """Normalized density of segment durations in seconds; integrates to 1.

    Durations so short that a bin's density overflows (fps near the float
    maximum) are a ValueError.
    """
    _check_bins(bins)
    if len(segments) == 0:
        raise ValueError("length_density needs at least one segment")
    check_fps(fps)
    durations = np.array([(s.end - s.start) / fps for s in segments])
    with np.errstate(all="ignore"):  # an overflow is the error below, not a warning
        density, edges = np.histogram(durations, bins=bins, density=True)
    if not np.isfinite(density).all():
        raise ValueError(f"segment lengths at {fps:g} fps have a non-finite length density")
    return Histogram(edges, density)


@dataclass
class EvalReport:
    """Per-tier metrics; percentage and length_density may be absent (None)."""

    frame_f1: dict
    iou: dict
    percentage: dict
    length_density: dict


def build_report(pred_tiers: dict, gold_tiers: dict, num_frames: int, fps: float,
                 bins: int = 10) -> EvalReport:
    """Evaluate predicted against gold segments per tier (frame F1 on BIO tags)."""
    _check_bins(bins)  # also when no tier has a predicted segment to bin
    f1, iou, pct, dens = {}, {}, {}, {}
    for tier, gold in gold_tiers.items():
        pred = pred_tiers.get(tier, [])
        gold_tags = encode_tag_array(gold, num_frames, TagScheme.BIO)
        pred_tags = encode_tag_array(pred, num_frames, TagScheme.BIO)
        f1[tier] = frame_f1(pred_tags, gold_tags)
        iou[tier] = segment_iou(pred, gold, num_frames)
        pct[tier] = percentage(pred, gold) if gold else None
        dens[tier] = length_density(pred, fps, bins) if pred else None
    return EvalReport(f1, iou, pct, dens)


def report_to_json(report: EvalReport) -> str:
    doc = {}
    for tier in sorted(report.frame_f1):
        hist = report.length_density.get(tier)
        doc[tier] = {
            "frame_f1": report.frame_f1[tier],
            "iou": report.iou[tier],
            "percentage": report.percentage[tier],
            "length_density": None if hist is None else {
                "edges": [float(e) for e in hist.edges],
                "density": [float(d) for d in hist.density],
            },
        }
    return json.dumps(doc, separators=(",", ":"), allow_nan=False)


def report_to_text(report: EvalReport) -> str:
    lines = [f"{'tier':<8} {'frame_f1':>9} {'iou':>7} {'percent':>8}"]
    for tier in sorted(report.frame_f1):
        pct = report.percentage[tier]
        lines.append(
            f"{tier:<8} {report.frame_f1[tier]:>9.4f} {report.iou[tier]:>7.4f} "
            f"{'-' if pct is None else format(pct, '.4f'):>8}"
        )
    return "\n".join(lines)
