"""Segment decoders over frame probabilities, plus threshold grid tuning.

Probabilities arrive as (T, 3) rows of (B, I, O) scaled to [0, 100]. The
threshold decoder follows the published greedy algorithm: open at the first
frame whose B probability clears threshold_b; once B has dropped below the
threshold the segment closes at the first frame whose B or O probability
clears its threshold, yielding the half-open [start, close). A closing B does
not open a new segment (that quirk is kept; strict_bio adds the reopen).
"""

from dataclasses import dataclass
from enum import Enum
from itertools import product

import numpy as np

from .metrics import _frame_mask
from .tags import B, O, Segment, TagScheme, decode_gold_tags

DEFAULT_GRID = tuple(range(10, 91, 10))

_ROW_SUM_TOL = 0.5


class DecodeMode(Enum):
    THRESHOLD = "threshold"
    ARGMAX = "argmax"


@dataclass(frozen=True)
class DecodeParams:
    threshold_b: float = 50.0
    threshold_o: float = 50.0
    mode: DecodeMode = DecodeMode.THRESHOLD
    strict_bio: bool = False

    def __post_init__(self):
        for v in (self.threshold_b, self.threshold_o):
            if not 0 <= v <= 100:
                raise ValueError(f"threshold {v} outside [0, 100]")


def _check_rows(probs) -> np.ndarray:
    probs = np.asarray(probs, dtype=float)
    if probs.ndim != 2 or probs.shape[1] != 3:
        raise ValueError(f"probability rows must be (T, 3), got {probs.shape}")
    # <=, not >: a NaN row compares False either way, and must fail
    if not (np.abs(probs.sum(axis=1) - 100.0) <= _ROW_SUM_TOL).all():
        raise ValueError("probability rows must sum to 100 (0-100 scale)")
    return probs


def _greedy(b: list, o: list, params: DecodeParams) -> list[Segment]:
    """The threshold decoder over each frame's B and O probabilities as floats."""
    tb, to = params.threshold_b, params.threshold_o
    out: list[Segment] = []
    start = None
    did_pass = False
    for t, (bt, ot) in enumerate(zip(b, o)):
        if start is None:
            if bt > tb:
                start = t
                did_pass = False
            continue
        if not did_pass and bt < tb:
            did_pass = True
        if did_pass and (bt > tb or ot > to):
            out.append(Segment(start, t))
            start = None
            did_pass = False
            if params.strict_bio and bt > tb:
                start = t
    if start is not None:
        out.append(Segment(start, len(b)))
    return out


def greedy_decode(probs, params: DecodeParams) -> list[Segment]:
    probs = _check_rows(probs)
    return _greedy(probs[:, B].tolist(), probs[:, O].tolist(), params)


def argmax_decode(probs) -> list[Segment]:
    """BIO gold-tag decoding of the per-frame argmax labels; ties resolve B,
    then I, then O, since argmax returns the first maximum."""
    labels = _check_rows(probs).argmax(axis=1)
    return decode_gold_tags(labels.tolist(), TagScheme.BIO)


def decode(probs, params: DecodeParams) -> list[Segment]:
    if params.mode is DecodeMode.ARGMAX:
        return argmax_decode(probs)
    return greedy_decode(probs, params)


@dataclass(frozen=True)
class TuneCell:
    threshold_b: float
    threshold_o: float
    iou: float
    percentage: float


def tune_thresholds(dev_set, grid=DEFAULT_GRID, strict_bio: bool = False):
    """Exhaustive (threshold_b, threshold_o) grid search over a dev set.

    dev_set: list of (probs, gold segments) pairs for one tier. Objective is
    lexicographic: max pooled IoU, then min |percentage - 1|, then the smaller
    pair. Returns (threshold_b, threshold_o, table of every grid cell).
    """
    if not dev_set:
        raise ValueError("dev set is empty")
    dev = []  # each clip's rows are checked and turned into floats once
    for p, g in dev_set:
        probs = _check_rows(p)
        dev.append((probs[:, B].tolist(), probs[:, O].tolist(), _frame_mask(g, len(probs))))
    n_gold = sum(len(g) for _, g in dev_set)
    if n_gold == 0:
        raise ValueError("dev set has no gold segments")
    table = []
    for tb, to in product(grid, repeat=2):
        params = DecodeParams(tb, to, DecodeMode.THRESHOLD, strict_bio)
        inter = union = n_pred = 0
        for b, o, gmask in dev:
            pred = _greedy(b, o, params)
            pmask = _frame_mask(pred, len(b))
            inter += int((pmask & gmask).sum())
            union += int((pmask | gmask).sum())
            n_pred += len(pred)
        iou = inter / union if union else 1.0
        pct = n_pred / n_gold
        table.append(TuneCell(tb, to, iou, pct))
    best = min(table, key=lambda c: (-c.iou, abs(c.percentage - 1), c.threshold_b, c.threshold_o))
    return best.threshold_b, best.threshold_o, table
