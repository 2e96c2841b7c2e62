"""Frame tag codec: segments to BIO/IO tags and back, plus frame-rate retiming.

All segments are half-open [start, end) frame intervals. BIO marks a segment's
first frame B and the rest I; IO marks every segment frame I. O fills gaps.
BIO is lossless for non-overlapping segments; IO fuses adjacent segments.
"""

import json
import math
import sys
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .numutil import check_fps, is_finite_real, load_json, round_half_away

B, I, O = 0, 1, 2

# The longest timeline encode_tag_array tags: encode_tags turns its array
# into a list entry per frame (8 bytes each), and 10^7 frames is over 111
# hours at 25 fps. So eval's frame count and the timelines
# fidelity_experiment retimes to are bounded.
MAX_TIMELINE_FRAMES = 10_000_000


class TagScheme(Enum):
    BIO = "bio"
    IO = "io"


@dataclass(frozen=True, order=True)
class Segment:
    start: int
    end: int

    def __post_init__(self):
        if not (0 <= self.start < self.end):
            raise ValueError(f"segment [{self.start}, {self.end}) is not a valid half-open interval")


def _check_sorted_disjoint(segments, num_frames=math.inf):
    prev_end = 0
    for seg in segments:
        if seg.start < prev_end:
            raise ValueError(f"segments overlap at frame {seg.start}")
        if seg.end > num_frames:
            raise ValueError(f"segment [{seg.start}, {seg.end}) exceeds {num_frames} frames")
        prev_end = seg.end


def encode_tag_array(segments, num_frames: int, scheme: TagScheme) -> np.ndarray:
    """Tag num_frames frames from sorted, non-overlapping segments, as int8.

    Written a segment at a time, so the work grows with the segments, and a
    frame costs one byte. More than MAX_TIMELINE_FRAMES frames is a
    ValueError, before any array is built.
    """
    if num_frames > MAX_TIMELINE_FRAMES:
        raise ValueError(f"{num_frames} frames are over the timeline limit of "
                         f"{MAX_TIMELINE_FRAMES}")
    segments = sorted(segments)
    _check_sorted_disjoint(segments, num_frames)
    tags = np.full(num_frames, O, dtype=np.int8)
    for seg in segments:
        tags[seg.start:seg.end] = I
        if scheme is TagScheme.BIO:
            tags[seg.start] = B
    return tags


def encode_tags(segments, num_frames: int, scheme: TagScheme) -> list[int]:
    """The tags of encode_tag_array as a list of ints."""
    return encode_tag_array(segments, num_frames, scheme).tolist()


def decode_tags(tags, scheme: TagScheme) -> tuple[list[Segment], int]:
    """Decode tags into segments; returns (segments, repair count).

    BIO: a segment starts at each B and ends before the next B or O or at the
    end. An I that does not continue a segment (after O, or leading) is
    repaired into a segment start and tallied.
    IO: maximal runs of I.
    """
    segments = []
    repairs = 0
    start = None
    for t, tag in enumerate(tags):
        if tag not in (B, I, O):
            raise ValueError(f"unknown tag value {tag!r} at frame {t}")
        if tag == O:
            if start is not None:
                segments.append(Segment(start, t))
                start = None
        elif tag == B and scheme is TagScheme.BIO:
            if start is not None:
                segments.append(Segment(start, t))
            start = t
        else:
            # I, or a stray B under IO (tolerated as inside-segment)
            if start is None:
                start = t
                if scheme is TagScheme.BIO:
                    repairs += 1
    if start is not None:
        segments.append(Segment(start, len(tags)))
    return segments, repairs


def decode_gold_tags(tags, scheme: TagScheme) -> list[Segment]:
    segments, _ = decode_tags(tags, scheme)
    return segments


def retime_segments(segments, src_fps, dst_fps) -> list[Segment]:
    """Map segment boundaries between frame rates.

    Boundaries are scaled by dst/src and rounded half away from zero; one
    that is not finite or too large to index is a ValueError. A
    segment that collapses keeps one frame; overlaps created by rounding are
    merged. Adjacent segments stay adjacent, not merged.
    """
    check_fps(src_fps, "src_fps")
    check_fps(dst_fps, "dst_fps")

    def frame(index):
        # an int past float range would overflow the product instead
        x = index * dst_fps / src_fps if is_finite_real(index) else math.inf
        if not (math.isfinite(x) and x <= sys.maxsize):
            raise ValueError(f"frame {index} retimed from {src_fps:g} to {dst_fps:g} fps "
                             f"is {x:g}, not a frame index")
        return round_half_away(x)

    out: list[Segment] = []
    for seg in sorted(segments):
        s, e = frame(seg.start), frame(seg.end)
        if e <= s:
            e = s + 1
        if out and s < out[-1].end:
            out[-1] = Segment(out[-1].start, max(out[-1].end, e))
        else:
            out.append(Segment(s, e))
    return out


def clamp_segments(segments, num_frames: int) -> list[Segment]:
    """Pin segments inside [0, num_frames); a tail segment keeps its last frame."""
    out = []
    for seg in segments:
        if seg.start >= num_frames:
            if out and out[-1].end == num_frames:
                continue
            out.append(Segment(num_frames - 1, num_frames))
        elif seg.end > num_frames:
            out.append(Segment(seg.start, num_frames))
        else:
            out.append(seg)
    return out


@dataclass(frozen=True)
class FidelityRow:
    fps: float
    scheme: TagScheme
    reproduced: float
    exact: float


def fidelity_experiment(gold, src_fps, fps_list) -> list[FidelityRow]:
    """Round-trip disjoint gold segments, as parse_segments returns them,
    through each frame rate and tag scheme.

    Pipeline per (fps, scheme): retime to fps, encode, decode, retime back.
    reproduced = decoded count / gold count; exact = fraction of gold segments
    whose boundaries survive unchanged. A frame rate that would retime the
    timeline past MAX_TIMELINE_FRAMES frames is a ValueError.
    """
    gold = sorted(gold)
    if not gold:
        raise ValueError("fidelity experiment needs at least one gold segment")
    num_frames = max(s.end for s in gold)
    gold_set = set(gold)
    rows = []
    for fps in fps_list:
        # retimed first: it rejects an end past float range, which the product overflows
        retimed = retime_segments(gold, src_fps, fps)
        frames = num_frames * fps / src_fps
        if not frames <= MAX_TIMELINE_FRAMES:
            raise ValueError(f"{num_frames} frames retimed from {src_fps:g} to {fps:g} fps "
                             f"are {frames:g}, over the limit of {MAX_TIMELINE_FRAMES}")
        t_out = max(round_half_away(frames), 1)
        retimed = clamp_segments(retimed, t_out)
        for scheme in (TagScheme.BIO, TagScheme.IO):
            tags = encode_tags(retimed, t_out, scheme)
            decoded = decode_gold_tags(tags, scheme)
            back = retime_segments(decoded, fps, src_fps)
            reproduced = len(back) / len(gold)
            exact = sum(1 for s in back if s in gold_set) / len(gold)
            rows.append(FidelityRow(fps, scheme, reproduced, exact))
    return rows


# segments-json v1: {"fps": N, "tiers": {"sign": [{"start": i, "end": j}, ...], ...}}

SEGMENTS_TIERS = ("sign", "phrase")


def parse_segments(text: str | bytes) -> tuple[float, dict[str, list[Segment]]]:
    doc = load_json(text, "segments document")
    if not isinstance(doc, dict) or not isinstance(doc.get("tiers"), dict):
        raise ValueError("segments document must be an object with a tiers mapping")
    fps = check_fps(doc.get("fps"), "segments fps")
    tiers: dict[str, list[Segment]] = {}
    for tier, items in doc["tiers"].items():
        if not isinstance(items, list):
            raise ValueError(f"tier {tier!r} must be a list")
        segs = []
        for it in items:
            if not (isinstance(it, dict)
                    and all(isinstance(it.get(k), int) and not isinstance(it.get(k), bool)
                            for k in ("start", "end"))):
                raise ValueError(f"tier {tier!r} entries must have integer start and end")
            segs.append(Segment(it["start"], it["end"]))
        tiers[tier] = sorted(segs)
        _check_sorted_disjoint(tiers[tier])  # before any retiming merges an overlap
    return fps, tiers


def serialize_segments(fps, tiers: dict[str, list[Segment]]) -> str:
    doc = {
        "fps": fps,
        "tiers": {
            tier: [{"start": s.start, "end": s.end} for s in sorted(segs)]
            for tier, segs in tiers.items()
        },
    }
    return json.dumps(doc, separators=(",", ":"), allow_nan=False)


def load_segments(path):
    with open(path, "rb") as f:  # json.loads decodes the bytes, so invalid UTF-8 is malformed
        return parse_segments(f.read())


def save_segments(path, fps, tiers) -> None:
    with open(path, "w", encoding="utf-8") as f:
        f.write(serialize_segments(fps, tiers))
