"""Pose sequence model: parsing, serialization, resampling, normalization, point selection.

A pose sequence is a stack of per-frame 3D keypoints plus per-point confidences.
Confidence 0 marks a missing point; its coordinates are placeholders that every
consumer must ignore.
"""

import json
import math
import os
from dataclasses import dataclass
from importlib import resources
from itertools import chain

import numpy as np

from .numutil import check_fps, round_half_away

FORMAT_VERSION = "poseseq-json/1"

# Point-name substrings that mark leg keypoints; matched during normalization.
LEG_MARKERS = ("HIP", "KNEE", "ANKLE", "HEEL", "FOOT_INDEX")

BODY_POINTS = (
    "NOSE",
    "LEFT_EYE_INNER", "LEFT_EYE", "LEFT_EYE_OUTER",
    "RIGHT_EYE_INNER", "RIGHT_EYE", "RIGHT_EYE_OUTER",
    "LEFT_EAR", "RIGHT_EAR",
    "MOUTH_LEFT", "MOUTH_RIGHT",
    "LEFT_SHOULDER", "RIGHT_SHOULDER",
    "LEFT_ELBOW", "RIGHT_ELBOW",
    "LEFT_WRIST", "RIGHT_WRIST",
    "LEFT_PINKY", "RIGHT_PINKY",
    "LEFT_INDEX", "RIGHT_INDEX",
    "LEFT_THUMB", "RIGHT_THUMB",
    "LEFT_HIP", "RIGHT_HIP",
    "LEFT_KNEE", "RIGHT_KNEE",
    "LEFT_ANKLE", "RIGHT_ANKLE",
    "LEFT_HEEL", "RIGHT_HEEL",
    "LEFT_FOOT_INDEX", "RIGHT_FOOT_INDEX",
)

HAND_POINTS = (
    "WRIST",
    "T_CMC", "T_MCP", "T_IP", "T_TIP",
    "I_MCP", "I_PIP", "I_DIP", "I_TIP",
    "M_MCP", "M_PIP", "M_DIP", "M_TIP",
    "R_MCP", "R_PIP", "R_DIP", "R_TIP",
    "P_MCP", "P_PIP", "P_DIP", "P_TIP",
)

FACE_POINT_COUNT = 468


@dataclass(frozen=True)
class PoseComponent:
    name: str
    points: tuple[str, ...]


@dataclass
class PoseSequence:
    """fps plus coords (T, K, 3) and conf (T, K); K is the sum of component sizes."""

    fps: float
    components: tuple[PoseComponent, ...]
    coords: np.ndarray
    conf: np.ndarray

    @property
    def num_frames(self) -> int:
        return self.coords.shape[0]

    @property
    def num_points(self) -> int:
        return sum(len(c.points) for c in self.components)

    def component_offset(self, name: str) -> int:
        off = 0
        for c in self.components:
            if c.name == name:
                return off
            off += len(c.points)
        raise ValueError(f"pose has no component named {name!r}")

    def component(self, name: str) -> PoseComponent:
        for c in self.components:
            if c.name == name:
                return c
        raise ValueError(f"pose has no component named {name!r}")

    def point_index(self, component: str, point: str) -> int:
        comp = self.component(component)
        off = self.component_offset(component)
        try:
            return off + comp.points.index(point)
        except ValueError:
            raise ValueError(
                f"component {component!r} has no point named {point!r}"
            ) from None

    def find_point(self, point: str) -> int:
        """Global column index of the first point with this name, any component."""
        off = 0
        for c in self.components:
            if point in c.points:
                return off + c.points.index(point)
            off += len(c.points)
        raise ValueError(f"pose has no point named {point!r}")


def holistic_components() -> tuple[PoseComponent, ...]:
    """Canonical full-body skeleton: 33-point body, 468-point face, two 21-point hands."""
    face = tuple(f"FACE_{i}" for i in range(FACE_POINT_COUNT))
    return (
        PoseComponent("BODY", BODY_POINTS),
        PoseComponent("FACE", face),
        PoseComponent("LEFT_HAND", HAND_POINTS),
        PoseComponent("RIGHT_HAND", HAND_POINTS),
    )


def _validate_arrays(components, coords, conf):
    k = sum(len(c.points) for c in components)
    if coords.ndim != 3 or coords.shape[1:] != (k, 3):
        raise ValueError(
            f"coords shape {coords.shape} does not match {k} declared points"
        )
    if conf.shape != coords.shape[:2]:
        raise ValueError(f"conf shape {conf.shape} does not match coords")
    if not np.isfinite(coords).all():
        raise ValueError("pose contains a non-finite coordinate")
    if not np.isfinite(conf).all():
        raise ValueError("pose contains a non-finite confidence")
    if conf.size and (conf.min() < 0 or conf.max() > 1):
        raise ValueError("confidence values must lie in [0, 1]")


def make_pose(fps, components, coords, conf) -> PoseSequence:
    """Build a validated PoseSequence from arrays."""
    check_fps(fps)
    components = tuple(components)
    coords = np.asarray(coords, dtype=float)
    conf = np.asarray(conf, dtype=float)
    _validate_arrays(components, coords, conf)
    return PoseSequence(fps, components, coords, conf)


def _point_block(frames: list, k: int):
    """The frames as one (T, k, 4) float array, or None if any breaks a rule.

    The rules: every frame is a list of k points and every point a list of
    four JSON numbers; type() keeps bool, str and null out. Each rule is one
    pass over all the frames given, not a loop over points. An int too large
    for a float raises OverflowError.
    """
    if not all(type(f) is list and len(f) == k for f in frames):
        return None
    if len(frames) * k == 0:
        return np.zeros((len(frames), k, 4))
    try:
        if not set(map(type, chain.from_iterable(chain.from_iterable(frames)))) <= {int, float}:
            return None
        block = np.asarray(frames, dtype=float)
    except (TypeError, ValueError):  # a point that is no list; points of mixed lengths
        return None
    return block if block.shape == (len(frames), k, 4) else None


def _first_fault(frames: list, k: int) -> str:
    """Names the first frame or point, in document order, that _point_block rejects."""
    for ti, frame in enumerate(frames):
        if not (isinstance(frame, list) and len(frame) == k):
            n = len(frame) if isinstance(frame, list) else "?"
            return f"frame {ti} has {n} points, expected {k}"
        if _point_block([frame], k) is not None:
            continue
        for ki, pt in enumerate(frame):
            if _point_block([[pt]], 1) is not None:
                continue
            if isinstance(pt, list) and len(pt) == 3:
                return (f"frame {ti} point {ki} has no z axis; "
                        "3D [x, y, z, confidence] points are required")
            return f"frame {ti} point {ki} is not an [x, y, z, confidence] quadruple"
    raise AssertionError("_point_block rejected frames that pass every rule")


def _decode(text: str):
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as e:  # RecursionError: nesting too deep
        raise ValueError(f"malformed pose document: {e}") from None


def _pose_from_doc(doc) -> PoseSequence:
    """The pose of a document from json.loads or _scan.

    _scan hands the frames over as a (T, k, 4) block, k the first frame's
    length, unless a frame breaks a _point_block rule; then as a list.
    """
    if not isinstance(doc, dict):
        raise ValueError("malformed pose document: top level is not an object")
    version = doc.get("version")
    if version != FORMAT_VERSION:
        raise ValueError(f"unsupported pose format version {version!r}")
    fps = check_fps(doc.get("fps"))

    raw_components = doc.get("components")
    if not isinstance(raw_components, list):
        raise ValueError("components must be a list")
    components = []
    seen = set()
    for rc in raw_components:
        if not (isinstance(rc, dict) and isinstance(rc.get("name"), str)
                and isinstance(rc.get("points"), list)
                and all(isinstance(p, str) for p in rc["points"])):
            raise ValueError("component entries must be {name, points} objects")
        if rc["name"] in seen:
            raise ValueError(f"duplicate component name {rc['name']!r}")
        seen.add(rc["name"])
        if len(set(rc["points"])) != len(rc["points"]):
            raise ValueError(f"component {rc['name']!r} has duplicate point names")
        components.append(PoseComponent(rc["name"], tuple(rc["points"])))
    k = sum(len(c.points) for c in components)

    frames = doc.get("frames")
    if isinstance(frames, np.ndarray) and frames.shape[1] == k:
        block = frames
    else:
        if isinstance(frames, np.ndarray):  # no frames, or frame 0 of the wrong length
            frames = frames.tolist()
        if not isinstance(frames, list):
            raise ValueError("frames must be a list")
        try:
            block = _point_block(frames, k)
            if block is None:
                raise ValueError(_first_fault(frames, k))
        except OverflowError as e:
            raise ValueError(f"malformed pose document: {e}") from None
    # coords and conf are views into the one (T, K, 4) block
    coords, conf = block[:, :, :3], block[:, :, 3]
    _validate_arrays(tuple(components), coords, conf)
    return PoseSequence(fps, tuple(components), coords, conf)


# The scanner follows json.loads token for token: the same decoder for every
# value, json's own whitespace set, the last of duplicate keys wins, and
# nothing but whitespace may follow the top-level object.
_DECODER = json.JSONDecoder()
_SKIP_WS = json.decoder.WHITESPACE.match
# Frames go to _point_block in runs of at most this many points (one frame
# if a frame has more): 10 frames of a 49-point clip share one numpy call.
# Each run's lists are freed before the next run is decoded, so fewer live
# lists than the cyclic collector's first threshold (700 by default) ever
# accumulate, and the collector does not run during the parse. Runs of
# 32768 points set off about 1100 collections per holistic clip.
_RUN_POINTS = 512
# load_pose reads its file this many characters at a time (more when one
# value is longer than the text held), so it holds a few MiB of text, not
# the whole document: a minute of holistic pose is about 52 MB.
_CHUNK_CHARS = 1 << 20
# _Window.decode refills before it decodes when less than this much text is
# left unread, so a value cut by the end of a chunk is rare: a failed decode
# builds a JSONDecodeError, whose line count walks the window. A frame of 543
# points is about 35,000 characters.
_REFILL_CHARS = 1 << 16


class _Unreadable(Exception):
    """A chunk of the file is no valid UTF-8.

    No ValueError, so that no scanner handler takes it for a syntax error;
    load_pose then reads the file whole, and the error names the offset.
    """


class _Window:
    """The scanner's view of a document: text, indices into it, and refills.

    A window over a str holds the whole document. A window over a file holds
    what has not been read yet of the chunks read so far: when a skip or a
    value reaches the end of text, _more drops the read part and appends the
    next chunk, which moves every index. start is the offset of text[0] in
    the document; length is the document's size, in bytes for a file (its
    length in characters while it is ASCII).
    """

    def __init__(self, text="", file=None):
        self.text, self.file, self.start = text, file, 0
        self.length = len(text) if file is None else os.fstat(file.fileno()).st_size

    def _more(self, i) -> bool:
        """Drops text[:i] and reads at least as much as is left; False at the end."""
        try:
            more = self.file.read(max(_CHUNK_CHARS, len(self.text) - i)) if self.file else ""
        except UnicodeDecodeError:
            self.file = None
            raise _Unreadable from None
        if not more:
            self.file = None
            return False
        self.start += i
        self.text = self.text[i:] + more
        return True

    def skip(self, i) -> int:
        """The index of the first character at or after i that is no whitespace.

        It is in text unless the document ends in whitespace, so text.startswith
        at the index tests the document.
        """
        i = _SKIP_WS(self.text, i).end()
        while i == len(self.text) and self._more(i):
            i = _SKIP_WS(self.text, 0).end()
        return i

    def past(self, i, char) -> int:
        """The index after char at text[i] and the whitespace that follows it."""
        if not self.text.startswith(char, i):
            raise ValueError(f"expected {char!r}")
        return self.skip(i + 1)

    def decode(self, i):
        """The JSON value at text[i] and the index after it.

        With less than _REFILL_CHARS of text left, the window refills first. A
        value that still fails or ends within two characters of the end of
        text is decoded again after a refill: a number there may go on (2|5,
        2.|5, 2e-|5), and anything else may be cut.
        """
        if len(self.text) - i < _REFILL_CHARS and self._more(i):
            i = 0
        while True:
            try:
                value, end = _DECODER.raw_decode(self.text, i)
                if len(self.text) - end > 2 or not self._more(i):
                    return value, end
            except (ValueError, RecursionError):
                if not self._more(i):
                    raise
            i = 0


def _scan_frames(win: _Window, i: int):
    """Decodes the frames array that opens at text[i] a run of frames at a time.

    Returns (frames, end index): a (T, k, 4) block with k the first frame's
    length (0 if there are none), or, if a frame breaks a _point_block rule,
    the array as json.loads decodes it. The runs go into one block, sized
    for a document of frames as long as the first, that grows by half when a
    document has more. A syntax error raises ValueError, and so does a frame
    that breaks a rule once the start of the array has left the window.
    """
    at = win.start + i
    block, t, run = None, 0, []
    try:
        j = win.past(i, "[")
        last = win.text.startswith("]", j)
        while not last:
            if block is None:
                first = win.start + j
            frame, j = win.decode(j)
            if block is None:
                k = len(frame) if type(frame) is list else 0
                per_run = max(1, _RUN_POINTS // max(k, 1))
                rows = (win.length - first) // (win.start + j - first) + 1
                block = np.empty((rows + rows // 16, k, 4))
            run.append(frame)
            j = win.skip(j)
            last = not win.text.startswith(",", j)
            if last or len(run) == per_run:
                points = _point_block(run, k)
                if points is None:
                    raise ValueError("a frame breaks a point rule")
                if t + len(points) > len(block):
                    grown = np.empty((max(t + len(points), len(block) * 3 // 2), k, 4))
                    grown[:t] = block[:t]
                    block = grown
                block[t:t + len(points)] = points
                t += len(points)
                run = []
            if not last:
                j = win.past(j, ",")
        j = win.past(j, "]")
    except (ValueError, OverflowError):  # a syntax error raises again here
        if at < win.start:
            raise ValueError("the frames array has left the window") from None
        return win.decode(at - win.start)
    if block is None:
        return np.zeros((0, 0, 4)), j
    return block[:t], j


def _scan(win: _Window) -> dict:
    """The top-level members of a pose document, each frames array scanned.

    Raises ValueError or RecursionError where json.loads does.
    """
    i = win.past(win.skip(0), "{")
    doc = {}
    last = win.text.startswith("}", i)
    while not last:
        if not win.text.startswith('"', i):
            raise ValueError("expected a key")
        key, i = win.decode(i)
        i = win.past(win.skip(i), ":")
        if key == "frames" and win.text.startswith("[", i):
            doc[key], i = _scan_frames(win, i)
        else:
            doc[key], i = win.decode(i)
        i = win.skip(i)
        last = not win.text.startswith(",", i)
        if not last:
            i = win.past(i, ",")
    if win.past(i, "}") != len(win.text):
        raise ValueError("extra data")
    return doc


def parse_pose(text: str) -> PoseSequence:
    """Reads a poseseq-json document with no more than a run of frames as lists.

    Only a document that is no valid JSON is decoded whole, by json.loads,
    so that the error names the fault and its offset.
    """
    try:
        doc = _scan(_Window(text))
    except (ValueError, RecursionError):
        doc = _decode(text)
    return _pose_from_doc(doc)


def serialize_pose(seq: PoseSequence) -> str:
    """Canonical single-line JSON; floats use shortest round-trip decimals."""
    _validate_arrays(seq.components, seq.coords, seq.conf)
    check_fps(seq.fps)
    frames = np.concatenate([seq.coords, seq.conf[:, :, None]], axis=2, dtype=float).tolist()
    doc = {
        "version": FORMAT_VERSION,
        "fps": seq.fps,
        "components": [{"name": c.name, "points": list(c.points)} for c in seq.components],
        "frames": frames,
    }
    return json.dumps(doc, separators=(",", ":"), allow_nan=False)


def load_pose(path) -> PoseSequence:
    """Reads a poseseq-json file a chunk at a time, as parse_pose reads its text.

    If the streamed scan fails for any reason, the file is read whole and
    decoded by json.loads, as parse_pose decodes a text its scan rejects, so
    that every error is the one parse_pose gives (or the UnicodeDecodeError
    of reading the whole file).
    """
    try:
        with open(path, encoding="utf-8") as f:
            doc = _scan(_Window(file=f))
    except (ValueError, RecursionError, _Unreadable):
        doc = None
    if doc is None:  # out of the handler, so the failed window is freed first
        with open(path, encoding="utf-8") as f:
            doc = _decode(f.read())
    return _pose_from_doc(doc)


def save_pose(path, seq: PoseSequence) -> None:
    with open(path, "w", encoding="utf-8") as f:
        f.write(serialize_pose(seq))


def resample_index(seq: PoseSequence, target_fps: float):
    """The input frame of each frame resample_fps outputs, or None at the same rate."""
    if not target_fps > 0:
        raise ValueError("target fps must be positive")
    if seq.fps == target_fps:
        return None
    t = seq.num_frames
    frames = t * target_fps / seq.fps
    if not math.isfinite(frames):
        raise ValueError(f"resampling to {target_fps:g} fps gives a non-finite frame count")
    t_out = round_half_away(frames)
    # i * src / target is never negative, so round_half_away is floor(x + 0.5)
    idx = np.floor(np.arange(t_out, dtype=float) * seq.fps / target_fps + 0.5).astype(int)
    return np.clip(idx, 0, t - 1)


def resample_fps(seq: PoseSequence, target_fps: float) -> PoseSequence:
    """Nearest-frame resampling: output frame i is input frame round(i*src/target)."""
    idx = resample_index(seq, target_fps)
    if idx is None:
        return PoseSequence(seq.fps, seq.components, seq.coords.copy(), seq.conf.copy())
    return PoseSequence(target_fps, seq.components, seq.coords[idx].copy(), seq.conf[idx].copy())


def shoulder_stats(seq: PoseSequence, frames=slice(None)):
    """(mean_mid, mean_dist) of normalize_pose over seq's frames (an index).

    The mean shoulder distance and midpoint, each frame weighted by the
    product of its two shoulder confidences.
    """
    li = seq.find_point("LEFT_SHOULDER")
    ri = seq.find_point("RIGHT_SHOULDER")
    left = seq.coords[frames, li, :]
    right = seq.coords[frames, ri, :]
    w = seq.conf[frames, li] * seq.conf[frames, ri]
    if not (w > 0).any():
        raise ValueError("cannot normalize: shoulders are never tracked")
    dist = np.linalg.norm(left - right, axis=1)
    mean_dist = float((w * dist).sum() / w.sum())
    if mean_dist == 0:
        raise ValueError("cannot normalize: mean shoulder distance is zero")
    mid = (left + right) / 2
    mean_mid = (w[:, None] * mid).sum(axis=0) / w.sum()
    return mean_mid, mean_dist


def drop_legs(components) -> tuple[tuple[PoseComponent, ...], list[int]]:
    """The components normalize_pose keeps, and the columns of their points."""
    keep = []
    kept = []
    off = 0
    for c in components:
        kept_points = []
        for j, p in enumerate(c.points):
            if any(m in p for m in LEG_MARKERS):
                continue
            kept_points.append(p)
            keep.append(off + j)
        off += len(c.points)
        if kept_points:
            kept.append(PoseComponent(c.name, tuple(kept_points)))
    return tuple(kept), keep


def normalize_pose(seq: PoseSequence) -> PoseSequence:
    """Scale and center on the shoulders, drop leg points, zero missing points.

    The uniform scale makes the confidence-weighted mean shoulder distance 1;
    the translation puts the weighted mean shoulder midpoint at the origin.
    Only frames where both shoulders are tracked contribute to the statistics.
    """
    mean_mid, mean_dist = shoulder_stats(seq)
    coords = (seq.coords - mean_mid) / mean_dist
    conf = seq.conf.copy()
    components, keep = drop_legs(seq.components)
    coords = coords[:, keep, :]
    conf = conf[:, keep]
    coords[conf == 0] = 0.0
    return PoseSequence(seq.fps, components, coords, conf)


# The names named_selector knows.
SELECTORS = ("body75", "face-contour-128")


@dataclass(frozen=True)
class PointSelector:
    """Ordered (component, point) entries; point None selects the whole component."""

    name: str
    entries: tuple[tuple[str, str | None], ...]


def _face_contour_entries() -> tuple[tuple[str, str], ...]:
    # The contour membership is estimator specific, so it ships as data, not code.
    raw = resources.files("signseg.data").joinpath("face_contours.json").read_text()
    doc = json.loads(raw)
    comp = doc["component"]
    return tuple((comp, f"{comp}_{i}") for i in doc["indices"])


def check_selector(name) -> None:
    if name not in SELECTORS:
        raise ValueError(f"unknown selector {name!r}; known: {', '.join(SELECTORS)}")


def named_selector(name: str) -> PointSelector:
    check_selector(name)
    if name == "body75":
        return PointSelector("body75", (("BODY", None), ("LEFT_HAND", None), ("RIGHT_HAND", None)))
    return PointSelector("face-contour-128", _face_contour_entries())


def select_columns(components, selector: PointSelector):
    """The components select_points returns, and the columns of their points."""
    placed = {}  # name -> (offset, component), the first of a name as in PoseSequence
    off = 0
    for c in components:
        placed.setdefault(c.name, (off, c))
        off += len(c.points)
    by_comp: dict[str, list[int]] = {}
    for comp_name, point in selector.entries:
        if comp_name not in placed:
            raise ValueError(f"pose has no component named {comp_name!r}")
        off, comp = placed[comp_name]
        cols = by_comp.setdefault(comp_name, [])
        if point is None:
            cols.extend(range(off, off + len(comp.points)))
        else:
            try:
                j = comp.points.index(point)
            except ValueError:
                raise ValueError(
                    f"selector {selector.name!r}: component {comp_name!r} has no point {point!r}"
                ) from None
            cols.append(off + j)
    selected = []
    order: list[int] = []
    all_points = [p for c in components for p in c.points]
    for comp_name, cols in by_comp.items():
        selected.append(PoseComponent(comp_name, tuple(all_points[i] for i in cols)))
        order.extend(cols)
    return tuple(selected), order


def select_points(seq: PoseSequence, selector: PointSelector) -> PoseSequence:
    """Restrict a sequence to the selector's points, grouped by component."""
    components, order = select_columns(seq.components, selector)
    return PoseSequence(
        seq.fps, components, seq.coords[:, order, :].copy(), seq.conf[:, order].copy()
    )
