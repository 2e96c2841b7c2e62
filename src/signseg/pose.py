"""Pose sequence model: parsing, serialization, resampling, normalization, point selection.

A pose sequence is a stack of per-frame 3D keypoints plus per-point confidences.
Confidence 0 marks a missing point; its coordinates are placeholders that every
consumer must ignore.
"""

import codecs
import io
import json
import math
import os
import re
from dataclasses import dataclass
from importlib import resources
from itertools import chain

import numpy as np

from .numutil import check_fps, round_half_away

FORMAT_VERSION = "poseseq-json/1"

# Point-name substrings that mark leg keypoints; matched during normalization.
LEG_MARKERS = ("HIP", "KNEE", "ANKLE", "HEEL", "FOOT_INDEX")
_IS_LEG = re.compile("|".join(map(re.escape, LEG_MARKERS))).search

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

    def point_index(self, component: str, point: str) -> int:
        cols = component_columns(self.components, component)
        try:
            return point_names(self.components).index((component, point), cols.start, cols.stop)
        except ValueError:
            raise ValueError(f"component {component!r} has no point named {point!r}") from None


def point_names(components) -> list[tuple[str, str]]:
    """The (component, point) name of each column, in column order."""
    return [(c.name, p) for c in components for p in c.points]


def component_columns(components, name: str) -> range:
    """The columns of the first component with this name."""
    stop = 0
    for c in components:
        stop += len(c.points)
        if c.name == name:
            return range(stop - len(c.points), stop)
    raise ValueError(f"pose has no component named {name!r}")


def regroup(components, columns) -> tuple[PoseComponent, ...]:
    """The components of the points at these ascending columns: one they leave
    no point of is dropped, one declared with no points stays (as in select_columns)."""
    picked, start, out = set(columns), 0, []
    for c in components:
        points = tuple(p for col, p in enumerate(c.points, start) if col in picked)
        start += len(c.points)
        if points or not c.points:
            out.append(PoseComponent(c.name, points))
    return tuple(out)


def holistic_components() -> tuple[PoseComponent, ...]:
    """Canonical full-body skeleton: 33-point body, 468-point face, two 21-point hands."""
    face = tuple(f"FACE_{i}" for i in range(FACE_POINT_COUNT))
    return (
        PoseComponent("BODY", BODY_POINTS),
        PoseComponent("FACE", face),
        PoseComponent("LEFT_HAND", HAND_POINTS),
        PoseComponent("RIGHT_HAND", HAND_POINTS),
    )


# What _validate_arrays rejects in a pose's values, in the order it checks.
_VALUE_FAULTS = ("pose contains a non-finite coordinate",
                 "pose contains a non-finite confidence",
                 "confidence values must lie in [0, 1]")


def _value_faults(coords, conf) -> list[bool]:
    """Which of _VALUE_FAULTS the values show, each a bool."""
    return [not np.isfinite(coords).all(), not np.isfinite(conf).all(),
            bool(conf.size) and bool(conf.min() < 0 or conf.max() > 1)]


def _check_values(faults) -> None:
    """Raises the first of _VALUE_FAULTS that faults marks."""
    for fault, message in zip(faults, _VALUE_FAULTS):
        if fault:
            raise ValueError(message)


def _validate_arrays(components, coords, conf):
    k = sum(len(c.points) for c in components)
    if coords.ndim != 3 or coords.shape[1:] != (k, 3):
        raise ValueError(
            f"coords shape {coords.shape} does not match {k} declared points"
        )
    if conf.shape != coords.shape[:2]:
        raise ValueError(f"conf shape {conf.shape} does not match coords")
    _check_values(_value_faults(coords, conf))


def _declared(components) -> list[dict]:
    """The components value of a document that declares these components."""
    return [{"name": c.name, "points": list(c.points)} for c in components]


def make_pose(fps, components, coords, conf) -> PoseSequence:
    """Build a validated PoseSequence from arrays; it holds exactly what
    load_pose reads, so save_pose writes a file that load_pose takes."""
    check_fps(fps)
    components = _components(_declared(components))
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


def _first_fault(frames: list, k: int, t: int = 0) -> str:
    """Names the first frame (counted from t) or point that _point_block rejects."""
    for ti, frame in enumerate(frames):
        if not (isinstance(frame, list) and len(frame) == k):
            n = len(frame) if isinstance(frame, list) else "?"
            return f"frame {t + ti} has {n} points, expected {k}"
        if _point_block([frame], k) is not None:
            continue
        for ki, pt in enumerate(frame):
            if _point_block([[pt]], 1) is not None:
                continue
            if isinstance(pt, list) and len(pt) == 3:
                return (f"frame {t + ti} point {ki} has no z axis; "
                        "3D [x, y, z, confidence] points are required")
            return f"frame {t + ti} point {ki} is not an [x, y, z, confidence] quadruple"
    raise AssertionError("_point_block rejected frames that pass every rule")


def _components(raw_components) -> tuple[PoseComponent, ...]:
    """The components a document's components value declares."""
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
    return tuple(components)


@dataclass
class _Frames:
    """A frames array as _scan_frames reads it.

    block is (T, len(columns), 4): the given columns of its k-point frames,
    or all k of them when columns is None; k is None if frame 0 is no list.
    faults are the _value_faults of every value, the dropped columns' too;
    fault names the first frame that breaks a _point_block rule, if any.
    """

    block: np.ndarray
    k: int | None
    columns: np.ndarray | None
    faults: list
    fault: str | None


def _pose_from_doc(doc, columns=None) -> PoseSequence:
    """The pose of a document _scan read, cut to columns (see load_pose).

    Frames that were not cut as they were read are cut here.
    """
    if not isinstance(doc, dict):
        raise ValueError("malformed pose document: top level is not an object")
    version = doc.get("version")
    if version != FORMAT_VERSION:
        raise ValueError(f"unsupported pose format version {version!r}")
    fps = check_fps(doc.get("fps"))
    components = _components(doc.get("components"))
    k = sum(len(c.points) for c in components)

    frames = doc.get("frames")
    if not isinstance(frames, _Frames):
        raise ValueError("frames must be a list")
    block, kept = frames.block, frames.columns
    if frames.k != k:  # the frames came first: frame 0 is the first bad frame, if any
        if len(block) or frames.fault:
            n = "?" if frames.k is None else frames.k
            raise ValueError(f"frame 0 has {n} points, expected {k}")
        block = np.zeros((0, k, 4))
    if frames.fault:
        raise ValueError(frames.fault)
    _check_values(frames.faults)
    if kept is None and columns is not None:  # the frames came first
        kept = columns(components)
        if kept is not None:
            block = block[:, kept]
    if kept is not None:
        components = regroup(components, kept)
    # coords and conf are views into the one (T, K, 4) block
    return PoseSequence(fps, components, block[:, :, :3], block[:, :, 3])


# The scanner follows json.loads token for token: the same decoder for every
# value, json's own whitespace set, the last of duplicate keys wins, and
# nothing but whitespace may follow the top-level value. Its own checks raise
# json's messages; where they differ by Python version, as for a trailing
# comma, they are learned from the running json at import.
_DECODER = json.JSONDecoder()
_SKIP_WS = json.decoder.WHITESPACE.match


def _trailing_comma_rule(doc):
    """json.loads' message for doc, which ends in a comma and a closing
    bracket, and whether json places it at the comma or at the bracket."""
    try:
        json.loads(doc)
    except json.JSONDecodeError as e:
        return e.msg, doc[e.pos] == ","


# closing bracket -> (message, placed at the comma). Python 3.10 to 3.12
# fault the bracket as a missing value or key; 3.13 faults the comma as
# "Illegal trailing comma before end of array" (or object).
_TRAILING_COMMA = {"]": _trailing_comma_rule("[0 ,]"), "}": _trailing_comma_rule('{"a":0 ,}')}

# Frames go to _point_block in runs of at most this many points (one frame
# if a frame has more): 10 frames of a 49-point clip share one numpy call.
# Each run's lists are freed before the next run is decoded, so fewer live
# lists than the cyclic collector's first threshold (700 by default) ever
# accumulate, and the collector does not run during the parse. Runs of
# 32768 points set off about 1100 collections per holistic clip.
_RUN_POINTS = 512
# load_pose reads its file this many bytes at a time (more when one value is
# longer than the text held), so it holds a few hundred KiB of text, not the
# whole document: a minute of holistic pose is about 52 MB. A refill holds
# several chunk-sized copies at once (the file's bytes, their text, the
# joined window), so the chunk bounds what a load holds beside its block:
# 2.1 MB at this size, against 5.2 MB at 1 MiB, on 300 frames of 543 points
# cut to body75's columns.
_CHUNK_CHARS = 1 << 18
# _Window.decode refills before it decodes when less than this much text is
# left unread, so a value cut by the end of a chunk is rare: a failed decode
# builds a JSONDecodeError, whose line count walks the window. A frame of 543
# points is about 35,000 characters.
_REFILL_CHARS = 1 << 16


class _Window:
    """The scanner's view of a document: text, indices into it, and refills.

    A window over a str holds the whole document; one over a file opened "rb",
    the unread part of the chunks read so far, decoded as open(path,
    encoding="utf-8") decodes them. When a skip or a value reaches the end of
    text, _more drops the read part and appends the next chunk, which moves
    every index. start is the offset of text[0] in the document, lines and nl
    count and place the newlines dropped, and length is the document's size.
    """

    def __init__(self, text="", file=None):
        self.text, self.file, self.start, self.lines, self.nl = text, file, 0, 0, -1
        self.length = len(text) if file is None else os.fstat(file.fileno()).st_size
        if file is not None:
            utf8 = codecs.getincrementaldecoder("utf-8")()
            self.decoder = io.IncrementalNewlineDecoder(utf8, translate=True)
            self._more(0)

    def _more(self, i) -> bool:
        """Drops text[:i] and reads at least as much as is left; False at the end.
        Invalid UTF-8 raises the codec's message, placed as a whole read places it."""
        more = ""
        while not more and self.file is not None:
            data = self.file.read(max(_CHUNK_CHARS, len(self.text) - i))
            held = len(self.decoder.getstate()[0])  # bytes of a character cut by a chunk
            try:
                more = self.decoder.decode(data, final=not data)
            except UnicodeDecodeError as e:
                at = self.file.tell() - len(data) - held + e.start
                self.file = None  # the first fault is the one a whole read raises
                bad = (f"byte 0x{e.object[e.start]:02x} in position {at}" if e.end - e.start == 1
                       else f"bytes in position {at}-{at + e.end - e.start - 1}")
                raise ValueError(f"malformed pose document: '{e.encoding}' codec can't decode "
                                 f"{bad}: {e.reason}") from None
            if not data:
                self.file = None
        if not more:
            return False
        nl = self.text.rfind("\n", 0, i)
        if nl >= 0:  # never, on a clip written on one line
            self.lines, self.nl = self.lines + self.text.count("\n", 0, i), self.start + nl
        self.start += i
        self.text = self.text[i:] + more
        return True

    def fault(self, msg, i) -> ValueError:
        """json.loads' error msg at text[i], with its line, column and offset."""
        nl, line = self.text.rfind("\n", 0, i), self.lines + self.text.count("\n", 0, i) + 1
        column = i - nl if nl >= 0 else self.start + i - self.nl
        return ValueError(f"malformed pose document: {msg}: line {line} column {column} "
                          f"(char {self.start + i})")

    def skip(self, i) -> int:
        """The index of the first character at or after i that is no whitespace.

        It is in text unless the document ends in whitespace, so text.startswith
        at the index tests the document.
        """
        i = _SKIP_WS(self.text, i).end()
        while i == len(self.text) and self._more(i):
            i = _SKIP_WS(self.text, 0).end()
        return i

    def past(self, i, char, msg) -> int:
        """The index after char at text[i] and the whitespace after it, or json's error msg."""
        if not self.text.startswith(char, i):
            raise self.fault(msg, i)
        return self.skip(i + 1)

    def comma(self, i, close) -> int:
        """The index after the comma at text[i] and the whitespace after it, or
        json's error for a missing comma or for close right after the comma."""
        if not self.text.startswith(",", i):
            raise self.fault("Expecting ',' delimiter", i)
        msg, at_comma = _TRAILING_COMMA[close]
        j = _SKIP_WS(self.text, i + 1).end()
        # a refill drops the comma, so its fault is placed before one
        fault = self.fault(msg, i) if at_comma and j == len(self.text) else None
        j = self.skip(j)
        if self.text.startswith(close, j):
            raise fault or self.fault(msg, i if at_comma else j)
        return j

    def decode(self, i):
        """The JSON value at text[i] and the index after it.

        With less than _REFILL_CHARS of text left, the window refills first. A
        value is decoded again after a refill if it ends within two characters
        of the end of text, as a number there may go on (2|5, 2.|5, 2e-|5), or
        if it fails where the end of text may have cut it: within a token's
        length of the end (-Infinity is the longest), in a string left open, or
        in an int past Python's digit limit that runs to the end.
        """
        if len(self.text) - i < _REFILL_CHARS and self._more(i):
            i = 0
        while True:
            try:
                value, end = _DECODER.raw_decode(self.text, i)
            except json.JSONDecodeError as e:
                cut = len(self.text) - e.pos < 9 or e.msg.startswith("Unterminated string")
                if not (cut and self._more(i)):
                    raise self.fault(e.msg, e.pos) from None
            except (ValueError, RecursionError) as e:  # deep nesting; an int of too many digits
                cut = isinstance(e, ValueError) and self.text[-1:].isdigit()
                if not (cut and self._more(i)):
                    raise ValueError(f"malformed pose document: {e}") from None
            else:
                if len(self.text) - end > 2 or not self._more(i):
                    return value, end
            i = 0


def _scan_frames(win: _Window, i: int, k=None, columns=None):
    """Decodes the array that opens at text[i] a run of frames at a time.

    Returns (_Frames, the index after the array); a frame has k points,
    frame 0's number if k is not given. The runs go into one block, cut to
    columns if given, sized for frames as long as frame 0's text, that grows
    by half when there are more. From the first run with a frame that breaks
    a _point_block rule, frames are decoded (a later syntax fault raises) but
    not kept.
    """
    block, rows, t, run = np.zeros((0, 0 if columns is None else len(columns), 4)), None, 0, []
    faults, fault = [False] * len(_VALUE_FAULTS), None
    j = win.skip(i + 1)
    last = win.text.startswith("]", j)
    while not last:
        at = win.start + j
        frame, j = win.decode(j)
        if rows is None:  # frame 0
            if k is None and type(frame) is list:
                k = len(frame)
            per_run = max(1, _RUN_POINTS // max(k or 0, 1))
            rows = (win.length - at) // (win.start + j - at) + 1
            block = np.empty((rows + rows // 16, k or 0 if columns is None else len(columns), 4))
        if fault is None:
            run.append(frame)
        j = win.skip(j)
        last = win.text.startswith("]", j)
        if run and (last or len(run) == per_run):
            try:
                points = _point_block(run, k)
                fault = None if points is not None else _first_fault(run, k, t)
            except OverflowError as e:
                fault = f"malformed pose document: {e}"
            run = []
            if fault is None:
                # every value is checked before the unread columns are dropped
                new = _value_faults(points[:, :, :3], points[:, :, 3])
                faults = [a or b for a, b in zip(faults, new)]
                if columns is not None:
                    points = points[:, columns]
                if t + len(points) > len(block):
                    grown = np.empty((max(t + len(points), len(block) * 3 // 2), *block.shape[1:]))
                    grown[:t] = block[:t]
                    block = grown
                block[t:t + len(points)] = points
                t += len(points)
        if not last:
            j = win.comma(j, "]")
    return _Frames(block[:t], k, columns, faults, fault), j + 1


def _cut_plan(raw_components, columns):
    """(k, columns) for _scan_frames from a document's components value, or
    None, to read every column, if they are malformed or columns keeps all."""
    try:
        components = _components(raw_components)
    except ValueError:
        return None
    kept = columns(components)
    if kept is None:
        return None
    return sum(len(c.points) for c in components), np.asarray(kept, dtype=np.intp)


def _scan(win: _Window, columns=None):
    """The document's top-level value, with each top-level frames array scanned.

    A frames array after the components is read cut to columns (see
    load_pose); None if components follow frames cut to earlier ones. Faults
    raise in json.loads' order: invalid UTF-8 anywhere in a file, a BOM, the
    first syntax fault; a frame that breaks a point rule is only recorded.
    """
    try:
        if win.text.startswith("\ufeff"):
            raise win.fault("Unexpected UTF-8 BOM (decode using utf-8-sig)", 0)
        i = win.skip(0)
        if not win.text.startswith("{", i):  # no pose; an array is read an element at a time
            doc, i = _scan_frames(win, i) if win.text.startswith("[", i) else win.decode(i)
        else:
            doc, basis = {}, None  # basis: the components value the frames were cut for
            i = win.skip(i + 1)
            last = win.text.startswith("}", i)
            while not last:
                if not win.text.startswith('"', i):
                    raise win.fault("Expecting property name enclosed in double quotes", i)
                key, i = win.decode(i)
                i = win.past(win.skip(i), ":", "Expecting ':' delimiter")
                if key == "frames" and win.text.startswith("[", i):
                    plan = None
                    if columns is not None and "components" in doc:
                        plan = _cut_plan(doc["components"], columns)
                    basis = doc["components"] if plan else None
                    doc[key], i = _scan_frames(win, i, *(plan or ()))
                else:
                    doc[key], i = win.decode(i)
                i = win.skip(i)
                last = win.text.startswith("}", i)
                if not last:
                    i = win.comma(i, "}")
            i += 1
            if basis is not None and doc["components"] is not basis:
                doc = None
        i = win.skip(i)
        if i != len(win.text):
            raise win.fault("Extra data", i)
    except ValueError:
        while win._more(len(win.text)):  # invalid UTF-8 later in the file comes first
            pass
        raise
    return doc


def parse_pose(text: str) -> PoseSequence:
    """Reads a poseseq-json document with no more than a run of frames as lists;
    each error is the one json.loads(text) and then the pose's checks give."""
    return _pose_from_doc(_scan(_Window(text)))


def serialize_pose(seq: PoseSequence) -> str:
    """Canonical single-line JSON; floats use shortest round-trip decimals.
    Rejects a pose that load_pose would not read back."""
    check_fps(seq.fps)
    components = _declared(seq.components)
    _components(components)
    _validate_arrays(seq.components, seq.coords, seq.conf)
    frames = np.concatenate([seq.coords, seq.conf[:, :, None]], axis=2, dtype=float).tolist()
    doc = {"version": FORMAT_VERSION, "fps": seq.fps, "components": components,
           "frames": frames}
    return json.dumps(doc, separators=(",", ":"), allow_nan=False)


def load_pose(path, columns=None) -> PoseSequence:
    """Reads a poseseq-json file a chunk at a time, as parse_pose reads its text.

    columns, if given, maps the document's components to the ascending
    columns to keep, or to None to keep them all. The pose then holds only
    those points, its components cut to them (a component left with none is
    dropped). When the components come before the frames, only those
    columns are stored as the frames are read; every value is still checked,
    so a document that is no valid pose raises what load_pose(path) raises.

    No error reads the file whole: each is the one parse_pose gives its text,
    or for invalid UTF-8 "malformed pose document: " and the codec's message.
    If components follow frames cut to earlier ones, the file is scanned
    again, streamed, with every column.
    """
    with open(path, "rb") as f:
        doc = _scan(_Window(file=f), columns)
        if doc is None:
            f.seek(0)
            doc = _scan(_Window(file=f))
    return _pose_from_doc(doc, columns)


def save_pose(path, seq: PoseSequence) -> None:
    with open(path, "w", encoding="utf-8") as f:
        f.write(serialize_pose(seq))


def resample_index(seq: PoseSequence, target_fps: float):
    """The input frame of each frame resample_fps outputs, or None at the same rate.
    Raises where a pose with frames would keep none."""
    if isinstance(target_fps, (bool, np.bool_)) or not target_fps > 0:
        raise ValueError("target fps must be positive")
    if seq.fps == target_fps:
        return None
    t = seq.num_frames
    frames = t * target_fps / seq.fps
    if not math.isfinite(frames):
        raise ValueError(f"resampling to {target_fps:g} fps gives a non-finite frame count")
    t_out = round_half_away(frames)
    if t and not t_out:
        raise ValueError(f"resampling {t} frames from {seq.fps:g} to {target_fps:g} fps "
                         "leaves no frames")
    # i * src / target is never negative, so round_half_away is floor(x + 0.5)
    idx = np.floor(np.arange(t_out, dtype=float) * seq.fps / target_fps + 0.5).astype(int)
    return np.clip(idx, 0, t - 1)


def resample_fps(seq: PoseSequence, target_fps: float) -> PoseSequence:
    """Nearest-frame resampling: output frame i is input frame round(i*src/target)."""
    idx = resample_index(seq, target_fps)
    if idx is None:
        return PoseSequence(seq.fps, seq.components, seq.coords.copy(), seq.conf.copy())
    return PoseSequence(target_fps, seq.components, seq.coords[idx].copy(), seq.conf[idx].copy())


def find_point(components, point: str) -> int:
    """Column of the first point with this name, in any component."""
    for c in components:
        if point in c.points:
            return component_columns(components, c.name)[c.points.index(point)]
    raise ValueError(f"pose has no point named {point!r}")


def shoulder_columns(components) -> tuple[int, int]:
    """The columns of the two shoulders that shoulder_stats reads."""
    return find_point(components, "LEFT_SHOULDER"), find_point(components, "RIGHT_SHOULDER")


def shoulder_stats(seq: PoseSequence, frames=slice(None)):
    """(mean_mid, mean_dist) of normalize_pose over seq's frames (an index).

    The mean shoulder distance and midpoint, each frame weighted by the
    product of its two shoulder confidences. Shoulders far enough apart
    overflow to an infinite distance, and that raises, as a zero one does.
    No frames have nothing to move or scale: the statistics are (0, 0, 0), 1.
    """
    li, ri = shoulder_columns(seq.components)
    left = seq.coords[frames, li, :]
    right = seq.coords[frames, ri, :]
    w = seq.conf[frames, li] * seq.conf[frames, ri]
    if not w.size:
        return np.zeros(3), 1.0
    if not (w > 0).any():
        raise ValueError("cannot normalize: shoulders are never tracked")
    with np.errstate(over="ignore", invalid="ignore"):
        dist = np.linalg.norm(left - right, axis=1)
        mean_dist = float((w * dist).sum() / w.sum())
        mid = (left + right) / 2
        mean_mid = (w[:, None] * mid).sum(axis=0) / w.sum()
    if not (0 < mean_dist < math.inf and np.isfinite(mean_mid).all()):
        raise ValueError(f"cannot normalize: mean shoulder distance {mean_dist:g} is not "
                         "positive and finite, or the midpoint is not finite")
    return mean_mid, mean_dist


def drop_legs(components) -> tuple[tuple[PoseComponent, ...], list[int]]:
    """The components normalize_pose keeps, and the columns of their points."""
    keep = [col for col, (_, p) in enumerate(point_names(components)) if not _IS_LEG(p)]
    return regroup(components, keep), keep


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
    """The components select_points returns, and the columns of their points:
    components in the order the selector first names them, points in entry
    order."""
    names = point_names(components)
    column = {}  # (component, point) -> its first column
    for col, name in enumerate(names):
        column.setdefault(name, col)
    by_comp: dict[str, list[int]] = {}
    for comp_name, point in selector.entries:
        cols = component_columns(components, comp_name)
        picked = by_comp.setdefault(comp_name, [])
        if point is None:
            picked.extend(cols)
        elif (comp_name, point) in column:
            picked.append(column[comp_name, point])
        else:
            raise ValueError(
                f"selector {selector.name!r}: component {comp_name!r} has no point {point!r}")
    # a component the selector names that holds no point stays, empty
    return (tuple(PoseComponent(name, tuple(names[col][1] for col in cols))
                  for name, cols in by_comp.items()),
            list(chain.from_iterable(by_comp.values())))


def select_points(seq: PoseSequence, selector: PointSelector) -> PoseSequence:
    """Restrict a sequence to the selector's points, grouped by component."""
    components, order = select_columns(seq.components, selector)
    return PoseSequence(
        seq.fps, components, seq.coords[:, order, :].copy(), seq.conf[:, order].copy()
    )
