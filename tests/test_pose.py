import gc
import itertools
import json
import random
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from signseg import pose
from signseg.pipeline import PipelineOptions, prepare_features, prepare_pose
from signseg.numutil import check_fps, round_half_away
from signseg.pose import (
    BODY_POINTS, FACE_POINT_COUNT, HAND_POINTS, SELECTORS, PoseComponent,
    holistic_components, make_pose, named_selector, normalize_pose, parse_pose,
    resample_fps, select_points, serialize_pose,
)
from signseg.synthetic import motion_pose


def small_doc(fps=50, frames=10, points=2):
    names = [f"P{i}" for i in range(points)]
    return {
        "version": "poseseq-json/1",
        "fps": fps,
        "components": [{"name": "BODY", "points": names}],
        "frames": [[[float(t), float(k), 0.5, 1.0] for k in range(points)]
                   for t in range(frames)],
    }


def random_pose(rng, max_frames=6):
    comps = []
    sizes = []
    for ci in range(rng.integers(1, 4)):
        size = int(rng.integers(1, 5))
        comps.append(PoseComponent(f"C{ci}", tuple(f"P{ci}_{j}" for j in range(size))))
        sizes.append(size)
    t = int(rng.integers(0, max_frames))
    k = sum(sizes)
    coords = rng.normal(size=(t, k, 3))
    conf = rng.random(size=(t, k))
    conf[rng.random(size=conf.shape) < 0.2] = 0.0
    return make_pose(float(rng.integers(1, 60)), comps, coords, conf)


def test_header_echo():
    seq = parse_pose(json.dumps(small_doc()))
    assert seq.num_frames == 10
    assert seq.num_points == 2
    assert seq.fps == 50


def test_zero_frames_ok():
    seq = parse_pose(json.dumps(small_doc(frames=0)))
    assert seq.num_frames == 0
    assert seq.coords.shape == (0, 2, 3)


def test_parse_rejects_2d_points():
    doc = small_doc(frames=1)
    doc["frames"][0] = [[1.0, 2.0, 0.9] for _ in range(2)]
    with pytest.raises(ValueError, match="z axis"):
        parse_pose(json.dumps(doc))


BAD_DOCUMENTS = [
    (lambda d: d.update(fps=0), "fps"),
    (lambda d: d.update(fps=-25), "fps"),
    (lambda d: d.update(fps=float("inf")), "fps"),
    (lambda d: d.update(fps=10**400), "fps"),
    (lambda d: d.update(version="poseseq-json/2"), "version"),
    (lambda d: d.pop("components"), "components"),
    (lambda d: d["frames"][0].pop(), "points"),
]


@pytest.mark.parametrize("mutate, match", BAD_DOCUMENTS)
def test_parse_rejects_bad_documents(mutate, match):
    doc = small_doc(frames=2)
    mutate(doc)
    with pytest.raises(ValueError, match=match):
        parse_pose(json.dumps(doc))


def _set_value(frame, point, index, value):
    def mutate(d):
        d["frames"][frame][point][index] = value
    return mutate


def _set_point(frame, point, value):
    def mutate(d):
        d["frames"][frame][point] = value
    return mutate


def _set_frame(frame, value):
    def mutate(d):
        d["frames"][frame] = value
    return mutate


def _both(first, second):
    def mutate(d):
        first(d)
        second(d)
    return mutate


QUAD = "is not an [x, y, z, confidence] quadruple"


BAD_POINTS = [
    (_set_value(1, 0, 2, True), f"frame 1 point 0 {QUAD}"),
    (_set_value(2, 1, 3, False), f"frame 2 point 1 {QUAD}"),
    (_set_value(0, 1, 0, "0.5"), f"frame 0 point 1 {QUAD}"),
    (_set_value(4, 0, 1, None), f"frame 4 point 0 {QUAD}"),
    (_set_point(3, 1, [0.0, 1.0, 2.0, 1.0, 0.0]), f"frame 3 point 1 {QUAD}"),
    (_set_point(2, 0, 0.5), f"frame 2 point 0 {QUAD}"),
    (_set_point(1, 1, {"x": 0.5}), f"frame 1 point 1 {QUAD}"),
    (_set_point(4, 1, [0.0, 1.0, 2.0]), "frame 4 point 1 has no z axis"),
    (_set_frame(2, {"points": []}), "frame 2 has ? points, expected 2"),
    (_set_frame(3, [[0.0, 1.0, 2.0, 1.0]]), "frame 3 has 1 points, expected 2"),
    # two faults: the earlier one in document order is reported
    (_both(_set_frame(3, []), _set_value(1, 1, 0, True)), f"frame 1 point 1 {QUAD}"),
    (_both(_set_value(2, 1, 0, None), _set_point(2, 0, [0.0])), f"frame 2 point 0 {QUAD}"),
]


@pytest.mark.parametrize("mutate, message", BAD_POINTS)
def test_parse_names_first_bad_frame_and_point(mutate, message):
    doc = small_doc(frames=5)
    mutate(doc)
    with pytest.raises(ValueError) as err:
        parse_pose(json.dumps(doc))
    assert str(err.value).startswith(message)


@pytest.mark.parametrize("frames_text", [
    "[[[1" + "0" * 400 + ", 0.0, 0.0, 1.0]]]",  # an int too large for a float
    "[" * 100_000 + "]" * 100_000,  # nesting too deep for the decoder
], ids=["int-too-large", "nested-too-deep"])
def test_parse_rejects_unconvertible_documents(frames_text):
    text = ('{"version": "poseseq-json/1", "fps": 25, '
            '"components": [{"name": "BODY", "points": ["NOSE"]}], "frames": ' + frames_text + "}")
    with pytest.raises(ValueError, match="malformed pose document"):
        parse_pose(text)


def test_parse_accepts_integer_values_bit_equal():
    doc = small_doc(frames=2)
    doc["frames"][1][0] = [3, -2**60, 2**70 + 1, 1]
    seq = parse_pose(json.dumps(doc))
    np.testing.assert_array_equal(seq.coords[1, 0], [3.0, float(-2**60), float(2**70 + 1)])
    assert seq.conf[1, 0] == 1.0


# Scalars that a pose parser must handle: ints past the float and int64
# ranges, JSON's bool, string and null, and the non-finite floats. Hypothesis
# favours early entries, so the likeliest faults come first.
_scalars = st.sampled_from([10**400, True, None, "0.5", float("nan"), -2**64, 2**63, 1e308,
                            float("inf"), -0.0, False, "", 1, 2.0])
_json_values = st.recursive(
    _scalars | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=5) | st.dictionaries(st.text(max_size=4), inner,
                                                                 max_size=4),
    max_leaves=20,
)


def _parse_returns_or_rejects(text):
    try:
        seq = parse_pose(text)
    except ValueError:
        return
    assert seq.coords.shape == (seq.num_frames, seq.num_points, 3)
    assert seq.conf.shape == (seq.num_frames, seq.num_points)


@settings(max_examples=200, deadline=None)
@given(_json_values)
def test_fuzz_parse_arbitrary_json(value):
    _parse_returns_or_rejects(json.dumps(value))


def _paths(node, prefix=()):
    for key, child in (node.items() if isinstance(node, dict) else enumerate(node)):
        yield prefix + (key,)
        if isinstance(child, (dict, list)):
            yield from _paths(child, prefix + (key,))


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_fuzz_parse_mutated_documents(data):
    sizes = st.sampled_from([2, 0, 1, 3])
    doc = small_doc(frames=data.draw(sizes), points=data.draw(sizes))
    for _ in range(data.draw(st.integers(1, 3))):
        # replace, insert or delete mostly an entry under "frames", deepest
        # first since hypothesis favours early entries, else a top-level field
        frames = doc.get("frames")
        if isinstance(frames, (list, dict)) and frames and data.draw(st.integers(0, 7)) < 7:
            paths = sorted(_paths(frames, ("frames",)), key=len, reverse=True)
        else:
            paths = [(name,) for name in doc]
        if not paths:
            break
        *parents, key = data.draw(st.sampled_from(paths))
        node = doc
        for step in parents:
            node = node[step]
        op = data.draw(st.sampled_from(["replace", "insert", "delete"]))
        value = data.draw(_scalars | _json_values)
        if op == "replace":
            node[key] = value
        elif op == "insert" and isinstance(node, list):
            node.insert(key, value)
        else:
            del node[key]
    text = json.dumps(doc)
    if data.draw(st.integers(0, 3)) == 3:
        cut = data.draw(st.integers(0, len(text)))
        text = text[:cut] + data.draw(st.text(max_size=3)) + text[cut:]
    _parse_returns_or_rejects(text)


def whole_document_reader(text):
    """The reader that json.loads whole documents, kept as the scanner's oracle."""
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as e:
        raise ValueError(f"malformed pose document: {e}") from None
    if not isinstance(doc, dict):
        raise ValueError("malformed pose document: top level is not an object")
    version = doc.get("version")
    if version != pose.FORMAT_VERSION:
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
    if not isinstance(frames, list):
        raise ValueError("frames must be a list")
    try:
        block = pose._point_block(frames, k)
        if block is None:
            raise ValueError(pose._first_fault(frames, k))
    except OverflowError as e:
        raise ValueError(f"malformed pose document: {e}") from None
    coords, conf = block[:, :, :3], block[:, :, 3]
    pose._validate_arrays(tuple(components), coords, conf)
    return pose.PoseSequence(fps, tuple(components), coords, conf)


def outcome(read, text):
    """What a reader makes of a text: every bit of the pose, or the error message."""
    try:
        seq = read(text)
    except ValueError as e:
        return "rejects", str(e)
    return ("reads", type(seq.fps), seq.fps, seq.components,
            [(a.dtype.str, a.shape, a.strides, a.tobytes()) for a in (seq.coords, seq.conf)])


def read_whole_file(path):
    """The file read whole, as load_pose read files before it streamed them."""
    try:
        with open(path, encoding="utf-8") as f:
            text = f.read()
    except UnicodeDecodeError as e:
        raise ValueError(f"malformed pose document: {e}") from None
    return whole_document_reader(text)


def assert_reads_like_whole_document_reader(source):
    """source: a document's text, which parse_pose reads, or a file's path for load_pose."""
    if isinstance(source, str):
        want = outcome(whole_document_reader, source)
        assert outcome(parse_pose, source) == want
        if want[0] == "reads":  # a valid document never leaves the scanner's block path
            assert isinstance(pose._scan(pose._Window(source))["frames"], pose._Frames)
        return
    want = outcome(read_whole_file, source)
    assert outcome(pose.load_pose, source) == want
    if want[0] == "reads":  # nor is a valid file read whole
        with open(source, "rb") as f:
            assert isinstance(pose._scan(pose._Window(file=f))["frames"], pose._Frames)
    assert_cut_load_reads_like_the_full_load(source, every_other_column)


def every_other_column(components):
    """A column set for load_pose: every other point, from the second."""
    return list(range(1, sum(len(c.points) for c in components), 2))


def cut_after_full_load(path, columns):
    """load_pose(path), then cut to columns: the oracle of a column-set load."""
    seq = pose.load_pose(path)
    kept = columns(seq.components)
    if kept is None:
        return seq
    named = [(c.name, p) for c in seq.components for p in c.points]
    components = tuple(
        PoseComponent(name, tuple(p for _, p in group))
        for name, group in itertools.groupby((named[i] for i in kept), key=lambda n: n[0]))
    return pose.PoseSequence(seq.fps, components, seq.coords[:, kept], seq.conf[:, kept])


def values(read, *args):
    """What a reader makes of its input: the pose's values, or the error message."""
    try:
        seq = read(*args)
    except ValueError as e:
        return "rejects", str(e)
    return ("reads", type(seq.fps), seq.fps, seq.components,
            [(a.dtype.str, a.shape, np.ascontiguousarray(a).tobytes())
             for a in (seq.coords, seq.conf)])


def assert_cut_load_reads_like_the_full_load(path, columns):
    assert values(pose.load_pose, path, columns) == values(cut_after_full_load, path, columns)


class Members(list):
    """A JSON object as (key, value) pairs, so that keys repeat and keep their order."""


class Token(str):
    """A JSON number or constant written as it is, such as -0 or Infinity."""


def render(value, ws):
    """JSON text of value with ws() between every pair of tokens."""
    if isinstance(value, Members):
        inner = ",".join(f"{ws()}{json.dumps(k)}{ws()}:{ws()}{render(v, ws)}{ws()}"
                         for k, v in value)
        return "{" + (inner or ws()) + "}"
    if isinstance(value, list):
        return "[" + (",".join(f"{ws()}{render(v, ws)}{ws()}" for v in value) or ws()) + "]"
    return value if isinstance(value, Token) else json.dumps(value)


_ODD_VALUES = [Token("-0"), Token("-0.0"), Token("NaN"), Token("Infinity"), Token("-Infinity"),
               Token("1" + "0" * 400), Token("-1" + "0" * 400), Token("1e400"), Token("1E-400"),
               0, 1, True, None, "0.5", [], {}]


def _mutate_frames(data, frames, k):
    """One odd value, point length, frame length or frame, at a drawn place."""
    ti = data.draw(st.integers(0, len(frames) - 1))
    frame = frames[ti]
    op = data.draw(st.sampled_from(["value", "point", "frame", "replace"]))
    if op == "replace" or not (isinstance(frame, list) and frame):
        frames[ti] = data.draw(st.sampled_from([[], {}, 3, None, [[0.5] * 4] * (k + 1)]))
    elif op == "frame":
        if data.draw(st.booleans()):
            frame.pop()
        else:
            frame.append([0.5] * 4)
    else:
        point = frame[data.draw(st.integers(0, len(frame) - 1))]
        if op == "value":
            at = data.draw(st.integers(0, len(point) - 1))
            point[at] = data.draw(st.sampled_from(_ODD_VALUES))
        elif data.draw(st.booleans()):
            point.pop()
        else:
            point.append(0.5)


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_scanner_matches_whole_document_reader(data):
    draw = data.draw
    t, k = draw(st.integers(0, 4)), draw(st.integers(0, 3))
    frames = [[[draw(st.floats(0, 1)) for _ in range(4)] for _ in range(k)] for _ in range(t)]
    for _ in range(draw(st.integers(0, 2)) if frames else 0):
        _mutate_frames(data, frames, k)
    names = [f"P{i}" for i in range(k)]
    cut = draw(st.integers(0, k))
    components = [Members([("name", "BODY"), ("points", names[:cut])])]
    if cut < k or draw(st.booleans()):
        components.append(Members([("name", "HAND"), ("points", names[cut:])]))
    if draw(st.booleans()):  # only a top-level frames key holds the frames
        components[0].append(("frames", [[[0.5, 0.5, 0.5, 1.0]] * (k + 1)]))
    members = [("version", draw(st.sampled_from([pose.FORMAT_VERSION] * 7 + ["poseseq-json/0"]))),
               ("fps", draw(st.sampled_from([25, 12.5] * 3 + [0]))),
               ("components", components), ("frames", frames)]
    if draw(st.booleans()):  # another frames key, valid or not; the last one counts
        other = draw(st.sampled_from([[[[0.25] * 4] * k] * 2, [[[0.25] * 4] * (k + 1)],
                                      [[[Token("1" + "0" * 400)] * 4] * k], [], 7, None]))
        members.append(("frames", other))
    if draw(st.booleans()):
        members.append(("extra", draw(_json_values)))
    members = draw(st.permutations(members))

    spaces = random.Random(draw(st.integers(0, 2**32)))
    if draw(st.booleans()):
        def ws():
            return "".join(spaces.choice(" \t\n\r") for _ in range(spaces.randint(0, 2)))
    else:
        def ws():
            return ""
    text = ws() + render(Members(members), ws) + ws()
    text = draw(st.sampled_from([""] * 7 + ["\ufeff"])) + text
    text += draw(st.sampled_from([""] * 7 + ["x", "{}", ",", "]", "0", " }", "\x00"]))
    if draw(st.sampled_from([False] * 3 + [True])):  # a character put in, taken out or both
        at = draw(st.integers(0, len(text)))
        put = draw(st.sampled_from(["", ",", ":", "[", "]", "{", "}", '"', "0", "-", "e"]))
        text = text[:at] + put + text[at + draw(st.integers(0, 1)):]
    run_points = pose._RUN_POINTS
    pose._RUN_POINTS = draw(st.sampled_from([run_points, 1, 3, 8]))  # runs that split frames
    try:
        assert_reads_like_whole_document_reader(text)
    finally:
        pose._RUN_POINTS = run_points


def test_scanner_matches_whole_document_reader_on_every_prefix():
    spaced = Members([("frames", [[[0.5, Token("-0"), 1, 1.0], [Token("2E-1"), 0.0, 3, 0.5]]]),
                      ("fps", 25), ("version", pose.FORMAT_VERSION),
                      ("components", [Members([("name", "BODY"), ("points", ["A", "B"])])])])
    texts = [json.dumps(small_doc(frames=2)), render(spaced, lambda: " \n"), ""]
    for text in texts:
        assert outcome(parse_pose, text)[0] == ("reads" if text else "rejects")
        for cut in range(len(text) + 1):
            assert_reads_like_whole_document_reader(text[:cut])


@pytest.mark.parametrize("old, new", [
    ("]]]}", "]],]}"),  # a comma after the last frame
    ("]]]}", "]]],}"),  # a comma after the last member
    ("]], [[", "]],, [["),  # two commas between frames
    ('"frames": [', '"frames": [,'),  # a comma before the first frame
    ("0.5, 1.0]", "0.5, 1.0,]"),  # a comma after the last value of a point
    ('"fps": 50', '"fps" 50'),  # no colon
    ('{"version"', '{,"version"'),  # a comma before the first member
    ("]]]}", "]]]"),  # an object left open
])
def test_scanner_matches_whole_document_reader_on_broken_syntax(old, new):
    text = json.dumps(small_doc(frames=3))
    assert old in text
    assert_reads_like_whole_document_reader(text.replace(old, new, 1))


@pytest.mark.parametrize("chunk", [1, 2, 7, 64])
@pytest.mark.parametrize("container, new", [
    ("array", "]],\n" + " " * 200 + "]}"),  # a comma after the last frame
    ("object", "]]],\n" + " " * 200 + "}"),  # a comma after the last member
], ids=["array", "object"])
def test_trailing_comma_faults_follow_the_learned_rule(tmp_path, monkeypatch, chunk, container,
                                                       new):
    # with no refill margin, the whitespace after the comma outruns the
    # window, and a refill drops the comma
    monkeypatch.setattr(pose, "_CHUNK_CHARS", chunk)
    monkeypatch.setattr(pose, "_REFILL_CHARS", 0)
    text = json.dumps(small_doc(frames=3)).replace("]]]}", new, 1)
    path = tmp_path / "clip.pose.json"
    path.write_text(text, encoding="utf-8")
    assert_reads_like_whole_document_reader(path)
    # Python 3.13's json places the fault at the comma, in its own words
    monkeypatch.setattr(pose, "_TRAILING_COMMA", {
        "]": ("Illegal trailing comma before end of array", True),
        "}": ("Illegal trailing comma before end of object", True)})
    comma = text.rindex(",")
    want = (f"malformed pose document: Illegal trailing comma before end of {container}: "
            f"line 1 column {comma + 1} (char {comma})")
    for read, source in ((parse_pose, text), (pose.load_pose, path)):
        with pytest.raises(ValueError) as e:
            read(source)
        assert str(e.value) == want


def _names_doc(names, frames=2):
    """A document whose points carry these names, as UTF-8 bytes."""
    doc = small_doc(frames=frames, points=len(names))
    doc["components"][0]["points"] = names
    return json.dumps(doc, ensure_ascii=False).encode("utf-8")


def _at_byte(data, offset, at):
    """data with leading spaces, so that its byte at offset lands at byte at."""
    return b" " * (at - offset) + data


_NAMED = _names_doc(["\u00c4rm", "\U0001f44b\u00e9", "\u540d\u524d"])
_SPACED = json.dumps(small_doc(frames=3), indent=1)
# 8192 bytes is the reader's buffer: a character or a fault that straddles it
_BUFFER = 8192
_STREAMED_FILES = {
    "crlf": _SPACED.replace("\n", "\r\n").encode(),
    "lone-cr": _SPACED.replace("\n", "\r").encode(),
    "cr-then-lf-apart": _SPACED.replace("\n", "\r \n").encode() + b"\r",
    "bom": b"\xef\xbb\xbf" + json.dumps(small_doc()).encode(),
    "multibyte-names": _NAMED,
    "multibyte-name-at-buffer-edge": _at_byte(_NAMED, _NAMED.index(b"\xf0") + 1, _BUFFER),
    "bad-utf8-in-name": _NAMED.replace(b"\xc3\x84", b"\xc3("),
    "bad-utf8-in-frames": json.dumps(small_doc()).encode().replace(b"0.5", b"0.\xff", 1),
    "bad-utf8-at-buffer-edge": _at_byte(_NAMED.replace(b"\xe5", b"\xff", 1),
                                        _NAMED.index(b"\xe5"), _BUFFER - 1),
    "cut-multibyte-at-end": _NAMED + b"\xe5\x90",
    # whitespace, then a bad byte after the document: at chunk 64 a refill
    # inside the frames array meets it while the window holds the rest
    "bad-utf8-after-the-document": json.dumps(small_doc()).encode() + b" " * 9000 + b"\xff",
    "split-number": b'{"fps": 25, "version": "poseseq-json/1", "components": '
                    b'[{"name": "B", "points": ["P"]}], "frames": [[[2.5e-1, -0.0, 1E+2, 1]]]}',
    "split-exponent": json.dumps(small_doc()).encode().replace(b"50", b"2.5E+1", 1),
    "truncated": json.dumps(small_doc(frames=3)).encode()[:-3],
    # no comma between frames 0 and 1: the decoder's error goes to the whole read
    "syntax-in-frames": json.dumps(small_doc(frames=6)).encode().replace(b"]], [[", b"]] [[", 1),
    "bad-frame": json.dumps(small_doc(frames=6)).encode().replace(b"4.0, 1.0", b'4.0, "1"', 1),
    "bad-first-frame": json.dumps(small_doc(frames=3)).encode().replace(b"[[0.0", b"[[[0.0]", 1),
    # a bad frame is only recorded: the syntax fault after it comes first
    "bad-frame-then-syntax": json.dumps(small_doc(frames=6)).encode().replace(
        b"1.0, 1.0", b"1.0, true", 1).replace(b"]], [[5.0", b"]] [[5.0", 1),
    # an int past str-to-int's digit limit, which a chunk's end cuts short
    "int-past-the-digit-limit": json.dumps(small_doc()).encode().replace(
        b"0.5", b"1" + b"0" * 5000, 1),
    "frames-first": render(Members([
        ("frames", [[[0.5, Token("-0"), 1, 1.0], [Token("2E-1"), 0.0, 3, 0.5]]]),
        ("fps", 25), ("version", pose.FORMAT_VERSION),
        ("components", [Members([("name", "BODY"), ("points", ["A", "B"])])])]),
        lambda: "\n").encode(),
    # a first frame of long numbers: the block sized from it is too short
    # and grows after runs of 8 frames have been written
    "block-grows": json.dumps(dict(small_doc(frames=40, points=64), frames=(
        [[[0.123456789012345] * 4] * 64] + [[[t, 1, 0, 1]] * 64 for t in range(39)]))).encode(),
}


@pytest.mark.parametrize("chunk", [1, 2, 7, 64])
@pytest.mark.parametrize("name", sorted(_STREAMED_FILES))
def test_load_pose_reads_like_the_whole_file_at_every_chunk_size(tmp_path, monkeypatch,
                                                                 chunk, name):
    monkeypatch.setattr(pose, "_CHUNK_CHARS", chunk)
    path = tmp_path / "clip.pose.json"
    path.write_bytes(_STREAMED_FILES[name])
    assert_reads_like_whole_document_reader(path)


@pytest.mark.parametrize("margin", [0, 5, 40])
@pytest.mark.parametrize("name", sorted(_STREAMED_FILES))
def test_load_pose_reads_like_the_whole_file_at_every_refill_margin(tmp_path, monkeypatch,
                                                                    margin, name):
    # values longer than the refill margin still meet the end of text, and
    # are decoded again after a refill
    monkeypatch.setattr(pose, "_CHUNK_CHARS", 7)
    monkeypatch.setattr(pose, "_REFILL_CHARS", margin)
    path = tmp_path / "clip.pose.json"
    path.write_bytes(_STREAMED_FILES[name])
    assert_reads_like_whole_document_reader(path)


def test_load_pose_rejects_bad_utf8_after_a_long_frames_array(tmp_path, monkeypatch):
    # the refill that meets the bad byte comes while a frame is decoded, and
    # the window already holds every character of JSON the file has
    monkeypatch.setattr(pose, "_CHUNK_CHARS", 4096)
    path = tmp_path / "clip.pose.json"
    path.write_bytes(json.dumps(small_doc(frames=2000)).encode() + b" " * 70000 + b"\xff")
    assert_reads_like_whole_document_reader(path)
    with pytest.raises(ValueError, match="malformed pose document: 'utf-8' codec can't decode "
                                         f"byte 0xff in position {path.stat().st_size - 1}: "):
        pose.load_pose(path)


def test_scan_raises_the_decode_error_of_a_refill(tmp_path, monkeypatch):
    # a refill inside the frames array meets the bad byte while the window
    # holds the rest of the document: the scan must not read the array again
    monkeypatch.setattr(pose, "_CHUNK_CHARS", 64)
    path = tmp_path / "clip.pose.json"
    path.write_bytes(json.dumps(small_doc()).encode() + b" " * 9000 + b"\xff")
    with open(path, "rb") as f, pytest.raises(ValueError, match="'utf-8' codec can't decode"):
        pose._scan(pose._Window(file=f))


@pytest.mark.parametrize("chunk", [1, 2, 7, 64])
def test_load_pose_reads_like_the_whole_file_at_every_cut_and_shift(tmp_path, monkeypatch,
                                                                    chunk):
    # every truncation, and the document shifted so each early character meets
    # the first chunk edge
    monkeypatch.setattr(pose, "_CHUNK_CHARS", chunk)
    text = _SPACED.replace("\n", " ")
    path = tmp_path / "clip.pose.json"
    for cut in range(len(text) + 1):
        path.write_text(text[:cut], encoding="utf-8")
        assert_reads_like_whole_document_reader(path)
    for shift in range(chunk + 8):
        path.write_text(" " * shift + text, encoding="utf-8")
        assert outcome(pose.load_pose, path)[0] == "reads"
        assert_reads_like_whole_document_reader(path)


@pytest.fixture(scope="module")
def holistic_300():
    """(block, text): 300 frames of 543 points, laid out as the holistic benchmark clips are."""
    comps = holistic_components()
    k = sum(len(c.points) for c in comps)
    quads = np.random.default_rng(5).random((300, k, 4)).astype(np.float32).astype(float)
    text = json.dumps({"version": pose.FORMAT_VERSION, "fps": 25.0,
                       "components": [{"name": c.name, "points": list(c.points)} for c in comps],
                       "frames": quads.tolist()}, separators=(",", ":"))
    return quads, text


def traced_peak(call):
    """call()'s result and the tracemalloc peak of the memory it allocated."""
    gc.collect()
    tracemalloc.start()
    try:
        result = call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak


def test_parse_peak_memory_is_a_small_multiple_of_the_block(holistic_300):
    quads, text = holistic_300
    seq, peak = traced_peak(lambda: parse_pose(text))
    np.testing.assert_array_equal(seq.conf, quads[:, :, 3])
    assert peak <= 3 * quads.nbytes


def test_load_peak_memory_is_a_small_multiple_of_the_block(holistic_300, tmp_path):
    # the file is read a window at a time into one block: neither the whole
    # text nor a second copy of the block is held
    quads, text = holistic_300
    path = tmp_path / "clip.pose.json"
    path.write_text(text, encoding="utf-8")
    seq, peak = traced_peak(lambda: pose.load_pose(path))
    np.testing.assert_array_equal(seq.coords, quads[:, :, :3])
    np.testing.assert_array_equal(seq.conf, quads[:, :, 3])
    assert peak <= 2.5 * quads.nbytes


def test_prepare_peak_memory_is_a_fraction_of_the_block(holistic_300, tmp_path):
    # body75 keeps 75 of 543 points, and only those are copied
    quads, text = holistic_300
    path = tmp_path / "clip.pose.json"
    path.write_text(text, encoding="utf-8")
    seq = pose.load_pose(path)
    opts = PipelineOptions()
    out, peak = traced_peak(lambda: prepare_pose(seq, opts))
    want = select_points(normalize_pose(resample_fps(seq, opts.fps)), named_selector("body75"))
    np.testing.assert_array_equal(out.coords, want.coords)
    np.testing.assert_array_equal(out.conf, want.conf)
    assert peak <= 0.5 * quads.nbytes


def test_load_pose_refills_before_a_value_is_cut(holistic_300, tmp_path, monkeypatch):
    # the window refills before it decodes near its end, so no decode of a
    # multi-chunk file fails (each failure builds a JSONDecodeError)
    quads, text = holistic_300
    assert len(text) > 4 * pose._CHUNK_CHARS
    path = tmp_path / "clip.pose.json"
    path.write_text(text, encoding="utf-8")
    want = outcome(parse_pose, text)
    failures = []
    decoder = pose._DECODER

    class CountingDecoder:
        def raw_decode(self, s, i):
            try:
                return decoder.raw_decode(s, i)
            except ValueError:
                failures.append(i)
                raise

    monkeypatch.setattr(pose, "_DECODER", CountingDecoder())
    assert outcome(pose.load_pose, path) == want
    assert failures == []


# Column sets: load_pose(path, columns) stores only the points its caller
# reads, and must read like the full load cut to them afterwards.


def test_column_set_load_peak_memory_is_a_fraction_of_the_block(holistic_300, tmp_path):
    # body75 reads 65 of the 543 points: the window of text, a run and the
    # cut block are held, never the whole block
    quads, text = holistic_300
    path = tmp_path / "clip.pose.json"
    path.write_text(text, encoding="utf-8")
    opts = PipelineOptions()
    seq, peak = traced_peak(lambda: pose.load_pose(path, opts.read_columns))
    assert seq.num_points == 65
    assert peak <= 0.5 * quads.nbytes
    assert values(lambda: seq) == values(cut_after_full_load, path, opts.read_columns)


@pytest.mark.parametrize("fault", ["no-comma-before-last-frame", "0xff-before-last-brace"])
def test_malformed_load_peak_memory_is_a_fraction_of_the_block(holistic_300, tmp_path, fault):
    # a fault near the end is met by the one streamed read: the file is never
    # read whole, so a malformed clip costs no more than a valid one
    quads, text = holistic_300
    raw = text.encode()
    if fault == "no-comma-before-last-frame":
        at = raw.rindex(b"]],[[") + 2
        raw = raw[:at] + raw[at + 1:]
    else:
        raw = raw[:-1] + b"\xff}"
    path = tmp_path / "clip.pose.json"
    path.write_bytes(raw)
    opts = PipelineOptions()
    got, peak = traced_peak(lambda: outcome(lambda p: pose.load_pose(p, opts.read_columns), path))
    assert got[0] == "rejects"
    assert got == outcome(read_whole_file, path)
    assert peak <= 0.5 * quads.nbytes


def _upper_body_text():
    seq, _ = motion_pose(5, num_frames=120)
    return serialize_pose(seq)


@pytest.mark.parametrize("features", [("flow",), ("flow", "handnorm"), ()],
                         ids=["flow", "flow-handnorm", "bare"])
@pytest.mark.parametrize("selector", SELECTORS)
@pytest.mark.parametrize("clip", ["holistic", "upper-body"])
def test_column_set_load_prepares_the_same_features(holistic_300, tmp_path, clip, selector,
                                                    features):
    path = tmp_path / "clip.pose.json"
    path.write_text(holistic_300[1] if clip == "holistic" else _upper_body_text(),
                    encoding="utf-8")
    if selector == "face-contour-128" and "handnorm" in features:  # selects no hand
        with pytest.raises(ValueError, match="handnorm needs the LEFT_HAND and RIGHT_HAND"):
            PipelineOptions(selector=selector, features=features)
        return
    opts = PipelineOptions(selector=selector, features=features)

    def features_of(seq):
        try:
            feats = prepare_features(seq, opts).values
        except ValueError as e:
            return "rejects", str(e)
        return feats.dtype.str, feats.shape, feats.tobytes()

    full = pose.load_pose(path)
    cut = pose.load_pose(path, opts.read_columns)
    assert features_of(cut) == features_of(full)
    kept = opts.read_columns(full.components)
    assert cut.num_points == (full.num_points if kept is None else len(kept))


def _reject_cases():
    """(document, message) for every rejection above, on frames of two points."""
    cases = []
    for mutate, match in BAD_DOCUMENTS:
        doc = small_doc(frames=2)
        mutate(doc)
        cases.append((json.dumps(doc), match))
    for mutate, message in BAD_POINTS:
        doc = small_doc(frames=5)
        mutate(doc)
        cases.append((json.dumps(doc), message))
    doc = small_doc(frames=1)
    doc["frames"][0] = [[1.0, 2.0, 0.9] for _ in range(2)]
    cases.append((json.dumps(doc), "frame 0 point 0 has no z axis"))
    doc = small_doc(frames=1)
    doc["frames"][0][0][3] = 1.5
    cases.append((json.dumps(doc), "confidence values must lie in [0, 1]"))
    cases.append(("{not json", "malformed pose document"))
    head = ('{"version": "poseseq-json/1", "fps": 25, '
            '"components": [{"name": "BODY", "points": ["NOSE", "EAR"]}], "frames": ')
    cases.append((head + "[[[1" + "0" * 400 + ", 0.0, 0.0, 1.0], [0, 0, 0, 1]]]}",
                  "malformed pose document"))
    cases.append((head + "[" * 100_000 + "]" * 100_000 + "}", "malformed pose document"))
    return cases


@pytest.mark.parametrize("text, message", _reject_cases())
def test_column_set_load_rejects_as_the_full_load(tmp_path, text, message):
    path = tmp_path / "clip.pose.json"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ValueError) as err:
        pose.load_pose(path, every_other_column)
    assert message in str(err.value)
    assert_cut_load_reads_like_the_full_load(path, every_other_column)


def holistic_doc(frames=3):
    """A holistic document of random points, every confidence in [0, 1)."""
    comps = holistic_components()
    k = sum(len(c.points) for c in comps)
    quads = np.random.default_rng(frames).random((frames, k, 4))
    return {"version": pose.FORMAT_VERSION, "fps": 25.0,
            "components": [{"name": c.name, "points": list(c.points)} for c in comps],
            "frames": quads.tolist()}


FACE_POINT = len(BODY_POINTS) + 7
KNEE = BODY_POINTS.index("LEFT_KNEE")


@pytest.mark.parametrize("mutate, message", [
    (_set_value(1, FACE_POINT, 0, float("nan")), "pose contains a non-finite coordinate"),
    (_set_value(2, KNEE, 3, 1.5), "confidence values must lie in [0, 1]"),
    (_set_value(0, FACE_POINT, 1, True), f"frame 0 point {FACE_POINT} {QUAD}"),
    (_set_point(2, FACE_POINT, [0.5, 0.5, 0.5]), f"frame 2 point {FACE_POINT} has no z axis"),
    (_set_value(1, KNEE, 3, float("inf")), "pose contains a non-finite confidence"),
    # the faults of all frames are weighed in _validate_arrays' order
    (_both(_set_value(0, KNEE, 3, 1.5), _set_value(2, FACE_POINT, 2, float("inf"))),
     "pose contains a non-finite coordinate"),
    (_both(_set_value(0, KNEE, 3, -0.5), _set_value(2, FACE_POINT, 3, float("nan"))),
     "pose contains a non-finite confidence"),
], ids=["nan-face-coordinate", "leg-confidence-1.5", "true-in-face-point",
        "3-element-face-point", "inf-leg-confidence", "early-confidence-late-coordinate",
        "early-range-late-nan-confidence"])
def test_faults_in_unread_columns_are_reported(tmp_path, mutate, message):
    doc = holistic_doc()
    mutate(doc)
    path = tmp_path / "clip.pose.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    columns = PipelineOptions().read_columns
    assert FACE_POINT not in columns(holistic_components())
    assert KNEE not in columns(holistic_components())
    with pytest.raises(ValueError) as err:
        pose.load_pose(path, columns)
    assert str(err.value).startswith(message)
    assert_cut_load_reads_like_the_full_load(path, columns)


def _members(doc, order):
    return Members([(key, doc[key]) for key in order])


@pytest.mark.parametrize("order, cut_while_read", [
    (("version", "fps", "components", "frames"), True),
    (("frames", "version", "fps", "components"), False),
    (("version", "components", "frames", "fps"), True),
], ids=["components-first", "frames-first", "fps-last"])
def test_column_set_load_reads_frames_before_components_whole(tmp_path, order,
                                                              cut_while_read):
    doc = holistic_doc()
    path = tmp_path / "clip.pose.json"
    path.write_text(render(_members(doc, order), lambda: " "), encoding="utf-8")
    columns = PipelineOptions().read_columns
    with open(path, "rb") as f:
        frames = pose._scan(pose._Window(file=f), columns)["frames"]
    assert (frames.columns is not None) == cut_while_read
    assert frames.block.shape[1] == (65 if cut_while_read else 543)
    assert pose.load_pose(path, columns).num_points == 65
    assert_cut_load_reads_like_the_full_load(path, columns)


def test_components_after_cut_frames_are_read_whole(tmp_path):
    # the last of duplicate keys counts: frames cut to the first components
    # cannot serve the second, so the file is scanned again with every column
    doc = holistic_doc()
    other = [{"name": "BODY", "points": list(BODY_POINTS)},
             {"name": "LEFT_HAND", "points": list(HAND_POINTS)},
             {"name": "RIGHT_HAND", "points": list(HAND_POINTS)},
             {"name": "FACE", "points": [f"FACE_{i}" for i in range(FACE_POINT_COUNT)]}]
    members = Members([("version", doc["version"]), ("fps", 25),
                       ("components", doc["components"]), ("frames", doc["frames"]),
                       ("components", other)])
    path = tmp_path / "clip.pose.json"
    path.write_text(render(members, lambda: ""), encoding="utf-8")
    columns = PipelineOptions().read_columns
    seq = pose.load_pose(path, columns)
    assert [c.name for c in seq.components] == ["BODY", "LEFT_HAND", "RIGHT_HAND"]
    assert_cut_load_reads_like_the_full_load(path, columns)


@pytest.mark.parametrize("spaced_from", [None, 100], ids=["compact", "spaced-from-frame-100"])
def test_column_set_load_decodes_only_the_kept_points(holistic_300, tmp_path, monkeypatch,
                                                      spaced_from):
    # a compact frame is matched whole and only its 65 kept points are
    # decoded; from the first frame that does not match, every frame is
    # decoded whole
    quads, text = holistic_300
    if spaced_from is not None:
        at = text.index('"frames":[') + len('"frames":[')
        for _ in range(spaced_from):
            at = text.index("]],[[", at) + 3
        text = text[:at] + "[ " + text[at + 1:]
    path = tmp_path / "clip.pose.json"
    path.write_text(text, encoding="utf-8")
    columns = PipelineOptions().read_columns
    want = values(cut_after_full_load, path, columns)
    lengths = []
    decoder = pose._DECODER

    class CountingDecoder:
        def raw_decode(self, s, i=0):
            value, end = decoder.raw_decode(s, i)
            if type(value) is list:
                lengths.append(len(value))
            return value, end

    monkeypatch.setattr(pose, "_DECODER", CountingDecoder())
    assert values(pose.load_pose, path, columns) == want
    matched = 300 if spaced_from is None else spaced_from
    assert lengths.count(65) == matched
    assert lengths.count(543) == 300 - matched


# A small skeleton that body75 and face-contour-128 can both read from
_SKELETON = [("BODY", ["NOSE", "LEFT_SHOULDER", "RIGHT_SHOULDER", "LEFT_HIP"]),
             ("FACE", ["FACE_0", "FACE_10", "FACE_21"]),
             ("LEFT_HAND", ["WRIST", "T_TIP"]), ("RIGHT_HAND", ["WRIST", "T_TIP"])]


# Number text at the edges of the compact-frame pattern's grammar: ints of 16
# and 17 digits, exponents of 2 and 3 digits, -0 and 0e0, digits that \d
# matches and json rejects, confidences at 1 and past it, written with an
# exponent too, and a space.
_EDGE_NUMBERS = [Token("9999999999999999"), Token("-1234567890123456"),
                 Token("12345678901234567"), Token("1e99"), Token("-1E+99"), Token("1e-99"),
                 Token("1e100"), Token("1e400"), Token("5e-324"), Token("-0"), Token("0e0"),
                 Token("\u0661"), Token("1\u0661"), Token("0.\u0661"), Token("1e\u0661"),
                 Token("1.0000"), Token("1.00001"), Token("7.5e-05"), Token("9.9e-1"),
                 Token("1e-0"), Token("2e-0"), Token("1e-100"), Token(" 0.5")]


@pytest.mark.parametrize("number", _EDGE_NUMBERS)
@pytest.mark.parametrize("at", [0, 3], ids=["x", "confidence"])
@pytest.mark.parametrize("point", ["NOSE", "FACE_10"], ids=["kept", "dropped"])
def test_column_set_load_reads_edge_numbers_as_the_full_load(tmp_path, number, at, point):
    # frame 1 of 3 holds the number: frame 0 is matched, and frame 1 is
    # matched or decoded whole with frame 2
    names = [p for _, points in _SKELETON for p in points]
    frames = [[[0.5, 0.25, 0.0, 1.0] for _ in names] for _ in range(3)]
    frames[1][names.index(point)][at] = number
    components = [Members([("name", name), ("points", points)]) for name, points in _SKELETON]
    text = render(Members([("version", pose.FORMAT_VERSION), ("fps", 25),
                           ("components", components), ("frames", frames)]), lambda: "")
    path = tmp_path / "clip.pose.json"
    path.write_text(text, encoding="utf-8")
    columns = PipelineOptions().read_columns
    kept = columns(tuple(PoseComponent(name, tuple(points)) for name, points in _SKELETON))
    assert (names.index(point) in kept) == (point == "NOSE")
    assert values(pose.load_pose, path) == values(read_whole_file, path)
    assert_cut_load_reads_like_the_full_load(path, columns)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_column_set_load_matches_the_full_load_on_mutated_documents(tmp_path_factory, data):
    draw = data.draw
    comps = [(name, list(points)) for name, points in _SKELETON]
    if draw(st.booleans()):  # a point renamed, dropped or added, or a component gone
        ci = draw(st.integers(0, len(comps) - 1))
        name, points = comps[ci]
        op = draw(st.sampled_from(["rename", "drop", "add", "remove"]))
        if op == "remove":
            del comps[ci]
        elif op == "add":
            points.append(draw(st.sampled_from(["LEFT_SHOULDER", "LEFT_KNEE", "X"])))
        elif points:
            at = draw(st.integers(0, len(points) - 1))
            if op == "drop":
                del points[at]
            else:
                points[at] = draw(st.sampled_from(["RIGHT_SHOULDER", "FACE_0", "Y"]))
    k = sum(len(points) for _, points in comps)
    t = draw(st.integers(0, 4))
    frames = [[[draw(st.floats(0, 1)) for _ in range(4)] for _ in range(k)] for _ in range(t)]
    for _ in range(draw(st.integers(0, 3)) if frames and k else 0):  # in kept or dropped columns
        point = frames[draw(st.integers(0, t - 1))][draw(st.integers(0, k - 1))]
        point[draw(st.integers(0, 3))] = draw(st.sampled_from(_EDGE_NUMBERS))
    for _ in range(draw(st.integers(0, 2)) if frames and k else 0):
        _mutate_frames(data, frames, k)
    components = [Members([("name", name), ("points", points)]) for name, points in comps]
    members = [("version", pose.FORMAT_VERSION), ("fps", 25),
               ("components", components), ("frames", frames)]
    if draw(st.booleans()):
        members.append(("components", draw(st.sampled_from([components[:1], 7]))))
    members = draw(st.permutations(members))
    text = render(Members(members), lambda: "")
    if draw(st.sampled_from([False] * 3 + [True])):  # a character put in or taken out
        at = draw(st.integers(0, len(text)))
        text = text[:at] + draw(st.sampled_from(["", ",", "]", "0"])) + text[at + 1:]
    path = tmp_path_factory.mktemp("doc") / "clip.pose.json"
    path.write_text(text, encoding="utf-8")
    opts = PipelineOptions(selector=draw(st.sampled_from(SELECTORS)))
    run_points = pose._RUN_POINTS
    pose._RUN_POINTS = draw(st.sampled_from([run_points, 1, 3, 8]))  # runs that split frames
    try:
        assert values(pose.load_pose, path) == values(read_whole_file, path)
        assert_cut_load_reads_like_the_full_load(path, opts.read_columns)
        assert_cut_load_reads_like_the_full_load(path, every_other_column)
    finally:
        pose._RUN_POINTS = run_points


def test_parse_rejects_malformed_json():
    with pytest.raises(ValueError, match="malformed"):
        parse_pose("{not json")


def test_parse_rejects_conf_out_of_range():
    doc = small_doc(frames=1)
    doc["frames"][0][0][3] = 1.5
    with pytest.raises(ValueError):
        parse_pose(json.dumps(doc))


def test_roundtrip_random_corpus():
    # serialize -> parse -> serialize is a fixed point, and values survive exactly
    rng = np.random.default_rng(7)
    for _ in range(100):
        seq = random_pose(rng)
        text = serialize_pose(seq)
        back = parse_pose(text)
        assert serialize_pose(back) == text
        assert back.fps == seq.fps
        assert back.components == seq.components
        np.testing.assert_array_equal(back.coords, seq.coords)
        np.testing.assert_array_equal(back.conf, seq.conf)


def test_serialize_matches_hand_built_holistic_document():
    comps = holistic_components()
    k = sum(len(c.points) for c in comps)
    rng = np.random.default_rng(11)
    coords = rng.normal(size=(3, k, 3)) * 10.0 ** rng.integers(-9, 9, size=(3, k, 1))
    coords[:, ::5] = coords[:, ::5].astype(np.float32)
    coords[0, 0] = [-0.0, 0.0, 2.0]
    conf = rng.random(size=(3, k))
    conf[:, ::7] = 0.0
    conf[:, 1::7] = 1.0
    seq = make_pose(25, comps, coords, conf)
    frames = ",".join(
        "[" + ",".join(f"[{x!r},{y!r},{z!r},{c!r}]"
                       for (x, y, z), c in zip(coords[t].tolist(), conf[t].tolist())) + "]"
        for t in range(3))
    components = ",".join(
        '{"name":"%s","points":[%s]}' % (c.name, ",".join(f'"{p}"' for p in c.points))
        for c in comps)
    expected = ('{"version":"poseseq-json/1","fps":25,"components":[' + components
                + '],"frames":[' + frames + "]}")
    assert serialize_pose(seq) == expected


def test_serialize_is_single_line_canonical():
    rng = np.random.default_rng(3)
    text = serialize_pose(random_pose(rng))
    assert "\n" not in text
    assert ": " not in text and ", " not in text


def ramp_pose(fps, frames):
    comp = [PoseComponent("BODY", ("A",))]
    coords = np.arange(frames, dtype=float)[:, None, None] * np.ones((1, 1, 3))
    return make_pose(fps, comp, coords, np.ones((frames, 1)))


def test_resample_identity_same_fps():
    seq = ramp_pose(25, 10)
    out = resample_fps(seq, 25)
    assert out.num_frames == 10
    np.testing.assert_array_equal(out.coords, seq.coords)


def test_resample_halves_frames():
    seq = ramp_pose(50, 10)
    out = resample_fps(seq, 25)
    assert out.fps == 25
    assert out.num_frames == 5
    # nearest source frame: round(i * 50/25) = 0, 2, 4, 6, 8
    np.testing.assert_array_equal(out.coords[:, 0, 0], [0, 2, 4, 6, 8])


def test_resample_upsamples_by_repetition():
    seq = ramp_pose(25, 3)
    out = resample_fps(seq, 50)
    assert out.num_frames == 6
    np.testing.assert_array_equal(out.coords[:, 0, 0], [0, 1, 1, 2, 2, 2])


@pytest.mark.parametrize("src, dst, frames", [
    (25, 50, 3), (50, 25, 10), (30, 25, 37), (25, 30, 31), (29.97, 25, 50),
    (24, 25, 49), (10, 3, 21), (3, 10, 7), (25, 12.5, 9), (60, 25, 0),
])
def test_resample_matches_round_half_away_loop(src, dst, frames):
    seq = ramp_pose(src, frames)
    out = resample_fps(seq, dst)
    t_out = round_half_away(frames * dst / src)
    expected = [min(max(round_half_away(i * src / dst), 0), frames - 1) for i in range(t_out)]
    np.testing.assert_array_equal(out.coords[:, 0, 0], expected)


@pytest.mark.parametrize("dst", [1e308, float("inf")])
def test_resample_rejects_non_finite_frame_count(dst):
    with pytest.raises(ValueError, match="non-finite frame count"):
        resample_fps(ramp_pose(25, 100), dst)


@pytest.mark.parametrize("dst", [True, np.True_])
def test_resample_rejects_a_bool_target(dst):
    with pytest.raises(ValueError, match="target fps must be positive"):
        resample_fps(ramp_pose(25, 10), dst)


def shoulder_pose(dist=4.0, mid=(10.0, -2.0, 1.0), frames=3, conf_pairs=None):
    comp = [PoseComponent("BODY", ("LEFT_SHOULDER", "RIGHT_SHOULDER", "NOSE"))]
    mid = np.array(mid)
    half = np.array([dist / 2.0, 0.0, 0.0])
    coords = np.zeros((frames, 3, 3))
    coords[:, 0] = mid - half
    coords[:, 1] = mid + half
    coords[:, 2] = mid + np.array([0.0, -3.0, 0.0])
    conf = np.ones((frames, 3))
    if conf_pairs is not None:
        conf[:, 0] = conf[:, 1] = np.asarray(conf_pairs)
    return make_pose(25, comp, coords, conf)


def test_normalize_scales_and_centers():
    out = normalize_pose(shoulder_pose())
    ls, rs = out.coords[0, 0], out.coords[0, 1]
    assert np.linalg.norm(rs - ls) == pytest.approx(1.0, abs=1e-12)
    np.testing.assert_allclose((ls + rs) / 2, 0.0, atol=1e-12)
    # the nose keeps its relative offset: 3 units below at shoulder distance 4
    assert out.coords[0, 2, 1] == pytest.approx(-0.75)


def test_normalize_confidence_weighting():
    # one garbage frame with conf-0 shoulders must not move the statistics
    seq = shoulder_pose(conf_pairs=[1.0, 0.0, 1.0])
    seq.coords[1] *= 100.0
    out = normalize_pose(seq)
    ls, rs = out.coords[0, 0], out.coords[0, 1]
    assert np.linalg.norm(rs - ls) == pytest.approx(1.0, abs=1e-12)


def test_normalize_drops_leg_points():
    comp = [PoseComponent("BODY", ("LEFT_SHOULDER", "RIGHT_SHOULDER",
                                   "LEFT_HIP", "RIGHT_KNEE", "LEFT_ANKLE",
                                   "RIGHT_HEEL", "LEFT_FOOT_INDEX"))]
    coords = np.zeros((2, 7, 3))
    coords[:, 0, 0] = -0.5
    coords[:, 1, 0] = 0.5
    seq = make_pose(25, comp, coords, np.ones((2, 7)))
    out = normalize_pose(seq)
    assert points_of(out, "BODY") == ("LEFT_SHOULDER", "RIGHT_SHOULDER")
    assert out.coords.shape == (2, 2, 3)


def test_normalize_zeroes_missing_points():
    seq = shoulder_pose()
    seq.conf[0, 2] = 0.0
    out = normalize_pose(seq)
    np.testing.assert_array_equal(out.coords[0, 2], 0.0)
    assert out.coords[1, 2, 1] != 0.0


def points_of(seq, name):
    """The point names of seq's component name, read through its columns."""
    names = pose.point_names(seq.components)
    return tuple(names[col][1] for col in pose.component_columns(seq.components, name))


def test_point_index_reads_the_component_columns():
    seq = full_skeleton_pose(frames=1)
    assert seq.point_index("BODY", "NOSE") == 0
    assert seq.point_index("LEFT_HAND", "I_TIP") == 33 + FACE_POINT_COUNT + HAND_POINTS.index("I_TIP")
    with pytest.raises(ValueError, match="^pose has no component named 'FOOT'$"):
        seq.point_index("FOOT", "NOSE")
    with pytest.raises(ValueError, match="^component 'BODY' has no point named 'I_TIP'$"):
        seq.point_index("BODY", "I_TIP")


def full_skeleton_pose(frames=2):
    comps = holistic_components()
    k = sum(len(c.points) for c in comps)
    rng = np.random.default_rng(0)
    coords = rng.normal(size=(frames, k, 3))
    ls = BODY_POINTS.index("LEFT_SHOULDER")
    rs = BODY_POINTS.index("RIGHT_SHOULDER")
    coords[:, ls] = [-1.0, 0.0, 0.0]
    coords[:, rs] = [1.0, 0.0, 0.0]
    return make_pose(25, comps, coords, np.ones((frames, k)))


def test_body75_selector_counts():
    seq = full_skeleton_pose()
    sel = select_points(seq, named_selector("body75"))
    assert sel.num_points == 75
    assert [c.name for c in sel.components] == ["BODY", "LEFT_HAND", "RIGHT_HAND"]
    assert points_of(sel, "BODY") == BODY_POINTS
    # after normalization the same selector keeps the legless body
    norm = select_points(normalize_pose(seq), named_selector("body75"))
    assert norm.num_points == 75 - 10


def test_face_contour_selector():
    seq = full_skeleton_pose()
    sel = select_points(seq, named_selector("face-contour-128"))
    assert sel.num_points == 128
    assert all(p.startswith("FACE_") for p in points_of(sel, "FACE"))
    # selected columns carry the right source data
    src = pose.component_columns(seq.components, "FACE").start
    first = points_of(sel, "FACE")[0]
    idx = int(first.split("_")[1])
    np.testing.assert_array_equal(sel.coords[:, 0], seq.coords[:, src + idx])


def test_unknown_selector_and_missing_points():
    with pytest.raises(ValueError, match="selector"):
        named_selector("body9000")
    seq = parse_pose(json.dumps(small_doc()))
    with pytest.raises(ValueError):
        select_points(seq, named_selector("body75"))


def test_make_pose_rejects_duplicate_component_names():
    # a component name names one run of columns, as the parser requires
    comps = [PoseComponent("HAND", ("A",)), PoseComponent("BODY", ("B",)),
             PoseComponent("HAND", ("C",))]
    with pytest.raises(ValueError, match="^duplicate component name 'HAND'$"):
        make_pose(25, comps, np.zeros((1, 3, 3)), np.ones((1, 3)))


@pytest.mark.parametrize("component, message", [
    (PoseComponent("BODY", ("NOSE", "NOSE")), "component 'BODY' has duplicate point names"),
    (PoseComponent(7, ("NOSE", "EAR")), "component entries must be {name, points} objects"),
    (PoseComponent("BODY", ("NOSE", 3)), "component entries must be {name, points} objects"),
], ids=["duplicate-points", "name-not-a-string", "point-not-a-string"])
def test_make_pose_rejects_what_the_reader_rejects(component, message):
    doc = {"version": pose.FORMAT_VERSION, "fps": 25.0,
           "components": [{"name": component.name, "points": list(component.points)}],
           "frames": [[[0.0, 0.0, 0.0, 1.0]] * 2]}
    with pytest.raises(ValueError) as read:
        parse_pose(json.dumps(doc))
    with pytest.raises(ValueError) as made:
        make_pose(25.0, [component], np.zeros((1, 2, 3)), np.ones((1, 2)))
    assert str(made.value) == str(read.value) == message


def test_serialize_rejects_a_pose_the_reader_would_reject():
    seq = pose.PoseSequence(25.0, (PoseComponent("BODY", ("NOSE",)),
                                   PoseComponent("BODY", ("EAR",))),
                            np.zeros((1, 2, 3)), np.ones((1, 2)))
    with pytest.raises(ValueError, match="^duplicate component name 'BODY'$"):
        serialize_pose(seq)


def test_point_names_columns_and_regroup():
    comps = (PoseComponent("BODY", ("LEFT_SHOULDER", "LEFT_HIP")),
             PoseComponent("EMPTY", ()), PoseComponent("HAND", ("A", "B", "C")))
    names = pose.point_names(comps)
    assert names == [("BODY", "LEFT_SHOULDER"), ("BODY", "LEFT_HIP"),
                     ("HAND", "A"), ("HAND", "B"), ("HAND", "C")]
    assert pose.component_columns(comps, "HAND") == range(2, 5)
    assert pose.component_columns(comps, "EMPTY") == range(2, 2)
    with pytest.raises(ValueError, match="^pose has no component named 'FACE'$"):
        pose.component_columns(comps, "FACE")
    assert pose.regroup(comps, [0, 2, 3]) == (
        PoseComponent("BODY", ("LEFT_SHOULDER",)), PoseComponent("EMPTY", ()),
        PoseComponent("HAND", ("A", "B")))
    # a component the columns empty is dropped; one declared empty stays
    assert pose.regroup(comps, [3]) == (PoseComponent("EMPTY", ()), PoseComponent("HAND", ("B",)))
    assert pose.find_point(comps, "B") == 3
    # a leg-only component is dropped with its legs; a declared empty one stays
    legless = (PoseComponent("BODY", ("LEFT_SHOULDER",)), PoseComponent("EMPTY", ()),
               PoseComponent("HAND", ("A", "B", "C")))
    assert pose.drop_legs(comps) == (legless, [0, 2, 3, 4])
    assert pose.drop_legs(comps[1:2] + (PoseComponent("LEGS", ("LEFT_KNEE",)),)) == (
        (PoseComponent("EMPTY", ()),), [])


def test_select_points_order_and_empty_components():
    comps = (PoseComponent("BODY", ("P0", "P1", "P2")), PoseComponent("EMPTY", ()),
             PoseComponent("HAND", ("H0", "H1")))
    seq = make_pose(25, comps, np.arange(15.0).reshape(1, 5, 3), np.ones((1, 5)))
    selector = pose.PointSelector("mixed", (("HAND", "H1"), ("BODY", "P2"), ("EMPTY", None),
                                            ("HAND", "H0"), ("BODY", "P2")))
    sel = select_points(seq, selector)
    # components in the order of their first entry, points in entry order with
    # repeats kept, and a named component with no point stays, empty
    assert sel.components == (PoseComponent("HAND", ("H1", "H0")),
                              PoseComponent("BODY", ("P2", "P2")), PoseComponent("EMPTY", ()))
    np.testing.assert_array_equal(sel.coords[0], seq.coords[0, [4, 3, 2, 2]])
    with pytest.raises(ValueError, match="^selector 'bad': component 'HAND' has no point 'P0'$"):
        select_points(seq, pose.PointSelector("bad", (("HAND", "P0"),)))


def test_a_declared_empty_component_survives_the_load_cut_and_the_leg_drop(tmp_path):
    seq, _ = motion_pose(5, num_frames=40)
    keep = [col for col in range(seq.num_points)
            if col not in pose.component_columns(seq.components, "LEFT_HAND")]
    comps = tuple(PoseComponent(c.name, () if c.name == "LEFT_HAND" else c.points)
                  for c in seq.components)
    empty = make_pose(seq.fps, comps, seq.coords[:, keep], seq.conf[:, keep])
    path = tmp_path / "clip.pose.json"
    path.write_text(serialize_pose(empty), encoding="utf-8")
    opts = PipelineOptions()
    cut = pose.load_pose(path, opts.read_columns)
    assert PoseComponent("LEFT_HAND", ()) in cut.components
    want = select_points(normalize_pose(empty), named_selector(opts.selector))
    got = prepare_pose(cut, opts)
    assert got.components == want.components
    assert [c.name for c in got.components] == ["BODY", "LEFT_HAND", "RIGHT_HAND"]
    np.testing.assert_array_equal(got.coords, want.coords)


def test_holistic_sizes():
    comps = holistic_components()
    sizes = {c.name: len(c.points) for c in comps}
    assert sizes == {"BODY": 33, "FACE": FACE_POINT_COUNT,
                     "LEFT_HAND": 21, "RIGHT_HAND": 21}
    assert len(HAND_POINTS) == 21


@pytest.fixture
def collector_state():
    """Restores the collector switch that a test changes."""
    was = gc.isenabled()
    yield
    (gc.enable if was else gc.disable)()


@pytest.mark.parametrize("enabled", [True, False])
def test_parse_restores_collector_state(collector_state, enabled):
    (gc.enable if enabled else gc.disable)()
    text = json.dumps(small_doc())
    seq = parse_pose(text)
    assert gc.isenabled() is enabled
    np.testing.assert_array_equal(seq.coords[:, :, 0], np.arange(10)[:, None] * np.ones(2))
    for bad in ("{", "[" * 100_000):
        with pytest.raises(ValueError, match="malformed pose document"):
            parse_pose(bad)
        assert gc.isenabled() is enabled


def test_parse_threads_stress_restores_collector(collector_state):
    gc.enable()
    texts = [json.dumps(small_doc(frames=f)) for f in range(1, 9)] + ["{"]
    want = [seq.coords for seq in map(parse_pose, texts[:-1])]
    failures = []

    def worker():
        for _ in range(30):
            for i, text in enumerate(texts):
                try:
                    got = parse_pose(text).coords
                except ValueError:
                    got = None
                if (got is None) != (i == len(want)) or (
                        got is not None and not np.array_equal(got, want[i])):
                    failures.append(i)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker) for _ in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert failures == []
    assert gc.isenabled()
