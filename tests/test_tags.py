import json

import numpy as np
import pytest
from hypothesis import example, given, settings
import hypothesis.strategies as st

from signseg.numutil import round_half_away
from signseg.tags import (
    MAX_TIMELINE_FRAMES, B, I, O, Segment, TagScheme, clamp_segments, decode_tags, decode_gold_tags,
    encode_tag_array, encode_tags, fidelity_experiment, parse_segments, retime_segments,
    serialize_segments,
)

BIO, IO = TagScheme.BIO, TagScheme.IO


@st.composite
def segment_sets(draw, max_frames=30):
    t = draw(st.integers(1, max_frames))
    segs = []
    cursor = 0
    while cursor < t:
        start = draw(st.integers(cursor, t))
        if start >= t:
            break
        end = draw(st.integers(start + 1, t))
        segs.append(Segment(start, end))
        cursor = end
        if draw(st.booleans()):
            break
    return t, segs


def all_segment_sets(num_frames):
    """Every set of disjoint half-open segments on [0, num_frames)."""
    def rest(start):
        yield []
        for s in range(start, num_frames):
            for e in range(s + 1, num_frames + 1):
                head = Segment(s, e)
                for tail in rest(e):
                    yield [head] + tail
    return rest(0)


def test_segment_validation():
    with pytest.raises(ValueError):
        Segment(3, 3)
    with pytest.raises(ValueError):
        Segment(-1, 2)
    assert Segment(0, 1) < Segment(0, 2) < Segment(1, 2)


def test_encode_oracle():
    segs = [Segment(1, 3), Segment(3, 5)]
    assert encode_tags(segs, 6, BIO) == [O, B, I, B, I, O]
    assert encode_tags(segs, 6, IO) == [O, I, I, I, I, O]


def test_encode_rejects_overlap_and_overflow():
    with pytest.raises(ValueError, match="overlap"):
        encode_tags([Segment(0, 3), Segment(2, 5)], 6, BIO)
    with pytest.raises(ValueError, match="exceeds"):
        encode_tags([Segment(0, 9)], 6, BIO)


def test_encode_rejects_timeline_over_limit():
    with pytest.raises(ValueError, match="timeline limit"):
        encode_tags([], MAX_TIMELINE_FRAMES + 1, BIO)


def reference_encode_tags(segments, num_frames, scheme):
    """The per-frame list encoder that encode_tag_array replaced."""
    tags = [O] * num_frames
    for seg in segments:
        for t in range(seg.start, seg.end):
            tags[t] = I
        if scheme is BIO:
            tags[seg.start] = B
    return tags


@given(segment_sets(max_frames=60), st.sampled_from([BIO, IO]), st.booleans())
@example((0, []), BIO, False)
@example((5, []), BIO, False)
@example((6, [Segment(0, 2), Segment(2, 3), Segment(3, 6)]), BIO, True)
def test_encoders_match_the_per_frame_reference(case, scheme, reverse):
    t, segs = case
    want = reference_encode_tags(segs, t, scheme)
    if reverse:  # the encoders sort their input
        segs = segs[::-1]
    tags = encode_tag_array(segs, t, scheme)
    assert tags.dtype == np.int8 and tags.shape == (t,)
    assert tags.tolist() == want
    listed = encode_tags(segs, t, scheme)
    assert listed == want and all(type(tag) is int for tag in listed)


def test_encode_tag_array_rejects_what_encode_tags_rejects():
    for segs, frames, match in (([Segment(0, 3), Segment(2, 5)], 6, "overlap"),
                                ([Segment(0, 9)], 6, "exceeds"),
                                ([], MAX_TIMELINE_FRAMES + 1, "timeline limit")):
        with pytest.raises(ValueError, match=match):
            encode_tag_array(segs, frames, BIO)


def test_decode_bio_oracle():
    segs, repairs = decode_tags([O, B, I, B, I, O], BIO)
    assert segs == [Segment(1, 3), Segment(3, 5)]
    assert repairs == 0


def test_decode_repairs_orphan_inside_tags():
    segs, repairs = decode_tags([I, I, O, I], BIO)
    assert segs == [Segment(0, 2), Segment(3, 4)]
    assert repairs == 2


def test_decode_back_to_back_b():
    segs, _ = decode_tags([B, B, B], BIO)
    assert segs == [Segment(0, 1), Segment(1, 2), Segment(2, 3)]


def test_decode_io_merges_and_tolerates_b():
    assert decode_gold_tags([O, I, I, O, I], IO) == [Segment(1, 3), Segment(4, 5)]
    # a stray B under IO counts as in-segment, with no repair tally
    segs, repairs = decode_tags([O, B, I, O], IO)
    assert segs == [Segment(1, 3)]
    assert repairs == 0


def test_decode_rejects_unknown_tag():
    with pytest.raises(ValueError, match="unknown tag"):
        decode_tags([0, 1, 7], BIO)


@given(segment_sets())
def test_bio_roundtrip_property(case):
    t, segs = case
    decoded, repairs = decode_tags(encode_tags(segs, t, BIO), BIO)
    assert decoded == segs
    assert repairs == 0


@given(segment_sets())
def test_io_roundtrip_merges_adjacent_only(case):
    t, segs = case
    merged = []
    for seg in segs:
        if merged and merged[-1].end == seg.start:
            merged[-1] = Segment(merged[-1].start, seg.end)
        else:
            merged.append(seg)
    assert decode_gold_tags(encode_tags(segs, t, IO), IO) == merged


def test_bio_roundtrip_exhaustive_small():
    count = 0
    for segs in all_segment_sets(7):
        decoded, repairs = decode_tags(encode_tags(segs, 7, BIO), BIO)
        assert decoded == segs and repairs == 0
        count += 1
    assert count > 100


def test_round_half_away():
    assert [round_half_away(x) for x in (0.5, 1.5, 2.5, -0.5, -1.5, 2.4)] == \
        [1, 2, 3, -1, -2, 2]


def test_retime_oracle():
    assert retime_segments([Segment(2, 4)], 50, 25) == [Segment(1, 2)]
    # collapsed segment keeps one frame
    assert retime_segments([Segment(10, 11)], 50, 5) == [Segment(1, 2)]
    # rounding overlap merges
    assert retime_segments([Segment(0, 2), Segment(2, 4)], 50, 10) == [Segment(0, 1)]
    # adjacency is preserved, not merged
    assert retime_segments([Segment(0, 4), Segment(4, 8)], 50, 25) == \
        [Segment(0, 2), Segment(2, 4)]


@given(segment_sets())
def test_retime_same_fps_is_identity(case):
    _, segs = case
    assert retime_segments(segs, 25, 25) == segs


@given(segment_sets(), st.sampled_from([5, 10, 12.5, 25, 50, 100]))
def test_retime_output_sorted_disjoint(case, dst):
    _, segs = case
    out = retime_segments(segs, 25, dst)
    for a, b in zip(out, out[1:]):
        assert a.end <= b.start
    assert all(s.end > s.start for s in out)


def test_retime_rejects_bad_fps():
    with pytest.raises(ValueError):
        retime_segments([Segment(0, 1)], 0, 25)


def test_clamp_segments():
    assert clamp_segments([Segment(0, 5), Segment(8, 12)], 10) == \
        [Segment(0, 5), Segment(8, 10)]
    # a segment past the end pins to the last frame, without duplicates
    assert clamp_segments([Segment(8, 10), Segment(12, 14)], 10) == [Segment(8, 10)]
    assert clamp_segments([Segment(12, 14)], 10) == [Segment(9, 10)]


def test_fidelity_oracle_adjacent_pair():
    gold = [Segment(0, 4), Segment(4, 8)]
    rows = fidelity_experiment(gold, 50, [50])
    by_scheme = {r.scheme: r for r in rows}
    assert by_scheme[BIO].reproduced == 1.0
    assert by_scheme[BIO].exact == 1.0
    # IO fuses the adjacent pair: one decoded segment out of two
    assert by_scheme[IO].reproduced == 0.5
    assert by_scheme[IO].exact == 0.0


def test_fidelity_needs_segments():
    with pytest.raises(ValueError):
        fidelity_experiment([], 50, [25])


def test_segments_json_roundtrip():
    tiers = {"sign": [Segment(3, 5), Segment(0, 2)], "phrase": [Segment(0, 5)]}
    text = serialize_segments(25, tiers)
    fps, back = parse_segments(text)
    assert fps == 25
    assert back["sign"] == [Segment(0, 2), Segment(3, 5)]
    assert back["phrase"] == [Segment(0, 5)]
    assert json.loads(text)["tiers"]["sign"][0] == {"start": 0, "end": 2}


@pytest.mark.parametrize("text, match", [
    ("[]", "tiers"),
    ('{"fps": 0, "tiers": {}}', "fps"),
    ('{"fps": 25, "tiers": {"sign": [{"start": 1.5, "end": 3}]}}', "integer"),
    ('{"fps": 25, "tiers": {"sign": [{"start": 4, "end": 2}]}}', "interval"),
    ('{"fps": 25, "tiers": {"sign": [{"start": false, "end": true}]}}', "integer"),
    ('{"fps": 25, "tiers": {"sign": [{"start": 0, "end": true}]}}', "integer"),
    ("{bad", "malformed"),
    ('{"fps": Infinity, "tiers": {}}', "fps"),
    ('{"fps": NaN, "tiers": {}}', "fps"),
    ('{"fps": 1e400, "tiers": {}}', "fps"),
    ('{"fps": true, "tiers": {}}', "fps"),
    pytest.param("[" * 100_000, "malformed", id="nested-too-deep"),
])
def test_segments_json_rejects(text, match):
    with pytest.raises(ValueError, match=match):
        parse_segments(text)


SEGMENTS_KEYS = ("fps", "tiers", "sign", "phrase", "start", "end")
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda kids: st.lists(kids, max_size=4)
    | st.dictionaries(st.sampled_from(SEGMENTS_KEYS) | st.text(max_size=3), kids, max_size=4),
    max_leaves=16,
)


SEGMENT_DOCS = st.fixed_dictionaries({
    "fps": st.floats() | st.integers() | JSON_VALUES,
    "tiers": st.dictionaries(st.text(max_size=5), st.lists(st.fixed_dictionaries({
        "start": st.integers(-3, 40) | JSON_VALUES,
        "end": st.integers(-3, 40) | JSON_VALUES,
    }), max_size=4) | JSON_VALUES, max_size=3),
})


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.text(max_size=60), JSON_VALUES.map(json.dumps),
                 SEGMENT_DOCS.map(json.dumps)))
def test_parse_segments_raises_only_value_error(text):
    try:
        fps, tiers = parse_segments(text)
    except ValueError:
        return
    assert fps > 0 and all(isinstance(s, Segment) for segs in tiers.values() for s in segs)
