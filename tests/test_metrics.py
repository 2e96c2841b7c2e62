import json
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from signseg.metrics import (
    Histogram,
    build_report,
    frame_f1,
    length_density,
    percentage,
    report_to_json,
    report_to_text,
    roc_auc_o,
    segment_iou,
)
from signseg.tags import B, I, O, Segment


def test_frame_f1_identical_is_one():
    tags = [O, B, I, I, O, B, O]
    assert frame_f1(tags, tags) == 1.0


def test_frame_f1_hand_computed_quarter():
    gold = [O, O, B, I, O]
    pred = [O, O, O, O, O]
    # F1_O = 2*3/(2*3+2) = 0.75, F1_B = F1_I = 0 -> macro 0.25
    assert frame_f1(pred, gold) == pytest.approx(0.25, abs=1e-12)


def test_frame_f1_disjoint_labels():
    # B and I each score 0; O absent from both sides contributes 1
    assert frame_f1([I, I, I], [B, B, B]) == pytest.approx(1 / 3)


def test_frame_f1_absent_class_counts_as_perfect():
    assert frame_f1([O, O], [O, O]) == 1.0


def test_frame_f1_length_mismatch():
    with pytest.raises(ValueError, match="length mismatch"):
        frame_f1([O, O], [O])


def segment_lists(num_frames):
    bounds = st.lists(st.integers(0, num_frames), min_size=0, max_size=6)

    def to_segments(points):
        points = sorted(set(points))
        return [Segment(a, b) for a, b in zip(points[::2], points[1::2]) if a < b]

    return bounds.map(to_segments)


def test_segment_iou_partial_overlap_fixture():
    iou = segment_iou([Segment(0, 10)], [Segment(5, 15)], 20)
    assert iou == pytest.approx(1 / 3, abs=1e-12)


def test_segment_iou_edges():
    same = [Segment(2, 5), Segment(7, 9)]
    assert segment_iou(same, same, 10) == 1.0
    assert segment_iou([Segment(0, 3)], [Segment(5, 8)], 10) == 0.0
    assert segment_iou([], [], 10) == 1.0


def test_segment_iou_rejects_out_of_range():
    with pytest.raises(ValueError, match="outside"):
        segment_iou([Segment(5, 12)], [], 10)


@given(segment_lists(12), segment_lists(12))
@settings(max_examples=80)
def test_segment_iou_symmetric_and_bounded(a, b):
    x = segment_iou(a, b, 12)
    assert x == segment_iou(b, a, 12)
    assert 0.0 <= x <= 1.0


def test_percentage_values():
    g2 = [Segment(0, 1), Segment(2, 3)]
    assert percentage(g2 + [Segment(4, 5)], g2) == 1.5
    assert percentage(g2, g2) == 1.0
    assert percentage([], g2) == 0.0


def test_percentage_zero_gold_is_error():
    with pytest.raises(ValueError, match="zero gold"):
        percentage([Segment(0, 1)], [])


def pair_count_auc(scores, gold_tags):
    """O(n^2) oracle: concordant pairs, half credit for ties."""
    scores = np.asarray(scores, dtype=float)
    gold = np.asarray(gold_tags)
    pos = scores[gold == O]
    neg = scores[gold != O]
    wins = 0.0
    for p in pos:
        for n in neg:
            if p > n:
                wins += 1.0
            elif p == n:
                wins += 0.5
    return wins / (len(pos) * len(neg))


def test_auc_perfect_separation():
    scores = [0.9, 0.8, 0.2, 0.1]
    gold = [O, O, B, I]
    assert roc_auc_o(scores, gold) == 1.0


def test_auc_constant_scores():
    assert roc_auc_o([0.5] * 6, [O, O, O, B, I, I]) == 0.5


def test_auc_reversed_pair_fixture():
    # one discordant pair out of four
    scores = [0.9, 0.8, 0.3, 0.1]
    gold = [O, B, O, I]
    expect = pair_count_auc(scores, gold)
    assert expect == 0.75
    assert roc_auc_o(scores, gold) == pytest.approx(expect, abs=1e-12)


def test_auc_accepts_probability_rows():
    rows = np.array([[10, 10, 80], [20, 20, 60], [80, 10, 10], [60, 30, 10]], dtype=float)
    gold = [O, O, B, I]
    assert roc_auc_o(rows, gold) == roc_auc_o(rows[:, O], gold)


@given(
    st.lists(st.tuples(st.integers(0, 5), st.booleans()), min_size=2, max_size=40).filter(
        lambda ps: any(lab for _, lab in ps) and any(not lab for _, lab in ps)
    )
)
@settings(max_examples=120)
def test_auc_matches_pair_counting(pairs):
    scores = [float(s) for s, _ in pairs]  # small ints force tie runs
    gold = [O if lab else I for _, lab in pairs]
    assert roc_auc_o(scores, gold) == pytest.approx(pair_count_auc(scores, gold), abs=1e-12)


def tie_loop_auc(scores, gold_tags):
    """roc_auc_o's average ranks from a loop over the tie runs of a stable sort, kept as
    the reference: NaNs compare unequal, so each is a run of its own, in index order."""
    scores = np.asarray(scores, dtype=float)
    positive = np.asarray(gold_tags) == O
    n_pos = int(positive.sum())
    n_neg = len(scores) - n_pos
    order = np.argsort(scores, kind="mergesort")
    ranks = np.empty(len(scores), dtype=float)
    sorted_scores = scores[order]
    i = 0
    while i < len(scores):
        j = i
        while j + 1 < len(scores) and sorted_scores[j + 1] == sorted_scores[i]:
            j += 1
        ranks[order[i:j + 1]] = (i + j) / 2 + 1  # average 1-based rank over the tie run
        i = j + 1
    rank_sum = float(ranks[positive].sum())
    return (rank_sum - n_pos * (n_pos + 1) / 2) / (n_pos * n_neg)


_TIED_SCORE = st.sampled_from([0.0, 0.25, 0.5, 1.0, -0.0, float("nan")])


@given(st.lists(st.tuples(_TIED_SCORE, st.booleans()), min_size=2, max_size=300).filter(
    lambda ps: any(lab for _, lab in ps) and any(not lab for _, lab in ps)))
@settings(max_examples=200)
def test_auc_equals_the_tie_loop_with_ties_and_nans(pairs):
    scores = [s for s, _ in pairs]
    gold = [O if lab else B for _, lab in pairs]
    assert roc_auc_o(scores, gold) == tie_loop_auc(scores, gold)


def test_auc_equals_the_tie_loop_on_long_runs_of_nans():
    # past numpy's small-array insertion sort, an unstable sort would put the
    # NaNs out of index order and move rank between O and non-O frames
    rng = np.random.default_rng(13)
    for _ in range(20):
        scores = rng.integers(0, 5, 3000) / 4
        scores[rng.random(3000) < 0.3] = np.nan
        gold = np.where(rng.random(3000) < 0.5, O, I)
        assert roc_auc_o(scores, gold) == tie_loop_auc(scores, gold)


def test_auc_monotone_transform_invariant():
    rng = np.random.default_rng(7)
    scores = rng.random(30)
    gold = [O if v else B for v in rng.integers(0, 2, 30)]
    base = roc_auc_o(scores, gold)
    assert roc_auc_o(3.0 * scores + 2.0, gold) == pytest.approx(base, abs=1e-12)
    assert roc_auc_o(np.exp(scores), gold) == pytest.approx(base, abs=1e-12)


def test_auc_single_class_is_error():
    with pytest.raises(ValueError, match="both O and non-O"):
        roc_auc_o([0.1, 0.2], [O, O])


def test_length_density_integrates_to_one():
    segs = [Segment(0, 5), Segment(10, 13), Segment(20, 32), Segment(40, 41)]
    hist = length_density(segs, fps=25.0, bins=8)
    assert isinstance(hist, Histogram)
    mass = float(np.sum(hist.density * np.diff(hist.edges)))
    assert mass == pytest.approx(1.0)


def test_length_density_single_segment_single_bin():
    hist = length_density([Segment(3, 8)], fps=25.0, bins=10)
    assert int(np.count_nonzero(hist.density)) == 1
    assert float(np.sum(hist.density * np.diff(hist.edges))) == pytest.approx(1.0)


def test_length_density_errors():
    with pytest.raises(ValueError, match="at least one"):
        length_density([], fps=25.0)
    with pytest.raises(ValueError, match="fps"):
        length_density([Segment(0, 1)], fps=0.0)


def test_length_density_that_overflows_is_an_error_and_no_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="^segment lengths at 1e\\+308 fps have a "
                                             "non-finite length density$"):
            length_density([Segment(0, 5), Segment(7, 9)], fps=1e308)


@pytest.mark.parametrize("bins", [0, -2, True, 2.5, [0.0, 1.0]])
def test_length_density_and_report_reject_bins_other_than_positive_integers(bins):
    with pytest.raises(ValueError, match="^bins must be a positive integer$"):
        length_density([Segment(0, 1)], fps=25.0, bins=bins)
    # the report checks them with no predicted segment to bin
    with pytest.raises(ValueError, match="^bins must be a positive integer$"):
        build_report({"sign": []}, {"sign": [Segment(0, 1)]}, num_frames=2, fps=25.0,
                     bins=bins)


@pytest.mark.parametrize("bins", [10_000_001, 10**12])
def test_length_density_and_report_reject_more_bins_than_timeline_frames(bins):
    # raised before np.histogram allocates a bin
    message = f"^{bins} bins are over the timeline limit of 10000000$"
    with pytest.raises(ValueError, match=message):
        length_density([Segment(0, 1)], fps=25.0, bins=bins)
    with pytest.raises(ValueError, match=message):
        build_report({"sign": []}, {"sign": [Segment(0, 1)]}, num_frames=2, fps=25.0,
                     bins=bins)


def test_build_report_identical_prediction():
    tiers = {"sign": [Segment(2, 6), Segment(10, 14)], "phrase": [Segment(2, 14)]}
    report = build_report(tiers, tiers, num_frames=20, fps=25.0)
    for tier in tiers:
        assert report.frame_f1[tier] == 1.0
        assert report.iou[tier] == 1.0
        assert report.percentage[tier] == 1.0
        assert report.length_density[tier] is not None
    assert not hasattr(report, "roc_auc_o")


def test_build_report_with_empty_pred():
    gold = {"sign": [Segment(1, 3)]}
    report = build_report({"sign": []}, gold, num_frames=6, fps=25.0)
    assert report.percentage["sign"] == 0.0
    assert report.length_density["sign"] is None


def test_report_serialization():
    tiers = {"sign": [Segment(0, 4)]}
    report = build_report(tiers, tiers, num_frames=8, fps=25.0)
    doc = json.loads(report_to_json(report))
    assert doc["sign"]["frame_f1"] == 1.0
    assert "roc_auc_o" not in doc["sign"]
    text = report_to_text(report)
    assert text.splitlines()[0].split() == ["tier", "frame_f1", "iou", "percent"]
    assert "sign" in text
