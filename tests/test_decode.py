import itertools

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from signseg.decoding import (
    DEFAULT_GRID, DecodeMode, DecodeParams, TuneCell, argmax_decode, decode, greedy_decode,
    tune_thresholds,
)
from signseg.metrics import _frame_mask
from signseg.tags import B, I, O, Segment, TagScheme, decode_gold_tags, encode_tags

DEFAULTS = DecodeParams()


def rows(*triples):
    return np.array(triples, dtype=float)


def one_hot(tags):
    out = np.zeros((len(tags), 3))
    out[np.arange(len(tags)), tags] = 100.0
    return out


def test_greedy_trace_from_pseudocode():
    probs = rows((10, 10, 80), (90, 5, 5), (10, 80, 10), (10, 80, 10), (5, 15, 80))
    assert greedy_decode(probs, DEFAULTS) == [Segment(1, 4)]


def test_greedy_all_outside():
    assert greedy_decode(rows(*[(5, 5, 90)] * 6), DEFAULTS) == []


def test_greedy_back_to_back_quirk():
    # the frame-2 B spike closes the segment but does not open a new one
    probs = rows((90, 5, 5), (10, 80, 10), (90, 5, 5), (10, 80, 10))
    assert greedy_decode(probs, DEFAULTS) == [Segment(0, 2)]


def test_greedy_strict_bio_reopens():
    probs = rows((90, 5, 5), (10, 80, 10), (90, 5, 5), (10, 80, 10))
    params = DecodeParams(strict_bio=True)
    assert greedy_decode(probs, params) == [Segment(0, 2), Segment(2, 4)]


def test_greedy_open_segment_runs_to_end():
    probs = rows((5, 5, 90), (90, 5, 5), (10, 80, 10))
    assert greedy_decode(probs, DEFAULTS) == [Segment(1, 3)]


def test_greedy_singleton_between_outside():
    assert greedy_decode(one_hot([O, B, O]), DEFAULTS) == [Segment(1, 2)]


def test_probs_validation():
    with pytest.raises(ValueError):
        greedy_decode(np.zeros((3, 2)), DEFAULTS)
    with pytest.raises(ValueError, match="sum"):
        greedy_decode(rows((10, 10, 10)), DEFAULTS)
    with pytest.raises(ValueError):
        DecodeParams(threshold_b=101)
    with pytest.raises(ValueError):
        DecodeParams(threshold_o=-1)


@pytest.mark.parametrize("field", ["threshold_b", "threshold_o"])
@pytest.mark.parametrize("value", [True, "50", float("nan"), float("inf"), 150, -1],
                         ids=["true", "string", "nan", "inf", "150", "negative"])
def test_decode_params_take_only_a_finite_threshold_in_range(field, value):
    with pytest.raises(ValueError, match=rf"^{field} must be a finite number in \[0, 100\]$"):
        DecodeParams(**{field: value})


def test_decoders_and_tune_reject_a_nan_row():
    # NaN > tol is False, so a row-sum check written that way lets NaN through
    probs = rows((90, 5, 5), (10, np.nan, 10), (5, 15, 80))
    gold = [Segment(0, 2)]
    for run in (lambda: greedy_decode(probs, DEFAULTS), lambda: argmax_decode(probs),
                lambda: decode(probs, DecodeParams(mode=DecodeMode.ARGMAX)),
                lambda: tune_thresholds([(one_hot([B, I, O]), gold), (probs, gold)])):
        with pytest.raises(ValueError, match="must sum to 100"):
            run()


def test_argmax_matches_gold_decoder_exhaustive_small():
    for t in range(1, 6):
        for tags in itertools.product((B, I, O), repeat=t):
            expected = decode_gold_tags(list(tags), TagScheme.BIO)
            got = argmax_decode(one_hot(tags))
            assert got == expected, tags


def test_argmax_uniform_rows_tie_break():
    # ties resolve toward B, so every frame starts a one-frame segment
    probs = np.full((4, 3), 100 / 3)
    assert argmax_decode(probs) == [Segment(i, i + 1) for i in range(4)]


def test_argmax_no_opener():
    assert argmax_decode(one_hot([O, O, O])) == []


def test_decode_dispatch():
    probs = one_hot([O, B, I, O])
    thresh = DecodeParams(mode=DecodeMode.THRESHOLD)
    amax = DecodeParams(mode=DecodeMode.ARGMAX)
    assert decode(probs, thresh) == decode(probs, amax) == [Segment(1, 3)]


@st.composite
def prob_streams(draw):
    t = draw(st.integers(0, 24))
    raw = draw(st.lists(
        st.tuples(st.floats(0.001, 1), st.floats(0.001, 1), st.floats(0.001, 1)),
        min_size=t, max_size=t))
    arr = np.array(raw, dtype=float).reshape(t, 3)
    return 100.0 * arr / arr.sum(axis=1, keepdims=True) if t else np.zeros((0, 3))


@given(prob_streams())
def test_greedy_output_well_formed(probs):
    segs = greedy_decode(probs, DEFAULTS)
    prev_end = 0
    for seg in segs:
        assert 0 <= seg.start < seg.end <= len(probs)
        assert seg.start >= prev_end
        prev_end = seg.end


def test_threshold_b_count_is_not_monotone():
    # Raising threshold_b CAN increase the segment count: below every b the
    # close gate never arms and one long segment survives, while a higher
    # threshold arms it mid-stream and later spikes split the stream.
    probs = rows((33, 34, 33), (20, 40, 40), (33, 34, 33), (33, 34, 33))
    assert len(greedy_decode(probs, DecodeParams(threshold_b=11))) == 1
    assert len(greedy_decode(probs, DecodeParams(threshold_b=21))) == 2


def perfect_at_fifty_fixture():
    # gold [2,5) of 8 frames; (50,50) is the unique perfect grid cell:
    # outside b=45 makes any threshold_b <= 40 open early and never close,
    # the opener 60 clears only threshold_b <= 50, interior o=45 closes
    # prematurely for threshold_o <= 40, and the boundary o=55 only clears
    # threshold_o = 50.
    probs = rows(
        (45, 0, 55), (45, 0, 55),
        (60, 30, 10), (40, 15, 45), (40, 15, 45),
        (45, 0, 55), (45, 0, 55), (45, 0, 55),
    )
    return probs, [Segment(2, 5)]


def test_tune_returns_default_pair_on_constructed_fixture():
    probs, gold = perfect_at_fifty_fixture()
    tb, to, table = tune_thresholds([(probs, gold)])
    assert (tb, to) == (50, 50)
    assert len(table) == len(list(DEFAULT_GRID)) ** 2 == 81
    best = next(c for c in table if (c.threshold_b, c.threshold_o) == (50, 50))
    assert best.iou == 1.0
    assert best.percentage == 1.0


def test_tune_rejects_empty_dev_and_empty_gold():
    with pytest.raises(ValueError, match="empty"):
        tune_thresholds([])
    with pytest.raises(ValueError, match="gold"):
        tune_thresholds([(one_hot([O, O]), [])])


def test_tune_table_is_full_grid():
    probs, gold = perfect_at_fifty_fixture()
    _, _, table = tune_thresholds([(probs, gold)])
    pairs = {(c.threshold_b, c.threshold_o) for c in table}
    assert pairs == set(itertools.product(range(10, 91, 10), repeat=2))


def row_loop_greedy_decode(probs, params):
    """The threshold decoder reading numpy rows a frame at a time, kept as the reference."""
    tb, to = params.threshold_b, params.threshold_o
    out = []
    start = None
    did_pass = False
    for t in range(len(probs)):
        b, o = probs[t, B], probs[t, O]
        if start is None:
            if b > tb:
                start = t
                did_pass = False
            continue
        if not did_pass and b < tb:
            did_pass = True
        if did_pass and (b > tb or o > to):
            out.append(Segment(start, t))
            start = None
            did_pass = False
            if params.strict_bio and b > tb:
                start = t
    if start is not None:
        out.append(Segment(start, len(probs)))
    return out


def row_loop_tune_thresholds(dev_set, strict_bio):
    """tune_thresholds over row_loop_greedy_decode, kept as the reference."""
    n_gold = sum(len(g) for _, g in dev_set)
    table, best, best_key = [], None, None
    for tb, to in itertools.product(DEFAULT_GRID, repeat=2):
        params = DecodeParams(tb, to, DecodeMode.THRESHOLD, strict_bio)
        inter = union = n_pred = 0
        for probs, gold in dev_set:
            pred = row_loop_greedy_decode(probs, params)
            pmask, gmask = _frame_mask(pred, len(probs)), _frame_mask(gold, len(probs))
            inter += int((pmask & gmask).sum())
            union += int((pmask | gmask).sum())
            n_pred += len(pred)
        iou = inter / union if union else 1.0
        pct = n_pred / n_gold
        table.append(TuneCell(tb, to, iou, pct))
        key = (-iou, abs(pct - 1.0), tb, to)
        if best_key is None or key < best_key:
            best_key, best = key, (tb, to)
    return best[0], best[1], table


def random_rows(rng, t, on_grid):
    """(T, 3) rows summing to 100; on_grid puts B and O on the threshold grid's steps."""
    if on_grid:
        b = rng.integers(0, 11, size=t) * 10.0
        o = np.minimum(rng.integers(0, 11, size=t) * 10.0, 100.0 - b)
        return np.stack([b, 100.0 - b - o, o], axis=1)
    p = rng.random((t, 3)) ** 3
    return p / p.sum(axis=1, keepdims=True) * 100.0


@pytest.mark.parametrize("strict_bio", [False, True])
def test_greedy_decode_matches_the_row_loop_on_every_grid_cell(strict_bio):
    rng = np.random.default_rng(29)
    dev = []
    for t, on_grid in [(0, False), (1, True), (40, True), (40, False), (300, False), (300, True)]:
        probs = random_rows(rng, t, on_grid)
        dev.append((probs, decode_gold_tags(probs.argmax(axis=1).tolist(), TagScheme.BIO)))
    for tb, to in itertools.product(DEFAULT_GRID, repeat=2):
        params = DecodeParams(tb, to, DecodeMode.THRESHOLD, strict_bio)
        for probs, _ in dev:
            assert greedy_decode(probs, params) == row_loop_greedy_decode(probs, params)
    assert (tune_thresholds(dev, strict_bio=strict_bio)
            == row_loop_tune_thresholds(dev, strict_bio))


@pytest.mark.parametrize("seed", range(12))
def test_tune_picks_the_running_minimum_among_tied_cells(seed):
    # B and O take three values each, so whole bands of thresholds decode
    # alike: the best IoU and percentage are tied and the thresholds decide
    rng = np.random.default_rng(seed)
    dev = []
    for t in rng.integers(1, 30, size=3):
        b = rng.choice([0.0, 40.0, 80.0], size=t)
        o = np.minimum(rng.choice([0.0, 15.0, 55.0], size=t), 100.0 - b)
        probs = np.stack([b, 100.0 - b - o, o], axis=1)
        gold = decode_gold_tags(rng.integers(0, 3, size=t).tolist(), TagScheme.BIO)
        dev.append((probs, gold or [Segment(0, 1)]))
    tb, to, table = tune_thresholds(dev)
    assert (tb, to, table) == row_loop_tune_thresholds(dev, False)
    best = next(c for c in table if (c.threshold_b, c.threshold_o) == (tb, to))
    assert sum((c.iou, c.percentage) == (best.iou, best.percentage) for c in table) > 1
