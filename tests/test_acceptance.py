"""Acceptance gate: one test per criterion, each with its runtime budget.

Every test prints a single PASS line with the measured values once its
assertions hold; pytest -v therefore shows one line per criterion.
"""

import itertools
import json
import time

import numpy as np

from signseg import cli
from signseg.decoding import DEFAULT_GRID, DecodeMode, DecodeParams, decode, greedy_decode, tune_thresholds
from signseg.hands import Handedness, HandPose, cce, hand_normalize, mace
from signseg.metrics import frame_f1, percentage, roc_auc_o, segment_iou
from signseg.synthetic import adjacency_corpus, adjacency_rate, hand_template, scattered_copies, write_clip_dir
from signseg.tagger import TaggerConfig, gradient_check, init_model
from signseg.tags import (B, I, O, Segment, TagScheme, decode_gold_tags, decode_tags,
                          encode_tags, fidelity_experiment, load_segments)


def test_criterion_1_bio_io_fidelity():
    start = time.perf_counter()
    corpus = adjacency_corpus(num_segments=1000, junction_stride=10, seed=0)
    rate = adjacency_rate(corpus)
    rows = {r.scheme: r for r in fidelity_experiment(corpus, 50.0, [25.0])}
    bio = rows[TagScheme.BIO].reproduced
    io = rows[TagScheme.IO].reproduced
    elapsed = time.perf_counter() - start
    assert bio >= 0.99
    assert bio > io
    assert (1.0 - io) + 1e-12 >= rate
    assert elapsed < 5.0
    print(f"PASS 1: bio={bio:.4f} io={io:.4f} adjacency_rate={rate:.4f} "
          f"elapsed={elapsed:.2f}s")


def all_segment_sets(num_frames, start=0):
    yield []
    for s in range(start, num_frames):
        for e in range(s + 1, num_frames + 1):
            for rest in all_segment_sets(num_frames, e):
                yield [Segment(s, e)] + rest


def bio_sequence_count(num_frames):
    # strings over {O,B,I} where I needs a live segment; two-state recurrence
    ended, open_ = 1, 0
    for _ in range(num_frames):
        ended, open_ = ended + open_, (ended + open_) + open_
    return ended + open_ if num_frames else 1


def test_criterion_2_codec_exhaustive_roundtrip():
    start = time.perf_counter()
    checked = failures = 0
    for t in range(0, 11):
        count = 0
        for segs in all_segment_sets(t):
            count += 1
            tags = encode_tags(segs, t, TagScheme.BIO)
            decoded, repairs = decode_tags(tags, TagScheme.BIO)
            if decoded != segs or repairs != 0:
                failures += 1
        assert count == bio_sequence_count(t)  # independent enumeration size
        checked += count
    elapsed = time.perf_counter() - start
    assert failures == 0
    assert checked == 17711
    assert elapsed < 30.0
    print(f"PASS 2: sets={checked} failures={failures} elapsed={elapsed:.2f}s")


def one_hot_probs(tags):
    probs = np.zeros((len(tags), 3))
    for t, tag in enumerate(tags):
        probs[t, tag] = 100.0
    return probs


def test_criterion_3_decoder_conformance():
    start = time.perf_counter()
    argmax_params = DecodeParams(mode=DecodeMode.ARGMAX)
    argmax_checked = 0
    for t in range(0, 9):
        for tags in itertools.product((B, I, O), repeat=t):
            expect = decode_gold_tags(list(tags), TagScheme.BIO)
            assert decode(one_hot_probs(tags), argmax_params) == expect
            argmax_checked += 1
    assert argmax_checked == 9841  # sum of 3^t for t <= 8

    greedy_checked = quirks = 0
    for t in range(0, 9):
        t_quirks = 0
        for segs in all_segment_sets(t):
            tags = encode_tags(segs, t, TagScheme.BIO)
            decoded = greedy_decode(one_hot_probs(tags), DecodeParams())
            adjacent = any(a.end == b.start for a, b in zip(segs, segs[1:]))
            if adjacent:
                assert decoded != segs  # documented quirk: consumed/merged B
                t_quirks += 1
            else:
                assert decoded == segs
            greedy_checked += 1
        # exactly the back-to-back cases deviate: 2^t sets are adjacency-free
        assert t_quirks == (bio_sequence_count(t) - 2 ** t if t else 0)
        quirks += t_quirks
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    print(f"PASS 3: argmax={argmax_checked} greedy={greedy_checked} "
          f"quirk_cases={quirks} elapsed={elapsed:.2f}s")


def test_criterion_4_gradient_check():
    start = time.perf_counter()
    worsts = []
    for seed in range(3):
        rng = np.random.default_rng(seed)
        cfg = TaggerConfig(input_dim=6, hidden_dim=8, layers=2, seed=seed)
        model = init_model(cfg)
        feats = rng.normal(size=(5, 6))
        gold = {"sign": rng.integers(0, 3, 5).tolist(),
                "phrase": rng.integers(0, 3, 5).tolist()}
        worsts.append(gradient_check(model, feats, gold))
    elapsed = time.perf_counter() - start
    assert max(worsts) < 1e-4
    assert elapsed < 60.0
    print(f"PASS 4: max_rel_err={max(worsts):.2e} seeds=3 elapsed={elapsed:.2f}s")


def test_criterion_5_overfit_and_end_to_end(tmp_path):
    start = time.perf_counter()
    clips = tmp_path / "clips"
    write_clip_dir(clips, seeds=range(4))  # 4 sequences, 100 frames each
    out = tmp_path / "run"
    rc = cli.main(["train", "--data-dir", str(clips), "--out-dir", str(out),
                   "--max-steps", "500"])
    assert rc == 0
    results = json.loads((out / "train.run.json").read_text())["options"]["results"]
    assert results["steps"] <= 500
    assert results["train_f1"] >= 0.99

    pose = str(sorted(clips.glob("*.pose.json"))[0])
    seg_out = tmp_path / "decoded"
    rc = cli.main(["segment", pose, "--checkpoint", str(out / "model.ckpt"),
                   "--out-dir", str(seg_out)])
    assert rc == 0
    stem = pose.rsplit("/", 1)[-1][: -len(".pose.json")]
    _, pred = load_segments(seg_out / f"{stem}.segments.json")
    _, gold = load_segments(clips / f"{stem}.segments.json")
    scores = {}
    for tier in ("sign", "phrase"):
        iou = segment_iou(pred[tier], gold[tier], 100)
        pct = percentage(pred[tier], gold[tier])
        assert iou >= 0.95, (tier, iou)
        assert 0.9 <= pct <= 1.1, (tier, pct)
        scores[tier] = (iou, pct)
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0
    print(f"PASS 5: train_f1={results['train_f1']:.4f} steps={results['steps']} "
          f"sign_iou={scores['sign'][0]:.4f} phrase_iou={scores['phrase'][0]:.4f} "
          f"elapsed={elapsed:.1f}s")


def test_criterion_6_hand_normalization_invariance():
    start = time.perf_counter()
    rng = np.random.default_rng(11)
    shapes = [hand_template()]
    while len(shapes) < 10:
        shapes.append(hand_template() + rng.normal(size=(21, 3)) * 0.03)
    worst = 0.0
    for i, shape in enumerate(shapes):
        base = hand_normalize(HandPose(shape, Handedness.RIGHT)).points
        members = [HandPose(pts, Handedness.RIGHT)
                   for pts in scattered_copies(shape, 100, seed=100 + i)]
        for member in members:
            diff = np.abs(hand_normalize(member).points - base)
            worst = max(worst, float(diff.max()))
        assert mace(members) < 1e-6

        shifted = [HandPose(shape + rng.normal(size=3) * 5.0, Handedness.RIGHT)
                   for _ in range(4)]
        assert cce(shifted) <= 1e-9
        scaled = [HandPose(shape, Handedness.RIGHT), HandPose(shape * 2.0, Handedness.RIGHT)]
        assert cce(scaled) > 0.01
    elapsed = time.perf_counter() - start
    assert worst < 1e-6
    assert elapsed < 5.0
    print(f"PASS 6: shapes=10 transforms=100 max_coord_err={worst:.2e} "
          f"elapsed={elapsed:.2f}s")


def pair_count_auc(scores, gold):
    pos = scores[gold == O]
    neg = scores[gold != O]
    wins = (pos[:, None] > neg[None, :]).sum() + 0.5 * (pos[:, None] == neg[None, :]).sum()
    return float(wins) / (len(pos) * len(neg))


def test_criterion_7_metric_oracles():
    start = time.perf_counter()
    iou = segment_iou([Segment(5, 15)], [Segment(0, 10)], 20)
    assert abs(iou - 1 / 3) <= 1e-12

    f1 = frame_f1([O, O, O, O, O], [O, O, B, I, O])
    assert abs(f1 - 0.25) <= 1e-12

    rng = np.random.default_rng(23)
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(2, 51))
        if rng.random() < 0.5:
            scores = rng.integers(0, 6, n).astype(float)  # heavy ties
        else:
            scores = rng.random(n)
        gold = np.full(n, I)
        gold[rng.permutation(n)[: int(rng.integers(1, n))] ] = O
        worst = max(worst, abs(roc_auc_o(scores, gold) - pair_count_auc(scores, gold)))
    elapsed = time.perf_counter() - start
    assert worst <= 1e-12
    print(f"PASS 7: iou_err={abs(iou - 1/3):.1e} f1_err={abs(f1 - 0.25):.1e} "
          f"auc_fixtures=1000 max_auc_err={worst:.1e} elapsed={elapsed:.2f}s")


def over_segmenting_fixture():
    """Two long gold spans whose interiors carry periodic B spikes.

    At (50, 50) the spikes chop each span into short pieces; only a high
    threshold_b ignores them, and the O boundary then closes the span.
    """
    outside, opener = (2.0, 8.0, 90.0), (95.0, 3.0, 2.0)
    dip1, dip2 = (15.0, 80.0, 5.0), (5.0, 90.0, 5.0)
    interior, spike = (20.0, 75.0, 5.0), (85.0, 10.0, 5.0)
    probs = np.zeros((80, 3))
    probs[:] = outside
    for base in (0, 40):
        probs[base:base + 30] = interior
        probs[base] = opener
        probs[base + 1] = dip1
        probs[base + 2] = dip2
        for off in (5, 10, 15, 20, 25):
            probs[base + off] = spike
    return probs, [Segment(0, 30), Segment(40, 70)]


def test_criterion_8_tuning_fixes_over_segmentation():
    start = time.perf_counter()
    probs, gold = over_segmenting_fixture()
    default = greedy_decode(probs, DecodeParams())
    default_pct_err = abs(percentage(default, gold) - 1.0)
    assert len(default) > len(gold)  # fixture really over-segments at (50,50)

    best_b, best_o, table = tune_thresholds([(probs, gold)], DEFAULT_GRID)
    best = next(c for c in table if (c.threshold_b, c.threshold_o) == (best_b, best_o))
    elapsed = time.perf_counter() - start
    assert abs(best.percentage - 1.0) < default_pct_err
    assert best_b >= 80
    assert elapsed < 30.0
    print(f"PASS 8: default_segments={len(default)} tuned=({best_b:g},{best_o:g}) "
          f"pct_err {default_pct_err:.2f}->{abs(best.percentage - 1.0):.2f} "
          f"elapsed={elapsed:.2f}s")
