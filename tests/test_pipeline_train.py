import json
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from signseg import pipeline
from signseg.pipeline import PipelineOptions, parse_feature_flags, prepare_features, prepare_pose
from signseg.pose import (
    PointSelector, PoseComponent, holistic_components, make_pose, named_selector,
    normalize_pose, parse_pose, resample_fps, save_pose, select_points, serialize_pose,
)
from signseg.synthetic import motion_pose, write_clip_dir
from signseg.tagger import ADAM_BLOCK, TaggerConfig, _cached_forward, init_model
from signseg.numutil import round_half_away
from signseg.tags import (B, O, SEGMENTS_TIERS, TagScheme, encode_tags, load_segments,
                          parse_segments, save_segments)
from signseg.train import (
    ClipData,
    corpus_class_weights,
    list_pairs,
    load_clip,
    load_corpus,
    mean_frame_f1,
    train,
)


def test_options_validation():
    with pytest.raises(ValueError, match="fps"):
        PipelineOptions(fps=0.0)
    with pytest.raises(ValueError, match="unknown feature"):
        PipelineOptions(features=("flow", "wavelets"))


@pytest.mark.parametrize("fps", [True, 0, -25.0, float("nan"), float("inf"), 10**400],
                         ids=["bool", "zero", "negative", "nan", "inf", "huge-int"])
def test_one_fps_rule(fps):
    # every place that takes a frame rate rejects the same values
    comps = holistic_components()[:1]
    k = len(comps[0].points)
    good = make_pose(25.0, comps, np.zeros((1, k, 3)), np.ones((1, k)))
    doc = json.loads(serialize_pose(good))
    with pytest.raises(ValueError, match="fps"):
        make_pose(fps, comps, good.coords, good.conf)
    with pytest.raises(ValueError, match="fps"):
        serialize_pose(replace(good, fps=fps))
    with pytest.raises(ValueError, match="fps"):
        parse_pose(json.dumps(dict(doc, fps=fps)))
    with pytest.raises(ValueError, match="fps"):
        parse_segments(json.dumps({"fps": fps, "tiers": {}}))
    with pytest.raises(ValueError, match="fps"):
        PipelineOptions(fps=fps)


def test_parse_feature_flags():
    assert parse_feature_flags("") == ()
    assert parse_feature_flags("flow") == ("flow",)
    assert parse_feature_flags("flow,handnorm") == ("flow", "handnorm")


def test_feature_widths_compact_skeleton():
    seq, _ = motion_pose(seed=0, num_frames=12)
    # 7 body + 2x21 hand points; x,y,z plus flow per point
    assert prepare_features(seq, PipelineOptions()).values.shape[1] == 196
    assert prepare_features(seq, PipelineOptions(features=())).values.shape[1] == 147
    wide = prepare_features(seq, PipelineOptions(features=("flow", "handnorm")))
    assert wide.values.shape[1] == 196 + 126


def test_feature_width_holistic_skeleton():
    comps = holistic_components()
    total = sum(len(c.points) for c in comps)
    rng = np.random.default_rng(3)
    coords = rng.normal(size=(4, total, 3))
    seq = make_pose(25.0, comps, coords, np.ones((4, total)))
    # normalization drops the 10 leg points: 75 selected -> 65 live
    feats = prepare_features(seq, PipelineOptions())
    assert feats.values.shape[1] == 260


def prepared(prepare, seq, opts):
    """Every bit of a prepared pose, or the error message."""
    try:
        out = prepare(seq, opts)
    except ValueError as e:
        return "rejects", str(e)
    return ("reads", type(out.fps), out.fps, out.components,
            [(a.dtype.str, a.shape, a.strides, a.tobytes()) for a in (out.coords, out.conf)])


def three_steps(seq, opts):
    """prepare_pose as resample_fps, normalize_pose and select_points, each whole."""
    out = normalize_pose(resample_fps(seq, opts.fps))
    return select_points(out, pipeline.named_selector(opts.selector))


_CUSTOM_ENTRIES = [("BODY", None), ("BODY", "LEFT_HIP"), ("BODY", "NOSE"), ("LEFT_HAND", None),
                   ("FACE", "FACE_3"), ("RIGHT_HAND", "T_TIP"), ("LEGS", None), ("FACE", None)]


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_prepare_pose_matches_resample_normalize_select(data):
    draw = data.draw
    comps = list(holistic_components())
    if draw(st.booleans()):  # a component made only of leg points
        legs = PoseComponent("LEGS", ("LEFT_HIP", "RIGHT_KNEE", "LEFT_FOOT_INDEX"))
        comps.insert(draw(st.integers(0, len(comps))), legs)
    if draw(st.integers(0, 4)) == 0:
        comps[-1] = PoseComponent(comps[-1].name, ("LEFT_ANKLE", "RIGHT_HEEL"))
    if draw(st.integers(0, 4)) == 0:
        comps = [c for c in comps if c.name != "FACE"]
    k = sum(len(c.points) for c in comps)
    t = draw(st.sampled_from([5, 3, 1, 6, 2, 0]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    coords = rng.normal(size=(t, k, 3))
    conf = rng.random((t, k))
    conf[rng.random((t, k)) < 0.3] = 0.0
    seq = make_pose(draw(st.sampled_from([25, 25.0, 30, 12.5, 50, 29.97])), comps, coords, conf)
    body = [i for i, p in enumerate(p for c in comps for p in c.points) if "SHOULDER" in p]
    shoulders = draw(st.sampled_from(["tracked"] * 3 + ["untracked", "zero-distance"]))
    if shoulders == "untracked":
        seq.conf[:, body[draw(st.integers(0, 1))]] = 0.0
    else:
        seq.conf[:1, body] = 1.0  # every resampling keeps frame 0
    if shoulders == "zero-distance":
        seq.coords[:, body[1]] = seq.coords[:, body[0]]
    opts = PipelineOptions(fps=draw(st.sampled_from([25.0, 30.0, 12.5])),
                           selector=draw(st.sampled_from(["body75", "face-contour-128"])))
    if draw(st.booleans()):
        assert prepared(prepare_pose, seq, opts) == prepared(three_steps, seq, opts)
        return
    entries = draw(st.lists(st.sampled_from(_CUSTOM_ENTRIES), min_size=1, max_size=4))
    selector = PointSelector("custom", tuple(entries))
    pipeline.named_selector = lambda name: selector
    try:
        assert prepared(prepare_pose, seq, opts) == prepared(three_steps, seq, opts)
    finally:
        pipeline.named_selector = named_selector


@pytest.mark.parametrize("fps", [25.0, 12.5])
def test_prepare_pose_takes_a_pose_with_no_frames_to_one_with_none(fps):
    seq, _ = motion_pose(seed=0, num_frames=2)
    empty = make_pose(25.0, seq.components, np.zeros((0, seq.num_points, 3)),
                      np.zeros((0, seq.num_points)))
    out, want = (prepare_pose(s, PipelineOptions(fps)) for s in (empty, seq))
    assert (out.fps, out.components) == (want.fps, want.components)
    assert (out.coords.shape, out.conf.shape) == ((0, want.num_points, 3), (0, want.num_points))


def write_one_clip(dirpath, stem, seed=0, fps=25.0):
    seq, tiers = motion_pose(seed=seed, fps=fps, num_frames=80)
    save_pose(dirpath / f"{stem}.pose.json", seq)
    save_segments(dirpath / f"{stem}.segments.json", fps, tiers)
    return tiers


def test_list_pairs_ordering(tmp_path):
    write_one_clip(tmp_path, "b", seed=1)
    write_one_clip(tmp_path, "a", seed=2)
    pairs = list_pairs(tmp_path)
    assert [stem for stem, _, _ in pairs] == ["a", "b"]


def test_list_pairs_unpaired(tmp_path):
    write_one_clip(tmp_path, "good")
    (tmp_path / "stray.pose.json").write_text("{}")
    with pytest.raises(ValueError, match="unpaired clips.*stray"):
        list_pairs(tmp_path)


def test_list_pairs_empty_dir(tmp_path):
    with pytest.raises(ValueError, match="no .*clips"):
        list_pairs(tmp_path)


def test_load_clip_tags_match_segment_files(tmp_path):
    tiers = write_one_clip(tmp_path, "clip", seed=4)
    (stem, pose_path, seg_path) = list_pairs(tmp_path)[0]
    clip = load_clip(stem, pose_path, seg_path, PipelineOptions())
    t = clip.features.shape[0]
    for tier, segs in tiers.items():
        np.testing.assert_array_equal(clip.gold[tier],
                                      encode_tags(segs, t, TagScheme.BIO))


def test_load_clip_retimes_gold(tmp_path):
    write_one_clip(tmp_path, "clip", seed=5, fps=50.0)
    (stem, pose_path, seg_path) = list_pairs(tmp_path)[0]
    clip = load_clip(stem, pose_path, seg_path, PipelineOptions(fps=25.0))
    _, tiers = load_segments(seg_path)
    # 50 -> 25 halves both the clip and the annotation timeline
    assert clip.features.shape[0] == 40
    first = round_half_away(min(s.start for s in tiers["sign"]) * 25.0 / 50.0)
    assert clip.gold["sign"][:first] == [O] * first
    assert clip.gold["sign"][first] == B
    assert len(clip.gold["sign"]) == 40


def test_load_corpus_rejects_mixed_widths(tmp_path):
    write_one_clip(tmp_path, "normal")
    comps = holistic_components()
    total = sum(len(c.points) for c in comps)
    rng = np.random.default_rng(0)
    seq = make_pose(25.0, comps, rng.normal(size=(6, total, 3)), np.ones((6, total)))
    save_pose(tmp_path / "wide.pose.json", seq)
    save_segments(tmp_path / "wide.segments.json", 25.0, {"sign": [], "phrase": []})
    with pytest.raises(ValueError, match="feature width"):
        load_corpus(tmp_path, PipelineOptions())


def tiny_corpus(tmp_path, n=3):
    write_clip_dir(tmp_path, seeds=range(n))
    clips = load_corpus(tmp_path, PipelineOptions())
    cfg = TaggerConfig(input_dim=clips[0].features.shape[1], hidden_dim=8, layers=1,
                       class_weights=corpus_class_weights(clips), seed=0)
    return clips, cfg


def test_training_holds_float32_features_and_copies_none(tmp_path):
    # the tagger's precision: its cached forward keeps the clip's own array
    clips, cfg = tiny_corpus(tmp_path, n=1)
    features = clips[0].features
    assert features.dtype == np.float32
    cache = _cached_forward(init_model(cfg), features)[1]
    assert np.shares_memory(cache["x"], features)


def test_corpus_class_weights_shape(tmp_path):
    clips, cfg = tiny_corpus(tmp_path)
    for tier in ("sign", "phrase"):
        w = cfg.class_weights[tier]
        assert len(w) == 3 and all(v > 0 for v in w)


def test_mean_frame_f1_range(tmp_path):
    clips, cfg = tiny_corpus(tmp_path)
    assert 0.0 <= mean_frame_f1(init_model(cfg), clips) <= 1.0


def test_train_honors_max_steps(tmp_path):
    clips, cfg = tiny_corpus(tmp_path)
    result = train(init_model(cfg), clips, clips, max_steps=5, patience=0)
    assert result.steps == 5
    assert result.stopped == "max_steps"
    assert result.history[-1].val_f1 is not None  # evaluated at the cap


def test_train_early_stops_when_nothing_improves(tmp_path):
    clips, cfg = tiny_corpus(tmp_path)
    frozen = TaggerConfig(input_dim=cfg.input_dim, hidden_dim=8, layers=1,
                          learning_rate=0.0, class_weights=cfg.class_weights)
    result = train(init_model(frozen), clips, clips, max_steps=0, patience=2)
    assert result.stopped == "early"
    # first eval sets the best; two flat evals end epoch 3
    assert result.steps == 3 * len(clips)
    assert result.best_step == len(clips)


def test_train_returns_best_parameters(tmp_path):
    clips, cfg = tiny_corpus(tmp_path)
    result = train(init_model(cfg), clips, clips, max_steps=3 * len(clips), patience=0)
    assert mean_frame_f1(result.model, clips) == pytest.approx(result.best_val_f1)


def test_train_copies_the_best_parameters_only_before_the_last_step(tmp_path):
    clips, cfg = tiny_corpus(tmp_path)
    model = init_model(cfg)
    # one epoch: the only evaluation is at the step cap, so it is the best
    result = train(model, clips, clips, max_steps=len(clips), patience=0)
    assert result.best_step == result.steps
    assert all(result.model.params[k] is a for k, a in model.params.items())
    # frozen weights: the first evaluation stays the best, and steps follow it
    frozen = init_model(replace(cfg, learning_rate=0.0))
    result = train(frozen, clips, clips, max_steps=0, patience=1)
    assert result.best_step < result.steps
    assert not any(result.model.params[k] is a for k, a in frozen.params.items())


def test_train_holds_one_gradient_set():
    """A step holds m, v and one gradient set beside the parameters; a best
    copy, where one is taken, comes at an evaluation, after the gradients are
    freed."""
    cfg = TaggerConfig(input_dim=6, hidden_dim=96, layers=1, seed=0)
    model = init_model(cfg)
    params = sum(a.nbytes for a in model.params.values())  # 1.2 MB
    rng = np.random.default_rng(0)
    t_len = 8
    clip = ClipData("c", rng.normal(size=(t_len, cfg.input_dim)),
                    {tier: rng.integers(0, 3, size=t_len).tolist() for tier in SEGMENTS_TIERS})
    itemsize = model.params["proj.W"].itemsize  # float32, the dtype training runs in
    scratch = 2 * ADAM_BLOCK * itemsize  # Adam's two chunk rows
    tracemalloc.start()
    try:
        train(model, [clip], [clip], max_steps=1, patience=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # m, v and the gradients, plus scratch and a quarter set for the
    # 8-frame backprop cache: room for no fourth parameter-sized array
    assert peak < 3.25 * params + scratch


def test_train_input_validation(tmp_path):
    clips, cfg = tiny_corpus(tmp_path, n=1)
    model = init_model(cfg)
    with pytest.raises(ValueError, match="training set"):
        train(model, [], clips)
    with pytest.raises(ValueError, match="validation set"):
        train(model, clips, [])
    with pytest.raises(ValueError, match="max_steps or patience"):
        train(model, clips, clips, max_steps=0, patience=0)
    # a negative cap or patience is no "off"
    with pytest.raises(ValueError, match=r"^max_steps must be >= 0 \(0 = off\)$"):
        train(model, clips, clips, max_steps=-3, patience=2)
    with pytest.raises(ValueError, match=r"^patience must be >= 0 \(0 = off\)$"):
        train(model, clips, clips, max_steps=5, patience=-1)
    with pytest.raises(ValueError, match="val_every"):
        train(model, clips, clips, max_steps=1, val_every=0)

