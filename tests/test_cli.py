import csv
import json
import multiprocessing
import os
import pickle
import shutil
import subprocess
import sys
import venv
import warnings
import weakref
from pathlib import Path

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings

from signseg import cli, numutil, tagger
from signseg.pipeline import PipelineOptions
from signseg.pose import (HAND_POINTS, PoseComponent, component_columns, holistic_components,
                          make_pose, save_pose)
from signseg.synthetic import (UPPER_BODY_POINTS, hand_template, motion_pose, scattered_copies,
                               write_clip_dir)
from signseg.tags import O, Segment, load_segments, save_segments
from signseg.train import EpochRow

REPO_ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("clips")
    write_clip_dir(path, seeds=range(3))
    return path


@pytest.fixture(scope="module")
def train_dir(tmp_path_factory, corpus_dir):
    out = tmp_path_factory.mktemp("trained")
    rc = cli.main([
        "train", "--data-dir", str(corpus_dir), "--out-dir", str(out),
        "--hidden-dim", "8", "--layers", "1", "--max-steps", "30",
    ])
    assert rc == 0
    return out


@pytest.fixture(scope="module")
def checkpoint(train_dir):
    return str(train_dir / "model.ckpt")


def first_pose(corpus_dir):
    return str(sorted(corpus_dir.glob("*.pose.json"))[0])


def test_train_outputs(train_dir):
    assert (train_dir / "model.ckpt").exists()
    log = (train_dir / "training_log.csv").read_text(encoding="utf-8")
    assert log.splitlines()[0] == "epoch,step,train_loss,val_f1"
    manifest = json.loads((train_dir / "train.run.json").read_text(encoding="utf-8"))
    assert manifest["command"] == "train"
    results = manifest["options"]["results"]
    assert results["steps"] == 30
    assert 0.0 <= results["best_val_f1"] <= 1.0


def test_training_log_format(corpus_dir, tmp_path, monkeypatch):
    train = cli.training.train

    def with_history(*args, **kwargs):
        result = train(*args, **kwargs)
        result.history = [EpochRow(1, 3, 0.5, None), EpochRow(2, 6, 0.25, 1.0)]
        return result

    monkeypatch.setattr(cli.training, "train", with_history)
    assert cli.main(["train", "--data-dir", str(corpus_dir), "--out-dir", str(tmp_path),
                     "--hidden-dim", "4", "--layers", "1", "--max-steps", "1"]) == 0
    data = (tmp_path / "training_log.csv").read_bytes()
    assert b"\r" not in data
    lines = data.decode("utf-8").splitlines()
    assert lines[0] == "epoch,step,train_loss,val_f1"
    assert lines[1] == "1,3,0.500000,"
    assert lines[2] == "2,6,0.250000,1.000000"


# train's own checks report a run that overflows, and numpy warns of nothing
@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("learning_rate, steps, line", [
    # Adam's first update overflows float32, and no later step's loss shows it
    ("1e39", 1, "train: trained parameter proj.W holds a non-finite value"),
    ("1e300", 3, "train: non-finite training loss nan; aborting step"),
], ids=["parameter", "loss"])
def test_non_finite_training_writes_nothing(corpus_dir, tmp_path, capsys, learning_rate,
                                            steps, line):
    rc = cli.main(["train", "--data-dir", str(corpus_dir), "--out-dir", str(tmp_path / "out"),
                   "--hidden-dim", "4", "--layers", "1", "--max-steps", str(steps),
                   "--learning-rate", learning_rate])
    assert rc == 1
    assert capsys.readouterr().err == f"signseg train: {line}\n"
    assert not (tmp_path / "out").exists()


def test_train_rerun_is_byte_stable(corpus_dir, tmp_path):
    # dropout acts between layers, so its run has two
    for extra in (["--layers", "1"], ["--layers", "1", "--grad-clip", "0.5"],
                  ["--layers", "2", "--dropout", "0.3"]):
        argv = [
            "train", "--data-dir", str(corpus_dir), "--out-dir", str(tmp_path),
            "--hidden-dim", "8", "--max-steps", "10", *extra,
        ]
        assert cli.main(argv) == 0
        first = {name: (tmp_path / name).read_bytes()
                 for name in ("model.ckpt", "training_log.csv", "train.run.json")}
        assert cli.main(argv) == 0
        for name, blob in first.items():
            assert (tmp_path / name).read_bytes() == blob, (extra, name)


@pytest.mark.parametrize("separate_val", [False, True], ids=["no-val-dir", "val-dir"])
def test_train_runs_one_f1_pass_per_evaluation(corpus_dir, tmp_path, monkeypatch, capsys,
                                               separate_val):
    calls = []
    mean_frame_f1 = cli.training.mean_frame_f1

    def counting(model, clips):
        calls.append(len(clips))
        return mean_frame_f1(model, clips)

    monkeypatch.setattr(cli.training, "mean_frame_f1", counting)
    argv = ["train", "--data-dir", str(corpus_dir), "--out-dir", str(tmp_path),
            "--hidden-dim", "8", "--layers", "1", "--max-steps", "7"]
    if separate_val:  # the same clips, loaded again, so train F1 is a second pass
        argv += ["--val-dir", str(corpus_dir)]
    assert cli.main(argv) == 0
    log = (tmp_path / "training_log.csv").read_text(encoding="utf-8").splitlines()[1:]
    evaluations = sum(1 for row in log if not row.endswith(","))
    assert evaluations == 3
    assert len(calls) == evaluations + separate_val
    results = json.loads((tmp_path / "train.run.json").read_text(encoding="utf-8"))
    results = results["options"]["results"]
    assert results["train_f1"] == results["best_val_f1"]
    assert f"train_f1={results['train_f1']:.6f}" in capsys.readouterr().out


def test_train_runs_in_float32_and_reruns_byte_identically(corpus_dir, tmp_path, monkeypatch):
    dtypes = []  # (what, dtype) of every array a step reads or writes
    loss_and_grads, train_step = tagger.loss_and_grads, cli.training.train_step

    def recording_grads(*args, **kwargs):
        value, grads = loss_and_grads(*args, **kwargs)
        dtypes.extend(("grad", g.dtype) for g in grads.values())
        return value, grads

    def recording_step(model, features, gold, state, **kwargs):
        value = train_step(model, features, gold, state, **kwargs)
        dtypes.extend(("param", a.dtype) for a in model.params.values())
        dtypes.extend(("moment", a.dtype) for a in (*state.m.values(), *state.v.values()))
        return value

    monkeypatch.setattr(tagger, "loss_and_grads", recording_grads)
    monkeypatch.setattr(cli.training, "train_step", recording_step)
    argv = ["train", "--data-dir", str(corpus_dir), "--out-dir", str(tmp_path),
            "--hidden-dim", "8", "--layers", "2", "--max-steps", "4", "--dropout", "0.2"]
    runs = []
    for _ in range(2):
        assert cli.main(argv) == 0
        runs.append({name: (tmp_path / name).read_bytes()
                     for name in ("model.ckpt", "training_log.csv", "train.run.json")})
    assert runs[0] == runs[1]
    assert {what for what, _ in dtypes} == {"grad", "param", "moment"}
    assert {dtype for _, dtype in dtypes} == {np.dtype(np.float32)}


def test_train_rejects_a_val_set_of_another_width_before_any_step(corpus_dir, tmp_path,
                                                                  capsys, monkeypatch):
    # the validation clip's BODY has one point more, so its features are wider
    val_dir = tmp_path / "val"
    val_dir.mkdir()
    seq, tiers = motion_pose(0)
    body, *rest = seq.components
    k = len(body.points)
    wider = (PoseComponent(body.name, body.points + ("EXTRA",)), *rest)
    save_pose(val_dir / "clip000.pose.json",
              make_pose(seq.fps, wider, np.insert(seq.coords, k, seq.coords[:, 0], axis=1),
                        np.insert(seq.conf, k, seq.conf[:, 0], axis=1)))
    save_segments(val_dir / "clip000.segments.json", seq.fps, tiers)
    steps = []
    monkeypatch.setattr(cli.training, "train_step", lambda *args, **kw: steps.append(1))
    rc = cli.main(["train", "--data-dir", str(corpus_dir), "--val-dir", str(val_dir),
                   "--out-dir", str(tmp_path / "out"), "--hidden-dim", "4", "--layers", "1",
                   "--max-steps", "5"])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("signseg train: data: validation clips have feature width ")
    assert not steps


def test_segment_end_to_end(corpus_dir, checkpoint, tmp_path):
    poses = sorted(str(p) for p in corpus_dir.glob("*.pose.json"))[:2]
    rc = cli.main(["segment", *poses, "--checkpoint", checkpoint,
                   "--out-dir", str(tmp_path)])
    assert rc == 0
    for pose in poses:
        stem = pose.rsplit("/", 1)[-1][: -len(".pose.json")]
        fps, tiers = load_segments(tmp_path / f"{stem}.segments.json")
        assert fps == 25.0
        assert set(tiers) == {"sign", "phrase"}
        for tier in ("sign", "phrase"):
            text = (tmp_path / f"{stem}.{tier}.vtt").read_text(encoding="utf-8")
            assert text.startswith("WEBVTT\n")
    manifest = json.loads((tmp_path / "segment.run.json").read_text(encoding="utf-8"))
    assert manifest["inputs"] == poses
    assert len(manifest["outputs"]) == 6


def test_segment_rerun_and_workers_agree(corpus_dir, checkpoint, tmp_path):
    poses = sorted(str(p) for p in corpus_dir.glob("*.pose.json"))
    one = tmp_path / "w1"
    two = tmp_path / "w2"
    assert cli.main(["segment", *poses, "--checkpoint", checkpoint,
                     "--out-dir", str(one)]) == 0
    assert cli.main(["segment", *poses, "--checkpoint", checkpoint,
                     "--out-dir", str(two), "--workers", "3"]) == 0
    names = sorted(p.name for p in one.iterdir() if p.name != "segment.run.json")
    assert len(names) == 3 * len(poses)  # segments.json and a VTT per tier for each clip
    for name in names:
        assert (two / name).read_bytes() == (one / name).read_bytes(), name


class FakeBlas:
    """Stands in for numpy's OpenBLAS thread-count calls."""

    def __init__(self, threads):
        self.threads = threads

    def calls(self):
        return (lambda: self.threads), self.set

    def set(self, n):
        self.threads = n


@pytest.mark.parametrize("workers, items, pinned", [(2, 3, True), (1, 3, False), (2, 1, False)],
                         ids=["pool", "serial", "one-item"])
def test_map_files_pins_blas_only_in_the_pool(monkeypatch, workers, items, pinned):
    blas = FakeBlas(4)
    monkeypatch.setattr(numutil, "_openblas_threads", blas.calls)
    seen = cli._map_files(list(range(items)), lambda item: (item, blas.threads), workers)
    assert seen == [(item, 1 if pinned else 4) for item in range(items)]
    assert blas.threads == 4


def test_map_files_restores_blas_threads_when_a_worker_raises(monkeypatch):
    blas = FakeBlas(3)
    monkeypatch.setattr(numutil, "_openblas_threads", blas.calls)

    def worker(item):
        assert blas.threads == 1
        if item == 1:
            raise ValueError("bad item")
        return item

    with pytest.raises(ValueError, match="bad item"):
        cli._map_files([0, 1, 2], worker, 2)
    assert blas.threads == 3


@pytest.fixture
def openblas():
    calls = numutil._openblas_threads()
    if calls is None:
        pytest.skip("this numpy has no bundled scipy-openblas64 thread calls")
    get, set_ = calls
    before = get()
    yield get, set_
    set_(before)


def test_pool_runs_numpy_openblas_on_one_thread(openblas):
    get, set_ = openblas
    set_(2)
    assert cli._map_files([0, 1, 2, 3], lambda item: get(), 2) == [1, 1, 1, 1]
    assert get() == 2
    with pytest.raises(ZeroDivisionError):
        cli._map_files([0, 1], lambda item: 1 / item, 2)
    assert get() == 2


def test_segment_workers_without_openblas_calls(corpus_dir, checkpoint, tmp_path,
                                                monkeypatch):
    monkeypatch.setattr(numutil, "_openblas_threads", lambda: None)
    numutil.pin_one_blas_thread()  # a no-op
    poses = sorted(str(p) for p in corpus_dir.glob("*.pose.json"))
    one, two = tmp_path / "w1", tmp_path / "w2"
    assert cli.main(["segment", *poses, "--checkpoint", checkpoint,
                     "--out-dir", str(one)]) == 0
    assert cli.main(["segment", *poses, "--checkpoint", checkpoint,
                     "--out-dir", str(two), "--workers", "2"]) == 0
    for path in sorted(one.glob("*.segments.json")):
        assert (two / path.name).read_bytes() == path.read_bytes()


def test_importing_the_cli_looks_up_no_blas_library():
    code = ("import sys\n"
            "import signseg.cli\n"
            "from signseg import numutil\n"
            "assert numutil._openblas_threads.cache_info().currsize == 0\n"
            # nor the process pool's modules, which only --workers N needs
            "assert not {'multiprocessing', 'concurrent.futures.process'} & set(sys.modules)\n")
    env = {**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")}
    subprocess.run([sys.executable, "-c", code], check=True, env=env)


def test_stage_error_survives_pickling():
    e = pickle.loads(pickle.dumps(cli.StageError("parse", "malformed pose document")))
    assert type(e) is cli.StageError
    assert (e.stage, str(e)) == ("parse", "malformed pose document")


def segment_err(capsys, poses, checkpoint, out, workers):
    rc = cli.main(["segment", *poses, "--checkpoint", checkpoint, "--out-dir", str(out),
                   "--workers", str(workers)])
    return rc, capsys.readouterr().err.splitlines()[-1:]


def test_segment_workers_report_the_first_failing_file_in_input_order(corpus_dir, checkpoint,
                                                                      tmp_path, capsys):
    good = sorted(str(p) for p in corpus_dir.glob("*.pose.json"))
    text = Path(good[0]).read_text(encoding="utf-8")
    late = tmp_path / "late.pose.json"  # fails at its end, after the whole file is read
    late.write_text(text[:-2], encoding="utf-8")
    early = tmp_path / "early.pose.json"
    early.write_text('{"fps": 25, oops', encoding="utf-8")
    for poses, bad in (([good[0], str(early), good[1]], early),
                       ([str(late), str(early), good[1]], late)):
        out1, out2 = tmp_path / "w1", tmp_path / "w2"
        rc1, err1 = segment_err(capsys, poses, checkpoint, out1, 1)
        rc2, err2 = segment_err(capsys, poses, checkpoint, out2, 2)
        assert rc1 == rc2 == 1
        assert err1 == err2
        assert err1[0].startswith(f"signseg segment: parse: {bad}: malformed pose")
        assert not out1.exists() and not out2.exists()
    # the second list's error is late's: the first failing file, not the first to fail
    assert segment_err(capsys, [str(late)], checkpoint, tmp_path / "late", 1)[1] == err2


def test_no_worker_outlives_segment(corpus_dir, checkpoint, tmp_path, capsys):
    poses = sorted(str(p) for p in corpus_dir.glob("*.pose.json"))
    bad = tmp_path / "bad.pose.json"
    bad.write_text("[", encoding="utf-8")
    assert segment_err(capsys, poses, checkpoint, tmp_path / "ok", 2)[0] == 0
    assert multiprocessing.active_children() == []
    assert segment_err(capsys, [*poses, str(bad)], checkpoint, tmp_path / "bad", 2)[0] == 1
    assert multiprocessing.active_children() == []


def test_segment_argmax_mode(corpus_dir, checkpoint, tmp_path):
    rc = cli.main(["segment", first_pose(corpus_dir), "--checkpoint", checkpoint,
                   "--out-dir", str(tmp_path), "--mode", "argmax"])
    assert rc == 0


def test_segment_empty_pose(corpus_dir, checkpoint, tmp_path):
    seq, _ = motion_pose(seed=0, num_frames=2)
    empty = make_pose(25.0, seq.components,
                      np.zeros((0, seq.num_points, 3)), np.zeros((0, seq.num_points)))
    pose_path = tmp_path / "empty.pose.json"
    save_pose(pose_path, empty)
    rc = cli.main(["segment", str(pose_path), "--checkpoint", checkpoint,
                   "--out-dir", str(tmp_path)])
    assert rc == 0
    _, tiers = load_segments(tmp_path / "empty.segments.json")
    assert tiers == {"sign": [], "phrase": []}
    assert (tmp_path / "empty.sign.vtt").read_text(encoding="utf-8") == "WEBVTT\n"


def test_an_empty_pose_meets_the_skeleton_checks(checkpoint, tmp_path, capsys):
    pose_path = tmp_path / "empty.pose.json"
    save_pose(pose_path, make_pose(25.0, (PoseComponent("BODY", ("NOSE",)),),
                                   np.zeros((0, 1, 3)), np.zeros((0, 1))))
    rc = cli.main(["segment", str(pose_path), "--checkpoint", checkpoint,
                   "--out-dir", str(tmp_path / "out")])
    assert rc == 1
    assert capsys.readouterr().err == (
        f"signseg segment: features: {pose_path}: pose has no point named 'LEFT_SHOULDER'\n")
    assert not (tmp_path / "out").exists()


def test_segment_frees_the_pose_before_forward(corpus_dir, checkpoint, tmp_path,
                                               monkeypatch):
    loaded, alive = [], []
    load_pose, forward = cli.load_pose, cli.forward

    def loading(path, *columns):
        seq = load_pose(path, *columns)
        loaded.append(weakref.ref(seq))
        return seq

    def checking(*args, **kwargs):
        alive.append(loaded[-1]() is not None)
        return forward(*args, **kwargs)

    monkeypatch.setattr(cli, "load_pose", loading)
    monkeypatch.setattr(cli, "forward", checking)
    assert cli.main(["segment", first_pose(corpus_dir), "--checkpoint", checkpoint,
                     "--out-dir", str(tmp_path)]) == 0
    assert alive == [False]


def test_segment_rejects_2d_pose(checkpoint, tmp_path, capsys):
    doc = {"version": "poseseq-json/1", "fps": 25.0,
           "components": [{"name": "BODY", "points": ["NOSE"]}],
           "frames": [[[0.1, 0.2, 1.0]]]}
    bad = tmp_path / "flat.pose.json"
    bad.write_text(json.dumps(doc), encoding="utf-8")
    rc = cli.main(["segment", str(bad), "--checkpoint", checkpoint,
                   "--out-dir", str(tmp_path)])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith(f"signseg segment: parse: {bad}: ")
    assert "z" in err


@pytest.mark.parametrize("frames_text", [
    "[[[1" + "0" * 400 + ", 0.0, 0.0, 1.0]]]",  # an int too large for a float
    "[" * 100_000 + "]" * 100_000,  # nesting too deep for the decoder
], ids=["int-too-large", "nested-too-deep"])
def test_segment_reports_unconvertible_pose_as_parse_error(checkpoint, tmp_path, capsys,
                                                           frames_text):
    bad = tmp_path / "bad.pose.json"
    bad.write_text('{"version": "poseseq-json/1", "fps": 25.0, '
                   '"components": [{"name": "BODY", "points": ["NOSE"]}], '
                   '"frames": ' + frames_text + "}", encoding="utf-8")
    rc = cli.main(["segment", str(bad), "--checkpoint", checkpoint,
                   "--out-dir", str(tmp_path)])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith(f"signseg segment: parse: {bad}: malformed pose document")


@pytest.mark.parametrize("names", [("a/x.pose.json", "b/x.pose.json"),
                                   ("a/x.pose.json", "a/x.json"),
                                   ("a/x.pose.json", "a/x.pose.json")])
def test_segment_rejects_inputs_that_share_a_stem(corpus_dir, checkpoint, tmp_path, capsys,
                                                 names):
    poses = []
    for name in names:
        path = tmp_path / name
        path.parent.mkdir(exist_ok=True)
        path.write_text("{", encoding="utf-8")  # reading it would be a parse error
        poses.append(str(path))
    out = tmp_path / "out"
    rc = cli.main(["segment", first_pose(corpus_dir), *poses, "--checkpoint", checkpoint,
                   "--out-dir", str(out)])
    assert rc == 1
    assert capsys.readouterr().err == (f"signseg segment: emit: {poses[0]} and {poses[1]} "
                                       "would both write x.segments.json\n")
    assert not out.exists()


def test_segment_missing_checkpoint(corpus_dir, tmp_path, capsys):
    rc = cli.main(["segment", first_pose(corpus_dir),
                   "--checkpoint", str(tmp_path / "nope.ckpt"),
                   "--out-dir", str(tmp_path)])
    assert rc == 1
    assert capsys.readouterr().err.startswith("signseg segment: checkpoint:")


@pytest.mark.parametrize("manifest", [
    "[]",
    '{"version": "tagger-ckpt/2"}',
    '{"version": "tagger-ckpt/2", "params": [], "param_count": 0, "checksum": "", '
    '"config": {"input_dim": 6, "hidden_dim": 4, "layers": 1, "bidirectional": true, '
    '"learning_rate": 0.01, "class_weights": [], "seed": 0, "dropout": 0.0, "grad_clip": 0.0}}',
], ids=["list", "missing-keys", "class-weights-list"])
@pytest.mark.parametrize("command", ["segment", "tune"])
def test_malformed_checkpoint_is_a_checkpoint_error(corpus_dir, tmp_path, capsys,
                                                    manifest, command):
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(manifest.encode() + b"\n")
    inputs = ([first_pose(corpus_dir)] if command == "segment"
              else ["--data-dir", str(corpus_dir), "--tier", "sign"])
    rc = cli.main([command, *inputs, "--checkpoint", str(bad), "--out-dir", str(tmp_path)])
    assert rc == 1
    assert capsys.readouterr().err.startswith(f"signseg {command}: checkpoint:")


def test_segment_feature_width_mismatch(corpus_dir, checkpoint, tmp_path, capsys):
    # the checkpoint reads flow features (196 wide); without flow there are 147 columns
    pose = first_pose(corpus_dir)
    rc = cli.main(["segment", pose, "--checkpoint", checkpoint,
                   "--out-dir", str(tmp_path / "out"), "--features", ""])
    assert rc == 1
    assert capsys.readouterr().err == (
        f"signseg segment: forward: {pose}: "
        "feature width 147 does not match model input_dim 196\n")
    assert not (tmp_path / "out").exists()


def test_segment_handnorm_on_a_hand_of_20_points_is_a_features_error(checkpoint, tmp_path,
                                                                     capsys):
    comps = (PoseComponent("BODY", UPPER_BODY_POINTS),
             PoseComponent("LEFT_HAND", HAND_POINTS[:20]), PoseComponent("RIGHT_HAND", HAND_POINTS))
    count = len(UPPER_BODY_POINTS) + 20 + 21
    pose = tmp_path / "short.pose.json"
    save_pose(pose, make_pose(25.0, comps, np.random.default_rng(0).random((5, count, 3)),
                              np.ones((5, count))))
    rc = cli.main(["segment", str(pose), "--checkpoint", checkpoint,
                   "--features", "flow,handnorm", "--out-dir", str(tmp_path / "out")])
    assert rc == 1
    assert (capsys.readouterr().err.splitlines()[-1]
            == f"signseg segment: features: {pose}: "
            "component 'LEFT_HAND' has 20 points, expected 21")
    assert not (tmp_path / "out").exists()


def test_tune_writes_grid(corpus_dir, checkpoint, tmp_path, capsys):
    rc = cli.main(["tune", "--data-dir", str(corpus_dir), "--checkpoint", checkpoint,
                   "--tier", "sign", "--out-dir", str(tmp_path)])
    out = capsys.readouterr().out
    assert rc == 0
    assert out.startswith("tier=sign threshold_b=")
    lines = (tmp_path / "tune_sign.csv").read_text(encoding="utf-8").splitlines()
    assert lines[0] == "threshold_b,threshold_o,iou,percentage"
    assert len(lines) == 1 + 81
    manifest = json.loads((tmp_path / "tune.run.json").read_text(encoding="utf-8"))
    results = manifest["options"]["results"]
    assert set(results) == {"threshold_b", "threshold_o", "iou", "percentage", "roc_auc_o"}
    assert out.rstrip("\n").endswith(f" roc_auc_o={results['roc_auc_o']:.6f}")
    # the O-tag ROC-AUC over every dev frame, by pair counting with ties half
    clips = cli.training.load_corpus(corpus_dir, PipelineOptions())
    probs = tagger.forward_clips(tagger.load_model(checkpoint), [c.features for c in clips])
    scores = np.concatenate([p["sign"][:, O] for p in probs])
    is_o = np.concatenate([c.gold["sign"] for c in clips]) == O
    diff = scores[is_o][:, None] - scores[~is_o][None, :]
    assert results["roc_auc_o"] == pytest.approx(
        float(np.mean((diff > 0) + 0.5 * (diff == 0))), abs=1e-12)


def test_tune_roc_auc_o_is_null_when_the_gold_has_one_class(corpus_dir, checkpoint,
                                                            tmp_path, capsys):
    # one sign over each whole clip: no gold frame is O
    data = tmp_path / "clips"
    shutil.copytree(corpus_dir, data)
    for path in data.glob("*.segments.json"):
        fps, tiers = load_segments(path)
        frames = cli.load_pose(str(path).replace(".segments.json", ".pose.json")).num_frames
        save_segments(path, fps, {**tiers, "sign": [Segment(0, frames)]})
    assert cli.main(["tune", "--data-dir", str(data), "--checkpoint", checkpoint,
                     "--tier", "sign", "--out-dir", str(tmp_path / "out")]) == 0
    assert capsys.readouterr().out.rstrip("\n").endswith(" roc_auc_o=-")
    manifest = json.loads((tmp_path / "out" / "tune.run.json").read_text(encoding="utf-8"))
    assert manifest["options"]["results"]["roc_auc_o"] is None


def test_tune_with_a_checkpoint_of_another_width_is_a_forward_error(corpus_dir, checkpoint,
                                                                    tmp_path, capsys):
    # the checkpoint reads flow features (196 wide); handnorm adds 126 columns
    assert cli.main(["tune", "--data-dir", str(corpus_dir), "--checkpoint", checkpoint,
                     "--tier", "sign", "--features", "flow,handnorm",
                     "--out-dir", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == (
        "signseg tune: forward: feature width 322 does not match model input_dim 196\n")
    assert not (tmp_path / "out").exists()


# A clip run in a batch may differ from its own forward by at most this much
# in each probability (as in test_tagger.py).
BATCH_PROB_TOL = 1e-6


@pytest.fixture(scope="module")
def mixed_corpus(tmp_path_factory):
    """Four clips of 60 to 140 frames: one batch, whose 1x192 tagger runs Wh
    in column blocks."""
    path = tmp_path_factory.mktemp("mixed")
    for seeds, frames in (([0, 1], 100), ([2], 60), ([3], 140)):
        write_clip_dir(path, seeds=seeds, num_frames=frames)
    return path


def test_batched_validation_and_tune_match_per_clip_forwards(mixed_corpus, tmp_path,
                                                             monkeypatch):
    assert tagger.BATCH_CLIPS >= 4
    assert len(tagger.wh_blocks(np.zeros((192, 4 * 192), np.float32), 4)) > 1
    data = str(mixed_corpus)
    # --val-dir loads the clips again, so train F1 is a pass of its own
    train_argv = ["train", "--data-dir", data, "--val-dir", data, "--out-dir", str(tmp_path),
                  "--hidden-dim", "192", "--layers", "1", "--max-steps", "8"]
    names = ("model.ckpt", "training_log.csv", "train.run.json",
             "tune_sign.csv", "tune_phrase.csv", "tune.run.json")
    runs = []
    for batch_clips in (tagger.BATCH_CLIPS, 1):  # batched, then one clip per forward
        monkeypatch.setattr(tagger, "BATCH_CLIPS", batch_clips)
        assert cli.main(train_argv) == 0
        for tier in ("sign", "phrase"):
            assert cli.main(["tune", "--data-dir", data, "--checkpoint",
                             str(tmp_path / "model.ckpt"), "--tier", tier,
                             "--out-dir", str(tmp_path)]) == 0
        runs.append({name: (tmp_path / name).read_bytes() for name in names})
    assert runs[0] == runs[1]
    # equal outputs rest on no luck: every dev probability the tune grid
    # compares lies further than the batch tolerance from each threshold
    model = tagger.load_model(tmp_path / "model.ckpt")
    clips = cli.training.load_corpus(mixed_corpus, PipelineOptions())  # tune's defaults
    for probs in tagger.forward_clips(model, [clip.features for clip in clips]):
        for tier in ("sign", "phrase"):
            scaled = probs[tier][:, [0, 2]] * 100.0  # B and O
            gaps = np.abs(scaled[..., None] - np.array(cli.DEFAULT_GRID, dtype=float))
            assert gaps.min() > BATCH_PROB_TOL * 100.0


def test_eval_identical_files(corpus_dir, tmp_path, capsys):
    gold = str(sorted(corpus_dir.glob("*.segments.json"))[0])
    rc = cli.main(["eval", "--pred", gold, "--gold", gold, "--out-dir", str(tmp_path)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "1.0000" in out
    report = json.loads((tmp_path / "report.json").read_text(encoding="utf-8"))
    for tier in ("sign", "phrase"):
        assert report[tier]["frame_f1"] == 1.0
        assert report[tier]["iou"] == 1.0
    assert (tmp_path / "eval.run.json").exists()


@pytest.mark.parametrize("bins", ["0", "-2"])
def test_eval_bins_below_one_is_a_metrics_error(corpus_dir, tmp_path, capsys, bins):
    gold = str(sorted(corpus_dir.glob("*.segments.json"))[0])
    assert cli.main(["eval", "--pred", gold, "--gold", gold, "--bins", bins,
                     "--out-dir", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == "signseg eval: metrics: bins must be a positive integer\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("bins", ["10000001", str(10**12)])
def test_eval_bins_over_the_timeline_limit_is_a_metrics_error(corpus_dir, tmp_path, capsys,
                                                              bins):
    gold = str(sorted(corpus_dir.glob("*.segments.json"))[0])
    assert cli.main(["eval", "--pred", gold, "--gold", gold, "--bins", bins,
                     "--out-dir", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == (
        f"signseg eval: metrics: {bins} bins are over the timeline limit of 10000000\n")
    assert not (tmp_path / "out").exists()


def test_eval_fps_mismatch(corpus_dir, tmp_path, capsys):
    gold = str(sorted(corpus_dir.glob("*.segments.json"))[0])
    _, tiers = load_segments(gold)
    other = tmp_path / "other.segments.json"
    save_segments(other, 50.0, tiers)
    rc = cli.main(["eval", "--pred", str(other), "--gold", gold])
    assert rc == 1
    assert capsys.readouterr().err.startswith("signseg eval: parse:")


def test_eval_needs_frames_for_empty_inputs(tmp_path, capsys):
    empty = tmp_path / "empty.segments.json"
    save_segments(empty, 25.0, {"sign": [], "phrase": []})
    rc = cli.main(["eval", "--pred", str(empty), "--gold", str(empty)])
    assert rc == 1
    assert "--frames" in capsys.readouterr().err
    rc = cli.main(["eval", "--pred", str(empty), "--gold", str(empty), "--frames", "10"])
    assert rc == 0


@pytest.mark.parametrize("end, frames", [(10**30, None), (20, 10_000_001)],
                         ids=["end-1e30", "frames-10000001"])
def test_eval_timeline_over_limit_is_a_metrics_error(tmp_path, capsys, end, frames):
    gold = tmp_path / "gold.segments.json"
    gold.write_text(json.dumps({"fps": 25.0, "tiers": {
        "sign": [{"start": 0, "end": end}], "phrase": []}}), encoding="utf-8")
    argv = ["eval", "--pred", str(gold), "--gold", str(gold)]
    if frames is not None:
        argv += ["--frames", str(frames)]
    assert cli.main(argv) == 1
    assert capsys.readouterr().err.startswith("signseg eval: metrics: ")


@pytest.mark.parametrize("command", ["eval", "bio-fidelity"])
def test_segments_file_rejects_invalid_utf8(tmp_path, capsys, command):
    gold = tmp_path / "gold.segments.json"
    gold.write_bytes(b"\xff" + json.dumps({"fps": 25.0, "tiers": {"sign": []}}).encode())
    argv = {"eval": ["eval", "--pred", str(gold), "--gold", str(gold)],
            "bio-fidelity": ["bio-fidelity", "--gold", str(gold)]}[command]
    assert cli.main(argv) == 1
    assert capsys.readouterr().err == (
        f"signseg {command}: parse: malformed segments document: 'utf-8' codec can't decode "
        "byte 0xff in position 0: invalid start byte\n")


def test_bio_fidelity_stdout(corpus_dir, capsys):
    gold = str(sorted(corpus_dir.glob("*.segments.json"))[0])
    rc = cli.main(["bio-fidelity", "--gold", gold])
    out = capsys.readouterr().out
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "fps,scheme,reproduced,exact"
    assert len(lines) == 1 + 5 * 2  # five rates, two schemes


def test_bio_fidelity_csv(corpus_dir, tmp_path):
    gold = str(sorted(corpus_dir.glob("*.segments.json"))[0])
    rc = cli.main(["bio-fidelity", "--gold", gold, "--tier", "phrase",
                   "--fps-list", "12.5,25", "--out-dir", str(tmp_path)])
    assert rc == 0
    lines = (tmp_path / "fidelity.csv").read_text(encoding="utf-8").splitlines()
    assert len(lines) == 1 + 2 * 2
    assert (tmp_path / "bio-fidelity.run.json").exists()


@pytest.mark.parametrize("argv, line", [
    (["--tier", "x"], "gold file has no 'x' tier"),
    (["--fps-list", ",,"], "empty --fps-list"),
], ids=["tier", "fps-list"])
def test_bio_fidelity_bad_arguments_are_parse_errors(corpus_dir, tmp_path, capsys, argv,
                                                     line):
    gold = str(sorted(corpus_dir.glob("*.segments.json"))[0])
    assert cli.main(["bio-fidelity", "--gold", gold, *argv,
                     "--out-dir", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err.splitlines()[-1] == f"signseg bio-fidelity: parse: {line}"
    assert not (tmp_path / "out").exists()


def test_flow_dump_stdout(corpus_dir, capsys):
    rc = cli.main(["flow-dump", first_pose(corpus_dir)])
    out = capsys.readouterr().out
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "frame,point,value"
    assert lines[1].startswith("0,BODY/NOSE,")


def test_flow_dump_empty_pose(tmp_path, capsys):
    seq, _ = motion_pose(seed=0, num_frames=2)
    empty = make_pose(25.0, seq.components,
                      np.zeros((0, seq.num_points, 3)), np.zeros((0, seq.num_points)))
    pose_path = tmp_path / "empty.pose.json"
    save_pose(pose_path, empty)
    rc = cli.main(["flow-dump", str(pose_path)])
    assert rc == 0
    assert capsys.readouterr().out.strip() == "frame,point,value"


def test_flow_dump_csv(corpus_dir, tmp_path):
    rc = cli.main(["flow-dump", first_pose(corpus_dir), "--out-dir", str(tmp_path)])
    assert rc == 0
    assert (tmp_path / "flow.csv").read_text(encoding="utf-8").startswith("frame,point,value")
    assert (tmp_path / "flow-dump.run.json").exists()


def _pose_without_left_hand_points(tmp_path):
    """The upper-body clip with LEFT_HAND declared but holding no point."""
    seq, _ = motion_pose(seed=0, num_frames=30)
    keep = [col for col in range(seq.num_points)
            if col not in component_columns(seq.components, "LEFT_HAND")]
    comps = tuple(PoseComponent(c.name, () if c.name == "LEFT_HAND" else c.points)
                  for c in seq.components)
    pose_path = tmp_path / "no-left-hand.pose.json"
    save_pose(pose_path, make_pose(seq.fps, comps, seq.coords[:, keep], seq.conf[:, keep]))
    return str(pose_path)


def test_a_declared_empty_component_reaches_the_features(tmp_path, capsys):
    pose_path = _pose_without_left_hand_points(tmp_path)
    assert cli.main(["flow-dump", pose_path]) == 0
    points = {row.split(",")[1] for row in capsys.readouterr().out.splitlines()[1:]}
    assert len(points) == 28 and not any(p.startswith("LEFT_HAND/") for p in points)
    # 28 points of 4 features each reach the forward pass, which reads 196
    ckpt = str(tmp_path / "flow.ckpt")
    tagger.save_model(tagger.init_model(tagger.TaggerConfig(input_dim=196, hidden_dim=4,
                                                            layers=1)), ckpt)
    assert cli.main(["segment", pose_path, "--checkpoint", ckpt,
                     "--out-dir", str(tmp_path / "flow")]) == 1
    assert capsys.readouterr().err == (
        f"signseg segment: forward: {pose_path}: "
        "feature width 112 does not match model input_dim 196\n")
    assert cli.main(["segment", pose_path, "--checkpoint", ckpt, "--features", "flow,handnorm",
                     "--out-dir", str(tmp_path / "handnorm")]) == 1
    assert capsys.readouterr().err == (
        f"signseg segment: features: {pose_path}: "
        "component 'LEFT_HAND' has 0 points, expected 21\n")


def test_flow_dump_quotes_point_names(tmp_path):
    seq, _ = motion_pose(seed=0, num_frames=3)
    right = seq.components[2]
    renamed = tuple("I,TIP" if p == "I_TIP" else p for p in right.points)
    seq = make_pose(seq.fps, (*seq.components[:2], PoseComponent(right.name, renamed)),
                    seq.coords, seq.conf)
    pose_path = tmp_path / "renamed.pose.json"
    save_pose(pose_path, seq)
    assert cli.main(["flow-dump", str(pose_path), "--out-dir", str(tmp_path)]) == 0
    with open(tmp_path / "flow.csv", encoding="utf-8", newline="") as f:
        rows = list(csv.reader(f))
    assert {len(row) for row in rows} == {3}
    assert [row[0] for row in rows if row[1] == "RIGHT_HAND/I,TIP"] == ["0", "1", "2"]


def write_hand_pose(path, points):
    comps = (PoseComponent("RIGHT_HAND", HAND_POINTS),)
    save_pose(path, make_pose(25.0, comps, points[None], np.ones((1, len(points)))))


def make_bench_manifest(tmp_path):
    template = hand_template()
    names = []
    for gi, copies in enumerate([scattered_copies(template, 2, seed=1),
                                 scattered_copies(template, 3, seed=2)]):
        group = []
        for mi, pts in enumerate(copies):
            name = f"g{gi}_m{mi}.pose.json"
            write_hand_pose(tmp_path / name, pts)
            group.append(name)
        names.append(group)
    manifest = tmp_path / "bench.json"
    manifest.write_text(json.dumps({"groups": [
        {"label": "flat", "files": names[0]},
        {"label": "fist", "files": names[1]},
    ]}), encoding="utf-8")
    return manifest


def test_hand_bench(tmp_path):
    manifest = make_bench_manifest(tmp_path)
    out = tmp_path / "out"
    rc = cli.main(["hand-bench", "--manifest", str(manifest), "--out-dir", str(out)])
    assert rc == 0
    lines = (out / "hand_bench.csv").read_text(encoding="utf-8").splitlines()
    assert lines[0] == "label,mace,cce"
    assert len(lines) == 3
    for line in lines[1:]:
        label, group_mace, group_cce = line.split(",")
        assert float(group_mace) < 1e-6  # rigid+scale copies normalize identically
        assert float(group_cce) > 0.0
    overlay = (out / "overlay.csv").read_text(encoding="utf-8").splitlines()
    assert overlay[0] == "label,member,landmark,x,y,z"
    assert len(overlay) == 1 + (2 + 3) * 21
    assert (out / "hand-bench.run.json").exists()


def test_hand_bench_quotes_labels(tmp_path):
    manifest = make_bench_manifest(tmp_path)
    doc = json.loads(manifest.read_text(encoding="utf-8"))
    doc["groups"][0]["label"] = "left, frontal"
    manifest.write_text(json.dumps(doc), encoding="utf-8")
    out = tmp_path / "out"
    assert cli.main(["hand-bench", "--manifest", str(manifest), "--out-dir", str(out)]) == 0
    for name, width, rows_per_group in (("hand_bench.csv", 3, 1), ("overlay.csv", 6, 2 * 21)):
        with open(out / name, encoding="utf-8", newline="") as f:
            rows = list(csv.reader(f))
        assert {len(row) for row in rows} == {width}, name
        assert [row[0] for row in rows].count("left, frontal") == rows_per_group, name


def test_hand_bench_rejects_single_member(tmp_path, capsys):
    write_hand_pose(tmp_path / "only.pose.json", hand_template())
    manifest = tmp_path / "bad.json"
    manifest.write_text(json.dumps({"groups": [{"label": "x", "files": ["only.pose.json"]}]}),
                        encoding="utf-8")
    rc = cli.main(["hand-bench", "--manifest", str(manifest), "--out-dir", str(tmp_path)])
    assert rc == 1
    assert capsys.readouterr().err.startswith("signseg hand-bench: manifest:")


@pytest.mark.parametrize("files", [[1, 2], ["a.pose.json", None]], ids=["ints", "null"])
def test_hand_bench_rejects_non_string_files(tmp_path, capsys, files):
    manifest = tmp_path / "bad.json"
    manifest.write_text(json.dumps({"groups": [{"label": "a", "files": files}]}),
                        encoding="utf-8")
    rc = cli.main(["hand-bench", "--manifest", str(manifest), "--out-dir", str(tmp_path / "out")])
    assert rc == 1
    assert (capsys.readouterr().err
            == "signseg hand-bench: manifest: group 'a': files must be path strings\n")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("component, frames, fault", [
    (PoseComponent("RIGHT_HAND", HAND_POINTS), 0, "pose has no frames"),
    (PoseComponent("BODY", ("NOSE",)), 1, "pose has no hand component"),
], ids=["no-frames", "no-hand"])
def test_hand_bench_member_without_a_hand_is_a_data_error(tmp_path, capsys, component, frames,
                                                          fault):
    write_hand_pose(tmp_path / "hand.pose.json", hand_template())
    path = tmp_path / "member.pose.json"
    count = len(component.points)
    save_pose(path, make_pose(25.0, (component,), np.zeros((frames, count, 3)),
                              np.ones((frames, count))))
    manifest = tmp_path / "bench.json"
    manifest.write_text(json.dumps({"groups": [
        {"label": "a", "files": ["hand.pose.json", path.name]}]}), encoding="utf-8")
    rc = cli.main(["hand-bench", "--manifest", str(manifest), "--out-dir", str(tmp_path / "out")])
    assert rc == 1
    assert capsys.readouterr().err.splitlines()[-1] == f"signseg hand-bench: data: {path}: {fault}"
    assert not (tmp_path / "out").exists()


def test_hand_bench_member_with_an_untracked_point_is_a_data_error(tmp_path, capsys):
    manifest = make_bench_manifest(tmp_path)
    path = tmp_path / "g1_m1.pose.json"
    doc = json.loads(path.read_text(encoding="utf-8"))
    doc["frames"][0][HAND_POINTS.index("I_TIP")] = [999.0, 999.0, 999.0, 0.0]
    path.write_text(json.dumps(doc), encoding="utf-8")
    rc = cli.main(["hand-bench", "--manifest", str(manifest), "--out-dir", str(tmp_path / "out")])
    assert rc == 1
    assert capsys.readouterr().err == (
        f"signseg hand-bench: data: {path}: RIGHT_HAND point I_TIP is not tracked\n")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("doc", [{"groups": []}, {"groups": "a"}, {}, []],
                         ids=["empty", "string", "no-groups", "list"])
def test_hand_bench_manifest_without_groups_is_a_manifest_error(tmp_path, capsys, doc):
    manifest = tmp_path / "bench.json"
    manifest.write_text(json.dumps(doc), encoding="utf-8")
    rc = cli.main(["hand-bench", "--manifest", str(manifest), "--out-dir", str(tmp_path / "out")])
    assert rc == 1
    assert (capsys.readouterr().err.splitlines()[-1] == 'signseg hand-bench: manifest: '
            'manifest must hold {"groups": [{"label", "files"}, ...]}')
    assert not (tmp_path / "out").exists()


def test_hand_bench_rejects_invalid_utf8_manifest(tmp_path, capsys):
    manifest = tmp_path / "bad.json"
    manifest.write_bytes(b"\xff" + json.dumps({"groups": []}).encode())
    rc = cli.main(["hand-bench", "--manifest", str(manifest), "--out-dir", str(tmp_path)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("signseg hand-bench: manifest: malformed hand-bench manifest: "), err


def count_frames(csv_text):
    frames = {line.split(",")[0] for line in csv_text.splitlines()[1:]}
    return len(frames)


def test_config_file_and_flag_precedence(corpus_dir, tmp_path, capsys):
    pose = first_pose(corpus_dir)  # 100 frames at 25 fps
    config = tmp_path / "conf.json"
    config.write_text(json.dumps({"fps": 12.5}), encoding="utf-8")
    assert cli.main(["flow-dump", pose, "--config", str(config)]) == 0
    assert count_frames(capsys.readouterr().out) == 50
    assert cli.main(["flow-dump", pose, "--config", str(config), "--fps", "25"]) == 0
    assert count_frames(capsys.readouterr().out) == 100


def test_config_env_var(corpus_dir, tmp_path, capsys, monkeypatch):
    config = tmp_path / "conf.json"
    config.write_text(json.dumps({"fps": 12.5}), encoding="utf-8")
    monkeypatch.setenv("SIGNSEG_CONFIG", str(config))
    assert cli.main(["flow-dump", first_pose(corpus_dir)]) == 0
    assert count_frames(capsys.readouterr().out) == 50


def test_config_rejects_unknown_keys(corpus_dir, tmp_path, capsys):
    config = tmp_path / "conf.json"
    config.write_text(json.dumps({"fsp": 12.5}), encoding="utf-8")
    rc = cli.main(["flow-dump", first_pose(corpus_dir), "--config", str(config)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("signseg flow-dump: config:")
    assert "fsp" in err


def test_installed_entry_point(corpus_dir, tmp_path):
    # Install this checkout into a fresh venv, offline, and run the console
    # script that the install creates; PYTHONPATH is dropped so nothing can
    # import the source tree instead of the installed copy.
    venv_dir = tmp_path / "venv"
    venv.create(venv_dir, system_site_packages=True, with_pip=False)
    bindir = venv_dir / ("Scripts" if os.name == "nt" else "bin")
    python = bindir / ("python.exe" if os.name == "nt" else "python")
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    install = subprocess.run(
        [sys.executable, "-m", "pip", "--python", str(python), "install",
         "--no-index", "--no-deps", "--no-cache-dir", "--disable-pip-version-check",
         str(REPO_ROOT)],
        capture_output=True, text=True, cwd=tmp_path,
        env=dict(env, PYTHONDONTWRITEBYTECODE="1"))
    assert install.returncode == 0, install.stdout + install.stderr

    probe = subprocess.run(
        [str(python), "-c",
         "import importlib.metadata, signseg; print(signseg.__file__); "
         "print(importlib.metadata.version('signseg')); print(signseg.__version__)"],
        capture_output=True, text=True, cwd=tmp_path, env=env)
    assert probe.returncode == 0, probe.stderr
    module_file, dist_version, module_version = probe.stdout.split()
    assert Path(module_file).resolve().is_relative_to(venv_dir.resolve())
    assert dist_version == module_version

    exe = shutil.which("signseg", path=str(bindir))
    assert exe, "console script not on PATH"
    gold = str(sorted(corpus_dir.glob("*.segments.json"))[0])
    proc = subprocess.run([exe, "bio-fidelity", "--gold", gold],
                          capture_output=True, text=True, cwd=tmp_path, env=env)
    assert proc.returncode == 0
    assert proc.stdout.startswith("fps,scheme,reproduced,exact")


SHARED_KEYS = {"fps", "selector", "features", "threshold_b", "threshold_o", "mode", "seed",
               "workers"}

# the shared options each command reads, and the options that are its own
READS = {
    "segment": {"fps", "selector", "features", "threshold_b", "threshold_o", "mode",
                "workers"},
    "train": {"fps", "selector", "features", "seed"},
    "tune": {"fps", "selector", "features"},
    "eval": set(),
    "bio-fidelity": set(),
    "hand-bench": set(),
    "flow-dump": {"fps", "selector"},
}
OWN_OPTIONS = {
    "segment": {"checkpoint", "strict_bio"},
    "train": {"data_dir", "val_dir", "hidden_dim", "layers", "learning_rate", "max_steps",
              "patience", "val_every", "dropout", "grad_clip", "results"},
    "tune": {"data_dir", "checkpoint", "tier", "strict_bio", "results"},
    "eval": {"pred", "gold", "frames", "bins"},
    "bio-fidelity": {"gold", "tier", "fps_list"},
    "hand-bench": {"manifest"},
    "flow-dump": {"pose"},
}


def command_argv(command, corpus_dir, checkpoint, tmp_path):
    gold = str(sorted(corpus_dir.glob("*.segments.json"))[0])
    out = ["--out-dir", str(tmp_path / "out")]
    return {
        "segment": lambda: ["segment", first_pose(corpus_dir), "--checkpoint", checkpoint],
        "train": lambda: ["train", "--data-dir", str(corpus_dir), "--hidden-dim", "4",
                          "--layers", "1", "--max-steps", "2"],
        "tune": lambda: ["tune", "--data-dir", str(corpus_dir), "--checkpoint", checkpoint,
                         "--tier", "sign"],
        "eval": lambda: ["eval", "--pred", gold, "--gold", gold],
        "bio-fidelity": lambda: ["bio-fidelity", "--gold", gold],
        "hand-bench": lambda: ["hand-bench", "--manifest", str(make_bench_manifest(tmp_path))],
        "flow-dump": lambda: ["flow-dump", first_pose(corpus_dir)],
    }[command]() + out


@pytest.mark.parametrize("command", sorted(READS))
def test_option_table(corpus_dir, checkpoint, tmp_path, command):
    argv = command_argv(command, corpus_dir, checkpoint, tmp_path)
    offered = set(vars(cli.build_parser().parse_args(argv))) & (SHARED_KEYS | {"config"})
    assert offered == READS[command] | ({"config"} if READS[command] else set())
    assert cli.main(argv) == 0
    manifest = json.loads((tmp_path / "out" / f"{command}.run.json").read_text(encoding="utf-8"))
    assert set(manifest["options"]) == READS[command] | OWN_OPTIONS[command]


def test_shared_flag_count(corpus_dir, checkpoint, tmp_path):
    parser = cli.build_parser()
    offered = [set(vars(parser.parse_args(command_argv(c, corpus_dir, checkpoint, tmp_path))))
               & (SHARED_KEYS | {"config"}) for c in READS]
    assert sum(map(len, offered)) == 20


@pytest.mark.parametrize("argv", [
    ["tune", "--data-dir", "d", "--checkpoint", "c", "--tier", "sign", "--mode", "argmax"],
    ["eval", "--pred", "p", "--gold", "g", "--fps", "3"],
    ["train", "--data-dir", "d", "--workers", "2"],
    ["bio-fidelity", "--gold", "g", "--config", "c.json"],
    ["hand-bench", "--manifest", "m.json", "--workers", "2"],
    ["hand-bench", "--manifest", "m.json", "--config", "c.json"],
], ids=["tune-mode", "eval-fps", "train-workers", "bio-fidelity-config", "hand-bench-workers",
        "hand-bench-config"])
def test_unread_flag_is_a_usage_error(argv):
    with pytest.raises(SystemExit) as e:
        cli.main(argv)
    assert e.value.code == 2


def test_config_rejects_invalid_utf8(tmp_path, capsys):
    config = tmp_path / "conf.json"
    config.write_bytes(b"\xff" + json.dumps({"fps": 12.5}).encode())
    rc = cli.main(["segment", "in.pose.json", "--checkpoint", str(tmp_path / "none.ckpt"),
                   "--config", str(config)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith(f"signseg segment: config: malformed config file {config}: "), err


def test_config_key_the_command_does_not_read_is_ignored(corpus_dir, tmp_path):
    config = tmp_path / "conf.json"
    config.write_text(json.dumps({"mode": "argmax"}), encoding="utf-8")
    assert cli.main(["train", "--data-dir", str(corpus_dir), "--out-dir", str(tmp_path),
                     "--hidden-dim", "4", "--layers", "1", "--max-steps", "2",
                     "--config", str(config)]) == 0
    options = json.loads((tmp_path / "train.run.json").read_text(encoding="utf-8"))["options"]
    assert "mode" not in options


def test_config_is_checked_only_where_read(corpus_dir, checkpoint, tmp_path, capsys,
                                           monkeypatch):
    config = tmp_path / "conf.json"
    config.write_text(json.dumps({"features": "bogus"}), encoding="utf-8")
    monkeypatch.setenv("SIGNSEG_CONFIG", str(config))
    gold = str(sorted(corpus_dir.glob("*.segments.json"))[0])
    assert cli.main(["eval", "--pred", gold, "--gold", gold]) == 0
    assert cli.main(["bio-fidelity", "--gold", gold]) == 0
    assert cli.main(["flow-dump", first_pose(corpus_dir)]) == 0
    capsys.readouterr()
    assert cli.main(["segment", first_pose(corpus_dir), "--checkpoint", checkpoint,
                     "--out-dir", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("signseg segment: config:") and "bogus" in err


@pytest.mark.parametrize("command", sorted(READS))
def test_out_dir_that_is_a_file_is_an_emit_error(corpus_dir, checkpoint, tmp_path, capsys,
                                                 command):
    argv = command_argv(command, corpus_dir, checkpoint, tmp_path)
    (tmp_path / "out").write_text("", encoding="utf-8")
    assert cli.main(argv) == 1
    assert capsys.readouterr().err.startswith(f"signseg {command}: emit: ")


@pytest.mark.parametrize("command", ["segment", "train"])
@pytest.mark.parametrize("blocker", ["file", "file-ancestor", "read-only-ancestor"])
def test_unusable_out_dir_fails_before_any_work(corpus_dir, checkpoint, tmp_path, capsys,
                                                monkeypatch, command, blocker):
    def never(*args, **kwargs):
        raise AssertionError("ran before the output directory was checked")

    monkeypatch.setattr(cli.training, "train", never)
    monkeypatch.setattr(cli, "forward", never)
    monkeypatch.setattr(cli, "load_model", never)
    argv = command_argv(command, corpus_dir, checkpoint, tmp_path)[:-2]
    if blocker == "read-only-ancestor":
        out = tmp_path / "missing" / "out"
        access = os.access
        monkeypatch.setattr(cli.os, "access",
                            lambda path, mode: path != str(tmp_path) and access(path, mode))
        expected = "Permission denied"
    else:
        (tmp_path / "taken").write_text("", encoding="utf-8")
        out = tmp_path / "taken" / ("" if blocker == "file" else "sub/out")
        expected = "File exists" if blocker == "file" else "Not a directory"
    assert cli.main(argv + ["--out-dir", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"signseg {command}: emit: ") and expected in err
    assert not (tmp_path / "missing").exists()


def empty_pose(tmp_path):
    seq, _ = motion_pose(seed=0, num_frames=2)
    path = tmp_path / "empty.pose.json"
    save_pose(path, make_pose(25.0, seq.components, np.zeros((0, seq.num_points, 3)),
                              np.zeros((0, seq.num_points))))
    return str(path)


@pytest.mark.parametrize("command", ["segment", "flow-dump", "train"])
def test_unknown_selector_is_a_config_error(corpus_dir, checkpoint, tmp_path, capsys,
                                            command):
    out = tmp_path / "out"
    if command == "segment":
        argv = ["segment", empty_pose(tmp_path), "--checkpoint", checkpoint,
                "--selector", "bogus"]
    elif command == "flow-dump":
        config = tmp_path / "conf.json"
        config.write_text(json.dumps({"selector": 5}), encoding="utf-8")
        argv = ["flow-dump", empty_pose(tmp_path), "--config", str(config)]
    else:
        argv = ["train", "--data-dir", str(corpus_dir), "--hidden-dim", "4", "--layers", "1",
                "--max-steps", "2", "--selector", "nope"]
    assert cli.main(argv + ["--out-dir", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"signseg {command}: config: unknown selector ")
    assert "known: body75, face-contour-128" in err
    assert not out.exists()


@pytest.mark.parametrize("command, key", [
    ("train", "seed"), ("segment", "workers"),
])
def test_config_rejects_bool_for_integer_options(corpus_dir, checkpoint, tmp_path, capsys,
                                                 command, key):
    config = tmp_path / "conf.json"
    config.write_text(json.dumps({key: True}), encoding="utf-8")
    argv = command_argv(command, corpus_dir, checkpoint, tmp_path)
    assert cli.main(argv + ["--config", str(config)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"signseg {command}: config: {key} must be an integer")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("source", ["flag", "config"])
def test_negative_seed_is_a_config_error(corpus_dir, tmp_path, capsys, monkeypatch, source):
    def no_corpus(*args, **kwargs):
        raise AssertionError("corpus loaded")

    monkeypatch.setattr(cli.training, "load_corpus", no_corpus)
    config = tmp_path / "conf.json"
    config.write_text(json.dumps({"seed": -3}), encoding="utf-8")
    argv = ["train", "--data-dir", str(corpus_dir), "--out-dir", str(tmp_path / "out")]
    argv += ["--seed", "-1"] if source == "flag" else ["--config", str(config)]
    assert cli.main(argv) == 1
    assert capsys.readouterr().err == "signseg train: config: seed must be an integer >= 0\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command, fps, stage", [
    ("segment", "inf", "config"),
    ("segment", "nan", "config"),
    ("flow-dump", "1e308", "features"),  # finite, but 100 frames at that rate are not
    # 28 PiB of frame indices, over any x86-64 address space: numpy's MemoryError
    ("segment", "1e15", "features"),
], ids=["segment-inf", "segment-nan", "flow-dump-1e308", "segment-1e15"])
def test_bad_fps_flag_is_a_stage_error(corpus_dir, checkpoint, tmp_path, capsys,
                                       command, fps, stage):
    argv = command_argv(command, corpus_dir, checkpoint, tmp_path)
    assert cli.main(argv + ["--fps", fps]) == 1
    assert capsys.readouterr().err.startswith(f"signseg {command}: {stage}: ")


@pytest.mark.parametrize("key", ["threshold_b", "threshold_o"])
@pytest.mark.parametrize("value", [True, "50", float("nan"), float("inf")],
                         ids=["true", "string", "nan", "infinity"])
def test_config_rejects_non_numeric_thresholds(corpus_dir, checkpoint, tmp_path, capsys,
                                               key, value):
    config = tmp_path / "conf.json"
    config.write_text(json.dumps({key: value}), encoding="utf-8")  # nan, inf as NaN, Infinity
    argv = command_argv("segment", corpus_dir, checkpoint, tmp_path)
    assert cli.main(argv + ["--config", str(config)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"signseg segment: config: {key} must be a finite number")
    assert not (tmp_path / "out").exists()



@pytest.mark.parametrize("command", ["segment", "tune"])
@pytest.mark.parametrize("source", ["flag", "config"])
def test_handnorm_with_a_selector_that_drops_the_hands_is_a_config_error(tmp_path, capsys,
                                                                        command, source):
    config = tmp_path / "conf.json"
    config.write_text(json.dumps({"selector": "face-contour-128",
                                  "features": ["flow", "handnorm"]}), encoding="utf-8")
    inputs = ([str(tmp_path / "clip.pose.json")] if command == "segment"
              else ["--data-dir", str(tmp_path / "clips"), "--tier", "sign"])
    argv = [command, *inputs, "--checkpoint", str(tmp_path / "missing.ckpt"),
            "--out-dir", str(tmp_path / "out")]
    argv += (["--selector", "face-contour-128", "--features", "flow,handnorm"]
             if source == "flag" else ["--config", str(config)])
    assert cli.main(argv) == 1
    assert capsys.readouterr().err == (
        f"signseg {command}: config: feature handnorm needs the LEFT_HAND and RIGHT_HAND "
        "components, and selector 'face-contour-128' drops them\n")
    assert not (tmp_path / "out").exists()


def _clip(tmp_path, seq) -> str:
    path = tmp_path / "clip.pose.json"
    save_pose(path, seq)
    return str(path)


@pytest.mark.parametrize("command", ["segment", "flow-dump"])
def test_shoulders_past_float_range_are_a_features_error_without_a_warning(checkpoint, tmp_path,
                                                                          capsys, command):
    # the shoulder distance, 2e200, squares past float range inside np.linalg.norm
    seq, _ = motion_pose(0, num_frames=20)
    seq.coords[:, seq.point_index("BODY", "LEFT_SHOULDER"), 0] = 1e200
    seq.coords[:, seq.point_index("BODY", "RIGHT_SHOULDER"), 0] = -1e200
    path = _clip(tmp_path, seq)
    argv = ([command, path] + (["--checkpoint", checkpoint] if command == "segment" else [])
            + ["--out-dir", str(tmp_path / "out")])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(argv) == 1
    named = f"{path}: " if command == "segment" else ""
    assert capsys.readouterr().err == (
        f"signseg {command}: features: {named}cannot normalize: mean shoulder distance inf "
        "is not positive and finite, or the midpoint is not finite\n")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["segment", "flow-dump"])
def test_a_rate_that_leaves_no_frames_is_a_features_error(checkpoint, tmp_path, capsys,
                                                          command):
    path = _clip(tmp_path, motion_pose(0, num_frames=40)[0])
    argv = ([command, path] + (["--checkpoint", checkpoint] if command == "segment" else [])
            + ["--fps", "0.1", "--out-dir", str(tmp_path / "out")])
    assert cli.main(argv) == 1
    named = f"{path}: " if command == "segment" else ""
    assert capsys.readouterr().err == (
        f"signseg {command}: features: {named}resampling 40 frames from 25 to 0.1 fps "
        "leaves no frames\n")
    assert not (tmp_path / "out").exists()


def corpus_with(tmp_path, corpus_dir, name, seq):
    """A copy of the corpus with one more clip, seq, and an empty segments file;
    returns the copy and the clip's pose path."""
    data = tmp_path / "data"
    shutil.copytree(corpus_dir, data)
    save_pose(data / f"{name}.pose.json", seq)
    save_segments(data / f"{name}.segments.json", 25.0, {"sign": [], "phrase": []})
    return data, data / f"{name}.pose.json"


@pytest.mark.parametrize("command", ["train", "tune"])
def test_an_empty_clip_in_a_corpus_is_a_data_error(corpus_dir, checkpoint, tmp_path, capsys,
                                                   command):
    seq, _ = motion_pose(seed=0, num_frames=2)
    empty = make_pose(25.0, seq.components, np.zeros((0, seq.num_points, 3)),
                      np.zeros((0, seq.num_points)))
    data, path = corpus_with(tmp_path, corpus_dir, "empty", empty)
    argv = (["train", "--hidden-dim", "4", "--layers", "1", "--max-steps", "1"]
            if command == "train" else ["tune", "--checkpoint", checkpoint, "--tier", "sign"])
    assert cli.main(argv + ["--data-dir", str(data), "--out-dir", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == f"signseg {command}: data: {path}: pose has no frames\n"
    assert not (tmp_path / "out").exists()


def golden_clip_past_float32(tmp_path):
    """golden0 with frame 5's first BODY x at 1e200: finite in float64 after
    normalization, past float32's range, and squared past float64's in the flow."""
    doc = json.loads((GOLDEN_CLIPS / "golden0.pose.json").read_text(encoding="utf-8"))
    doc["frames"][5][0][0] = 1e200
    path = tmp_path / "golden0.pose.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    shutil.copy(GOLDEN_CLIPS / "golden0.segments.json", tmp_path)
    return path


@pytest.mark.parametrize("command", ["segment", "flow-dump", "train"])
def test_a_feature_past_float32_range_is_a_stage_error_without_a_warning(checkpoint, tmp_path,
                                                                         capsys, command):
    path = golden_clip_past_float32(tmp_path)
    argv = {"segment": ["segment", str(path), "--checkpoint", checkpoint],
            "flow-dump": ["flow-dump", str(path)],
            "train": ["train", "--data-dir", str(tmp_path), "--hidden-dim", "4", "--layers", "1",
                      "--max-steps", "1"]}[command]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(argv + ["--out-dir", str(tmp_path / "out")]) == 1
    stage, named = {"segment": ("features", f"{path}: "), "flow-dump": ("features", ""),
                    "train": ("data", f"{path}: ")}[command]
    assert capsys.readouterr().err == (
        f"signseg {command}: {stage}: {named}frame 5, point BODY/NOSE: value inf is not finite\n")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["train", "tune", "hand-bench"])
def test_a_malformed_data_file_is_named(corpus_dir, checkpoint, tmp_path, capsys, command):
    if command == "hand-bench":
        manifest = make_bench_manifest(tmp_path)
        bad = tmp_path / "g1_m2.pose.json"
        argv = ["hand-bench", "--manifest", str(manifest)]
    else:
        data = tmp_path / "data"
        shutil.copytree(corpus_dir, data)
        bad = sorted(data.glob("*.segments.json" if command == "train" else "*.pose.json"))[1]
        argv = (["train", "--hidden-dim", "4", "--layers", "1", "--max-steps", "1"]
                if command == "train" else ["tune", "--checkpoint", checkpoint, "--tier", "sign"])
        argv += ["--data-dir", str(data)]
    bad.write_text('{"fps": 25,', encoding="utf-8")
    assert cli.main(argv + ["--out-dir", str(tmp_path / "out")]) == 1
    what = "segments" if bad.name.endswith(".segments.json") else "pose"
    assert capsys.readouterr().err.startswith(
        f"signseg {command}: data: {bad}: malformed {what} document: ")
    assert not (tmp_path / "out").exists()

@pytest.mark.parametrize("gold_fps, fps_list", [
    (1e-300, "3.125,25"),  # 9 gold frames span 2.8e301 frames at 3.125 fps
    (25.0, "1e-320"),  # the frames come back from a subnormal rate as inf
], ids=["gold-fps-1e-300", "fps-list-1e-320"])
def test_bio_fidelity_overflow_is_a_stage_error(tmp_path, capsys, gold_fps, fps_list):
    gold = tmp_path / "gold.segments.json"
    gold.write_text(json.dumps({"fps": gold_fps, "tiers": {"sign": [
        {"start": 0, "end": 5}, {"start": 7, "end": 9}]}}), encoding="utf-8")
    assert cli.main(["bio-fidelity", "--gold", str(gold), "--fps-list", fps_list]) == 1
    assert capsys.readouterr().err.startswith("signseg bio-fidelity: fidelity: ")


@pytest.mark.parametrize("command", ["train", "tune", "eval", "bio-fidelity"])
@pytest.mark.parametrize("sign, stages, message", [
    # train, tune and bio-fidelity retime the end, which overflows a float
    ([{"start": 0, "end": 10**400}], ("data", "data", "metrics", "fidelity"), ""),
    # train and tune would otherwise retime the two into [0, 40)
    ([{"start": 0, "end": 30}, {"start": 10, "end": 40}], ("data", "data", "parse", "parse"),
     "segments overlap at frame 10\n"),
], ids=["end-10**400", "overlap"])
def test_bad_gold_segments_are_stage_errors(corpus_dir, checkpoint, tmp_path, capsys, command,
                                            sign, stages, message):
    stage = dict(zip(("train", "tune", "eval", "bio-fidelity"), stages))[command]
    data = tmp_path / "data"  # its first segments file is the gold eval and bio-fidelity read
    shutil.copytree(corpus_dir, data)
    sorted(data.glob("*.segments.json"))[0].write_text(
        json.dumps({"fps": 25.0, "tiers": {"sign": sign, "phrase": []}}), encoding="utf-8")
    assert cli.main(command_argv(command, data, checkpoint, tmp_path)) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"signseg {command}: {stage}: ") and err.endswith(message), err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command, stage", [
    ("train", "data"), ("tune", "data"), ("bio-fidelity", "fidelity")])
def test_an_end_past_float_range_is_no_frame_index(corpus_dir, checkpoint, tmp_path, capsys,
                                                  command, stage):
    data = tmp_path / "data"
    shutil.copytree(corpus_dir, data)
    gold = sorted(data.glob("*.segments.json"))[0]
    gold.write_text(json.dumps(
        {"fps": 25.0, "tiers": {"sign": [{"start": 0, "end": 10**400}], "phrase": []}}),
        encoding="utf-8")
    assert cli.main(command_argv(command, data, checkpoint, tmp_path)) == 1
    err = capsys.readouterr().err
    named = f"{gold}: " if stage == "data" else ""  # train and tune name the clip's file
    assert err.startswith(f"signseg {command}: {stage}: {named}frame 1000")
    assert err.endswith(" fps is inf, not a frame index\n"), err


def test_eval_of_an_overflowing_length_density_prints_and_writes_nothing(tmp_path, capsys):
    gold = tmp_path / "gold.segments.json"
    gold.write_text(json.dumps({"fps": 1e308, "tiers": {"sign": [
        {"start": 0, "end": 5}, {"start": 7, "end": 9}]}}), encoding="utf-8")
    assert cli.main(["eval", "--pred", str(gold), "--gold", str(gold),
                     "--out-dir", str(tmp_path / "out")]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == ("signseg eval: metrics: segment lengths at 1e+308 fps have a non-finite "
                   "length density\n")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("text", [
    '{"fps": Infinity, "tiers": {"sign": [{"start": 0, "end": 2}]}}',
    '{"fps": 1e400, "tiers": {"sign": [{"start": 0, "end": 2}]}}',
    '{"fps": true, "tiers": {"sign": [{"start": 0, "end": 2}]}}',
    "[" * 100_000 + "]" * 100_000,
], ids=["infinity", "overflow", "bool", "nested-too-deep"])
def test_bad_segments_file_is_a_parse_error(tmp_path, capsys, text):
    gold = tmp_path / "gold.segments.json"
    gold.write_text(text, encoding="utf-8")
    assert cli.main(["bio-fidelity", "--gold", str(gold)]) == 1
    assert capsys.readouterr().err.startswith("signseg bio-fidelity: parse: ")


@pytest.mark.parametrize("fps_list", ["inf", "25,nan", "0"])
def test_bad_fps_list_is_a_parse_error(corpus_dir, capsys, fps_list):
    gold = str(sorted(corpus_dir.glob("*.segments.json"))[0])
    assert cli.main(["bio-fidelity", "--gold", gold, "--fps-list", fps_list]) == 1
    assert capsys.readouterr().err.startswith("signseg bio-fidelity: parse: --fps-list entry")


@pytest.mark.parametrize("flag, value, message", [
    ("--learning-rate", "nan", "learning_rate"),
    ("--grad-clip", "nan", "grad_clip"),
    ("--grad-clip", "-1", "grad_clip"),
])
def test_train_rejects_bad_tagger_config_before_any_step(corpus_dir, tmp_path, capsys,
                                                         monkeypatch, flag, value, message):
    def no_training(*args, **kwargs):
        raise AssertionError("training started")

    monkeypatch.setattr(cli.training, "train", no_training)
    rc = cli.main(["train", "--data-dir", str(corpus_dir), "--out-dir", str(tmp_path),
                   "--hidden-dim", "4", "--layers", "1", flag, value])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("signseg train: model: ") and message in err


@pytest.mark.parametrize("flags, message", [
    (("--max-steps", "-3", "--patience", "2"), "max_steps must be >= 0 (0 = off)"),
    (("--max-steps", "5", "--patience", "-1"), "patience must be >= 0 (0 = off)"),
])
def test_train_rejects_a_negative_step_cap_or_patience(corpus_dir, tmp_path, capsys,
                                                       flags, message):
    rc = cli.main(["train", "--data-dir", str(corpus_dir), "--out-dir", str(tmp_path / "out"),
                   "--hidden-dim", "4", "--layers", "1", *flags])
    assert rc == 1
    assert capsys.readouterr().err == f"signseg train: train: {message}\n"
    assert not (tmp_path / "out").exists()


def test_non_finite_checkpoint_config_is_a_checkpoint_error(corpus_dir, checkpoint, tmp_path,
                                                            capsys):
    data = Path(checkpoint).read_bytes()
    start = data.index(b"\n") + 1
    doc = json.loads(data[:start])
    doc["config"]["learning_rate"] = float("nan")
    bad = tmp_path / "nan.ckpt"
    bad.write_bytes(json.dumps(doc).encode() + b"\n" + data[start:])
    rc = cli.main(["segment", first_pose(corpus_dir), "--checkpoint", str(bad),
                   "--out-dir", str(tmp_path)])
    assert rc == 1
    assert capsys.readouterr().err.startswith("signseg segment: checkpoint: ")


@pytest.mark.parametrize("command, argv", [
    ("segment", []), ("segment", ["--mode", "argmax"]), ("tune", ["--tier", "sign"]),
], ids=["segment-threshold", "segment-argmax", "tune"])
def test_non_finite_checkpoint_parameter_is_a_checkpoint_error(corpus_dir, checkpoint, tmp_path,
                                                               capsys, command, argv):
    # a NaN bias would otherwise give 0 segments, or one per frame, and exit 0
    model = tagger.load_model(checkpoint)
    params = {name: arr.copy() for name, arr in model.params.items()}
    params["head.sign.b"][0] = np.nan
    bad = tmp_path / "nan.ckpt"
    tagger.save_model(tagger.TaggerModel(model.config, params), bad)
    inputs = ([first_pose(corpus_dir)] if command == "segment"
              else ["--data-dir", str(corpus_dir)])
    rc = cli.main([command, *inputs, *argv, "--checkpoint", str(bad),
                   "--out-dir", str(tmp_path / "out")])
    assert rc == 1
    assert capsys.readouterr().err == (f"signseg {command}: checkpoint: checkpoint parameter "
                                       "head.sign.b holds a non-finite value\n")
    assert not (tmp_path / "out").exists()


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda kids: st.lists(kids, max_size=3) | st.dictionaries(st.text(max_size=4), kids,
                                                              max_size=3),
    max_leaves=8,
)
CONFIG_DOCS = st.one_of(
    st.text(max_size=40),
    st.dictionaries(st.sampled_from(sorted(SHARED_KEYS)) | st.text(max_size=4), JSON_VALUES,
                    max_size=4).map(json.dumps),
    JSON_VALUES.map(json.dumps),
)


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(text=CONFIG_DOCS)
def test_config_loader_fuzz(tmp_path, capsys, text):
    # The loader either resolves the options or fails as a config error; in
    # the CLI a resolved config goes on to the missing checkpoint instead.
    config = tmp_path / "conf.json"
    config.write_text(text, encoding="utf-8")
    argv = ["segment", "in.pose.json", "--checkpoint", str(tmp_path / "none.ckpt"),
            "--config", str(config)]
    try:
        opts = cli._resolve(cli.build_parser().parse_args(argv))
        stage = "checkpoint"
        assert set(opts) == READS["segment"]
    except cli.StageError as e:
        stage = "config"
        assert e.stage == "config"
    capsys.readouterr()
    assert cli.main(argv) == 1
    assert capsys.readouterr().err.startswith(f"signseg segment: {stage}: ")


# CLI fuzzing of pose ingest: structure-aware mutations of a small holistic
# document go through segment (with a tiny checkpoint) and flow-dump. Each run
# exits 0, or 1 with a named stage; never with the catch-all "error:".
HOLISTIC = holistic_components()
HOLISTIC_WIDTH = 65 * 4  # body75 less the legs, with flow
_BODY = [p for c in HOLISTIC[:1] for p in c.points]
# points whose faults land in different places: read by body75 (nose,
# shoulder, hands), or dropped unread (a leg, the face)
_FUZZ_POINTS = [0, _BODY.index("LEFT_SHOULDER"), _BODY.index("RIGHT_SHOULDER"),
                _BODY.index("LEFT_KNEE"), len(_BODY) + 40, len(_BODY) + 468, 542]
_ODD = [float("nan"), float("inf"), 1.5, -0.5, True, None, "0.5", 10**400,
        0, -0.0, 2**70, 1, 0.25, 1e300]


@pytest.fixture(scope="module")
def tiny_holistic_checkpoint(tmp_path_factory):
    path = tmp_path_factory.mktemp("tiny") / "model.ckpt"
    config = tagger.TaggerConfig(input_dim=HOLISTIC_WIDTH, hidden_dim=4, layers=1)
    tagger.save_model(tagger.init_model(config), path)
    return str(path)


def _mutate_holistic(data, doc):
    """One edit to a frame value, point or frame, the frames, a component,
    a header field, or the order of the members; an edit that no longer
    fits the document, as earlier edits left it, is skipped."""
    draw = data.draw
    frames, comps = doc.get("frames"), doc.get("components")
    op = draw(st.sampled_from(["value", "point", "frame", "frames", "component", "field",
                               "order", "untrack"]))
    if op == "untrack" and isinstance(frames, list):  # a shoulder never tracked
        for frame in frames:
            if isinstance(frame, list) and len(frame) > 11 and isinstance(frame[11], list):
                frame[11][-1] = 0
    elif op in ("value", "point", "frame"):
        frame = draw(st.sampled_from(frames)) if isinstance(frames, list) and frames else None
        k = draw(st.sampled_from(_FUZZ_POINTS))
        if not (isinstance(frame, list) and k < len(frame) and isinstance(frame[k], list)
                and len(frame[k]) == 4):
            return
        if op == "value":
            frame[k][draw(st.integers(0, 3))] = draw(st.sampled_from(_ODD))
        elif op == "point":
            frame[k] = draw(st.sampled_from([[0.5] * 3, [], [0.5] * 5, 0.5, {"x": 1}]))
        elif draw(st.booleans()):
            del frame[k]
        else:
            frame.append([0.5] * 4)
    elif op == "frames" and isinstance(frames, list):
        doc["frames"] = draw(st.sampled_from([[], frames[:1], frames + frames, 7, [[]]]))
    elif op == "component" and isinstance(comps, list) and comps:
        comp = draw(st.sampled_from(comps))
        if not (isinstance(comp, dict) and comp.get("points")):
            return
        edit = draw(st.sampled_from(["rename", "rename-point", "drop-point", "dup-point",
                                     "remove"]))
        if edit == "rename":
            comp["name"] = draw(st.sampled_from(["HAND", "BODY", "FACE", ""]))
        elif edit == "rename-point":  # the shoulders, if this is the body
            comp["points"][draw(st.sampled_from([11, 12, 0]))] = "X"
        elif edit == "remove":
            comps.remove(comp)
        elif edit == "drop-point":
            del comp["points"][draw(st.integers(0, len(comp["points"]) - 1))]
        else:
            comp["points"].append(comp["points"][0])
    elif op == "field":
        key = draw(st.sampled_from(["version", "fps", "components"]))
        value = draw(st.sampled_from([None, 0, "25", 1e308, -1, 12.5, [], "poseseq-json/2"]))
        if draw(st.booleans()):
            doc[key] = value
        else:
            doc.pop(key, None)
    elif op == "order" and "frames" in doc:  # the frames before the other members
        doc.update({key: doc.pop(key) for key in [k for k in doc if k != "frames"]})


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_cli_pose_ingest_fuzz(tmp_path, capsys, tiny_holistic_checkpoint, data):
    rng = np.random.default_rng(data.draw(st.integers(0, 3)))
    quads = rng.random((3, 543, 4))
    doc = {"version": "poseseq-json/1", "fps": 25.0,
           "components": [{"name": c.name, "points": list(c.points)} for c in HOLISTIC],
           "frames": quads.tolist()}
    for _ in range(data.draw(st.integers(0, 2))):
        _mutate_holistic(data, doc)
    text = json.dumps(doc)
    if data.draw(st.integers(0, 4)) == 4:
        cut = data.draw(st.integers(0, len(text)))
        text = text[:cut] + data.draw(st.sampled_from(["", ",", "]", "}", "x"])) + text[cut:]
    path = tmp_path / "clip.pose.json"
    path.write_text(text, encoding="utf-8")
    out = str(tmp_path / "out")
    for command, argv in (
            ("segment", ["segment", str(path), "--checkpoint", tiny_holistic_checkpoint,
                         "--out-dir", out]),
            ("flow-dump", ["flow-dump", str(path), "--out-dir", out])):
        rc = cli.main(argv)
        err = capsys.readouterr().err
        if rc == 0:
            assert err == ""
        else:
            assert rc == 1
            stage = err.removeprefix(f"signseg {command}: ").split(":", 1)[0]
            assert err.startswith(f"signseg {command}: ") and stage not in ("", "error"), err


@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_cli_pose_ingest_rejects_bad_utf8_in_parse(tmp_path, capsys, tiny_holistic_checkpoint,
                                                   data):
    # a 0xFF byte anywhere, in a valid or a mutated document: it comes before
    # every other fault, as it does when the file is read whole
    rng = np.random.default_rng(data.draw(st.integers(0, 3)))
    doc = {"version": "poseseq-json/1", "fps": 25.0,
           "components": [{"name": c.name, "points": list(c.points)} for c in HOLISTIC],
           "frames": rng.random((3, 543, 4)).tolist()}
    for _ in range(data.draw(st.integers(0, 1))):
        _mutate_holistic(data, doc)
    raw = json.dumps(doc).encode()
    at = data.draw(st.integers(0, len(raw)))
    path = tmp_path / "clip.pose.json"
    path.write_bytes(raw[:at] + b"\xff" + raw[at:])
    out = str(tmp_path / "out")
    for command, argv in (
            ("segment", ["segment", str(path), "--checkpoint", tiny_holistic_checkpoint,
                         "--out-dir", out]),
            ("flow-dump", ["flow-dump", str(path), "--out-dir", out])):
        assert cli.main(argv) == 1
        err = capsys.readouterr().err
        named = f"{path}: " if command == "segment" else ""  # segment names the failing file
        assert err.startswith(f"signseg {command}: parse: {named}malformed pose document: "
                              "'utf-8' codec can't decode byte 0xff in position "), err


def test_flow_dump_rejects_invalid_utf8_as_a_malformed_pose(tmp_path, capsys):
    path = tmp_path / "clip.pose.json"
    path.write_bytes(b"\xff{}")
    assert cli.main(["flow-dump", str(path), "--out-dir", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == (
        "signseg flow-dump: parse: malformed pose document: 'utf-8' codec can't decode "
        "byte 0xff in position 0: invalid start byte\n")


# CLI fuzzing of segments and config files: edits to the golden clips' first
# gold segments file and a config file go through train (a 1x4 tagger, one
# step), tune, segment, eval and bio-fidelity. Each run exits 0, or 1 with a
# named stage; never with the catch-all "error:". A frame rate or a frame
# index either fits the clips or is past any allocation a machine can grant
# (1e15 fps is petabytes of frames), so no run allocates much.
GOLDEN_CLIPS = REPO_ROOT / "tests" / "golden" / "clips"
_ODD_FRAMES = [10**400, 2**63, -1, 0, 1, 1.5, True, None, "3"]
_ODD_FPS = [5e-324, 1e-310, 1e15, 1e308, 12.5, 50.0, 0, -25, float("inf"), float("nan"), "25",
            True, None]
SEGMENT_EDITS = st.lists(st.one_of(
    st.tuples(st.sampled_from(["start", "end"]), st.sampled_from(_ODD_FRAMES)),
    st.tuples(st.just("overlap"), st.integers(0, 12)),  # a copy of the first sign shifted
    st.tuples(st.just("fps"), st.sampled_from(_ODD_FPS)),
    st.tuples(st.just("phrase"), st.sampled_from([[], "x", [1], [{"start": 0}], None])),
    st.tuples(st.just("drop"), st.sampled_from(["fps", "tiers"])),
), max_size=3)
CONFIGS = st.fixed_dictionaries({}, optional={
    "fps": st.sampled_from(_ODD_FPS),
    "selector": st.sampled_from(["body75", "upper", "x", 1]),
    "features": st.sampled_from(["flow", "flow,handnorm", "", "x", ["flow"], 3]),
    "seed": st.sampled_from([0, 7, -1, 10**400, 1.5]),
    "threshold_b": st.sampled_from([0, 50.0, 100, -1, 1e308]),
    "mode": st.sampled_from(["argmax", "threshold", "x"]),
})


@pytest.fixture(scope="module")
def golden_tiny_checkpoint(tmp_path_factory):
    out = tmp_path_factory.mktemp("golden-tiny")
    assert cli.main(["train", "--data-dir", str(GOLDEN_CLIPS), "--hidden-dim", "4",
                     "--layers", "1", "--max-steps", "1", "--out-dir", str(out)]) == 0
    return str(out / "model.ckpt")


def _edit_segments(doc, edits):
    for op, value in edits:
        sign = doc.get("tiers", {}).get("sign")
        if op in ("start", "end") and sign:
            sign[0][op] = value
        elif op == "overlap" and sign and all(type(sign[0][k]) is int for k in ("start", "end")):
            sign.append({"start": sign[0]["start"] + value, "end": sign[0]["end"] + value})
        elif op == "fps" and "fps" in doc:
            doc["fps"] = value
        elif op == "phrase" and "tiers" in doc:
            doc["tiers"]["phrase"] = value
        elif op == "drop":
            doc.pop(value, None)


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(edits=SEGMENT_EDITS, config=CONFIGS)
@example(edits=[("end", 10**400)], config={})
@example(edits=[("overlap", 10)], config={})
@example(edits=[("fps", 5e-324)], config={"fps": 5e-324})
@example(edits=[("fps", 1e15)], config={"fps": 1e15})
@example(edits=[("fps", 1e308)], config={"fps": 1e308})
def test_cli_segments_and_config_fuzz(tmp_path, capsys, golden_tiny_checkpoint, edits, config):
    data = tmp_path / "data"
    if not data.exists():
        shutil.copytree(GOLDEN_CLIPS, data)
    gold = data / "golden0.segments.json"
    doc = json.loads((GOLDEN_CLIPS / gold.name).read_text(encoding="utf-8"))
    _edit_segments(doc, edits)
    gold.write_text(json.dumps(doc), encoding="utf-8")
    conf = tmp_path / "conf.json"
    conf.write_text(json.dumps(config), encoding="utf-8")
    out = ["--out-dir", str(tmp_path / "out")]
    with_config = ["--config", str(conf)] + out
    runs = {
        "train": ["--data-dir", str(data), "--hidden-dim", "4", "--layers", "1",
                  "--max-steps", "1", *with_config],
        "tune": ["--data-dir", str(data), "--checkpoint", golden_tiny_checkpoint,
                 "--tier", "sign", *with_config],
        "segment": [*map(str, sorted(data.glob("*.pose.json"))),
                    "--checkpoint", golden_tiny_checkpoint, *with_config],
        "eval": ["--pred", str(gold), "--gold", str(gold), *out],
        "bio-fidelity": ["--gold", str(gold), *out],
    }
    for command, argv in runs.items():
        rc = cli.main([command, *argv])
        captured = capsys.readouterr()
        if rc == 0:
            assert captured.err == ""
        else:
            assert rc == 1
            err = captured.err
            stage = err.removeprefix(f"signseg {command}: ").split(":", 1)[0]
            assert err.startswith(f"signseg {command}: ") and stage not in ("", "error"), err
