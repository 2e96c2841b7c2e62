"""The three workloads: their inputs, the CLI calls of one request, and output checks.

Every workload is a closed loop with one client: a request's calls go
through `signseg.cli.main` in this process, one after the other.
"""

import csv
import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

import fixtures
import inputs
from signseg.tagger import load_model

# A decoded clip passes when, on both tiers, the frame IoU with the
# generator's gold is at least MIN_IOU and predicted/gold segment counts lie
# in PERCENTAGE_RANGE (the bar of tests/test_acceptance.py criterion 5).
MIN_IOU = 0.95
PERCENTAGE_RANGE = (0.9, 1.1)
TIERS = ("sign", "phrase")
TUNE_GRID_CELLS = 81


@dataclass
class Clip:
    path: str
    stem: str
    frames: int
    gold: dict  # tier -> list of synthetic Segment


@dataclass
class Call:
    command: str
    wall: float
    frames: int
    problems: list = field(default_factory=list)


def _write_clips(dirpath, writer, seed, lengths, with_gold=False) -> list[Clip]:
    os.makedirs(dirpath, exist_ok=True)
    clips = []
    for i, (n, clip_seed) in enumerate(zip(lengths, inputs.clip_seeds(seed, len(lengths)))):
        stem = f"clip{i:02d}"
        path, gold = writer(dirpath, stem, clip_seed, n, with_gold=with_gold)
        clips.append(Clip(path, stem, n, gold))
    return clips


def segment_problems(out_dir, clip: Clip) -> list[str]:
    """Checks one clip's segments-json and cue files against its gold."""
    try:
        with open(os.path.join(out_dir, f"{clip.stem}.segments.json"), encoding="utf-8") as f:
            doc = json.load(f)
        tiers = {tier: [(int(s["start"]), int(s["end"])) for s in doc["tiers"][tier]]
                 for tier in TIERS}
    except (OSError, ValueError, KeyError, TypeError) as e:
        return [f"{clip.stem}: unreadable segments: {e}"]
    problems = []
    for tier in TIERS:
        pred = tiers[tier]
        gold = [(s.start, s.end) for s in clip.gold[tier]]
        iou = frame_iou(pred, gold, clip.frames)
        pct = len(pred) / len(gold)
        if iou < MIN_IOU or not PERCENTAGE_RANGE[0] <= pct <= PERCENTAGE_RANGE[1]:
            problems.append(f"{clip.stem}/{tier}: iou={iou:.4f} percentage={pct:.4f}")
        try:
            with open(os.path.join(out_dir, f"{clip.stem}.{tier}.vtt"), encoding="utf-8") as f:
                cues = f.read()
        except OSError as e:
            problems.append(f"{clip.stem}/{tier}: {e}")
            continue
        if not cues.startswith("WEBVTT") or cues.count(" --> ") != len(pred):
            problems.append(f"{clip.stem}/{tier}: cue file does not list the segments")
    return problems


def frame_iou(pred, gold, num_frames: int) -> float:
    masks = np.zeros((2, num_frames), dtype=bool)
    for row, segs in enumerate((pred, gold)):
        for start, end in segs:
            masks[row, max(start, 0):end] = True
    union = int((masks[0] | masks[1]).sum())
    return int((masks[0] & masks[1]).sum()) / union if union else 1.0


class SegmentWorkload:
    """One `segment` call per request over a fixed set of generated clips."""

    throughput_command = "segment"
    latency_command = "segment"

    def __init__(self, writer, lengths, features, workers, fixture):
        self.writer = writer
        self.lengths = lengths
        self.features = features
        self.workers = workers
        self.fixture = fixture
        self.clips: list[Clip] = []
        self.checkpoint = None

    def prepare(self, workdir, seed, cache_dir, src_dir) -> None:
        self.checkpoint = fixtures.checkpoint(self.fixture, cache_dir, src_dir)
        self.clips = _write_clips(os.path.join(workdir, "in"), self.writer, seed,
                                  self.lengths)

    def request(self, call_cli, out_dir) -> list[Call]:
        argv = ["segment", *[c.path for c in self.clips], "--checkpoint", self.checkpoint,
                "--out-dir", out_dir, "--features", self.features, "--selector", "body75",
                "--workers", str(self.workers)]
        rc, wall = call_cli(argv)
        call = Call("segment", wall, sum(c.frames for c in self.clips))
        if rc != 0:
            call.problems.append(f"segment exited {rc}")
        else:
            for clip in self.clips:
                call.problems += segment_problems(out_dir, clip)
        return [call]


class TrainTuneWorkload:
    """One `train` call, then one `tune` call per tier with its checkpoint."""

    throughput_command = "train"
    latency_command = "tune"
    TRAIN_LENGTHS = (100, 200, 125, 175)
    TRAIN_STEPS = len(TRAIN_LENGTHS)  # one epoch: each clip is one step
    DEV_CLIPS = 4
    DEV_FRAMES = 100

    def __init__(self):
        self.train_clips: list[Clip] = []
        self.dev_clips: list[Clip] = []
        self.train_dir = self.dev_dir = None

    def prepare(self, workdir, seed, cache_dir, src_dir) -> None:
        self.train_dir = os.path.join(workdir, "train")
        self.dev_dir = os.path.join(workdir, "dev")
        self.train_clips = _write_clips(self.train_dir, inputs.write_upper_body, seed,
                                        self.TRAIN_LENGTHS, with_gold=True)
        self.dev_clips = _write_clips(self.dev_dir, inputs.write_upper_body, seed + 1,
                                      [self.DEV_FRAMES] * self.DEV_CLIPS, with_gold=True)

    def request(self, call_cli, out_dir) -> list[Call]:
        argv = ["train", "--data-dir", self.train_dir, "--out-dir", out_dir,
                "--features", "flow", "--selector", "body75", "--hidden-dim", "256",
                "--layers", "4", "--max-steps", str(self.TRAIN_STEPS), "--patience", "0"]
        rc, wall = call_cli(argv)
        train = Call("train", wall, sum(c.frames for c in self.train_clips))
        if rc != 0:
            train.problems.append(f"train exited {rc}")
        else:
            train.problems += self._train_problems(out_dir)
        calls = [train]
        ckpt = os.path.join(out_dir, "model.ckpt")
        for tier in TIERS:
            argv = ["tune", "--data-dir", self.dev_dir, "--checkpoint", ckpt, "--tier", tier,
                    "--out-dir", out_dir, "--features", "flow", "--selector", "body75"]
            rc, wall = call_cli(argv)
            tune = Call("tune", wall, sum(c.frames for c in self.dev_clips))
            if rc != 0:
                tune.problems.append(f"tune {tier} exited {rc}")
            else:
                tune.problems += _tune_problems(out_dir, tier)
            calls.append(tune)
        return calls

    def _train_problems(self, out_dir) -> list[str]:
        problems = []
        try:
            with open(os.path.join(out_dir, "training_log.csv"), encoding="utf-8") as f:
                losses = [float(row["train_loss"]) for row in csv.DictReader(f)]
            with open(os.path.join(out_dir, "train.run.json"), encoding="utf-8") as f:
                steps = json.load(f)["options"]["results"]["steps"]
            model = load_model(os.path.join(out_dir, "model.ckpt"))
        except (OSError, ValueError, KeyError, RuntimeError) as e:
            return [f"train outputs unreadable: {e}"]
        if not losses or not all(math.isfinite(x) for x in losses):
            problems.append(f"train losses not finite: {losses}")
        if steps != self.TRAIN_STEPS:
            problems.append(f"train ran {steps} steps, expected {self.TRAIN_STEPS}")
        if model.config.hidden_dim != 256 or model.config.layers != 4:
            problems.append("checkpoint does not hold a 4x256 tagger")
        return problems


def _tune_problems(out_dir, tier) -> list[str]:
    try:
        with open(os.path.join(out_dir, f"tune_{tier}.csv"), encoding="utf-8") as f:
            rows = list(csv.DictReader(f))
    except OSError as e:
        return [f"tune {tier}: {e}"]
    if len(rows) != TUNE_GRID_CELLS:
        return [f"tune {tier}: {len(rows)} table rows, expected {TUNE_GRID_CELLS}"]
    return []


WORKLOADS = {
    "segment-holistic": lambda: SegmentWorkload(
        inputs.write_holistic, (1500,), "flow", 1, "holistic-flow"),
    "segment-batch": lambda: SegmentWorkload(
        inputs.write_upper_body, (300, 1100, 1500, 700), "flow,handnorm", 2,
        "upper-flow-handnorm"),
    "train-tune": TrainTuneWorkload,
}
