"""Golden command outputs: committed inputs, and the files each command wrote on them.

tests/golden/ holds inputs, written once and never rewritten by this tool:
  clips/             two short upper-body clips and their segments files;
  hands/             one-frame hand poses and the hand-bench manifest naming
                     them (a left hand after a body, so its columns start
                     past column 0);
and what --write writes:
  train/<set>/       `train` of a 1x16 tagger on the clips for TRAIN_STEPS,
                     one per feature set (flow, flow_handnorm):
                     training_log.csv and train.run.json; its model.ckpt is
                     committed as
  <set>.ckpt         (flow.ckpt, flow_handnorm.ckpt), which the runs below read;
  train/short/       the flow run for SHORT_STEPS, model.ckpt included;
  segment/<set>-w<n>/  what `segment` writes on both clips with that
                     checkpoint and --workers n (1 and 2): each clip's
                     segments JSON, sign and phrase VTT, and segment.run.json;
  tune/<tier>/       `tune` of flow.ckpt on clips/, for each tier;
  eval/golden0/      `eval` of segment/flow-w1's golden0 against its gold;
  bio-fidelity/golden0/  `bio-fidelity` on golden0's gold segments;
  flow-dump/golden1/ `flow-dump` of golden1;
  hand-bench/hands/  `hand-bench` on hands/manifest.json.

Every run works in one directory and names its files by relative paths, so
the manifests hold no machine's paths. tests/test_golden.py reruns them in
order (eval reads a segment output) and compares their files.

Whether a BLAS reduction feeds an output decides how it is compared:
  - train: each step's float32 products feed the next, and Adam divides
    a gradient by its root mean square, so where a gradient is near zero a
    rounding moves a step. In place of the SkylakeX kernels of OpenBLAS
    that wrote the files, its Haswell, Zen, Sandybridge, Nehalem and
    Prescott ones (OPENBLAS_CORETYPE), each also with numpy's SIMD held
    to AVX2 and to SSE4.2 (NPY_DISABLE_CPU_FEATURES), moved single trained
    parameters by up to 1.1e-5 over the short run's 10 steps, and by up
    to 0.13 over 60, where the best validation step moves too. So the
    short run compares in full: each parameter tensor within
    PARAM_TOLERANCE, every number of its log within TRAIN_TOLERANCE, and
    its manifest as bytes (its results are validation F1s and step
    counts; at each of its validations every frame's likeliest tag leads
    the next by 7e-4 or more, so no such rounding changes an argmax). The
    TRAIN_STEPS runs compare what no rounding moves: the log's header,
    the manifest but for its results, and each model.ckpt's config with
    its committed <set>.ckpt.
  - segment and tune: the forward pass sums in float32, and another CPU's
    kernels may round the low bits differently. So every B and O
    probability (x100) must lie at least MARGIN from each threshold it is
    decoded at: segment's two thresholds, and each of tune's grid values
    (10 to 90). tune's O-tag ROC-AUC ranks the O probabilities of all dev
    frames, so two frames of different gold class must lie at least
    AUC_MARGIN apart. Then a mismatch means a changed program, not a
    changed CPU, and the files compare as bytes. The test checks the
    margins on every run, and --write writes nothing when they fail.
  - eval, bio-fidelity and flow-dump: no BLAS call feeds them (flow is
    elementwise numpy), so they compare as bytes.
  - hand-bench: its coordinates pass through (21, 3) @ (3, 3) matmuls,
    which a CPU with fused multiply-add rounds differently, and the CSVs
    print them to 9 decimals, where such a rounding can move the last
    digit. So its CSVs compare as train's log does, numbers within
    HAND_TOLERANCE, one unit of the 9th decimal and a little more. Its
    manifest compares as bytes.

    python3 tools/golden.py --write   # retrain both checkpoints, rewrite every output
"""

import argparse
import json
import os
import re
import shutil
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from signseg import cli  # noqa: E402
from signseg.decoding import DEFAULT_GRID  # noqa: E402
from signseg.pipeline import PipelineOptions, prepare_features  # noqa: E402
from signseg.pose import load_pose  # noqa: E402
from signseg.tagger import forward, forward_clips, load_model  # noqa: E402
from signseg.tags import O, SEGMENTS_TIERS  # noqa: E402
from signseg.train import load_corpus  # noqa: E402

GOLDEN = ROOT / "tests" / "golden"
INPUTS = ("clips", "hands")
OUTPUTS = ("train", "segment", "tune", "eval", "bio-fidelity", "flow-dump", "hand-bench")
CLIPS = ("golden0", "golden1")
FEATURE_SETS = {"flow": "flow", "flow_handnorm": "flow,handnorm"}
WORKERS = (1, 2)
TRAIN_ARGS = ("--hidden-dim", "16", "--layers", "1", "--learning-rate", "0.01")
TRAIN_STEPS = 60
SHORT_STEPS = 10
# Percentage points between a probability x100 and its threshold. A float32
# rounding moves a probability by about 1e-7 here, so this leaves room for
# thousands of roundings.
MARGIN = 0.01
# The short run's log numbers compare within this; the log prints 6
# decimals, so a rounding can move the last one.
TRAIN_TOLERANCE = 1e-5
# The root mean square of the difference of each of the short run's
# parameter tensors stays within this. The cores and SIMD levels that the
# module docstring names moved it by at most 5.6e-7; Adam's beta2 at
# 0.9995 in place of 0.999 moves it by up to 1.8e-5.
PARAM_TOLERANCE = 5e-6
# The least distance between the O probabilities of two dev frames of
# different gold class, so that a float32 rounding cannot reorder them
AUC_MARGIN = 1e-4
# hand-bench prints 9 decimals; a rounding that moves a value by 1e-12 can
# move the last one
HAND_TOLERANCE = 1.5e-9
# tests/test_golden.py keeps tests/golden/ under this many bytes
MAX_BYTES = 1 << 20


def _main_in(workdir, argv) -> None:
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        rc = cli.main(argv)
    finally:
        os.chdir(cwd)
    if rc != 0:
        raise RuntimeError(f"signseg {' '.join(argv)} exited {rc}")


def runs():
    """(output directory, argv) of each golden run, in the order they run,
    relative to their work directory."""
    poses = [f"clips/{stem}.pose.json" for stem in CLIPS]
    trains = [(name, flags, TRAIN_STEPS) for name, flags in FEATURE_SETS.items()]
    for name, flags, steps in trains + [("short", "flow", SHORT_STEPS)]:
        yield f"train/{name}", ["train", "--data-dir", "clips", "--features", flags,
                                "--max-steps", str(steps), "--out-dir", f"train/{name}",
                                *TRAIN_ARGS]
    for name, flags in FEATURE_SETS.items():
        for workers in WORKERS:
            out = f"segment/{name}-w{workers}"
            yield out, ["segment", *poses, "--checkpoint", f"{name}.ckpt",
                        "--features", flags, "--workers", str(workers), "--out-dir", out]
    for tier in SEGMENTS_TIERS:
        yield f"tune/{tier}", ["tune", "--data-dir", "clips", "--checkpoint", "flow.ckpt",
                               "--features", "flow", "--tier", tier, "--out-dir", f"tune/{tier}"]
    yield "eval/golden0", ["eval", "--pred", "segment/flow-w1/golden0.segments.json",
                           "--gold", "clips/golden0.segments.json", "--out-dir", "eval/golden0"]
    yield "bio-fidelity/golden0", ["bio-fidelity", "--gold", "clips/golden0.segments.json",
                                   "--out-dir", "bio-fidelity/golden0"]
    yield "flow-dump/golden1", ["flow-dump", "clips/golden1.pose.json",
                                "--out-dir", "flow-dump/golden1"]
    yield "hand-bench/hands", ["hand-bench", "--manifest", "hands/manifest.json",
                               "--out-dir", "hand-bench/hands"]


def copy_inputs(workdir) -> None:
    for name in INPUTS:
        shutil.copytree(GOLDEN / name, Path(workdir) / name)
    for name in FEATURE_SETS:
        shutil.copy(GOLDEN / f"{name}.ckpt", workdir)


def run_all(workdir, retrain=False) -> None:
    """Every golden run in order. With retrain, each feature set's trained
    model.ckpt becomes the <set>.ckpt that the later runs read."""
    for out, argv in runs():
        _main_in(workdir, argv)
        if retrain and out in (f"train/{name}" for name in FEATURE_SETS):
            shutil.copy(Path(workdir) / out / "model.ckpt",
                        Path(workdir) / f"{Path(out).name}.ckpt")


def _files(root) -> dict:
    return {p.relative_to(root).as_posix(): p for p in sorted(Path(root).rglob("*"))
            if p.is_file()}


_NUMBER = re.compile(r"-?\d+(?:\.\d+)?(?:[eE][-+]?\d+)?")


def _text_close(got: str, want: str, tolerance: float) -> bool:
    """Whether two texts hold numbers within tolerance of each other, and
    are the same with each number's digits masked and its sign dropped (a
    value that rounds to zero may print as -0)."""
    def mask(m):
        return "#" + re.sub(r"\d", "0", m.group().lstrip("-"))

    if _NUMBER.sub(mask, got) != _NUMBER.sub(mask, want):
        return False
    got_values, want_values = (np.array(_NUMBER.findall(text), dtype=float)
                               for text in (got, want))
    return bool((np.abs(got_values - want_values) <= tolerance).all())


def _train_alike(name, got, want) -> bool:
    """Whether a file of a golden train run is alike its committed one, as
    the module docstring says."""
    if name.endswith(".ckpt"):
        a, b = load_model(got), load_model(want)
        return a.config == b.config and (not name.startswith("short/") or all(
            np.sqrt(np.mean(np.subtract(x, y, dtype=np.float64) ** 2)) <= PARAM_TOLERANCE
            for x, y in zip(a.params.values(), b.params.values())))
    a, b = got.read_text(encoding="utf-8"), want.read_text(encoding="utf-8")
    if name.startswith("short/"):
        return _text_close(a, b, TRAIN_TOLERANCE) if name.endswith(".csv") else a == b
    if name.endswith(".csv"):
        return a.splitlines()[:1] == b.splitlines()[:1]
    a_doc, b_doc = json.loads(a), json.loads(b)
    for doc in (a_doc, b_doc):  # what the run found; the rest is what it was asked
        del doc["options"]["results"]
    return a_doc == b_doc


def differing_files(workdir, output) -> list:
    """The files under the output directory (one of OUTPUTS) that workdir
    and the golden directory do not both hold alike: as bytes, or as the
    module docstring says of train and hand-bench."""
    got, want = _files(Path(workdir) / output), _files(GOLDEN / output)
    if output == "train":  # each feature set's model.ckpt is committed as <set>.ckpt
        want.update({f"{name}/model.ckpt": GOLDEN / f"{name}.ckpt" for name in FEATURE_SETS})

    def alike(name):
        if output == "train":
            return _train_alike(name, got[name], want[name])
        a, b = got[name].read_bytes(), want[name].read_bytes()
        if output == "hand-bench" and name.endswith(".csv"):
            return _text_close(a.decode("utf-8"), b.decode("utf-8"), HAND_TOLERANCE)
        return a == b

    return [name for name in sorted(got.keys() | want.keys())
            if name not in got or name not in want or not alike(name)]


def _auc_faults(out, scores, gold) -> list:
    """The pairs of an O-gold and a non-O-gold frame whose scores lie within
    AUC_MARGIN. The nearest such pair is adjacent in score order."""
    order = np.argsort(scores, kind="stable")
    scores, is_o = scores[order], gold[order] == O
    gaps = np.diff(scores)
    return [f"{out}: O probabilities of frames {order[i]} and {order[i + 1]} of different "
            f"gold class are {gaps[i]:.2g} apart"
            for i in ((is_o[1:] != is_o[:-1]) & (gaps < AUC_MARGIN)).nonzero()[0]]


def margin_faults(root=GOLDEN) -> list:
    """Each B or O probability (x100) of the segment and tune runs under
    root that lies within MARGIN of a threshold it is decoded at, and each
    pair of a tune run's dev frames of different gold class whose O
    probabilities lie within AUC_MARGIN, as a line naming where."""
    root = Path(root)
    faults = []
    for out, argv in runs():
        command = argv[0]
        if command not in ("segment", "tune"):
            continue
        manifest = json.loads((root / out / f"{command}.run.json").read_text(encoding="utf-8"))
        opts = manifest["options"]
        popts = PipelineOptions(opts["fps"], opts["selector"], tuple(opts["features"]))
        model = load_model(root / opts["checkpoint"])
        if command == "segment":
            names = manifest["inputs"]
            probs = [forward(model, prepare_features(load_pose(root / path, popts.read_columns),
                                                     popts).values) for path in names]
            tiers = SEGMENTS_TIERS
            thresholds = {key: (opts[key],) for key in ("threshold_b", "threshold_o")}
        else:  # as tune computes them: one batch of the corpus
            clips = load_corpus(root / opts["data_dir"], popts)
            names = [clip.name for clip in clips]
            probs = forward_clips(model, [clip.features for clip in clips])
            tiers = (opts["tier"],)
            thresholds = {key: DEFAULT_GRID for key in ("threshold_b", "threshold_o")}
            faults += _auc_faults(out, np.concatenate([p[opts["tier"]][:, O] for p in probs]),
                                  np.concatenate([clip.gold[opts["tier"]] for clip in clips]))
        for name, clip_probs in zip(names, probs):
            for tier in tiers:
                for column, key in ((0, "threshold_b"), (2, "threshold_o")):
                    for threshold in thresholds[key]:
                        gap = abs(clip_probs[tier][:, column] * 100.0 - threshold)
                        for t in (gap < MARGIN).nonzero()[0]:
                            faults.append(f"{out} {name} {tier} frame {t}: {key} "
                                          f"{threshold:g} is {gap[t]:.2g} away")
    return faults


def write() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        copy_inputs(work)
        run_all(work, retrain=True)
        faults = margin_faults(work)
        if faults:
            print("\n".join(faults), file=sys.stderr)
            print(f"{len(faults)} probabilities within their margin; nothing written",
                  file=sys.stderr)
            return 1
        for output in OUTPUTS:
            shutil.rmtree(GOLDEN / output, ignore_errors=True)
            shutil.copytree(work / output, GOLDEN / output)
        for name in FEATURE_SETS:
            os.replace(GOLDEN / "train" / name / "model.ckpt", GOLDEN / f"{name}.ckpt")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--write", action="store_true", required=True,
                        help="retrain the checkpoints and rewrite the expected outputs")
    parser.parse_args(argv)
    return write()


if __name__ == "__main__":
    sys.exit(main())
