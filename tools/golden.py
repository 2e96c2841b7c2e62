"""Golden command outputs: committed inputs, and the files each command wrote on them.

tests/golden/ holds inputs, written once and never rewritten by this tool:
  clips/             two short upper-body clips and their segments files;
  hands/             one-frame hand poses and the hand-bench manifest naming
                     them (a left hand after a body, so its columns start
                     past column 0);
and what --write writes:
  <set>.ckpt         a 1x16 tagger trained on the clips, one per feature set
                     (flow.ckpt, flow_handnorm.ckpt);
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
  - segment and tune: the forward pass sums in float32, and another CPU's
    kernels may round the low bits differently. So every B and O
    probability (x100) must lie at least MARGIN from each threshold it is
    decoded at: segment's two thresholds, and each of tune's grid values
    (10 to 90). Then a mismatch means a changed program, not a changed CPU,
    and the files compare as bytes. The test checks the margin on every
    run, and --write writes nothing when it fails.
  - eval, bio-fidelity and flow-dump: no BLAS call feeds them (flow is
    elementwise numpy), so they compare as bytes.
  - hand-bench: its coordinates pass through (21, 3) @ (3, 3) matmuls,
    which a CPU with fused multiply-add rounds differently, and the CSVs
    print them to 9 decimals, where such a rounding can move the last
    digit. So its CSVs compare field by field: text exactly, numbers
    within HAND_TOLERANCE, one unit of the 9th decimal and a little more.
    Its manifest compares as bytes.

    python3 tools/golden.py --write   # retrain both checkpoints, rewrite every output
"""

import argparse
import csv
import json
import os
import shutil
import sys
import tempfile
from itertools import chain
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from signseg import cli  # noqa: E402
from signseg.decoding import DEFAULT_GRID  # noqa: E402
from signseg.pipeline import PipelineOptions, prepare_features  # noqa: E402
from signseg.pose import load_pose  # noqa: E402
from signseg.tagger import forward, forward_clips, load_model  # noqa: E402
from signseg.tags import SEGMENTS_TIERS  # noqa: E402
from signseg.train import load_corpus  # noqa: E402

GOLDEN = ROOT / "tests" / "golden"
INPUTS = ("clips", "hands")
OUTPUTS = ("segment", "tune", "eval", "bio-fidelity", "flow-dump", "hand-bench")
CLIPS = ("golden0", "golden1")
FEATURE_SETS = {"flow": "flow", "flow_handnorm": "flow,handnorm"}
WORKERS = (1, 2)
TRAIN_ARGS = ("--hidden-dim", "16", "--layers", "1", "--max-steps", "60",
              "--learning-rate", "0.01")
# Percentage points between a probability x100 and its threshold. A float32
# rounding moves a probability by about 1e-7 here, so this leaves room for
# thousands of roundings.
MARGIN = 0.01
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


def run_all(workdir) -> None:
    for _, argv in runs():
        _main_in(workdir, argv)


def _files(root) -> dict:
    return {p.relative_to(root).as_posix(): p for p in sorted(Path(root).rglob("*"))
            if p.is_file()}


def _csv_close(got: bytes, want: bytes) -> bool:
    """Whether two CSVs hold the same rows, text fields equal and number
    fields within HAND_TOLERANCE."""
    got_rows, want_rows = (list(csv.reader(data.decode("utf-8").splitlines()))
                           for data in (got, want))
    if [len(r) for r in got_rows] != [len(r) for r in want_rows]:
        return False
    for a, b in zip(chain.from_iterable(got_rows), chain.from_iterable(want_rows)):
        try:
            x, y = float(a), float(b)
        except ValueError:
            if a != b:
                return False
        else:
            if abs(x - y) > HAND_TOLERANCE:
                return False
    return True


def differing_files(workdir, output) -> list:
    """The files under the output directory (one of OUTPUTS) that workdir
    and the golden directory do not both hold alike: as bytes, or, for
    hand-bench's CSVs, within HAND_TOLERANCE."""
    got, want = _files(Path(workdir) / output), _files(GOLDEN / output)

    def alike(name):
        a, b = got[name].read_bytes(), want[name].read_bytes()
        return _csv_close(a, b) if output == "hand-bench" and name.endswith(".csv") else a == b

    return [name for name in sorted(got.keys() | want.keys())
            if name not in got or name not in want or not alike(name)]


def margin_faults(root=GOLDEN) -> list:
    """Each B or O probability (x100) of the segment and tune runs under
    root that lies within MARGIN of a threshold it is decoded at, as a line
    naming where."""
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
        for name, flags in FEATURE_SETS.items():
            _main_in(work, ["train", "--data-dir", "clips", "--features", flags,
                            "--out-dir", f"train-{name}", *TRAIN_ARGS])
            shutil.copy(work / f"train-{name}" / "model.ckpt", work / f"{name}.ckpt")
        run_all(work)
        faults = margin_faults(work)
        if faults:
            print("\n".join(faults), file=sys.stderr)
            print(f"{len(faults)} probabilities within {MARGIN} of a threshold; "
                  "nothing written", file=sys.stderr)
            return 1
        for name in FEATURE_SETS:
            shutil.copy(work / f"{name}.ckpt", GOLDEN / f"{name}.ckpt")
        for output in OUTPUTS:
            shutil.rmtree(GOLDEN / output, ignore_errors=True)
            shutil.copytree(work / output, GOLDEN / output)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--write", action="store_true", required=True,
                        help="retrain the checkpoints and rewrite the expected outputs")
    parser.parse_args(argv)
    return write()


if __name__ == "__main__":
    sys.exit(main())
