"""Golden `segment` outputs: committed inputs, and the files `segment` wrote on them.

tests/golden/ holds:
  clips/             two short upper-body clips and their segments files,
                     written once and never rewritten by this tool;
  <set>.ckpt         a 1x16 tagger trained on the clips, one per feature set
                     (flow.ckpt, flow_handnorm.ckpt);
  segment/<set>-w<n>/  what `segment` writes on both clips with that
                     checkpoint and --workers n (1 and 2): each clip's
                     segments JSON, sign and phrase VTT, and segment.run.json.

Every run works in one directory and names its files by relative paths, so
the manifests hold no machine's paths. tests/test_golden.py reruns them and
compares every file byte for byte.

A BLAS reduction feeds the segment outputs: the forward pass sums in float32,
and another CPU's kernels may round the low bits differently. So every B and
O probability (x100) of the golden clips must lie at least MARGIN from the
threshold it is decoded at; then a mismatch means a changed program, not a
changed CPU. The test checks that on every run, and --write writes nothing
when it fails.

    python3 tools/golden.py --write   # retrain both checkpoints, rewrite segment/
"""

import argparse
import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from signseg import cli  # noqa: E402
from signseg.pipeline import PipelineOptions, prepare_features  # noqa: E402
from signseg.pose import load_pose  # noqa: E402
from signseg.tagger import forward, load_model  # noqa: E402
from signseg.tags import SEGMENTS_TIERS  # noqa: E402

GOLDEN = ROOT / "tests" / "golden"
CLIPS = ("golden0", "golden1")
FEATURE_SETS = {"flow": "flow", "flow_handnorm": "flow,handnorm"}
WORKERS = (1, 2)
TRAIN_ARGS = ("--hidden-dim", "16", "--layers", "1", "--max-steps", "60",
              "--learning-rate", "0.01")
# Percentage points between a probability x100 and its threshold. A float32
# rounding moves a probability by about 1e-7 here, so this leaves room for
# thousands of roundings.
MARGIN = 0.01


def _main_in(workdir, argv) -> None:
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        rc = cli.main(argv)
    finally:
        os.chdir(cwd)
    if rc != 0:
        raise RuntimeError(f"signseg {' '.join(argv)} exited {rc}")


def segment_runs():
    """(output directory, argv) of each golden run, relative to its work directory."""
    poses = [f"clips/{stem}.pose.json" for stem in CLIPS]
    for name, flags in FEATURE_SETS.items():
        for workers in WORKERS:
            out = f"segment/{name}-w{workers}"
            yield out, ["segment", *poses, "--checkpoint", f"{name}.ckpt",
                        "--features", flags, "--workers", str(workers), "--out-dir", out]


def copy_inputs(workdir) -> None:
    shutil.copytree(GOLDEN / "clips", Path(workdir) / "clips")
    for name in FEATURE_SETS:
        shutil.copy(GOLDEN / f"{name}.ckpt", workdir)


def run_segments(workdir) -> None:
    for _, argv in segment_runs():
        _main_in(workdir, argv)


def _files(root) -> dict:
    return {p.relative_to(root).as_posix(): p for p in sorted(Path(root).rglob("*"))
            if p.is_file()}


def differing_files(workdir) -> list:
    """The files under segment/ that workdir and the golden directory do not
    both hold with the same bytes."""
    got, want = _files(Path(workdir) / "segment"), _files(GOLDEN / "segment")
    return [name for name in sorted(got.keys() | want.keys())
            if name not in got or name not in want
            or got[name].read_bytes() != want[name].read_bytes()]


def margin_faults(root=GOLDEN) -> list:
    """Each B or O probability (x100) of the runs under root that lies within
    MARGIN of the threshold it is decoded at, as a line naming where."""
    faults = []
    for out, _ in segment_runs():
        manifest = json.loads((Path(root) / out / "segment.run.json").read_text(encoding="utf-8"))
        opts = manifest["options"]
        popts = PipelineOptions(opts["fps"], opts["selector"], tuple(opts["features"]))
        model = load_model(Path(root) / opts["checkpoint"])
        for path in manifest["inputs"]:
            feats = prepare_features(load_pose(Path(root) / path, popts.read_columns), popts)
            probs = forward(model, feats.values)
            for tier in SEGMENTS_TIERS:
                for column, key in ((0, "threshold_b"), (2, "threshold_o")):
                    gap = abs(probs[tier][:, column] * 100.0 - opts[key])
                    for t in (gap < MARGIN).nonzero()[0]:
                        faults.append(f"{out} {path} {tier} frame {t}: {key} "
                                      f"{opts[key]:g} is {gap[t]:.2g} away")
    return faults


def write() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        shutil.copytree(GOLDEN / "clips", work / "clips")
        for name, flags in FEATURE_SETS.items():
            _main_in(work, ["train", "--data-dir", "clips", "--features", flags,
                            "--out-dir", f"train-{name}", *TRAIN_ARGS])
            shutil.copy(work / f"train-{name}" / "model.ckpt", work / f"{name}.ckpt")
        run_segments(work)
        faults = margin_faults(work)
        if faults:
            print("\n".join(faults), file=sys.stderr)
            print(f"{len(faults)} probabilities within {MARGIN} of a threshold; "
                  "nothing written", file=sys.stderr)
            return 1
        for name in FEATURE_SETS:
            shutil.copy(work / f"{name}.ckpt", GOLDEN / f"{name}.ckpt")
        shutil.rmtree(GOLDEN / "segment", ignore_errors=True)
        shutil.copytree(work / "segment", GOLDEN / "segment")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--write", action="store_true", required=True,
                        help="retrain the checkpoints and rewrite the expected outputs")
    parser.parse_args(argv)
    return write()


if __name__ == "__main__":
    sys.exit(main())
