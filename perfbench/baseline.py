"""Measures the baseline rows and writes perfbench/baseline.json.

    python3 perfbench/baseline.py [--seed N] [--seconds S]

The rows are parse, body75+flow features and forward of one 1500-frame
holistic clip, hand normalization of the segment-batch clips, and one
4x256 train step at T=100. The first four come from traced runs of
run.py. The train step is timed here directly, as the median of 7 steps
after one warm-up step.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

import run

LIMITS = ("2 cores shared with other tenants; warm file cache (inputs are written "
          "just before they are read); no CPU pinning; no cache dropping; OpenBLAS "
          "uses its default thread count")


def traced(workload, seed, seconds) -> dict:
    out = subprocess.run([sys.executable, os.path.join(run.HERE, "run.py"),
                          "--workload", workload, "--seed", str(seed),
                          "--seconds", str(seconds), "--trace", "1"],
                         check=True, capture_output=True, text=True)
    doc = json.loads(out.stdout.strip().splitlines()[-1])
    if not doc["correct"]:
        raise RuntimeError(f"{workload}: outputs failed their checks")
    return {name: m["value"] for name, m in doc["metrics"].items()}


def train_step_seconds(seed) -> float:
    sys.path[:0] = [run.SRC, run.HERE]
    import inputs
    from signseg.pipeline import PipelineOptions
    from signseg.tagger import AdamState, TaggerConfig, init_model, train_step
    from signseg.train import load_clip

    workdir = os.path.join(run.CACHE, f"baseline-{os.getpid()}")
    os.makedirs(workdir)
    try:
        pose, _ = inputs.write_upper_body(workdir, "clip", seed, 100, with_gold=True)
        clip = load_clip("clip", pose, os.path.join(workdir, "clip.segments.json"),
                         PipelineOptions(features=("flow",)))
    finally:
        shutil.rmtree(workdir)
    model = init_model(TaggerConfig(input_dim=clip.features.shape[1]))
    state = AdamState()
    samples = []
    for _ in range(8):
        start = time.perf_counter()
        train_step(model, clip.features, clip.gold, state)
        samples.append(time.perf_counter() - start)
    return statistics.median(samples[1:])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=35)
    args = parser.parse_args()
    hol = traced("segment-holistic", args.seed, args.seconds)
    batch = traced("segment-batch", args.seed, args.seconds)
    train_tune = traced("train-tune", args.seed, args.seconds)
    import numpy

    doc = {
        "machine": f"{os.cpu_count()} cores, Python {platform.python_version()}, "
                   f"numpy {numpy.__version__}",
        "limits": LIMITS,
        "seed": args.seed,
        "rows_s": {
            "parse (1500-frame holistic clip)": hol["pose.load_s"],
            "body75+flow features (same clip)": hol["pipeline.prepare_pose_s"]
            + hol["flow.optical_flow_s"] + hol["flow.assemble_self_s"],
            "handnorm (segment-batch: 3600 frames, 2 hands, 2 workers, busy time)":
                batch["hands.normalize_s"],
            "forward (1500-frame holistic clip)": hol["tagger.forward_s"],
            "one train step at T=100 (4x256, flow)": train_step_seconds(args.seed),
        },
        "per_layer": {"segment-holistic": hol, "segment-batch": batch,
                      "train-tune": train_tune},
    }
    with open(os.path.join(run.HERE, "baseline.json"), "w", encoding="utf-8") as f:
        json.dump(doc, f, indent=2)
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
