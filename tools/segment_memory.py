"""Peak memory of fresh `signseg segment` processes on long holistic clips.

Writes MediaPipe Holistic clips (543 points, 25 fps) of the given lengths
with the benchmark's generator, perfbench/inputs.py, and an untrained 4x256
tagger of input width 260 (body75 less the legs, with flow) from
init_model. Each clip is segmented (`--features flow`, `body75`) in a new
process that reports its peak resident set (VmHWM, in MiB as the benchmark
counts MB). Prints one JSON line with the peaks and the slope between the
shortest and the longest clip in MB per minute, and exits 1 if the slope
is above the limit.

    python3 tools/segment_memory.py --minutes 1 3 --limit 22

Linux only: it reads /proc/self/status. The clips take about 52 MB of disk
per minute, in a temporary directory removed at exit.
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
sys.path[:0] = [SRC, os.path.join(ROOT, "perfbench")]

import inputs  # noqa: E402
from signseg.tagger import TaggerConfig, init_model, save_model  # noqa: E402

SEED = 2501
WIDTH = 260

# Runs in the new process: segment the clip, then print the process's peak.
CHILD = """
import sys
from signseg.cli import main
rc = main(sys.argv[1:])
with open("/proc/self/status") as f:
    print(next(int(line.split()[1]) for line in f if line.startswith("VmHWM:")) / 1024)
sys.exit(rc)
"""


def peak_mb(clip, checkpoint, out_dir) -> float:
    argv = [sys.executable, "-c", CHILD, "segment", clip, "--checkpoint", checkpoint,
            "--out-dir", out_dir, "--features", "flow", "--selector", "body75"]
    env = dict(os.environ, PYTHONPATH=SRC + os.pathsep + os.environ.get("PYTHONPATH", ""))
    done = subprocess.run(argv, env=env, capture_output=True, text=True, check=True)
    return float(done.stdout.splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--minutes", type=float, nargs="+", default=[1.0, 3.0])
    parser.add_argument("--limit", type=float, default=None,
                        help="largest slope allowed, MB per minute")
    args = parser.parse_args(argv)
    minutes = sorted(set(args.minutes))
    if len(minutes) < 2:
        parser.error("--minutes needs two lengths or more")
    with tempfile.TemporaryDirectory() as tmp:
        checkpoint = os.path.join(tmp, "model.ckpt")
        save_model(init_model(TaggerConfig(input_dim=WIDTH)), checkpoint)
        peaks = {}
        for m in minutes:
            frames = round(m * 60 * inputs.FPS)
            clip, _ = inputs.write_holistic(tmp, f"clip{frames}", SEED, frames)
            peaks[m] = peak_mb(clip, checkpoint, os.path.join(tmp, "out"))
            os.remove(clip)
    slope = (peaks[minutes[-1]] - peaks[minutes[0]]) / (minutes[-1] - minutes[0])
    print(json.dumps({"peak_mb": {f"{m:g}": round(p, 1) for m, p in peaks.items()},
                      "mb_per_minute": round(slope, 1), "limit": args.limit}))
    return 1 if args.limit is not None and slope > args.limit else 0


if __name__ == "__main__":
    sys.exit(main())
