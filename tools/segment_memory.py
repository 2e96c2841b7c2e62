"""Peak memory of fresh `signseg segment` processes on long holistic clips.

Writes MediaPipe Holistic clips (543 points, 25 fps) of the given lengths
with the benchmark's generator, perfbench/inputs.py, and an untrained 4x256
tagger of input width 260 (body75 less the legs, with flow) from
init_model. Each clip is segmented (`--features flow`, `body75`) in a new
process that reports its peak resident set (VmHWM, in MiB as the benchmark
counts MB). Three copies of the longest clip that are no valid pose near
their end are segmented too: the comma before the last frame taken out and
a 0xFF byte before the closing brace must each fail in the parse stage as a
malformed pose document, named by its path; a FACE point's confidence of
1.5 in the last frame, written as compactly as the rest, must fail there as
out of range. Each must peak no higher than the valid clip. Prints one
JSON line with the peaks and the slope between the shortest and the longest
clip in MB per minute, and exits 1 if the slope is above the limit or a
malformed copy fails otherwise.

    python3 tools/segment_memory.py --minutes 1 3 --limit 12

Linux only: it reads /proc/self/status. The clips take about 52 MB of disk
per minute, and the longest clip's three copies three times as much again, in a
temporary directory removed at exit.
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
from signseg.pose import BODY_POINTS  # noqa: E402
from signseg.tagger import TaggerConfig, init_model, save_model  # noqa: E402

SEED = 2501
WIDTH = 260
FACE_POINT = len(BODY_POINTS) + 7  # a column body75 drops

# Runs in the new process: segment the clip, then print the process's peak.
CHILD = """
import sys
from signseg.cli import main
rc = main(sys.argv[1:])
with open("/proc/self/status") as f:
    print(next(int(line.split()[1]) for line in f if line.startswith("VmHWM:")) / 1024)
sys.exit(rc)
"""


def peak_mb(clip, checkpoint, out_dir, code=0) -> tuple[float, str]:
    """The peak of a new process that segments clip and must exit with code,
    and its stderr."""
    argv = [sys.executable, "-c", CHILD, "segment", clip, "--checkpoint", checkpoint,
            "--out-dir", out_dir, "--features", "flow", "--selector", "body75"]
    env = dict(os.environ, PYTHONPATH=SRC + os.pathsep + os.environ.get("PYTHONPATH", ""))
    done = subprocess.run(argv, env=env, capture_output=True, text=True)
    if done.returncode != code:
        sys.exit(f"segment {clip} exited {done.returncode}, not {code}:\n{done.stderr}")
    return float(done.stdout.splitlines()[-1]), done.stderr


def malformed_copies(clip) -> dict:
    """Copies of clip that are no valid pose near their end: each fault maps
    to its copy's path and the start of the parse error it must raise."""
    with open(clip, "rb") as f:
        raw = f.read()
    at = raw.rindex(b"]],[[") + 2
    point = at + 2  # the last frame's points, up to FACE_POINT
    for _ in range(FACE_POINT):
        point = raw.index(b"],[", point) + 2
    end = raw.index(b"]", point)
    conf = raw.rindex(b",", point, end) + 1
    view = memoryview(raw)
    malformed = "malformed pose document: "
    copies = {}
    for fault, parts, message in (
            ("no comma before the last frame", (view[:at], view[at + 1:]), malformed),
            ("0xFF before the closing brace", (view[:-1], b"\xff}"), malformed),
            ("a FACE confidence of 1.5 in the last frame", (view[:conf], b"1.5", view[end:]),
             "confidence values must lie in [0, 1]")):
        path = f"{clip}.{len(copies)}"
        copies[fault] = path, message
        with open(path, "wb") as f:
            for part in parts:
                f.write(part)
    return copies


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
        out = os.path.join(tmp, "out")
        peaks, malformed, faults = {}, {}, []
        for m in minutes:
            frames = round(m * 60 * inputs.FPS)
            clip, _ = inputs.write_holistic(tmp, f"clip{frames}", SEED, frames)
            peaks[m] = peak_mb(clip, checkpoint, out)[0]
            if m == minutes[-1]:
                for fault, (path, message) in malformed_copies(clip).items():
                    malformed[fault], err = peak_mb(path, checkpoint, out, code=1)
                    os.remove(path)
                    if not err.startswith(f"signseg segment: parse: {path}: {message}"):
                        faults.append(f"{fault}: {err.strip()}")
                    if malformed[fault] > peaks[m]:
                        faults.append(f"{fault}: peak {malformed[fault]:.1f} MB is above "
                                      f"the valid clip's {peaks[m]:.1f} MB")
            os.remove(clip)
    slope = (peaks[minutes[-1]] - peaks[minutes[0]]) / (minutes[-1] - minutes[0])
    print(json.dumps({"peak_mb": {f"{m:g}": round(p, 1) for m, p in peaks.items()},
                      "mb_per_minute": round(slope, 1), "limit": args.limit,
                      "malformed_peak_mb": {f: round(p, 1) for f, p in malformed.items()},
                      "malformed_faults": faults}))
    return 1 if faults or (args.limit is not None and slope > args.limit) else 0


if __name__ == "__main__":
    sys.exit(main())
