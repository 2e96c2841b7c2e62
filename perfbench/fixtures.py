"""Trained checkpoints the segment workloads decode with, cached per checkout.

An untrained tagger decodes no segments, which would leave decode and emit
idle, so each segment workload uses a 4x256 checkpoint trained by
`signseg train` on four 100-frame clips of its own layout. The clips come
from a fixed fixture seed, not the workload seed, so a checkout trains each
checkpoint once; the key also hashes the package source and this
directory's generator, so a changed program trains its own.

On these synthetic clips the normalized hands are constant, with
coordinates up to a few hundred, and `train` with them does not converge
within a fixture's budget (frame F1 0.48 after 240 steps). The 322-wide
flow+handnorm checkpoint is therefore the 196-wide flow checkpoint with
zero projection rows appended for the 126 normalized-hand features: it
decodes what the flow model decodes while `segment` still computes and
multiplies every feature.

Run as a script, `fixtures.py widen SRC DST WIDTH` does that widening.
"""

import hashlib
import os
import shutil
import subprocess
import sys

import inputs

FIXTURE_SEED = 20231013
TRAIN_STEPS = 40
TRAIN_CLIPS = 4
TRAIN_FRAMES = 100

# name -> (clip writer, --features to train with, checkpoint input width)
KINDS = {
    "holistic-flow": (inputs.write_holistic, "flow", 260),
    "upper-flow-handnorm": (inputs.write_upper_body, "flow", 322),
}


def source_hash(src_dir) -> str:
    """Digest of the package source and of the code here that builds fixtures."""
    digest = hashlib.sha256()
    pkg = os.path.join(src_dir, "signseg")
    files = [os.path.join(dirpath, name)
             for dirpath, _, names in os.walk(pkg) if "__pycache__" not in dirpath
             for name in names if name.endswith((".py", ".json"))]
    files += [os.path.abspath(__file__), inputs.__file__]
    for path in sorted(files):
        digest.update(os.path.basename(path).encode())
        with open(path, "rb") as f:
            digest.update(f.read())
    return digest.hexdigest()[:16]


def cli_env(src_dir) -> dict:
    return dict(os.environ,
                PYTHONPATH=src_dir + os.pathsep + os.environ.get("PYTHONPATH", ""))


def checkpoint(kind: str, cache_dir, src_dir) -> str:
    """Path of the kind's checkpoint, training it in child processes if absent."""
    writer, features, width = KINDS[kind]
    final = os.path.join(cache_dir, f"{kind}-{source_hash(src_dir)}")
    ckpt = os.path.join(final, "model.ckpt")
    if os.path.exists(ckpt):
        return ckpt
    staging = final + f".tmp{os.getpid()}"
    shutil.rmtree(staging, ignore_errors=True)
    clips = os.path.join(staging, "clips")
    os.makedirs(clips)
    for i, seed in enumerate(inputs.clip_seeds(FIXTURE_SEED, TRAIN_CLIPS)):
        writer(clips, f"fixture{i}", seed, TRAIN_FRAMES, with_gold=True)
    env = cli_env(src_dir)
    trained = os.path.join(staging, "trained")
    subprocess.run([sys.executable, "-m", "signseg.cli", "train", "--data-dir", clips,
                    "--out-dir", trained, "--features", features, "--selector", "body75",
                    "--hidden-dim", "256", "--layers", "4",
                    "--max-steps", str(TRAIN_STEPS), "--patience", "0"],
                   check=True, env=env, stdout=subprocess.DEVNULL)
    subprocess.run([sys.executable, os.path.abspath(__file__), "widen",
                    os.path.join(trained, "model.ckpt"), os.path.join(staging, "model.ckpt"),
                    str(width)], check=True, env=env)
    shutil.rmtree(clips)
    shutil.rmtree(final, ignore_errors=True)
    os.replace(staging, final)
    return ckpt


def widen(src_path, dst_path, width: int) -> None:
    """Copy a checkpoint, appending zero projection rows up to `width` inputs."""
    import numpy as np

    from signseg.tagger import TaggerModel, load_model, save_model

    model = load_model(src_path)
    cfg = model.config
    extra = width - cfg.input_dim
    if extra < 0:
        raise ValueError(f"checkpoint is {cfg.input_dim} wide, more than {width}")
    params = dict(model.params)
    params["proj.W"] = np.concatenate([params["proj.W"], np.zeros((extra, cfg.hidden_dim))])
    cfg.input_dim = width
    save_model(TaggerModel(cfg, params), dst_path)


if __name__ == "__main__":
    widen(sys.argv[2], sys.argv[3], int(sys.argv[4]))
