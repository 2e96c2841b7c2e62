"""Seeded input generation for the benchmark workloads.

Inputs are written in the poseseq-json/1 and segments-json/1 formats by this
module's own writers, so the bytes a workload parses do not change when the
program's serializers do. The same seed always produces byte-identical files.
"""

import json
import os

import numpy as np

from signseg.pose import BODY_POINTS, FACE_POINT_COUNT, HAND_POINTS
from signseg.synthetic import UPPER_BODY_POINTS, motion_pose

FPS = 25.0

# Rest positions (x, y) of the BODY points that motion_pose does not model,
# in the same units as synthetic._BODY_BASE (shoulder distance 0.4).
_BODY_REST = {
    "LEFT_EYE_INNER": (0.97, 0.50), "LEFT_EYE": (0.95, 0.50), "LEFT_EYE_OUTER": (0.93, 0.50),
    "RIGHT_EYE_INNER": (1.03, 0.50), "RIGHT_EYE": (1.05, 0.50), "RIGHT_EYE_OUTER": (1.07, 0.50),
    "LEFT_EAR": (0.90, 0.52), "RIGHT_EAR": (1.10, 0.52),
    "MOUTH_LEFT": (0.97, 0.61), "MOUTH_RIGHT": (1.03, 0.61),
    "LEFT_PINKY": (0.68, 1.78), "RIGHT_PINKY": (1.32, 1.78),
    "LEFT_INDEX": (0.70, 1.80), "RIGHT_INDEX": (1.30, 1.80),
    "LEFT_THUMB": (0.73, 1.76), "RIGHT_THUMB": (1.27, 1.76),
    "LEFT_HIP": (0.88, 1.95), "RIGHT_HIP": (1.12, 1.95),
    "LEFT_KNEE": (0.88, 2.45), "RIGHT_KNEE": (1.12, 2.45),
    "LEFT_ANKLE": (0.88, 2.95), "RIGHT_ANKLE": (1.12, 2.95),
    "LEFT_HEEL": (0.87, 3.00), "RIGHT_HEEL": (1.13, 3.00),
    "LEFT_FOOT_INDEX": (0.85, 3.05), "RIGHT_FOOT_INDEX": (1.15, 3.05),
}
# Body points that travel rigidly with the right wrist, as the right hand does.
_RIGHT_HAND_BODY = ("RIGHT_PINKY", "RIGHT_INDEX", "RIGHT_THUMB")

HOLISTIC_POINTS = len(BODY_POINTS) + FACE_POINT_COUNT + 2 * len(HAND_POINTS)


def _holistic_component_docs():
    return [
        {"name": "BODY", "points": list(BODY_POINTS)},
        {"name": "FACE", "points": [f"FACE_{i}" for i in range(FACE_POINT_COUNT)]},
        {"name": "LEFT_HAND", "points": list(HAND_POINTS)},
        {"name": "RIGHT_HAND", "points": list(HAND_POINTS)},
    ]


def _upper_body_component_docs():
    return [
        {"name": "BODY", "points": list(UPPER_BODY_POINTS)},
        {"name": "LEFT_HAND", "points": list(HAND_POINTS)},
        {"name": "RIGHT_HAND", "points": list(HAND_POINTS)},
    ]


def _face_rest() -> np.ndarray:
    """468 distinct static face points on a sunflower spiral around the nose."""
    i = np.arange(FACE_POINT_COUNT)
    r = np.sqrt((i + 0.5) / FACE_POINT_COUNT)
    theta = i * np.pi * (3.0 - np.sqrt(5.0))
    pts = np.zeros((FACE_POINT_COUNT, 3))
    pts[:, 0] = 1.00 + 0.11 * r * np.cos(theta)
    pts[:, 1] = 0.55 + 0.14 * r * np.sin(theta)
    pts[:, 2] = -0.02 * (1.0 - r * r)
    return pts


def holistic_clip(seed: int, num_frames: int):
    """A 543-point holistic-layout clip carrying motion_pose's arm and hand motion.

    BODY points named in synthetic.UPPER_BODY_POINTS and both hands take their
    coordinates from motion_pose; the right pinky, index and thumb BODY points
    follow the right wrist. Face and leg points stay still. Coordinates are
    rounded to float32, as pose estimators emit them.

    Returns (coords (T, 543, 3) float64, conf (T, 543), gold tiers).
    """
    seq, gold = motion_pose(seed, fps=FPS, num_frames=num_frames)
    n_body = len(BODY_POINTS)
    coords = np.zeros((num_frames, HOLISTIC_POINTS, 3))
    for name, (x, y) in _BODY_REST.items():
        coords[:, BODY_POINTS.index(name), :2] = (x, y)
    for k, name in enumerate(UPPER_BODY_POINTS):
        coords[:, BODY_POINTS.index(name)] = seq.coords[:, k]
    wrist = UPPER_BODY_POINTS.index("RIGHT_WRIST")
    wrist_shift = seq.coords[:, wrist] - seq.coords[0, wrist]
    for name in _RIGHT_HAND_BODY:
        coords[:, BODY_POINTS.index(name)] += wrist_shift
    coords[:, n_body:n_body + FACE_POINT_COUNT] = _face_rest()
    coords[:, n_body + FACE_POINT_COUNT:] = seq.coords[:, len(UPPER_BODY_POINTS):]
    coords = coords.astype(np.float32).astype(np.float64)
    conf = np.ones(coords.shape[:2])
    return coords, conf, gold


def upper_body_clip(seed: int, num_frames: int):
    """motion_pose's 49-point clip as (coords, conf, gold tiers)."""
    seq, gold = motion_pose(seed, fps=FPS, num_frames=num_frames)
    return seq.coords, seq.conf, gold


def write_pose(path, components, coords, conf) -> None:
    """poseseq-json/1, one frame at a time so a long clip needs little memory.

    The file is synced before returning, so its writeback does not compete
    with the timed calls that read it.
    """
    head = json.dumps({"version": "poseseq-json/1", "fps": FPS, "components": components},
                      separators=(",", ":"))
    quads = np.concatenate([coords, conf[:, :, None]], axis=2)
    with open(path, "w", encoding="utf-8") as f:
        f.write(head[:-1] + ',"frames":[')
        for t in range(quads.shape[0]):
            if t:
                f.write(",")
            f.write(json.dumps(quads[t].tolist(), separators=(",", ":")))
        f.write("]}")
        f.flush()
        os.fsync(f.fileno())


def write_segments(path, gold) -> None:
    doc = {"fps": FPS, "tiers": {tier: [{"start": s.start, "end": s.end} for s in segs]
                                  for tier, segs in gold.items()}}
    with open(path, "w", encoding="utf-8") as f:
        f.write(json.dumps(doc, separators=(",", ":")))


def _write_clip(dirpath, stem, components, clip, with_gold):
    coords, conf, gold = clip
    path = os.path.join(dirpath, f"{stem}.pose.json")
    write_pose(path, components, coords, conf)
    if with_gold:
        write_segments(os.path.join(dirpath, f"{stem}.segments.json"), gold)
    return path, gold


def write_holistic(dirpath, stem, seed, num_frames, with_gold=False):
    """Writes <stem>.pose.json (and the gold .segments.json); returns (path, gold)."""
    return _write_clip(dirpath, stem, _holistic_component_docs(),
                       holistic_clip(seed, num_frames), with_gold)


def write_upper_body(dirpath, stem, seed, num_frames, with_gold=False):
    """Writes <stem>.pose.json (and the gold .segments.json); returns (path, gold)."""
    return _write_clip(dirpath, stem, _upper_body_component_docs(),
                       upper_body_clip(seed, num_frames), with_gold)


def clip_seeds(seed: int, count: int) -> list[int]:
    rng = np.random.default_rng(seed)
    return [int(s) for s in rng.integers(0, 2**31 - 1, size=count)]

