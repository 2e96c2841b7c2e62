"""Self-tests of the benchmark: inputs, tracing and output checks.

    python3 -m pytest perfbench/tests
"""

import hashlib
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(os.path.dirname(BENCH), "src"), BENCH]

import inputs  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from signseg.pipeline import PipelineOptions, prepare_features  # noqa: E402
from signseg.pose import load_pose  # noqa: E402
from signseg.tags import Segment  # noqa: E402


def _digest(path) -> str:
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


@pytest.mark.parametrize("writer", [inputs.write_holistic, inputs.write_upper_body])
def test_same_seed_gives_identical_files(tmp_path, writer):
    digests = []
    for sub, seed in (("a", 7), ("b", 7), ("c", 8)):
        os.makedirs(tmp_path / sub)
        path, _ = writer(str(tmp_path / sub), "clip", seed, 120, with_gold=True)
        digests.append((_digest(path), _digest(tmp_path / sub / "clip.segments.json")))
    assert digests[0] == digests[1]
    assert digests[0][0] != digests[2][0]


def test_holistic_clip_moves_only_the_right_arm_in_signs(tmp_path):
    path, gold = inputs.write_holistic(str(tmp_path), "clip", 3, 200)
    seq = load_pose(path)
    assert seq.num_points == 543
    assert np.array_equal(seq.coords, seq.coords.astype(np.float32).astype(np.float64))
    moved = np.abs(np.diff(seq.coords, axis=0)).max(axis=2) > 0  # (T-1, K)
    in_sign = np.zeros(seq.num_frames, dtype=bool)
    for s in gold["sign"]:
        in_sign[s.start:s.end] = True
    wrist = seq.point_index("BODY", "RIGHT_WRIST")
    assert np.array_equal(moved[:, wrist], in_sign[1:])
    static = [seq.point_index("BODY", "LEFT_KNEE"), seq.point_index("FACE", "FACE_100"),
              seq.point_index("LEFT_HAND", "I_TIP")]
    assert not moved[:, static].any()
    feats = prepare_features(seq, PipelineOptions(features=("flow",)))
    assert feats.width == 260


def _segment_workload(tmp_path):
    """segment-batch's settings and fixture checkpoint on two short clips."""
    wl = workloads.WORKLOADS["segment-batch"]()
    wl.lengths = (150, 250)
    wl.prepare(str(tmp_path), 9, run.CACHE, run.SRC)
    return wl


def test_traced_request_restores_every_wrapped_name(tmp_path):
    originals = [(m, a, getattr(m, a)) for m, a, _, _ in spans.TARGETS]
    runner = run.Runner(_segment_workload(tmp_path), str(tmp_path))
    tracer = spans.Tracer()
    with tracer:
        calls, roots = runner.request(tracer)
    assert all(getattr(m, a) is orig for m, a, orig in originals)
    assert not calls[0].problems
    names = {s.name for s in tracer.spans}
    assert {"cli.segment", "cli._map_files", "cli.file", "cli.load_pose", "cli.forward",
            "pipeline.prepare_pose", "flow.optical_flow", "hands.hand_normalize",
            "cli.decode"} <= names
    files = [s for s in tracer.spans if s.name == "cli.file"]
    assert len(files) == 2 and all(tracer.spans[s.parent].name == "cli._map_files"
                                   for s in files)
    metrics = spans.layer_metrics(tracer, [(calls, roots)], [calls])
    assert 0.9 < metrics["cli.span_coverage"][0] <= 1.0
    assert metrics["decoding.segments"][0] > 0
    assert metrics["hands.normalize_calls"][0] == 2 * 400
    assert metrics["hands.normalized_ratio"][0] == 1.0

    with pytest.raises(RuntimeError), spans.Tracer():
        raise RuntimeError("boom")
    assert all(getattr(m, a) is orig for m, a, orig in originals)


def test_wrong_gold_is_counted_as_a_failure(tmp_path):
    wl = _segment_workload(tmp_path)
    runner = run.Runner(wl, str(tmp_path))
    good, _ = runner.request()
    assert not good[0].problems
    clip = wl.clips[0]
    clip.gold = {tier: [Segment(s.start + 5, s.end + 5) for s in segs]
                 for tier, segs in clip.gold.items()}
    bad, _ = runner.request()
    assert bad[0].problems
    metrics = run.end_to_end(wl, [good, bad], setup_s=1.0)
    assert metrics["ok_ratio"][0] == 0.5
