import gc
import tracemalloc
import warnings

import numpy as np
import pytest

from signseg.flow import _normalized_hand_block, assemble_features, check_finite, optical_flow
from signseg.hands import (
    BONE_LENGTH, I_MCP, M_MCP, P_MCP, WRIST, Handedness, HandPose, hand_normalize,
)
from signseg.pose import HAND_POINTS, PoseComponent, component_columns, make_pose
from signseg.synthetic import hand_template, upper_body_components


def two_point_pose(fps=25):
    comp = [PoseComponent("BODY", ("A", "B"))]
    coords = np.zeros((3, 2, 3))
    coords[1, 0] = [3.0, 4.0, 0.0]   # point A moves 5 units into frame 1
    coords[2, 0] = [3.0, 4.0, 12.0]  # then 12 more along z
    conf = np.ones((3, 2))
    return make_pose(fps, comp, coords, conf)


def test_flow_oracle():
    fm = optical_flow(two_point_pose(fps=25))
    assert fm.shape == (3, 2)
    np.testing.assert_array_equal(fm[0], 0.0)
    assert fm[1, 0] == pytest.approx(5.0 * 25)
    assert fm[2, 0] == pytest.approx(12.0 * 25)
    np.testing.assert_array_equal(fm[:, 1], 0.0)


def test_flow_scales_with_fps():
    lo = optical_flow(two_point_pose(fps=10))
    hi = optical_flow(two_point_pose(fps=50))
    np.testing.assert_allclose(hi, 5.0 * lo)


def test_flow_confidence_gating():
    seq = two_point_pose()
    seq.conf[0, 0] = 0.0
    fm = optical_flow(seq)
    assert fm[1, 0] == 0.0          # previous frame missing
    assert fm[2, 0] == pytest.approx(12.0 * 25)
    seq2 = two_point_pose()
    seq2.conf[2, 0] = 0.0
    assert optical_flow(seq2)[2, 0] == 0.0  # current frame missing


def test_flow_empty_sequence():
    comp = [PoseComponent("BODY", ("A",))]
    seq = make_pose(25, comp, np.zeros((0, 1, 3)), np.zeros((0, 1)))
    assert optical_flow(seq).shape == (0, 1)


def reference_optical_flow(seq):
    """optical_flow as it was before it took the frames in row blocks."""
    t, k = seq.conf.shape
    values = np.zeros((t, k), dtype=float)
    if t > 1:
        disp = np.linalg.norm(seq.coords[1:] - seq.coords[:-1], axis=2)
        tracked = (seq.conf[1:] > 0) & (seq.conf[:-1] > 0)
        values[1:] = np.where(tracked, disp * seq.fps, 0.0)
    return values


def random_pose(t, k, seed, fps=25.0):
    rng = np.random.default_rng(seed)
    comp = [PoseComponent("BODY", tuple(f"P{i}" for i in range(k)))]
    conf = rng.uniform(size=(t, k))
    conf[rng.uniform(size=(t, k)) < 0.2] = 0.0
    return make_pose(fps, comp, rng.normal(size=(t, k, 3)) * 100, conf)


# 64-66 and 129 put the last frame on either side of a block's edge (FLOW_ROWS = 64)
@pytest.mark.parametrize("t", [0, 1, 2, 64, 65, 66, 129, 300])
def test_flow_matches_the_whole_array_formula(t):
    seq = random_pose(t, 5, seed=t, fps=29.97)
    assert np.array_equal(optical_flow(seq), reference_optical_flow(seq))


def test_flow_holds_no_whole_clip_displacement():
    # a 1500-frame holistic clip: the whole-array difference alone is three
    # times the (T, K) result, and the squares inside norm as much again
    seq = random_pose(1500, 543, seed=1)
    want = reference_optical_flow(seq)
    gc.collect()
    tracemalloc.start()
    try:
        got = optical_flow(seq)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(got, want)
    assert peak < 1.25 * got.nbytes


def test_features_interleaving_with_flow():
    seq = two_point_pose()
    fm = assemble_features(seq, include_flow=True)
    assert fm.width == 2 * 4
    flow = optical_flow(seq)
    # per point: x, y, z, flow
    np.testing.assert_array_equal(fm.values[:, 0:3], seq.coords[:, 0])
    np.testing.assert_array_equal(fm.values[:, 3], flow[:, 0])
    np.testing.assert_array_equal(fm.values[:, 7], flow[:, 1])


def test_features_without_flow():
    fm = assemble_features(two_point_pose(), include_flow=False)
    assert fm.width == 6


def test_features_zero_missing_coords():
    seq = two_point_pose()
    seq.conf[1, 0] = 0.0
    fm = assemble_features(seq, include_flow=False)
    np.testing.assert_array_equal(fm.values[1, 0:3], 0.0)


def hands_pose(frames=2):
    comps = upper_body_components()
    k = sum(len(c.points) for c in comps)
    coords = np.zeros((frames, k, 3))
    left = hand_template(mirror=True)
    right = hand_template()
    nb = len(comps[0].points)
    coords[:, nb:nb + 21] = left
    coords[:, nb + 21:] = right
    coords[:, 1] = [-0.5, 0, 0]
    coords[:, 2] = [0.5, 0, 0]
    return make_pose(25, comps, coords, np.ones((frames, k)))


@pytest.mark.parametrize("include_flow, col, name", [
    (True, 4 * 2 + 3, "BODY/RIGHT_SHOULDER"),  # the flow of point 2
    (False, 3 * 49, "normalized LEFT_HAND/WRIST"),
    (False, 3 * 49 + 63 + 3 * 20 + 2, "normalized RIGHT_HAND/P_TIP"),
], ids=["flow", "left-wrist", "right-tip"])
def test_check_finite_names_the_first_frame_and_point(include_flow, col, name):
    seq = hands_pose(frames=4)
    values = assemble_features(seq, include_flow, include_hand_norm=True).values
    values[3, 0] = np.nan  # a later frame
    values[2, col] = np.inf
    with pytest.raises(ValueError, match=f"^frame 2, point {name}: value inf is not finite$"):
        check_finite(values, seq, 4 if include_flow else 3)


@pytest.mark.parametrize("include_flow", [True, False])
def test_a_coordinate_past_float32_is_an_error_without_a_warning(include_flow):
    seq = hands_pose(frames=3)
    seq.coords[1, 0, 0] = 1e200
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="^frame 1, point BODY/NOSE: value inf is not finite$"):
            assemble_features(seq, include_flow, include_hand_norm=True)


def test_hand_norm_block_width_and_anchor():
    seq = hands_pose()
    fm = assemble_features(seq, include_flow=False, include_hand_norm=True)
    k = seq.num_points
    assert fm.width == 3 * k + 126
    hands_block = fm.values[:, 3 * k:].reshape(len(seq.coords), 2, 21, 3)
    for hand in range(2):  # in bone units: the middle metacarpal is 1 long
        np.testing.assert_allclose(hands_block[0, hand, M_MCP], [0.0, 1.0, 0.0], atol=1e-9)


def test_hand_norm_missing_hand_is_zeros():
    seq = hands_pose()
    nb = len(seq.components[0].points)
    seq.conf[0, nb:nb + 21] = 0.0  # left hand missing in frame 0
    fm = assemble_features(seq, include_flow=False, include_hand_norm=True)
    k = seq.num_points
    left_block = fm.values[:, 3 * k:3 * k + 63]
    np.testing.assert_array_equal(left_block[0], 0.0)
    assert np.abs(left_block[1]).max() > 0


def test_hand_norm_requires_hand_components():
    with pytest.raises(ValueError, match="LEFT_HAND"):
        assemble_features(two_point_pose(), include_hand_norm=True)


def test_degenerate_hand_imputes_zeros():
    seq = hands_pose()
    nb = len(seq.components[0].points)
    seq.coords[0, nb:nb + 21] = 0.0  # all landmarks collapse to the wrist
    fm = assemble_features(seq, include_flow=False, include_hand_norm=True)
    k = seq.num_points
    np.testing.assert_array_equal(fm.values[0, 3 * k:3 * k + 63], 0.0)


def per_frame_hand_block(seq, off, handedness):
    """The per-frame loop that the batched hand block replaced, kept as the reference."""
    out = np.zeros((seq.num_frames, 21, 3))
    for t in range(seq.num_frames):
        conf = seq.conf[t, off:off + 21]
        if not (conf[[WRIST, I_MCP, M_MCP, P_MCP]] > 0).all():
            continue
        try:
            pts = hand_normalize(HandPose(seq.coords[t, off:off + 21], handedness)).points.copy()
        except ValueError:
            continue
        pts[conf == 0] = 0.0
        out[t] = pts
    return out.reshape(seq.num_frames, 63)


def test_hand_norm_block_matches_per_frame_loop():
    frames = 40
    seq = hands_pose(frames)
    rng = np.random.default_rng(4)
    seq.coords[:] += rng.normal(size=seq.coords.shape) * 0.05
    nb = len(seq.components[0].points)
    left, right = nb, nb + 21
    seq.conf[3, left + WRIST] = 0.0             # untracked anchor
    seq.conf[5, right + 7] = 0.0                # one missing fingertip joint
    seq.coords[7, left + M_MCP] = seq.coords[7, left + WRIST]      # zero metacarpal
    seq.coords[9, right + P_MCP] = seq.coords[9, right + I_MCP]    # collinear palm
    seq.conf[11:14, right:right + 21] = 0.0     # hand missing
    fm = assemble_features(seq, include_flow=False, include_hand_norm=True)
    k = seq.num_points
    for name, off, handedness, col in (("LEFT_HAND", left, Handedness.LEFT, 3 * k),
                                       ("RIGHT_HAND", right, Handedness.RIGHT, 3 * k + 63)):
        want = per_frame_hand_block(seq, off, handedness) / BONE_LENGTH
        # the float64 block in bone units bit for bit, and the features as its
        # float32 rounding
        assert np.array_equal(_normalized_hand_block(seq, name, handedness), want)
        assert np.array_equal(fm.values[:, col:col + 63], want.astype(np.float32))
    blocks = fm.values[:, 3 * k:].reshape(frames, 2, 21, 3)
    for t, hand in [(3, 0), (7, 0), (9, 1), (11, 1), (13, 1)]:
        np.testing.assert_array_equal(blocks[t, hand], 0.0)
    np.testing.assert_array_equal(blocks[5, 1, 7], 0.0)
    assert np.abs(blocks[5, 1, 8]).max() > 0 and np.abs(blocks[3, 1]).max() > 0


def noisy_hands_pose(frames=30, seed=5):
    """hands_pose moved off the float32 grid, with untracked points and
    untracked anchors of both hands."""
    seq = hands_pose(frames)
    rng = np.random.default_rng(seed)
    seq.coords[:] += rng.normal(size=seq.coords.shape) * 0.05
    seq.conf[rng.random(size=seq.conf.shape) < 0.1] = 0.0
    nb = len(seq.components[0].points)
    seq.conf[4, nb + WRIST] = 0.0
    seq.conf[6, nb + 21 + M_MCP] = 0.0
    return seq


def float64_features(seq, include_flow, include_hand_norm):
    """assemble_features in float64, block by block: the coordinates, their
    optical_flow, and the per-frame loop's normalized hands in bone units."""
    points = np.where(seq.conf[:, :, None] == 0, 0.0, seq.coords)
    if include_flow:
        points = np.concatenate([points, optical_flow(seq)[:, :, None]], axis=2)
    blocks = [points.reshape(seq.num_frames, -1)]
    if include_hand_norm:
        blocks += [per_frame_hand_block(seq, component_columns(seq.components, name).start,
                                        handedness) / BONE_LENGTH
                   for name, handedness in (("LEFT_HAND", Handedness.LEFT),
                                            ("RIGHT_HAND", Handedness.RIGHT))]
    return np.concatenate(blocks, axis=1)


@pytest.mark.parametrize("include_flow", [True, False])
@pytest.mark.parametrize("include_hand_norm", [True, False])
def test_features_in_float32_round_the_float64_features(include_flow, include_hand_norm):
    seq = noisy_hands_pose()
    want = float64_features(seq, include_flow, include_hand_norm)
    got = assemble_features(seq, include_flow, include_hand_norm).values
    assert want.dtype == np.float64 and got.dtype == np.float32
    assert np.array_equal(got, want.astype(np.float32))
    assert not np.array_equal(got, want)  # the float32 grid is not a no-op here


def test_flow_nonnegative_random():
    rng = np.random.default_rng(11)
    comp = [PoseComponent("BODY", tuple(f"P{i}" for i in range(5)))]
    coords = rng.normal(size=(20, 5, 3))
    conf = rng.random(size=(20, 5))
    conf[rng.random(size=conf.shape) < 0.3] = 0.0
    seq = make_pose(30, comp, coords, conf)
    fm = optical_flow(seq)
    assert (fm >= 0).all()
    tracked = np.zeros_like(conf, dtype=bool)  # tracked in the frame and the one before
    tracked[1:] = (conf[1:] > 0) & (conf[:-1] > 0)
    assert fm[~tracked].max(initial=0.0) == 0.0
    assert (fm[tracked] > 0).all()
