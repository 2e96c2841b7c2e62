import numpy as np
import pytest

from signseg.hands import (
    BONE_LENGTH, I_MCP, M_MCP, P_MCP, WRIST, Handedness, HandPose,
    cce, hand_normalize, mace, normalize_hands,
)
from signseg.synthetic import hand_template, random_rotation, scattered_copies


def right_hand(points=None):
    return HandPose(hand_template() if points is None else points, Handedness.RIGHT)


def test_handpose_validation():
    with pytest.raises(ValueError):
        HandPose(np.zeros((20, 3)), Handedness.RIGHT)
    with pytest.raises(ValueError):
        HandPose(np.full((21, 3), np.nan), Handedness.RIGHT)


def test_normalize_pins_wrist_and_bone():
    out = hand_normalize(right_hand())
    np.testing.assert_allclose(out.points[WRIST], 0.0, atol=1e-12)
    np.testing.assert_allclose(out.points[M_MCP], [0.0, BONE_LENGTH, 0.0], atol=1e-9)
    assert out.handedness is Handedness.RIGHT


def test_normalize_idempotent():
    once = hand_normalize(right_hand()).points
    twice = hand_normalize(HandPose(once, Handedness.RIGHT)).points
    np.testing.assert_allclose(twice, once, atol=1e-9)


def test_normalize_rigid_scale_invariance():
    base = hand_normalize(right_hand()).points
    rng = np.random.default_rng(5)
    for _ in range(20):
        rot = random_rotation(rng)
        pts = (hand_template() @ rot.T) * (0.3 + 3 * rng.random()) + rng.normal(size=3)
        out = hand_normalize(right_hand(pts)).points
        np.testing.assert_allclose(out, base, atol=1e-6)


def test_left_hand_mirrors_to_right():
    right = hand_normalize(right_hand()).points
    mirrored = hand_template()
    mirrored[:, 0] = -mirrored[:, 0]
    left = hand_normalize(HandPose(mirrored, Handedness.LEFT)).points
    np.testing.assert_allclose(left, right, atol=1e-9)


def test_normalize_degenerate_bone_raises():
    pts = hand_template()
    pts[M_MCP] = pts[WRIST]
    with pytest.raises(ValueError):
        hand_normalize(right_hand(pts))


def reference_hand_normalize(points, handedness):
    """The per-hand formula with np.linalg.norm and np.dot; None where degenerate."""
    pts = points * np.array([-1.0, 1.0, 1.0]) if handedness is Handedness.LEFT else points
    q = pts - pts[WRIST]
    bone = q[M_MCP]
    length = np.linalg.norm(bone)
    if length <= 1e-12:
        return None
    y = bone / length
    n = np.cross(q[I_MCP] - q[WRIST], q[P_MCP] - q[WRIST])
    n_norm = np.linalg.norm(n)
    scale = max(np.linalg.norm(q[I_MCP] - q[WRIST]), np.linalg.norm(q[P_MCP] - q[WRIST]), 1e-12)
    if n_norm <= 1e-12 * scale * scale:
        return None
    n = n / n_norm
    z = n - np.dot(n, y) * y
    z_norm = np.linalg.norm(z)
    if z_norm <= 1e-9:
        return None
    z = z / z_norm
    return (q @ np.stack([np.cross(y, z), y, z]).T) * (BONE_LENGTH / length)


def random_hands_with_degenerates(count, seed):
    """Random rigid+scaled hands; every 4th is sound, the rest are one of the
    three degeneracies: zero metacarpal, collinear palm, palm normal along the bone."""
    rng = np.random.default_rng(seed)
    pts = np.stack(scattered_copies(hand_template(), count, seed, noise=0.05))
    pts *= 10.0 ** rng.integers(-3, 4, size=(count, 1, 1))
    kind = np.arange(count) % 4
    for i in np.nonzero(kind == 1)[0]:
        pts[i, M_MCP] = pts[i, WRIST]
    for i in np.nonzero(kind == 2)[0]:
        pts[i, P_MCP] = pts[i, WRIST] + 2.0 * (pts[i, I_MCP] - pts[i, WRIST])
    for i in np.nonzero(kind == 3)[0]:
        pts[i, M_MCP] = pts[i, WRIST] + np.cross(pts[i, I_MCP] - pts[i, WRIST],
                                                 pts[i, P_MCP] - pts[i, WRIST])
    return pts, kind == 0


@pytest.mark.parametrize("handedness", [Handedness.RIGHT, Handedness.LEFT])
def test_normalize_hands_batch_equals_per_hand(handedness):
    # tolerance 0: the batch must round exactly like hand_normalize and the
    # np.linalg.norm/np.dot reference, so features stay bit-identical
    pts, sound = random_hands_with_degenerates(400, seed=3)
    out, ok = normalize_hands(pts, handedness)
    np.testing.assert_array_equal(ok, sound)
    np.testing.assert_array_equal(out[~ok], 0.0)
    for i, p in enumerate(pts):
        ref = reference_hand_normalize(p, handedness)
        assert (ref is not None) == ok[i]
        if ok[i]:
            np.testing.assert_array_equal(out[i], ref)
            np.testing.assert_array_equal(out[i], hand_normalize(HandPose(p, handedness)).points)
        else:
            with pytest.raises(ValueError):
                hand_normalize(HandPose(p, handedness))


@pytest.mark.parametrize("mutate, message", [
    (lambda p: p.__setitem__(M_MCP, p[WRIST]), "zero-length middle metacarpal"),
    (lambda p: p.__setitem__(P_MCP, 2 * p[I_MCP] - p[WRIST]), "collinear"),
    (lambda p: p.__setitem__(M_MCP, p[WRIST] + np.cross(p[I_MCP] - p[WRIST],
                                                        p[P_MCP] - p[WRIST])),
     "palm normal parallel to the metacarpal"),
])
def test_normalize_degenerate_messages(mutate, message):
    pts = hand_template()
    mutate(pts)
    with pytest.raises(ValueError, match=message):
        hand_normalize(right_hand(pts))


def test_normalize_hands_empty_batch():
    out, ok = normalize_hands(np.zeros((0, 21, 3)), Handedness.LEFT)
    assert out.shape == (0, 21, 3) and ok.shape == (0,)


def test_consistency_metrics_identical_members():
    group = [right_hand(), right_hand()]
    assert mace(group) == pytest.approx(0.0, abs=1e-12)
    assert cce(group) == pytest.approx(0.0, abs=1e-12)


def test_cce_ignores_translation_only():
    shifted = hand_template() + np.array([5.0, -2.0, 1.0])
    group = [right_hand(), right_hand(shifted)]
    assert cce(group) == pytest.approx(0.0, abs=1e-12)


def test_mace_removes_rotation_cce_does_not():
    members = [right_hand(p) for p in scattered_copies(hand_template(), 4, seed=2)]
    assert mace(members) < 1e-9
    assert cce(members) > 0.01


def test_consistency_needs_two_members():
    with pytest.raises(ValueError):
        mace([right_hand()])
