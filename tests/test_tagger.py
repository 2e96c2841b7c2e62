import base64
import hashlib
import json
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
import hypothesis.strategies as st

from signseg import tagger
from signseg.decoding import DEFAULT_GRID, DecodeMode, DecodeParams, decode
from signseg.pipeline import PipelineOptions
from signseg.synthetic import write_clip_dir
from signseg.tagger import (
    ADAM_BLOCK, AdamState, TaggerConfig, TaggerModel, _param_shapes, cast_model,
    class_weights_from_tags, forward, gradient_check, init_model, load_model, loss,
    loss_and_grads, param_count, save_model, train_step,
)
from signseg.tags import SEGMENTS_TIERS
from signseg.train import corpus_class_weights, load_corpus, train

# Training and inference run in float32; the probabilities may differ from
# the float64 reference by at most this much (max abs, on the 0-1 scale), and
# each parameter's gradient by at most this fraction of its largest float64
# entry: about 170 float32 epsilons (1.2e-7), room for what the recurrence
# accumulates over a clip.
FLOAT32_PROB_TOL = 1e-5
FLOAT32_GRAD_TOL = 2e-5


def tiny_config(**kw):
    base = dict(input_dim=6, hidden_dim=4, layers=1, learning_rate=1e-2, seed=3)
    base.update(kw)
    return TaggerConfig(**base)


def random_case(cfg, t=7, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(t, cfg.input_dim))
    gold = {tier: rng.integers(0, 3, size=t).tolist() for tier in SEGMENTS_TIERS}
    return x, gold


def test_param_count_hand_computed():
    cfg = TaggerConfig(input_dim=4, hidden_dim=3, layers=1)
    # proj 4*3+3=15; per direction Wx 3x12 + Wh 3x12 + b 12 = 84, two directions;
    # heads: 2 * (6*3 + 3) = 42
    assert param_count(cfg) == 15 + 2 * 84 + 42


def test_param_count_unidirectional():
    cfg = TaggerConfig(input_dim=4, hidden_dim=3, layers=2, bidirectional=False)
    per_l0 = 3 * 12 + 3 * 12 + 12
    per_l1 = 3 * 12 + 3 * 12 + 12  # layer 1 input = H for one direction
    heads = 2 * (3 * 3 + 3)
    assert param_count(cfg) == 15 + per_l0 + per_l1 + heads


def test_init_deterministic_and_forget_bias():
    a = init_model(tiny_config())
    b = init_model(tiny_config())
    for name in a.params:
        np.testing.assert_array_equal(a.params[name], b.params[name])
    h = a.config.hidden_dim
    for name, arr in a.params.items():
        if name.startswith("lstm") and name.endswith(".b"):
            np.testing.assert_array_equal(arr[h:2 * h], 1.0)
    bound = 1 / math.sqrt(h)
    assert abs(a.params["proj.W"]).max() <= bound


def test_config_validation():
    with pytest.raises(ValueError):
        TaggerConfig(input_dim=0).validate()
    with pytest.raises(ValueError):
        TaggerConfig(input_dim=3, class_weights={"sign": (1, 1, 1)}).validate()
    with pytest.raises(ValueError):
        TaggerConfig(input_dim=3, dropout=1.0).validate()
    for name in ("learning_rate", "grad_clip"):  # NaN and negatives: the checkpoint cases
        with pytest.raises(ValueError, match=name):
            TaggerConfig(input_dim=3, **{name: float("inf")}).validate()


def test_forward_shapes_and_simplex():
    cfg = tiny_config(layers=2)
    model = init_model(cfg)
    x, _ = random_case(cfg, t=9)
    probs = forward(model, x)
    assert set(probs) == set(SEGMENTS_TIERS)
    for tier in SEGMENTS_TIERS:
        assert probs[tier].shape == (9, 3)
        np.testing.assert_allclose(probs[tier].sum(axis=1), 1.0, atol=1e-12)
        assert (probs[tier] > 0).all()


def test_forward_empty_sequence():
    model = init_model(tiny_config())
    for dtype in (np.float64, np.float32):
        probs = forward(cast_model(model, dtype), np.zeros((0, 6)))
        for tier in SEGMENTS_TIERS:
            assert probs[tier].shape == (0, 3)
            assert probs[tier].dtype == np.float64


def test_forward_rejects_width_mismatch():
    model = init_model(tiny_config())
    for dtype in (np.float64, np.float32):
        with pytest.raises(ValueError, match="input_dim"):
            forward(cast_model(model, dtype), np.zeros((4, 5)))


def test_cache_free_forward_matches_cached():
    cfg = tiny_config(hidden_dim=16, layers=3)
    model = init_model(cfg)
    x, _ = random_case(cfg, t=40, seed=2)
    cached, _ = forward(model, x, return_cache=True)
    plain = forward(model, x)
    for tier in SEGMENTS_TIERS:
        np.testing.assert_allclose(plain[tier], cached[tier], rtol=0, atol=1e-12)


def test_float32_forward_matches_float64():
    cfg = tiny_config(input_dim=20, hidden_dim=32, layers=2)
    model = init_model(cfg)
    x, _ = random_case(cfg, t=200, seed=5)
    assert all(arr.dtype == np.float32 for arr in model.params.values())
    ref = forward(cast_model(model, np.float64), x)
    fast = forward(model, x)
    for tier in SEGMENTS_TIERS:
        assert fast[tier].dtype == np.float64
        np.testing.assert_allclose(fast[tier].sum(axis=1), 1.0, atol=1e-12)
        assert np.abs(fast[tier] - ref[tier]).max() <= FLOAT32_PROB_TOL


@pytest.fixture(scope="module")
def trained_on_clips(tmp_path_factory):
    """A small tagger trained on the acceptance-style synthetic clips."""
    clip_dir = tmp_path_factory.mktemp("clips")
    write_clip_dir(clip_dir, seeds=range(4))
    clips = load_corpus(clip_dir, PipelineOptions())
    cfg = TaggerConfig(input_dim=clips[0].features.shape[1], hidden_dim=16, layers=2,
                       learning_rate=1e-2, class_weights=corpus_class_weights(clips))
    result = train(init_model(cfg), clips, clips, max_steps=120, patience=0, val_every=5)
    return result.model, clips


def test_float32_decodes_match_float64_on_clips(trained_on_clips):
    model, clips = trained_on_clips
    modes = [DecodeParams(tb, to) for tb in DEFAULT_GRID for to in DEFAULT_GRID]
    modes += [DecodeParams(mode=DecodeMode.ARGMAX), DecodeParams(strict_bio=True)]
    segments = 0
    reference = cast_model(model, np.float64)
    for clip in clips:
        ref = forward(reference, clip.features)
        fast = forward(model, clip.features)
        for tier in SEGMENTS_TIERS:
            assert np.abs(fast[tier] - ref[tier]).max() <= FLOAT32_PROB_TOL
            for params in modes:
                want = decode(ref[tier] * 100.0, params)
                assert decode(fast[tier] * 100.0, params) == want
                segments += len(want)
    assert segments > 0


def test_float32_gradients_match_float64_on_clips(trained_on_clips):
    # at the init point and after training, on every clip
    trained, clips = trained_on_clips
    for model in (init_model(trained.config), trained):
        reference = cast_model(model, np.float64)
        for clip in clips:
            value, grads = loss_and_grads(model, clip.features, clip.gold)
            want_value, want = loss_and_grads(reference, clip.features, clip.gold)
            assert value == pytest.approx(want_value, rel=1e-6)
            for name, g in grads.items():
                assert g.dtype == np.float32, name
                scale = np.abs(want[name]).max()
                assert np.abs(g - want[name]).max() <= FLOAT32_GRAD_TOL * scale, name


@pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["f32", "f64"])
def test_training_runs_in_the_parameters_dtype(dtype):
    cfg = tiny_config(layers=2, dropout=0.3, grad_clip=0.5)
    model = cast_model(init_model(cfg), dtype)
    x, gold = random_case(cfg, t=9)
    _, grads = loss_and_grads(model, x, gold, dropout_rng=np.random.default_rng(0))
    assert all(g.dtype == dtype for g in grads.values())
    state = AdamState()
    for _ in range(2):
        train_step(model, x, gold, state, dropout_rng=np.random.default_rng(0))
    for name, arr in model.params.items():
        assert arr.dtype == state.m[name].dtype == state.v[name].dtype == dtype, name


def test_loss_uniform_oracle():
    probs = {tier: np.full((5, 3), 1 / 3) for tier in SEGMENTS_TIERS}
    gold = {tier: [0, 1, 2, 1, 0] for tier in SEGMENTS_TIERS}
    weights = {tier: (1.0, 1.0, 1.0) for tier in SEGMENTS_TIERS}
    assert loss(probs, gold, weights) == pytest.approx(2 * math.log(3), abs=1e-12)


def test_loss_matches_loss_and_grads():
    cfg = tiny_config()
    model = init_model(cfg)
    x, gold = random_case(cfg)
    value, _ = loss_and_grads(model, x, gold)
    probs = forward(model, x)
    assert value == pytest.approx(loss(probs, gold, cfg.class_weights), abs=1e-10)


def test_class_weights_oracle():
    # counts B=1, I=2, O=3 -> total 6, w = (2, 1, 2/3)
    weights = class_weights_from_tags([[0, 1, 1, 2], [2, 2]])
    assert weights == pytest.approx((2.0, 1.0, 2 / 3))
    with pytest.raises(ValueError, match="no B"):
        class_weights_from_tags([[1, 2]])


def test_gradient_check_small():
    cfg = tiny_config(hidden_dim=4, layers=1)
    model = init_model(cfg)
    x, gold = random_case(cfg, t=4, seed=1)
    assert gradient_check(model, x, gold) < 1e-4


def test_gradient_check_rejects_bad_eps():
    cfg = tiny_config()
    model = init_model(cfg)
    x, gold = random_case(cfg, t=3)
    with pytest.raises(ValueError):
        gradient_check(model, x, gold, eps=0.0)


def test_train_step_reduces_loss():
    cfg = tiny_config(hidden_dim=8)
    model = init_model(cfg)
    x, gold = random_case(cfg, t=12, seed=4)
    state = AdamState()
    first = train_step(model, x, gold, state)
    last = first
    for _ in range(40):
        last = train_step(model, x, gold, state)
    assert last < first * 0.5
    assert state.step == 41


def test_grad_clip_limits_update_norm():
    cfg = tiny_config(grad_clip=1e-3)
    model = init_model(cfg)
    before = {k: v.copy() for k, v in model.params.items()}
    x, gold = random_case(cfg)
    train_step(model, x, gold, AdamState())
    # clipped global gradient norm keeps every Adam update finite and small
    for name, arr in model.params.items():
        assert np.isfinite(arr).all()
        assert np.abs(arr - before[name]).max() <= cfg.learning_rate * 1.01


def test_dropout_forward_runs():
    cfg = tiny_config(layers=2, dropout=0.5)
    model = init_model(cfg)
    x, gold = random_case(cfg, t=6)
    value = train_step(model, x, gold, AdamState(),
                       dropout_rng=np.random.default_rng(0))
    assert np.isfinite(value)


# Reference copies of the whole-array Adam update, the per-step
# concatenating backward loop and the allocating forward step that
# train_step, _backward_direction and _run_direction replaced. The fast paths must match them bit for bit.

def reference_backward_direction(dh_out, cache, wx, wh):
    u = cache["u"]
    t_len, h_dim = cache["h"].shape
    da_all = np.zeros((t_len, 4 * h_dim))
    dh_rec = np.zeros(h_dim)
    dc = np.zeros(h_dim)
    for t in reversed(cache["order"]):
        dh = dh_out[t] + dh_rec
        tc = np.tanh(cache["c"][t])
        do = dh * tc
        dc = dc + dh * cache["go"][t] * (1.0 - tc * tc)
        di = dc * cache["gg"][t]
        df = dc * cache["cprev"][t]
        dg = dc * cache["gi"][t]
        gi, gf, gg, go = cache["gi"][t], cache["gf"][t], cache["gg"][t], cache["go"][t]
        da = np.concatenate([
            di * gi * (1.0 - gi),
            df * gf * (1.0 - gf),
            dg * (1.0 - gg * gg),
            do * go * (1.0 - go),
        ])
        da_all[t] = da
        dh_rec = da @ wh.T
        dc = dc * gf
    return da_all @ wx.T, u.T @ da_all, cache["hprev"].T @ da_all, da_all.sum(axis=0)


def reference_run_direction(u, wx, wh, b, reverse, keep_cache=False):
    """_run_direction as it was before its step wrote into preallocated vectors."""
    t_len, h_dim = u.shape[0], wh.shape[0]
    scale = tagger._gate_scale(h_dim, wh.dtype)
    xw = (u @ wx + b) * scale
    wh = wh * scale
    order = range(t_len - 1, -1, -1) if reverse else range(t_len)
    h = np.empty((t_len, h_dim), dtype=wh.dtype)
    c = np.empty_like(h)
    act = np.empty((t_len, 4 * h_dim), dtype=wh.dtype)
    hprev = np.zeros(h_dim, dtype=wh.dtype)
    cprev = np.zeros(h_dim, dtype=wh.dtype)
    for t in order:
        a = np.tanh(xw[t] + hprev @ wh)
        gate = 0.5 * (1.0 + a)
        cprev = gate[h_dim:2 * h_dim] * cprev + gate[:h_dim] * a[2 * h_dim:3 * h_dim]
        hprev = gate[3 * h_dim:] * np.tanh(cprev)
        h[t], c[t], act[t] = hprev, cprev, a
    if not keep_cache:
        return h, None
    hprev_all, cprev_all = np.zeros_like(h), np.zeros_like(c)
    if reverse:
        hprev_all[:-1], cprev_all[:-1] = h[1:], c[1:]
    else:
        hprev_all[1:], cprev_all[1:] = h[:-1], c[:-1]
    sig = 0.5 * (1.0 + act)
    return h, {"u": u, "h": h, "c": c, "gi": sig[:, :h_dim], "gf": sig[:, h_dim:2 * h_dim],
               "gg": act[:, 2 * h_dim:3 * h_dim], "go": sig[:, 3 * h_dim:],
               "hprev": hprev_all, "cprev": cprev_all, "order": list(order)}


@pytest.mark.parametrize("keep_cache", [False, True], ids=["no-cache", "cache"])
@pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["f32", "f64"])
@pytest.mark.parametrize("reverse", [False, True], ids=["fwd", "bwd"])
@pytest.mark.parametrize("t_len", [1, 2, 7, 33])
def test_run_direction_matches_reference(t_len, reverse, dtype, keep_cache):
    rng = np.random.default_rng(t_len)
    h_dim, d_in = 256, 512  # the default tagger's hidden width and upper-layer input
    u = rng.normal(size=(t_len, d_in)).astype(dtype)
    wx, wh = (rng.uniform(-1 / 16, 1 / 16, size=(n, 4 * h_dim)).astype(dtype)
              for n in (d_in, h_dim))
    b = rng.uniform(-1 / 16, 1 / 16, size=4 * h_dim).astype(dtype)
    h, cache = tagger._run_direction(u, wx, wh, b, reverse, keep_cache)
    want_h, want_cache = reference_run_direction(u, wx, wh, b, reverse, keep_cache)
    assert h.dtype == dtype and np.array_equal(h, want_h)
    if not keep_cache:
        assert cache is None
        return
    assert set(cache) == set(want_cache)
    assert cache["order"] == want_cache["order"]
    for key in set(cache) - {"order"}:
        got, want = cache[key], want_cache[key]
        assert got.dtype == want.dtype and np.array_equal(got, want), key


def reference_train_step(model, features, gold, state, dropout_rng=None):
    value, grads = loss_and_grads(model, features, gold, dropout_rng=dropout_rng)
    cfg = model.config
    if cfg.grad_clip > 0:
        norm = np.sqrt(sum(float((g * g).sum()) for g in grads.values()))
        if norm > cfg.grad_clip:
            scale = cfg.grad_clip / norm
            grads = {n: g * scale for n, g in grads.items()}
    state.step += 1
    t = state.step
    for name, g in grads.items():
        m = state.m.setdefault(name, np.zeros_like(g))
        v = state.v.setdefault(name, np.zeros_like(g))
        m += (1 - 0.9) * (g - m)
        v += (1 - 0.999) * (g * g - v)
        mhat = m / (1 - 0.9 ** t)
        vhat = v / (1 - 0.999 ** t)
        model.params[name] -= cfg.learning_rate * mhat / (np.sqrt(vhat) + 1e-8)
    return value


@pytest.mark.parametrize("kw", [
    {},
    {"grad_clip": 1e-3},
    {"dropout": 0.3, "layers": 2},
], ids=["plain", "grad-clip", "dropout"])
def test_train_step_matches_reference(monkeypatch, kw):
    cfg = tiny_config(hidden_dim=96, **kw)
    # bit-identity is checked on the float64 reference
    fast, ref = (cast_model(init_model(cfg), np.float64) for _ in range(2))
    # Wh (96 x 384) spans two Adam chunks, the second one partial
    assert ADAM_BLOCK < fast.params["lstm0.fwd.Wh"].size < 2 * ADAM_BLOCK
    fast_state, ref_state = AdamState(), AdamState()
    fast_rng = np.random.default_rng(7) if cfg.dropout else None
    ref_rng = np.random.default_rng(7) if cfg.dropout else None
    for step in range(5):
        x, gold = random_case(cfg, t=20 + step, seed=step)
        value = train_step(fast, x, gold, fast_state, dropout_rng=fast_rng)
        with monkeypatch.context() as patch:
            patch.setattr(tagger, "_backward_direction", reference_backward_direction)
            expected = reference_train_step(ref, x, gold, ref_state, dropout_rng=ref_rng)
        assert value == expected
        for name in ref.params:
            assert np.array_equal(fast.params[name], ref.params[name]), (step, name)
            assert np.array_equal(fast_state.m[name], ref_state.m[name])
            assert np.array_equal(fast_state.v[name], ref_state.v[name])
    assert fast_state.step == ref_state.step == 5


@pytest.mark.parametrize("t_len", [0, 1, 37])
def test_backward_direction_matches_reference(t_len):
    cfg = tiny_config(hidden_dim=12)
    model = cast_model(init_model(cfg), np.float64)
    x, _ = random_case(cfg, t=t_len, seed=t_len)
    _, cache = forward(model, x, return_cache=True)
    # a column slice, as loss_and_grads passes it
    dcur = np.random.default_rng(t_len).normal(size=(t_len, 2 * cfg.hidden_dim))
    for di, d in enumerate(("fwd", "bwd")):
        dh_out = dcur[:, di * cfg.hidden_dim:(di + 1) * cfg.hidden_dim]
        args = (dh_out, cache["layers"][0][d],
                model.params[f"lstm0.{d}.Wx"], model.params[f"lstm0.{d}.Wh"])
        got = tagger._backward_direction(*args)
        want = reference_backward_direction(*args)
        for a, b in zip(got, want):
            assert a.shape == b.shape and np.array_equal(a, b), d


def test_adam_state_allocates_its_buffers_once():
    cfg = tiny_config(hidden_dim=8)
    model = init_model(cfg)
    state = AdamState()
    x, gold = random_case(cfg, t=9)
    train_step(model, x, gold, state)
    first_m, first_v = dict(state.m), dict(state.v)
    assert list(first_m) == list(model.params)
    for _ in range(3):
        train_step(model, x, gold, state)
        for name in model.params:
            assert state.m[name] is first_m[name] and state.v[name] is first_v[name]


def test_loss_and_grads_order_and_shapes():
    cfg = tiny_config(layers=2)
    model = init_model(cfg)
    for t_len in (0, 5):
        x, gold = random_case(cfg, t=t_len)
        _, grads = loss_and_grads(model, x, gold)
        assert list(grads) == list(_param_shapes(cfg))
        for name, g in grads.items():
            assert g.shape == model.params[name].shape and g.flags.c_contiguous
            assert t_len or not g.any()  # no frames, no gradient


def test_checkpoint_roundtrip_bitexact(tmp_path):
    cfg = tiny_config(layers=2)
    model = init_model(cfg)
    path = tmp_path / "model.ckpt"
    save_model(model, path)
    back = load_model(path)
    assert back.config == cfg
    for name in model.params:
        np.testing.assert_array_equal(back.params[name], model.params[name])
    x, gold = random_case(cfg)
    np.testing.assert_array_equal(forward(back, x)["sign"], forward(model, x)["sign"])


def test_checkpoint_roundtrip_after_training(tmp_path):
    cfg = tiny_config()
    model = init_model(cfg)
    x, gold = random_case(cfg)
    state = AdamState()
    for _ in range(3):
        train_step(model, x, gold, state)
    path = tmp_path / "trained.ckpt"
    save_model(model, path)
    back = load_model(path)
    # float32 storage: round-trip is exact w.r.t. the stored quantization
    for name in model.params:
        np.testing.assert_array_equal(
            back.params[name], model.params[name].astype(np.float32).astype(np.float64))


def test_loaded_checkpoint_keeps_float32(tmp_path):
    cfg = tiny_config(layers=2)
    model = init_model(cfg)
    path = tmp_path / "model.ckpt"
    save_model(model, path)
    back = load_model(path)
    for arr in back.params.values():
        assert arr.dtype == np.float32
        assert arr.flags.aligned and not arr.flags.writeable
    x, _ = random_case(cfg)
    for dtype in (np.float32, np.float64):
        got, want = forward(cast_model(back, dtype), x), forward(cast_model(model, dtype), x)
        for tier in got:
            np.testing.assert_array_equal(got[tier], want[tier])


def test_checkpoint_rejects_tampering(tmp_path):
    model = init_model(tiny_config())
    path = tmp_path / "model.ckpt"
    save_model(model, path)
    data = bytearray(path.read_bytes())
    data[data.index(b"\n") + 1] ^= 1  # one bit of the first parameter
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(bytes(data))
    with pytest.raises(ValueError):
        load_model(bad)


def test_checkpoint_rejects_wrong_version(tmp_path):
    model = init_model(tiny_config())
    path = tmp_path / "model.ckpt"
    save_model(model, path)
    data = path.read_bytes().replace(b"tagger-ckpt/2", b"tagger-ckpt/9", 1)
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(data)
    with pytest.raises(ValueError, match="version"):
        load_model(bad)


def test_fresh_checkpoint_save_load_save_stable(tmp_path):
    model = init_model(tiny_config())
    p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    save_model(model, p1)
    save_model(load_model(p1), p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_checkpoint_layout(tmp_path):
    cfg = tiny_config(layers=2, bidirectional=False)
    model = init_model(cfg)
    path = tmp_path / "model.ckpt"
    save_model(model, path)
    data = path.read_bytes()
    start = data.index(b"\n") + 1
    assert start % 64 == 0
    manifest = json.loads(data[:start])
    payload = b"".join(model.params[name].astype("<f4").tobytes() for name in _param_shapes(cfg))
    assert data[start:] == payload
    assert len(payload) == 4 * manifest["param_count"] == 4 * param_count(cfg)
    assert manifest["checksum"] == "sha256:" + hashlib.sha256(payload).hexdigest()
    assert manifest["params"] == [{"name": n, "shape": list(s)}
                                  for n, s in _param_shapes(cfg).items()]


@pytest.mark.parametrize("cfg", [
    tiny_config(), tiny_config(layers=3), tiny_config(layers=2, bidirectional=False),
    TaggerConfig(input_dim=322),
], ids=["1x4", "3x4", "2x4-uni", "4x256"])
def test_param_count_matches_shapes(cfg):
    assert param_count(cfg) == sum(math.prod(s) for s in _param_shapes(cfg).values())


def _edit_manifest(edit):
    """A mutation of checkpoint bytes that rewrites the manifest with edit(doc)."""
    def mutate(data):
        start = data.index(b"\n") + 1
        doc = json.loads(data[:start])
        return json.dumps(edit(doc)).encode() + b"\n" + data[start:]
    return mutate


def _v1_file(data):
    """The same model in the retired tagger-ckpt/1 layout: base64 lines."""
    start = data.index(b"\n") + 1
    doc = json.loads(data[:start])
    doc["version"] = "tagger-ckpt/1"
    payload, lines, offset = data[start:], [], 0
    for entry in doc["params"]:
        size = 4 * math.prod(entry["shape"])
        lines.append(base64.b64encode(payload[offset:offset + size]))
        offset += size
    return json.dumps(doc).encode() + b"\n" + b"\n".join(lines) + b"\n"


_DELETE = object()


def _set(*keys_value):
    """A manifest edit that sets the entry at the key path to a value, or deletes it."""
    *keys, value = keys_value

    def edit(doc):
        node = doc
        for key in keys[:-1]:
            node = node[key]
        if value is _DELETE:
            del node[keys[-1]]
        else:
            node[keys[-1]] = value
        return doc
    return _edit_manifest(edit)


def _huge_layers(doc):
    # a consistent manifest for 10**9 layers: only the payload length gives it away
    doc["config"]["layers"] = 10 ** 9
    doc["param_count"] = param_count(tiny_config(layers=10 ** 9))
    return doc


@pytest.mark.parametrize("mutate, message", [
    (lambda d: b"", "empty checkpoint"),
    (_v1_file, "version 'tagger-ckpt/1' not supported"),
    (_edit_manifest(lambda doc: [doc]), "not a JSON object"),
    (lambda d: b"[" * 100_000 + d, "malformed checkpoint manifest"),
    (lambda d: b"\xff\xfe\xfd" + d, "malformed checkpoint manifest"),
    (lambda d: d[:d.index(b"\n")], "payload is 0 bytes"),
    (lambda d: d[:-4], "payload is"),
    (lambda d: d + b"\0" * 4, "payload is"),
    (_set("config", _DELETE), "has no 'config'"),
    (_set("params", _DELETE), "has no 'params'"),
    (_set("param_count", _DELETE), "has no 'param_count'"),
    (_set("checksum", _DELETE), "has no 'checksum'"),
    (_set("config", [6, 4, 1]), "config is not a JSON object"),
    (_set("config", "layers", _DELETE), "config has no 'layers'"),
    (_set("config", "grad_clip", _DELETE), "config has no 'grad_clip'"),
    (_set("config", "layers", "1"), "'layers' has type str"),
    (_set("config", "hidden_dim", 4.0), "'hidden_dim' has type float"),
    (_set("config", "bidirectional", 1), "'bidirectional' has type int"),
    (_set("config", "input_dim", True), "'input_dim' has type bool"),
    (_set("config", "layers", 0), "must be positive"),
    (_set("config", "class_weights", [[1.0, 1.0, 1.0]] * 2), "'class_weights' has type list"),
    (_set("config", "class_weights", "sign", {"B": 1.0}), "class_weights must map"),
    (_set("config", "class_weights", "sign", ["1", 1, 1]), "class_weights must map"),
    (_set("config", "class_weights", "sign", [1.0, 1.0]), "3 positive reals"),
    (_set("config", "class_weights", "phrase", _DELETE), "must cover tiers"),
    (_set("config", "class_weights", "sign", [float("nan")] * 3),
     "'sign'] must be 3 positive reals"),
    (_set("config", "class_weights", "phrase", [1.0, float("inf"), 1.0]),
     "'phrase'] must be 3 positive reals"),
    (_set("config", "learning_rate", float("nan")), "learning_rate must be a finite"),
    (_set("config", "grad_clip", float("nan")), "grad_clip must be a finite number"),
    (_set("config", "grad_clip", -1.0), "grad_clip must be a finite number >= 0"),
    (_set("param_count", 1), "parameter count"),
    (_edit_manifest(_huge_layers), "payload is"),
    (_set("params", {"proj.W": [6, 4]}), "shapes do not match"),
    (_set("params", 0, "proj.W"), "shapes do not match"),
    (_set("params", 0, "shape", 24), "shapes do not match"),
    (_set("params", 0, "shape", [4, 6]), "shapes do not match"),
    (_set("params", 0, "name", "proj.V"), "shapes do not match"),
    (_set("checksum", "sha256:0"), "checksum mismatch"),
    (_set("checksum", None), "checksum mismatch"),
], ids=lambda v: None if callable(v) else v)
def test_checkpoint_rejects_malformed(tmp_path, mutate, message):
    path = tmp_path / "model.ckpt"
    save_model(init_model(tiny_config()), path)
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(mutate(path.read_bytes()))
    with pytest.raises(ValueError, match=message):
        load_model(bad)


def _loads_or_rejects(path):
    try:
        model = load_model(path)
    except ValueError:
        return
    assert isinstance(model, TaggerModel)
    assert all(arr.dtype == np.float32 for arr in model.params.values())


_json_scalars = (st.none() | st.booleans() | st.integers(-3, 10 ** 6)
                 | st.floats(allow_nan=True) | st.text(max_size=4))
_json_values = st.recursive(
    _json_scalars,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner,
                                                                max_size=3),
    max_leaves=6)


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(head=st.binary(max_size=200) | _json_values.map(lambda v: json.dumps(v).encode()),
       tail=st.none() | st.binary(max_size=100))
def test_fuzz_load_arbitrary_bytes(tmp_path, head, tail):
    path = tmp_path / "fuzz.ckpt"
    path.write_bytes(head if tail is None else head + b"\n" + tail)
    _loads_or_rejects(path)


def _manifest_paths(node, prefix=()):
    for key, child in (node.items() if isinstance(node, dict) else enumerate(node)):
        yield prefix + (key,)
        if isinstance(child, (dict, list)):
            yield from _manifest_paths(child, prefix + (key,))


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_fuzz_load_mutated_checkpoints(tmp_path, data):
    path = tmp_path / "fuzz.ckpt"
    save_model(init_model(tiny_config(layers=data.draw(st.integers(1, 2)))), path)
    blob = path.read_bytes()
    start = blob.index(b"\n") + 1
    doc = json.loads(blob[:start])
    for _ in range(data.draw(st.integers(0, 3))):
        # replace or delete one manifest entry, at any depth
        *parents, key = data.draw(st.sampled_from(sorted(_manifest_paths(doc), key=str)))
        node = doc
        for step in parents:
            node = node[step]
        if data.draw(st.booleans()):
            node[key] = data.draw(_json_scalars | _json_values)
        else:
            del node[key]
    blob = json.dumps(doc).encode() + b"\n" + blob[start:]
    for _ in range(data.draw(st.integers(0, 2))):
        # splice: cut a span anywhere in the file and put a few bytes in its place
        cut = data.draw(st.integers(0, len(blob)))
        end = data.draw(st.integers(cut, min(len(blob), cut + 8)))
        blob = blob[:cut] + data.draw(st.binary(max_size=4)) + blob[end:]
    path.write_bytes(blob)
    _loads_or_rejects(path)
