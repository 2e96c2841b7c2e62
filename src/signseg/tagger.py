"""Frame tagger: linear projection, stacked bidirectional LSTM, two BIO heads.

Implemented directly on numpy arrays with hand-written backpropagation through
time, so the gradient math is checkable against finite differences. The
projection, the LSTM stack, their gradients and Adam run in the dtype of the
parameters: float32 as init_model makes them and as load_model returns them,
so training and inference share one path and no call takes a dtype. The two
heads, the softmax and the loss run in float64; the head gradients are cast
to the parameters' dtype once. gradient_check runs on a float64 copy, the
reference the float32 path is checked against. Each LSTM time step writes
into vectors allocated once per direction, so the loop allocates nothing and
holds the interpreter lock for less of each step.

Checkpoints (tagger-ckpt/2) are one JSON manifest line, then every parameter
as raw little-endian float32 in _param_shapes order: the precision training
and inference run in. load_model returns read-only float32 views of that
payload, so loading decodes no text and inference casts nothing.

Parameter layout per LSTM direction: Wx (input, 4H), Wh (H, 4H), b (4H,) with
gate order [input, forget, candidate, output]. Forget-gate biases start at 1.
"""

import hashlib
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .numutil import is_finite_real
from .tags import SEGMENTS_TIERS

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8

CKPT_VERSION = "tagger-ckpt/2"

PARAM_COUNT_FORMULA = (
    "F*H + H + sum over layers l of dirs*(Din_l*4H + H*4H + 4H) "
    "+ 2*(Dout*3 + 3), Din_0 = H, Din_l = dirs*H, Dout = dirs*H"
)


def default_class_weights():
    return {tier: (1.0, 1.0, 1.0) for tier in SEGMENTS_TIERS}


@dataclass
class TaggerConfig:
    input_dim: int
    hidden_dim: int = 256
    layers: int = 4
    bidirectional: bool = True
    learning_rate: float = 1e-3
    class_weights: dict = field(default_factory=default_class_weights)
    seed: int = 0
    dropout: float = 0.0
    grad_clip: float = 0.0

    def validate(self):
        if self.input_dim <= 0 or self.hidden_dim <= 0 or self.layers <= 0:
            raise ValueError("input_dim, hidden_dim and layers must be positive")
        for name in ("learning_rate", "grad_clip"):
            value = getattr(self, name)
            if not (is_finite_real(value) and value >= 0):
                raise ValueError(f"{name} must be a finite number >= 0")
        if set(self.class_weights) != set(SEGMENTS_TIERS):
            raise ValueError(f"class_weights must cover tiers {SEGMENTS_TIERS}")
        for tier, w in self.class_weights.items():
            if len(w) != 3 or not all(is_finite_real(v) and v > 0 for v in w):
                raise ValueError(f"class_weights[{tier!r}] must be 3 positive reals")
        if not 0 <= self.dropout < 1:
            raise ValueError("dropout must be in [0, 1)")

    @property
    def num_directions(self) -> int:
        return 2 if self.bidirectional else 1

    @property
    def encoder_dim(self) -> int:
        return self.hidden_dim * self.num_directions

    def layer_input_dim(self, layer: int) -> int:
        return self.hidden_dim if layer == 0 else self.encoder_dim


@dataclass
class TaggerModel:
    config: TaggerConfig
    # name -> ndarray, insertion order fixed by _param_shapes: float32 from
    # init_model and training, read-only float32 as loaded from a checkpoint,
    # float64 in the gradient_check reference (cast_model)
    params: dict


def _directions(config) -> tuple[str, ...]:
    return ("fwd", "bwd") if config.bidirectional else ("fwd",)


def _param_shapes(config: TaggerConfig) -> dict:
    h = config.hidden_dim
    shapes = {"proj.W": (config.input_dim, h), "proj.b": (h,)}
    for layer in range(config.layers):
        din = config.layer_input_dim(layer)
        for d in _directions(config):
            shapes[f"lstm{layer}.{d}.Wx"] = (din, 4 * h)
            shapes[f"lstm{layer}.{d}.Wh"] = (h, 4 * h)
            shapes[f"lstm{layer}.{d}.b"] = (4 * h,)
    for tier in SEGMENTS_TIERS:
        shapes[f"head.{tier}.W"] = (config.encoder_dim, 3)
        shapes[f"head.{tier}.b"] = (3,)
    return shapes


def param_count(config: TaggerConfig) -> int:
    """PARAM_COUNT_FORMULA in closed form: load_model checks a manifest's count
    against its payload before it builds a shape, so a config that declares
    millions of layers costs nothing to reject."""
    h, dirs, layers = config.hidden_dim, config.num_directions, config.layers
    din_total = h + (layers - 1) * dirs * h
    lstm = dirs * (din_total * 4 * h + layers * (h * 4 * h + 4 * h))
    heads = len(SEGMENTS_TIERS) * (config.encoder_dim * 3 + 3)
    return config.input_dim * h + h + lstm + heads


def init_model(config: TaggerConfig) -> TaggerModel:
    """Uniform(-1/sqrt(H), 1/sqrt(H)) init as float32, so a fresh checkpoint
    round-trips bit-exactly; forget biases = 1."""
    config.validate()
    rng = np.random.default_rng(config.seed)
    bound = 1.0 / np.sqrt(config.hidden_dim)
    params = {}
    h = config.hidden_dim
    for name, shape in _param_shapes(config).items():
        arr = rng.uniform(-bound, bound, size=shape).astype(np.float32)
        if name.endswith(".b") and name.startswith("lstm"):
            arr[h:2 * h] = 1.0
        params[name] = arr
    return TaggerModel(config, params)


def _softmax(logits):
    z = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def _gate_scale(h_dim: int, dtype) -> np.ndarray:
    """Preactivation scale that lets one tanh yield every gate.

    sigmoid(a) = 0.5 * (1 + tanh(a / 2)), and this form cannot overflow in
    float32. Halving the input, forget and output columns is exact, so
    tanh of the scaled 4H vector gives the candidate gate directly and the
    three sigmoid gates after 0.5 * (1 + .).
    """
    scale = np.full(4 * h_dim, 0.5, dtype=dtype)
    scale[2 * h_dim:3 * h_dim] = 1.0
    return scale


def _run_direction(u, wx, wh, b, reverse, keep_cache=False):
    """One LSTM direction over u (T, Din) in the dtype of its parameters.

    Returns h (T, H) and, when keep_cache, the backprop cache (else None).
    """
    t_len = u.shape[0]
    h_dim = wh.shape[0]
    scale = _gate_scale(h_dim, wh.dtype)
    xw = (u @ wx + b) * scale
    wh = wh * scale
    order = range(t_len - 1, -1, -1) if reverse else range(t_len)
    h = np.empty((t_len, h_dim), dtype=wh.dtype)
    if keep_cache:
        c = np.empty_like(h)
        act = np.empty((t_len, 4 * h_dim), dtype=wh.dtype)
    # the step's vectors, allocated once: each step writes them in place with
    # the operations, and operand order, of
    #   a = tanh(xw[t] + hprev @ wh); gate = 0.5 * (1 + a)
    #   cprev = gf * cprev + gi * ag; hprev = go * tanh(cprev)
    a = np.empty(4 * h_dim, dtype=wh.dtype)
    gate = np.empty_like(a)  # input, forget, output; the candidate slice is unused
    tmp = np.empty(h_dim, dtype=wh.dtype)
    gi, gf, go = gate[:h_dim], gate[h_dim:2 * h_dim], gate[3 * h_dim:]
    ag = a[2 * h_dim:3 * h_dim]
    hprev = np.zeros(h_dim, dtype=wh.dtype)
    cprev = np.zeros(h_dim, dtype=wh.dtype)
    for t in order:
        np.matmul(hprev, wh, out=a)
        np.add(xw[t], a, out=a)
        np.tanh(a, out=a)
        np.add(1.0, a, out=gate)
        np.multiply(0.5, gate, out=gate)
        np.multiply(gi, ag, out=tmp)
        np.multiply(gf, cprev, out=cprev)
        np.add(cprev, tmp, out=cprev)
        np.tanh(cprev, out=tmp)
        hprev = h[t]
        np.multiply(go, tmp, out=hprev)
        if keep_cache:
            c[t] = cprev
            act[t] = a
    if not keep_cache:
        return h, None
    # the state entering step t is the one the previous step in `order` left
    hprev_all = np.zeros_like(h)
    cprev_all = np.zeros_like(c)
    if reverse:
        hprev_all[:-1], cprev_all[:-1] = h[1:], c[1:]
    else:
        hprev_all[1:], cprev_all[1:] = h[:-1], c[:-1]
    for block in (act[:, :2 * h_dim], act[:, 3 * h_dim:]):  # tanh -> sigmoid, in place
        block += 1.0
        block *= 0.5
    cache = {"u": u, "h": h, "c": c,
             "gi": act[:, :h_dim], "gf": act[:, h_dim:2 * h_dim],
             "gg": act[:, 2 * h_dim:3 * h_dim], "go": act[:, 3 * h_dim:],
             "hprev": hprev_all, "cprev": cprev_all, "order": list(order)}
    return h, cache


def _backward_direction(dh_out, cache, wx, wh):
    """Gradient through one direction, in the dtype of wh. Returns (du, dWx, dWh, db).

    The gate factors for the whole sequence are stacked before the time loop,
    so a step writes its row of da in place with four multiplies. Each
    product keeps the reference order: da_i = (di * gi) * (1 - gi), da_g =
    (dg * (1 - gg^2)) * 1, and so on; multiplying by 1.0 is exact.
    """
    u = cache["u"]
    t_len, h_dim = cache["h"].shape
    gi, gf, gg, go = cache["gi"], cache["gf"], cache["gg"], cache["go"]
    tc = np.tanh(cache["c"])
    dtc = 1.0 - tc * tc
    by_dc = np.stack([gg, cache["cprev"], gi], axis=1)  # (T, 3, H): di, df, dg = dc * .
    first = np.concatenate([gi, gf, 1.0 - gg * gg, go], axis=1)
    second = 1.0 - np.concatenate([gi, gf, np.zeros_like(gg), go], axis=1)
    da_all = np.empty((t_len, 4 * h_dim), dtype=wh.dtype)
    dh_rec = np.zeros(h_dim, dtype=wh.dtype)
    dc = np.zeros(h_dim, dtype=wh.dtype)
    for t in reversed(cache["order"]):
        dh = dh_out[t] + dh_rec
        dc = dc + dh * go[t] * dtc[t]
        da = da_all[t]
        np.multiply(dc, by_dc[t], out=da[:3 * h_dim].reshape(3, h_dim))
        np.multiply(dh, tc[t], out=da[3 * h_dim:])
        da *= first[t]
        da *= second[t]
        dh_rec = da @ wh.T
        dc = dc * gf[t]
    du = da_all @ wx.T
    dwx = u.T @ da_all
    dwh = cache["hprev"].T @ da_all
    db = da_all.sum(axis=0)
    return du, dwx, dwh, db


def cast_model(model: TaggerModel, dtype) -> TaggerModel:
    """The model with every parameter cast to dtype; forward, loss_and_grads
    and train_step on it then run in dtype."""
    return TaggerModel(model.config, {
        name: arr.astype(dtype, copy=False) for name, arr in model.params.items()})


def forward(model: TaggerModel, features, return_cache: bool = False, dropout_rng=None):
    """Run the network; returns per-tier (T, 3) probability rows.

    features: (T, F) array with F == config.input_dim. The projection and the
    LSTM stack run in the dtype of the parameters, the features cast to
    it; the heads and the softmax run in float64. The backprop cache is
    built only when return_cache is set.
    """
    cfg = model.config
    x = np.asarray(features, dtype=float)
    if x.ndim != 2 or x.shape[1] != cfg.input_dim:
        raise ValueError(
            f"feature width {x.shape[1] if x.ndim == 2 else '?'} does not match "
            f"model input_dim {cfg.input_dim}"
        )
    p = model.params
    dtype = p["proj.W"].dtype
    z = x.astype(dtype, copy=False) @ p["proj.W"] + p["proj.b"]
    layer_caches = []
    drop_masks = []
    cur = z
    for layer in range(cfg.layers):
        outs = []
        caches = {}
        for d in _directions(cfg):
            name = f"lstm{layer}.{d}"
            h, caches[d] = _run_direction(
                cur, p[f"{name}.Wx"], p[f"{name}.Wh"], p[f"{name}.b"],
                reverse=(d == "bwd"), keep_cache=return_cache)
            outs.append(h)
        cur = np.concatenate(outs, axis=1)
        if dropout_rng is not None and cfg.dropout > 0 and layer < cfg.layers - 1:
            mask = ((dropout_rng.random(cur.shape) >= cfg.dropout)
                    / (1.0 - cfg.dropout)).astype(cur.dtype, copy=False)
            cur *= mask
            drop_masks.append(mask)
        else:
            drop_masks.append(None)
        layer_caches.append(caches)
    enc = cur.astype(np.float64, copy=False)
    logits = {}
    probs = {}
    for tier in SEGMENTS_TIERS:
        logits[tier] = enc @ p[f"head.{tier}.W"] + p[f"head.{tier}.b"]
        probs[tier] = _softmax(logits[tier]) if len(enc) else np.zeros((0, 3))
    if not return_cache:
        return probs
    # x in the parameters' dtype, for the projection's gradient; cast again
    # here so that inference holds no cast copy of the features
    cache = {"x": x.astype(dtype, copy=False), "z": z, "enc": enc, "layers": layer_caches,
             "logits": logits, "drop": drop_masks}
    return probs, cache


def loss(probs: dict, gold: dict, weights: dict) -> float:
    """Sum over tiers of the frame-mean weighted cross entropy -w_c log p_c."""
    total = 0.0
    for tier in SEGMENTS_TIERS:
        p = np.asarray(probs[tier], dtype=float)
        y = np.asarray(gold[tier], dtype=int)
        if p.shape[0] != y.shape[0]:
            raise ValueError(f"tier {tier!r}: {p.shape[0]} probability rows vs {y.shape[0]} tags")
        if len(y) == 0:
            continue
        w = np.asarray(weights[tier], dtype=float)
        picked = p[np.arange(len(y)), y]
        total += float(np.mean(-w[y] * np.log(picked)))
    return total


def class_weights_from_tags(tag_lists) -> tuple:
    """w_c = total / (3 * count_c) over a corpus of tag sequences for one tier."""
    counts = np.zeros(3)
    for tags in tag_lists:
        for t in tags:
            counts[t] += 1
    total = counts.sum()
    if (counts == 0).any():
        missing = [name for name, c in zip("BIO", counts) if c == 0]
        raise ValueError(f"corpus has no {'/'.join(missing)} tags; cannot derive class weights")
    return tuple(total / (3.0 * counts))


def _logits_loss(logits: dict, gold: dict, weights: dict) -> float:
    """The loss of `loss`, from per-tier logits through log-sum-exp."""
    total = 0.0
    for tier in SEGMENTS_TIERS:
        z = logits[tier]
        y = np.asarray(gold[tier], dtype=int)
        t_len = z.shape[0]
        if y.shape[0] != t_len:
            raise ValueError(f"tier {tier!r}: {t_len} frames vs {y.shape[0]} tags")
        if t_len == 0:
            continue
        w = np.asarray(weights[tier], dtype=float)
        zmax = z.max(axis=1)
        logz = np.log(np.exp(z - zmax[:, None]).sum(axis=1)) + zmax
        total += float(np.mean(w[y] * (logz - z[np.arange(t_len), y])))
    return total


def loss_and_grads(model: TaggerModel, features, gold: dict, dropout_rng=None):
    """Full-sequence loss plus analytic gradients for every parameter.

    Each gradient is assigned once, as it is produced, in the dtype of its
    parameter; the head gradients and the encoder's gradient, which the
    float64 heads produce, are cast to it once. The dict is returned in
    _param_shapes order, the order train_step sums the clipping norm in.
    """
    cfg = model.config
    probs, cache = forward(model, features, return_cache=True, dropout_rng=dropout_rng)
    total = _logits_loss(cache["logits"], gold, cfg.class_weights)
    t_len = cache["x"].shape[0]
    p = model.params
    grads = {}
    denc = np.zeros_like(cache["enc"])
    for tier in SEGMENTS_TIERS:  # with no frames, every product is an empty sum: zeros
        y = np.asarray(gold[tier], dtype=int)
        w = np.asarray(cfg.class_weights[tier], dtype=float)
        dlogits = probs[tier] * w[y][:, None]
        dlogits[np.arange(t_len), y] -= w[y]
        dlogits /= t_len
        head_w, head_b = f"head.{tier}.W", f"head.{tier}.b"
        grads[head_w] = (cache["enc"].T @ dlogits).astype(p[head_w].dtype, copy=False)
        grads[head_b] = dlogits.sum(axis=0).astype(p[head_b].dtype, copy=False)
        denc += dlogits @ p[head_w].T
    h_dim = cfg.hidden_dim
    dcur = denc.astype(cache["z"].dtype, copy=False)
    for layer in reversed(range(cfg.layers)):
        if cache["drop"][layer] is not None:
            dcur = dcur * cache["drop"][layer]
        du_total = None
        for di, d in enumerate(_directions(cfg)):
            dh_out = dcur[:, di * h_dim:(di + 1) * h_dim]
            du, dwx, dwh, db = _backward_direction(
                dh_out, cache["layers"][layer][d],
                p[f"lstm{layer}.{d}.Wx"], p[f"lstm{layer}.{d}.Wh"])
            grads[f"lstm{layer}.{d}.Wx"] = dwx
            grads[f"lstm{layer}.{d}.Wh"] = dwh
            grads[f"lstm{layer}.{d}.b"] = db
            du_total = du if du_total is None else du_total + du
        dcur = du_total
    grads["proj.W"] = cache["x"].T @ dcur
    grads["proj.b"] = dcur.sum(axis=0)
    return total, {name: grads[name] for name in p}


@dataclass
class AdamState:
    """Step count and moment estimates; train_step allocates m and v, in the
    gradients' dtype, on the first step and updates them in place from then on."""
    step: int = 0
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)


# Elements per Adam chunk: its two scratch rows, in the parameters' dtype
# (256 KiB in float32), stay in cache, so each chunk of p, g, m and v is read
# from memory once per step.
ADAM_BLOCK = 32768


def _adam_update(p, g, m, v, t: int, lr: float, scratch) -> None:
    """p, m and v updated in place, chunk by chunk, with the operations of
    m += (1-b1)(g-m); v += (1-b2)(g*g-v); p -= lr*mhat / (sqrt(vhat)+eps)
    in that order, so the result is bit-identical to the whole-array form.
    scratch is (2, ADAM_BLOCK) in the dtype of p."""
    if not p.flags.c_contiguous:  # reshape would copy, and the update be lost
        raise ValueError("Adam updates C-contiguous parameters only")
    c1 = 1 - ADAM_BETA1 ** t
    c2 = 1 - ADAM_BETA2 ** t
    p, g, m, v = (a.reshape(-1) for a in (p, g, m, v))
    for start in range(0, p.size, ADAM_BLOCK):
        chunk = slice(start, start + ADAM_BLOCK)
        pc, gc, mc, vc = p[chunk], g[chunk], m[chunk], v[chunk]
        x, y = scratch[:, :pc.size]
        np.subtract(gc, mc, out=x)
        x *= 1 - ADAM_BETA1
        mc += x
        np.multiply(gc, gc, out=x)
        x -= vc
        x *= 1 - ADAM_BETA2
        vc += x
        np.divide(mc, c1, out=x)
        x *= lr
        np.divide(vc, c2, out=y)
        np.sqrt(y, out=y)
        y += ADAM_EPS
        x /= y
        pc -= x


def train_step(model: TaggerModel, features, gold: dict, state: AdamState,
               dropout_rng=None) -> float:
    """One full-sequence gradient step with adaptive moment estimation, in place."""
    value, grads = loss_and_grads(model, features, gold, dropout_rng=dropout_rng)
    if not np.isfinite(value):
        raise RuntimeError(f"non-finite training loss {value!r}; aborting step")
    cfg = model.config
    if cfg.grad_clip > 0:
        norm = np.sqrt(sum(float((g * g).sum()) for g in grads.values()))
        if norm > cfg.grad_clip:
            scale = cfg.grad_clip / norm
            for g in grads.values():
                g *= scale
    if not state.m:
        state.m = {name: np.zeros_like(g) for name, g in grads.items()}
        state.v = {name: np.zeros_like(g) for name, g in grads.items()}
    state.step += 1
    scratch = np.empty((2, ADAM_BLOCK), dtype=np.result_type(*grads.values()))
    for name, g in grads.items():
        _adam_update(model.params[name], g, state.m[name], state.v[name],
                     state.step, cfg.learning_rate, scratch)
    return value


def gradient_check(model: TaggerModel, features, gold: dict, eps: float = 1e-4) -> float:
    """Max relative error between analytic and central-difference gradients,
    both on a float64 copy of the model: the reference for the float32 path.

    Intended for small models only (hidden <= 16, short sequences).
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    model = cast_model(model, np.float64)
    _, grads = loss_and_grads(model, features, gold)
    weights = model.config.class_weights

    def loss_at():
        _, cache = forward(model, features, return_cache=True)
        return _logits_loss(cache["logits"], gold, weights)

    worst = 0.0
    for name, arr in model.params.items():
        flat = arr.reshape(-1)
        gflat = grads[name].reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            lp = loss_at()
            flat[i] = orig - eps
            lm = loss_at()
            flat[i] = orig
            fd = (lp - lm) / (2 * eps)
            err = abs(gflat[i] - fd) / max(abs(gflat[i]), abs(fd), 1e-8)
            worst = max(worst, err)
    return worst


# Every config field a manifest must hold, with the JSON types it may take.
_CONFIG_TYPES = {
    "input_dim": (int,), "hidden_dim": (int,), "layers": (int,), "bidirectional": (bool,),
    "learning_rate": (int, float), "class_weights": (dict,), "seed": (int,),
    "dropout": (int, float), "grad_clip": (int, float),
}


def _config_to_doc(cfg: TaggerConfig) -> dict:
    doc = {key: getattr(cfg, key) for key in _CONFIG_TYPES}
    doc["class_weights"] = {t: list(map(float, w)) for t, w in cfg.class_weights.items()}
    return doc


def _config_from_doc(doc) -> TaggerConfig:
    if not isinstance(doc, dict):
        raise ValueError("checkpoint config is not a JSON object")
    for key, types in _CONFIG_TYPES.items():
        if key not in doc:
            raise ValueError(f"checkpoint config has no {key!r}")
        if type(doc[key]) not in types:  # type(), so that a bool is no int
            raise ValueError(f"checkpoint config {key!r} has type {type(doc[key]).__name__}")
    fields = {key: doc[key] for key in _CONFIG_TYPES}
    weights = fields["class_weights"]
    if not all(isinstance(w, list) and all(type(v) in (int, float) for v in w)
               for w in weights.values()):
        raise ValueError("checkpoint class_weights must map tiers to lists of numbers")
    fields["class_weights"] = {t: tuple(w) for t, w in weights.items()}
    cfg = TaggerConfig(**fields)
    cfg.validate()
    return cfg


def save_model(model: TaggerModel, path) -> None:
    """Write a tagger-ckpt/2 file: one JSON manifest line, then the payload.

    The manifest holds the version, the config, each parameter's name and
    shape in _param_shapes order, the parameter count and its formula, and
    "sha256:" + the hex digest of the payload. Spaces before its newline pad
    it to a multiple of 64 bytes, so the payload starts aligned. The payload
    is every parameter as raw little-endian float32, C order, in that same
    order, with nothing between them; float64 parameters are rounded to
    float32.
    """
    shapes = _param_shapes(model.config)
    blocks = []
    digest = hashlib.sha256()
    for name, shape in shapes.items():
        arr = model.params[name]
        if arr.shape != shape:
            raise ValueError(f"parameter {name} has shape {arr.shape}, expected {shape}")
        raw = arr.astype("<f4").tobytes(order="C")
        digest.update(raw)
        blocks.append(raw)
    manifest = {
        "version": CKPT_VERSION,
        "config": _config_to_doc(model.config),
        "params": [{"name": n, "shape": list(s)} for n, s in shapes.items()],
        "param_count": param_count(model.config),
        "param_count_formula": PARAM_COUNT_FORMULA,
        "checksum": "sha256:" + digest.hexdigest(),
    }
    head = json.dumps(manifest, separators=(",", ":")).encode("ascii")
    with open(path, "wb") as f:
        f.write(head + b" " * (-(len(head) + 1) % 64) + b"\n")
        f.writelines(blocks)


def _read_manifest(line: bytes) -> dict:
    try:
        manifest = json.loads(line)
    except (ValueError, RecursionError) as e:  # RecursionError: nesting too deep
        raise ValueError(f"malformed checkpoint manifest: {e}") from None
    if not isinstance(manifest, dict):
        raise ValueError("malformed checkpoint manifest: not a JSON object")
    if manifest.get("version") != CKPT_VERSION:
        raise ValueError(
            f"checkpoint version {manifest.get('version')!r} not supported; expected {CKPT_VERSION}")
    missing = [key for key in ("config", "params", "param_count", "checksum")
               if key not in manifest]
    if missing:
        raise ValueError(f"checkpoint manifest has no {', '.join(map(repr, missing))}")
    return manifest


def load_model(path) -> TaggerModel:
    """Read a tagger-ckpt/2 file (see save_model); a malformed one is a ValueError.

    The parameters are read-only float32 views of the file's bytes, aligned
    because save_model pads the manifest line.
    """
    with open(path, "rb") as f:
        data = f.read()
    if not data:
        raise ValueError("empty checkpoint file")
    start = data.find(b"\n") + 1 or len(data)  # no newline: all manifest, no payload
    manifest = _read_manifest(data[:start])
    cfg = _config_from_doc(manifest["config"])
    count = param_count(cfg)
    if manifest["param_count"] != count:
        raise ValueError("checkpoint parameter count does not match the config formula")
    # checked before any shape is built: the payload bounds the work a config can ask for
    payload = memoryview(data)[start:]
    if len(payload) != 4 * count:
        raise ValueError(
            f"checkpoint payload is {len(payload)} bytes, expected {4 * count} (truncated?)")
    shapes = _param_shapes(cfg)
    entries = manifest["params"]
    if not (isinstance(entries, list)
            and all(isinstance(e, dict) and isinstance(e.get("shape"), list) for e in entries)
            and [(e.get("name"), tuple(e["shape"])) for e in entries] == list(shapes.items())):
        raise ValueError("checkpoint parameter shapes do not match its config")
    if "sha256:" + hashlib.sha256(payload).hexdigest() != manifest["checksum"]:
        raise ValueError("checkpoint checksum mismatch: file corrupted or truncated")
    flat = np.frombuffer(data, dtype="<f4", count=count, offset=start)
    params, offset = {}, 0
    for name, shape in shapes.items():
        size = math.prod(shape)
        params[name] = flat[offset:offset + size].reshape(shape)
        offset += size
    return TaggerModel(cfg, params)
