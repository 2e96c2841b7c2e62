"""Frame tagger: linear projection, stacked bidirectional LSTM, two BIO heads.

Implemented directly on numpy arrays with hand-written backpropagation through
time, so the gradient math is checkable against finite differences. Every
array the tagger makes is in the dtype of the parameters (float32 as
init_model makes them and as load_model returns them), so training and
inference share one path and no call takes a dtype; only the scalar loss is
reduced from a float64 copy of the (T, 3) logits. gradient_check runs on a
float64 copy (cast_model), the reference the float32 path is checked against. The
pipeline assembles features in float32, so the float32 path reads them with
no copy and only that reference casts them. Each LSTM time step writes
into arrays allocated once per direction, so the loop allocates nothing and
holds the interpreter lock for less of each step. A direction projects its
input a block of rows at a time and writes its outputs into the layer's
output, so inference holds no (T, 4H) array; nor does it keep the (T, H)
projection once the first layer has read it.

Every LSTM call takes a time-major (T, B, Din) batch of clips, longest
first; each step advances the clips still running, which share each read
of Wh. forward_clips is the one inference path, in batches bounded by clip
count and padded frames; forward is its batch of one, and training's
cached forward is _encode on a batch of one. One step loop serves any number
of running clips: one clip steps on (1, H) rows with the whole Wh as its one
block; the forward and training tests pin its bits.

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

from .numutil import is_finite_real, load_json
from .tags import SEGMENTS_TIERS

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8

CKPT_VERSION = "tagger-ckpt/2"

# Every LSTM layer runs both directions: the tagger is a BiLSTM.
DIRECTIONS = ("fwd", "bwd")

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
        return len(DIRECTIONS)

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


def _param_shapes(config: TaggerConfig) -> dict:
    h = config.hidden_dim
    shapes = {"proj.W": (config.input_dim, h), "proj.b": (h,)}
    for layer in range(config.layers):
        din = config.layer_input_dim(layer)
        for d in DIRECTIONS:
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


# _run_direction projects its input this many rows at a time, so a
# direction holds a (XW_ROWS, 4H) block of input projections, not (T, 4H); a
# batch of B clips projects XW_ROWS // B time rows of all B at a time.
# Row blocks give the bits of the whole-array product; a 1-row product goes
# to gemv and does not, so a 1-row tail joins the block before it.
XW_ROWS = 256

# A batch of B > 1 clips runs its recurrent product, (B, H) @ (H, 4H), on
# column blocks of Wh with B * columns * H <= WH_BLOCK_MACS multiply-adds,
# so that each product stays on OpenBLAS's small-matrix path. Per step at
# H = 256 on one BLAS thread (an AVX-512 x86-64 host): B = 4 took 79-99 us
# whole, 32-36 us as two 512-column blocks, and 92 us as four 1-row
# products; B = 8 took 73-123 us whole and 62-67 us as four 256-column
# blocks; B = 3 took 44-55 us either way. One clip keeps the whole Wh (a
# 1-row product, gemv). tools/recurrent_product.py measures it again.
WH_BLOCK_MACS = 2 ** 19


def _row_blocks(t_len: int, reverse: bool, rows: int = XW_ROWS):
    """The (start, stop) rows of each projection block, in step order."""
    edges = list(range(0, t_len, rows)) + [t_len]
    if len(edges) > 2 and t_len - edges[-2] == 1:
        del edges[-2]
    blocks = list(zip(edges, edges[1:]))
    if reverse:  # the same blocks from the other end, as the steps run
        blocks = [(t_len - stop, t_len - start) for start, stop in blocks]
    return blocks


def wh_blocks(wh, batch: int) -> list:
    """(first column, block) pairs that split wh (H, 4H) for the recurrent
    product of `batch` clips: wh itself for one clip, else C-contiguous
    copies of column blocks as wide as the widest power of two within
    WH_BLOCK_MACS."""
    h_dim = wh.shape[0]
    cols = 4 * h_dim
    if batch > 1:
        cols = 1
        while 2 * cols <= 4 * h_dim and batch * 2 * cols * h_dim <= WH_BLOCK_MACS:
            cols *= 2
    if cols == 4 * h_dim:
        return [(0, wh)]
    return [(c0, np.ascontiguousarray(wh[:, c0:c0 + cols])) for c0 in range(0, 4 * h_dim, cols)]


def _run_direction(u, wx, wh, b, h, reverse, lengths, keep_cache=False):
    """One LSTM direction over a batch of clips, in the dtype of its parameters.

    u is a time-major (T, B, Din) block of B clips, clip i in its first
    lengths[i] rows, longest first; a row past a clip's length is padding,
    which no step reads. Writes the outputs into h (T, B, H), a view into
    the layer's output; padding rows are left as they are. Each clip starts
    from the zero state at its first frame, or in reverse at its last.
    Returns the backprop cache when keep_cache (a batch of one), else None.
    """
    t_len, batch, d_in = u.shape
    h_dim = wh.shape[0]
    scale = _gate_scale(h_dim, wh.dtype)
    blocks = wh_blocks(wh * scale, batch)
    if keep_cache:
        c = np.empty((t_len, h_dim), dtype=wh.dtype)
        act = np.empty((t_len, 4 * h_dim), dtype=wh.dtype)
    # the step's arrays, allocated once: each step writes the rows of the
    # clips still running in place, with the operations, and operand order, of
    #   xw = (u @ wx + b) * scale; a = tanh(xw[t] + hprev @ wh); gate = 0.5 * (1 + a)
    #   cprev = gf * cprev + gi * ag; hprev = go * tanh(cprev)
    block_rows = max(1, XW_ROWS // batch)
    xw = np.empty((min(t_len, block_rows + 1), batch, 4 * h_dim), dtype=wh.dtype)
    a = np.empty((batch, 4 * h_dim), dtype=wh.dtype)
    gate = np.empty_like(a)  # input, forget, output; the candidate slice is unused
    tmp = np.empty((batch, h_dim), dtype=wh.dtype)
    # the zero state; in reverse, a clip that starts late gets its zero row here
    h0 = np.zeros((batch, h_dim), dtype=wh.dtype)
    cprev = np.zeros((batch, h_dim), dtype=wh.dtype)
    # the running clips are a prefix of the batch; its length changes only
    # where a clip ends (or, in reverse, starts)
    cuts = sorted(set(lengths))
    running = 0
    for start, stop in _row_blocks(t_len, reverse, block_rows):
        rows = xw[:stop - start]
        np.matmul(u[start:stop].reshape(-1, d_in), wx, out=rows.reshape(-1, 4 * h_dim))
        rows += b
        rows *= scale
        edges = [start, *(t for t in cuts if start < t < stop), stop]
        spans = list(zip(edges, edges[1:]))
        for lo, hi in reversed(spans) if reverse else spans:
            n = sum(length > lo for length in lengths)
            if n != running:  # bind the step's views for the n running clips
                if running == 0:
                    hprev = h0[:n]
                elif reverse:  # clips running..n start at frame hi - 1, from zero state
                    h0[:running] = hprev
                    hprev = h0[:n]
                else:  # clips n..running have ended
                    hprev = hprev[:n]
                running = n
                an, gn, tn, cn, hn = a[:n], gate[:n], tmp[:n], cprev[:n], h[:, :n]
                gi, gf, go = gn[:, :h_dim], gn[:, h_dim:2 * h_dim], gn[:, 3 * h_dim:]
                ag = an[:, 2 * h_dim:3 * h_dim]
                products = [(w, an[:, c0:c0 + w.shape[1]]) for c0, w in blocks]
            xn = rows[:, :n]
            for t in range(hi - 1, lo - 1, -1) if reverse else range(lo, hi):
                for w, out in products:
                    np.matmul(hprev, w, out=out)
                np.add(xn[t - start], an, out=an)
                np.tanh(an, out=an)
                np.add(1.0, an, out=gn)
                np.multiply(0.5, gn, out=gn)
                np.multiply(gi, ag, out=tn)
                np.multiply(gf, cn, out=cn)
                np.add(cn, tn, out=cn)
                np.tanh(cn, out=tn)
                hprev = hn[t]
                np.multiply(go, tn, out=hprev)
                if keep_cache:
                    c[t] = cn
                    act[t] = an
    if not keep_cache:
        return None
    h = h[:, 0]
    # the state entering step t is the one the previous step left; h itself
    # is not kept, as _encode scales it in place when it applies dropout
    hprev_all = np.zeros_like(c)
    cprev_all = np.zeros_like(c)
    if reverse:
        hprev_all[:-1], cprev_all[:-1] = h[1:], c[1:]
    else:
        hprev_all[1:], cprev_all[1:] = h[:-1], c[:-1]
    for block in (act[:, :2 * h_dim], act[:, 3 * h_dim:]):  # tanh -> sigmoid, in place
        block += 1.0
        block *= 0.5
    order = range(t_len - 1, -1, -1) if reverse else range(t_len)
    cache = {"u": u[:, 0], "c": c,
             "gi": act[:, :h_dim], "gf": act[:, h_dim:2 * h_dim],
             "gg": act[:, 2 * h_dim:3 * h_dim], "go": act[:, 3 * h_dim:],
             "hprev": hprev_all, "cprev": cprev_all, "order": list(order)}
    return cache


def _backward_direction(dh_out, cache, wx, wh):
    """Gradient through one direction, in the dtype of wh. Returns (du, dWx, dWh, db).

    The gate factors for the whole sequence are stacked before the time loop,
    so a step writes its row of da in place with four multiplies. Each
    product keeps the reference order: da_i = (di * gi) * (1 - gi), da_g =
    (dg * (1 - gg^2)) * 1, and so on; multiplying by 1.0 is exact.
    """
    u = cache["u"]
    t_len, h_dim = cache["c"].shape
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


def _check_features(cfg: TaggerConfig, features) -> np.ndarray:
    x = np.asarray(features)
    if x.ndim != 2 or x.shape[1] != cfg.input_dim:
        raise ValueError(
            f"feature width {x.shape[1] if x.ndim == 2 else '?'} does not match "
            f"model input_dim {cfg.input_dim}"
        )
    return x


def _encode(model: TaggerModel, clips, keep_cache=False, dropout_rng=None):
    """The projection and the LSTM stack over clips, a list of (T, F)
    features longest first, in the dtype of the parameters. Each clip is
    projected into its column of a zeroed time-major (T, B, H) block; layer
    outputs start as zeros too, so the padding rows a layer projects are
    finite. Returns the last (T, B, 2H) output, the per-layer direction
    caches (None unless keep_cache) and the dropout masks."""
    cfg = model.config
    p = model.params
    dtype = p["proj.W"].dtype
    h_dim = cfg.hidden_dim
    lengths = [len(x) for x in clips]
    shape = (lengths[0], len(clips))
    # one output per layer, the directions side by side; the first is made
    # before the projection block, which, freed after the first layer, is then
    # the heap top the next output grows from (glibc: 4 MB less peak RSS at 3 min)
    out = np.zeros((*shape, cfg.encoder_dim), dtype=dtype)
    cur = np.zeros((*shape, h_dim), dtype=dtype)
    for j, x in enumerate(clips):
        # casts only features in another dtype; no name keeps a view of cur
        np.matmul(x.astype(dtype, copy=False), p["proj.W"], out=cur[:len(x), j])
        cur[:len(x), j] += p["proj.b"]
    layer_caches = []
    drop_masks = []
    for layer in range(cfg.layers):
        if layer:
            out = np.zeros((*shape, cfg.encoder_dim), dtype=dtype)
        caches = {}
        for di, d in enumerate(DIRECTIONS):
            name = f"lstm{layer}.{d}"
            caches[d] = _run_direction(
                cur, p[f"{name}.Wx"], p[f"{name}.Wh"], p[f"{name}.b"],
                out[..., di * h_dim:(di + 1) * h_dim], reverse=(d == "bwd"),
                lengths=lengths, keep_cache=keep_cache)
        cur = out
        if dropout_rng is not None and cfg.dropout > 0 and layer < cfg.layers - 1:
            mask = ((dropout_rng.random(cur.shape) >= cfg.dropout)
                    / (1.0 - cfg.dropout)).astype(cur.dtype, copy=False)
            cur *= mask
            drop_masks.append(mask)
        else:
            drop_masks.append(None)
        layer_caches.append(caches)
    return cur, layer_caches, drop_masks


def _heads(params: dict, enc):
    """Per-tier logits and probability rows of the encoder output (T, 2H)."""
    logits = {}
    probs = {}
    for tier in SEGMENTS_TIERS:
        logits[tier] = enc @ params[f"head.{tier}.W"] + params[f"head.{tier}.b"]
        probs[tier] = _softmax(logits[tier])
    return logits, probs


# A forward_clips batch holds at most BATCH_CLIPS clips and BATCH_FRAMES
# padded frames (clips x its longest clip's frames): eight 512-frame clips
# (20 s at 25 fps) fill one, and it holds no more than one 4096-frame clip.
BATCH_CLIPS = 8
BATCH_FRAMES = 4096


def forward_clips(model: TaggerModel, clips) -> list:
    """Per-tier (T, 3) probability rows for each of clips, a list of (T, F)
    features, in input order. The clips run longest first, each batch
    through one step loop; a clip's rows agree with its own forward to a few
    float32 roundings (the batched products sum in another order)."""
    cfg = model.config
    xs = [_check_features(cfg, f) for f in clips]
    order = sorted(range(len(xs)), key=lambda i: len(xs[i]), reverse=True)
    probs = [None] * len(xs)
    while order:
        count = min(BATCH_CLIPS, max(1, BATCH_FRAMES // max(1, len(xs[order[0]]))))
        batch, order = order[:count], order[count:]
        cur = _encode(model, [xs[i] for i in batch])[0]
        for j, i in enumerate(batch):
            probs[i] = _heads(model.params, cur[:len(xs[i]), j])[1]
        del cur  # before the next batch allocates its own
    return probs


def forward(model: TaggerModel, features) -> dict:
    """forward_clips of one clip: its per-tier (T, 3) probability rows."""
    return forward_clips(model, [features])[0]


def _cached_forward(model: TaggerModel, features, dropout_rng=None):
    """forward of one clip with the cache loss_and_grads backpropagates
    through; under dropout, every layer output but the last is masked."""
    x = _check_features(model.config, features)
    cur, layer_caches, drop_masks = _encode(model, [x], keep_cache=True,
                                            dropout_rng=dropout_rng)
    enc = cur[:, 0]
    logits, probs = _heads(model.params, enc)
    # x in the parameters' dtype, for the projection's gradient
    cache = {"x": x.astype(cur.dtype, copy=False), "enc": enc, "layers": layer_caches,
             "logits": logits, "drop": [None if m is None else m[:, 0] for m in drop_masks]}
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
    tags = np.concatenate([np.zeros(0, np.intp), *(np.asarray(t, np.intp) for t in tag_lists)])
    if tags.size and not 0 <= tags.min() <= tags.max() <= 2:
        raise ValueError(f"tags must be 0 (B), 1 (I) or 2 (O); got {tags.min()}..{tags.max()}")
    counts = np.bincount(tags, minlength=3)
    total = counts.sum()
    if (counts == 0).any():
        missing = [name for name, c in zip("BIO", counts) if c == 0]
        raise ValueError(f"corpus has no {'/'.join(missing)} tags; cannot derive class weights")
    return tuple(total / (3.0 * counts))


def _logits_loss(logits: dict, gold: dict, weights: dict) -> float:
    """The loss of `loss`, from per-tier logits through log-sum-exp in float64."""
    total = 0.0
    for tier in SEGMENTS_TIERS:
        z = logits[tier].astype(np.float64, copy=False)
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

    Each gradient is assigned once, as it is produced, in the dtype of the
    parameters, the class weights cast to it too. The dict is returned in
    _param_shapes order, the order train_step sums the clipping norm in.
    """
    cfg = model.config
    probs, cache = _cached_forward(model, features, dropout_rng)
    total = _logits_loss(cache["logits"], gold, cfg.class_weights)
    t_len = cache["x"].shape[0]
    p = model.params
    grads = {}
    dcur = np.zeros_like(cache["enc"])
    for tier in SEGMENTS_TIERS:  # with no frames, every product is an empty sum: zeros
        y = np.asarray(gold[tier], dtype=int)
        w = np.asarray(cfg.class_weights[tier], dtype=dcur.dtype)
        dlogits = probs[tier] * w[y][:, None]
        dlogits[np.arange(t_len), y] -= w[y]
        dlogits /= t_len
        head_w, head_b = f"head.{tier}.W", f"head.{tier}.b"
        grads[head_w] = cache["enc"].T @ dlogits
        grads[head_b] = dlogits.sum(axis=0)
        dcur += dlogits @ p[head_w].T
    h_dim = cfg.hidden_dim
    for layer in reversed(range(cfg.layers)):
        if cache["drop"][layer] is not None:
            dcur = dcur * cache["drop"][layer]
        du_total = None
        for di, d in enumerate(DIRECTIONS):
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
        norm = np.sqrt(sum(float(np.dot(g.ravel(), g.ravel())) for g in grads.values()))
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
        _, cache = _cached_forward(model, features)
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
    "input_dim": (int,), "hidden_dim": (int,), "layers": (int,),
    "learning_rate": (int, float), "class_weights": (dict,), "seed": (int,),
    "dropout": (int, float), "grad_clip": (int, float),
}


def _config_to_doc(cfg: TaggerConfig) -> dict:
    # "bidirectional" is no field: it says that the tagger is a BiLSTM
    return {"input_dim": cfg.input_dim, "hidden_dim": cfg.hidden_dim, "layers": cfg.layers,
            "bidirectional": True, "learning_rate": cfg.learning_rate,
            "class_weights": {t: list(map(float, w)) for t, w in cfg.class_weights.items()},
            "seed": cfg.seed, "dropout": cfg.dropout, "grad_clip": cfg.grad_clip}


def _config_from_doc(doc) -> TaggerConfig:
    if not isinstance(doc, dict):
        raise ValueError("checkpoint config is not a JSON object")
    for key, types in _CONFIG_TYPES.items():
        if key not in doc:
            raise ValueError(f"checkpoint config has no {key!r}")
        if type(doc[key]) not in types:  # type(), so that a bool is no int
            raise ValueError(f"checkpoint config {key!r} has type {type(doc[key]).__name__}")
    if doc.get("bidirectional") is not True:
        raise ValueError("checkpoint config 'bidirectional' must be true: "
                         "the tagger is a BiLSTM")
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
    manifest = load_json(line, "checkpoint manifest")
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
        if not np.isfinite(params[name]).all():
            raise ValueError(f"checkpoint parameter {name} holds a non-finite value")
        offset += size
    return TaggerModel(cfg, params)
