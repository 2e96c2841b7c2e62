"""Command-line interface.

Subcommands: segment, train, tune, eval, bio-fidelity, hand-bench, flow-dump.
Each subcommand takes only the shared options it reads (_READS). They resolve
in three layers: built-in defaults, then a JSON config file (--config or
$SIGNSEG_CONFIG), then explicit flags. Every file-writing run writes its
outputs and a `<command>.run.json` manifest of its options through _emit;
no artifact embeds a timestamp, so reruns byte-match.
Errors carry a stage prefix on stderr and flip the exit code to 1.
"""

import argparse
import csv
import errno
import io
import json
import os
import sys
from contextlib import contextmanager

import numpy as np

from . import numutil
from . import train as training
from .decoding import DEFAULT_GRID, DecodeMode, DecodeParams, decode, tune_thresholds
from .flow import optical_flow
from .hands import Handedness, HandPose, cce, hand_normalize, mean_landmark_std
from .metrics import build_report, report_to_json, report_to_text, roc_auc_o
from .numutil import check_fps, load_json
from .pipeline import PipelineOptions, parse_feature_flags, prepare_features, prepare_pose
from .pose import HAND_POINTS, component_columns, load_pose
from .tagger import (TaggerConfig, forward, forward_clips, init_model, load_model,
                     save_model)
from .tags import (SEGMENTS_TIERS, TagScheme, decode_gold_tags, fidelity_experiment,
                   load_segments, save_segments)
from .vtt import segments_to_vtt

_MODES = tuple(m.value for m in DecodeMode)

# Shared options: the default of the object each one builds, and its argparse keywords.
_SHARED = {
    "fps": (PipelineOptions.fps, {"type": float, "help": "pipeline frame rate"}),
    "selector": (PipelineOptions.selector, {"help": "keypoint selector name"}),
    "features": (",".join(PipelineOptions.features),
                 {"help": "comma list of feature flags: flow,handnorm"}),
    "threshold_b": (DecodeParams.threshold_b, {"type": float}),
    "threshold_o": (DecodeParams.threshold_o, {"type": float}),
    "mode": (DecodeParams.mode.value, {"choices": sorted(_MODES)}),
    "seed": (TaggerConfig.seed, {"type": int}),
    "workers": (1, {"type": int}),
}

# The shared options each subcommand reads. Its parser offers only these
# (plus --config where there is one), _resolve checks only these, and they
# are the shared part of the options in <command>.run.json.
_READS = {
    "segment": ("fps", "selector", "features", "threshold_b", "threshold_o", "mode",
                "workers"),
    "train": ("fps", "selector", "features", "seed"),
    "tune": ("fps", "selector", "features"),
    "eval": (),
    "bio-fidelity": (),
    "hand-bench": (),
    "flow-dump": ("fps", "selector"),
}


class StageError(Exception):
    def __init__(self, stage: str, message: str):
        super().__init__(message)
        self.stage = stage

    def __reduce__(self):  # a pool process's error reaches main whole
        return StageError, (self.stage, str(self))


@contextmanager
def _stage(name: str, path=None):
    """Turns an error of the block into a StageError of this stage; the
    message names path first, where the stage works on one input file."""
    try:
        yield
    except StageError:
        raise
    except (ValueError, RuntimeError, OSError, KeyError, TypeError, OverflowError,
            MemoryError) as e:
        raise StageError(name, str(e) if path is None else f"{path}: {e}") from e


def _load_base_config(path_flag):
    path = path_flag or os.environ.get("SIGNSEG_CONFIG")
    if not path:
        return {}
    with _stage("config"):
        with open(path, "rb") as f:
            doc = load_json(f.read(), f"config file {path}")
        if not isinstance(doc, dict):
            raise ValueError(f"config file {path} must hold a JSON object")
        # one file serves every command: keys that another command reads pass
        unknown = sorted(set(doc) - set(_SHARED))
        if unknown:
            raise ValueError(f"config file {path} has unknown keys: {', '.join(unknown)}")
    return doc


def _resolve(args) -> dict:
    keys = _READS[args.command]
    if not keys:
        return {}
    base = _load_base_config(args.config)
    opts = {}
    for key in keys:
        flag = getattr(args, key)
        opts[key] = flag if flag is not None else base.get(key, _SHARED[key][0])
    with _stage("config"):
        if "features" in opts:
            feats = opts["features"]
            if isinstance(feats, str):
                feats = list(parse_feature_flags(feats))
            if not isinstance(feats, list):  # PipelineOptions checks each flag
                raise ValueError("features must be a comma list or list of strings")
            opts["features"] = feats
        if "fps" in opts:
            _popts(opts)
        if "mode" in opts:
            if opts["mode"] not in _MODES:
                raise ValueError(f"unknown mode {opts['mode']!r}; expected {' or '.join(_MODES)}")
            _dparams(opts, strict_bio=False)
        # type(), so that a bool is no int
        if "workers" in opts and not (type(opts["workers"]) is int and opts["workers"] >= 1):
            raise ValueError("workers must be an integer >= 1")
        if "seed" in opts and not (type(opts["seed"]) is int and opts["seed"] >= 0):
            raise ValueError("seed must be an integer >= 0")
    return opts


def _popts(opts) -> PipelineOptions:
    return PipelineOptions(opts["fps"], opts["selector"], tuple(opts.get("features", ())))


def _dparams(opts, strict_bio: bool) -> DecodeParams:
    return DecodeParams(opts["threshold_b"], opts["threshold_o"], DecodeMode(opts["mode"]),
                        strict_bio)


def _stem(path) -> str:
    base = os.path.basename(path)
    for suffix in (training.POSE_SUFFIX, ".json"):
        if base.endswith(suffix):
            return base[:-len(suffix)]
    return os.path.splitext(base)[0]


# In a pool process: the function its items run through. It reaches the
# process through fork, so it need not pickle (a closure or a lambda does
# not); only the items and the results do.
_pool_worker = None


def _start_pool_process(worker):
    """A pool process's initializer; it also pins OpenBLAS to one thread."""
    global _pool_worker
    _pool_worker = worker
    numutil.pin_one_blas_thread()


def _call_pool_worker(item):
    return _pool_worker(item)


def _map_files(items, worker, workers: int):
    """[worker(item) for item in items], on a pool of processes when there
    are workers and items to share.

    The pool forks min(workers, len(items)) processes, each with OpenBLAS on
    one thread; this process's BLAS thread count is left as it is. Results
    come in input order, and the error raised is that of the first failing
    item in input order, so it must pickle (StageError does). Every process
    has exited when this returns or raises.
    """
    if workers > 1 and len(items) > 1:
        # imported here: the serial path and the other commands do without them
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(min(workers, len(items)),
                                 multiprocessing.get_context("fork"),
                                 initializer=_start_pool_process,
                                 initargs=(worker,)) as pool:
            return list(pool.map(_call_pool_worker, items))
    return [worker(item) for item in items]


def _write_text(path, text: str) -> None:
    if not text.endswith("\n"):
        text += "\n"
    with open(path, "w", encoding="utf-8") as f:
        f.write(text)


def _csv_text(header, rows) -> str:
    """Comma-separated rows; a field with a comma, a quote or a newline is quoted."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header.split(","))
    writer.writerows(rows)
    return buf.getvalue()


# Parser destinations that are no option of the run: the command itself, the
# config file (its values are in the shared options), where the outputs go
# and segment's inputs (the manifest lists them as inputs).
_NOT_OPTIONS = {"command", "func", "config", "out_dir", "poses"}


def _check_out_dir(path) -> None:
    """The emit stage's error for an output directory that os.makedirs could
    not make, raised before any input is read; makes nothing itself."""
    if path is None:
        return
    with _stage("emit"):
        child, probe = None, os.path.normpath(path)
        while not os.path.lexists(probe):  # up to the nearest existing ancestor
            child, probe = probe, os.path.dirname(probe) or "."
        if child is None:
            if not os.path.isdir(probe):
                raise FileExistsError(errno.EEXIST, os.strerror(errno.EEXIST), path)
        elif not os.path.isdir(probe):
            raise NotADirectoryError(errno.ENOTDIR, os.strerror(errno.ENOTDIR), child)
        elif not os.access(probe, os.W_OK | os.X_OK):
            raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), child)


@contextmanager
def _emit(args, opts, inputs, **computed):
    """The emit stage: makes args.out_dir, yields out(name), writes <command>.run.json.

    out(name) returns the path of an output in args.out_dir and records it.
    The manifest's options are the shared options the command read, the
    command's own parser options, and the computed values, which replace a
    parsed value of the same name.
    """
    outputs = []

    def out(name):
        outputs.append(os.path.join(args.out_dir, name))
        return outputs[-1]

    with _stage("emit"):
        os.makedirs(args.out_dir, exist_ok=True)
        yield out
        own = {key: value for key, value in vars(args).items()
               if key not in _NOT_OPTIONS and key not in _SHARED}
        doc = {"command": args.command, "options": {**opts, **own, **computed},
               "inputs": list(inputs), "outputs": outputs}
        with open(os.path.join(args.out_dir, f"{args.command}.run.json"), "w",
                  encoding="utf-8") as f:
            json.dump(doc, f, indent=2, sort_keys=True)
            f.write("\n")


def cmd_segment(args, opts) -> int:
    with _stage("emit"):  # before any input is read
        stems = {}
        for path in args.poses:
            stem = _stem(path)
            if stem in stems:
                raise ValueError(f"{stems[stem]} and {path} would both write "
                                 f"{stem}.segments.json")
            stems[stem] = path
    with _stage("checkpoint"):
        model = load_model(args.checkpoint)
    popts = _popts(opts)
    dparams = _dparams(opts, strict_bio=args.strict_bio)

    def process(path):
        with _stage("parse", path):
            seq = load_pose(path, popts.read_columns)
        if seq.num_frames == 0:
            return _stem(path), {tier: [] for tier in SEGMENTS_TIERS}
        with _stage("features", path):
            feats = prepare_features(seq, popts)
        del seq  # frees the pose block before the forward pass
        with _stage("forward", path):
            probs = forward(model, feats.values)
        with _stage("decode", path):
            tiers = {tier: decode(probs[tier] * 100.0, dparams)
                     for tier in SEGMENTS_TIERS}
        return _stem(path), tiers

    results = _map_files(args.poses, process, opts["workers"])
    with _emit(args, opts, args.poses) as out:
        for stem, tiers in results:
            save_segments(out(f"{stem}.segments.json"), opts["fps"], tiers)
            for tier in SEGMENTS_TIERS:
                _write_text(out(f"{stem}.{tier}.vtt"),
                            segments_to_vtt(tiers[tier], opts["fps"], tier))
    return 0


def cmd_train(args, opts) -> int:
    popts = _popts(opts)
    with _stage("data"):
        train_clips = training.load_corpus(args.data_dir, popts)
        val_clips = (training.load_corpus(args.val_dir, popts)
                     if args.val_dir else train_clips)
        width, val_width = train_clips[0].features.shape[1], val_clips[0].features.shape[1]
        if val_width != width:
            raise ValueError(f"validation clips have feature width {val_width}, "
                             f"training clips {width}")
    with _stage("weights"):
        weights = training.corpus_class_weights(train_clips)
    with _stage("model"):
        config = TaggerConfig(
            input_dim=width,
            hidden_dim=args.hidden_dim,
            layers=args.layers,
            learning_rate=args.learning_rate,
            class_weights=weights,
            seed=opts["seed"],
            dropout=args.dropout,
            grad_clip=args.grad_clip,
        )
        model = init_model(config)
    with _stage("train"):
        result = training.train(
            model, train_clips, val_clips,
            max_steps=args.max_steps, patience=args.patience,
            val_every=args.val_every, shuffle_seed=opts["seed"],
        )
        # without --val-dir the best validation F1 is already the train F1
        # of the returned parameters, from the same forward
        train_f1 = (result.best_val_f1 if val_clips is train_clips
                    else training.mean_frame_f1(result.model, train_clips))
    results = {"best_val_f1": result.best_val_f1, "best_step": result.best_step,
               "steps": result.steps, "train_f1": train_f1, "stopped": result.stopped}
    with _emit(args, opts, [args.data_dir], results=results) as out:
        save_model(result.model, out("model.ckpt"))
        rows = [(r.epoch, r.step, f"{r.train_loss:.6f}",
                 "" if r.val_f1 is None else f"{r.val_f1:.6f}") for r in result.history]
        _write_text(out("training_log.csv"), _csv_text("epoch,step,train_loss,val_f1", rows))
    print(f"best_val_f1={result.best_val_f1:.6f} train_f1={train_f1:.6f} "
          f"steps={result.steps} stopped={result.stopped}")
    return 0


def cmd_tune(args, opts) -> int:
    with _stage("checkpoint"):
        model = load_model(args.checkpoint)
    popts = _popts(opts)
    with _stage("data"):
        clips = training.load_corpus(args.data_dir, popts)
    with _stage("forward"):
        probs = forward_clips(model, [clip.features for clip in clips])
        dev = [(p[args.tier] * 100.0, decode_gold_tags(clip.gold[args.tier], TagScheme.BIO))
               for p, clip in zip(probs, clips)]
    with _stage("tune"):
        best_b, best_o, table = tune_thresholds(dev, DEFAULT_GRID,
                                                strict_bio=args.strict_bio)
        try:  # over every dev frame
            auc = roc_auc_o(np.concatenate([p[args.tier] for p in probs]),
                            np.concatenate([clip.gold[args.tier] for clip in clips]))
        except ValueError:
            auc = None  # the gold holds one class
    best = next(c for c in table
                if c.threshold_b == best_b and c.threshold_o == best_o)
    results = {"threshold_b": best_b, "threshold_o": best_o,
               "iou": best.iou, "percentage": best.percentage, "roc_auc_o": auc}
    with _emit(args, opts, [args.data_dir], results=results) as out:
        rows = [(f"{c.threshold_b:g}", f"{c.threshold_o:g}", f"{c.iou:.6f}",
                 f"{c.percentage:.6f}") for c in table]
        _write_text(out(f"tune_{args.tier}.csv"),
                    _csv_text("threshold_b,threshold_o,iou,percentage", rows))
    print(f"tier={args.tier} threshold_b={best_b:g} threshold_o={best_o:g} iou={best.iou:.6f} "
          f"percentage={best.percentage:.6f} roc_auc_o={'-' if auc is None else f'{auc:.6f}'}")
    return 0


def cmd_eval(args, opts) -> int:
    with _stage("parse"):
        pred_fps, pred_tiers = load_segments(args.pred)
        gold_fps, gold_tiers = load_segments(args.gold)
        if pred_fps != gold_fps:
            raise ValueError(f"pred fps {pred_fps:g} does not match gold fps {gold_fps:g}")
    num_frames = args.frames
    if num_frames is None:
        ends = [s.end for tiers in (pred_tiers, gold_tiers)
                for segs in tiers.values() for s in segs]
        num_frames = max(ends, default=0)
    with _stage("metrics"):
        if num_frames <= 0:
            raise ValueError("no frames to evaluate; pass --frames for empty inputs")
        report = build_report(pred_tiers, gold_tiers, num_frames, gold_fps,
                              bins=args.bins)
    print(report_to_text(report))
    if args.out_dir:
        with _emit(args, opts, [args.pred, args.gold], frames=num_frames) as out:
            _write_text(out("report.json"), report_to_json(report))
    return 0


def cmd_bio_fidelity(args, opts) -> int:
    with _stage("parse"):
        src_fps, tiers = load_segments(args.gold)
        if args.tier not in tiers:
            raise ValueError(f"gold file has no {args.tier!r} tier")
        fps_list = [check_fps(float(x), "--fps-list entry")
                    for x in args.fps_list.split(",") if x]
        if not fps_list:
            raise ValueError("empty --fps-list")
    with _stage("fidelity"):
        rows = fidelity_experiment(tiers[args.tier], src_fps, fps_list)
    text = _csv_text("fps,scheme,reproduced,exact",
                     [(f"{r.fps:g}", r.scheme.value, f"{r.reproduced:.6f}", f"{r.exact:.6f}")
                      for r in rows])
    if args.out_dir:
        with _emit(args, opts, [args.gold], fps_list=fps_list) as out:
            _write_text(out("fidelity.csv"), text)
    else:
        sys.stdout.write(text)
    return 0


def _load_bench_hand(path) -> HandPose:
    seq = load_pose(path)
    if seq.num_frames == 0:
        raise ValueError(f"{path}: pose has no frames")
    for name, handedness in (("RIGHT_HAND", Handedness.RIGHT),
                             ("LEFT_HAND", Handedness.LEFT)):
        if any(c.name == name for c in seq.components):
            return HandPose(seq.coords[0, component_columns(seq.components, name)], handedness)
    raise ValueError(f"{path}: pose has no hand component")


def cmd_hand_bench(args, opts) -> int:
    with _stage("manifest"):
        with open(args.manifest, "rb") as f:
            doc = load_json(f.read(), "hand-bench manifest")
        groups = doc.get("groups") if isinstance(doc, dict) else None
        if not isinstance(groups, list) or not groups:
            raise ValueError("manifest must hold {\"groups\": [{\"label\", \"files\"}, ...]}")
        base = os.path.dirname(os.path.abspath(args.manifest))
        parsed = []
        for g in groups:
            if not (isinstance(g, dict) and isinstance(g.get("label"), str)
                    and isinstance(g.get("files"), list) and len(g["files"]) >= 2):
                raise ValueError("each group needs a label and at least 2 files")
            if not all(isinstance(f, str) for f in g["files"]):
                raise ValueError(f"group {g['label']!r}: files must be path strings")
            files = [os.path.join(base, f) for f in g["files"]]
            parsed.append((g["label"], files))

    results = []
    for label, files in parsed:
        with _stage("data"):
            members = [_load_bench_hand(f) for f in files]
        with _stage("bench"):
            normalized = np.stack([hand_normalize(m).points for m in members])
            results.append((label, files, mean_landmark_std(normalized), cce(members),
                            normalized))
    with _emit(args, opts, [args.manifest]) as out:
        bench_rows, overlay_rows = [], []
        for label, files, group_mace, group_cce, normalized in results:
            bench_rows.append((label, f"{group_mace:.9f}", f"{group_cce:.9f}"))
            for path, pts in zip(files, normalized):
                member = _stem(path)
                for li, name in enumerate(HAND_POINTS):
                    overlay_rows.append((label, member, name, f"{pts[li, 0]:.9f}",
                                         f"{pts[li, 1]:.9f}", f"{pts[li, 2]:.9f}"))
        _write_text(out("hand_bench.csv"), _csv_text("label,mace,cce", bench_rows))
        _write_text(out("overlay.csv"),
                    _csv_text("label,member,landmark,x,y,z", overlay_rows))
    return 0


def cmd_flow_dump(args, opts) -> int:
    popts = _popts(opts)
    with _stage("parse"):
        seq = load_pose(args.pose, popts.read_columns)
    rows = []
    if seq.num_frames > 0:
        with _stage("features"):
            prepared = prepare_pose(seq, popts)
            flow = optical_flow(prepared)
        labels = [f"{c.name}/{p}" for c in prepared.components for p in c.points]
        rows = ((t, label, f"{flow[t, k]:.6f}")
                for t in range(flow.shape[0]) for k, label in enumerate(labels))
    text = _csv_text("frame,point,value", rows)
    if args.out_dir:
        with _emit(args, opts, [args.pose]) as out:
            _write_text(out("flow.csv"), text)
    else:
        sys.stdout.write(text)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="signseg", description="Pose-based sign and phrase segmentation toolkit.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("segment", help="decode segments from pose files")
    p.add_argument("poses", nargs="+", help="poseseq-json inputs")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--out-dir", default=".")
    p.add_argument("--strict-bio", action="store_true",
                   help="reopen a segment at a closing B frame")
    p.set_defaults(func=cmd_segment)

    p = sub.add_parser("train", help="train a tagger on paired clips")
    p.add_argument("--data-dir", required=True)
    p.add_argument("--val-dir", default=None,
                   help="validation clips; defaults to the training set")
    p.add_argument("--out-dir", default=".")
    p.add_argument("--hidden-dim", type=int, default=TaggerConfig.hidden_dim)
    p.add_argument("--layers", type=int, default=TaggerConfig.layers)
    p.add_argument("--learning-rate", type=float, default=TaggerConfig.learning_rate)
    p.add_argument("--max-steps", type=int, default=0, help="0 = no cap")
    p.add_argument("--patience", type=int, default=20,
                   help="evaluations without improvement before stopping; 0 = off")
    p.add_argument("--val-every", type=int, default=1, help="epochs between evaluations")
    p.add_argument("--dropout", type=float, default=TaggerConfig.dropout)
    p.add_argument("--grad-clip", type=float, default=TaggerConfig.grad_clip)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("tune", help="grid-search decode thresholds on a dev set")
    p.add_argument("--data-dir", required=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--tier", choices=SEGMENTS_TIERS, required=True)
    p.add_argument("--out-dir", default=".")
    p.add_argument("--strict-bio", action="store_true")
    p.set_defaults(func=cmd_tune)

    p = sub.add_parser("eval", help="score predicted against gold segments")
    p.add_argument("--pred", required=True)
    p.add_argument("--gold", required=True)
    p.add_argument("--frames", type=int, default=None)
    p.add_argument("--bins", type=int, default=10)
    p.add_argument("--out-dir", default=None)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("bio-fidelity", help="tag-scheme round-trip sweep over frame rates")
    p.add_argument("--gold", required=True, help="segments-json file")
    p.add_argument("--tier", default="sign")
    p.add_argument("--fps-list", default="3.125,6.25,12.5,25,50")
    p.add_argument("--out-dir", default=None)
    p.set_defaults(func=cmd_bio_fidelity)

    p = sub.add_parser("hand-bench", help="hand normalization consistency benchmark")
    p.add_argument("--manifest", required=True,
                   help="JSON {groups: [{label, files}]}; files relative to it")
    p.add_argument("--out-dir", default=".")
    p.set_defaults(func=cmd_hand_bench)

    p = sub.add_parser("flow-dump", help="per-point optical flow as CSV")
    p.add_argument("pose", help="poseseq-json input")
    p.add_argument("--out-dir", default=None)
    p.set_defaults(func=cmd_flow_dump)

    for name, p in sub.choices.items():
        for key in _READS[name]:
            p.add_argument("--" + key.replace("_", "-"), dest=key, default=None,
                           **_SHARED[key][1])
        if _READS[name]:
            p.add_argument("--config", default=None,
                           help="JSON config file; defaults to $SIGNSEG_CONFIG")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        opts = _resolve(args)
        _check_out_dir(args.out_dir)
        return args.func(args, opts)
    except StageError as e:
        print(f"signseg {args.command}: {e.stage}: {e}", file=sys.stderr)
        return 1
    except Exception as e:  # argparse exits are SystemExit and pass through
        print(f"signseg {args.command}: error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
