"""Spans around the calls the CLI makes into each signseg module.

Each traced name is replaced at the place its caller looks it up (a module
attribute) by a wrapper that records a span, and is put back on exit. Spans
live in memory until the run ends. Nothing in the package is edited.
"""

import inspect
import json
import os
import statistics
import threading
import time
from dataclasses import dataclass, field

from signseg import cli, flow, hands, pipeline
from signseg import train as training


def _pose_attrs(args, kwargs, result):
    return {"bytes": os.path.getsize(args[0]),
            "points": result.num_frames * result.num_points}


def _assemble_attrs(args, kwargs, result):
    bound = inspect.signature(_ASSEMBLE_FEATURES).bind(*args, **kwargs)
    bound.apply_defaults()
    seq = bound.arguments["seq"]
    hand_frames = 2 * seq.num_frames if bound.arguments["include_hand_norm"] else 0
    return {"hand_frames": hand_frames}


def _forward_attrs(args, kwargs, result):
    model, features = args[0], args[1]
    cfg = model.config
    return {"frames": len(features), "input_dim": cfg.input_dim, "hidden": cfg.hidden_dim,
            "layers": cfg.layers, "dirs": cfg.num_directions}


def _frames_attrs(args, kwargs, result):
    return {"frames": len(args[1])}


def _decode_attrs(args, kwargs, result):
    return {"segments": len(result)}


def _tune_attrs(args, kwargs, result):
    return {"cells": len(result[2])}


_ASSEMBLE_FEATURES = pipeline.assemble_features

# (module, attribute, span name, attribute extractor or None). The span name
# is "<caller module>.<callee>"; "cli._map_files" also times each file.
TARGETS = (
    (cli, "load_pose", "cli.load_pose", _pose_attrs),
    (cli, "prepare_features", "cli.prepare_features", None),
    (cli, "forward", "cli.forward", _forward_attrs),
    (cli, "decode", "cli.decode", _decode_attrs),
    (cli, "load_model", "cli.load_model", None),
    (cli, "save_segments", "cli.save_segments", None),
    (cli, "segments_to_vtt", "cli.segments_to_vtt", None),
    (cli, "tune_thresholds", "cli.tune_thresholds", _tune_attrs),
    # cli binds save_model by name at import, so that is where cmd_train looks it up.
    (cli, "save_model", "cli.save_model", None),
    (cli, "_map_files", "cli._map_files", None),
    (pipeline, "prepare_pose", "pipeline.prepare_pose", None),
    (pipeline, "assemble_features", "pipeline.assemble_features", _assemble_attrs),
    (flow, "optical_flow", "flow.optical_flow", None),
    (hands, "hand_normalize", "hands.hand_normalize", None),
    (training, "load_corpus", "train.load_corpus", None),
    (training, "load_pose", "train.load_pose", _pose_attrs),
    (training, "prepare_features", "train.prepare_features", None),
    (training, "train_step", "train.train_step", _frames_attrs),
    (training, "mean_frame_f1", "train.mean_frame_f1", None),
)


@dataclass
class Span:
    name: str
    start: float
    parent: int | None
    thread: int
    end: float = 0.0
    ok: bool = True
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Installs the wrappers on enter and restores every original on exit."""

    def __init__(self):
        self.spans: list[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._saved: list = []

    def __enter__(self):
        for module, attr, name, extract in TARGETS:
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            if attr == "_map_files":
                wrapper = self._wrap_map_files(original)
            else:
                wrapper = self._wrap(name, original, extract)
            setattr(module, attr, wrapper)
        return self

    def __exit__(self, *exc):
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)
        return False

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str, parent: int | None = None) -> int:
        stack = self._stack()
        if parent is None and stack:
            parent = stack[-1]
        span = Span(name, time.perf_counter(), parent, threading.get_ident())
        with self._lock:
            sid = len(self.spans)
            self.spans.append(span)
        stack.append(sid)
        return sid

    def _close(self, sid: int, ok: bool) -> Span:
        span = self.spans[sid]
        span.end = time.perf_counter()
        span.ok = ok
        self._stack().pop()
        return span

    def _run(self, name, fn, args, kwargs=None, extract=None, parent=None):
        """fn(*args, **kwargs) inside a new span; returns (result, span id)."""
        kwargs = kwargs or {}
        sid = self._open(name, parent)
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            self._close(sid, ok=False)
            raise
        span = self._close(sid, ok=True)
        if extract is not None:
            span.attrs = extract(args, kwargs, result)
        return result, sid

    def _wrap(self, name, original, extract):
        def wrapper(*args, **kwargs):
            return self._run(name, original, args, kwargs, extract)[0]

        wrapper.__wrapped__ = original
        return wrapper

    def _wrap_map_files(self, original):
        def wrapper(items, worker, workers):
            def mapped():
                # Pool threads start with an empty span stack, so each file
                # span names the _map_files span as its parent explicitly.
                parent = self._stack()[-1]
                return original(items, lambda item: self._run(
                    "cli.file", worker, (item,), parent=parent)[0], workers)

            return self._run("cli._map_files", mapped, ())[0]

        wrapper.__wrapped__ = original
        return wrapper

    def call(self, name: str, fn):
        """Run fn() under a root span; returns (result, span id)."""
        return self._run(name, fn, ())

    def children(self, sid: int) -> list[Span]:
        return [s for s in self.spans if s.parent == sid]

    def descendants(self, sid: int) -> list[int]:
        frontier = {sid}
        for i, span in enumerate(self.spans):  # parents always precede children
            if span.parent in frontier:
                frontier.add(i)
        return sorted(frontier - {sid})

    def self_time(self, sid: int) -> float:
        """The span's duration less the part its children cover."""
        return self.spans[sid].duration - covered(
            (c.start, c.end) for c in self.children(sid))

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            for i, s in enumerate(self.spans):
                f.write(json.dumps({"id": i, "name": s.name, "start": s.start, "end": s.end,
                                    "parent": s.parent, "thread": s.thread, "ok": s.ok,
                                    "attrs": s.attrs}) + "\n")


def covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def _flops_per_frame(a: dict) -> int:
    """Multiply-adds x 2 of the projection, LSTM and head matrix products."""
    h, dirs = a["hidden"], a["dirs"]
    total = 2 * a["input_dim"] * h
    for layer in range(a["layers"]):
        din = h if layer == 0 else dirs * h
        total += dirs * (2 * din * 4 * h + 2 * h * 4 * h)
    return total + 2 * 2 * dirs * h * 3


def _request_metrics(tracer: Tracer, roots) -> dict:
    by_name: dict[str, list[int]] = {}
    for sid in (i for root in roots for i in tracer.descendants(root)):
        by_name.setdefault(tracer.spans[sid].name, []).append(sid)

    def spans_of(*names):
        return [tracer.spans[i] for n in names for i in by_name.get(n, [])]

    def total(*names):
        return sum(s.duration for s in spans_of(*names))

    def attr_sum(key, *names):
        return sum(s.attrs.get(key, 0) for s in spans_of(*names))

    def ratio(num, den):
        return num / den if den else 0.0

    loads = ("cli.load_pose", "train.load_pose")
    load_s = total(*loads)
    forward_s = total("cli.forward")
    gflop = sum(s.attrs["frames"] * _flops_per_frame(s.attrs)
                for s in spans_of("cli.forward")) / 1e9
    steps = spans_of("train.train_step")
    hand_calls = spans_of("hands.hand_normalize")
    coverage = [1.0 - tracer.self_time(sid) / tracer.spans[sid].duration for sid in roots]
    return {
        "pose.load_s": (load_s, "s"),
        "pose.load_mb_per_s": (ratio(attr_sum("bytes", *loads) / 1e6, load_s), "MB/s"),
        "pose.points_per_s": (ratio(attr_sum("points", *loads), load_s), "points/s"),
        "pipeline.prepare_pose_s": (total("pipeline.prepare_pose"), "s"),
        "flow.optical_flow_s": (total("flow.optical_flow"), "s"),
        "flow.assemble_self_s": (sum(
            tracer.self_time(i) for i in by_name.get("pipeline.assemble_features", [])), "s"),
        "hands.normalize_calls": (len(hand_calls), "count"),
        "hands.normalize_s": (total("hands.hand_normalize"), "s"),
        "hands.normalized_ratio": (ratio(sum(1 for s in hand_calls if s.ok),
                                         attr_sum("hand_frames", "pipeline.assemble_features")),
                                   "ratio"),
        "tagger.load_model_s": (total("cli.load_model"), "s"),
        "tagger.forward_s": (forward_s, "s"),
        "tagger.forward_us_per_frame": (
            ratio(forward_s * 1e6, attr_sum("frames", "cli.forward")), "us/frame"),
        "tagger.forward_gflop": (gflop, "GFLOP"),
        "tagger.forward_gflop_per_s": (ratio(gflop, forward_s), "GFLOP/s"),
        "tagger.train_step_s.p50": (
            statistics.median(s.duration for s in steps) if steps else 0.0, "s"),
        "tagger.train_step_frames_per_s": (
            ratio(attr_sum("frames", "train.train_step"), total("train.train_step")),
            "frames/s"),
        "tagger.save_model_s": (total("cli.save_model"), "s"),
        "train.load_corpus_s": (total("train.load_corpus"), "s"),
        "train.validate_s": (total("train.mean_frame_f1"), "s"),
        "decoding.decode_s": (total("cli.decode"), "s"),
        "decoding.segments": (attr_sum("segments", "cli.decode"), "count"),
        "decoding.tune_s": (total("cli.tune_thresholds"), "s"),
        "decoding.tune_cells": (attr_sum("cells", "cli.tune_thresholds"), "count"),
        "emit.save_segments_s": (total("cli.save_segments"), "s"),
        "emit.vtt_s": (total("cli.segments_to_vtt"), "s"),
        "cli.workers_speedup": (ratio(total("cli.file"), total("cli._map_files")), "ratio"),
        "cli.span_coverage": (min(coverage), "ratio"),
    }


def layer_metrics(tracer: Tracer, traced, untraced) -> dict:
    """Per-layer metrics: the median over traced requests of each request's value.

    traced: (calls, root span ids) per traced request; untraced: the calls of
    the untraced requests run alternately with them.
    """
    per_request = [_request_metrics(tracer, roots) for _, roots in traced]
    out = {name: (statistics.median(m[name][0] for m in per_request), unit)
           for name, (_, unit) in per_request[0].items()}
    out["cli.span_coverage"] = (min(m["cli.span_coverage"][0] for m in per_request), "ratio")

    def wall(calls):
        return sum(c.wall for c in calls)

    out["tracing_overhead"] = (statistics.median(wall(c) for c, _ in traced)
                               / statistics.median(wall(c) for c in untraced), "ratio")
    return out
