"""Spans and counts for the traced benchmark run.

The spans come from wrappers that `installed()` puts around the public
functions and methods of each vidtext module for the length of one traced
pass, so the program itself carries no tracing code.  Spans are kept in
memory; `layer_metrics()` turns them into the per-layer numbers when the
pass ends.
"""

from __future__ import annotations

import functools
import hashlib
import json
import time
from collections import Counter, defaultdict
from contextlib import contextmanager, nullcontext
from pathlib import Path

import numpy as np

from vidtext import checkpoint, data, downstream, metrics, pretrain, tensor
from vidtext.downstream import QaModel
from vidtext.encoder import HierarchicalEncoder
from vidtext.pretrain import PretrainModel

ROOT = "op"  # one root span per step, encoded clip or query

# (owner, attribute, span name).  A span's name starts with its layer.
WRAPPED = [
    (data, "read_corpus", "data.read_corpus"),
    (data, "load_corpus_vocab", "data.load_corpus_vocab"),
    (data, "align", "data.align"),
    (checkpoint, "load_checkpoint", "checkpoint.load"),
    (checkpoint, "save_checkpoint", "checkpoint.save"),
    (pretrain, "pretrain_step", "pretrain.step"),
    (pretrain, "task_loss", "pretrain.task_loss"),
    (PretrainModel, "encode_mlm", "pretrain.encode_masked"),
    (PretrainModel, "encode_mfm", "pretrain.encode_masked"),
    (PretrainModel, "encode_reordered", "pretrain.encode_masked"),
    (PretrainModel, "mlm_loss", "pretrain.head.mlm"),
    (PretrainModel, "mffr_loss", "pretrain.head.mffr"),
    (PretrainModel, "mnce_loss", "pretrain.head.mnce"),
    (PretrainModel, "fom_loss", "pretrain.head.fom"),
    (PretrainModel, "vsm_loss", "pretrain.head.vsm"),
    (PretrainModel, "mnce_positive_targets", "pretrain.mnce_clean"),
    (PretrainModel, "encode_query", "pretrain.encode_query"),
    (PretrainModel, "vsm_scores_for_query", "pretrain.vsm_scores"),
    (HierarchicalEncoder, "embed_text", "encoder.embed"),
    (HierarchicalEncoder, "embed_video", "encoder.embed"),
    (HierarchicalEncoder, "cross_modal_forward", "encoder.cross"),
    (HierarchicalEncoder, "temporal_forward", "encoder.temporal"),
    (HierarchicalEncoder, "temporal_apply", "encoder.temporal"),
    (HierarchicalEncoder, "fuse_clip", "encoder.fuse"),
    (HierarchicalEncoder, "encode_clip", "encoder.fuse"),
    (tensor, "backward", "tensor.backward"),
    (tensor.AdamW, "step", "tensor.adamw"),
    (downstream, "read_task_file", "downstream.read_task_file"),
    (downstream, "rank_moments", "downstream.rank"),
    (downstream, "best_spans", "downstream.best_spans"),
    (downstream, "encode_with_appended_text", "downstream.append_text_encode"),
    (QaModel, "forward", "downstream.qa_forward"),
    (QaModel, "loss", "downstream.qa_loss"),
    (metrics, "temporal_nms", "metrics.nms"),
]

# spans whose inclusive time is the training forward pass
FORWARD = ("pretrain.task_loss", "downstream.qa_loss")
TAPE_KINDS = ("mlm", "mffr", "mnce", "fom", "vsm", "qa")

# name -> (unit, better); the order is the report order
LAYER_METRICS = {
    "data.read_corpus_ms": ("ms", "lower"),
    "data.align_ms": ("ms", "lower"),
    "checkpoint.load_ms": ("ms", "lower"),
    "checkpoint.save_ms": ("ms", "lower"),
    "checkpoint.bytes": ("bytes", "lower"),
    "pretrain.make_batch_ms": ("ms", "lower"),
    "encoder.embed_ms": ("ms", "lower"),
    "encoder.cross_ms": ("ms", "lower"),
    "encoder.temporal_ms": ("ms", "lower"),
    "encoder.fuse_ms": ("ms", "lower"),
    "encoder.cross_calls": ("count", "lower"),
    "encoder.cross_rows_per_call": ("rows", "higher"),
    "encoder.embed_video_repeat_share": ("ratio", "lower"),
    **{f"pretrain.head_ms.{t}": ("ms", "lower") for t in ("mlm", "mffr", "mnce", "fom", "vsm")},
    "pretrain.mnce_clean_ms": ("ms", "lower"),
    "pretrain.encode_query_ms": ("ms", "lower"),
    "pretrain.vsm_scores_ms": ("ms", "lower"),
    "tensor.forward_ms": ("ms", "lower"),
    "tensor.backward_ms": ("ms", "lower"),
    "tensor.adamw_ms": ("ms", "lower"),
    **{f"tensor.tape_ops.{k}": ("count", "lower") for k in TAPE_KINDS},
    "downstream.best_spans_ms": ("ms", "lower"),
    "downstream.best_spans_calls": ("count", "lower"),
    "downstream.rank_self_ms": ("ms", "lower"),
    "downstream.append_text_encode_ms": ("ms", "lower"),
    "downstream.qa_head_ms": ("ms", "lower"),
    "metrics.nms_ms": ("ms", "lower"),
    "trace.overhead_share": ("ratio", "lower"),
    "trace.unattributed_share": ("ratio", "lower"),
}


class NoTrace:
    """Stand-in for untraced passes: every span is a no-op."""

    kind = None

    def op(self, kind: str):
        return nullcontext()

    def span(self, name: str):
        return nullcontext()


class Tracer:
    """In-memory spans `[name, start, end, parent, op]` plus counters.  `op`
    numbers the step, encoded clip or query a span belongs to (-1 outside
    any, as in set-up)."""

    def __init__(self):
        self.spans: list[list] = []
        self._open: list[int] = []
        self._op = -1
        self._ops = 0
        self.kind = None  # kind of the op now running
        self.counts: Counter = Counter()
        self.tape_ops: dict[str, list[int]] = defaultdict(list)
        self._video_inputs: set[bytes] = set()

    def _enter(self, name: str) -> int:
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self._op])
        idx = len(self.spans) - 1
        self._open.append(idx)
        return idx

    def _exit(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._open.pop()

    @contextmanager
    def span(self, name: str):
        idx = self._enter(name)
        try:
            yield
        finally:
            self._exit(idx)

    @contextmanager
    def op(self, kind: str):
        """Root span of one step, encoded clip or query."""
        self.kind, self._op = kind, self._ops
        self._ops += 1
        self._video_inputs.clear()
        try:
            with self.span(ROOT):
                yield
        finally:
            self.kind, self._op = None, -1

    # -- hooks run by the wrappers, looked up by function name ----------------

    def _before_backward(self, args) -> None:
        self.tape_ops[self.kind].append(tensor.tape_size())

    def _before_embed_video(self, args) -> None:
        features, positions = args[0], args[1]
        key = hashlib.blake2b(
            np.ascontiguousarray(features).tobytes() + np.asarray(positions).tobytes(), digest_size=16
        ).digest()
        self.counts["encoder.embed_video_calls"] += 1
        if key in self._video_inputs:
            self.counts["encoder.embed_video_repeats"] += 1
        self._video_inputs.add(key)

    def _after_cross_modal_forward(self, args) -> None:
        self.counts["encoder.cross_calls"] += 1
        self.counts["encoder.cross_rows"] += sum(p.shape[0] for p in args[:2] if p is not None)

    def _after_best_spans(self, args) -> None:
        self.counts["downstream.best_spans_calls"] += 1

    def _after_save_checkpoint(self, args) -> None:
        self.counts["checkpoint.saves"] += 1
        self.counts["checkpoint.bytes"] += Path(args[0]).stat().st_size

    def wrap(self, fn, name: str, method: bool):
        before = getattr(self, f"_before_{fn.__name__}", None)
        after = getattr(self, f"_after_{fn.__name__}", None)
        enter, exit_ = self._enter, self._exit

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            own = args[1:] if method else args
            if before is not None:
                before(own)
            idx = enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                exit_(idx)
            if after is not None:
                after(own)
            return result

        return wrapper

    def exact_counts(self) -> dict:
        """The counts that must repeat exactly between passes over the same ops."""
        return {
            "tensor.tape_ops": {k: list(v) for k, v in sorted(self.tape_ops.items())},
            **{k: self.counts[k] for k in ("encoder.cross_calls", "downstream.best_spans_calls",
                                           "checkpoint.saves", "checkpoint.bytes")},
        }

    @contextmanager
    def installed(self):
        """Wrap every entry of WRAPPED for the duration of the block."""
        saved = []
        try:
            for owner, attr, name in WRAPPED:
                fn = owner.__dict__[attr]
                saved.append((owner, attr, fn))
                setattr(owner, attr, self.wrap(fn, name, method=isinstance(owner, type)))
            yield self
        finally:
            for owner, attr, fn in reversed(saved):
                setattr(owner, attr, fn)

    # -- results -----------------------------------------------------------------

    def times(self) -> tuple[dict[str, float], dict[str, float]]:
        """Total self and inclusive milliseconds per span name."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        self_ms: dict[str, float] = defaultdict(float)
        incl_ms: dict[str, float] = defaultdict(float)
        for (name, start, end, _, _), c in zip(self.spans, child):
            incl_ms[name] += (end - start) * 1e3
            self_ms[name] += (end - start - c) * 1e3
        return self_ms, incl_ms


def layer_metrics(tracers: list[Tracer], overhead_share: float) -> dict[str, float]:
    """Per-layer metrics over one or more traced passes of the same ops:
    times are the mean over passes of the pass total; counts come from the
    first pass (the caller checks that every pass agrees)."""
    out: dict[str, float] = {}
    passes = [t.times() for t in tracers]

    def self_ms(*names):
        return sum(s[n] for s, _ in passes for n in names) / len(passes)

    def incl_ms(*names):
        return sum(i[n] for _, i in passes for n in names) / len(passes)

    first = tracers[0]
    c = first.counts
    out["data.read_corpus_ms"] = self_ms("data.read_corpus")
    out["data.align_ms"] = self_ms("data.align")
    out["checkpoint.load_ms"] = self_ms("checkpoint.load")
    out["checkpoint.save_ms"] = self_ms("checkpoint.save")
    out["checkpoint.bytes"] = c["checkpoint.bytes"] / c["checkpoint.saves"] if c["checkpoint.saves"] else 0
    out["pretrain.make_batch_ms"] = self_ms("pretrain.make_batch")
    out["encoder.embed_ms"] = self_ms("encoder.embed")
    out["encoder.cross_ms"] = self_ms("encoder.cross")
    out["encoder.temporal_ms"] = self_ms("encoder.temporal")
    out["encoder.fuse_ms"] = self_ms("encoder.fuse")
    out["encoder.cross_calls"] = c["encoder.cross_calls"]
    out["encoder.cross_rows_per_call"] = (
        c["encoder.cross_rows"] / c["encoder.cross_calls"] if c["encoder.cross_calls"] else 0
    )
    out["encoder.embed_video_repeat_share"] = (
        c["encoder.embed_video_repeats"] / c["encoder.embed_video_calls"]
        if c["encoder.embed_video_calls"] else 0
    )
    for t in ("mlm", "mffr", "mnce", "fom", "vsm"):
        out[f"pretrain.head_ms.{t}"] = self_ms(f"pretrain.head.{t}")
    out["pretrain.mnce_clean_ms"] = incl_ms("pretrain.mnce_clean")
    out["pretrain.encode_query_ms"] = incl_ms("pretrain.encode_query")
    out["pretrain.vsm_scores_ms"] = self_ms("pretrain.vsm_scores")
    out["tensor.forward_ms"] = incl_ms(*FORWARD)
    out["tensor.backward_ms"] = self_ms("tensor.backward")
    out["tensor.adamw_ms"] = self_ms("tensor.adamw")
    for k in TAPE_KINDS:
        steps = first.tape_ops.get(k, [])
        out[f"tensor.tape_ops.{k}"] = sum(steps) / len(steps) if steps else 0
    out["downstream.best_spans_ms"] = self_ms("downstream.best_spans")
    out["downstream.best_spans_calls"] = c["downstream.best_spans_calls"]
    out["downstream.rank_self_ms"] = self_ms("downstream.rank")
    out["downstream.append_text_encode_ms"] = incl_ms("downstream.append_text_encode")
    out["downstream.qa_head_ms"] = self_ms("downstream.qa_forward", "downstream.qa_loss")
    out["metrics.nms_ms"] = self_ms("metrics.nms")
    out["trace.overhead_share"] = overhead_share
    root_self, root_total = self_ms(ROOT), incl_ms(ROOT)
    out["trace.unattributed_share"] = root_self / root_total if root_total else 0.0
    return out


def write_spans(path: Path, tracers: list[Tracer]) -> None:
    """One JSON object per span and line; `pass` numbers the traced pass,
    times are seconds on the process's performance counter."""
    with path.open("w") as fh:
        for i, tracer in enumerate(tracers):
            for name, start, end, parent, op in tracer.spans:
                fh.write(json.dumps({"pass": i, "name": name, "start": start, "end": end,
                                     "parent": parent, "op": op}) + "\n")
