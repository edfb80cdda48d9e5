"""Evaluation metrics: temporal IoU, temporal NMS, recall@K, accuracy, BLEU@4.

All functions are pure; the report writer emits JSON that records the exact
thresholds used.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from collections.abc import Sequence
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError, UsageError


@dataclass
class Moment:
    """One ranked prediction: a clip, a seconds interval, and its score."""

    clip_id: str
    span: tuple[float, float]
    score: float


class Ranking(Sequence):
    """A read-only ranked moment list held as columns: the clip index of each
    moment into ``clip_ids`` (the smallest unsigned type that holds it), its
    start and end seconds, and its score.

    An integer index yields a ``Moment`` of Python floats; a slice or an index
    array yields a ``Ranking`` that owns copies of the selected rows.
    """

    __slots__ = ("clip_ids", "clip", "start", "end", "score")

    def __init__(self, clip_ids: Sequence[str], clip, start, end, score):
        self.clip_ids = clip_ids
        self.clip, self.start, self.end, self.score = (
            np.asarray(clip, dtype=np.min_scalar_type(max(len(clip_ids) - 1, 0))),
            *(np.asarray(a, dtype=np.float64) for a in (start, end, score)),
        )
        for a in (self.clip, self.start, self.end, self.score):
            a.flags.writeable = False

    def __len__(self) -> int:
        return len(self.score)

    def __getitem__(self, i):
        if isinstance(i, (int, np.integer)):
            return Moment(
                self.clip_ids[self.clip[i]], (float(self.start[i]), float(self.end[i])), float(self.score[i])
            )
        return Ranking(self.clip_ids, *(np.array(a[i]) for a in (self.clip, self.start, self.end, self.score)))

    def __iter__(self):
        ids = self.clip_ids
        for c, t0, t1, s in zip(*(a.tolist() for a in (self.clip, self.start, self.end, self.score))):
            yield Moment(ids[c], (t0, t1), s)


def tiou(a: tuple[float, float], b: tuple[float, float]) -> float:
    """Temporal intersection over union of two [t0, t1] second intervals.

    Zero-length unions (two identical point spans) are defined as 0.
    """
    if a[0] > a[1] or b[0] > b[1]:
        raise UsageError(f"inverted interval: {a} vs {b}")
    inter = max(0.0, min(a[1], b[1]) - max(a[0], b[0]))
    union = (a[1] - a[0]) + (b[1] - b[0]) - inter
    if union <= 0.0:
        return 0.0
    return inter / union


def temporal_nms(moments: Ranking, threshold: float) -> Ranking:
    """Greedy suppression of a score-descending ranking.

    A candidate is dropped when its tIoU with an already-kept moment of the
    same clip exceeds the threshold.  Output preserves relative order.
    """
    if (moments.score[:-1] < moments.score[1:]).any():
        raise UsageError("temporal_nms expects the list sorted by score, descending")
    ids = moments.clip_ids
    candidates = zip(
        (ids[c] for c in moments.clip.tolist()), zip(moments.start.tolist(), moments.end.tolist())
    )
    kept_spans: dict[str, list[tuple[float, float]]] = {}  # suppression is within a clip
    kept = []
    for i, (clip_id, span) in enumerate(candidates):
        spans = kept_spans.setdefault(clip_id, [])
        if all(tiou(k, span) <= threshold for k in spans):
            spans.append(span)
            kept.append(i)
    return moments[np.array(kept, dtype=np.intp)]


def recall_at_k(
    predictions: Sequence[Sequence[Moment]],
    ground_truth: Sequence[tuple[str, tuple[float, float]]],
    k: int,
    tiou_threshold: float = 0.7,
    mode: str = "video_moment",
) -> float:
    """Fraction of queries answered in the top-K.

    Modes: ``video`` counts a clip-id match only; ``video_moment`` also needs
    a span with tIoU strictly above the threshold.
    """
    if k < 1:
        raise ConfigError(f"k must be at least 1, got {k}")
    if mode not in ("video", "video_moment"):
        raise ConfigError(f"unknown recall mode {mode!r}")
    if len(predictions) != len(ground_truth):
        raise UsageError("predictions and ground truth differ in length")
    if not predictions:
        raise UsageError("recall over an empty query set")
    hits = 0
    for ranked, (gt_clip, gt_span) in zip(predictions, ground_truth):
        for m in ranked[:k]:
            clip_ok = m.clip_id == gt_clip
            span_ok = tiou(m.span, gt_span) > tiou_threshold
            if clip_ok and (mode == "video" or span_ok):
                hits += 1
                break
    return hits / len(predictions)


def accuracy(pred_labels: Sequence[int], gold_labels: Sequence[int]) -> float:
    if len(pred_labels) != len(gold_labels):
        raise UsageError(
            f"label lists differ in length: {len(pred_labels)} vs {len(gold_labels)}"
        )
    if not gold_labels:
        raise UsageError("accuracy of an empty label set is undefined")
    return sum(p == g for p, g in zip(pred_labels, gold_labels)) / len(gold_labels)


def _ngram_counts(tokens: Sequence, n: int) -> Counter:
    return Counter(tuple(tokens[i : i + n]) for i in range(len(tokens) - n + 1))


def bleu4(candidate: Sequence, reference: Sequence) -> float:
    """BLEU@4 against a single reference.

    Clipped n-gram precisions for n=1..4 under a geometric mean with the
    brevity penalty.  Zero unigram overlap scores 0; an empty count at
    higher orders gets add-one smoothing.
    """
    if not reference:
        raise UsageError("bleu4 needs a nonempty reference")
    if not candidate:
        return 0.0
    log_sum = 0.0
    for n in range(1, 5):
        cand = _ngram_counts(candidate, n)
        ref = _ngram_counts(reference, n)
        total = max(len(candidate) - n + 1, 0)
        matched = sum(min(c, ref[g]) for g, c in cand.items())
        if n == 1 and matched == 0:
            return 0.0
        if matched == 0:
            matched, total = matched + 1, total + 1
        log_sum += 0.25 * math.log(matched / total)
    bp = 1.0 if len(candidate) >= len(reference) else math.exp(1.0 - len(reference) / len(candidate))
    return bp * math.exp(log_sum)


def write_metrics_report(path: str | Path, task: str, metrics: dict, settings: dict) -> None:
    """Persist metric values alongside the exact thresholds that produced them."""
    payload = {"task": task, "settings": settings, "metrics": metrics}
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
