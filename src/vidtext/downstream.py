"""Task adaptation: moment retrieval finetuning, multiple-choice QA,
video-language inference and captioning.

Task files are newline-delimited JSON mirroring the corpus format: each
record names a ``clip_id`` plus task fields (``query``+``span`` for
retrieval; ``q``, ``answers``, ``label``, optional ``span`` for QA;
``hypothesis``+``label`` for inference; ``moment``+``caption`` for
captioning).
"""

from __future__ import annotations

import functools
import json
import math
import weakref
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator, Sequence

import numpy as np

from . import tensor as T
from .data import CLS_ID, SEP_ID, AlignedClip, Vocab, tokenize
from .encoder import (
    EncodedBatch,
    HierarchicalEncoder,
    LayerNorm,
    Linear,
    ModelConfig,
    Module,
    MultiHeadAttention,
    Projection,
)
from .errors import ConfigError, DataError, UsageError, read_input
from .metrics import Ranking
from .pretrain import (
    _SEED_FINETUNE, PretrainHypers, PretrainModel, TaskBatch, VsmTarget, _mean_terms,
    attention_pool, pretrain_step, span_nll,
)

QA_LAMBDA_DEFAULT = 0.5
NLI_LABELS = {"contradict": 0, "entail": 1}


# -- task file records ---------------------------------------------------------


@dataclass
class RetrievalExample:
    clip_id: str
    query: str
    span: tuple[float, float]  # seconds


@dataclass
class QaExample:
    clip_id: str
    question: str
    answers: list[str]
    label: int
    span: tuple[float, float] | None = None

    def __post_init__(self):
        if len(self.answers) < 2:
            raise DataError(f"multiple choice needs at least 2 answers, got {len(self.answers)}")
        if not 0 <= self.label < len(self.answers):
            raise DataError(f"qa label {self.label} outside [0, {len(self.answers)})")


@dataclass
class NliExample:
    clip_id: str
    hypothesis: str
    label: int  # 0 contradict, 1 entail

    def __post_init__(self):
        if self.label not in (0, 1):
            raise DataError(f"nli label {self.label} is not 0 (contradict) or 1 (entail)")


@dataclass
class CaptionExample:
    clip_id: str
    moment: tuple[float, float]  # seconds
    caption: str


_TASK_FIELDS = {
    "retrieval": ("query", "span"),
    "qa": ("q", "answers", "label"),
    "nli": ("hypothesis", "label"),
    "caption": ("moment", "caption"),
}


_NUMBER = (int, float)  # the types json gives a number; it gives true and false as bools


def _interval(value, field: str) -> tuple[float, float]:
    """A task file's [start, end] seconds: two finite numbers, start <= end."""
    pair = type(value) is list and len(value) == 2
    pair = pair and type(value[0]) in _NUMBER and type(value[1]) in _NUMBER
    start, end = map(float, value) if pair else (math.nan, math.nan)
    if not -math.inf < start <= end < math.inf:  # also false for NaN
        raise ValueError(f"{field} {value!r} is not [start, end], two finite numbers, start <= end")
    return start, end


def _typed(rec: dict, field: str, kind: type):
    """``rec[field]``, which must be a JSON string (``kind`` str) or integer (int)."""
    value = rec[field]
    if type(value) is not kind:
        raise TypeError(f"{field} {value!r} is not {'a string' if kind is str else 'an integer'}")
    return value


def read_task_file(path: str | Path, task: str, clips: dict[str, AlignedClip] | None = None):
    """Parse one task's examples, naming the offending record on mismatch.
    With ``clips`` (by id), each record's clip must be among them and its
    span or moment must overlap a frame of that clip."""
    if task not in _TASK_FIELDS:
        raise ConfigError(f"unknown task {task!r}")
    return read_input(path, "task file", functools.partial(_parse_task_file, task, clips))


def _parse_task_file(task: str, clips: dict[str, AlignedClip] | None, path: Path, text: str) -> list:
    out = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            rec = json.loads(line)
            clip_id = _typed(rec, "clip_id", str)
            if task == "retrieval":
                out.append(
                    RetrievalExample(clip_id, _typed(rec, "query", str), _interval(rec["span"], "span"))
                )
            elif task == "qa":
                answers = rec["answers"]
                if type(answers) is not list or any(type(a) is not str for a in answers):
                    raise TypeError(f"answers {answers!r} is not a list of strings")
                span = _interval(rec["span"], "span") if rec.get("span") is not None else None
                out.append(
                    QaExample(clip_id, _typed(rec, "q", str), answers, _typed(rec, "label", int), span)
                )
            elif task == "nli":
                label = rec["label"]
                label = NLI_LABELS[label] if isinstance(label, str) else _typed(rec, "label", int)
                out.append(NliExample(clip_id, _typed(rec, "hypothesis", str), label))
            else:
                out.append(CaptionExample(
                    clip_id, _interval(rec["moment"], "moment"), _typed(rec, "caption", str)
                ))
        except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
            raise DataError(
                f"{task} record at {path}:{lineno} does not match schema "
                f"{_TASK_FIELDS[task]}: {exc}"
            ) from exc
        if clips is not None:
            _check_clip(out[-1], clips, task, f"{path}:{lineno}")
    if not out:
        raise DataError(f"task file {path} holds no records")
    return out


def _check_clip(example, clips: dict[str, AlignedClip], task: str, where: str) -> None:
    """The example's clip exists and its span or moment overlaps a frame of it."""
    clip = clips.get(example.clip_id)
    if clip is None:
        raise DataError(f"{task} example references unknown clip {example.clip_id!r} at {where}")
    interval = example.moment if task == "caption" else getattr(example, "span", None)
    if interval is not None:
        try:
            seconds_to_frame_span(clip, *interval)
        except DataError as exc:
            raise DataError(f"{task} record at {where}: {exc}") from exc


_TEXT_FIELDS = {"retrieval": "query", "nli": "hypothesis", "caption": "caption"}


def text_token_ids(path: str | Path, task: str, examples, vocab: Vocab) -> list[list[int]]:
    """The token ids of each example's retrieval query, nli hypothesis or
    caption (none for qa).  One that tokenizes to nothing is a DataError
    (exit 2) naming the task file, whether or not a run would pick it."""
    field = _TEXT_FIELDS.get(task)
    texts = [getattr(ex, field) for ex in examples] if field else []
    ids = [tokenize(text, vocab) for text in texts]
    for text, text_ids in zip(texts, ids):
        if not text_ids:
            raise DataError(f"task file {path}: {field} {text!r} tokenizes to nothing")
    return ids


def write_task_file(path: str | Path, task: str, examples) -> None:
    rows = []
    for ex in examples:
        if task == "retrieval":
            rows.append({"clip_id": ex.clip_id, "query": ex.query, "span": list(ex.span)})
        elif task == "qa":
            row = {"clip_id": ex.clip_id, "q": ex.question, "answers": ex.answers, "label": ex.label}
            if ex.span is not None:
                row["span"] = list(ex.span)
            rows.append(row)
        elif task == "nli":
            rows.append({"clip_id": ex.clip_id, "hypothesis": ex.hypothesis, "label": ex.label})
        elif task == "caption":
            rows.append({"clip_id": ex.clip_id, "moment": list(ex.moment), "caption": ex.caption})
        else:
            raise ConfigError(f"unknown task {task!r}")
    Path(path).write_text("".join(json.dumps(r) + "\n" for r in rows))


# -- shared plumbing -------------------------------------------------------------


def seconds_to_frame_span(clip: AlignedClip, t0: float, t1: float) -> tuple[int, int]:
    """Inclusive frame-index span of every frame overlapping [t0, t1]."""
    f0, f1 = clip.frame_times[:, 0], clip.frame_times[:, 1]
    hits = np.flatnonzero(np.minimum(f1, t1) - np.maximum(f0, t0) > 0)
    if not hits.size:
        raise DataError(f"moment [{t0}, {t1}] overlaps no frame of clip {clip.clip_id!r}")
    return (int(hits[0]), int(hits[-1]))


def encode_with_appended_text(
    encoder: HierarchicalEncoder,
    clip: AlignedClip,
    candidates: Sequence[Sequence[int]],
    train_rng=None,
) -> T.Tensor:
    """Early fusion of each candidate text (a QA question+answer or an NLI
    hypothesis) with the clip; returns the C candidates' text-aware frame
    rows, (C, n_frames, d).

    Each candidate is appended to every sentence for early fusion and, as a
    frameless pseudo-sentence, to the temporal input.  All candidates run as
    one batch: one ``embed_video`` and one ``embed_text`` call, the frame
    rows tiled C times by one gather (so every segment still uses each row
    once), one ``cross_modal_forward`` over C x (S + 1) segments and one
    ``temporal_apply`` over a (C, n_frames + longest pseudo-sentence) row
    grid.  Linear, LayerNorm, GELU and dropout see only real rows.  The
    cross stack keeps the frame and pseudo-sentence rows, which the
    temporal stage reads, and the temporal stack keeps the frame rows.
    ``embed_text`` cuts each text (a sentence, [SEP] and the candidate, or
    the candidate alone) to ``max_tokens``.
    """
    n_f, n_c = clip.n_frames, len(candidates)
    texts = [[*s.token_ids, SEP_ID, *cand] for cand in candidates for s in clip.sentences]
    w_emb, bounds = encoder.embed_text(texts + list(candidates))  # the pseudo-sentences, last
    v_emb = encoder.embed_video(clip.frame_features, np.arange(n_f))
    v_rows = T.take_rows(v_emb, np.tile(np.arange(n_f), n_c))  # candidate c's frames at c * n_f
    frames = [
        c * n_f + np.asarray(s.frame_indices, dtype=np.intp)
        for c in range(n_c)
        for s in clip.sentences
    ] + [np.arange(0)] * n_c
    segments = [(f, np.arange(lo, hi)) for f, lo, hi in zip(frames, bounds[:-1], bounds[1:])]
    first_q = bounds[-n_c - 1]
    cross = encoder.cross_modal_forward(
        v_rows, w_emb, segments, train_rng=train_rng,
        rows=np.r_[: n_c * n_f, n_c * n_f + first_q : n_c * n_f + bounds[-1]],
    )
    x = T.concat_rows([v_rows, T.slice_rows(w_emb, first_q, bounds[-1])]) + cross
    # candidate c's temporal sequence: its frame rows, then its pseudo-sentence's
    q_rows = bounds[-n_c - 1 :] - first_q + n_c * n_f
    grid = T.row_grid(
        [np.r_[c * n_f : (c + 1) * n_f, q_rows[c] : q_rows[c + 1]] for c in range(n_c)],
        x.shape[0],
    )
    h = encoder.temporal_apply(x, train_rng=train_rng, grid=grid, rows=np.arange(n_c * n_f))
    return T.reshape(h, (n_c, n_f, encoder.config.d))


def load_params_into(params: dict[str, T.Tensor], arrays: dict[str, np.ndarray]) -> list[str]:
    """Copy intersecting arrays into parameters; returns loaded names."""
    loaded = []
    for name, p in params.items():
        if name in arrays:
            if tuple(arrays[name].shape) != p.shape:
                raise DataError(
                    f"checkpoint array {name!r} has shape {arrays[name].shape}, "
                    f"model expects {p.shape}"
                )
            p.data = np.array(arrays[name], dtype=np.float64)
            loaded.append(name)
    return loaded


# -- retrieval -------------------------------------------------------------------


def retrieval_targets(
    clip: AlignedClip, examples: Sequence[RetrievalExample], vocab: Vocab
) -> list[VsmTarget]:
    """Annotation queries for one clip, with spans snapped to frame indices."""
    out = []
    for ex in examples:
        ids = tokenize(ex.query, vocab)
        if not ids:
            raise DataError(f"query {ex.query!r} tokenizes to nothing")
        out.append(VsmTarget(ids, seconds_to_frame_span(clip, *ex.span)))
    return out


def best_spans(
    p_st: np.ndarray, p_ed: np.ndarray, lengths: Sequence[int], top_n: int = 5
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Each clip's highest-probability spans, from (B, L) start and end
    probabilities whose row b is real up to ``lengths[b]``.

    Returns parallel arrays (clip, start, end, p_st * p_ed): clip by clip,
    at most ``top_n`` spans with start <= end each, ordered by (-p, start, end).

    Only the start frames that can reach a bound tau form pairs.  With
    ``m[i]`` the largest ``p_ed`` at or after frame i, ``p_st[i] * m[i]`` is
    the product of a real pair, so tau, the ``top_n``-th largest of these,
    is at most the clip's ``top_n``-th best product.  A clip of fewer than
    ``top_n`` frames gets tau = -inf, or the least of its starts' bests when
    ``top_n`` exceeds L: every start.
    """
    lengths = np.asarray(lengths)
    n_clips, width = p_st.shape
    frame = np.arange(width)
    real = frame < lengths[:, None]
    # probabilities are >= 0, so a 0 past the last frame leaves every suffix max as it is
    m = np.maximum.accumulate(np.where(real, p_ed, 0.0)[:, ::-1], axis=1)[:, ::-1]
    best = np.where(real, p_st * m, -np.inf)  # the best span that starts at each frame
    k = min(top_n, width)
    tau = np.partition(best, -k, axis=1)[:, -k, None]
    starts = real & (best >= tau)
    # each clip's (slot, end) grid: slot r is the clip's r-th start at or above tau
    n_starts = starts.sum(axis=1)
    used = np.arange(n_starts.max(initial=0)) < n_starts[:, None]
    st = np.zeros(used.shape, dtype=np.intp)
    st[used] = np.nonzero(starts)[1]
    # row s: the ends of a span from frame s; row width, for an unused slot: none
    ends = frame >= np.arange(width + 1)[:, None]
    rows = np.arange(n_clips)
    p = np.full(used.shape + (width,), -np.inf)
    np.multiply(
        p_st[rows[:, None], st][:, :, None], p_ed[:, None, :], out=p,
        where=ends[np.where(used, st, width)] & real[:, None, :],
    )
    p = p.reshape(n_clips, -1)
    # round r takes each clip's r-th best pair; argmax returns the first
    # maximum, so ties stay in (start, end) order
    pick = np.empty((n_clips, min(top_n, p.shape[1])), dtype=np.intp)
    top = np.empty(pick.shape)
    for r in range(pick.shape[1]):
        pick[:, r] = j = p.argmax(axis=1)
        top[:, r] = p[rows, j]
        p[rows, j] = -np.inf
    clip, r = np.nonzero(top > -np.inf)  # a clip with fewer pairs runs out at -inf
    pair = pick[clip, r]
    return clip, st[clip, pair // width], pair % width, top[clip, r]


# (ids, weak references, join) of the batches ranked last; emptied when any of
# them dies, so while it holds a join, no other live object has one of these ids
_corpus: tuple[tuple[int, ...], tuple[weakref.ref, ...], EncodedBatch] | None = None


def _forget_corpus(dead: weakref.ref) -> None:
    global _corpus
    if _corpus is not None and any(ref is dead for ref in _corpus[1]):
        _corpus = None


def _joined(encoded: Sequence[EncodedBatch]) -> EncodedBatch:
    global _corpus
    ids = tuple(map(id, encoded))
    if _corpus is None or _corpus[0] != ids:
        refs = tuple(weakref.ref(enc, _forget_corpus) for enc in encoded)
        _corpus = ids, refs, EncodedBatch.join(encoded)
    return _corpus[2]


def rank_moments(
    model: PretrainModel,
    encoded: Sequence[EncodedBatch],
    query_token_ids: Sequence[int],
    spans_per_clip: int = 5,
) -> Ranking:
    """Score a query against every clip of ``encoded`` (batches encoded with
    no frame orders) and rank candidate moments by descending score; ties
    keep ``best_spans``' order.

    A moment's score blends the clip-level cosine (shifted to [0, 1]) with
    the span probability, so both levels must agree for a high rank.

    The batches are joined once (``EncodedBatch.join``) and the join is
    reused while every later call passes the same batch objects in the same
    order, so the batches are read as immutable.
    """
    corpus = _joined(encoded)
    with T.no_grad():
        scores = model.vsm_scores_for_query(corpus, model.encode_query([query_token_ids]))
    s_global = scores.s_global.data[:, 0]
    p_st, p_ed = (np.exp(x.data)[:, 0] for x in (scores.log_p_st, scores.log_p_ed))
    clip, st, ed, p = best_spans(p_st, p_ed, np.diff(corpus.frame_bounds), spans_per_clip)
    first_row = corpus.frame_bounds[clip]
    start, end = corpus.frame_times[first_row + st, 0], corpus.frame_times[first_row + ed, 1]
    score = ((1.0 + s_global) / 2.0)[clip] * p
    order = np.argsort(-score, kind="stable")
    return Ranking(corpus.clip_ids, clip[order], start[order], end[order], score[order])


# -- video question answering -------------------------------------------------------


class QaHead(Module):
    """Answer scoring over a pooled clip vector per candidate, plus start and
    end scoring over the answer-weighted frame rows.  The three output
    layers have no bias: each would add one scalar to every logit of its
    softmax, which cancels it."""

    def __init__(self, rng: np.random.Generator, d: int):
        self.pool_query = T.Tensor(rng.normal(0.0, 0.02, size=(d, 1)), requires_grad=True)
        self.ans_hidden = Linear(rng, d, d)
        self.ans_out = Projection(rng, d, 1, init="small")
        self.answer_attn_query = T.Tensor(rng.normal(0.0, 0.02, size=(d, 1)), requires_grad=True)
        self.st_hidden = Linear(rng, d, d)
        self.st_out = Projection(rng, d, 1, init="small")
        self.ed_hidden = Linear(rng, d, d)
        self.ed_out = Projection(rng, d, 1, init="small")


class QaModel(Module):
    """Encoder plus answer scoring and span heads for multiple-choice QA."""

    def __init__(self, config: ModelConfig, seed: int = 0):
        self.config = config
        rng = np.random.default_rng([seed, 2])
        self.encoder = HierarchicalEncoder(config, rng)
        self.qa = QaHead(rng, config.d)

    def forward(
        self,
        clip: AlignedClip,
        question_ids: Sequence[int],
        answer_ids: Sequence[Sequence[int]],
        train_rng=None,
    ):
        """All candidates encoded as one batch -> answer distribution and
        span scores.

        Returns (log_p_ans (n_answers,), log_p_st, log_p_ed).
        """
        if len(answer_ids) < 2:
            raise UsageError(f"multiple choice needs at least 2 candidates, got {len(answer_ids)}")
        head, d, n_c = self.qa, self.config.d, len(answer_ids)
        candidates = [list(question_ids) + [SEP_ID] + list(ans) for ans in answer_ids]
        frame_rows = encode_with_appended_text(self.encoder, clip, candidates, train_rng=train_rng)
        pooled = attention_pool(frame_rows, head.pool_query)  # (n_answers, d)
        ans_logits = T.reshape(head.ans_out(T.gelu(head.ans_hidden(pooled))), (1, n_c))
        log_p_ans = T.reshape(T.log_softmax(ans_logits), (-1,))

        # beta-weighted sum across answers -> one span-scoring sequence
        beta = T.softmax(T.matmul(pooled, head.answer_attn_query) * (1.0 / math.sqrt(d)), axis=0)
        n_f = frame_rows.shape[1]
        fused = T.reshape(
            T.matmul(T.transpose(beta), T.reshape(frame_rows, (n_c, n_f * d))), (n_f, d)
        )
        st_logits = T.reshape(head.st_out(T.gelu(head.st_hidden(fused))), (-1,))
        ed_logits = T.reshape(head.ed_out(T.gelu(head.ed_hidden(fused))), (-1,))
        return log_p_ans, T.log_softmax(st_logits), T.log_softmax(ed_logits)

    def loss(
        self,
        clip: AlignedClip,
        example: QaExample,
        vocab: Vocab,
        lam: float = QA_LAMBDA_DEFAULT,
        train_rng=None,
    ) -> T.Tensor:
        """Answer cross-entropy plus lam * span loss when a span is given."""
        question_ids = tokenize(example.question, vocab)
        answer_ids = [tokenize(a, vocab) for a in example.answers]
        log_p_ans, log_p_st, log_p_ed = self.forward(
            clip, question_ids, answer_ids, train_rng=train_rng
        )
        span = seconds_to_frame_span(clip, *example.span) if example.span is not None else None
        return qa_loss_from_outputs(log_p_ans, log_p_st, log_p_ed, example.label, span, lam)

    def predict(self, clip: AlignedClip, example: QaExample, vocab: Vocab) -> int:
        with T.no_grad():
            log_p_ans, _, _ = self.forward(
                clip, tokenize(example.question, vocab),
                [tokenize(a, vocab) for a in example.answers],
            )
            return int(np.argmax(log_p_ans.data))


def qa_loss_from_outputs(
    log_p_ans: T.Tensor,
    log_p_st: T.Tensor,
    log_p_ed: T.Tensor,
    label: int,
    span: tuple[int, int] | None,
    lam: float = QA_LAMBDA_DEFAULT,
) -> T.Tensor:
    """-log p_ans[label] + lam * 0.5 * (-log p_st[y_st] - log p_ed[y_ed]).

    The span term enters only when span supervision exists.
    """
    if lam < 0:
        raise ConfigError(f"qa span weight must be nonnegative, got {lam}")
    loss = -T.take_rows(log_p_ans, [label]).sum()
    if lam > 0 and span is not None:
        loss = loss + lam * (0.5 * span_nll(log_p_st, log_p_ed, span))
    return loss


# -- video-language inference ----------------------------------------------------------


class NliHead(Module):
    """Entail/contradict logits (1, 2) from attention-pooled frame rows."""

    def __init__(self, rng: np.random.Generator, d: int):
        self.pool_query = T.Tensor(rng.normal(0.0, 0.02, size=(d, 1)), requires_grad=True)
        self.cls_hidden = Linear(rng, d, d)
        self.cls_out = Linear(rng, d, 2, init="small")

    def __call__(self, frame_rows: T.Tensor) -> T.Tensor:
        """(1, n_frames, d) frame rows -> (1, 2) logits."""
        pooled = attention_pool(frame_rows, self.pool_query)
        return self.cls_out(T.gelu(self.cls_hidden(pooled)))


class NliModel(Module):
    """Binary entail/contradict classifier over a hypothesis-aware pooled clip vector."""

    def __init__(self, config: ModelConfig, seed: int = 0):
        self.config = config
        rng = np.random.default_rng([seed, 3])
        self.encoder = HierarchicalEncoder(config, rng)
        self.nli = NliHead(rng, config.d)

    def _logits(self, clip: AlignedClip, example: NliExample, vocab: Vocab, train_rng=None) -> T.Tensor:
        """The QA encoding with one candidate, the hypothesis."""
        ids = tokenize(example.hypothesis, vocab)
        if not ids:
            raise DataError(f"hypothesis {example.hypothesis!r} tokenizes to nothing")
        return self.nli(encode_with_appended_text(self.encoder, clip, [ids], train_rng=train_rng))

    def loss(self, clip: AlignedClip, example: NliExample, vocab: Vocab, train_rng=None) -> T.Tensor:
        logits = self._logits(clip, example, vocab, train_rng=train_rng)
        return T.cross_entropy(logits, [example.label])

    def predict(self, clip: AlignedClip, example: NliExample, vocab: Vocab) -> int:
        with T.no_grad():
            return int(np.argmax(self._logits(clip, example, vocab).data))


# -- captioning -------------------------------------------------------------------------


class DecoderBlock(Module):
    """Pre-LN decoder block: causal self-attention, cross-attention into the
    encoder rows, feed-forward."""

    def __init__(self, rng, d: int, heads: int, ffn_multiplier: int):
        self.ln1 = LayerNorm(d)
        self.self_attn = MultiHeadAttention(rng, d, heads)
        self.ln2 = LayerNorm(d)
        self.cross_attn = MultiHeadAttention(rng, d, heads)
        self.ln3 = LayerNorm(d)
        self.ffn1 = Linear(rng, d, d * ffn_multiplier)
        self.ffn2 = Linear(rng, d * ffn_multiplier, d)

    def __call__(self, x, enc_rows, causal_mask, enc_mask):
        x = x + self.self_attn(self.ln1(x), key_mask=causal_mask)
        x = x + self.cross_attn(self.ln2(x), kv=enc_rows, key_mask=enc_mask)
        return x + self.ffn2(T.gelu(self.ffn1(self.ln3(x))))


class Decoder(Module):
    """Token and position embeddings, decoder blocks and the output
    projection: vocabulary logits for every input position."""

    def __init__(self, rng, config: ModelConfig, layers: int, max_len: int):
        d = config.d
        self.token_emb = T.Tensor(
            rng.normal(0.0, 0.02, size=(config.vocab_size, d)), requires_grad=True
        )
        self.pos_emb = T.Tensor(rng.normal(0.0, 0.02, size=(max_len + 1, d)), requires_grad=True)
        self.blocks = [
            DecoderBlock(rng, d, config.cross_heads, config.ffn_multiplier) for _ in range(layers)
        ]
        self.ln_out = LayerNorm(d)
        self.lm_out = Linear(rng, d, config.vocab_size, init="small")

    def __call__(self, input_ids: Sequence[int], enc_rows: T.Tensor, enc_mask: np.ndarray) -> T.Tensor:
        n = len(input_ids)
        x = T.take_rows(self.token_emb, list(input_ids)) + T.take_rows(self.pos_emb, np.arange(n))
        causal = np.tril(np.ones((n, n), dtype=bool))
        for block in self.blocks:
            x = block(x, enc_rows, causal, enc_mask)
        return self.lm_out(self.ln_out(x))


DECODER_LAYERS = 2


class CaptionModel(Module):
    """Encoder plus a shallow (``DECODER_LAYERS``-layer) left-to-right decoder
    whose cross-attention is restricted to the frames of the captioned moment."""

    def __init__(self, config: ModelConfig, seed: int = 0, max_len: int = 24):
        self.config = config
        self.max_len = max_len
        rng = np.random.default_rng([seed, 4])
        self.encoder = HierarchicalEncoder(config, rng)
        self.decoder = Decoder(rng, config, DECODER_LAYERS, max_len)

    def _moment_mask(self, clip: AlignedClip, moment: tuple[float, float]) -> np.ndarray:
        st, ed = seconds_to_frame_span(clip, *moment)
        mask = np.zeros(clip.n_frames, dtype=bool)
        mask[st : ed + 1] = True
        return mask

    def loss(
        self, clip: AlignedClip, example: CaptionExample, vocab: Vocab, train_rng=None
    ) -> T.Tensor:
        """Teacher-forced left-to-right cross-entropy over the caption."""
        target = tokenize(example.caption, vocab)[: self.max_len - 1]
        if not target:
            raise DataError(f"caption {example.caption!r} tokenizes to nothing")
        enc = self.encoder.encode_clip(clip, train_rng=train_rng)
        enc_mask = self._moment_mask(clip, example.moment)
        input_ids = [CLS_ID] + target
        labels = target + [SEP_ID]
        logits = self.decoder(input_ids, enc.v_temp, enc_mask)
        return T.cross_entropy(logits, labels)

    def greedy_decode(self, clip: AlignedClip, moment: tuple[float, float]) -> list[int]:
        """Argmax decoding until the end token or ``max_len`` tokens; returns
        content token ids only."""
        enc_mask = self._moment_mask(clip, moment)
        with T.no_grad():
            enc = self.encoder.encode_clip(clip)
            ids = [CLS_ID]
            for _ in range(self.max_len):
                logits = self.decoder(ids, enc.v_temp, enc_mask)
                nxt = int(np.argmax(logits.data[-1]))
                if nxt == SEP_ID:
                    break
                ids.append(nxt)
            return ids[1:]


def finetune_steps(
    model, task: str, optimizer: T.AdamW, hypers: PretrainHypers, qa_lambda: float,
    examples: Sequence, clips: dict[str, AlignedClip], vocab: Vocab, seed: int,
    batch_size: int, num_steps: int,
) -> Iterator[tuple[int, Callable]]:
    """The finetune schedule: ``(step, take_step)`` for steps [0, num_steps);
    ``take_step(train_rng)`` runs one optimization step and returns its loss.

    A step's picks are a pure function of (seed, step).  A retrieval step
    runs pretrain's vsm step on ``batch_size`` (at least 2) of the clips
    with examples; a qa, nli or caption step takes the mean loss of
    ``batch_size`` examples.  ``clips`` holds the examples' clips by id.
    The call, not the first draw, raises a DataError for retrieval examples
    on fewer than 2 clips or a query that tokenizes to nothing.
    """
    if task == "retrieval":
        grouped: dict = {}
        for ex in examples:
            grouped.setdefault(ex.clip_id, []).append(ex)
        clip_ids = sorted(grouped)
        if len(clip_ids) < 2:
            raise DataError("retrieval finetuning needs examples on at least 2 clips")
        targets = {cid: retrieval_targets(clips[cid], exs, vocab) for cid, exs in grouped.items()}
    loss_options = {"lam": qa_lambda} if task == "qa" else {}

    def take_step(step: int, train_rng) -> float:
        rng = np.random.default_rng([seed, _SEED_FINETUNE, step])
        if task == "retrieval":
            picked = rng.choice(len(clip_ids), size=min(batch_size, len(clip_ids)), replace=False)
            if len(picked) < 2:
                picked = rng.choice(len(clip_ids), size=2, replace=False)
            ids = [clip_ids[i] for i in sorted(int(x) for x in picked)]
            batch = TaskBatch("vsm", step, seed, [clips[i] for i in ids], [targets[i] for i in ids])
            return pretrain_step(model, batch, optimizer, hypers, train_rng=train_rng)
        picked = rng.choice(len(examples), size=min(batch_size, len(examples)), replace=False)
        batch = [examples[i] for i in sorted(int(x) for x in picked)]
        return T.train_step(optimizer, lambda: _mean_terms([
            model.loss(clips[ex.clip_id], ex, vocab, train_rng=train_rng, **loss_options)
            for ex in batch
        ]))

    return ((step, functools.partial(take_step, step)) for step in range(num_steps))


def finetune_model_for(task: str, config: ModelConfig, seed: int):
    if task == "retrieval":
        return PretrainModel(config, seed=seed)
    if task == "qa":
        return QaModel(config, seed=seed)
    if task == "nli":
        return NliModel(config, seed=seed)
    if task == "caption":
        return CaptionModel(config, seed=seed)
    raise ConfigError(f"unknown task {task!r}")
