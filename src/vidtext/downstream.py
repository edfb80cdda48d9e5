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
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

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
)
from .errors import ConfigError, DataError, UsageError, read_input
from .metrics import Ranking
from .pretrain import PretrainHypers, PretrainModel, VsmScores, VsmTarget, attention_pool, span_nll

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
        if not 0 <= self.label < len(self.answers):
            raise DataError(f"qa label {self.label} outside [0, {len(self.answers)})")


@dataclass
class NliExample:
    clip_id: str
    hypothesis: str
    label: int  # 0 contradict, 1 entail


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


def _interval(value, field: str) -> tuple[float, float]:
    """A task file's [start, end] seconds: two finite numbers, start <= end."""
    pair = isinstance(value, list) and len(value) == 2
    start, end = map(float, value) if pair else (math.nan, math.nan)
    if not -math.inf < start <= end < math.inf:  # also false for NaN
        raise ValueError(f"{field} {value!r} is not [start, end], two finite numbers, start <= end")
    return start, end


def read_task_file(path: str | Path, task: str):
    """Parse one task's examples, naming the offending record on mismatch."""
    if task not in _TASK_FIELDS:
        raise ConfigError(f"unknown task {task!r}")
    return read_input(path, "task file", functools.partial(_parse_task_file, task))


def _parse_task_file(task: str, path: Path, text: str) -> list:
    out = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            rec = json.loads(line)
            clip_id = str(rec["clip_id"])
            if task == "retrieval":
                out.append(RetrievalExample(clip_id, str(rec["query"]), _interval(rec["span"], "span")))
            elif task == "qa":
                span = _interval(rec["span"], "span") if rec.get("span") is not None else None
                out.append(
                    QaExample(clip_id, str(rec["q"]), [str(a) for a in rec["answers"]],
                              int(rec["label"]), span)
                )
            elif task == "nli":
                label = rec["label"]
                if isinstance(label, str):
                    label = NLI_LABELS[label]
                out.append(NliExample(clip_id, str(rec["hypothesis"]), int(label)))
            else:
                out.append(
                    CaptionExample(clip_id, _interval(rec["moment"], "moment"), str(rec["caption"]))
                )
        except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
            raise DataError(
                f"{task} record at {path}:{lineno} does not match schema "
                f"{_TASK_FIELDS[task]}: {exc}"
            ) from exc
    if not out:
        raise DataError(f"task file {path} holds no records")
    return out


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
    hits = [
        i for i, (f0, f1) in enumerate(clip.frame_times) if min(f1, t1) - max(f0, t0) > 0
    ]
    if not hits:
        raise DataError(f"moment [{t0}, {t1}] overlaps no frame of clip {clip.clip_id!r}")
    return (hits[0], hits[-1])


def qa_augmented_token_ids(
    sentence_ids: Sequence[int], query_ids: Sequence[int], max_tokens: int
) -> list[int]:
    """Append [SEP] query to a sentence's tokens."""
    return (list(sentence_ids) + [SEP_ID] + list(query_ids))[:max_tokens]


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
    grid.  Linear, LayerNorm, GELU and dropout see only real rows.
    """
    max_tokens = encoder.config.max_tokens
    n_f, n_c = clip.n_frames, len(candidates)
    texts = [
        qa_augmented_token_ids(s.token_ids, cand, max_tokens)
        for cand in candidates
        for s in clip.sentences
    ]
    texts += [list(cand)[:max_tokens] for cand in candidates]  # the pseudo-sentences, last
    bounds = np.cumsum([0] + [len(ids) for ids in texts])
    w_emb = encoder.embed_text(
        [i for ids in texts for i in ids], np.concatenate([np.arange(len(ids)) for ids in texts])
    )
    v_emb = encoder.embed_video(clip.frame_features, np.arange(n_f))
    v_rows = T.take_rows(v_emb, np.tile(np.arange(n_f), n_c))  # candidate c's frames at c * n_f
    frames = [
        c * n_f + np.asarray(s.frame_indices, dtype=np.intp)
        for c in range(n_c)
        for s in clip.sentences
    ] + [np.arange(0)] * n_c
    segments = [(f, np.arange(lo, hi)) for f, lo, hi in zip(frames, bounds[:-1], bounds[1:])]
    v_cross, w_cross = encoder.cross_modal_forward(v_rows, w_emb, segments, train_rng=train_rng)
    first_q = bounds[-n_c - 1]
    rows = T.concat_rows([v_rows + v_cross, T.slice_rows(w_emb + w_cross, first_q, bounds[-1])])
    # candidate c's temporal sequence: its frame rows, then its pseudo-sentence's
    q_rows = bounds[-n_c - 1 :] - first_q + n_c * n_f
    grid = T.row_grid(
        [np.r_[c * n_f : (c + 1) * n_f, q_rows[c] : q_rows[c + 1]] for c in range(n_c)],
        rows.shape[0],
    )
    h = encoder.temporal_apply(rows, train_rng=train_rng, grid=grid)
    return T.reshape(T.slice_rows(h, 0, n_c * n_f), (n_c, n_f, encoder.config.d))


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


def retrieval_finetune_step(
    model: PretrainModel,
    batch: Sequence[tuple[AlignedClip, Sequence[VsmTarget]]],
    optimizer: T.AdamW,
    hypers: PretrainHypers,
    train_rng: np.random.Generator | None = None,
) -> float:
    """Same loss contract as pre-training span matching, with annotation
    queries instead of sampled subtitles."""
    if len(batch) < 2:
        raise UsageError("retrieval finetuning needs a batch of at least 2 clips")

    def loss() -> T.Tensor:
        encoded = model.encoder.encode_clips([clip for clip, _ in batch], train_rng=train_rng)
        return model.vsm_loss(encoded, [targets for _, targets in batch], hypers, train_rng=train_rng)

    return T.train_step(optimizer, loss)


def best_spans(
    p_st: np.ndarray, p_ed: np.ndarray, lengths: Sequence[int], top_n: int = 5
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Each clip's highest-probability spans, from (B, L) start and end
    probabilities whose row b is real up to ``lengths[b]``.

    Returns parallel arrays (clip, start, end, p_st * p_ed): clip by clip,
    at most ``top_n`` spans with start <= end each, ordered by (-p, start, end).
    """
    st, ed = np.triu_indices(p_st.shape[1])  # every pair with start <= end, in (start, end) order
    neg = p_st[:, st]
    neg *= p_ed[:, ed]
    np.negative(neg, out=neg)
    neg[ed >= np.asarray(lengths)[:, None]] = np.inf  # past the clip's last frame
    # every span at or above each clip's top_n-th probability
    k = min(top_n, neg.shape[1])
    clip, pair = np.nonzero(neg <= np.partition(neg, k - 1, axis=1)[:, k - 1 : k])
    neg = neg[clip, pair]
    order = np.lexsort((neg, clip))  # stable: ties stay in (start, end) order
    clip, pair, neg = clip[order], pair[order], neg[order]
    rank = np.arange(len(clip)) - np.searchsorted(clip, clip)
    keep = (rank < top_n) & (neg < np.inf)
    clip, pair = clip[keep], pair[keep]
    return clip, st[pair], ed[pair], -neg[keep]


def _score_clips(model: PretrainModel, encoded: Sequence[EncodedBatch], query_token_ids) -> VsmScores:
    """One query against every clip: one ``encode_query`` and one scorer call."""
    with T.no_grad():
        v_temp = T.Tensor(np.concatenate([enc.v_temp.data for enc in encoded]))
        bounds = np.cumsum([0] + [clip.n_frames for enc in encoded for clip in enc.clips])
        return model.vsm_scores_for_query(v_temp, bounds, model.encode_query([query_token_ids]))


@functools.lru_cache(maxsize=1)
def _shared_ids(clip_ids: tuple[str, ...]) -> tuple[str, ...]:
    """One tuple object for every ranking over the same clips, so a kept
    ranking holds no id list of its own."""
    return clip_ids


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
    """
    clips = [clip for enc in encoded for clip in enc.clips]
    scores = _score_clips(model, encoded, query_token_ids)
    s_global = scores.s_global.data[:, 0]
    p_st, p_ed = (np.exp(x.data)[:, 0] for x in (scores.log_p_st, scores.log_p_ed))
    clip, st, ed, p = best_spans(p_st, p_ed, [c.n_frames for c in clips], spans_per_clip)
    times = [c.frame_times for c in clips]
    index = clip.tolist()
    start = np.array([times[c][i][0] for c, i in zip(index, st.tolist())], dtype=np.float64)
    end = np.array([times[c][i][1] for c, i in zip(index, ed.tolist())], dtype=np.float64)
    score = ((1.0 + s_global) / 2.0)[clip] * p
    order = np.argsort(-score, kind="stable")
    clip_ids = _shared_ids(tuple(c.clip_id for c in clips))
    return Ranking(clip_ids, clip[order], start[order], end[order], score[order])


# -- video question answering -------------------------------------------------------


class QaHead(Module):
    """Answer scoring over a pooled clip vector per candidate, plus start and
    end scoring over the answer-weighted frame rows."""

    def __init__(self, rng: np.random.Generator, d: int):
        self.pool_query = T.Tensor(rng.normal(0.0, 0.02, size=(d, 1)), requires_grad=True)
        self.ans_hidden = Linear(rng, d, d)
        self.ans_out = Linear(rng, d, 1, init="small")
        self.answer_attn_query = T.Tensor(rng.normal(0.0, 0.02, size=(d, 1)), requires_grad=True)
        self.st_hidden = Linear(rng, d, d)
        self.st_out = Linear(rng, d, 1, init="small")
        self.ed_hidden = Linear(rng, d, d)
        self.ed_out = Linear(rng, d, 1, init="small")


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
        log_p_ans = T.reshape(T.log_softmax(ans_logits, axis=-1), (-1,))

        # beta-weighted sum across answers -> one span-scoring sequence
        beta = T.softmax(T.matmul(pooled, head.answer_attn_query) * (1.0 / math.sqrt(d)), axis=0)
        n_f = frame_rows.shape[1]
        fused = T.reshape(
            T.matmul(T.transpose(beta), T.reshape(frame_rows, (n_c, n_f * d))), (n_f, d)
        )
        st_logits = T.reshape(head.st_out(T.gelu(head.st_hidden(fused))), (-1,))
        ed_logits = T.reshape(head.ed_out(T.gelu(head.ed_hidden(fused))), (-1,))
        return log_p_ans, T.log_softmax(st_logits, axis=-1), T.log_softmax(ed_logits, axis=-1)

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

    def __call__(self, x, enc_rows, causal_mask, enc_mask, capture=None):
        x = x + self.self_attn(self.ln1(x), key_mask=causal_mask)
        x = x + self.cross_attn(self.ln2(x), kv=enc_rows, key_mask=enc_mask, capture=capture)
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

    def __call__(
        self, input_ids: Sequence[int], enc_rows: T.Tensor, enc_mask: np.ndarray, capture=None
    ) -> T.Tensor:
        n = len(input_ids)
        x = T.embedding(self.token_emb, list(input_ids)) + T.embedding(self.pos_emb, np.arange(n))
        causal = np.tril(np.ones((n, n), dtype=bool))
        for block in self.blocks:
            x = block(x, enc_rows, causal, enc_mask, capture=capture)
        return self.lm_out(self.ln_out(x))


class CaptionModel(Module):
    """Encoder plus a shallow (2-layer) left-to-right decoder whose
    cross-attention is restricted to the frames of the captioned moment."""

    def __init__(self, config: ModelConfig, seed: int = 0, decoder_layers: int = 2, max_len: int = 24):
        self.config = config
        self.max_len = max_len
        rng = np.random.default_rng([seed, 4])
        self.encoder = HierarchicalEncoder(config, rng)
        self.decoder = Decoder(rng, config, decoder_layers, max_len)

    def _moment_mask(self, clip: AlignedClip, moment: tuple[float, float]) -> np.ndarray:
        try:
            st, ed = seconds_to_frame_span(clip, *moment)
        except DataError as exc:
            raise UsageError(str(exc)) from exc
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

    def greedy_decode(
        self, clip: AlignedClip, moment: tuple[float, float], max_len: int | None = None,
        capture: list | None = None,
    ) -> list[int]:
        """Argmax decoding until the end token or the length limit; returns
        content token ids only."""
        max_len = self.max_len if max_len is None else min(max_len, self.max_len)
        enc_mask = self._moment_mask(clip, moment)
        with T.no_grad():
            enc = self.encoder.encode_clip(clip)
            ids = [CLS_ID]
            for _ in range(max_len):
                logits = self.decoder(ids, enc.v_temp, enc_mask, capture=capture)
                nxt = int(np.argmax(logits.data[-1]))
                if nxt == SEP_ID:
                    break
                ids.append(nxt)
            return ids[1:]


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
