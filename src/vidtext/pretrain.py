"""The five pre-training objectives and their one-task-per-batch scheduler.

Masked token prediction reads local fused context (per-sentence rows), the
two masked frame objectives read global temporal context, span/clip matching
scores every query of a batch against every clip at once, and order modeling
classifies the original timestamps of post-fusion shuffled frames.  Every
mini-batch carries exactly one task so tasks never corrupt each other's inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from . import tensor as T
from .data import MASK_ID, AlignedClip, Vocab, epoch_order
from .encoder import EncodedBatch, HierarchicalEncoder, LayerNorm, Linear, ModelConfig, Module
from .errors import ConfigError, UsageError

TASK_NAMES = ("mlm", "mffr", "mnce", "vsm", "fom")

MASK_FRACTION = 0.15
MASK_ACTION_SPLIT = (0.8, 0.1, 0.1)  # [MASK] / random token / keep
QUERY_FRACTION = 0.15
SPAN_FILTER_WIDTH = 5

ACTION_MASK = "mask"
ACTION_RANDOM = "random"
ACTION_KEEP = "keep"

# seed namespaces: every random decision is a pure function of
# (seed, namespace, step), so reruns and resumes regenerate it exactly
_SEED_TASK = 10
_SEED_PLAN = 11
_SEED_DROPOUT = 12
_SEED_NEGATIVES = 13
_SEED_FINETUNE = 21  # finetune example picks


@dataclass
class PretrainHypers:
    margin: float = 0.1  # hinge margin between positive and negative scores
    lambda_local: float = 0.01
    lambda_global: float = 8.0
    num_negatives: int = 15

    def __post_init__(self):
        for name in ("margin", "lambda_local", "lambda_global"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0):
                raise ConfigError(f"{name} must be nonnegative and finite, got {value}")
        if self.num_negatives < 1:
            raise ConfigError("num_negatives must be at least 1")


# -- plans --------------------------------------------------------------------


@dataclass
class TokenMaskPlan:
    """Masked positions within one sentence, with their replacement action
    and the original ids kept for supervision."""

    positions: list[int]
    actions: list[str]
    originals: list[int]


@dataclass
class FrameMaskPlan:
    """Masked frame positions; inputs are always zeroed, originals stay in
    the clip for regression targets."""

    positions: list[int]


@dataclass
class ReorderPlan:
    """``positions[j]`` now holds the frame whose original timestamp is
    ``sources[j]``; everything else stays in place."""

    positions: list[int]
    sources: list[int]

    def permutation(self, n_frames: int) -> np.ndarray:
        perm = np.arange(n_frames)
        perm[self.positions] = self.sources
        return perm


@dataclass
class VsmTarget:
    query_token_ids: list[int]
    span: tuple[int, int]


def _select_at_least_one(n: int, rng: np.random.Generator) -> np.ndarray:
    """Independent per-index selection at the mask rate, redrawn until
    nonempty."""
    while True:
        sel = rng.random(n) < MASK_FRACTION
        if sel.any():
            return np.flatnonzero(sel)


def sample_task(batch_index: int, seed: int, weights: dict[str, float]) -> str:
    """Deterministic weighted draw of the single task for this mini-batch."""
    names = [t for t in TASK_NAMES if weights.get(t, 0.0) > 0]
    for t, w in weights.items():
        if t not in TASK_NAMES:
            raise ConfigError(f"unknown task {t!r}; expected one of {TASK_NAMES}")
        if w < 0:
            raise ConfigError(f"task weight for {t!r} must be nonnegative")
    if not names:
        raise ConfigError("at least one task weight must be positive")
    w = np.array([weights[t] for t in names])
    rng = np.random.default_rng([seed, _SEED_TASK, batch_index])
    return names[int(rng.choice(len(names), p=w / w.sum()))]


def apply_mlm_mask(
    token_ids: Sequence[int], rng: np.random.Generator, vocab: Vocab
) -> tuple[list[int], TokenMaskPlan]:
    """Select ~15% of the tokens and replace them 80/10/10 with [MASK], a
    random non-special token, or the original."""
    ids = list(token_ids)
    if not ids:
        raise UsageError("cannot mask an empty sentence")
    positions = _select_at_least_one(len(ids), rng)
    masked = ids.copy()
    actions, originals = [], []
    for pos in positions:
        originals.append(ids[pos])
        r = rng.random()
        if r < MASK_ACTION_SPLIT[0]:
            actions.append(ACTION_MASK)
            masked[pos] = MASK_ID
        elif r < MASK_ACTION_SPLIT[0] + MASK_ACTION_SPLIT[1]:
            actions.append(ACTION_RANDOM)
            masked[pos] = vocab.random_regular_id(rng)
        else:
            actions.append(ACTION_KEEP)
    return masked, TokenMaskPlan(list(map(int, positions)), actions, originals)


def make_frame_mask(n_frames: int, rng: np.random.Generator) -> FrameMaskPlan:
    if n_frames < 1:
        raise UsageError("cannot mask a clip with no frames")
    return FrameMaskPlan(list(map(int, _select_at_least_one(n_frames, rng))))


def make_reorder_plan(n_frames: int, rng: np.random.Generator) -> ReorderPlan:
    if n_frames < 1:
        raise UsageError("cannot reorder a clip with no frames")
    positions = _select_at_least_one(n_frames, rng)
    sources = rng.permutation(positions)
    return ReorderPlan(list(map(int, positions)), list(map(int, sources)))


def sample_vsm_targets(clip: AlignedClip, rng: np.random.Generator) -> list[VsmTarget]:
    """Sample ~15% of the clip's sentences (at least one) as span queries."""
    candidates = [j for j, s in enumerate(clip.sentences) if s.token_ids]
    if not candidates:
        raise UsageError(f"clip {clip.clip_id!r} has no tokenized sentence to query")
    n_q = max(1, round(QUERY_FRACTION * len(clip.sentences)))
    n_q = min(n_q, len(candidates))
    picks = rng.choice(len(candidates), size=n_q, replace=False)
    sentences = [clip.sentences[candidates[p]] for p in sorted(int(x) for x in picks)]
    return [VsmTarget(list(sent.token_ids), sent.span()) for sent in sentences]


# -- model ---------------------------------------------------------------------


def attention_pool(rows: T.Tensor, query: T.Tensor, bias=None) -> T.Tensor:
    """Softmax-weighted sum of each sequence's rows under a learned query vector:
    (C, n, d) rows give (C, d); a (C, n, 1) ``bias`` of -1e30 masks a row out."""
    d = rows.shape[-1]
    scores = T.matmul(rows, query) * (1.0 / math.sqrt(d))  # (C, n, 1)
    alpha = T.softmax(scores if bias is None else scores + bias, axis=-2)
    return T.reshape(T.matmul(T.transpose(alpha), rows), (rows.shape[0], d))


def gather_padded(rows: T.Tensor, bounds) -> tuple[T.Tensor, np.ndarray]:
    """Packed rows, sequence b owning ``bounds[b]:bounds[b + 1]``, as a (B, longest, ...)
    tensor, and its (B, longest) mask of real slots (padding repeats row 0)."""
    lengths = np.diff(bounds)
    slots = np.arange(lengths.max())
    real = slots < lengths[:, None]
    return T.take_rows(rows, np.where(real, np.asarray(bounds)[:-1, None] + slots, 0)), real


class QueryEncoder(Module):
    """Pools fused query-token rows into one vector: attention pooling with a
    learned query, then two linear layers and a layer norm."""

    def __init__(self, rng: np.random.Generator, d: int):
        self.pool = T.Tensor(rng.normal(0.0, 0.02, size=(d, 1)), requires_grad=True)
        self.lin1 = Linear(rng, d, d)
        self.lin2 = Linear(rng, d, d)
        self.ln = LayerNorm(d)

    def __call__(self, w_cross: T.Tensor, bounds: np.ndarray) -> T.Tensor:
        """(Q, d) from packed token rows, query q owning ``bounds[q]:bounds[q + 1]``."""
        rows, real = gather_padded(w_cross, bounds)
        bias = np.where(real, 0.0, T.ATTENTION_MASK_BIAS)[..., None]
        return self.ln(self.lin2(T.gelu(self.lin1(attention_pool(rows, self.pool, bias)))))


@dataclass
class VsmScores:
    """Q queries against B clips; clip b fills the first n_b of L frame slots."""

    s_local: T.Tensor  # (B, Q, L) dot-product frame scores, 0 at the padding
    s_global: T.Tensor  # (B, Q) max cosine over each clip's frames
    log_p_st: T.Tensor  # (B, Q, L) span start log-probabilities; exp() is 0 at the padding
    log_p_ed: T.Tensor


class PretrainModel(Module):
    """Encoder plus every pre-training head."""

    def __init__(self, config: ModelConfig, seed: int = 0):
        self.config = config
        rng = np.random.default_rng([seed, 1])
        self.encoder = HierarchicalEncoder(config, rng)
        self.lm_head = Linear(rng, config.d, config.vocab_size, init="small")
        self.mffr_head = Linear(rng, config.d, config.frame_feature_dim, init="small")
        self.mnce_proj = Linear(rng, config.d, config.d, init="small")
        self.fom_head = Linear(rng, config.d, config.max_frames, init="small")
        self.query_encoder = QueryEncoder(rng, config.d)
        self.span_st_filter = T.Tensor(
            rng.normal(0.0, 0.02, size=SPAN_FILTER_WIDTH), requires_grad=True
        )
        self.span_ed_filter = T.Tensor(
            rng.normal(0.0, 0.02, size=SPAN_FILTER_WIDTH), requires_grad=True
        )

    # -- masked-input encoding: one packed pass per batch -----------------------

    def encode_mlm(self, clips, masked_ids, train_rng=None) -> EncodedBatch:
        return self.encoder.encode_clips(clips, token_ids_overrides=masked_ids, train_rng=train_rng)

    def encode_mfm(self, clips, plans: Sequence[FrameMaskPlan], train_rng=None) -> EncodedBatch:
        features = []
        for clip, plan in zip(clips, plans):
            feats = clip.frame_features.copy()
            feats[plan.positions] = 0.0  # masked frame features are replaced by zeros
            features.append(feats)
        return self.encoder.encode_clips(
            clips, frame_features_overrides=features, train_rng=train_rng
        )

    def encode_reordered(self, clips, plans: Sequence[ReorderPlan], train_rng=None) -> EncodedBatch:
        """Shuffle each clip's fused frame rows (and the positional residual
        with them) before the temporal stack; ``v_temp`` rows come out in the
        shuffled order."""
        orders = [plan.permutation(clip.n_frames) for clip, plan in zip(clips, plans)]
        return self.encoder.encode_clips(clips, frame_orders=orders, train_rng=train_rng)

    # -- losses: each is the mean over the batch's clips --------------------------

    def mlm_loss(
        self, encoded: EncodedBatch, plans: Sequence[Sequence[TokenMaskPlan | None]]
    ) -> T.Tensor:
        """Cross-entropy of the original ids at masked positions, read from
        the per-sentence fused token rows (local context).  One ``lm_head``
        pass over every clip's masked rows; row weights 1 / (clips x the
        clip's masked positions) make it the mean over clips of each clip's
        mean."""
        rows, labels, counts = [], [], []
        for starts, clip_plans in zip(encoded.token_bounds, plans):
            clip_rows = [
                starts[j] + pos
                for j, plan in enumerate(clip_plans) if plan is not None
                for pos in plan.positions
            ]
            if not clip_rows:
                raise UsageError("mlm_loss needs at least one masked position in every clip")
            rows.extend(clip_rows)
            labels.extend(i for plan in clip_plans if plan is not None for i in plan.originals)
            counts.append(len(clip_rows))
        logits = self.lm_head(T.take_rows(encoded.w_cross, rows))
        return T.cross_entropy(logits, labels, _mean_of_clip_means(counts))

    def mffr_loss(self, encoded: EncodedBatch, plans: Sequence[FrameMaskPlan]) -> T.Tensor:
        """Summed squared L2 between regressed and original features of each
        clip's masked frames, read from the temporal rows (global context)."""
        if any(not plan.positions for plan in plans):
            raise UsageError("mffr_loss needs at least one masked frame in every clip")
        rows = encoded.frame_rows([plan.positions for plan in plans])
        pred = self.mffr_head(T.take_rows(encoded.v_temp, rows))
        target = np.concatenate(
            [clip.frame_features[plan.positions] for clip, plan in zip(encoded.clips, plans)]
        )
        return l2_regression_loss(pred, target) * (1.0 / len(plans))

    def mnce_positive_targets(self, clips, plans: Sequence[FrameMaskPlan]) -> np.ndarray:
        """Projections of every clip's masked frames, clip by clip, from one
        clean (unmasked) packed pass, detached so they act as fixed
        contrastive targets."""
        with T.no_grad():
            clean = self.encoder.encode_clips(clips)
            rows = clean.frame_rows([plan.positions for plan in plans])
            return self.mnce_proj(T.take_rows(clean.v_temp, rows)).data

    def mnce_loss(
        self,
        encoded: EncodedBatch,
        plans: Sequence[FrameMaskPlan],
        rng: np.random.Generator,
        num_negatives: int = 15,
        positive_targets: np.ndarray | None = None,
    ) -> T.Tensor:
        """Contrastive softmax (InfoNCE): each masked frame's projection must
        score its own clean-pass projection above projections of sampled
        unmasked frames from the same clip.  One cross-entropy over a (P, 1+K)
        logit matrix whose candidate 0 is the positive, weighted like
        ``mlm_loss``; the negatives are drawn one masked position at a time,
        clip by clip in plan order."""
        if any(not plan.positions for plan in plans):
            raise UsageError("mnce_loss needs at least one masked frame in every clip")
        if positive_targets is None:
            positive_targets = self.mnce_positive_targets(encoded.clips, plans)
        anchors = encoded.frame_rows([plan.positions for plan in plans])
        n_rows, n_pos = encoded.v_temp.shape[0], len(anchors)
        # rows 0..n_rows-1 project v_temp; row n_rows + i is masked frame i's target
        candidates = np.empty((n_pos, 1 + num_negatives), dtype=np.intp)
        candidates[:, 0] = n_rows + np.arange(n_pos)
        i = 0
        for lo, clip, plan in zip(encoded.frame_bounds, encoded.clips, plans):
            unmasked = np.setdiff1d(np.arange(clip.n_frames), np.asarray(plan.positions))
            if unmasked.size == 0:
                raise UsageError("mnce_loss needs at least one unmasked frame")
            replace = unmasked.size < num_negatives
            for _ in plan.positions:
                candidates[i, 1:] = lo + rng.choice(unmasked, size=num_negatives, replace=replace)
                i += 1
        proj = self.mnce_proj(encoded.v_temp)
        pool = T.concat_rows([proj, T.Tensor(positive_targets)])
        anchor_rows = T.reshape(T.take_rows(proj, anchors), (n_pos, -1, 1))
        logits = T.matmul(T.take_rows(pool, candidates), anchor_rows)  # (P, 1+K, 1)
        weights = _mean_of_clip_means([len(plan.positions) for plan in plans])
        return T.cross_entropy(T.reshape(logits, (n_pos, -1)), [0] * n_pos, weights)

    def encode_query(self, queries: Sequence[Sequence[int]], train_rng=None) -> T.Tensor:
        """(Q, d) vectors of Q token-id lists: one ``embed_text`` call, one frameless
        cross-modal pass whose segments are the queries, then the query encoder."""
        ids = [self.encoder._truncated(q) for q in queries]
        bounds = np.cumsum([0] + [len(q) for q in ids])
        positions = np.concatenate([np.arange(len(q)) for q in ids])
        w_emb = self.encoder.embed_text([i for q in ids for i in q], positions)
        segments = [(np.arange(0), np.arange(lo, hi)) for lo, hi in zip(bounds[:-1], bounds[1:])]
        _, w_cross = self.encoder.cross_modal_forward(None, w_emb, segments, train_rng=train_rng)
        return self.query_encoder(w_cross, bounds)

    def vsm_scores_for_query(self, v_temp: T.Tensor, frame_bounds, q: T.Tensor) -> VsmScores:
        """All (clip, query) scores: Q query vectors ``q`` (Q, d) against B clips of
        packed rows ``v_temp``, clip b owning ``frame_bounds[b]:frame_bounds[b + 1]``.
        Dot products and cosines are (N, Q) matrices gathered into per-clip grids."""
        if (np.diff(frame_bounds) < 1).any():
            raise UsageError("vsm scoring needs at least one frame in every clip")
        dots = T.matmul(v_temp, T.transpose(q))  # (N, Q)
        n, d = v_temp.shape  # squared row norms as N (1, d) @ (d, 1) products: no (N, d) temporary
        squares = T.matmul(T.reshape(v_temp, (n, 1, d)), T.reshape(v_temp, (n, d, 1)))
        row_norms = T.sqrt(T.reshape(squares, (n, 1)) + 1e-24)
        cos = dots * T.reciprocal(row_norms * T.sqrt((q * q).sum(axis=1) + 1e-24))
        dots, real = gather_padded(dots, frame_bounds)  # (B, L, Q)
        cos, _ = gather_padded(cos, frame_bounds)
        pad = np.where(real, 0.0, T.ATTENTION_MASK_BIAS)
        s_local = T.transpose(dots * real[..., None])  # (B, Q, L), zeros past each clip's end
        log_p_st, log_p_ed = (
            T.log_softmax(T.conv1d(s_local, f) + pad[:, None], axis=-1)
            for f in (self.span_st_filter, self.span_ed_filter)
        )
        return VsmScores(s_local, T.vmax(cos + pad[..., None], axis=1), log_p_st, log_p_ed)

    def vsm_loss(
        self,
        encoded: EncodedBatch,
        targets_per_clip: Sequence[Sequence[VsmTarget]],
        hypers: PretrainHypers,
        train_rng=None,
    ) -> T.Tensor:
        """Span cross-entropy on positive pairs plus hinge losses against one
        in-batch negative query and one in-batch negative clip, means over all
        targets.  Target m of clip b takes clip b + 1 (wrapping) as its negative
        clip and that clip's query m (modulo its query count) as its negative query."""
        counts = np.array([len(targets) for targets in targets_per_clip])
        if len(counts) < 2 or counts.min() < 1:
            raise UsageError("vsm_loss needs at least 2 clips for negatives, each with a target")
        targets = [t for clip_targets in targets_per_clip for t in clip_targets]
        q = self.encode_query([t.query_token_ids for t in targets], train_rng=train_rng)
        scores = self.vsm_scores_for_query(encoded.v_temp, encoded.frame_bounds, q)

        n_q, query = len(targets), np.arange(len(targets))
        own = np.repeat(np.arange(len(counts)), counts)  # each query's clip
        other = (own + 1) % len(counts)
        starts = np.cumsum(counts) - counts
        neg_query = starts[other] + (query - starts[own]) % counts[other]
        st, ed = np.array([t.span for t in targets]).T
        if st.min() < 0 or (ed >= np.diff(encoded.frame_bounds)[own]).any():
            raise UsageError("vsm_loss got a target span outside its clip's frames")
        pair = (own * n_q + query) * scores.log_p_st.shape[-1]  # (own clip, own query, 0)
        flat = [T.reshape(log_p, (-1,)) for log_p in (scores.log_p_st, scores.log_p_ed)]
        l_local = span_nll(*flat, (pair + st, pair + ed)) * (1.0 / n_q)
        s_global = T.reshape(scores.s_global, (-1,))  # (B * Q,)
        s_pos = T.take_rows(s_global, own * n_q + query)
        l_global = (
            hinge_loss(s_pos, T.take_rows(s_global, own * n_q + neg_query), hypers.margin)
            + hinge_loss(s_pos, T.take_rows(s_global, other * n_q + query), hypers.margin)
        ).sum() * (1.0 / n_q)
        return hypers.lambda_local * l_local + hypers.lambda_global * l_global

    def fom_loss(self, encoded: EncodedBatch, plans: Sequence[ReorderPlan]) -> T.Tensor:
        """Negative log-likelihood of each reordered row's original
        timestamp, summed over a clip's reordered positions only; a clip's
        timestamps past its last frame get no probability."""
        for plan in plans:
            if sorted(plan.positions) != sorted(set(plan.positions)) or sorted(
                plan.sources
            ) != sorted(plan.positions):
                raise UsageError("reorder plan is not a permutation of its positions")
        rows = encoded.frame_rows([plan.positions for plan in plans])
        logits = self.fom_head(T.take_rows(encoded.v_temp, rows))
        n_frames = np.repeat([c.n_frames for c in encoded.clips], [len(p.positions) for p in plans])
        past_end = np.arange(logits.shape[1]) >= n_frames[:, None]
        logits = logits + np.where(past_end, T.ATTENTION_MASK_BIAS, 0.0)  # exp() of it is 0
        sources = [s for plan in plans for s in plan.sources]
        return timestamp_nll(logits, sources) * (1.0 / len(plans))


# -- loss helpers ----------------------------------------------------------------


def l2_regression_loss(pred: T.Tensor, target: np.ndarray) -> T.Tensor:
    diff = pred - T.Tensor(target)
    return (diff * diff).sum()


def hinge_loss(s_pos: T.Tensor, s_neg: T.Tensor, margin: float) -> T.Tensor:
    """max(0, margin + s_neg - s_pos); zero whenever the positive clears the
    negative by the margin."""
    return T.relu(margin + s_neg - s_pos)


def span_nll(log_p_st: T.Tensor, log_p_ed: T.Tensor, span) -> T.Tensor:
    """-(log p_st[y_st] + log p_ed[y_ed]), summed when y_st, y_ed are index arrays."""
    y_st, y_ed = span
    return -(T.take_rows(log_p_st, [y_st]).sum() + T.take_rows(log_p_ed, [y_ed]).sum())


def timestamp_nll(logits: T.Tensor, labels: Sequence[int]) -> T.Tensor:
    """-sum_j log softmax(logits[j])[labels[j]] (sum, not mean)."""
    return T.cross_entropy(logits, labels) * len(labels)


def _mean_of_clip_means(counts: Sequence[int]) -> np.ndarray:
    """Row weights for the rows of all clips, clip b owning the next
    ``counts[b]`` rows, under which a weighted sum is the mean over clips of
    each clip's mean."""
    return np.repeat([1.0 / (len(counts) * n) for n in counts], counts)


def _mean_terms(terms: list[T.Tensor]) -> T.Tensor:
    total = terms[0]
    for t in terms[1:]:
        total = total + t
    return total * (1.0 / len(terms))


# -- batching and the training step ------------------------------------------------


@dataclass
class TaskBatch:
    """One mini-batch specialized to exactly one task."""

    kind: str
    step: int
    seed: int
    clips: list[AlignedClip]
    masked_token_ids: list[list[list[int]]] | None = None
    token_plans: list[list[TokenMaskPlan | None]] | None = None
    frame_plans: list[FrameMaskPlan] | None = None
    reorder_plans: list[ReorderPlan] | None = None
    vsm_targets: list[list[VsmTarget]] | None = None


def make_batches(
    clips: Sequence[AlignedClip],
    vocab: Vocab,
    config: ModelConfig,
    batch_size: int,
    seed: int,
    weights: dict[str, float],
    num_steps: int,
    start_step: int = 0,
) -> Iterator[TaskBatch]:
    """Yield deterministic task batches for steps [start_step, num_steps).

    Every clip appears exactly once per epoch; the epoch order, the task
    draw, and all mask/shuffle/query plans are pure functions of
    (seed, step), so resuming at any step regenerates the same stream.
    """
    if batch_size < 1:
        raise ConfigError("batch_size must be at least 1")
    if weights.get("vsm", 0.0) > 0 and batch_size < 2:
        raise ConfigError("the span-matching task needs batch_size >= 2 for in-batch negatives")
    n = len(clips)
    if n == 0:
        raise ConfigError("empty corpus")
    only_vsm = weights.get("vsm", 0.0) > 0 and all(
        w <= 0 for t, w in weights.items() if t != "vsm"
    )
    if only_vsm and n % batch_size == 1:
        raise ConfigError(
            "a span-matching-only schedule leaves a trailing single-clip batch "
            "with no in-batch negatives; adjust batch_size or the corpus size"
        )
    batches_per_epoch = (n + batch_size - 1) // batch_size

    for step in range(start_step, num_steps):
        epoch = step // batches_per_epoch
        slot = step % batches_per_epoch
        order = epoch_order(n, seed, epoch)
        batch_clips = [clips[i] for i in order[slot * batch_size : (slot + 1) * batch_size]]

        effective = dict(weights)
        if len(batch_clips) < 2:
            effective.pop("vsm", None)  # a trailing singleton batch has no negatives
        kind = sample_task(step, seed, effective)
        rng = np.random.default_rng([seed, _SEED_PLAN, step])
        yield build_task_batch(kind, batch_clips, vocab, config, rng, step=step, seed=seed)


def build_task_batch(
    kind: str,
    batch_clips: Sequence[AlignedClip],
    vocab: Vocab,
    config: ModelConfig,
    rng: np.random.Generator,
    step: int = 0,
    seed: int = 0,
) -> TaskBatch:
    batch = TaskBatch(kind=kind, step=step, seed=seed, clips=list(batch_clips))
    if kind == "mlm":
        batch.masked_token_ids, batch.token_plans = [], []
        for clip in batch_clips:
            ids_per_sentence, plans = [], []
            for sent in clip.sentences:
                ids = sent.token_ids[: config.max_tokens]
                if ids:
                    masked, plan = apply_mlm_mask(ids, rng, vocab)
                else:
                    masked, plan = ids, None
                ids_per_sentence.append(masked)
                plans.append(plan)
            batch.masked_token_ids.append(ids_per_sentence)
            batch.token_plans.append(plans)
    elif kind in ("mffr", "mnce"):
        batch.frame_plans = [make_frame_mask(c.n_frames, rng) for c in batch_clips]
    elif kind == "fom":
        batch.reorder_plans = [make_reorder_plan(c.n_frames, rng) for c in batch_clips]
    elif kind == "vsm":
        batch.vsm_targets = [sample_vsm_targets(c, rng) for c in batch_clips]
    else:
        raise ConfigError(f"unknown task {kind!r}")
    return batch


def task_loss(
    model: PretrainModel,
    batch: TaskBatch,
    hypers: PretrainHypers,
    train_rng: np.random.Generator | None = None,
) -> T.Tensor:
    """Forward pass and loss for the batch's single task (mean over clips):
    one packed encoder pass over the batch's clips, then the task's head."""
    if batch.kind == "mlm":
        encoded = model.encode_mlm(batch.clips, batch.masked_token_ids, train_rng=train_rng)
        return model.mlm_loss(encoded, batch.token_plans)
    if batch.kind == "mffr":
        encoded = model.encode_mfm(batch.clips, batch.frame_plans, train_rng=train_rng)
        return model.mffr_loss(encoded, batch.frame_plans)
    if batch.kind == "mnce":
        neg_rng = np.random.default_rng([batch.seed, _SEED_NEGATIVES, batch.step])
        encoded = model.encode_mfm(batch.clips, batch.frame_plans, train_rng=train_rng)
        return model.mnce_loss(
            encoded, batch.frame_plans, neg_rng, num_negatives=hypers.num_negatives
        )
    if batch.kind == "fom":
        encoded = model.encode_reordered(batch.clips, batch.reorder_plans, train_rng=train_rng)
        return model.fom_loss(encoded, batch.reorder_plans)
    if batch.kind == "vsm":
        encoded = model.encoder.encode_clips(batch.clips, train_rng=train_rng)
        return model.vsm_loss(encoded, batch.vsm_targets, hypers, train_rng=train_rng)
    raise ConfigError(f"unknown task {batch.kind!r}")


def dropout_rng(seed: int, step: int) -> np.random.Generator:
    return np.random.default_rng([seed, _SEED_DROPOUT, step])


def pretrain_step(
    model: PretrainModel,
    batch: TaskBatch,
    optimizer: T.AdamW,
    hypers: PretrainHypers,
    train_rng: np.random.Generator | None = None,
) -> float:
    """One optimization step on the batch's task loss."""
    return T.train_step(optimizer, lambda: task_loss(model, batch, hypers, train_rng=train_rng))
