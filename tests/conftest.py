import os

# the CLI's one BLAS thread, set before numpy loads; a value the user set wins
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import contextlib
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import settings

from vidtext import tensor as T
from vidtext.data import AlignedClip, Sentence, Vocab, tokenize
from vidtext.downstream import best_spans
from vidtext.encoder import EncodedBatch, HierarchicalEncoder, ModelConfig, TransformerStack
from vidtext.metrics import Moment, Ranking, temporal_nms, tiou
from vidtext.pretrain import _mean_terms, hinge_loss, span_nll


# property tests draw the same examples on every run and keep no example database
settings.register_profile("vidtext", derandomize=True, database=None, deadline=None)
settings.load_profile("vidtext")


def detokenize(ids, vocab):
    return " ".join(vocab.tokens[i] for i in ids)


@pytest.fixture
def tiny_config():
    # dropout off: numeric tests are run deterministically
    return ModelConfig(
        d=16,
        cross_layers=1,
        cross_heads=2,
        temporal_layers=1,
        temporal_heads=2,
        vocab_size=30,
        frame_feature_dim=8,
        max_frames=16,
        max_tokens=12,
        ffn_multiplier=2,
        dropout=0.0,
    )


@pytest.fixture
def small_vocab():
    return Vocab.synthetic(30)


def make_clip(
    rng,
    vocab,
    groups=(3, 4),
    tokens=(4, 5),
    feat_dim=8,
    clip_id="clip-test",
    seconds_per_frame=1.0,
):
    """Build an AlignedClip directly, bypassing temporal alignment."""
    n_frames = sum(groups)
    feats = rng.standard_normal((n_frames, feat_dim))
    times = np.array([(i * seconds_per_frame, (i + 1) * seconds_per_frame) for i in range(n_frames)])
    sentences = []
    start = 0
    for k, n_tok in zip(groups, tokens):
        ids = [int(rng.integers(vocab.num_specials, vocab.size)) for _ in range(n_tok)]
        sentences.append(
            Sentence(
                text=detokenize(ids, vocab),
                token_ids=ids,
                t0=times[start][0],
                t1=times[start + k - 1][1],
                frame_indices=list(range(start, start + k)),
            )
        )
        start += k
    return AlignedClip(clip_id, sentences, feats, times)


@pytest.fixture
def toy_clip(tiny_config, small_vocab):
    rng = np.random.default_rng(7)
    return make_clip(rng, small_vocab, feat_dim=tiny_config.frame_feature_dim)


@pytest.fixture
def tiny_encoder(tiny_config):
    return HierarchicalEncoder(tiny_config, np.random.default_rng(0))


def slice_cols(a, lo, hi):
    """Columns ``lo:hi`` of a 2-D tensor, for the per-head and per-position
    test references."""
    return T.transpose(T.slice_rows(T.transpose(a), lo, hi))


def _rows(t, lo, hi):
    return t if lo == 0 and hi == t.shape[0] else T.slice_rows(t, lo, hi)


def embed_sentence(encoder, token_ids):
    """``embed_text`` of one sentence at positions 0, 1, ..., cut to max_tokens."""
    ids = list(token_ids)[: encoder.config.max_tokens]
    return encoder.embed_text(ids, np.arange(len(ids)))


def one_segment(v_emb, w_emb):
    """``cross_modal_forward``'s segments for one segment of every row."""
    return [tuple(np.arange(0 if x is None else x.shape[0]) for x in (v_emb, w_emb))]


def every_token(clips):
    """``fuse_clip``'s token positions of every token of every sentence."""
    return [[np.arange(len(s.token_ids)) for s in clip.sentences] for clip in clips]


def clip_rows(bounds, t):
    """Clip b's rows ``bounds[b]:bounds[b + 1]`` of the packed rows ``t``,
    clip by clip (``t`` itself when one clip owns every row)."""
    return [_rows(t, lo, hi) for lo, hi in zip(bounds[:-1], bounds[1:])]


def clip_views(batch):
    """Each clip of an ``EncodedBatch`` on its own: the clip and its rows of
    ``v_temp``."""
    v_temp = clip_rows(batch.frame_bounds, batch.v_temp)
    return [SimpleNamespace(clip=clip, v_temp=rows) for clip, rows in zip(batch.clips, v_temp)]


def fused_frames(encoder, clips, **kwargs):
    """``fuse_clip`` of ``clips``, keeping the frame rows, per clip: its
    embedded frame rows ``v_emb`` and its fused frame rows ``v_cross``."""
    bounds = np.cumsum([0] + [clip.n_frames for clip in clips])
    v_emb, v_cross = (clip_rows(bounds, t) for t in encoder.fuse_clip(clips, **kwargs))
    return [SimpleNamespace(v_emb=e, v_cross=c) for e, c in zip(v_emb, v_cross)]


def fused_tokens(encoder, clips, token_ids_overrides=None):
    """``fuse_clip`` of ``clips`` keeping every token row (``every_token``)
    of sentences within ``max_tokens``: per clip, each sentence's fused
    token rows (None for a sentence of no token)."""
    _, w_cross = encoder.fuse_clip(clips, token_ids_overrides, token_positions=every_token(clips))
    lo = np.cumsum([0] + [len(s.token_ids) for clip in clips for s in clip.sentences])
    rows = [_rows(w_cross, s, e) if e > s else None for s, e in zip(lo[:-1], lo[1:])]
    first = np.cumsum([0] + [len(clip.sentences) for clip in clips])
    return [rows[a:b] for a, b in zip(first[:-1], first[1:])]


# -- the full-row stack, kept as the reference of row pruning --


def ref_dropout(a, rate, rng):
    """Inverted dropout with a boolean keep mask, ``(a * keep) * scale``:
    the reference of ``tensor.dropout``."""
    if rate == 0.0 or rng is None:
        return a
    keep, scale = rng.random(a.data.shape) >= rate, 1.0 / (1.0 - rate)

    def bw(g):
        T._accum(a, (g * keep) * scale)

    return T._make((a.data * keep) * scale, (a,), bw)


def full_row_stack(stack, x, dropout=0.0, train_rng=None, grid=None):
    """A ``TransformerStack`` with every block on every row: the reference
    of running the last feed-forward sublayer on the caller's rows alone."""
    for block in stack.blocks:
        a = block.attn(block.ln1(x), grid=grid)
        x = x + ref_dropout(a, dropout, train_rng)
        f = block.ffn2(T.gelu(block.ffn1(block.ln2(x))))
        x = x + ref_dropout(f, dropout, train_rng)
    return stack.ln_out(x)


def _full_row_call(stack, x, dropout=0.0, train_rng=None, grid=None, rows=None):
    out = full_row_stack(stack, x, dropout, train_rng, grid)
    return out if rows is None else T.take_rows(out, rows)


def assert_kept_rows_equal(got, want, n_rows):
    """The kept rows equal the reference's bit for bit.  A single row kept
    of several goes through BLAS's matrix-vector product in place of its
    matrix product, which sums in another order, so it is held to 1e-12."""
    assert got.shape == want.shape
    if got.shape[0] == 1 < n_rows:
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
    else:
        assert got.tobytes() == want.tobytes()


@contextlib.contextmanager
def full_row_stacks():
    """Inside the block every ``TransformerStack`` runs ``full_row_stack``
    and gathers the caller's rows from its output."""
    original = TransformerStack.__call__
    TransformerStack.__call__ = _full_row_call
    try:
        yield
    finally:
        TransformerStack.__call__ = original


def assert_step_matches_full_rows(params, loss_fn):
    """``loss_fn()``'s loss equals the full-row reference's bit for bit and
    every parameter gradient is within rtol 1e-12 of it.  Gradient sums of
    the pruned sublayers run over fewer rows, so each entry also gets an
    absolute 1e-12 of the largest gradient entry: a gradient that is zero
    in exact arithmetic (a key bias's) is rounding noise on both sides."""
    outs = []
    for full in (False, True):
        T.zero_grads(params.values())
        with full_row_stacks() if full else contextlib.nullcontext():
            loss = loss_fn()
        T.backward(loss)
        outs.append((loss.data.tobytes(), {k: p.grad for k, p in params.items() if p.grad is not None}))
    (loss, grads), (ref_loss, ref_grads) = outs
    assert loss == ref_loss
    assert grads.keys() == ref_grads.keys()
    scale = max(np.abs(g).max() for g in ref_grads.values())
    for name, g in ref_grads.items():
        np.testing.assert_allclose(grads[name], g, rtol=1e-12, atol=1e-12 * scale, err_msg=name)


def ref_backward(loss):
    """The whole reverse walk with the graph kept linked, then one
    ``reset_tape``: the reference of ``tensor.backward``, which unlinks each
    op before its adjoint runs."""
    loss.grad = np.ones_like(loss.data)
    for t in reversed(T._TAPE):
        if t.grad is not None and t._bw is not None:
            t._bw(t.grad)
    T.reset_tape()


# -- the per-frame alignment loop, kept as the reference of the array one --


def _interval_overlap(a0, a1, b0, b1):
    return max(0.0, min(a1, b1) - max(a0, b0))


def _interval_gap(a0, a1, b0, b1):
    if a1 <= b0:
        return b0 - a1
    if b1 <= a0:
        return a0 - b1
    return 0.0


def _interval_tiou(a0, a1, b0, b1):
    union = max(a1, b1) - min(a0, b0)
    if union <= 0.0:
        return 0.0
    return _interval_overlap(a0, a1, b0, b1) / union


def loop_align(raw, vocab):
    """``data.align`` one frame and one subtitle at a time on Python floats,
    with the features stacked frame by frame: the reference of the grids."""
    frames = list(zip(raw.frame_times.tolist(), raw.frame_features))
    owner = []
    for (f0, f1), _ in frames:
        best_j, best_tiou = -1, 0.0
        for j, s in enumerate(raw.subs):
            if _interval_overlap(f0, f1, s.t0, s.t1) <= 0.0:
                continue
            tiou_j = _interval_tiou(f0, f1, s.t0, s.t1)
            if tiou_j > best_tiou:
                best_j, best_tiou = j, tiou_j
        if best_j < 0:
            gaps = [_interval_gap(f0, f1, s.t0, s.t1) for s in raw.subs]
            best_j = int(np.argmin(gaps))
        owner.append(best_j)

    groups = [[] for _ in raw.subs]
    for i, j in enumerate(owner):
        groups[j].append(i)

    sentences = []
    pending_text = []  # empty-group sentences with no predecessor yet
    for s, group in zip(raw.subs, groups):
        if not group:
            if sentences:
                prev = sentences[-1]
                prev.text = (prev.text + " " + s.text).strip()
                prev.t1 = max(prev.t1, s.t1)
            else:
                pending_text.append(s.text)
            continue
        text = s.text
        if pending_text:
            text = " ".join(pending_text + [text]).strip()
            pending_text.clear()
        sentences.append(Sentence(text=text, token_ids=[], t0=s.t0, t1=s.t1, frame_indices=group))

    for sent in sentences:
        sent.token_ids = tokenize(sent.text, vocab)

    feats = np.stack([np.asarray(feat, dtype=np.float64) for _, feat in frames])
    return AlignedClip(raw.clip_id, sentences, feats, np.array([t for t, _ in frames]))


def loop_adamw_step(params, m, v, step_count, lr, weight_decay, betas=(0.9, 0.999), eps=1e-8):
    """AdamW step ``step_count`` (from 1) one parameter array at a time: the
    reference of the flat-buffer ``tensor.AdamW.step``.  Replaces each
    ``p.data`` and each array of the moment dicts ``m`` and ``v``."""
    b1, b2 = betas
    bc1 = 1.0 - b1**step_count
    bc2 = 1.0 - b2**step_count
    for name, p in params.items():
        g = p.grad if p.grad is not None else np.zeros_like(p.data)
        mn = m[name] = b1 * m[name] + (1 - b1) * g
        vn = v[name] = b2 * v[name] + (1 - b2) * g * g
        update = (mn / bc1) / (np.sqrt(vn / bc2) + eps)
        p.data = p.data - lr * (update + weight_decay * p.data)


# -- the per-target span-matching path, kept as the reference of the batched one --


def loop_conv1d(x, kernel):
    """Same-padded 1-D cross-correlation of a length-n signal, one window
    at a time (the reference of ``tensor.conv1d``)."""
    k = kernel.data.shape[0]
    n = x.data.shape[0]
    half = k // 2
    xp = np.concatenate([np.zeros(half), x.data, np.zeros(half)])
    data = np.array([xp[i : i + k] @ kernel.data for i in range(n)])

    def bw(g):
        gp = np.concatenate([np.zeros(half), g, np.zeros(half)])
        dx = np.array([gp[i : i + k] @ kernel.data[::-1] for i in range(n)])
        dk = np.array([xp[j : j + n] @ g for j in range(k)])
        T._accum(x, dx)
        T._accum(kernel, dk)

    return T._make(data, (x, kernel), bw)


def window_conv1d(x, kernel):
    """Same-padded 1-D cross-correlation as one product of ``np.pad``'s
    sliding windows with the kernel: the reference of the tap-by-tap
    ``tensor.conv1d``."""
    k = kernel.data.shape[0]
    pad = [(0, 0)] * (x.data.ndim - 1) + [(k // 2, k // 2)]
    windows = np.lib.stride_tricks.sliding_window_view(np.pad(x.data, pad), k, axis=-1)
    data = windows @ kernel.data  # (..., n, k) windows times the kernel

    def bw(g):
        g_windows = np.lib.stride_tricks.sliding_window_view(np.pad(g, pad), k, axis=-1)
        T._accum(x, g_windows @ kernel.data[::-1])
        T._accum(kernel, g.reshape(-1) @ windows.reshape(-1, k))

    return T._make(data, (x, kernel), bw)


def ref_encode_query(model, query_token_ids, train_rng=None):
    """One query's (1, d) vector from its own frameless cross-modal pass."""
    w_emb = embed_sentence(model.encoder, query_token_ids)
    w_cross = model.encoder.cross_modal_forward(
        None, w_emb, one_segment(None, w_emb), train_rng=train_rng
    )
    qe = model.query_encoder
    alpha = T.softmax(T.matmul(w_cross, qe.pool) * (1.0 / np.sqrt(w_cross.shape[1])), axis=0)
    pooled = T.matmul(T.transpose(alpha), w_cross)  # (1, d)
    return qe.ln(qe.lin2(T.gelu(qe.lin1(pooled))))


def ref_global_alignment_score(v_temp, q):
    """Max over one clip's frames of cosine(frame row, query)."""
    dots = T.reshape(T.matmul(v_temp, T.transpose(q)), (-1,))
    row_norms = T.sqrt((v_temp * v_temp).sum(axis=1) + 1e-24)
    q_norm = T.sqrt((q * q).sum() + 1e-24)
    return T.vmax(dots * T.reciprocal(row_norms * q_norm), axis=0)


def ref_vsm_scores(model, v_temp, q):
    """One clip's (N_v, d) rows against one query: (s_global, log_p_st, log_p_ed)."""
    s_local = T.reshape(T.matmul(v_temp, T.transpose(q)), (-1,))
    log_p_st = T.log_softmax(loop_conv1d(s_local, model.span_st_filter))
    log_p_ed = T.log_softmax(loop_conv1d(s_local, model.span_ed_filter))
    return ref_global_alignment_score(v_temp, q), log_p_st, log_p_ed


def ref_vsm_loss(model, encoded_clips, targets_per_clip, hypers, train_rng=None):
    """Per-target span matching: one query pass, one score call and one
    pair of hinges per target, then the mean over targets."""
    n_clips = len(encoded_clips)
    queries = [
        [ref_encode_query(model, t.query_token_ids, train_rng=train_rng) for t in targets]
        for targets in targets_per_clip
    ]
    local_terms, global_terms = [], []
    for b, targets in enumerate(targets_per_clip):
        other = (b + 1) % n_clips
        v_own = encoded_clips[b].v_temp
        v_other = encoded_clips[other].v_temp
        for m, target in enumerate(targets):
            q = queries[b][m]
            s_pos, log_p_st, log_p_ed = ref_vsm_scores(model, v_own, q)
            local_terms.append(span_nll(log_p_st, log_p_ed, target.span))
            neg_queries = queries[other]
            q_hat = neg_queries[m % len(neg_queries)]
            s_neg_query = ref_global_alignment_score(v_own, q_hat)
            s_neg_clip = ref_global_alignment_score(v_other, q)
            global_terms.append(
                hinge_loss(s_pos, s_neg_query, hypers.margin)
                + hinge_loss(s_pos, s_neg_clip, hypers.margin)
            )
    l_local = _mean_terms(local_terms)
    l_global = _mean_terms(global_terms)
    return hypers.lambda_local * l_local + hypers.lambda_global * l_global


# -- the per-clip ranking path, kept as the reference of the batched one --


def loop_best_spans(p_st, p_ed, top_n=5):
    """One clip's highest-probability (start, end, p_st*p_ed) pairs with
    start <= end, from every pair sorted by (-p, start, end): the reference
    of the batched ``downstream.best_spans``."""
    n = len(p_st)
    scored = [
        (st, ed, float(p_st[st] * p_ed[ed])) for st in range(n) for ed in range(st, n)
    ]
    scored.sort(key=lambda x: (-x[2], x[0], x[1]))
    return scored[:top_n]


def ref_temporal_nms(moments, threshold):
    """Greedy suppression that compares each candidate with every kept
    moment: the reference of ``metrics.temporal_nms``."""
    kept = []
    for cand in moments:
        if all(
            k.clip_id != cand.clip_id or tiou(k.span, cand.span) <= threshold for k in kept
        ):
            kept.append(cand)
    return kept


def loop_temporal_nms(moments, threshold):
    """Greedy suppression of a score-descending ``Ranking`` one candidate at
    a time, with one ``tiou`` call per kept span of its clip id: the
    reference of the rounds in ``metrics.temporal_nms``."""
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


def nms_moments(moments, threshold):
    """``metrics.temporal_nms`` of a list of Moments: the kept Moments
    themselves, in order.  Each moment gets its own clip index into a tuple
    of the moments' clip ids, so suppression still goes by clip id and the
    kept indices lead back to the input objects."""
    ranked = Ranking(
        tuple(m.clip_id for m in moments),
        np.arange(len(moments)),
        [m.span[0] for m in moments],
        [m.span[1] for m in moments],
        [m.score for m in moments],
    )
    return [moments[i] for i in temporal_nms(ranked, threshold).clip.tolist()]


def ref_rank_moments(model, encoded_clips, query_token_ids, spans_per_clip=5):
    """Per-clip ranking: one score call per clip."""
    with T.no_grad():
        q = ref_encode_query(model, query_token_ids)
        out = []
        for enc in encoded_clips:
            clip = enc.clips[0]
            s_global, log_p_st, log_p_ed = ref_vsm_scores(model, enc.v_temp, q)
            clip_score = (1.0 + s_global.item()) / 2.0
            p_st, p_ed = np.exp(log_p_st.data), np.exp(log_p_ed.data)
            for st, ed, p in loop_best_spans(p_st, p_ed, spans_per_clip):
                out.append(Moment(clip.clip_id, clip.frame_seconds((st, ed)), clip_score * p))
        out.sort(key=lambda m: -m.score)
        return out


def rows_batch(v_temp, bounds):
    """An ``EncodedBatch`` of ``v_temp`` rows, clip b owning rows
    ``bounds[b]:bounds[b + 1]``.  Its clips are placeholders of as many
    frames, with no sentence and one-second frames: span matching reads
    only ``v_temp`` and ``frame_bounds``."""
    clips = []
    for b, n in enumerate(np.diff(bounds)):
        t = np.arange(n + 1.0)
        clips.append(AlignedClip(f"rows{b}", [], np.zeros((n, 1)), np.stack([t[:-1], t[1:]], 1)))
    return EncodedBatch(clips, np.asarray(bounds), v_temp)


def stacked_vsm_scores(model, encoded, query_token_ids):
    """One query against every clip of ``encoded``, the clip rows joined for
    this query alone: ``v_temp`` stacked and its row norms computed again."""
    with T.no_grad():
        v_temp = T.Tensor(np.concatenate([enc.v_temp.data for enc in encoded]))
        bounds = np.cumsum([0] + [clip.n_frames for enc in encoded for clip in enc.clips])
        q = model.encode_query([query_token_ids])
        return model.vsm_scores_for_query(rows_batch(v_temp, bounds), q)


def stacked_rank_moments(model, encoded, query_token_ids, spans_per_clip=5):
    """``rank_moments`` preparing nothing ahead: every call stacks the clips'
    rows, recomputes their norms and rebuilds the frame times and the clip
    ids.  The reference that ranking over a cached join must equal byte for byte."""
    clips = [clip for enc in encoded for clip in enc.clips]
    scores = stacked_vsm_scores(model, encoded, query_token_ids)
    s_global = scores.s_global.data[:, 0]
    p_st, p_ed = (np.exp(x.data)[:, 0] for x in (scores.log_p_st, scores.log_p_ed))
    lengths = [c.n_frames for c in clips]
    clip, st, ed, p = best_spans(p_st, p_ed, lengths, spans_per_clip)
    first_row = np.cumsum([0] + lengths)[clip]
    times = np.concatenate([enc.frame_times for enc in encoded])
    start, end = times[first_row + st, 0], times[first_row + ed, 1]
    score = ((1.0 + s_global) / 2.0)[clip] * p
    order = np.argsort(-score, kind="stable")
    clip_ids = tuple(c.clip_id for c in clips)
    return Ranking(clip_ids, clip[order], start[order], end[order], score[order])
