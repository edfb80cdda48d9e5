import os

# the CLI's one BLAS thread, set before numpy loads; a value the user set wins
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import settings

from vidtext import tensor as T
from vidtext.data import AlignedClip, Sentence, Vocab
from vidtext.encoder import HierarchicalEncoder, ModelConfig
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
    times = [(i * seconds_per_frame, (i + 1) * seconds_per_frame) for i in range(n_frames)]
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


def clip_views(batch):
    """Each clip of an ``EncodedBatch`` on its own: row slices of the packed
    ``v_emb``, ``v_cross`` and ``v_temp`` (the tensors themselves when the
    batch is that clip alone), ``w_cross`` per sentence (None for a sentence
    of no token), and the clip's attention grids."""
    views = []
    for b, (lo, hi) in enumerate(zip(batch.frame_bounds[:-1], batch.frame_bounds[1:])):
        starts = batch.token_bounds[b]
        views.append(SimpleNamespace(
            clip=batch.clips[b],
            w_cross=[
                _rows(batch.w_cross, s, e) if e > s else None
                for s, e in zip(starts[:-1], starts[1:])
            ],
            v_emb=_rows(batch.v_emb, lo, hi),
            v_cross=_rows(batch.v_cross, lo, hi),
            v_temp=_rows(batch.v_temp, lo, hi),
            attention=batch.attention[b],
        ))
    return views


def ref_backward(loss):
    """The whole reverse walk with the graph kept linked, then one
    ``reset_tape``: the reference of ``tensor.backward``, which unlinks each
    op before its adjoint runs."""
    loss.grad = np.ones_like(loss.data)
    for t in reversed(T._TAPE):
        if t.grad is not None and t._bw is not None:
            t._bw(t.grad)
    T.reset_tape()


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


def ref_encode_query(model, query_token_ids, train_rng=None):
    """One query's (1, d) vector from its own frameless cross-modal pass."""
    w_emb = model.encoder.embed_text(query_token_ids)
    _, w_cross = model.encoder.cross_modal_forward(None, w_emb, train_rng=train_rng)
    qe = model.query_encoder
    alpha = T.softmax(T.matmul(w_cross, qe.pool) * (1.0 / np.sqrt(w_cross.shape[1])), axis=0)
    pooled = T.matmul(alpha.T, w_cross)  # (1, d)
    return qe.ln(qe.lin2(T.gelu(qe.lin1(pooled))))


def ref_global_alignment_score(v_temp, q):
    """Max over one clip's frames of cosine(frame row, query)."""
    dots = T.reshape(T.matmul(v_temp, q.T), (-1,))
    row_norms = T.sqrt((v_temp * v_temp).sum(axis=1) + 1e-24)
    q_norm = T.sqrt((q * q).sum() + 1e-24)
    return T.vmax(dots * T.reciprocal(row_norms * q_norm), axis=0)


def ref_vsm_scores(model, v_temp, q):
    """One clip's (N_v, d) rows against one query: (s_global, log_p_st, log_p_ed)."""
    s_local = T.reshape(T.matmul(v_temp, q.T), (-1,))
    log_p_st = T.log_softmax(loop_conv1d(s_local, model.span_st_filter), axis=-1)
    log_p_ed = T.log_softmax(loop_conv1d(s_local, model.span_ed_filter), axis=-1)
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
