"""The two-level encoder: input embedders, a cross-modal transformer fusing
each subtitle sentence with its frame group, and a temporal transformer over
the whole clip with a positional residual.

Each stage is read only in part, so each caller names the rows it reads,
and in the stack's last block only those rows query and go on through the
feed-forward sublayer (see ``TransformerBlock``): a clip pass keeps the
fused frame rows, masked token modeling keeps its masked token rows and
runs no temporal stage, and the frame objectives keep the temporal rows
their heads read.  An encoded clip keeps only its temporal rows (an
``EncodedBatch``); the embedder and fused rows it came from are not kept.
"""

from __future__ import annotations

import functools
import logging
from dataclasses import asdict, dataclass, fields
from typing import Sequence

import numpy as np

from . import tensor as T
from .data import AlignedClip
from .errors import ConfigError, ShapeError, UsageError

log = logging.getLogger(__name__)


@dataclass
class ModelConfig:
    d: int = 64
    cross_layers: int = 2
    cross_heads: int = 4
    temporal_layers: int = 1
    temporal_heads: int = 4
    vocab_size: int = 128
    frame_feature_dim: int = 32
    max_frames: int = 64
    max_tokens: int = 48
    ffn_multiplier: int = 4
    dropout: float = 0.1

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if f.type == "int" and (isinstance(value, bool) or not isinstance(value, int) or value < 1):
                raise ConfigError(f"{f.name} must be an integer of at least 1, got {value!r}")
        for heads in (self.cross_heads, self.temporal_heads):
            if self.d % heads != 0:
                raise ConfigError(f"hidden size {self.d} not divisible by head count {heads}")
        if not 0 <= self.dropout < 1:
            raise ConfigError(f"dropout must be in [0, 1), got {self.dropout}")

    @classmethod
    def full_scale(cls, vocab_size: int = 50272) -> "ModelConfig":
        """The large preset: 6x768x12 fusion, 3x768x12 temporal, 4352-dim frames."""
        return cls(
            d=768,
            cross_layers=6,
            cross_heads=12,
            temporal_layers=3,
            temporal_heads=12,
            vocab_size=vocab_size,
            frame_feature_dim=4352,
            max_frames=100,
            max_tokens=64,
        )

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "ModelConfig":
        return cls(**d)


# -- parameter containers ----------------------------------------------------


class Module:
    """A parameter container whose checkpoint names are attribute paths.

    A Tensor attribute is named by the attribute, a Module attribute nests
    its names under the attribute, and each Module in a list attribute nests
    under its index alone.  Names come out in attribute assignment order.
    """

    def params(self, prefix: str = "") -> dict[str, T.Tensor]:
        out: dict[str, T.Tensor] = {}
        for name, value in vars(self).items():
            items = enumerate(value) if isinstance(value, list) else [(name, value)]
            for key, item in items:
                path = f"{prefix}.{key}" if prefix else str(key)
                if isinstance(item, T.Tensor):
                    out[path] = item
                elif isinstance(item, Module):
                    out.update(item.params(path))
        return out


class Projection(Module):
    """``x @ w`` with no bias: for a layer whose output feeds a softmax that
    cancels any bias, so that a bias there would get no gradient."""

    def __init__(self, rng: np.random.Generator, fan_in: int, fan_out: int, init: str = "xavier"):
        if init == "xavier":
            bound = np.sqrt(6.0 / (fan_in + fan_out))
            w = rng.uniform(-bound, bound, size=(fan_in, fan_out))
        elif init == "small":
            # task heads use a tight init so untrained logits sit near zero
            w = rng.normal(0.0, 0.02, size=(fan_in, fan_out))
        else:
            raise ConfigError(f"unknown init {init!r}")
        self.w = T.Tensor(w, requires_grad=True)

    def __call__(self, x: T.Tensor) -> T.Tensor:
        return T.matmul(x, self.w)


class Linear(Projection):
    """``x @ w + b``; the bias starts at zeros and draws nothing from ``rng``."""

    def __init__(self, rng: np.random.Generator, fan_in: int, fan_out: int, init: str = "xavier"):
        super().__init__(rng, fan_in, fan_out, init)
        self.b = T.Tensor(np.zeros(fan_out), requires_grad=True)

    def __call__(self, x: T.Tensor) -> T.Tensor:
        return T.linear(x, self.w, self.b)



class LayerNorm(Module):
    def __init__(self, d: int):
        self.gain = T.Tensor(np.ones(d), requires_grad=True)
        self.bias = T.Tensor(np.zeros(d), requires_grad=True)

    def __call__(self, x: T.Tensor) -> T.Tensor:
        return T.layer_norm(x, self.gain, self.bias)



class EmbeddingTable(Module):
    def __init__(self, rng: np.random.Generator, rows: int, d: int):
        self.table = T.Tensor(rng.normal(0.0, 0.02, size=(rows, d)), requires_grad=True)

    def __call__(self, ids) -> T.Tensor:
        return T.take_rows(self.table, ids)



class MultiHeadAttention(Module):
    """Multi-head attention over the last two axes of ``x`` (..., n, d);
    leading axes are batch axes.  Self-attention by default, cross-attention
    when ``kv`` rows are supplied.  ``key_mask`` is boolean and broadcasts
    against each head's (..., n_queries, n_keys) score grid: (n_keys,), a
    full (n_queries, n_keys) grid (e.g. causal), or (batch, 1, n_keys).
    With a row ``grid`` (see ``tensor.attention``), ``x`` is packed (N, d)
    rows of several sequences and only the attention op sees padding; then
    ``rows`` names the rows that query (all by default), and the output
    holds those rows alone, in that order.

    The key projection ``wk`` has no bias: a key bias b adds q·b to every
    score of query q, a shift that the softmax over keys cancels, so it
    would get no gradient.  The query, value and output projections keep
    theirs."""

    def __init__(self, rng: np.random.Generator, d: int, heads: int):
        self.heads = heads
        self.wq = Linear(rng, d, d)
        self.wk = Projection(rng, d, d)
        self.wv = Linear(rng, d, d)
        self.wo = Linear(rng, d, d)

    def __call__(
        self,
        x: T.Tensor,
        key_mask: np.ndarray | None = None,
        kv: T.Tensor | None = None,
        grid: np.ndarray | None = None,
        rows: np.ndarray | None = None,
    ) -> T.Tensor:
        source = x if kv is None else kv
        bias = None if key_mask is None else np.where(key_mask, 0.0, T.ATTENTION_MASK_BIAS)
        q = self.wq(x if rows is None else T.take_rows(x, rows))
        out, _ = T.attention(q, self.wk(source), self.wv(source), self.heads, bias, grid=grid, rows=rows)
        return self.wo(out)



class TransformerBlock(Module):
    """Pre-LN block: x += attn(LN(x)); x += ffn(LN(x)).

    With ``rows``, only those rows, in that order, query in the attention
    sublayer; keys and values still come from every row.  The output
    projection, both residuals and the feed-forward sublayer run on those
    rows alone.  Each dropout mask is drawn for every row (see
    ``tensor.dropout``), so the kept rows and the generator's next draw are
    those of a full-row pass.  Inside ``tensor.record_attention`` every row
    queries and ``take_rows`` keeps the rows after attention, so the
    recorded grids stay square; the outputs are the same, but the key and
    value gradients then also sum the zero gradients of the other rows, in
    another order, so training steps there may differ in the last bits."""

    def __init__(self, rng: np.random.Generator, d: int, heads: int, ffn_multiplier: int):
        self.ln1 = LayerNorm(d)
        self.attn = MultiHeadAttention(rng, d, heads)
        self.ln2 = LayerNorm(d)
        self.ffn1 = Linear(rng, d, d * ffn_multiplier)
        self.ffn2 = Linear(rng, d * ffn_multiplier, d)

    def __call__(self, x, dropout=0.0, train_rng=None, grid=None, rows=None):
        queries = None if T.recording_attention() else rows
        a = self.attn(self.ln1(x), grid=grid, rows=queries)
        n_rows = x.shape[0]
        if rows is not None:
            x = T.take_rows(x, rows)
            if queries is None:
                a = T.take_rows(a, rows)
        x = x + T.dropout(a, dropout, train_rng, rows=rows, n_rows=n_rows)
        f = self.ffn2(T.gelu(self.ffn1(self.ln2(x))))
        return x + T.dropout(f, dropout, train_rng, rows=rows, n_rows=n_rows)



class TransformerStack(Module):
    """Transformer blocks and a final layer norm.  ``rows`` lists the rows,
    in order, that the caller reads: only they query in the last block's
    attention, its later sublayers and ``ln_out`` run on them alone, and the
    output holds just them (every row when None)."""

    def __init__(self, rng, d: int, layers: int, heads: int, ffn_multiplier: int):
        self.blocks = [TransformerBlock(rng, d, heads, ffn_multiplier) for _ in range(layers)]
        self.ln_out = LayerNorm(d)

    def __call__(self, x, dropout=0.0, train_rng=None, grid=None, rows=None):
        *inner, last = self.blocks
        for block in inner:
            x = block(x, dropout=dropout, train_rng=train_rng, grid=grid)
        return self.ln_out(last(x, dropout=dropout, train_rng=train_rng, grid=grid, rows=rows))



# -- the encoder --------------------------------------------------------------


def frame_rows(bounds: np.ndarray, positions: Sequence[Sequence[int]]) -> np.ndarray:
    """Packed row indices of each clip's frame ``positions``, clip by clip,
    clip b's rows starting at ``bounds[b]``."""
    return np.concatenate([lo + np.asarray(p, dtype=np.intp) for lo, p in zip(bounds, positions)])


@dataclass(frozen=True)
class EncodedBatch:
    """The temporal rows (global context) of a batch of clips, packed: clip
    b owns rows ``frame_bounds[b]:frame_bounds[b + 1]`` of ``v_temp``, for
    every producer.  A clip pass keeps every frame row, in timestamp order;
    ``encode_clips`` given frame orders keeps them in those orders, and
    given temporal positions keeps those rows alone, and then has no
    ``frame_times``.  The fields are set once, and the
    cached properties read their arrays as immutable too.
    """

    clips: list[AlignedClip]
    frame_bounds: np.ndarray  # (B + 1,)
    v_temp: T.Tensor

    @classmethod
    def join(cls, batches: Sequence["EncodedBatch"]) -> "EncodedBatch":
        """The clips and ``v_temp`` rows of ``batches``, in order, as one
        batch off the tape: what ranking reads of an encoded corpus."""
        clips = [clip for batch in batches for clip in batch.clips]
        bounds = np.cumsum([0] + [n for batch in batches for n in np.diff(batch.frame_bounds)])
        v_temp = T.Tensor(np.concatenate([batch.v_temp.data for batch in batches]))
        return cls(clips, bounds, v_temp)

    @functools.cached_property
    def frame_times(self) -> np.ndarray:
        """The clips' ``frame_times`` as one (N, 2) array: the start and end
        seconds of each packed frame row, clip by clip.  A batch in which a
        clip does not own one row per frame (one that ``temporal_positions``
        pruned) has no such times: reading them is a UsageError.  A batch
        that ``frame_orders`` reordered still owns one row per frame, so the
        check passes it: not ranking such a batch remains the caller's
        precondition."""
        if not np.array_equal(np.diff(self.frame_bounds), [clip.n_frames for clip in self.clips]):
            raise UsageError("frame_times needs a batch that keeps every frame row of its clips")
        return np.concatenate([clip.frame_times for clip in self.clips])

    @functools.cached_property
    def clip_ids(self) -> tuple[str, ...]:
        return tuple(clip.clip_id for clip in self.clips)

    @functools.cached_property
    def slot_grid(self) -> tuple[np.ndarray, np.ndarray]:
        """The clips' (B, longest clip) ``tensor.padded_slots`` and real mask."""
        if (np.diff(self.frame_bounds) < 1).any():
            raise UsageError("vsm scoring needs at least one frame in every clip")
        return T.padded_slots(self.frame_bounds)

    @functools.cached_property
    def row_norms(self) -> T.Tensor:
        """(N, 1) norms of the ``v_temp`` rows as N (1, d) @ (d, 1) products,
        no (N, d) temporary; on the tape they follow their first reader."""
        n, d = self.v_temp.shape
        squares = T.matmul(T.reshape(self.v_temp, (n, 1, d)), T.reshape(self.v_temp, (n, d, 1)))
        return T.sqrt(T.reshape(squares, (n, 1)) + 1e-24)


class HierarchicalEncoder(Module):
    """Embeds tokens and frames, fuses each sentence with its frame group,
    then contextualizes the reassembled clip with the temporal stack."""

    def __init__(self, config: ModelConfig, rng: np.random.Generator):
        self.config = config
        c = config
        self.token_emb = EmbeddingTable(rng, c.vocab_size, c.d)
        self.text_pos = EmbeddingTable(rng, c.max_tokens, c.d)
        self.text_ln = LayerNorm(c.d)
        self.frame_fc = Linear(rng, c.frame_feature_dim, c.d)
        self.frame_pos = EmbeddingTable(rng, c.max_frames, c.d)
        self.frame_ln = LayerNorm(c.d)
        self.cross = TransformerStack(rng, c.d, c.cross_layers, c.cross_heads, c.ffn_multiplier)
        self.temporal = TransformerStack(
            rng, c.d, c.temporal_layers, c.temporal_heads, c.ffn_multiplier
        )


    # -- embedders -----------------------------------------------------------

    def embed_text(
        self, sentences: Sequence[Sequence[int]]
    ) -> tuple[T.Tensor | None, np.ndarray]:
        """LN(token embedding + position embedding) of every sentence, each
        cut to ``max_tokens`` ids and embedded at positions 0, 1, ..., packed
        sentence by sentence: sentence j owns rows ``bounds[j]:bounds[j + 1]``.
        Returns ``(rows, bounds)``; ``rows`` is None when no sentence has a
        token.  Logs one warning per call when it cuts a sentence."""
        cap = self.config.max_tokens
        n_cut = sum(len(ids) > cap for ids in sentences)
        if n_cut:
            log.warning("%d of %d sentences truncated to max_tokens=%d", n_cut, len(sentences), cap)
        kept = [list(ids)[:cap] for ids in sentences]
        bounds = np.cumsum([0] + [len(ids) for ids in kept])
        ids = [i for sentence in kept for i in sentence]
        if not ids:
            return None, bounds
        if max(ids) >= self.config.vocab_size or min(ids) < 0:
            raise IndexError(f"token id out of range [0, {self.config.vocab_size})")
        positions = np.concatenate([np.arange(len(sentence)) for sentence in kept])
        return self.text_ln(self.token_emb(ids) + self.text_pos(positions)), bounds

    def embed_video(self, features: np.ndarray, positions) -> T.Tensor:
        """LN(FC(features) + position embedding) at the given per-row frame
        ``positions``."""
        features = np.asarray(features, dtype=np.float64)
        if features.ndim != 2 or features.shape[1] != self.config.frame_feature_dim:
            raise ShapeError(
                f"frame features {features.shape} do not match "
                f"frame_feature_dim={self.config.frame_feature_dim}"
            )
        positions = np.asarray(positions, dtype=np.intp)
        if positions.max(initial=0) >= self.config.max_frames:
            raise ShapeError(
                f"frame position {positions.max()} exceeds max_frames={self.config.max_frames}"
            )
        proj = self.frame_fc(T.Tensor(features))
        pos = self.frame_pos(positions)
        return self.frame_ln(proj + pos)

    # -- transformer stages ----------------------------------------------------

    def cross_modal_forward(
        self,
        v_emb: T.Tensor | None,
        w_emb: T.Tensor | None,
        segments: Sequence[tuple[np.ndarray, np.ndarray]],
        train_rng: np.random.Generator | None = None,
        rows: np.ndarray | None = None,
    ) -> T.Tensor:
        """Self-attention within each segment's joint [frames | tokens]
        sequence, returning the fused rows the caller reads.

        ``segments`` lists each segment's frame rows (into ``v_emb``) and
        token rows (into ``w_emb``) and must use every row exactly once (the
        first block's attention raises a ShapeError otherwise).  The
        stack runs on the packed rows ``[v_emb; w_emb]``; only attention sees
        the segments, as an (S, L) row grid padded to the longest segment.
        Either side may be absent (the query path passes no frames).

        ``rows`` lists the packed rows the caller reads, in any order; the
        stack keeps only those (see ``TransformerStack``) and returns them in
        that order.  By default it returns every row.
        """
        if v_emb is None and w_emb is None:
            raise UsageError("cross_modal_forward needs at least one modality")
        parts = [p for p in (v_emb, w_emb) if p is not None]
        n_v = v_emb.shape[0] if v_emb is not None else 0
        n_rows = sum(p.shape[0] for p in parts)
        joint = [  # each segment's packed rows: frames, then tokens after all frames
            np.concatenate([np.asarray(f, dtype=np.intp), n_v + np.asarray(t, dtype=np.intp)])
            for f, t in segments
        ]
        if min(len(rows) for rows in joint) == 0:
            raise UsageError("cross_modal_forward needs at least one row in every segment")
        return self.cross(
            parts[0] if len(parts) == 1 else T.concat_rows(parts),
            dropout=self.config.dropout,
            train_rng=train_rng,
            grid=T.row_grid(joint, n_rows),
            rows=rows,
        )

    def temporal_apply(
        self,
        x: T.Tensor,
        train_rng: np.random.Generator | None = None,
        grid: np.ndarray | None = None,
        rows: np.ndarray | None = None,
    ) -> T.Tensor:
        """The temporal stack over ``x``; with a row ``grid``, ``x`` packs
        several sequences (see ``tensor.attention``).  The output holds the
        ``rows`` of ``x`` the caller reads, in order (all by default)."""
        return self.temporal(
            x, dropout=self.config.dropout, train_rng=train_rng, grid=grid, rows=rows
        )

    def temporal_forward(
        self,
        v_emb: T.Tensor,
        v_cross: T.Tensor,
        train_rng: np.random.Generator | None = None,
        grid: np.ndarray | None = None,
        order: np.ndarray | None = None,
        rows: np.ndarray | None = None,
    ) -> T.Tensor:
        """f_temp(V_emb + V_cross): the embedder residual carries position
        information into the temporal stack.  ``order`` gathers the summed
        rows before the stack (frame order modeling's shuffle); ``grid`` and
        ``rows`` (into the gathered rows) are ``temporal_apply``'s."""
        if v_emb.shape != v_cross.shape:
            raise ShapeError(f"residual shape {v_emb.shape} != fused shape {v_cross.shape}")
        x = v_emb + v_cross
        if order is not None:
            x = T.take_rows(x, order)
        return self.temporal_apply(x, train_rng=train_rng, grid=grid, rows=rows)

    # -- whole-clip pipeline -----------------------------------------------------

    def fuse_clip(
        self,
        clips: Sequence[AlignedClip],
        token_ids_overrides: Sequence[Sequence[Sequence[int]]] | None = None,
        frame_features_overrides: Sequence[np.ndarray] | None = None,
        train_rng: np.random.Generator | None = None,
        token_positions: Sequence[Sequence[Sequence[int]]] | None = None,
    ) -> tuple[T.Tensor, T.Tensor]:
        """The cross-modal stage of ``encode_clips``: embed every frame (in
        timestamp order) once, every sentence of every clip in one
        ``embed_text`` call (which cuts each to ``max_tokens``), then fuse
        every sentence with its frame group in one cross-modal pass.
        Overrides, one entry per clip (its sentences' token ids, or its frame
        features), substitute masked inputs without touching the clips.

        Returns ``(v_emb, fused)``: the embedded frame rows, clip by clip,
        and the rows the cross stack kept.  It keeps the fused frame rows,
        all that the temporal stage reads, in ``v_emb``'s order.  With
        ``token_positions`` (``token_positions[b][j]`` lists positions into
        sentence j of clip b, as cut) it keeps those token rows instead, clip
        by clip and sentence by sentence."""
        for clip in clips:
            if clip.n_frames > self.config.max_frames:
                raise ShapeError(
                    f"clip {clip.clip_id!r} has {clip.n_frames} frames, "
                    f"max_frames={self.config.max_frames}"
                )
        features = frame_features_overrides or [clip.frame_features for clip in clips]
        per_clip = token_ids_overrides or [[s.token_ids for s in clip.sentences] for clip in clips]
        frame_bounds = np.cumsum([0] + [clip.n_frames for clip in clips])
        v_emb = self.embed_video(
            np.concatenate(features), np.concatenate([np.arange(clip.n_frames) for clip in clips])
        )
        w_emb, token_lo = self.embed_text([ids for clip_ids in per_clip for ids in clip_ids])
        sentence_lo = np.cumsum([0] + [len(clip.sentences) for clip in clips])
        segments = [
            (lo + np.asarray(sent.frame_indices, dtype=np.intp), np.arange(*token_lo[k : k + 2]))
            for clip, lo, k0 in zip(clips, frame_bounds, sentence_lo)
            for k, sent in enumerate(clip.sentences, start=k0)
        ]
        if token_positions is None:
            rows = np.arange(frame_bounds[-1])
        else:
            per_sentence = [p for clip_positions in token_positions for p in clip_positions]
            rows = frame_bounds[-1] + frame_rows(token_lo, per_sentence)
        fused = self.cross_modal_forward(v_emb, w_emb, segments, train_rng=train_rng, rows=rows)
        return v_emb, fused

    def encode_clips(
        self,
        clips: Sequence[AlignedClip],
        frame_features_overrides: Sequence[np.ndarray] | None = None,
        frame_orders: Sequence[np.ndarray] | None = None,
        train_rng: np.random.Generator | None = None,
        temporal_positions: Sequence[Sequence[int]] | None = None,
    ) -> EncodedBatch:
        """Encode a batch of clips in one packed pass: one ``fuse_clip`` over
        all clips, then one ``temporal_forward`` over a (B, longest clip) row
        grid.  ``frame_orders[b]`` lists the fused frame rows clip b's
        temporal stack reads, in order (see ``ReorderPlan.permutation``).
        With ``temporal_positions``, ``v_temp`` keeps only the temporal rows
        at those positions of each clip (after its frame order), clip by
        clip, and ``frame_bounds`` bounds those rows."""
        v_emb, v_cross = self.fuse_clip(
            clips, frame_features_overrides=frame_features_overrides, train_rng=train_rng
        )
        bounds = np.cumsum([0] + [clip.n_frames for clip in clips])
        order = None if frame_orders is None else frame_rows(bounds, frame_orders)
        rows = None if temporal_positions is None else frame_rows(bounds, temporal_positions)
        frames = [np.arange(lo, hi) for lo, hi in zip(bounds[:-1], bounds[1:])]
        grid = T.row_grid(frames, bounds[-1])
        v_temp = self.temporal_forward(
            v_emb, v_cross, train_rng=train_rng, grid=grid, order=order, rows=rows
        )
        if temporal_positions is not None:
            bounds = np.cumsum([0] + [len(p) for p in temporal_positions])
        return EncodedBatch(list(clips), bounds, v_temp)

    def encode_clip(
        self, clip: AlignedClip, train_rng: np.random.Generator | None = None
    ) -> EncodedBatch:
        """``encode_clips`` of a batch of one."""
        return self.encode_clips([clip], train_rng=train_rng)
