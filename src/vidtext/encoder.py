"""The two-level encoder: input embedders, a cross-modal transformer fusing
each subtitle sentence with its frame group, and a temporal transformer over
the whole clip with a positional residual.
"""

from __future__ import annotations

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


class Linear(Module):
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
        self.b = T.Tensor(np.zeros(fan_out), requires_grad=True)

    def __call__(self, x: T.Tensor) -> T.Tensor:
        return T.linear(x, self.w, self.b)



class LayerNorm(Module):
    def __init__(self, d: int, eps: float = 1e-5):
        self.gain = T.Tensor(np.ones(d), requires_grad=True)
        self.bias = T.Tensor(np.zeros(d), requires_grad=True)
        self.eps = eps

    def __call__(self, x: T.Tensor) -> T.Tensor:
        return T.layer_norm(x, self.gain, self.bias, eps=self.eps)



class EmbeddingTable(Module):
    def __init__(self, rng: np.random.Generator, rows: int, d: int):
        self.table = T.Tensor(rng.normal(0.0, 0.02, size=(rows, d)), requires_grad=True)

    def __call__(self, ids) -> T.Tensor:
        return T.embedding(self.table, ids)



class MultiHeadAttention(Module):
    """Multi-head attention over the last two axes of ``x`` (..., n, d);
    leading axes are batch axes.  Self-attention by default, cross-attention
    when ``kv`` rows are supplied.  ``key_mask`` is boolean and broadcasts
    against each head's (..., n_queries, n_keys) score grid: (n_keys,), a
    full (n_queries, n_keys) grid (e.g. causal), or (batch, 1, n_keys).
    With a row ``grid`` (see ``tensor.attention``), ``x`` is packed (N, d)
    rows of several sequences and only the attention op sees padding."""

    def __init__(self, rng: np.random.Generator, d: int, heads: int):
        self.heads = heads
        self.wq = Linear(rng, d, d)
        self.wk = Linear(rng, d, d)
        self.wv = Linear(rng, d, d)
        self.wo = Linear(rng, d, d)

    def __call__(
        self,
        x: T.Tensor,
        key_mask: np.ndarray | None = None,
        capture: list | None = None,
        kv: T.Tensor | None = None,
        grid: np.ndarray | None = None,
    ) -> T.Tensor:
        source = x if kv is None else kv
        bias = None if key_mask is None else np.where(key_mask, 0.0, T.ATTENTION_MASK_BIAS)
        out, weights = T.attention(
            self.wq(x), self.wk(source), self.wv(source), self.heads, bias, grid=grid
        )
        if capture is not None:
            capture.extend(weights.copy())  # one entry per head, or per batch entry
        return self.wo(out)



class TransformerBlock(Module):
    """Pre-LN block: x += attn(LN(x)); x += ffn(LN(x))."""

    def __init__(self, rng: np.random.Generator, d: int, heads: int, ffn_multiplier: int):
        self.ln1 = LayerNorm(d)
        self.attn = MultiHeadAttention(rng, d, heads)
        self.ln2 = LayerNorm(d)
        self.ffn1 = Linear(rng, d, d * ffn_multiplier)
        self.ffn2 = Linear(rng, d * ffn_multiplier, d)

    def __call__(self, x, dropout=0.0, train_rng=None, capture=None, grid=None):
        a = self.attn(self.ln1(x), capture=capture, grid=grid)
        x = x + T.dropout(a, dropout, train_rng)
        f = self.ffn2(T.gelu(self.ffn1(self.ln2(x))))
        return x + T.dropout(f, dropout, train_rng)



class TransformerStack(Module):
    def __init__(self, rng, d: int, layers: int, heads: int, ffn_multiplier: int):
        self.blocks = [TransformerBlock(rng, d, heads, ffn_multiplier) for _ in range(layers)]
        self.ln_out = LayerNorm(d)

    def __call__(self, x, dropout=0.0, train_rng=None, capture=None, grid=None):
        for block in self.blocks:
            layer_capture = None
            if capture is not None:
                capture.append([])
                layer_capture = capture[-1]
            x = block(x, dropout=dropout, train_rng=train_rng, capture=layer_capture, grid=grid)
        return self.ln_out(x)



# -- the encoder --------------------------------------------------------------


@dataclass
class EncodedBatch:
    """Encoder outputs of a batch of clips as packed rows.

    Clip b owns rows ``frame_bounds[b]:frame_bounds[b + 1]`` of ``v_emb``,
    ``v_cross`` and ``v_temp``; sentence j of clip b owns rows
    ``token_bounds[b][j]:token_bounds[b][j + 1]`` of ``w_cross``.  Frame rows
    are in timestamp order, except that ``v_temp`` follows the frame orders
    ``encode_clips`` was given.
    """

    clips: list[AlignedClip]
    v_emb: T.Tensor
    v_cross: T.Tensor
    w_cross: T.Tensor | None  # None when no clip has a token
    frame_bounds: np.ndarray  # (B + 1,)
    token_bounds: list[np.ndarray]  # per clip, (S_b + 1,)
    attention: list[dict]  # per clip
    v_temp: T.Tensor | None = None  # None until the temporal stage ran

    def frame_rows(self, positions: Sequence[Sequence[int]]) -> np.ndarray:
        """Packed row indices of each clip's frame ``positions``, clip by clip."""
        return np.concatenate([
            lo + np.asarray(p, dtype=np.intp) for lo, p in zip(self.frame_bounds, positions)
        ])


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

    def _truncated(self, token_ids: Sequence[int]) -> list[int]:
        ids = list(token_ids)
        if len(ids) > self.config.max_tokens:
            log.warning(
                "sentence of %d tokens truncated to max_tokens=%d", len(ids), self.config.max_tokens
            )
            ids = ids[: self.config.max_tokens]
        return ids

    def embed_text(self, token_ids: Sequence[int], positions=None) -> T.Tensor:
        """LN(token embedding + position embedding).

        Without ``positions`` the ids are one sentence at positions 0, 1, ...,
        truncated to max_tokens with a warning; explicit per-id positions
        embed several sentences in one call.
        """
        if positions is None:
            token_ids = self._truncated(token_ids)
            positions = np.arange(len(token_ids))
        ids = list(token_ids)
        if not ids:
            raise UsageError("embed_text needs at least one token")
        if max(ids) >= self.config.vocab_size or min(ids) < 0:
            raise IndexError(f"token id out of range [0, {self.config.vocab_size})")
        tok = self.token_emb(ids)
        pos = self.text_pos(positions)
        return self.text_ln(tok + pos)

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
        segments: Sequence[tuple[np.ndarray, np.ndarray]] | None = None,
        train_rng: np.random.Generator | None = None,
        capture: list | None = None,
    ) -> tuple[T.Tensor | None, T.Tensor | None]:
        """Self-attention within each segment's joint [frames | tokens]
        sequence, returning fused rows in input order.

        ``segments`` lists each segment's frame rows (into ``v_emb``) and
        token rows (into ``w_emb``) and must use every row exactly once; the
        default is a single segment of all rows.  The stack runs on the
        packed rows ``[v_emb; w_emb]``; only attention sees the segments, as
        an (S, L) row grid padded to the longest segment.  Either side may
        be absent (the query path passes no frames).  ``capture`` receives,
        per segment, a list per layer of per-head (L_j, L_j) grids.
        """
        if v_emb is None and w_emb is None:
            raise UsageError("cross_modal_forward needs at least one modality")
        parts = [p for p in (v_emb, w_emb) if p is not None]
        n_v = v_emb.shape[0] if v_emb is not None else 0
        n_rows = sum(p.shape[0] for p in parts)
        if segments is None:
            segments = [(np.arange(n_v), np.arange(n_rows - n_v))]
        joint = [  # each segment's packed rows: frames, then tokens after all frames
            np.concatenate([np.asarray(f, dtype=np.intp), n_v + np.asarray(t, dtype=np.intp)])
            for f, t in segments
        ]
        lengths = [len(rows) for rows in joint]
        if min(lengths) == 0:
            raise UsageError("cross_modal_forward needs at least one row in every segment")
        if not np.array_equal(np.sort(np.concatenate(joint)), np.arange(n_rows)):
            raise ShapeError("cross_modal_forward segments must use every frame and token row once")
        layers = [] if capture is not None else None
        out = self.cross(
            parts[0] if len(parts) == 1 else T.concat_rows(parts),
            dropout=self.config.dropout,
            train_rng=train_rng,
            capture=layers,
            grid=T.row_grid(joint, n_rows),
        )
        if capture is not None:
            capture.extend(
                [[heads[:n, :n] for heads in layer[j]] for layer in layers]
                for j, n in enumerate(lengths)
            )
        if w_emb is None:
            return out, None
        if v_emb is None:
            return None, out
        return T.slice_rows(out, 0, n_v), T.slice_rows(out, n_v, n_rows)

    def temporal_apply(
        self,
        rows: T.Tensor,
        train_rng: np.random.Generator | None = None,
        capture: list | None = None,
        grid: np.ndarray | None = None,
    ) -> T.Tensor:
        """The temporal stack over ``rows``; with a row ``grid``, ``rows``
        packs several sequences (see ``tensor.attention``)."""
        return self.temporal(
            rows, dropout=self.config.dropout, train_rng=train_rng, capture=capture, grid=grid
        )

    def temporal_forward(
        self,
        v_emb: T.Tensor,
        v_cross: T.Tensor,
        train_rng: np.random.Generator | None = None,
        capture: list | None = None,
        grid: np.ndarray | None = None,
        order: np.ndarray | None = None,
    ) -> T.Tensor:
        """f_temp(V_emb + V_cross): the embedder residual carries position
        information into the temporal stack.  ``order`` gathers the summed
        rows before the stack (frame order modeling's shuffle); ``grid`` is
        ``temporal_apply``'s."""
        if v_emb.shape != v_cross.shape:
            raise ShapeError(f"residual shape {v_emb.shape} != fused shape {v_cross.shape}")
        rows = v_emb + v_cross
        if order is not None:
            rows = T.take_rows(rows, order)
        return self.temporal_apply(rows, train_rng=train_rng, capture=capture, grid=grid)

    # -- whole-clip pipeline -----------------------------------------------------

    def fuse_clip(
        self,
        clips: Sequence[AlignedClip],
        token_ids_overrides: Sequence[Sequence[Sequence[int]] | None] | None = None,
        frame_features_overrides: Sequence[np.ndarray | None] | None = None,
        train_rng: np.random.Generator | None = None,
        capture_attention: bool = False,
    ) -> EncodedBatch:
        """The cross-modal stage of ``encode_clips``: embed every frame (in
        timestamp order) and every token of every clip once, then fuse every
        sentence with its frame group in one cross-modal pass.  Per-clip
        overrides (None keeps the clip's own) substitute masked inputs
        without touching the clips.  The result has no ``v_temp`` yet."""
        for clip in clips:
            if clip.n_frames > self.config.max_frames:
                raise ShapeError(
                    f"clip {clip.clip_id!r} has {clip.n_frames} frames, "
                    f"max_frames={self.config.max_frames}"
                )
        no_overrides = [None] * len(clips)
        features = [
            clip.frame_features if f is None else f
            for clip, f in zip(clips, frame_features_overrides or no_overrides)
        ]
        token_ids = [
            self._truncated(sent.token_ids if ids is None else ids[j])
            for clip, ids in zip(clips, token_ids_overrides or no_overrides)
            for j, sent in enumerate(clip.sentences)
        ]
        lengths = [len(ids) for ids in token_ids]
        token_lo = np.cumsum([0] + lengths)  # packed token rows, sentence by sentence
        frame_bounds = np.cumsum([0] + [clip.n_frames for clip in clips])
        sentence_lo = np.cumsum([0] + [len(clip.sentences) for clip in clips])
        sentences_of_clip = list(zip(sentence_lo[:-1], sentence_lo[1:]))
        segments = [
            (lo + np.asarray(sent.frame_indices, dtype=np.intp), np.arange(*token_lo[k : k + 2]))
            for clip, lo, k0 in zip(clips, frame_bounds, sentence_lo)
            for k, sent in enumerate(clip.sentences, start=k0)
        ]
        v_emb = self.embed_video(
            np.concatenate(features), np.concatenate([np.arange(clip.n_frames) for clip in clips])
        )
        w_emb = None
        if token_lo[-1]:
            positions = np.concatenate([np.arange(n) for n in lengths])
            w_emb = self.embed_text([i for ids in token_ids for i in ids], positions)
        capture = [] if capture_attention else None
        v_cross, w_cross = self.cross_modal_forward(
            v_emb, w_emb, segments, train_rng=train_rng, capture=capture
        )
        return EncodedBatch(
            clips=list(clips),
            v_emb=v_emb,
            v_cross=v_cross,
            w_cross=w_cross,
            frame_bounds=frame_bounds,
            token_bounds=[token_lo[lo : hi + 1] for lo, hi in sentences_of_clip],
            attention=[
                {("cross", j): layers for j, layers in enumerate(capture[lo:hi])} if capture else {}
                for lo, hi in sentences_of_clip
            ],
        )

    def encode_clips(
        self,
        clips: Sequence[AlignedClip],
        token_ids_overrides: Sequence[Sequence[Sequence[int]] | None] | None = None,
        frame_features_overrides: Sequence[np.ndarray | None] | None = None,
        frame_orders: Sequence[np.ndarray] | None = None,
        train_rng: np.random.Generator | None = None,
        capture_attention: bool = False,
    ) -> EncodedBatch:
        """Encode a batch of clips in one packed pass: one ``fuse_clip`` over
        all clips, then one ``temporal_forward`` over a (B, longest clip) row
        grid.  ``frame_orders[b]`` lists the fused frame rows clip b's
        temporal stack reads, in order (see ``ReorderPlan.permutation``)."""
        batch = self.fuse_clip(
            clips, token_ids_overrides, frame_features_overrides, train_rng, capture_attention
        )
        bounds = batch.frame_bounds
        order = None if frame_orders is None else batch.frame_rows(frame_orders)
        frames = [np.arange(lo, hi) for lo, hi in zip(bounds[:-1], bounds[1:])]
        grid = T.row_grid(frames, bounds[-1])
        capture = [] if capture_attention else None
        batch.v_temp = self.temporal_forward(
            batch.v_emb, batch.v_cross, train_rng=train_rng, capture=capture, grid=grid, order=order
        )
        if capture is not None:
            for b, (attention, n) in enumerate(zip(batch.attention, np.diff(bounds))):
                attention[("temporal",)] = [
                    [heads[:n, :n] for heads in layer[b]]
                    for layer in capture
                ]
        return batch

    def encode_clip(
        self,
        clip: AlignedClip,
        train_rng: np.random.Generator | None = None,
        capture_attention: bool = False,
    ) -> EncodedBatch:
        """``encode_clips`` of a batch of one."""
        return self.encode_clips([clip], train_rng=train_rng, capture_attention=capture_attention)
