"""Hierarchy tests: embedders, fusion, reassembly, masking, gradients."""

import gc
import weakref

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from vidtext import tensor as T
from vidtext.data import AlignedClip, Sentence
from vidtext.encoder import EncodedBatch, HierarchicalEncoder, ModelConfig, TransformerBlock
from vidtext.errors import ConfigError, ShapeError, UsageError
from conftest import (
    assert_kept_rows_equal, clip_views, embed_sentence, every_token, full_row_stacks, fused_frames,
    fused_tokens, make_clip, one_segment, slice_cols,
)
from gradcheck import check_gradients


class TestModelConfig:
    def test_head_divisibility_enforced(self):
        with pytest.raises(ConfigError):
            ModelConfig(d=30, cross_heads=4)

    def test_full_scale_preset(self):
        c = ModelConfig.full_scale()
        assert (c.d, c.cross_layers, c.cross_heads) == (768, 6, 12)
        assert (c.temporal_layers, c.temporal_heads) == (3, 12)
        assert c.frame_feature_dim == 4352

    def test_round_trips_through_dict(self, tiny_config):
        assert ModelConfig.from_dict(tiny_config.to_dict()) == tiny_config


class TestEmbedText:
    def test_shape_contract(self, tiny_encoder):
        out = embed_sentence(tiny_encoder, [5, 6, 7, 8, 9])
        assert out.shape == (5, tiny_encoder.config.d)

    def test_position_breaks_ties_between_identical_tokens(self, tiny_encoder):
        out = embed_sentence(tiny_encoder, [7, 7]).data
        assert np.abs(out[0] - out[1]).max() > 1e-6

    def test_zeroed_position_table_makes_identical_tokens_identical(self, tiny_encoder):
        tiny_encoder.text_pos.table.data[:] = 0.0
        out = embed_sentence(tiny_encoder, [7, 7]).data
        np.testing.assert_array_equal(out[0], out[1])

    def test_out_of_vocab_id_rejected(self, tiny_encoder):
        with pytest.raises(IndexError):
            embed_sentence(tiny_encoder, [tiny_encoder.config.vocab_size])

    def test_overlong_sentence_cut_with_one_warning(self, tiny_encoder, caplog):
        max_tokens = tiny_encoder.config.max_tokens
        long, short = list(range(5, 5 + max_tokens + 3)), [9, 8, 7]
        with caplog.at_level("WARNING"):
            rows, bounds = tiny_encoder.embed_text([long, short])
        assert [r.levelname for r in caplog.records] == ["WARNING"]
        want, want_bounds = tiny_encoder.embed_text([long[:max_tokens], short])
        np.testing.assert_array_equal(rows.data, want.data)
        assert bounds.tolist() == want_bounds.tolist() == [0, max_tokens, max_tokens + len(short)]

    def test_no_token_gives_no_rows(self, tiny_encoder):
        rows, bounds = tiny_encoder.embed_text([[], []])
        assert rows is None and bounds.tolist() == [0, 0, 0]


class TestEmbedVideo:
    def test_shape_contract(self, tiny_encoder):
        feats = np.zeros((3, tiny_encoder.config.frame_feature_dim))
        assert tiny_encoder.embed_video(feats, np.arange(3)).shape == (3, tiny_encoder.config.d)

    def test_identical_features_at_different_positions_differ(self, tiny_encoder):
        feats = np.ones((2, tiny_encoder.config.frame_feature_dim))
        out = tiny_encoder.embed_video(feats, np.arange(2)).data
        assert np.abs(out[0] - out[1]).max() > 1e-6

    def test_zero_fc_reduces_to_normalized_positions(self, tiny_encoder):
        tiny_encoder.frame_fc.w.data[:] = 0.0
        tiny_encoder.frame_fc.b.data[:] = 0.0
        feats = np.random.default_rng(0).standard_normal((3, tiny_encoder.config.frame_feature_dim))
        out = tiny_encoder.embed_video(feats, np.arange(2, 5)).data
        expected = tiny_encoder.frame_ln(
            T.Tensor(tiny_encoder.frame_pos.table.data[2:5])
        ).data
        np.testing.assert_allclose(out, expected, atol=1e-12)

    def test_feature_dim_mismatch(self, tiny_encoder):
        with pytest.raises(ShapeError):
            tiny_encoder.embed_video(np.zeros((3, 5)), np.arange(3))


class TestCrossModalForward:
    def test_shape_contract(self, tiny_encoder):
        rng = np.random.default_rng(1)
        v = tiny_encoder.embed_video(rng.standard_normal((3, 8)), np.arange(3))
        w = embed_sentence(tiny_encoder, [5, 6, 7, 8, 9])
        assert tiny_encoder.cross_modal_forward(v, w, one_segment(v, w)).shape == (8, 16)

    def test_query_path_with_no_frames(self, tiny_encoder):
        w = embed_sentence(tiny_encoder, [5, 6, 7])
        assert tiny_encoder.cross_modal_forward(None, w, one_segment(None, w)).shape == (3, 16)

    def test_both_empty_rejected(self, tiny_encoder):
        with pytest.raises(UsageError):
            tiny_encoder.cross_modal_forward(None, None, [])

    def test_permutation_equivariance_with_zeroed_positions(self, tiny_encoder):
        tiny_encoder.text_pos.table.data[:] = 0.0
        ids = [5, 9, 13, 21]
        perm = [2, 0, 3, 1]
        segments = [(np.arange(0), np.arange(len(ids)))]
        w1 = tiny_encoder.cross_modal_forward(None, embed_sentence(tiny_encoder, ids), segments)
        w2 = tiny_encoder.cross_modal_forward(
            None, embed_sentence(tiny_encoder, [ids[p] for p in perm]), segments
        )
        np.testing.assert_allclose(w2.data, w1.data[perm], atol=1e-12)


class TestTemporalForward:
    def test_shape_contract(self, tiny_encoder):
        rng = np.random.default_rng(2)
        a = T.Tensor(rng.standard_normal((10, 16)))
        b = T.Tensor(rng.standard_normal((10, 16)))
        assert tiny_encoder.temporal_forward(a, b).shape == (10, 16)

    def test_padded_keys_get_no_attention(self, tiny_encoder):
        rng = np.random.default_rng(3)
        rows = T.Tensor(rng.standard_normal((6, 16)))
        # two packed sequences, rows [0, 2, 3, 5] and [1, 4]: the second has two padding slots
        grid = T.row_grid([np.array([0, 2, 3, 5]), np.array([1, 4])], 6)
        with T.record_attention() as ops:
            out = tiny_encoder.temporal_apply(rows, grid=grid).data
        # each sequence's grid is cut to its real keys and still sums to 1 over them
        for first, second in ops:
            assert first.shape == (2, 4, 4) and second.shape == (2, 2, 2)
            np.testing.assert_allclose(second.sum(axis=-1), 1.0, rtol=0, atol=1e-12)
        alone = tiny_encoder.temporal_apply(T.Tensor(rows.data[[1, 4]])).data
        np.testing.assert_allclose(out[[1, 4]], alone, rtol=0, atol=1e-12)

    def test_dropping_residual_changes_output(self, tiny_encoder):
        rng = np.random.default_rng(4)
        v_emb = T.Tensor(rng.standard_normal((5, 16)))
        v_cross = T.Tensor(rng.standard_normal((5, 16)))
        with_res = tiny_encoder.temporal_forward(v_emb, v_cross).data
        without = tiny_encoder.temporal_forward(T.Tensor(np.zeros((5, 16))), v_cross).data
        assert np.abs(with_res - without).max() > 0

    def test_shape_mismatch(self, tiny_encoder):
        with pytest.raises(ShapeError):
            tiny_encoder.temporal_forward(
                T.Tensor(np.zeros((4, 16))), T.Tensor(np.zeros((5, 16)))
            )


class TestEncodeClip:
    def test_reassembly_row_counts(self, tiny_encoder, toy_clip):
        batch = tiny_encoder.encode_clip(toy_clip)
        v_emb, v_cross = tiny_encoder.fuse_clip([toy_clip])
        assert v_emb.shape == v_cross.shape == (7, 16)  # a clip pass keeps the frame rows alone
        assert batch.v_temp.shape == (7, 16)
        _, w_cross = tiny_encoder.fuse_clip([toy_clip], token_positions=every_token([toy_clip]))
        assert w_cross.shape == (9, 16)  # and a token pass the token rows alone
        assert [w.shape[0] for w in fused_tokens(tiny_encoder, [toy_clip])[0]] == [4, 5]

    def test_reassembly_preserves_every_frame_once(self, tiny_config, small_vocab):
        rng = np.random.default_rng(5)
        clip = make_clip(rng, small_vocab, groups=(2, 3, 4), tokens=(3, 4, 2))
        indices = sorted(i for s in clip.sentences for i in s.frame_indices)
        assert indices == list(range(clip.n_frames))
        enc = HierarchicalEncoder(tiny_config, np.random.default_rng(0)).encode_clip(clip)
        assert enc.v_temp.shape[0] == clip.n_frames

    def test_rows_ordered_by_timestamp(self, tiny_encoder, tiny_config, small_vocab):
        # encode the same clip with sentence order reversed: the reassembled
        # frame rows must land in identical timestamp order
        rng = np.random.default_rng(6)
        clip = make_clip(rng, small_vocab, groups=(3, 4), tokens=(4, 5))
        flipped = AlignedClip(
            clip.clip_id, list(reversed(clip.sentences)), clip.frame_features, clip.frame_times
        )
        (_, a), (_, b) = tiny_encoder.fuse_clip([clip]), tiny_encoder.fuse_clip([flipped])
        np.testing.assert_allclose(a.data, b.data, atol=1e-12)

    def test_single_sentence_equals_direct_composition(self, tiny_encoder, tiny_config, small_vocab):
        rng = np.random.default_rng(7)
        clip = make_clip(rng, small_vocab, groups=(5,), tokens=(4,))
        enc = tiny_encoder.encode_clip(clip)

        w_emb = embed_sentence(tiny_encoder, clip.sentences[0].token_ids)
        v_emb = tiny_encoder.embed_video(clip.frame_features, np.arange(clip.n_frames))
        v_cross = T.slice_rows(
            tiny_encoder.cross_modal_forward(v_emb, w_emb, one_segment(v_emb, w_emb)), 0, clip.n_frames
        )
        direct = tiny_encoder.temporal_forward(v_emb, v_cross)
        np.testing.assert_array_equal(enc.v_temp.data, direct.data)
        fused = tiny_encoder.fuse_clip([clip])
        for got, want in zip(fused, (v_emb, v_cross)):
            np.testing.assert_array_equal(got.data, want.data)

    def test_empty_string_subtitle_single_channel_path(self, tiny_encoder, small_vocab):
        from vidtext.data import CLS_ID, SEP_ID

        rng = np.random.default_rng(8)
        n = 6
        clip = AlignedClip(
            "wrapped",
            [
                Sentence(
                    text="",
                    token_ids=[CLS_ID, SEP_ID],
                    frame_indices=list(range(n)),
                )
            ],
            rng.standard_normal((n, 8)),
            np.array([(float(i), float(i + 1)) for i in range(n)]),
        )
        enc = tiny_encoder.encode_clip(clip)
        assert enc.v_temp.shape == (n, 16)

    def test_deterministic_without_dropout(self, tiny_config, small_vocab):
        rng = np.random.default_rng(9)
        clip = make_clip(rng, small_vocab)
        e1 = HierarchicalEncoder(tiny_config, np.random.default_rng(3)).encode_clip(clip)
        e2 = HierarchicalEncoder(tiny_config, np.random.default_rng(3)).encode_clip(clip)
        np.testing.assert_array_equal(e1.v_temp.data, e2.v_temp.data)

    def test_too_many_frames_rejected(self, tiny_encoder, small_vocab):
        rng = np.random.default_rng(10)
        clip = make_clip(rng, small_vocab, groups=(17,), tokens=(3,))
        with pytest.raises(ShapeError):
            tiny_encoder.encode_clip(clip)

    def test_attention_grids_are_square_and_stochastic(self, tiny_encoder, toy_clip):
        with T.record_attention() as ops:
            tiny_encoder.encode_clip(toy_clip)
        cross = ops[: tiny_encoder.config.cross_layers]
        for j, sent in enumerate(toy_clip.sentences):
            size = len(sent.frame_indices) + len(sent.token_ids)
            for layer in cross:
                for attn in layer[j]:
                    assert attn.shape == (size, size)
                    np.testing.assert_allclose(attn.sum(axis=-1), 1.0, atol=1e-6)


class TestEncoderGradients:
    def test_full_encoder_matches_finite_differences(self, small_vocab):
        config = ModelConfig(
            d=8,
            cross_layers=1,
            cross_heads=2,
            temporal_layers=1,
            temporal_heads=2,
            vocab_size=30,
            frame_feature_dim=6,
            max_frames=8,
            max_tokens=8,
            ffn_multiplier=2,
            dropout=0.0,
        )
        enc = HierarchicalEncoder(config, np.random.default_rng(0))
        rng = np.random.default_rng(1)
        clip = make_clip(rng, small_vocab, groups=(2, 3), tokens=(3, 2), feat_dim=6)
        weights = rng.standard_normal((clip.n_frames, config.d))

        def loss():
            out = enc.encode_clip(clip)
            return (out.v_temp * T.Tensor(weights)).sum()

        errs = check_gradients(loss, enc.params(), max_coords_per_tensor=6, seed=2)
        worst = max(errs.values())
        assert worst < 1e-4, f"worst rel err {worst:.2e}"


# -- reference path: one cross-modal call per sentence, one loop step per head --


def _ref_attention(mha, x, key_mask=None, capture=None, kv=None):
    source = x if kv is None else kv
    q, k, v = mha.wq(x), mha.wk(source), mha.wv(source)
    outs, dh = [], q.shape[1] // mha.heads
    for h in range(mha.heads):
        lo, hi = h * dh, (h + 1) * dh
        scores = T.matmul(slice_cols(q, lo, hi), T.transpose(slice_cols(k, lo, hi))) * (1.0 / np.sqrt(dh))
        if key_mask is not None:
            scores = scores + T.Tensor(np.where(key_mask, 0.0, T.ATTENTION_MASK_BIAS))
        attn = T.softmax(scores, axis=-1)
        if capture is not None:
            capture.append(attn.data)
        outs.append(T.matmul(attn, slice_cols(v, lo, hi)))
    return mha.wo(T.transpose(T.concat_rows([T.transpose(out) for out in outs])))  # heads side by side


def _ref_stack(stack, x, capture=None):
    for block in stack.blocks:
        heads = None
        if capture is not None:
            capture.append([])
            heads = capture[-1]
        x = x + _ref_attention(block.attn, block.ln1(x), capture=heads)
        x = x + block.ffn2(T.gelu(block.ffn1(block.ln2(x))))
    return stack.ln_out(x)


def _ref_cross(enc, v_emb, w_emb, capture=None):
    parts = [p for p in (v_emb, w_emb) if p is not None]
    joint = parts[0] if len(parts) == 1 else T.concat_rows(parts)
    out = _ref_stack(enc.cross, joint, capture)
    k = v_emb.shape[0] if v_emb is not None else 0
    v_cross = T.take_rows(out, np.arange(k)) if v_emb is not None else None
    w_cross = T.take_rows(out, np.arange(k, out.shape[0])) if w_emb is not None else None
    return v_cross, w_cross


def _ref_encode_clip(enc, clip):
    v_emb_parts, v_cross_parts, w_cross_list, order, attention = [], [], [], [], {}
    for j, sent in enumerate(clip.sentences):
        group = np.asarray(sent.frame_indices, dtype=np.intp)
        w_emb = embed_sentence(enc, sent.token_ids) if sent.token_ids else None
        v_emb = enc.embed_video(clip.frame_features[group], group)
        attention[("cross", j)] = []
        v_cross, w_cross = _ref_cross(enc, v_emb, w_emb, attention[("cross", j)])
        v_emb_parts.append(v_emb)
        v_cross_parts.append(v_cross)
        order.extend(sent.frame_indices)
        w_cross_list.append(w_cross)
    perm = np.argsort(np.asarray(order), kind="stable")
    v_emb = T.take_rows(T.concat_rows(v_emb_parts), perm)
    v_cross = T.take_rows(T.concat_rows(v_cross_parts), perm)
    v_temp = _ref_stack(enc.temporal, v_emb + v_cross)
    return v_emb, v_cross, w_cross_list, v_temp, attention


class TestPaddedFusionMatchesPerSentence:
    """The padded one-call-per-clip fusion with batched heads against the
    per-sentence, per-head reference above (dropout off)."""

    @pytest.fixture
    def setup(self, small_vocab):
        config = ModelConfig(
            d=16, cross_layers=2, cross_heads=4, temporal_layers=1, temporal_heads=2,
            vocab_size=30, frame_feature_dim=8, max_frames=16, max_tokens=12,
            ffn_multiplier=2, dropout=0.0,
        )
        enc = HierarchicalEncoder(config, np.random.default_rng(0))
        rng = np.random.default_rng(1)
        clip = make_clip(rng, small_vocab, groups=(2, 5, 3, 1), tokens=(4, 0, 7, 2))
        # interleave the frame groups so the packing gather is not contiguous
        groups = [[0, 4], [1, 2, 3, 8, 9], [5, 6, 10], [7]]
        for sent, group in zip(clip.sentences, groups):
            sent.frame_indices = group
        query = [int(t) for t in rng.integers(small_vocab.num_specials, small_vocab.size, 5)]
        return enc, clip, query, rng

    @staticmethod
    def _loss(v_emb, v_cross, w_cross, v_temp, q_cross, rng_seed=2):
        rng = np.random.default_rng(rng_seed)
        total = (v_temp * T.Tensor(rng.standard_normal(v_temp.shape))).sum()
        for rows in [v_emb, v_cross, q_cross] + [w for w in w_cross if w is not None]:
            total = total + (rows * T.Tensor(rng.standard_normal(rows.shape))).sum()
        return total

    def test_outputs_and_gradients_match(self, setup):
        enc, clip, query, _ = setup
        params = enc.params()

        def run(fast):
            T.zero_grads(params.values())
            q_emb = embed_sentence(enc, query)
            if fast:
                with T.record_attention() as ops:
                    e = clip_views(enc.encode_clip(clip))[0]
                cross = ops[: enc.config.cross_layers]  # the temporal layer's op comes last
                assert len(ops) == len(cross) + enc.config.temporal_layers
                attention = {
                    ("cross", j): [list(op[j]) for op in cross] for j in range(len(clip.sentences))
                }
                # the frame rows come from a pass of their own, and the token
                # rows from a pass that keeps them in place of the frames
                f = fused_frames(enc, [clip])[0]
                outs = [f.v_emb, f.v_cross, fused_tokens(enc, [clip])[0], e.v_temp, attention]
                q_cross = enc.cross_modal_forward(None, q_emb, one_segment(None, q_emb))
            else:
                outs = list(_ref_encode_clip(enc, clip))
                _, q_cross = _ref_cross(enc, None, q_emb)
            T.backward(self._loss(*outs[:4], q_cross))
            return outs, q_cross, {k: p.grad.copy() for k, p in params.items()}

        (f_outs, f_q, f_grads), (r_outs, r_q, r_grads) = run(True), run(False)
        for fast, ref in zip(f_outs[:2] + [f_outs[3], f_q], r_outs[:2] + [r_outs[3], r_q]):
            np.testing.assert_allclose(fast.data, ref.data, rtol=0, atol=1e-10)
        assert [w is None for w in f_outs[2]] == [False, True, False, False]
        for fast, ref in zip(f_outs[2], r_outs[2]):
            if ref is not None:
                np.testing.assert_allclose(fast.data, ref.data, rtol=0, atol=1e-10)
        assert f_grads.keys() == r_grads.keys()
        for name in r_grads:
            np.testing.assert_allclose(f_grads[name], r_grads[name], rtol=0, atol=1e-10, err_msg=name)
        # per sentence, layer and head, an (L_j, L_j) grid
        assert f_outs[4].keys() == r_outs[4].keys()
        for key, ref_layers in r_outs[4].items():
            assert len(f_outs[4][key]) == len(ref_layers) == 2
            for fast_heads, ref_heads in zip(f_outs[4][key], ref_layers):
                assert len(fast_heads) == len(ref_heads) == 4
                for a, b in zip(fast_heads, ref_heads):
                    assert a.shape == b.shape
                    np.testing.assert_allclose(a, b, rtol=0, atol=1e-12)

    def test_one_cross_modal_call_per_clip(self, setup, monkeypatch):
        enc, clip, _, _ = setup
        calls = []
        original = HierarchicalEncoder.cross_modal_forward

        def counting(self, *args, **kwargs):
            calls.append(sum(a.shape[0] for a in args[:2] if a is not None))
            return original(self, *args, **kwargs)

        monkeypatch.setattr(HierarchicalEncoder, "cross_modal_forward", counting)
        enc.encode_clip(clip)
        assert calls == [clip.n_frames + sum(len(s.token_ids) for s in clip.sentences)]

    def test_untracked_inputs_get_no_adjoint(self, setup, monkeypatch):
        """Frame features, the padding row and the key mask are constants:
        backward computes no adjoint for them."""
        enc, clip, _, _ = setup
        reached = []
        accum = T._accum
        monkeypatch.setattr(T, "_accum", lambda t, g: (reached.append(t), accum(t, g)))
        T.backward(enc.encode_clip(clip).v_temp.sum())
        assert reached and all(t._track for t in reached)

    def test_segments_must_cover_every_row_once(self, setup):
        enc, _, _, _ = setup
        v = T.Tensor(np.zeros((3, 16)))
        w = T.Tensor(np.zeros((2, 16)))
        with pytest.raises(ShapeError):
            enc.cross_modal_forward(v, w, [(np.array([0, 1]), np.array([0, 1]))])
        with pytest.raises(ShapeError):
            enc.cross_modal_forward(v, w, [(np.array([0, 1, 1]), np.array([0, 1]))])

    def test_empty_segment_rejected(self, setup):
        enc, _, _, _ = setup
        w = T.Tensor(np.zeros((2, 16)))
        with pytest.raises(UsageError):
            enc.cross_modal_forward(None, w, [(np.array([], dtype=int), np.array([0, 1])),
                                              (np.array([], dtype=int), np.array([], dtype=int))])


class TestEncodeClipsPacksTheBatch:
    """``encode_clips`` runs a batch as one packed pass; each clip's slice
    of it equals that clip's own pass (dropout off)."""

    @pytest.fixture
    def setup(self, small_vocab):
        config = ModelConfig(
            d=16, cross_layers=2, cross_heads=4, temporal_layers=1, temporal_heads=2,
            vocab_size=30, frame_feature_dim=8, max_frames=16, max_tokens=12,
            ffn_multiplier=2, dropout=0.0,
        )
        enc = HierarchicalEncoder(config, np.random.default_rng(0))
        rng = np.random.default_rng(1)
        a = make_clip(rng, small_vocab, groups=(2, 5, 3, 1), tokens=(4, 0, 7, 2), clip_id="a")
        for sent, group in zip(a.sentences, ([0, 4], [1, 2, 3, 8, 9], [5, 6, 10], [7])):
            sent.frame_indices = group
        b = make_clip(rng, small_vocab, groups=(3,), tokens=(5,), clip_id="b")
        c = make_clip(rng, small_vocab, groups=(4, 2), tokens=(0, 3), clip_id="c")
        return enc, [a, b, c]

    @staticmethod
    def _arrays(enc, clips, one=False):
        """Per clip: its rows, then its recorded attention grids (its
        sentences' of each cross-modal layer, its own of each temporal
        layer); and which of its sentences have no token."""
        with T.record_attention() as ops:
            batch = enc.encode_clip(clips[0]) if one else enc.encode_clips(clips)
        cross, temporal = ops[: enc.config.cross_layers], ops[enc.config.cross_layers :]
        views = zip(clip_views(batch), fused_frames(enc, clips), fused_tokens(enc, clips))
        sentence_lo = np.cumsum([0] + [len(c.sentences) for c in clips])
        out = []
        for b, (e, f, tok) in enumerate(views):
            rows = [f.v_emb, f.v_cross, e.v_temp] + [w for w in tok if w is not None]
            lo, hi = sentence_lo[b], sentence_lo[b + 1]
            grids = [g for op in cross for heads in op[lo:hi] for g in heads]
            grids += [g for op in temporal for g in op[b]]
            out.append(([t.data for t in rows] + grids, [w is None for w in tok]))
        return out

    def test_encode_clip_is_the_batch_of_one(self, setup):
        enc, clips = setup
        for clip in clips:
            (one,) = self._arrays(enc, [clip], one=True)
            (batch,) = self._arrays(enc, [clip])
            assert one[1:] == batch[1:]
            assert len(one[0]) == len(batch[0])
            for x, y in zip(one[0], batch[0]):
                np.testing.assert_array_equal(x, y)

    def test_each_clip_matches_its_own_pass(self, setup):
        enc, clips = setup
        packed = self._arrays(enc, clips)
        assert len(packed) == len(clips)
        for clip, mine in zip(clips, packed):
            (alone,) = self._arrays(enc, [clip], one=True)
            assert mine[1:] == alone[1:]
            assert len(mine[0]) == len(alone[0])
            for x, y in zip(mine[0], alone[0]):
                assert x.shape == y.shape
                np.testing.assert_allclose(x, y, rtol=0, atol=1e-12)

    def test_frame_times_follow_the_packed_rows(self, setup):
        enc, clips = setup
        packed = enc.encode_clips(clips)
        bounds = packed.frame_bounds
        assert packed.frame_times.shape == (bounds[-1], 2)
        for clip, lo, hi in zip(clips, bounds[:-1], bounds[1:]):
            assert packed.frame_times[lo:hi].tolist() == [list(t) for t in clip.frame_times]

    def test_frame_orders_shuffle_the_temporal_input(self, setup):
        enc, clips = setup
        orders = [np.random.default_rng(i).permutation(c.n_frames) for i, c in enumerate(clips)]
        packed = enc.encode_clips(clips, frame_orders=orders)
        for e, f, order in zip(clip_views(packed), fused_frames(enc, clips), orders):
            alone = enc.temporal_forward(T.take_rows(f.v_emb, order), T.take_rows(f.v_cross, order))
            np.testing.assert_allclose(e.v_temp.data, alone.data, rtol=0, atol=1e-12)


    def test_every_producer_keeps_one_invariant(self, setup):
        """Clip b owns rows ``frame_bounds[b]:frame_bounds[b + 1]`` of
        ``v_temp`` in a plain pass, a reordered pass, a pruned pass and a
        join; a pruned clip's rows are its positions' rows of the full pass."""
        enc, clips = setup
        orders = [np.random.default_rng(i).permutation(c.n_frames) for i, c in enumerate(clips)]
        positions = [[1, 4, 9], [2], [0, 5, 3, 1]]
        plain = enc.encode_clips(clips)
        reordered = enc.encode_clips(clips, frame_orders=orders)
        pruned = enc.encode_clips(clips, frame_orders=orders, temporal_positions=positions)
        joined = EncodedBatch.join([plain, pruned, enc.encode_clip(clips[1])])
        for batch in (plain, reordered, pruned, joined):
            assert len(batch.clips) + 1 == len(batch.frame_bounds)
            assert batch.frame_bounds[0] == 0
            assert batch.frame_bounds[-1] == batch.v_temp.shape[0]
        for batch in (plain, reordered):
            assert np.diff(batch.frame_bounds).tolist() == [c.n_frames for c in clips]
        assert np.diff(pruned.frame_bounds).tolist() == [len(p) for p in positions]
        assert np.diff(joined.frame_bounds).tolist() == [11, 3, 6, 3, 1, 4, 3]
        for kept, full, p in zip(clip_views(pruned), clip_views(reordered), positions):
            np.testing.assert_allclose(kept.v_temp.data, full.v_temp.data[p], rtol=0, atol=1e-12)
        assert pruned.slot_grid[1].sum(axis=1).tolist() == [len(p) for p in positions]
        lo, hi = joined.frame_bounds[[3, 6]]
        np.testing.assert_array_equal(joined.v_temp.data[lo:hi], pruned.v_temp.data)

    def test_an_encoded_clip_keeps_no_embedding_or_fused_rows(self, setup, monkeypatch):
        """The temporal stage's inputs die with the pass: the batch holds
        its temporal rows alone."""
        enc, clips = setup
        refs, forward = [], HierarchicalEncoder.temporal_forward

        def recording(self, v_emb, v_cross, *args, **kwargs):
            refs.extend(weakref.ref(t.data) for t in (v_emb, v_cross))
            return forward(self, v_emb, v_cross, *args, **kwargs)

        monkeypatch.setattr(HierarchicalEncoder, "temporal_forward", recording)
        with T.no_grad():
            batch = enc.encode_clip(clips[0])
        gc.collect()
        assert len(refs) == 2 and all(ref() is None for ref in refs)
        assert batch.v_temp.shape == (clips[0].n_frames, enc.config.d)


class TestFusedAttention:
    def test_decoder_block_matches_per_head_reference(self):
        """Causal self-attention and masked kv cross-attention of a decoder
        block against the per-head reference: output, recorded cross-attention
        grids and every gradient within 1e-10."""
        from vidtext.downstream import DecoderBlock

        rng = np.random.default_rng(3)
        block = DecoderBlock(rng, 16, 4, 2)
        x0, enc0, upstream = (rng.standard_normal(s) for s in ((5, 16), (7, 16), (5, 16)))
        causal = np.tril(np.ones((5, 5), dtype=bool))
        enc_mask = np.array([True, True, False, True, True, True, False])
        params = block.params()

        def run(fused):
            T.zero_grads(params.values())
            x, enc = T.Tensor(x0, requires_grad=True), T.Tensor(enc0, requires_grad=True)
            capture = []
            if fused:
                with T.record_attention() as ops:
                    out = block(x, enc, causal, enc_mask)
                capture = list(ops[1])  # the cross-attention's heads; ops[0] is the self-attention
            else:
                h = x + _ref_attention(block.self_attn, block.ln1(x), key_mask=causal)
                h = h + _ref_attention(block.cross_attn, block.ln2(h), enc_mask, capture, kv=enc)
                out = h + block.ffn2(T.gelu(block.ffn1(block.ln3(h))))
            T.backward((out * T.Tensor(upstream)).sum())
            grads = {k: p.grad.copy() for k, p in params.items()}
            return [out.data, x.grad, enc.grad, *capture], grads

        (fused, f_grads), (ref, r_grads) = run(True), run(False)
        assert len(fused) == len(ref) == 3 + 4 and fused[3].shape == (5, 7)
        for a, b in zip(fused, ref):
            np.testing.assert_allclose(a, b, rtol=0, atol=1e-10)
        for name in r_grads:
            np.testing.assert_allclose(f_grads[name], r_grads[name], rtol=0, atol=1e-10, err_msg=name)

    def test_transformer_block_forward_records_twelve_ops(self):
        rng = np.random.default_rng(4)
        block = TransformerBlock(rng, 16, 4, 2)
        grid = T.row_grid([np.arange(5), np.arange(5, 7), np.arange(7, 12)], 12)  # (3, 5)
        T.reset_tape()
        block(T.Tensor(rng.standard_normal((12, 16))), grid=grid)
        # ln1, wq, wk, wv, attention, wo, residual add, ln2, ffn1, gelu, ffn2, residual add
        assert T.tape_size() == 12
        T.reset_tape()


_PRUNING = ModelConfig(
    d=16, cross_layers=2, cross_heads=4, temporal_layers=2, temporal_heads=2,
    vocab_size=30, frame_feature_dim=8, max_frames=16, max_tokens=12,
    ffn_multiplier=2, dropout=0.3,
)


def _packed(draw):
    """Packed rows split into sequences in a random row order, their (B, L)
    grid, and a random subset of the rows in a random order."""
    lengths = draw(st.lists(st.integers(1, 6), min_size=1, max_size=4))
    n = sum(lengths)
    perm = draw(st.permutations(range(n)))
    grid = T.row_grid(np.split(np.array(perm), np.cumsum(lengths)[:-1]), n)
    rows = draw(st.lists(st.integers(0, n - 1), unique=True, max_size=n))
    return n, grid, np.array(rows, dtype=np.intp)


class TestRowPruning:
    """With dropout on, each stack run on the rows its caller reads gives
    the rows of the full-row reference stack (``conftest.full_row_stack``)
    and leaves the generator where the reference leaves it."""

    @given(data=st.data(), seed=st.integers(0, 2**32 - 1))
    def test_temporal_stack_keeps_the_reference_rows(self, data, seed):
        enc = HierarchicalEncoder(_PRUNING, np.random.default_rng(0))
        n, grid, rows = _packed(data.draw)
        x = T.Tensor(np.random.default_rng(seed).standard_normal((n, 16)))
        rngs = [np.random.default_rng(seed) for _ in range(2)]
        kept = enc.temporal_apply(x, train_rng=rngs[0], grid=grid, rows=rows)
        with full_row_stacks():
            full = enc.temporal_apply(x, train_rng=rngs[1], grid=grid)
        assert_kept_rows_equal(kept.data, full.data[rows], n)
        assert rngs[0].random() == rngs[1].random()

    @given(data=st.data(), seed=st.integers(0, 2**32 - 1))
    def test_cross_stack_keeps_the_reference_rows(self, data, seed):
        enc = HierarchicalEncoder(_PRUNING, np.random.default_rng(0))
        n, grid, rows = _packed(data.draw)
        n_v = data.draw(st.integers(0, n - 1))  # the first n_v packed rows are frames
        segments = [(r[r < n_v], r[r >= n_v] - n_v) for r in (g[g < n] for g in grid)]
        x = np.random.default_rng(seed).standard_normal((n, 16))
        v, w = (T.Tensor(x[:n_v]) if n_v else None), T.Tensor(x[n_v:])
        rngs = [np.random.default_rng(seed) for _ in range(2)]
        kept = enc.cross_modal_forward(v, w, segments, train_rng=rngs[0], rows=rows)
        with full_row_stacks():
            full = enc.cross_modal_forward(v, w, segments, train_rng=rngs[1])
        assert_kept_rows_equal(kept.data, full.data[rows], n)
        assert rngs[0].random() == rngs[1].random()

    @given(data=st.data(), seed=st.integers(0, 2**32 - 1))
    def test_recording_keeps_every_query_row(self, data, seed):
        """Inside ``record_attention`` every row queries, so each recorded
        grid is square and equals the full-row pass's; the kept rows and the
        generator still match a pass outside the recorder (up to the
        single-row exception of ``assert_kept_rows_equal``)."""
        enc = HierarchicalEncoder(_PRUNING, np.random.default_rng(0))
        n, grid, rows = _packed(data.draw)
        x = T.Tensor(np.random.default_rng(seed).standard_normal((n, 16)))
        rngs = [np.random.default_rng(seed) for _ in range(3)]
        with T.record_attention() as ops:
            recorded = enc.temporal_apply(x, train_rng=rngs[0], grid=grid, rows=rows)
        with T.record_attention() as full_ops:
            enc.temporal_apply(x, train_rng=rngs[1], grid=grid)
        kept = enc.temporal_apply(x, train_rng=rngs[2], grid=grid, rows=rows)
        assert_kept_rows_equal(recorded.data, kept.data, n)
        assert len(ops) == len(full_ops) == _PRUNING.temporal_layers
        for op, full_op in zip(ops, full_ops):
            for w, full_w in zip(op, full_op):
                assert w.shape[-1] == w.shape[-2] and w.tobytes() == full_w.tobytes()
        assert rngs[0].random() == rngs[1].random() == rngs[2].random()
