"""Pre-training objective tests: mask statistics, closed forms, oracles."""

import contextlib
import math

import numpy as np
import pytest

from vidtext import pretrain as P
from vidtext import tensor as T
from vidtext.data import MASK_ID, Vocab
from vidtext.encoder import HierarchicalEncoder, ModelConfig
from vidtext.errors import ConfigError, DataError, UsageError

from conftest import (
    assert_step_matches_full_rows, clip_views, full_row_stacks, fused_tokens, make_clip,
    ref_encode_query, ref_vsm_loss, rows_batch, slice_cols,
)

UNIFORM = {"mlm": 1.0, "mffr": 1.0, "mnce": 1.0, "vsm": 1.0, "fom": 1.0}


@pytest.fixture
def model(tiny_config):
    return P.PretrainModel(tiny_config, seed=0)


class TestSampleTask:
    def test_degenerate_weights_always_pick_that_task(self):
        for i in range(50):
            assert P.sample_task(i, seed=1, weights={"mlm": 1.0}) == "mlm"

    def test_uniform_frequencies_within_3_sigma(self):
        weights = {"mlm": 1.0, "mnce": 1.0, "vsm": 1.0, "fom": 1.0}
        n = 100_000
        draws = [P.sample_task(i, seed=2, weights=weights) for i in range(n)]
        sigma = math.sqrt(0.25 * 0.75 / n)
        for t in weights:
            freq = draws.count(t) / n
            assert abs(freq - 0.25) < 3 * sigma + 1e-9, (t, freq)

    def test_same_inputs_same_draw(self):
        a = P.sample_task(7, seed=3, weights=UNIFORM)
        b = P.sample_task(7, seed=3, weights=UNIFORM)
        assert a == b


class TestMlmMask:
    def test_mask_rate_and_action_split(self, small_vocab):
        rng = np.random.default_rng(0)
        n_tokens, n_masked = 0, 0
        actions = {P.ACTION_MASK: 0, P.ACTION_RANDOM: 0, P.ACTION_KEEP: 0}
        for _ in range(1200):
            ids = [int(rng.integers(5, 30)) for _ in range(30)]
            masked, plan = P.apply_mlm_mask(ids, rng, small_vocab)
            n_tokens += len(ids)
            n_masked += len(plan.positions)
            for a in plan.actions:
                actions[a] += 1
        rate = n_masked / n_tokens
        assert abs(rate - 0.15) < 0.01
        for action, p in zip((P.ACTION_MASK, P.ACTION_RANDOM, P.ACTION_KEEP), (0.8, 0.1, 0.1)):
            share = actions[action] / n_masked
            sigma = math.sqrt(p * (1 - p) / n_masked)
            assert abs(share - p) < 3 * sigma + 1e-9, action

    def test_single_token_sentence_is_always_masked(self, small_vocab):
        rng = np.random.default_rng(1)
        _, plan = P.apply_mlm_mask([9], rng, small_vocab)
        assert plan.positions == [0]

    def test_mask_action_writes_mask_id_and_keeps_original(self, small_vocab):
        rng = np.random.default_rng(2)
        ids = [7] * 40
        masked, plan = P.apply_mlm_mask(ids, rng, small_vocab)
        for pos, action, orig in zip(plan.positions, plan.actions, plan.originals):
            assert orig == 7
            if action == P.ACTION_MASK:
                assert masked[pos] == MASK_ID
            elif action == P.ACTION_KEEP:
                assert masked[pos] == 7
            else:
                assert masked[pos] >= small_vocab.num_specials

    def test_random_replacement_never_special(self, small_vocab):
        rng = np.random.default_rng(3)
        for _ in range(300):
            masked, plan = P.apply_mlm_mask([6] * 20, rng, small_vocab)
            for pos, action in zip(plan.positions, plan.actions):
                if action == P.ACTION_RANDOM:
                    assert masked[pos] >= small_vocab.num_specials

    def test_empty_sentence_rejected(self, small_vocab):
        with pytest.raises(UsageError):
            P.apply_mlm_mask([], np.random.default_rng(0), small_vocab)


def _no_temporal_stage(*args, **kwargs):
    raise AssertionError("masked token modeling runs no temporal stage")


class TestMlmLoss:
    def test_untrained_loss_near_log_vocab(self, small_vocab):
        config = ModelConfig(
            d=32, cross_layers=1, cross_heads=2, temporal_layers=1, temporal_heads=2,
            vocab_size=100, frame_feature_dim=8, max_frames=16, max_tokens=16,
            ffn_multiplier=2, dropout=0.0,
        )
        model = P.PretrainModel(config, seed=0)
        vocab = Vocab.synthetic(100)
        rng = np.random.default_rng(4)
        clip = make_clip(rng, vocab, groups=(4, 4), tokens=(8, 8))
        rng_mask = np.random.default_rng(5)
        masked, plans = [], []
        for s in clip.sentences:
            m, plan = P.apply_mlm_mask(s.token_ids, rng_mask, vocab)
            masked.append(m)
            plans.append(plan)
        loss = model.mlm_loss(model.encode_mlm([clip], [masked], [plans]), [plans])
        assert abs(loss.item() - math.log(100)) < 0.3

    def test_rigged_one_hot_logits_drive_loss_to_zero(self, model, small_vocab, toy_clip):
        masked = [list(s.token_ids) for s in toy_clip.sentences]
        masked[0][2] = MASK_ID
        plan = P.TokenMaskPlan([2], [P.ACTION_MASK], [toy_clip.sentences[0].token_ids[2]])
        # single masked position, so a bias-only head can one-hot the answer
        model.lm_head.w.data[:] = 0.0
        model.lm_head.b.data[:] = 0.0
        model.lm_head.b.data[plan.originals[0]] = 60.0
        loss = model.mlm_loss(model.encode_mlm([toy_clip], [masked], [[plan, None]]), [[plan, None]])
        assert loss.item() < 1e-6

    def test_loss_reads_only_masked_rows(self, model, toy_clip, monkeypatch):
        """The pass keeps the masked token rows alone, equal to those rows
        of every token's fused rows, and runs no temporal stage."""
        masked = [list(s.token_ids) for s in toy_clip.sentences]
        masked[0][1] = masked[1][0] = masked[1][3] = MASK_ID
        plans = [
            P.TokenMaskPlan([1], [P.ACTION_MASK], [toy_clip.sentences[0].token_ids[1]]),
            P.TokenMaskPlan([0, 3], [P.ACTION_MASK] * 2, toy_clip.sentences[1].token_ids[:4:3]),
        ]
        with monkeypatch.context() as m:
            m.setattr(HierarchicalEncoder, "temporal_apply", _no_temporal_stage)
            w_cross = model.encode_mlm([toy_clip], [masked], [plans])
        w = fused_tokens(model.encoder, [toy_clip], [masked])[0]
        want = np.concatenate([w[0].data[[1]], w[1].data[[0, 3]]])
        assert w_cross.data.tobytes() == want.tobytes()
        T.reset_tape()

    def test_empty_plan_rejected(self, model, toy_clip):
        plan = P.TokenMaskPlan([0], [P.ACTION_KEEP], [toy_clip.sentences[0].token_ids[0]])
        ids = [list(s.token_ids) for s in toy_clip.sentences]
        encoded = model.encode_mlm([toy_clip], [ids], [[plan, None]])
        with pytest.raises(UsageError):
            model.mlm_loss(encoded, [[None, None]])
        T.reset_tape()


class TestMaskingNeverLeaks:
    def test_mfm_input_is_invariant_to_masked_originals(self, model, toy_clip):
        plan = P.FrameMaskPlan([1, 4])
        before = model.encode_mfm([toy_clip], [plan]).v_temp.data.copy()
        toy_clip.frame_features[plan.positions] += 99.0
        after = model.encode_mfm([toy_clip], [plan]).v_temp.data
        np.testing.assert_array_equal(before, after)
        T.reset_tape()

    def test_mlm_replaced_positions_carry_no_original_signal(self, small_vocab):
        rng = np.random.default_rng(6)
        ids = [7] * 30
        masked, plan = P.apply_mlm_mask(ids, rng, small_vocab)
        changed = [9] * 30
        rng2 = np.random.default_rng(6)  # same draws, different originals
        masked2, plan2 = P.apply_mlm_mask(changed, rng2, small_vocab)
        assert plan.positions == plan2.positions
        assert plan.actions == plan2.actions
        for pos, action in zip(plan.positions, plan.actions):
            if action != P.ACTION_KEEP:
                assert masked[pos] == masked2[pos]


def _clips_of_6_and_4_frames(vocab):
    rng = np.random.default_rng(17)
    return [make_clip(rng, vocab, groups=g, tokens=(3,) * len(g)) for g in ((3, 3), (4,))]


class TestMffr:
    def test_zero_when_prediction_equals_target(self):
        target = np.random.default_rng(7).standard_normal((3, 8))
        loss = P.l2_regression_loss(T.Tensor(target), target)
        assert loss.item() == 0.0

    def test_all_ones_gap_in_dim_32_gives_32(self):
        target = np.zeros((1, 32))
        loss = P.l2_regression_loss(T.Tensor(np.ones((1, 32))), target)
        assert loss.item() == 32.0

    def test_gradient_wrt_prediction_is_two_times_residual(self):
        rng = np.random.default_rng(8)
        pred = T.Tensor(rng.standard_normal((2, 5)), requires_grad=True)
        target = rng.standard_normal((2, 5))
        T.backward(P.l2_regression_loss(pred, target))
        np.testing.assert_allclose(pred.grad, 2 * (pred.data - target), atol=1e-12)

    def test_reads_global_rows(self, model, toy_clip):
        plan = P.FrameMaskPlan([0, 3])
        encoded = model.encode_mfm([toy_clip], [plan], masked_only=True)
        loss = model.mffr_loss(encoded, [plan])
        assert loss.item() > 0
        T.reset_tape()

    def test_rejects_a_full_row_pass(self, model, toy_clip):
        plan = P.FrameMaskPlan([0, 3])
        with pytest.raises(UsageError):
            model.mffr_loss(model.encode_mfm([toy_clip], [plan]), [plan])
        T.reset_tape()

    def test_empty_plan_rejected(self, model, toy_clip):
        encoded = model.encode_mfm([toy_clip], [P.FrameMaskPlan([0])])
        with pytest.raises(UsageError):
            model.mffr_loss(encoded, [P.FrameMaskPlan([])])

    def test_rejects_rows_split_differently_over_the_clips(self, model, small_vocab):
        """Plans of the batch's total row count but another split over the
        clips do not name its rows."""
        clips = _clips_of_6_and_4_frames(small_vocab)
        encoded = model.encode_mfm(
            clips, [P.FrameMaskPlan([0, 2]), P.FrameMaskPlan([1, 2, 3])], masked_only=True
        )
        with pytest.raises(UsageError, match="clip by clip"):
            model.mffr_loss(encoded, [P.FrameMaskPlan([0, 1, 4]), P.FrameMaskPlan([0, 3])])
        T.reset_tape()


class _FixedChoiceRng:
    """Stands in for a Generator when a test needs to pin negative draws."""

    def __init__(self, picks):
        self.picks = list(picks)

    def choice(self, pool, size, replace):
        assert len(self.picks) == size
        return np.asarray(self.picks)


class TestMnce:
    def test_equal_scores_give_log_num_candidates(self, model, toy_clip):
        model.mnce_proj.w.data[:] = 0.0
        model.mnce_proj.b.data[:] = 0.0  # every projection collapses to zero
        plan = P.FrameMaskPlan([2])
        encoded = model.encode_mfm([toy_clip], [plan])
        loss = model.mnce_loss(encoded, [plan], np.random.default_rng(0), num_negatives=7)
        assert loss.item() == pytest.approx(math.log(8), abs=1e-12)
        T.reset_tape()

    def test_loss_invariant_to_negative_ordering(self, model, toy_clip):
        plan = P.FrameMaskPlan([2])
        encoded = model.encode_mfm([toy_clip], [plan])
        a = model.mnce_loss(encoded, [plan], _FixedChoiceRng([0, 1, 3]), num_negatives=3).item()
        T.reset_tape()
        encoded = model.encode_mfm([toy_clip], [plan])
        b = model.mnce_loss(encoded, [plan], _FixedChoiceRng([3, 0, 1]), num_negatives=3).item()
        T.reset_tape()
        assert a == pytest.approx(b, abs=1e-12)

    def test_positive_50_above_negatives_saturates(self, model, toy_clip, monkeypatch):
        plan = P.FrameMaskPlan([2])
        encoded = model.encode_mfm([toy_clip], [plan])
        anchor = model.mnce_proj(T.take_rows(encoded.v_temp, [2])).data
        others = model.mnce_proj(encoded.v_temp).data
        max_neg = float(np.max(others @ anchor[0]))
        # positive target scaled so its score sits exactly 50 above any negative
        pos = anchor * ((max_neg + 50.0) / (np.linalg.norm(anchor) ** 2))
        monkeypatch.setattr(model, "mnce_positive_targets", lambda clips, plans: pos)
        loss = model.mnce_loss(encoded, [plan], np.random.default_rng(1), num_negatives=7)
        assert loss.item() < 1e-20
        T.reset_tape()

    def test_small_pools_sample_with_replacement(self, model, small_vocab):
        rng = np.random.default_rng(9)
        clip = make_clip(rng, small_vocab, groups=(3,), tokens=(4,))
        plan = P.FrameMaskPlan([0])  # only 2 unmasked frames, 5 negatives wanted
        encoded = model.encode_mfm([clip], [plan])
        loss = model.mnce_loss(encoded, [plan], np.random.default_rng(2), num_negatives=5)
        assert np.isfinite(loss.item())
        T.reset_tape()


def _ref_mnce_loss(model, encoded, plan, rng, num_negatives, positive_targets):
    """The per-position loop the batched head replaced: one projection, one
    negative draw and one (1+K)-way log-softmax per masked frame."""
    unmasked = np.setdiff1d(np.arange(encoded.clip.n_frames), np.asarray(plan.positions))
    replace = unmasked.size < num_negatives
    total = None
    for i, pos in enumerate(plan.positions):
        anchor = model.mnce_proj(T.take_rows(encoded.v_temp, [pos]))  # (1, d)
        neg_idx = rng.choice(unmasked, size=num_negatives, replace=replace)
        negs = model.mnce_proj(T.take_rows(encoded.v_temp, neg_idx))  # (K, d)
        pos_score = T.matmul(anchor, T.transpose(T.Tensor(positive_targets[i : i + 1])))  # (1, 1)
        neg_scores = T.matmul(anchor, T.transpose(negs))  # (1, K)
        logits = T.concat_rows([pos_score, T.transpose(neg_scores)])  # (1+K, 1), the positive first
        nll = -T.take_rows(T.reshape(T.log_softmax(T.transpose(logits)), (-1,)), [0]).sum()
        total = nll if total is None else total + nll
    return total * (1.0 / len(plan.positions))


def _ref_fom_loss(model, v_temp, plan):
    """One timestamp log-softmax per reordered position, summed."""
    n = v_temp.shape[0]
    total = None
    for pos, src in zip(plan.positions, plan.sources):
        logits = slice_cols(model.fom_head(T.take_rows(v_temp, [pos])), 0, n)
        nll = -T.take_rows(T.reshape(T.log_softmax(logits), (-1,)), [src]).sum()
        total = nll if total is None else total + nll
    return total


def _loss_and_grads(model, loss_fn):
    params = model.params()
    T.zero_grads(params.values())
    loss = loss_fn()
    T.backward(loss)
    return loss.item(), {k: p.grad.copy() for k, p in params.items() if p.grad is not None}


def _assert_same(a, b):
    """Two ``_loss_and_grads`` results agree within 1e-10."""
    (loss_a, grads_a), (loss_b, grads_b) = a, b
    assert loss_a == pytest.approx(loss_b, abs=1e-10)
    assert sorted(grads_a) == sorted(grads_b)
    for name in grads_b:
        np.testing.assert_allclose(grads_a[name], grads_b[name], rtol=0, atol=1e-10, err_msg=name)


class TestHeadsMatchPerPositionReference:
    """The one-cross-entropy mnce and fom heads against the per-position
    loops they replaced: loss and every parameter gradient within 1e-10."""

    @pytest.mark.parametrize("groups, positions, k", [
        ((6, 6), [1, 4, 5, 9], 5),
        ((3, 4), [0, 2, 3, 6], 7),  # 3 unmasked frames for 7 negatives: drawn with replacement
        ((5,), [2], 15),
    ])
    def test_mnce(self, model, small_vocab, groups, positions, k):
        rng = np.random.default_rng(31)
        clip = make_clip(rng, small_vocab, groups=groups, tokens=(4,) * len(groups))
        plan = P.FrameMaskPlan(positions)
        targets = model.mnce_positive_targets([clip], [plan])
        rngs = [np.random.default_rng([5, 13, 2]) for _ in range(2)]
        batched = _loss_and_grads(model, lambda: model.mnce_loss(
            model.encode_mfm([clip], [plan]), [plan], rngs[0], num_negatives=k,
        ))
        ref = _loss_and_grads(model, lambda: _ref_mnce_loss(
            model, clip_views(model.encode_mfm([clip], [plan]))[0], plan, rngs[1], k, targets
        ))
        _assert_same(batched, ref)
        assert rngs[0].bit_generator.state == rngs[1].bit_generator.state

    def test_fom(self, model, small_vocab):
        clip = make_clip(np.random.default_rng(32), small_vocab, groups=(5, 6), tokens=(3, 4))
        plan = P.ReorderPlan([1, 4, 7, 10], [7, 1, 10, 4])
        batched = _loss_and_grads(
            model, lambda: model.fom_loss(model.encode_reordered([clip], [plan]), [plan])
        )
        order = [plan.permutation(clip.n_frames)]

        def full_v_temp():
            return model.encoder.encode_clips([clip], frame_orders=order).v_temp

        ref = _loss_and_grads(model, lambda: _ref_fom_loss(model, full_v_temp(), plan))
        _assert_same(batched, ref)

    def test_mnce_op_count_does_not_grow_with_masked_frames(self, model, small_vocab):
        clip = make_clip(np.random.default_rng(33), small_vocab, groups=(6, 6), tokens=(4, 4))
        counts = []
        for positions in ([3], [0, 2, 5, 7, 8, 11]):
            plan = P.FrameMaskPlan(positions)
            encoded = model.encode_mfm([clip], [plan])
            before = T.tape_size()
            model.mnce_loss(encoded, [plan], np.random.default_rng(0))
            counts.append(T.tape_size() - before)
            T.reset_tape()
        assert counts[0] == counts[1]


def _uneven_clips(vocab):
    """Three clips of 11, 7 and 6 frames; the first has a tokenless sentence
    and interleaved frame groups."""
    rng = np.random.default_rng(40)
    a = make_clip(rng, vocab, groups=(2, 5, 3, 1), tokens=(4, 0, 7, 2), clip_id="a")
    for sent, group in zip(a.sentences, ([0, 4], [1, 2, 3, 8, 9], [5, 6, 10], [7])):
        sent.frame_indices = group
    b = make_clip(rng, vocab, groups=(4, 3), tokens=(5, 3), clip_id="b")
    c = make_clip(rng, vocab, groups=(6,), tokens=(3,), clip_id="c")
    return [a, b, c]


def _ref_task_loss(model, batch, hypers, neg_rng):
    """The per-clip path the packed pass replaced: one ``encode_clip`` and
    one head per clip, then the mean over clips."""
    enc, terms = model.encoder, []
    if batch.kind == "mlm":
        for clip, masked, plans in zip(batch.clips, batch.masked_token_ids, batch.token_plans):
            w_cross = fused_tokens(enc, [clip], [masked])[0]
            rows = [T.take_rows(w, p.positions) for w, p in zip(w_cross, plans) if p is not None]
            labels = [i for p in plans if p is not None for i in p.originals]
            terms.append(T.cross_entropy(model.lm_head(T.concat_rows(rows)), labels))
    elif batch.kind in ("mffr", "mnce"):
        for clip, plan in zip(batch.clips, batch.frame_plans):
            feats = clip.frame_features.copy()
            feats[plan.positions] = 0.0
            e = clip_views(enc.encode_clips([clip], frame_features_overrides=[feats]))[0]
            if batch.kind == "mffr":
                pred = model.mffr_head(T.take_rows(e.v_temp, plan.positions))
                terms.append(P.l2_regression_loss(pred, clip.frame_features[plan.positions]))
                continue
            with T.no_grad():
                clean = enc.encode_clip(clip)
                targets = model.mnce_proj(T.take_rows(clean.v_temp, plan.positions)).data
            terms.append(_ref_mnce_loss(model, e, plan, neg_rng, hypers.num_negatives, targets))
    elif batch.kind == "fom":
        for clip, plan in zip(batch.clips, batch.reorder_plans):
            v_emb, v_cross = enc.fuse_clip([clip])
            perm = plan.permutation(clip.n_frames)
            v_temp = enc.temporal_forward(T.take_rows(v_emb, perm), T.take_rows(v_cross, perm))
            terms.append(_ref_fom_loss(model, v_temp, plan))
    else:
        encoded = [enc.encode_clip(c) for c in batch.clips]
        return ref_vsm_loss(model, encoded, batch.vsm_targets, hypers)
    return P._mean_terms(terms)


class TestPackedBatchMatchesPerClip:
    """``task_loss`` encodes a batch in one packed pass; with dropout off it
    must equal the per-clip reference above: loss and every parameter
    gradient within 1e-10."""

    @pytest.fixture
    def setup(self, tiny_config, small_vocab):
        model = P.PretrainModel(tiny_config, seed=2)
        return model, _uneven_clips(small_vocab), P.PretrainHypers(num_negatives=5)

    def _batch(self, kind, clips, vocab, config):
        return P.build_task_batch(kind, clips, vocab, config, np.random.default_rng(41),
                                  step=3, seed=5)

    @pytest.mark.parametrize("kind", P.TASK_NAMES)
    def test_loss_and_gradients(self, setup, small_vocab, tiny_config, kind):
        model, clips, hypers = setup
        batch = self._batch(kind, clips, small_vocab, tiny_config)
        neg_rng = np.random.default_rng([batch.seed, P._SEED_NEGATIVES, batch.step])
        packed = _loss_and_grads(model, lambda: P.task_loss(model, batch, hypers))
        ref = _loss_and_grads(model, lambda: _ref_task_loss(model, batch, hypers, neg_rng))
        _assert_same(packed, ref)

    def test_mnce_draws_negatives_in_the_per_clip_order(self, setup, small_vocab, tiny_config):
        model, clips, hypers = setup
        batch = self._batch("mnce", clips, small_vocab, tiny_config)
        rngs = [np.random.default_rng(42) for _ in range(2)]
        packed = _loss_and_grads(model, lambda: model.mnce_loss(
            model.encode_mfm(clips, batch.frame_plans), batch.frame_plans, rngs[0],
            num_negatives=hypers.num_negatives,
        ))
        ref = _loss_and_grads(model, lambda: _ref_task_loss(model, batch, hypers, rngs[1]))
        _assert_same(packed, ref)
        assert rngs[0].bit_generator.state == rngs[1].bit_generator.state

    @pytest.mark.parametrize("n_clips", [1, 2, 3])
    def test_one_cross_modal_and_one_temporal_call_per_pass(
        self, setup, small_vocab, tiny_config, monkeypatch, n_clips
    ):
        model, clips, hypers = setup
        calls = []
        for name in ("cross_modal_forward", "temporal_apply"):
            original = getattr(HierarchicalEncoder, name)

            def counting(self, *args, _name=name, _original=original, **kwargs):
                calls.append(_name)
                return _original(self, *args, **kwargs)

            monkeypatch.setattr(HierarchicalEncoder, name, counting)
        # one pass (mlm's has no temporal stage), plus mnce's clean pass and vsm's query pass
        expected = {
            "mlm": (1, 0), "mffr": (1, 1), "mnce": (2, 2), "fom": (1, 1), "vsm": (2, 1),
        }
        for kind in P.TASK_NAMES:
            if kind == "vsm" and n_clips < 2:
                continue
            batch = self._batch(kind, clips[:n_clips], small_vocab, tiny_config)
            calls.clear()
            P.task_loss(model, batch, hypers)
            T.reset_tape()
            cross, temporal = expected[kind]
            assert calls.count("cross_modal_forward") == cross, kind
            assert calls.count("temporal_apply") == temporal, kind


class TestRowPruning:
    """Each task's stacks keep only the rows its head reads."""

    @pytest.mark.parametrize("kind", P.TASK_NAMES)
    def test_first_step_matches_the_full_row_reference(self, small_vocab, kind):
        """With dropout on, the loss equals the full-row stacks' bit for bit
        and every gradient is within rtol 1e-12 (``conftest``)."""
        config = ModelConfig(
            d=16, cross_layers=2, cross_heads=2, temporal_layers=2, temporal_heads=2,
            vocab_size=30, frame_feature_dim=8, max_frames=16, max_tokens=12,
            ffn_multiplier=2, dropout=0.1,
        )
        model = P.PretrainModel(config, seed=2)
        batch = P.build_task_batch(kind, _uneven_clips(small_vocab), small_vocab, config,
                                   np.random.default_rng(41), step=3, seed=5)
        assert_step_matches_full_rows(model.params(), lambda: P.task_loss(
            model, batch, P.PretrainHypers(num_negatives=5), train_rng=P.dropout_rng(5, 3)
        ))

    def test_mlm_runs_no_temporal_op(self, small_vocab, tiny_config, monkeypatch):
        model = P.PretrainModel(tiny_config, seed=2)
        batch = P.build_task_batch("mlm", _uneven_clips(small_vocab), small_vocab, tiny_config,
                                   np.random.default_rng(41))
        temporal = model.encoder.temporal.params()
        stack_calls = []
        call = type(model.encoder.temporal).__call__
        monkeypatch.setattr(type(model.encoder.temporal), "__call__",
                            lambda self, *a, **k: (stack_calls.append(self), call(self, *a, **k))[1])
        T.zero_grads(model.params().values())
        T.backward(P.task_loss(model, batch, P.PretrainHypers()))
        assert model.encoder.temporal not in stack_calls
        assert all(p.grad is None for p in temporal.values())


def _targets(clips, counts, seed):
    """``counts[b]`` span queries on clip b: random token ids of 1 to 6
    tokens and a random frame span."""
    rng = np.random.default_rng(seed)
    out = []
    for clip, n in zip(clips, counts):
        targets = []
        for _ in range(n):
            ids = [int(i) for i in rng.integers(5, 30, size=rng.integers(1, 7))]
            st = int(rng.integers(clip.n_frames))
            targets.append(P.VsmTarget(ids, (st, int(rng.integers(st, clip.n_frames)))))
        out.append(targets)
    return out


class TestBatchedVsmMatchesPerTarget:
    """``vsm_loss`` scores every query of a batch against every clip at once;
    it must equal the per-target path (one query pass, one score call and
    one pair of hinges per target) in loss and every parameter gradient
    within 1e-10."""

    @pytest.mark.parametrize("counts", [(1, 1, 1), (1, 2, 3), (3, 1, 2), (2, 3)])
    def test_loss_and_gradients(self, small_vocab, tiny_config, counts):
        model = P.PretrainModel(tiny_config, seed=4)
        clips = _uneven_clips(small_vocab)[: len(counts)]
        targets = _targets(clips, counts, seed=sum(counts))
        hypers = P.PretrainHypers(margin=0.5)  # wide enough that hinges are active
        batched = _loss_and_grads(
            model, lambda: model.vsm_loss(model.encoder.encode_clips(clips), targets, hypers)
        )
        ref = _loss_and_grads(model, lambda: ref_vsm_loss(
            model, [model.encoder.encode_clip(c) for c in clips], targets, hypers
        ))
        _assert_same(batched, ref)

    def test_one_query_pass_and_one_scorer_call(self, model, small_vocab, monkeypatch):
        clips = _uneven_clips(small_vocab)
        calls = []
        for name in ("encode_query", "vsm_scores_for_query"):
            original = getattr(P.PretrainModel, name)

            def counting(self, *args, _name=name, _original=original, **kwargs):
                calls.append(_name)
                return _original(self, *args, **kwargs)

            monkeypatch.setattr(P.PretrainModel, name, counting)
        ops = []
        for counts in ((1, 1, 1), (3, 2, 3)):
            encoded = model.encoder.encode_clips(clips)
            before = T.tape_size()
            model.vsm_loss(encoded, _targets(clips, counts, seed=1), P.PretrainHypers())
            ops.append(T.tape_size() - before)
            T.reset_tape()
        assert calls == ["encode_query", "vsm_scores_for_query"] * 2
        assert ops[0] == ops[1]  # the tape does not grow with the number of targets

    def test_encode_query_matches_one_pass_per_query(self, model):
        queries = [[5, 6, 7], [9], [10, 11, 12, 13, 14, 15], list(range(5, 20))]  # the last truncated
        batched = model.encode_query(queries).data
        for q, row in zip(queries, batched):
            np.testing.assert_allclose(row, ref_encode_query(model, q).data[0], rtol=0, atol=1e-12)
        with pytest.raises(UsageError):
            model.encode_query([[5, 6], []])

    def test_overlong_sentence_truncates_with_warning(self, model, caplog):
        max_tokens = model.config.max_tokens
        with caplog.at_level("WARNING"):
            long = model.encode_query([[5] * (max_tokens + 3)]).data
        assert any("truncated" in r.message for r in caplog.records)
        np.testing.assert_array_equal(long, model.encode_query([[5] * max_tokens]).data)

    def test_span_outside_its_clip_and_clip_without_target_rejected(self, model, small_vocab):
        clips = _uneven_clips(small_vocab)[1:]
        encoded = model.encoder.encode_clips(clips)
        far = [[P.VsmTarget([5, 6], (0, 2))], [P.VsmTarget([7], (1, clips[1].n_frames))]]
        for targets in (far, [[P.VsmTarget([5], (0, 1))], []]):
            with pytest.raises(UsageError):
                model.vsm_loss(encoded, targets, P.PretrainHypers())
            T.reset_tape()


def inline_norms_vsm_scores(model, clips, q):
    """The span-matching scorer with the row norms computed inline on every
    call, right after the dot products: the reference of the norms that
    ``EncodedBatch.row_norms`` caches."""
    v_temp = clips.v_temp
    dots = T.matmul(v_temp, T.transpose(q))
    n, d = v_temp.shape
    squares = T.matmul(T.reshape(v_temp, (n, 1, d)), T.reshape(v_temp, (n, d, 1)))
    row_norms = T.sqrt(T.reshape(squares, (n, 1)) + 1e-24)
    cos = dots * T.reciprocal(row_norms * T.sqrt((q * q).sum(axis=1) + 1e-24))
    slots, real = clips.slot_grid
    dots, cos = T.take_rows(dots, slots), T.take_rows(cos, slots)
    pad = np.where(real, 0.0, T.ATTENTION_MASK_BIAS)
    s_local = T.transpose(dots * real[..., None])
    log_p_st, log_p_ed = (
        T.log_softmax(T.conv1d(s_local, f) + pad[:, None])
        for f in (model.span_st_filter, model.span_ed_filter)
    )
    return P.VsmScores(T.vmax(cos + pad[..., None], axis=1), log_p_st, log_p_ed)


class TestVsmStepBitIdentical:
    def test_one_step_equals_the_inline_norms_scorer(self, small_vocab, monkeypatch):
        """Loss, every gradient and every updated parameter of one vsm step
        with dropout on are equal, not just close."""
        config = ModelConfig(
            d=16, cross_layers=1, cross_heads=2, temporal_layers=1, temporal_heads=2,
            vocab_size=30, frame_feature_dim=8, max_frames=16, max_tokens=12,
            ffn_multiplier=2, dropout=0.1,
        )
        batch = P.build_task_batch("vsm", _uneven_clips(small_vocab), small_vocab, config,
                                   np.random.default_rng(8), step=2, seed=0)
        hypers = P.PretrainHypers(margin=0.5)  # wide enough that hinges are active

        def one_step():
            model = P.PretrainModel(config, seed=2)
            opt = T.AdamW(model.params(), lr=1e-3, weight_decay=0.01)
            loss = P.pretrain_step(model, batch, opt, hypers, train_rng=P.dropout_rng(0, 2))
            params = model.params().items()
            return loss, {k: p.grad for k, p in params}, {k: p.data.copy() for k, p in params}

        got = one_step()
        monkeypatch.setattr(P.PretrainModel, "vsm_scores_for_query", inline_norms_vsm_scores)
        want = one_step()
        assert got[0] == want[0]
        for g, w in zip(got[1:], want[1:]):
            assert g.keys() == w.keys()
            for name in w:
                np.testing.assert_array_equal(g[name], w[name], err_msg=name)
        assert got[1]["span_st_filter"] is not None  # the step reached the scorer's parameters


class TestVsmScores:
    def test_probability_vectors_sum_to_one(self, model, toy_clip):
        encoded = model.encoder.encode_clip(toy_clip)
        q = model.encode_query([toy_clip.sentences[0].token_ids])
        scores = model.vsm_scores_for_query(encoded, q)
        assert abs(np.exp(scores.log_p_st.data).sum() - 1.0) < 1e-12
        assert abs(np.exp(scores.log_p_ed.data).sum() - 1.0) < 1e-12
        assert -1.0 <= scores.s_global.item() <= 1.0
        T.reset_tape()

    def test_constructed_geometry_attains_cosine_one(self, model):
        d = model.config.d
        q = np.zeros((1, d))
        q[0, 0] = 2.0
        rows = np.zeros((5, d))
        rows[3] = 3.0 * q[0]  # positive multiple of the query
        for i, other_axis in zip((0, 1, 2, 4), (1, 2, 3, 4)):
            rows[i, other_axis] = 1.0  # orthogonal to q
        scores = model.vsm_scores_for_query(rows_batch(T.Tensor(rows), [0, 5]), T.Tensor(q))
        assert scores.s_global.item() == pytest.approx(1.0, abs=1e-9)
        cos = rows @ q[0] / (np.linalg.norm(rows, axis=1) * np.linalg.norm(q))
        assert int(np.argmax(cos)) == 3
        T.reset_tape()

    def test_positive_query_scaling_leaves_argmaxes(self, model, toy_clip):
        encoded = model.encoder.encode_clip(toy_clip)
        q = model.encode_query([toy_clip.sentences[0].token_ids])
        a = model.vsm_scores_for_query(encoded, q)
        b = model.vsm_scores_for_query(encoded, q * 3.0)
        assert int(np.argmax(np.exp(a.log_p_st.data))) == int(np.argmax(np.exp(b.log_p_st.data)))
        assert int(np.argmax(np.exp(a.log_p_ed.data))) == int(np.argmax(np.exp(b.log_p_ed.data)))
        assert a.s_global.item() == pytest.approx(b.s_global.item(), abs=1e-9)
        T.reset_tape()


class TestVsmLoss:
    def test_hinge_hand_cases(self):
        assert P.hinge_loss(T.Tensor(0.9), T.Tensor(0.5), 0.1).item() == 0.0
        assert P.hinge_loss(T.Tensor(0.5), T.Tensor(0.6), 0.1).item() == pytest.approx(0.2, abs=1e-15)

    def test_hinge_nonnegative_and_zero_past_margin(self):
        rng = np.random.default_rng(10)
        for _ in range(200):
            s_pos, s_neg = rng.uniform(-1, 1, size=2)
            v = P.hinge_loss(T.Tensor(s_pos), T.Tensor(s_neg), 0.1).item()
            assert v >= 0.0
            if s_pos >= s_neg + 0.1:
                assert v == 0.0

    def test_perfect_span_distribution_has_zero_local_term(self):
        log_p = np.full(6, -50.0)
        log_p[2] = 0.0  # probability exactly 1 at the target
        term = P.span_nll(T.Tensor(log_p), T.Tensor(log_p), (2, 2))
        assert term.item() == 0.0

    def test_default_hypers_match_contract(self):
        h = P.PretrainHypers()
        assert (h.margin, h.lambda_local, h.lambda_global) == (0.1, 0.01, 8.0)

    def test_single_clip_batch_rejected(self, model, toy_clip):
        encoded = model.encoder.encode_clips([toy_clip])
        targets = [P.sample_vsm_targets(toy_clip, np.random.default_rng(0))]
        with pytest.raises(UsageError):
            model.vsm_loss(encoded, targets, P.PretrainHypers())
        T.reset_tape()

    def test_runs_on_a_pair_of_clips(self, model, small_vocab):
        rng = np.random.default_rng(11)
        clips = [make_clip(rng, small_vocab, clip_id=f"c{i}") for i in range(2)]
        encoded = model.encoder.encode_clips(clips)
        targets = [P.sample_vsm_targets(c, np.random.default_rng(i)) for i, c in enumerate(clips)]
        loss = model.vsm_loss(encoded, targets, P.PretrainHypers())
        assert np.isfinite(loss.item())
        T.reset_tape()


class TestFom:
    def test_round_trip_permutation_restores_rows(self):
        rng = np.random.default_rng(12)
        plan = P.make_reorder_plan(12, rng)
        x = rng.standard_normal((12, 4))
        perm = plan.permutation(12)
        inverse = np.argsort(perm)
        np.testing.assert_array_equal(x[perm][inverse], x)

    def test_reorder_rate_near_15_percent(self):
        rng = np.random.default_rng(13)
        total, moved = 0, 0
        for _ in range(400):
            plan = P.make_reorder_plan(40, rng)
            total += 40
            moved += len(plan.positions)
        assert abs(moved / total - 0.15) < 0.01

    def test_uniform_logits_loss_is_log_frames_per_position(self, model, small_vocab):
        rng = np.random.default_rng(14)
        clip = make_clip(rng, small_vocab, groups=(6, 6), tokens=(4, 4))
        model.fom_head.w.data[:] = 0.0
        model.fom_head.b.data[:] = 0.0
        plan = P.make_reorder_plan(12, np.random.default_rng(1))
        loss = model.fom_loss(model.encode_reordered([clip], [plan]), [plan])
        assert loss.item() / len(plan.positions) == pytest.approx(math.log(12), abs=1e-12)
        T.reset_tape()

    def test_rigged_one_hot_timestamps_zero_the_nll(self):
        labels = [3, 1]
        logits = np.full((2, 6), -40.0)
        for row, lab in enumerate(labels):
            logits[row, lab] = 40.0
        loss = P.timestamp_nll(T.Tensor(logits), labels)
        assert loss.item() < 1e-6

    def test_loss_counts_only_reordered_positions(self, model, small_vocab):
        """The temporal stack keeps the reordered rows alone, equal to
        those rows of a full-row pass, and the loss reads nothing else."""
        rng = np.random.default_rng(15)
        clip = make_clip(rng, small_vocab, groups=(5, 5), tokens=(3, 3))
        plan = P.ReorderPlan([2, 7], [7, 2])
        encoded = model.encode_reordered([clip], [plan])
        full = model.encoder.encode_clips([clip], frame_orders=[plan.permutation(10)])
        assert encoded.v_temp.data.tobytes() == full.v_temp.data[plan.positions].tobytes()
        with full_row_stacks():
            base = model.fom_loss(model.encode_reordered([clip], [plan]), [plan]).item()
        assert model.fom_loss(encoded, [plan]).item() == base
        T.reset_tape()

    def test_rejects_rows_split_differently_over_the_clips(self, model, small_vocab):
        clips = _clips_of_6_and_4_frames(small_vocab)
        encoded = model.encode_reordered(
            clips, [P.ReorderPlan([0, 2], [2, 0]), P.ReorderPlan([1, 2, 3], [2, 3, 1])]
        )
        plans = [P.ReorderPlan([0, 1, 2], [1, 2, 0]), P.ReorderPlan([0, 3], [3, 0])]
        with pytest.raises(UsageError, match="clip by clip"):
            model.fom_loss(encoded, plans)
        T.reset_tape()

    def test_non_permutation_plan_rejected(self, model, small_vocab):
        rng = np.random.default_rng(16)
        clip = make_clip(rng, small_vocab, groups=(4,), tokens=(3,))
        encoded = model.encoder.encode_clips([clip])
        with pytest.raises(UsageError):
            model.fom_loss(encoded, [P.ReorderPlan([0, 1], [2, 3])])
        T.reset_tape()


class TestBatching:
    def _corpus(self, vocab, n=5):
        rng = np.random.default_rng(17)
        sizes = [(3, 4), (4, 5), (2, 5), (3, 3), (4, 4)]
        return [
            make_clip(rng, vocab, groups=sizes[i % len(sizes)], clip_id=f"clip{i}")
            for i in range(n)
        ]

    def test_exactly_one_task_per_batch(self, small_vocab, tiny_config):
        clips = self._corpus(small_vocab)
        batches = list(
            P.make_batches(clips, small_vocab, tiny_config, batch_size=2, seed=0,
                           weights=UNIFORM, num_steps=30)
        )
        for b in batches:
            assert b.kind in P.TASK_NAMES
            payloads = [
                b.token_plans is not None,
                b.frame_plans is not None,
                b.reorder_plans is not None,
                b.vsm_targets is not None,
            ]
            assert sum(payloads) == 1

    def test_modality_exclusivity(self, small_vocab, tiny_config):
        clips = self._corpus(small_vocab)
        for b in P.make_batches(clips, small_vocab, tiny_config, batch_size=2, seed=1,
                                weights=UNIFORM, num_steps=40):
            if b.kind == "mlm":
                assert b.frame_plans is None
            if b.kind in ("mffr", "mnce"):
                assert b.token_plans is None

    def test_epoch_covers_every_clip_exactly_once(self, small_vocab, tiny_config):
        clips = self._corpus(small_vocab, n=4)
        batches = list(
            P.make_batches(clips, small_vocab, tiny_config, batch_size=2, seed=2,
                           weights={"mlm": 1.0}, num_steps=2)
        )
        seen = [c.clip_id for b in batches for c in b.clips]
        assert sorted(seen) == sorted(c.clip_id for c in clips)

    def test_stream_is_deterministic_and_resumable(self, small_vocab, tiny_config):
        clips = self._corpus(small_vocab)
        full = list(
            P.make_batches(clips, small_vocab, tiny_config, batch_size=2, seed=3,
                           weights=UNIFORM, num_steps=12)
        )
        tail = list(
            P.make_batches(clips, small_vocab, tiny_config, batch_size=2, seed=3,
                           weights=UNIFORM, num_steps=12, start_step=6)
        )
        for a, b in zip(full[6:], tail):
            assert a.kind == b.kind
            assert [c.clip_id for c in a.clips] == [c.clip_id for c in b.clips]

    def test_vsm_with_batch_size_one_rejected(self, small_vocab, tiny_config):
        clips = self._corpus(small_vocab)
        with pytest.raises(ConfigError):
            P.make_batches(clips, small_vocab, tiny_config, batch_size=1, seed=0,
                           weights=UNIFORM, num_steps=1)

    def test_vsm_only_with_ragged_final_batch_rejected(self, small_vocab, tiny_config):
        clips = self._corpus(small_vocab, n=5)
        with pytest.raises(ConfigError):
            P.make_batches(clips, small_vocab, tiny_config, batch_size=2, seed=0,
                           weights={"vsm": 1.0}, num_steps=1)

    @pytest.mark.parametrize("task", ["mlm", "vsm", "mnce"])
    def test_a_clip_that_cannot_serve_an_enabled_task_rejected_at_the_call(
        self, small_vocab, tiny_config, task
    ):
        clips = self._corpus(small_vocab)
        rng = np.random.default_rng(3)
        if task == "mnce":
            clips[2] = make_clip(rng, small_vocab, groups=(1,), tokens=(3,), clip_id="clip2")
        else:
            clips[2] = make_clip(rng, small_vocab, groups=(2, 3), tokens=(0, 0), clip_id="clip2")
        with pytest.raises(DataError, match=f"clip 'clip2' cannot serve task {task}"):
            P.make_batches(clips, small_vocab, tiny_config, batch_size=2, seed=0,
                           weights={"fom": 1.0, task: 1.0}, num_steps=1)
        # the tasks the clip can serve run
        servable = ("mffr", "fom", "mlm", "vsm") if task == "mnce" else ("mffr", "mnce", "fom")
        batches = P.make_batches(clips, small_vocab, tiny_config, batch_size=2, seed=0,
                                 weights=dict.fromkeys(servable, 1.0), num_steps=6)
        assert len(list(batches)) == 6

    @pytest.mark.parametrize(
        "weights", [{"nope": 1.0}, {"mlm": -1.0, "fom": 1.0}, {"mlm": 0.0, "vsm": 0.0}, {}]
    )
    def test_bad_task_weights_rejected_at_the_call(self, small_vocab, tiny_config, weights):
        clips = self._corpus(small_vocab)
        with pytest.raises(ConfigError):
            P.make_batches(clips, small_vocab, tiny_config, batch_size=2, seed=0,
                           weights=weights, num_steps=1)

    def test_mnce_on_two_frame_clips_leaves_a_frame_unmasked(self, small_vocab, tiny_config):
        # at seed 0 about one step in seven drew a plan masking both frames of a clip
        rng = np.random.default_rng(5)
        clips = [
            make_clip(rng, small_vocab, groups=(2,), tokens=(3,), clip_id=f"c{i}",
                      feat_dim=tiny_config.frame_feature_dim)
            for i in range(4)
        ]
        model = P.PretrainModel(tiny_config, seed=0)
        opt = T.AdamW(model.params(), lr=1e-3, weight_decay=0.01)
        hypers = P.PretrainHypers()
        for b in P.make_batches(clips, small_vocab, tiny_config, batch_size=2, seed=0,
                                weights={"mnce": 1.0}, num_steps=40):
            assert all(len(plan.positions) == 1 for plan in b.frame_plans)
            assert np.isfinite(P.pretrain_step(model, b, opt, hypers))

    def test_mixed_schedule_routes_singleton_batch_away_from_vsm(self, small_vocab, tiny_config):
        clips = self._corpus(small_vocab, n=5)
        for b in P.make_batches(clips, small_vocab, tiny_config, batch_size=2, seed=0,
                                weights=UNIFORM, num_steps=30):
            if len(b.clips) == 1:
                assert b.kind != "vsm"


class TestPretrainStep:
    def _setup(self, vocab, weights, seed=0, lr=1e-3):
        config = ModelConfig(
            d=16, cross_layers=1, cross_heads=2, temporal_layers=1, temporal_heads=2,
            vocab_size=30, frame_feature_dim=8, max_frames=16, max_tokens=12,
            ffn_multiplier=2, dropout=0.0,
        )
        model = P.PretrainModel(config, seed=seed)
        opt = T.AdamW(model.params(), lr=lr, weight_decay=0.01)
        rng = np.random.default_rng(19)
        clips = [make_clip(rng, vocab, clip_id=f"c{i}") for i in range(4)]
        batches = P.make_batches(clips, vocab, config, batch_size=2, seed=seed,
                                 weights=weights, num_steps=10_000)
        return model, opt, batches

    def test_mlm_only_overfit_halves_the_loss(self, tmp_path):
        from vidtext.data import align, read_corpus, synth_corpus

        path, vocab = synth_corpus(
            tmp_path / "c.jsonl", num_clips=4, fps=2 / 3, clip_seconds=21.0,
            vocab_size=30, feature_dim=8, planted_structure=True, seed=1,
        )
        _, raws = read_corpus(path)
        clips = [align(r, vocab) for r in raws]
        config = ModelConfig(
            d=16, cross_layers=1, cross_heads=2, temporal_layers=1, temporal_heads=2,
            vocab_size=30, frame_feature_dim=8, max_frames=16, max_tokens=12,
            ffn_multiplier=2, dropout=0.0,
        )
        model = P.PretrainModel(config, seed=0)
        opt = T.AdamW(model.params(), lr=3e-3, weight_decay=0.01)
        batches = P.make_batches(clips, vocab, config, batch_size=2, seed=0,
                                 weights={"mlm": 1.0}, num_steps=200)
        hypers = P.PretrainHypers()
        losses = [P.pretrain_step(model, b, opt, hypers) for b in batches]
        assert np.mean(losses[-5:]) < 0.5 * losses[0]

    def test_fixed_seed_trajectory_is_bit_identical(self, small_vocab):
        hypers = P.PretrainHypers()

        def run():
            model, opt, batches = self._setup(small_vocab, UNIFORM, seed=4)
            return [P.pretrain_step(model, next(batches), opt, hypers) for _ in range(30)]

        assert run() == run()

    def test_every_task_reaches_shared_encoder_parameters(self, small_vocab, tiny_config):
        model = P.PretrainModel(tiny_config, seed=1)
        rng = np.random.default_rng(20)
        clips = [make_clip(rng, small_vocab, clip_id=f"c{i}") for i in range(2)]
        hypers = P.PretrainHypers()
        shared = model.encoder.params("encoder")
        for kind in P.TASK_NAMES:
            batch = P.build_task_batch(kind, clips, small_vocab, tiny_config,
                                       np.random.default_rng(21), step=0, seed=0)
            T.zero_grads(model.params().values())
            loss = P.task_loss(model, batch, hypers)
            T.backward(loss)
            grads = [p.grad for p in shared.values() if p.grad is not None]
            assert any(np.abs(g).max() > 0 for g in grads), kind

    def test_recording_attention_changes_no_step(self, small_vocab):
        """Steps inside ``record_attention`` give the losses and parameters of
        steps outside it, to the bit."""
        hypers = P.PretrainHypers()

        def run(record):
            model, opt, batches = self._setup(small_vocab, UNIFORM, seed=5)
            steps = [next(batches) for _ in range(5)]
            with T.record_attention() if record else contextlib.nullcontext([]) as ops:
                losses = [P.pretrain_step(model, b, opt, hypers) for b in steps]
            return losses, {k: p.data.copy() for k, p in model.params().items()}, len(ops)

        (losses, params, n_ops), (want_losses, want_params, _) = run(True), run(False)
        assert n_ops > 0 and losses == want_losses
        for name in want_params:
            np.testing.assert_array_equal(params[name], want_params[name], err_msg=name)

    def test_failed_forward_leaves_no_ops_on_the_tape(self, small_vocab, tiny_config):
        rng = np.random.default_rng(30)
        clips = [make_clip(rng, small_vocab, clip_id=f"c{i}") for i in range(2)]
        batch = P.build_task_batch("mffr", clips, small_vocab, tiny_config,
                                   np.random.default_rng(0), step=0, seed=0)
        hypers = P.PretrainHypers()

        def grads_of_one_step(fail_first):
            model = P.PretrainModel(tiny_config, seed=3)
            opt = T.AdamW(model.params(), lr=1e-3)
            if fail_first:
                def failing_loss(encoded, plan):
                    raise RuntimeError("head failed after the encoder ran")

                model.mffr_loss = failing_loss
                with pytest.raises(RuntimeError):
                    P.pretrain_step(model, batch, opt, hypers)
                assert T.tape_size() == 0
                del model.mffr_loss
            P.pretrain_step(model, batch, opt, hypers)
            return {k: p.grad for k, p in model.params().items()}

        fresh, after_failure = grads_of_one_step(False), grads_of_one_step(True)
        assert fresh.keys() == after_failure.keys()
        for name in fresh:
            np.testing.assert_array_equal(after_failure[name], fresh[name], err_msg=name)
