"""Downstream head tests: QA, inference, captioning, retrieval adaptation."""

import contextlib
import gc
import math
import weakref

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from vidtext import downstream
from vidtext import tensor as T
from vidtext.data import CLS_ID, SEP_ID, AlignedClip, Sentence, Vocab, tokenize
from vidtext.downstream import (
    CaptionExample,
    NliExample,
    QaExample,
    QaModel,
    NliModel,
    CaptionModel,
    RetrievalExample,
    best_spans,
    finetune_model_for,
    finetune_steps,
    load_params_into,
    qa_augmented_token_ids,
    rank_moments,
    read_task_file,
    retrieval_targets,
    seconds_to_frame_span,
    write_task_file,
    QA_LAMBDA_DEFAULT,
)
from vidtext.encoder import HierarchicalEncoder, ModelConfig
from vidtext.errors import ConfigError, DataError, UsageError
from vidtext.metrics import Moment, Ranking, temporal_nms
from vidtext.pretrain import PretrainHypers, PretrainModel

from conftest import (
    assert_kept_rows_equal,
    assert_step_matches_full_rows,
    detokenize,
    full_row_stacks,
    embed_sentence,
    loop_best_spans,
    make_clip,
    one_segment,
    ref_encode_query,
    ref_global_alignment_score,
    ref_rank_moments,
    ref_temporal_nms,
    stacked_rank_moments,
    stacked_vsm_scores,
)


def single_channel_wrap(
    frame_features: np.ndarray, frame_times, clip_id: str = "clip"
) -> AlignedClip:
    """Wrap a subtitle-less video: one empty-string subtitle ([CLS][SEP]
    only) paired with the whole frame sequence."""
    n = frame_features.shape[0]
    sent = Sentence(
        text="",
        token_ids=[CLS_ID, SEP_ID],
        t0=frame_times[0][0],
        t1=frame_times[-1][1],
        frame_indices=list(range(n)),
    )
    return AlignedClip(
        clip_id, [sent], np.asarray(frame_features, dtype=np.float64),
        np.asarray(frame_times, dtype=np.float64).reshape(-1, 2),
    )


def rank_clips(model, encoded, query_token_ids) -> Ranking:
    """Clip-level ranking only (single-channel video retrieval)."""
    clips = [clip for enc in encoded for clip in enc.clips]
    s_global = stacked_vsm_scores(model, encoded, query_token_ids).s_global.data[:, 0]
    order = np.argsort(-s_global, kind="stable")
    return Ranking(
        tuple(c.clip_id for c in clips),
        order,
        np.array([clips[i].frame_times[0][0] for i in order], dtype=np.float64),
        np.array([clips[i].frame_times[-1][1] for i in order], dtype=np.float64),
        s_global[order],
    )


@pytest.fixture
def qa_model(tiny_config):
    return QaModel(tiny_config, seed=0)


def qa_example(clip, vocab, label=1, span=None, n_answers=4):
    words = [detokenize([i], vocab) for i in range(vocab.num_specials, vocab.num_specials + 8)]
    return QaExample(
        clip_id=clip.clip_id,
        question=" ".join(words[:3]),
        answers=[" ".join(words[i : i + 2]) for i in range(n_answers)],
        label=label,
        span=span,
    )


class TestTaskFiles:
    def test_round_trip_all_tasks(self, tmp_path):
        cases = {
            "retrieval": [RetrievalExample("c0", "a query", (1.0, 4.0))],
            "qa": [QaExample("c0", "why", ["a", "b", "c"], 1, (0.0, 2.0))],
            "nli": [NliExample("c0", "it rains", 1)],
            "caption": [CaptionExample("c0", (2.0, 5.0), "some words")],
        }
        for task, examples in cases.items():
            path = tmp_path / f"{task}.jsonl"
            write_task_file(path, task, examples)
            assert read_task_file(path, task) == examples

    def test_schema_error_names_the_record(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"clip_id": "c0", "query": "q", "span": [0, 2]}\n{"clip_id": "c1"}\n')
        with pytest.raises(DataError, match=r"bad\.jsonl:2"):
            read_task_file(path, "retrieval")

    def test_qa_label_out_of_range_rejected(self):
        with pytest.raises(DataError):
            QaExample("c", "q", ["a", "b"], 2)

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError):
            read_task_file(tmp_path / "none.jsonl", "qa")

    @pytest.mark.parametrize("task, record", [
        ("retrieval", '"query": "q", "span": [5]'),
        ("retrieval", '"query": "q", "span": [1, 2, 3]'),
        ("retrieval", '"query": "q", "span": [NaN, 5]'),
        ("retrieval", '"query": "q", "span": [1, Infinity]'),
        ("retrieval", '"query": "q", "span": [5, 1]'),
        ("retrieval", '"query": "q", "span": "12"'),
        ("qa", '"q": "q", "answers": ["a", "b"], "label": 0, "span": [2]'),
        ("caption", '"moment": [NaN, NaN], "caption": "c"'),
    ])
    def test_interval_must_be_two_ordered_finite_numbers(self, tmp_path, task, record):
        path = tmp_path / "bad.jsonl"
        path.write_text('\n{"clip_id": "c1", ' + record + "}\n")  # line 1 is blank
        with pytest.raises(DataError, match=r"bad\.jsonl:2"):
            read_task_file(path, task)


class TestSingleChannelWrap:
    def test_one_group_spanning_all_frames(self):
        rng = np.random.default_rng(0)
        clip = single_channel_wrap(rng.standard_normal((8, 8)), [(i, i + 1.0) for i in range(8)])
        assert len(clip.sentences) == 1
        assert clip.sentences[0].frame_indices == list(range(8))
        assert clip.sentences[0].token_ids == [2, 3]  # [CLS][SEP]

    def test_retrieval_scoring_runs_unchanged_on_wrapped_clip(self, tiny_config, small_vocab):
        rng = np.random.default_rng(1)
        model = PretrainModel(tiny_config, seed=0)
        clips = [
            single_channel_wrap(rng.standard_normal((6, 8)), [(i, i + 1.0) for i in range(6)], f"v{i}")
            for i in range(3)
        ]
        encoded = [model.encoder.encode_clip(c) for c in clips]
        query = tokenize("w000 w001 w002", small_vocab)
        moments = rank_moments(model, encoded, query)
        assert all(m1.score >= m2.score for m1, m2 in zip(moments, moments[1:]))
        clip_level = rank_clips(model, encoded, query)
        assert len(clip_level) == 3  # clip-level scores only

    def test_span_conversion(self, small_vocab):
        rng = np.random.default_rng(2)
        clip = make_clip(rng, small_vocab, groups=(4, 4), seconds_per_frame=1.5)
        assert seconds_to_frame_span(clip, 1.6, 4.4) == (1, 2)
        with pytest.raises(DataError):
            seconds_to_frame_span(clip, 100.0, 101.0)

    @given(
        step=st.sampled_from([0.25, 1.0 / 3.0, 1.5]),
        ends=st.tuples(st.integers(-4, 40), st.integers(-4, 40)).map(sorted),
    )
    def test_span_conversion_matches_the_frame_loop(self, step, ends):
        clip = make_clip(np.random.default_rng(2), Vocab.synthetic(30), groups=(4, 4), seconds_per_frame=step)
        t0, t1 = ends[0] * step / 4, ends[1] * step / 4
        hits = [i for i, (f0, f1) in enumerate(clip.frame_times.tolist()) if min(f1, t1) - max(f0, t0) > 0]
        if not hits:
            with pytest.raises(DataError, match="overlaps no frame"):
                seconds_to_frame_span(clip, t0, t1)
        else:
            span = seconds_to_frame_span(clip, t0, t1)
            assert span == (hits[0], hits[-1]) and all(type(i) is int for i in span)


class TestQa:
    def test_probabilities_sum_to_one(self, qa_model, toy_clip, small_vocab):
        ex = qa_example(toy_clip, small_vocab)
        q = tokenize(ex.question, small_vocab)
        answers = [tokenize(a, small_vocab) for a in ex.answers]
        log_p_ans, log_p_st, log_p_ed = qa_model.forward(toy_clip, q, answers)
        assert abs(np.exp(log_p_ans.data).sum() - 1.0) < 1e-12
        assert abs(np.exp(log_p_st.data).sum() - 1.0) < 1e-9
        T.reset_tape()

    def test_candidate_permutation_equivariance(self, qa_model, toy_clip, small_vocab):
        ex = qa_example(toy_clip, small_vocab)
        q = tokenize(ex.question, small_vocab)
        answers = [tokenize(a, small_vocab) for a in ex.answers]
        perm = [2, 0, 3, 1]
        p1 = np.exp(qa_model.forward(toy_clip, q, answers)[0].data)
        T.reset_tape()
        p2 = np.exp(qa_model.forward(toy_clip, q, [answers[p] for p in perm])[0].data)
        T.reset_tape()
        np.testing.assert_allclose(p2, p1[perm], atol=1e-12)

    def test_fewer_than_two_candidates_rejected(self, qa_model, toy_clip):
        with pytest.raises(UsageError):
            qa_model.forward(toy_clip, [5, 6], [[7]])

    def test_uniform_answers_give_log_n(self, qa_model, toy_clip, small_vocab):
        qa_model.qa.ans_hidden.w.data[:] = 0.0
        qa_model.qa.ans_hidden.b.data[:] = 0.0
        qa_model.qa.ans_out.w.data[:] = 0.0
        ex = qa_example(toy_clip, small_vocab, label=3, n_answers=5)
        loss = qa_model.loss(toy_clip, ex, small_vocab, lam=QA_LAMBDA_DEFAULT)
        assert loss.item() == pytest.approx(math.log(5), abs=1e-12)
        T.reset_tape()

    def test_lambda_zero_reduces_to_answer_loss(self, qa_model, toy_clip, small_vocab):
        ex = qa_example(toy_clip, small_vocab, span=(0.0, 3.0))
        with_span_off = qa_model.loss(toy_clip, ex, small_vocab, lam=0.0).item()
        T.reset_tape()
        no_span_ex = qa_example(toy_clip, small_vocab, span=None)
        baseline = qa_model.loss(toy_clip, no_span_ex, small_vocab, lam=0.5).item()
        T.reset_tape()
        assert with_span_off == baseline

    def test_loss_monotone_in_lambda(self, qa_model, toy_clip, small_vocab):
        ex = qa_example(toy_clip, small_vocab, span=(0.0, 3.0))
        values = []
        for lam in (0.0, 0.5, 1.0):
            values.append(qa_model.loss(toy_clip, ex, small_vocab, lam=lam).item())
            T.reset_tape()
        assert values[0] < values[1] < values[2]

    def test_negative_lambda_rejected(self, qa_model, toy_clip, small_vocab):
        with pytest.raises(ConfigError):
            qa_model.loss(toy_clip, qa_example(toy_clip, small_vocab), small_vocab, lam=-0.1)

    def test_default_lambda_wiring(self):
        assert QA_LAMBDA_DEFAULT == 0.5

    def test_rigged_one_hot_outputs_zero_the_loss(self):
        from vidtext import tensor as T
        from vidtext.downstream import qa_loss_from_outputs

        log_p_ans = np.full(4, -60.0)
        log_p_ans[2] = 0.0
        log_p = np.full(7, -60.0)
        log_p[3] = 0.0
        loss = qa_loss_from_outputs(
            T.Tensor(log_p_ans), T.Tensor(log_p), T.Tensor(log_p), label=2, span=(3, 3)
        )
        assert loss.item() == 0.0

    def test_augmented_ids_truncate(self):
        ids = qa_augmented_token_ids([5, 6], [7, 8, 9], max_tokens=5)
        assert len(ids) == 5
        assert ids[:3] == [5, 6, SEP_ID]


# -- reference path: one encoder pass per candidate ------------------------------


def _ref_encode_with_appended_text(encoder, clip, extra_ids):
    """One candidate: its own fuse_clip over the augmented sentences, its own
    cross-modal pass of the pseudo-sentence and its own temporal pass."""
    max_tokens = encoder.config.max_tokens
    override = [
        qa_augmented_token_ids(s.token_ids, extra_ids, max_tokens) for s in clip.sentences
    ]
    v_emb, v_cross = encoder.fuse_clip([clip], [override])
    w_emb = embed_sentence(encoder, extra_ids)
    w_cross = encoder.cross_modal_forward(None, w_emb, one_segment(None, w_emb))
    h = encoder.temporal_apply(T.concat_rows([v_emb + v_cross, w_emb + w_cross]))
    return T.take_rows(h, np.arange(clip.n_frames))


def _ref_pool(rows, query, d):
    alpha = T.softmax(T.matmul(rows, query) * (1.0 / math.sqrt(d)), axis=0)
    return T.matmul(T.transpose(alpha), rows)  # (1, d)


def _ref_qa_forward(model, clip, question_ids, answer_ids):
    head, d = model.qa, model.config.d
    pooled_list, rows_list, logits = [], [], []
    for ans in answer_ids:
        rows = _ref_encode_with_appended_text(
            model.encoder, clip, list(question_ids) + [SEP_ID] + list(ans)
        )
        pooled = _ref_pool(rows, head.pool_query, d)
        logits.append(head.ans_out(T.gelu(head.ans_hidden(pooled))))
        pooled_list.append(pooled)
        rows_list.append(rows)
    ans_logits = T.transpose(T.concat_rows(logits))  # (1, C)
    log_p_ans = T.reshape(T.log_softmax(ans_logits), (-1,))
    beta = T.softmax(
        T.matmul(T.concat_rows(pooled_list), head.answer_attn_query) * (1.0 / math.sqrt(d)), axis=0
    )
    fused = None
    for a, rows in enumerate(rows_list):
        term = rows * T.take_rows(beta, [a])
        fused = term if fused is None else fused + term
    st = T.reshape(head.st_out(T.gelu(head.st_hidden(fused))), (-1,))
    ed = T.reshape(head.ed_out(T.gelu(head.ed_hidden(fused))), (-1,))
    return log_p_ans, T.log_softmax(st), T.log_softmax(ed)


class TestBatchedCandidatesMatchPerCandidate:
    """One packed encoder pass for all candidates against one pass per
    candidate (dropout off): every output and parameter gradient within 1e-10."""

    @pytest.fixture
    def setup(self, small_vocab):
        config = ModelConfig(
            d=16, cross_layers=2, cross_heads=4, temporal_layers=1, temporal_heads=2,
            vocab_size=30, frame_feature_dim=8, max_frames=16, max_tokens=12,
            ffn_multiplier=2, dropout=0.0,
        )
        rng = np.random.default_rng(11)
        # a tokenless sentence, interleaved frame groups and a sentence long
        # enough that appending the question and answer truncates it
        clip = make_clip(rng, small_vocab, groups=(2, 5, 3), tokens=(4, 0, 9))
        for sent, group in zip(clip.sentences, [[0, 4], [1, 2, 3, 8, 9], [5, 6, 7]]):
            sent.frame_indices = group
        def words(n):
            return [int(t) for t in rng.integers(small_vocab.num_specials, small_vocab.size, n)]

        question = words(3)
        answers = [words(n) for n in (2, 1, 4, 3, 2)]  # uneven lengths
        return config, clip, question, answers

    @staticmethod
    def _weighted_sum(outputs, seed=12):
        rng = np.random.default_rng(seed)
        total = None
        for out in outputs:
            term = (out * T.Tensor(rng.standard_normal(out.shape))).sum()
            total = term if total is None else total + term
        return total

    def _run(self, model, fn):
        params = model.params()
        T.zero_grads(params.values())
        outs = fn()
        T.backward(self._weighted_sum(outs))
        return [o.data for o in outs], {k: p.grad.copy() for k, p in params.items()}

    @staticmethod
    def _assert_close(fast, ref):
        (f_outs, f_grads), (r_outs, r_grads) = fast, ref
        for i, (a, b) in enumerate(zip(f_outs, r_outs)):
            assert a.shape == b.shape, i
            np.testing.assert_allclose(a, b, rtol=0, atol=1e-10, err_msg=f"output {i}")
        assert f_grads.keys() == r_grads.keys()
        for name in r_grads:
            np.testing.assert_allclose(f_grads[name], r_grads[name], rtol=0, atol=1e-10, err_msg=name)

    def test_qa_forward(self, setup):
        config, clip, question, answers = setup
        model = QaModel(config, seed=0)
        fast = self._run(model, lambda: model.forward(clip, question, answers))
        ref = self._run(model, lambda: _ref_qa_forward(model, clip, question, answers))
        self._assert_close(fast, ref)

    def test_nli_logits(self, setup, small_vocab):
        config, clip, _, answers = setup
        model = NliModel(config, seed=0)
        example = NliExample(clip.clip_id, detokenize(answers[2], small_vocab), 1)
        ids = tokenize(example.hypothesis, small_vocab)

        def ref():
            rows = _ref_encode_with_appended_text(model.encoder, clip, ids)
            pooled = _ref_pool(rows, model.nli.pool_query, config.d)
            return [model.nli.cls_out(T.gelu(model.nli.cls_hidden(pooled)))]

        fast = self._run(model, lambda: [model._logits(clip, example, small_vocab)])
        self._assert_close(fast, self._run(model, ref))

    def test_one_cross_modal_and_one_temporal_call_per_example(self, setup, monkeypatch):
        config, clip, question, answers = setup
        model = QaModel(config, seed=0)
        calls = []
        for name in ("cross_modal_forward", "temporal_apply", "embed_video", "embed_text"):
            original = getattr(HierarchicalEncoder, name)

            def counting(self, *args, _name=name, _original=original, **kwargs):
                calls.append(_name)
                return _original(self, *args, **kwargs)

            monkeypatch.setattr(HierarchicalEncoder, name, counting)
        model.forward(clip, question, answers)
        T.reset_tape()
        assert sorted(calls) == ["cross_modal_forward", "embed_text", "embed_video", "temporal_apply"]


class TestQaRowPruning:
    """With dropout on, the appended-text encoding, whose stacks keep only
    the rows the next stage reads, against the full-row reference."""

    _CONFIG = ModelConfig(
        d=16, cross_layers=2, cross_heads=4, temporal_layers=2, temporal_heads=2,
        vocab_size=30, frame_feature_dim=8, max_frames=16, max_tokens=12,
        ffn_multiplier=2, dropout=0.3,
    )

    @given(
        groups=st.lists(st.integers(1, 4), min_size=1, max_size=3),
        tokens=st.lists(st.integers(0, 5), min_size=3, max_size=3),
        candidates=st.lists(
            st.lists(st.integers(5, 29), min_size=1, max_size=6), min_size=1, max_size=4
        ),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_frame_rows_equal_the_reference(self, groups, tokens, candidates, seed):
        rng = np.random.default_rng(seed)
        clip = make_clip(rng, Vocab.synthetic(30), groups=groups, tokens=tokens[: len(groups)])
        encoder = HierarchicalEncoder(self._CONFIG, np.random.default_rng(1))
        rngs = [np.random.default_rng(seed) for _ in range(2)]
        kept = downstream.encode_with_appended_text(encoder, clip, candidates, train_rng=rngs[0])
        with full_row_stacks():
            full = downstream.encode_with_appended_text(encoder, clip, candidates, train_rng=rngs[1])
        d = self._CONFIG.d
        # the temporal input holds a frame row and a pseudo-sentence row at least
        assert_kept_rows_equal(kept.data.reshape(-1, d), full.data.reshape(-1, d), n_rows=2)
        assert rngs[0].random() == rngs[1].random()

    def test_first_step_matches_the_full_row_reference(self, small_vocab):
        model = QaModel(self._CONFIG, seed=0)
        clip = make_clip(np.random.default_rng(12), small_vocab, groups=(3, 4, 2), tokens=(4, 0, 5))
        example = QaExample(clip.clip_id, detokenize([6, 7, 8], small_vocab),
                            [detokenize(a, small_vocab) for a in ([9, 10], [11], [12, 13, 14])],
                            1, (1.0, 4.0))
        assert_step_matches_full_rows(
            model.params(),
            lambda: model.loss(clip, example, small_vocab, train_rng=np.random.default_rng(3)),
        )

    def test_recording_attention_moves_qa_steps_in_the_last_bits_only(self, small_vocab):
        """Inside ``record_attention`` every row queries, so the key and value
        gradients also sum the zero gradients of the rows a head does not
        read, in another order: losses and parameters may differ in the last
        bits, never more."""
        clip = make_clip(np.random.default_rng(12), small_vocab, groups=(3, 4, 2), tokens=(4, 0, 5))
        example = QaExample(clip.clip_id, detokenize([6, 7, 8], small_vocab),
                            [detokenize(a, small_vocab) for a in ([9, 10], [11], [12, 13, 14])],
                            1, (1.0, 4.0))

        def run(record):
            model = QaModel(self._CONFIG, seed=0)
            opt, rng = T.AdamW(model.params(), lr=1e-3), np.random.default_rng(3)
            with T.record_attention() if record else contextlib.nullcontext([]) as ops:
                losses = [
                    T.train_step(opt, lambda: model.loss(clip, example, small_vocab, train_rng=rng))
                    for _ in range(5)
                ]
            return losses, {k: p.data.copy() for k, p in model.params().items()}, len(ops)

        (losses, params, n_ops), (want_losses, want_params, _) = run(True), run(False)
        assert n_ops > 0
        np.testing.assert_allclose(losses, want_losses, rtol=1e-12, atol=0)
        for name in want_params:
            np.testing.assert_allclose(params[name], want_params[name], rtol=0, atol=1e-12, err_msg=name)


class TestNli:
    @pytest.mark.parametrize("hypothesis", ["", "!!! ???"])
    def test_empty_hypothesis_is_a_data_error(self, tiny_config, toy_clip, small_vocab, hypothesis):
        model = NliModel(tiny_config, seed=0)
        ex = NliExample(toy_clip.clip_id, hypothesis, 1)
        with pytest.raises(DataError, match=r"hypothesis .* tokenizes to nothing"):
            model.loss(toy_clip, ex, small_vocab)
        with pytest.raises(DataError, match="tokenizes to nothing"):
            model.predict(toy_clip, ex, small_vocab)
        T.reset_tape()

    def test_untrained_loss_near_log_two(self, tiny_config, toy_clip, small_vocab):
        model = NliModel(tiny_config, seed=0)
        ex = NliExample(toy_clip.clip_id, "w003 w004", 1)
        loss = model.loss(toy_clip, ex, small_vocab)
        assert abs(loss.item() - math.log(2)) < 0.2
        T.reset_tape()

    def test_rigged_logits_zero_the_loss(self, tiny_config, toy_clip, small_vocab):
        model = NliModel(tiny_config, seed=0)
        model.nli.cls_out.w.data[:] = 0.0
        model.nli.cls_out.b.data[:] = np.array([0.0, 60.0])
        ex = NliExample(toy_clip.clip_id, "w003 w004", 1)
        assert model.loss(toy_clip, ex, small_vocab).item() < 1e-6
        T.reset_tape()

    def test_small_overfit_reaches_full_accuracy(self, tiny_config, small_vocab):
        rng = np.random.default_rng(3)
        clips = [make_clip(rng, small_vocab, clip_id=f"c{i}") for i in range(2)]
        examples = [
            NliExample("c0", "w005 w006", 1),
            NliExample("c0", "w007 w008", 0),
            NliExample("c1", "w009 w010", 1),
            NliExample("c1", "w011 w012", 0),
        ]
        by_id = {c.clip_id: c for c in clips}
        model = NliModel(tiny_config, seed=0)
        opt = T.AdamW(model.params(), lr=3e-3, weight_decay=0.01)
        for _ in range(40):
            T.zero_grads(opt.params.values())
            terms = [model.loss(by_id[e.clip_id], e, small_vocab) for e in examples]
            total = terms[0]
            for t in terms[1:]:
                total = total + t
            T.backward(total * (1.0 / len(terms)))
            opt.step()
        preds = [model.predict(by_id[e.clip_id], e, small_vocab) for e in examples]
        assert preds == [e.label for e in examples]


class TestCaption:
    def test_decoder_defaults_to_two_layers(self, tiny_config):
        assert len(CaptionModel(tiny_config, seed=0).decoder.blocks) == 2

    def test_rigged_head_copies_one_token(self, tiny_config, toy_clip, small_vocab):
        model = CaptionModel(tiny_config, seed=0, max_len=6)
        model.decoder.lm_out.w.data[:] = 0.0
        model.decoder.lm_out.b.data[:] = 0.0
        model.decoder.lm_out.b.data[9] = 50.0
        out = model.greedy_decode(toy_clip, (0.0, 7.0))
        assert out == [9] * 6  # repeats to max_len, never emits the end token

    def test_cross_attention_restricted_to_moment(self, tiny_config, toy_clip, small_vocab):
        model = CaptionModel(tiny_config, seed=0, max_len=5)
        with T.record_attention() as ops:
            model.greedy_decode(toy_clip, (2.2, 4.8))
        # after the encoder's layers, each decoder block of each step records its
        # causal self-attention, then its cross-attention into the frames
        decoder = ops[tiny_config.cross_layers + tiny_config.temporal_layers :]
        cross = decoder[1::2]
        assert cross and all(attn.shape[-1] == toy_clip.n_frames for attn in cross)
        st, ed = seconds_to_frame_span(toy_clip, 2.2, 4.8)
        outside = [i for i in range(toy_clip.n_frames) if not st <= i <= ed]
        assert outside
        for attn in cross:
            assert attn[..., outside].max() < 1e-12

    def test_greedy_decoding_is_deterministic(self, tiny_config, toy_clip):
        model = CaptionModel(tiny_config, seed=0, max_len=6)
        a = model.greedy_decode(toy_clip, (0.0, 7.0))
        b = model.greedy_decode(toy_clip, (0.0, 7.0))
        assert a == b

    def test_empty_moment_rejected(self, tiny_config, toy_clip):
        model = CaptionModel(tiny_config, seed=0)
        with pytest.raises(DataError, match="overlaps no frame"):
            model.greedy_decode(toy_clip, (50.0, 51.0))

    def test_teacher_forcing_loss_decreases(self, tiny_config, toy_clip, small_vocab):
        model = CaptionModel(tiny_config, seed=0, max_len=8)
        ex = CaptionExample(toy_clip.clip_id, (0.0, 7.0), "w005 w006 w007")
        opt = T.AdamW(model.params(), lr=3e-3, weight_decay=0.01)
        first = None
        for _ in range(30):
            T.zero_grads(opt.params.values())
            loss = model.loss(toy_clip, ex, small_vocab)
            first = first if first is not None else loss.item()
            last = loss.item()
            T.backward(loss)
            opt.step()
        assert last < first


class TestRankingMatchesPerClipReference:
    """One scorer call over all clips ranks exactly as one call per clip:
    the same (clip, span) order and scores within 1e-12."""

    @pytest.fixture
    def setup(self, small_vocab):
        config = ModelConfig(
            d=16, cross_layers=1, cross_heads=2, temporal_layers=1, temporal_heads=2,
            vocab_size=30, frame_feature_dim=8, max_frames=48, max_tokens=12,
            ffn_multiplier=2, dropout=0.0,
        )
        model = PretrainModel(config, seed=3)
        rng = np.random.default_rng(12)
        clips = [
            make_clip(rng, small_vocab, groups=groups, tokens=(3,) * len(groups), clip_id=f"c{i}")
            for i, groups in enumerate([(20, 20), (11, 12), (31,), (4, 5), (9, 8)])
        ]
        with T.no_grad():
            encoded = [model.encoder.encode_clip(c) for c in clips]
        return model, encoded

    @pytest.mark.parametrize("query, spans_per_clip", [([5, 6, 7], 5), ([9], 1), ([12, 13, 29, 8], 60)])
    def test_rank_moments(self, setup, query, spans_per_clip):
        model, encoded = setup
        got = rank_moments(model, encoded, query, spans_per_clip=spans_per_clip)
        want = ref_rank_moments(model, encoded, query, spans_per_clip=spans_per_clip)
        assert [(m.clip_id, m.span) for m in got] == [(m.clip_id, m.span) for m in want]
        np.testing.assert_allclose([m.score for m in got], [m.score for m in want], rtol=0, atol=1e-12)
        assert all(type(m.score) is float for m in got)
        assert list(got) == loop_rank_moments(model, encoded, query, spans_per_clip)
        assert list(temporal_nms(got, 0.5)) == ref_temporal_nms(list(got), 0.5)

    def test_rank_clips(self, setup):
        model, encoded = setup
        with T.no_grad():
            q = ref_encode_query(model, [5, 6, 7])
            want = [ref_global_alignment_score(e.v_temp, q).item() for e in encoded]
        ranked = rank_clips(model, encoded, [5, 6, 7])
        assert isinstance(ranked, Ranking) and len(ranked) == len(encoded)
        assert all(a.score >= b.score for a, b in zip(ranked, ranked[1:]))
        got = {m.clip_id: m for m in ranked}
        np.testing.assert_allclose([got[e.clips[0].clip_id].score for e in encoded], want, rtol=0, atol=1e-12)
        for e in encoded:
            clip = e.clips[0]
            assert got[clip.clip_id].span == (clip.frame_times[0][0], clip.frame_times[-1][1])


def loop_rank_moments(model, encoded_clips, query_token_ids, spans_per_clip):
    """The batched scorer's output decoded one clip at a time, one Moment per
    span, then sorted by score: what ``rank_moments`` must equal exactly."""
    scores = stacked_vsm_scores(model, encoded_clips, query_token_ids)
    s_global = scores.s_global.data[:, 0]
    p_st, p_ed = (np.exp(x.data)[:, 0] for x in (scores.log_p_st, scores.log_p_ed))
    out = []
    for enc, s, st_row, ed_row in zip(encoded_clips, s_global, p_st, p_ed):
        clip = enc.clips[0]
        clip_score, n = (1.0 + float(s)) / 2.0, clip.n_frames
        for st, ed, p in loop_best_spans(st_row[:n], ed_row[:n], spans_per_clip):
            out.append(Moment(clip.clip_id, clip.frame_seconds((st, ed)), clip_score * p))
    return sorted(out, key=lambda m: -m.score)


class TestBatchedBestSpans:
    """One call over a (clips, frames) grid equals the per-clip loop: the same
    spans in (-p, start, end) order and the same probabilities, bit for bit."""

    @staticmethod
    def check(p_st, p_ed, lengths, top_n):
        clip, st, ed, p = best_spans(p_st, p_ed, lengths, top_n)
        want = [
            (b, s, e, q)
            for b, n in enumerate(lengths)
            for s, e, q in loop_best_spans(p_st[b, :n], p_ed[b, :n], top_n)
        ]
        assert list(zip(clip.tolist(), st.tolist(), ed.tolist(), p.tolist())) == want

    @staticmethod
    def grids(rng, lengths):
        p = rng.random((2, len(lengths), max(lengths)))
        p[:, np.arange(max(lengths)) >= np.array(lengths)[:, None]] = 0.0
        return p / p.sum(axis=-1, keepdims=True)

    @pytest.mark.parametrize("top_n", [1, 3, 5, 40, 41, 60, 820, 1000])
    def test_clips_of_1_2_9_and_40_frames(self, top_n):
        lengths = [1, 2, 9, 40]
        self.check(*self.grids(np.random.default_rng(20), lengths), lengths, top_n)

    @pytest.mark.parametrize("top_n", [1, 4, 7, 100])
    def test_equal_probabilities_keep_start_end_order(self, top_n):
        lengths = [9, 1, 6]
        p = np.where(np.arange(9) < np.array(lengths)[:, None], 0.25, 0.0)
        self.check(p, p, lengths, top_n)

    @pytest.mark.parametrize("top_n", [1, 5])
    def test_300_clips_of_1_to_40_frames(self, top_n):
        rng = np.random.default_rng(22)
        lengths = rng.integers(1, 41, size=300).tolist()
        self.check(*self.grids(rng, lengths), lengths, top_n)

    def test_tied_products_across_the_cut(self):
        # p_st * p_ed takes few distinct values, so many spans tie at the top_n-th
        rng = np.random.default_rng(21)
        lengths = [12, 12, 5]
        p_st, p_ed = (rng.integers(1, 4, size=(3, 12)) / 8.0 for _ in range(2))
        for top_n in (2, 5, 11, 30):
            self.check(p_st, p_ed, lengths, top_n)


@st.composite
def span_grids(draw):
    """(B, L) start and end probabilities, the clips' lengths (1 to L, so
    clips shorter than the grid are common) and a ``top_n`` up to past the
    pair count.  Values come from a few levels, so products tie, often at
    the bound tau; 1e-200 squared underflows to 0.0; padding is noise that
    must not be read."""
    width = draw(st.integers(1, 12))
    lengths = draw(st.lists(st.integers(1, width), min_size=1, max_size=4))
    levels = st.sampled_from([0.0, 1e-200, 0.125, 0.25, 0.5]) | st.floats(0.0, 1.0)
    same = draw(st.booleans())  # all-equal probabilities
    grids = []
    for _ in range(2):
        values = draw(st.lists(levels, min_size=len(lengths) * width, max_size=len(lengths) * width))
        p = np.array(values).reshape(len(lengths), width)
        grids.append(np.full_like(p, 0.25) if same else p)
    pad = np.arange(width) >= np.array(lengths)[:, None]
    for p in grids:
        p[pad] = 1.0 + np.random.default_rng(width).random(pad.sum())  # above every probability
    top_n = draw(st.integers(1, width * (width + 1) // 2 + 3))
    return *grids, lengths, top_n


@given(case=span_grids())
def test_pruned_best_spans_equals_the_loop(case):
    TestBatchedBestSpans.check(*case)


class TestRankingEdgeClips:
    """Clips of 1, 2, 9 and 40 frames, two of them identical under other ids
    (tied scores across clips): ``rank_moments`` equals the loop decode
    exactly, and the per-clip reference in (clip, span) order."""

    @pytest.fixture
    def setup(self, small_vocab):
        config = ModelConfig(
            d=16, cross_layers=1, cross_heads=2, temporal_layers=1, temporal_heads=2,
            vocab_size=30, frame_feature_dim=8, max_frames=48, max_tokens=12,
            ffn_multiplier=2, dropout=0.0,
        )
        model = PretrainModel(config, seed=4)
        clips = [
            make_clip(np.random.default_rng(seed), small_vocab, groups=groups, tokens=(3,) * len(groups),
                      clip_id=f"c{i}", seconds_per_frame=0.5 + i)
            for i, (seed, groups) in enumerate([(1, (1,)), (2, (2,)), (3, (4, 5)), (4, (20, 20)), (3, (4, 5))])
        ]
        with T.no_grad():
            encoded = [model.encoder.encode_clip(c) for c in clips]
        return model, encoded

    @pytest.mark.parametrize("spans_per_clip", [1, 2, 5, 45, 1000])
    def test_equals_the_loop(self, setup, spans_per_clip):
        model, encoded = setup
        query = [5, 6, 7]
        got = rank_moments(model, encoded, query, spans_per_clip=spans_per_clip)
        assert isinstance(got, Ranking)
        assert list(got) == loop_rank_moments(model, encoded, query, spans_per_clip)
        want = ref_rank_moments(model, encoded, query, spans_per_clip=spans_per_clip)
        assert [(m.clip_id, m.span) for m in got] == [(m.clip_id, m.span) for m in want]
        np.testing.assert_allclose([m.score for m in got], [m.score for m in want], rtol=0, atol=1e-12)
        assert all(type(m.score) is float for m in got)
        for threshold in (0.3, 0.5):
            kept = temporal_nms(got, threshold)
            assert isinstance(kept, Ranking)
            assert list(kept) == ref_temporal_nms(list(got), threshold)


def assert_same_bytes(got: Ranking, want: Ranking):
    """Two rankings hold the same columns, dtypes and bytes, and the same ids."""
    for name in ("clip", "start", "end", "score"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.shape == b.shape, name
        assert a.tobytes() == b.tobytes(), name
    assert got.clip_ids == want.clip_ids


class TestPreparedClipSide:
    """``rank_moments`` joins a sequence of batches once; every ranking
    equals, byte for byte, the reference that stacks the rows and recomputes
    their norms for each query."""

    QUERIES = ([5, 6, 7], [9], [12, 13, 29, 8], [5, 6, 7], [9])  # repeated queries

    @pytest.fixture
    def setup(self, small_vocab):
        return self.model_and_clips(small_vocab)

    @staticmethod
    def model_and_clips(small_vocab):
        config = ModelConfig(
            d=16, cross_layers=1, cross_heads=2, temporal_layers=1, temporal_heads=2,
            vocab_size=30, frame_feature_dim=8, max_frames=48, max_tokens=12,
            ffn_multiplier=2, dropout=0.0,
        )
        model = PretrainModel(config, seed=5)
        rng = np.random.default_rng(13)
        clips = [
            make_clip(rng, small_vocab, groups=groups, tokens=(3,) * len(groups), clip_id=f"c{i}")
            for i, groups in enumerate([(20, 20), (1,), (11, 12), (31,), (4, 5), (2,), (9, 8)])
        ]
        return model, clips

    @staticmethod
    def mixed_batches(encoder, clips):
        """One-clip and multi-clip batches in one list."""
        with T.no_grad():
            return [
                encoder.encode_clip(clips[0]),
                encoder.encode_clips(clips[1:3]),
                encoder.encode_clip(clips[3]),
                encoder.encode_clips(clips[4:]),
            ]

    def check(self, model, encoded, spans_per_clip=5, nms=None):
        for query in self.QUERIES:
            got = rank_moments(model, encoded, query, spans_per_clip=spans_per_clip)
            want = stacked_rank_moments(model, encoded, query, spans_per_clip=spans_per_clip)
            if nms is not None:
                got, want = temporal_nms(got, nms), temporal_nms(want, nms)
            assert_same_bytes(got, want)

    @pytest.mark.parametrize("nms", [None, 0.0, 0.5, 1.0])
    @pytest.mark.parametrize("spans_per_clip", [1, 5, 40, 200])
    def test_equals_the_stacked_reference(self, setup, spans_per_clip, nms):
        model, clips = setup
        self.check(model, self.mixed_batches(model.encoder, clips), spans_per_clip, nms)

    @given(
        cuts=st.lists(st.booleans(), min_size=6, max_size=6),  # after each clip but the last
        spans_per_clip=st.sampled_from([1, 5, 40]),
    )
    def test_any_split_of_the_clips_into_batches(self, cuts, spans_per_clip):
        model, clips = self.model_and_clips(Vocab.synthetic(30))
        bounds = [0] + [i + 1 for i, cut in enumerate(cuts) if cut] + [len(clips)]
        with T.no_grad():
            encoded = [model.encoder.encode_clips(clips[lo:hi]) for lo, hi in zip(bounds, bounds[1:])]
        self.check(model, encoded, spans_per_clip)

    def test_a_re_encoded_copy_of_the_clips(self, setup):
        model, clips = setup
        self.check(model, self.mixed_batches(model.encoder, clips))
        # new objects under the same clip ids, with other rows: a stale join would show
        other = PretrainModel(model.config, seed=6).encoder
        self.check(model, self.mixed_batches(other, clips))

    def test_a_reordered_list_and_a_sublist(self, setup):
        model, clips = setup
        encoded = self.mixed_batches(model.encoder, clips)
        self.check(model, encoded)
        self.check(model, encoded[:2])
        self.check(model, encoded[::-1])
        self.check(model, encoded[1:3])
        self.check(model, encoded)

    def test_the_same_list_after_append(self, setup):
        model, clips = setup
        encoded = self.mixed_batches(model.encoder, clips)
        tail = encoded.pop()
        self.check(model, encoded)
        encoded.append(tail)
        self.check(model, encoded)

    def test_the_slot_keeps_no_batch_alive(self, setup):
        model, clips = setup
        encoded = self.mixed_batches(model.encoder, clips)
        rank_moments(model, encoded, [5, 6, 7])
        refs = [weakref.ref(enc) for enc in encoded]
        assert downstream._corpus is not None
        del encoded
        gc.collect()
        assert all(ref() is None for ref in refs)
        assert downstream._corpus is None


class TestRetrievalAdaptation:
    def test_targets_from_annotation(self, small_vocab):
        rng = np.random.default_rng(4)
        clip = make_clip(rng, small_vocab, groups=(4, 4), seconds_per_frame=1.0)
        examples = [RetrievalExample(clip.clip_id, "w001 w002", (1.2, 3.4))]
        targets = retrieval_targets(clip, examples, small_vocab)
        assert targets[0].span == (1, 3)
        assert targets[0].query_token_ids == tokenize("w001 w002", small_vocab)

    def test_step_requires_two_clips(self, tiny_config, small_vocab):
        rng = np.random.default_rng(5)
        clip = make_clip(rng, small_vocab)
        model = PretrainModel(tiny_config, seed=0)
        opt = T.AdamW(model.params(), lr=1e-3)
        targets = retrieval_targets(
            clip, [RetrievalExample(clip.clip_id, "w001", (0.0, 2.0))], small_vocab
        )
        with pytest.raises(UsageError):
            T.train_step(opt, lambda: model.vsm_loss(
                model.encoder.encode_clips([clip]), [targets], PretrainHypers()))
        T.reset_tape()

    def test_one_packed_encoder_pass_and_one_query_pass_per_step(
        self, tiny_config, small_vocab, monkeypatch
    ):
        rng = np.random.default_rng(7)
        clips = [make_clip(rng, small_vocab, groups=(3, 2 + i), clip_id=f"c{i}") for i in range(4)]
        batch = [
            (c, retrieval_targets(c, [RetrievalExample(c.clip_id, "w001 w002", (0.0, 2.0))] * (1 + i % 2),
                                  small_vocab))
            for i, c in enumerate(clips)
        ]
        calls = []
        for name in ("cross_modal_forward", "temporal_apply"):
            original = getattr(HierarchicalEncoder, name)

            def counting(self, *args, _name=name, _original=original, **kwargs):
                calls.append(_name)
                return _original(self, *args, **kwargs)

            monkeypatch.setattr(HierarchicalEncoder, name, counting)
        model = PretrainModel(tiny_config, seed=0)
        T.train_step(T.AdamW(model.params(), lr=1e-3), lambda: model.vsm_loss(
            model.encoder.encode_clips([c for c, _ in batch]), [t for _, t in batch],
            PretrainHypers(),
        ))
        assert calls.count("cross_modal_forward") == 2  # the clips' pass and the queries' pass
        assert calls.count("temporal_apply") == 1

    def test_loss_decreases_over_steps(self, tiny_config, small_vocab):
        rng = np.random.default_rng(6)
        clips = [make_clip(rng, small_vocab, clip_id=f"c{i}") for i in range(2)]
        model = PretrainModel(tiny_config, seed=0)
        opt = T.AdamW(model.params(), lr=3e-3, weight_decay=0.01)
        batch = [
            (c, retrieval_targets(c, [RetrievalExample(c.clip_id, f"w00{i+1} w00{i+2}", (1.0, 4.0))], small_vocab))
            for i, c in enumerate(clips)
        ]
        losses = [
            T.train_step(opt, lambda: model.vsm_loss(
                model.encoder.encode_clips([c for c, _ in batch]), [t for _, t in batch],
                PretrainHypers(),
            ))
            for _ in range(25)
        ]
        assert losses[-1] < losses[0]

    @pytest.mark.parametrize("clip_ids,query,message", [
        (("c0", "c0"), "w001", "needs examples on at least 2 clips"),
        (("c0", "c1"), "!!!", "query '!!!' tokenizes to nothing"),
    ])
    def test_schedule_refuses_at_the_call(self, tiny_config, small_vocab, clip_ids, query, message):
        rng = np.random.default_rng(8)
        clips = {cid: make_clip(rng, small_vocab, clip_id=cid) for cid in sorted(set(clip_ids))}
        examples = [RetrievalExample(cid, query, (0.0, 2.0)) for cid in clip_ids]
        model = PretrainModel(tiny_config, seed=0)
        opt = T.AdamW(model.params(), lr=1e-3)
        with pytest.raises(DataError, match=message):  # before any step is drawn
            finetune_steps(
                model, "retrieval", opt, PretrainHypers(), QA_LAMBDA_DEFAULT, examples, clips,
                small_vocab, 0, 2, 3,
            )

    def test_finetune_model_factory(self, tiny_config):
        assert isinstance(finetune_model_for("retrieval", tiny_config, 0), PretrainModel)
        assert isinstance(finetune_model_for("qa", tiny_config, 0), QaModel)
        assert isinstance(finetune_model_for("nli", tiny_config, 0), NliModel)
        assert isinstance(finetune_model_for("caption", tiny_config, 0), CaptionModel)
        with pytest.raises(ConfigError):
            finetune_model_for("nope", tiny_config, 0)


class TestParamLoading:
    def test_intersection_is_copied(self, tiny_config):
        src = PretrainModel(tiny_config, seed=0)
        dst = QaModel(tiny_config, seed=1)
        arrays = {k: v.data for k, v in src.params().items()}
        loaded = load_params_into(dst.params(), arrays)
        assert any(k.startswith("encoder.") for k in loaded)
        np.testing.assert_array_equal(
            dst.encoder.token_emb.table.data, src.encoder.token_emb.table.data
        )

    def test_shape_mismatch_rejected(self, tiny_config):
        model = QaModel(tiny_config, seed=0)
        with pytest.raises(DataError):
            load_params_into(model.params(), {"qa.pool_query": np.zeros((3, 3))})
