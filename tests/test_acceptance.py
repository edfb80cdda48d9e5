"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion
lines.  The slow criteria (learnability, overfits) train small models and
stay within their stated wall-clock budgets on one CPU core.
"""

import math
import time

import numpy as np
import pytest

from vidtext import pretrain as P
from vidtext import tensor as T
from vidtext.checkpoint import load_checkpoint, save_checkpoint
from vidtext.cli import EVAL_DEFAULTS, FINETUNE_DEFAULTS, PRETRAIN_DEFAULTS
from vidtext.data import Vocab, align, read_corpus, synth_corpus, tokenize
from vidtext.downstream import (
    CaptionExample,
    CaptionModel,
    NliExample,
    NliModel,
    QaExample,
    QaModel,
    RetrievalExample,
    load_params_into,
    rank_moments,
    retrieval_targets,
    seconds_to_frame_span,
)
from vidtext.encoder import ModelConfig
from vidtext.metrics import Moment, accuracy, bleu4, recall_at_k, temporal_nms, tiou

from conftest import make_clip, nms_moments
from gradcheck import check_gradients


def report(num: int, name: str, ok: bool, detail: str = "") -> None:
    print(f"\nACCEPTANCE {num} {name}: {'PASS' if ok else 'FAIL'} {detail}".rstrip())
    assert ok, f"criterion {num} ({name}): {detail}"


def small_config(**overrides) -> ModelConfig:
    base = dict(
        d=32, cross_layers=1, cross_heads=2, temporal_layers=1, temporal_heads=2,
        vocab_size=60, frame_feature_dim=16, max_frames=24, max_tokens=20,
        ffn_multiplier=2, dropout=0.0,
    )
    base.update(overrides)
    return ModelConfig(**base)


def aligned_corpus(tmp_path, name, **kwargs):
    path, vocab = synth_corpus(tmp_path / f"{name}.jsonl", **kwargs)
    _, raws = read_corpus(path)
    return [align(r, vocab) for r in raws], vocab


def run_mixed_pretraining(clips, vocab, config, steps, seed, weights, lr=1e-3, batch_size=4):
    model = P.PretrainModel(config, seed=seed)
    optimizer = T.AdamW(model.params(), lr=lr, weight_decay=0.01)
    hypers = P.PretrainHypers()
    history: dict[str, list[float]] = {}
    for batch in P.make_batches(clips, vocab, config, batch_size, seed, weights, steps):
        loss = P.pretrain_step(model, batch, optimizer, hypers)
        history.setdefault(batch.kind, []).append(loss)
    return model, history


def vsm_retrieval_accuracy(model, eval_clips) -> tuple[float, int]:
    """Top-1 own-clip rate of clip-level matching over every sentence query."""
    with T.no_grad():
        encoded = [model.encoder.encode_clip(c) for c in eval_clips]
        hits = total = 0
        for i, clip in enumerate(eval_clips):
            for sent in clip.sentences:
                if not sent.token_ids:
                    continue
                q = model.encode_query([sent.token_ids])
                scores = [model.vsm_scores_for_query(e, q).s_global.item() for e in encoded]
                hits += int(np.argmax(scores) == i)
                total += 1
    return hits / total, total


# -- criterion 1: gradient suite -------------------------------------------------


def test_criterion_1_gradient_suite(monkeypatch):
    started = time.time()
    worst: dict[str, float] = {}

    # individual differentiable operations on randomized inputs
    rng = np.random.default_rng(0)

    def leaf(*shape):
        return T.Tensor(rng.standard_normal(shape), requires_grad=True)

    a, b = leaf(3, 4), leaf(4, 2)
    worst["op.matmul"] = max(
        check_gradients(lambda: T.matmul(a, b).sum(), {"a": a, "b": b}).values()
    )
    x = leaf(4, 6)
    w = rng.standard_normal((4, 6))
    worst["op.softmax"] = check_gradients(
        lambda: (T.softmax(x, axis=-1) * T.Tensor(w)).sum(), {"x": x}
    )["x"]
    worst["op.log_softmax"] = check_gradients(
        lambda: (T.log_softmax(x) * T.Tensor(w)).sum(), {"x": x}
    )["x"]
    ln_x, ln_g, ln_b = leaf(2, 8), leaf(8), leaf(8)
    ln_w = rng.standard_normal((2, 8))
    worst["op.layer_norm"] = max(
        check_gradients(
            lambda: (T.layer_norm(ln_x, ln_g, ln_b) * T.Tensor(ln_w)).sum(),
            {"x": ln_x, "g": ln_g, "b": ln_b},
        ).values()
    )
    ce_x = leaf(5, 4)
    worst["op.cross_entropy"] = check_gradients(
        lambda: T.cross_entropy(ce_x, [0, 1, 2, 3, 0]), {"x": ce_x}
    )["x"]
    cv_x, cv_k = leaf(9), leaf(5)
    cv_w = rng.standard_normal(9)
    worst["op.conv1d"] = max(
        check_gradients(
            lambda: (T.conv1d(cv_x, cv_k) * T.Tensor(cv_w)).sum(), {"x": cv_x, "k": cv_k}
        ).values()
    )
    ge_x = leaf(3, 5)
    worst["op.gelu"] = check_gradients(lambda: (T.gelu(ge_x) * T.gelu(ge_x)).sum(), {"x": ge_x})["x"]
    em = leaf(6, 4)
    worst["op.embedding"] = check_gradients(
        lambda: T.take_rows(em, [0, 2, 2, 5]).sum(), {"t": em}
    )["t"]
    # query rows out of grid order; the last sequence has none, the first one
    at_q, at_k, at_v = leaf(3, 4), leaf(7, 4), leaf(7, 4)
    at_grid, at_w = np.array([[0, 4, 7], [1, 2, 6], [3, 5, 7]]), rng.standard_normal((3, 4))
    worst["op.attention_rows"] = max(
        check_gradients(
            lambda: (
                T.attention(at_q, at_k, at_v, 2, grid=at_grid, rows=[6, 0, 2])[0] * T.Tensor(at_w)
            ).sum(),
            {"q": at_q, "k": at_k, "v": at_v},
        ).values()
    )

    # full encoder composed with each pre-training loss at d=8
    config = ModelConfig(
        d=8, cross_layers=1, cross_heads=2, temporal_layers=1, temporal_heads=2,
        vocab_size=22, frame_feature_dim=6, max_frames=12, max_tokens=10,
        ffn_multiplier=2, dropout=0.0,
    )
    vocab = Vocab.synthetic(22)
    model = P.PretrainModel(config, seed=0)
    params = model.params()
    clip_rng = np.random.default_rng(1)
    clip_a = make_clip(clip_rng, vocab, groups=(3, 2), tokens=(3, 3), feat_dim=6, clip_id="a")
    clip_b = make_clip(clip_rng, vocab, groups=(2, 3), tokens=(4, 2), feat_dim=6, clip_id="b")
    hypers = P.PretrainHypers(num_negatives=3)

    mask_rng = np.random.default_rng(2)
    masked_ids, plans = [], []
    for s in clip_a.sentences:
        m, plan = P.apply_mlm_mask(s.token_ids, mask_rng, vocab)
        masked_ids.append(m)
        plans.append(plan)
    frame_plan = P.FrameMaskPlan([1, 3])
    reorder_plan = P.ReorderPlan([0, 4], [4, 0])
    vsm_targets = [P.sample_vsm_targets(c, np.random.default_rng(3)) for c in (clip_a, clip_b)]
    # contrastive targets frozen so the finite-difference view matches the
    # detached positives the analytic loss optimizes against
    frozen_pos = model.mnce_positive_targets([clip_a], [frame_plan])
    monkeypatch.setattr(model, "mnce_positive_targets", lambda clips, plans: frozen_pos)

    compositions = {
        "loss.mlm": lambda: model.mlm_loss(
            model.encode_mlm([clip_a], [masked_ids], [plans]), [plans]
        ),
        "loss.mffr": lambda: model.mffr_loss(
            model.encode_mfm([clip_a], [frame_plan], masked_only=True), [frame_plan]
        ),
        "loss.mnce": lambda: model.mnce_loss(
            model.encode_mfm([clip_a], [frame_plan]), [frame_plan],
            np.random.default_rng(7), num_negatives=3,
        ),
        "loss.vsm": lambda: model.vsm_loss(
            model.encoder.encode_clips([clip_a, clip_b]), vsm_targets, hypers
        ),
        "loss.fom": lambda: model.fom_loss(
            model.encode_reordered([clip_a], [reorder_plan]), [reorder_plan]
        ),
    }
    for name, fn in compositions.items():
        errs = check_gradients(fn, params, max_coords_per_tensor=50, seed=5)
        worst[name] = max(errs.values())

    elapsed = time.time() - started
    peak = max(worst.values())
    ok = peak < 1e-4 and elapsed < 120
    report(1, "gradient-suite", ok, f"(worst rel err {peak:.2e}, {elapsed:.0f}s)")


# -- criterion 2: closed-form loss values ----------------------------------------


def test_criterion_2_closed_form_losses():
    checks = []

    # untrained masked-token loss near ln(vocab)
    config = small_config(vocab_size=100, d=64, cross_heads=4, temporal_heads=4)
    vocab = Vocab.synthetic(100)
    model = P.PretrainModel(config, seed=0)
    rng = np.random.default_rng(0)
    clip = make_clip(rng, vocab, groups=(4, 4), tokens=(8, 8), feat_dim=16)
    mask_rng = np.random.default_rng(1)
    masked, plans = [], []
    for s in clip.sentences:
        m, plan = P.apply_mlm_mask(s.token_ids, mask_rng, vocab)
        masked.append(m)
        plans.append(plan)
    mlm = model.mlm_loss(model.encode_mlm([clip], [masked], [plans]), [plans]).item()
    T.reset_tape()
    checks.append(("mlm~ln(100)", abs(mlm - math.log(100)) < 0.3))

    # equal contrastive scores give exactly ln(1 + negatives)
    model.mnce_proj.w.data[:] = 0.0
    model.mnce_proj.b.data[:] = 0.0
    plan = P.FrameMaskPlan([2])
    mnce = model.mnce_loss(
        model.encode_mfm([clip], [plan]), [plan], np.random.default_rng(2), num_negatives=15
    ).item()
    T.reset_tape()
    checks.append(("mnce=ln(16)", abs(mnce - math.log(16)) < 1e-12))

    # uniform order-model logits give ln(N_v) per reordered frame
    model.fom_head.w.data[:] = 0.0
    model.fom_head.b.data[:] = 0.0
    rplan = P.make_reorder_plan(clip.n_frames, np.random.default_rng(3))
    fom = model.fom_loss(model.encode_reordered([clip], [rplan]), [rplan]).item()
    T.reset_tape()
    checks.append(
        ("fom/R=ln(N_v)", abs(fom / len(rplan.positions) - math.log(clip.n_frames)) < 1e-12)
    )

    h1 = P.hinge_loss(T.Tensor(0.9), T.Tensor(0.5), 0.1).item()
    h2 = P.hinge_loss(T.Tensor(0.5), T.Tensor(0.6), 0.1).item()
    checks.append(("hinge(0.9,0.5)=0", h1 == 0.0))
    checks.append(("hinge(0.5,0.6)=0.2", abs(h2 - 0.2) < 1e-15))

    failed = [name for name, ok in checks if not ok]
    report(2, "closed-form-losses", not failed, f"(failed: {failed})" if failed else "")


# -- criterion 3: masking statistics ----------------------------------------------


def test_criterion_3_masking_statistics():
    vocab = Vocab.synthetic(60)
    rng = np.random.default_rng(0)
    n_tokens = n_masked = 0
    actions = {P.ACTION_MASK: 0, P.ACTION_RANDOM: 0, P.ACTION_KEEP: 0}
    while n_tokens < 100_000:
        ids = [int(rng.integers(5, 60)) for _ in range(30)]
        _, plan = P.apply_mlm_mask(ids, rng, vocab)
        n_tokens += len(ids)
        n_masked += len(plan.positions)
        for a in plan.actions:
            actions[a] += 1
    token_rate = n_masked / n_tokens
    ok_rate = abs(token_rate - 0.15) < 0.01

    ok_split = True
    for action, p in zip((P.ACTION_MASK, P.ACTION_RANDOM, P.ACTION_KEEP), (0.8, 0.1, 0.1)):
        sigma = math.sqrt(p * (1 - p) / n_masked)
        ok_split &= abs(actions[action] / n_masked - p) < 3 * sigma + 1e-9

    frame_total = frame_masked = reorder_total = reordered = 0
    while frame_total < 100_000:
        frame_masked += len(P.make_frame_mask(40, rng).positions)
        reordered += len(P.make_reorder_plan(40, rng).positions)
        frame_total += 40
        reorder_total += 40
    ok_frames = abs(frame_masked / frame_total - 0.15) < 0.01
    ok_reorder = abs(reordered / reorder_total - 0.15) < 0.01

    # one modality masked per batch, on every batch
    clips = [make_clip(np.random.default_rng(i), vocab, clip_id=f"c{i}") for i in range(4)]
    config = small_config(frame_feature_dim=8, d=16, max_tokens=12)
    weights = {t: 1.0 for t in P.TASK_NAMES}
    ok_exclusive = True
    for batch in P.make_batches(clips, vocab, config, 2, seed=1, weights=weights, num_steps=200):
        payloads = [batch.token_plans, batch.frame_plans, batch.reorder_plans, batch.vsm_targets]
        ok_exclusive &= sum(p is not None for p in payloads) == 1
        if batch.kind == "mlm":
            ok_exclusive &= batch.frame_plans is None
        if batch.kind in ("mffr", "mnce"):
            ok_exclusive &= batch.token_plans is None

    ok = ok_rate and ok_split and ok_frames and ok_reorder and ok_exclusive
    report(
        3, "masking-statistics", ok,
        f"(token rate {token_rate:.4f}, frame rate {frame_masked / frame_total:.4f}, "
        f"split ok {ok_split}, exclusivity {ok_exclusive})",
    )


# -- criterion 4: alignment oracle --------------------------------------------------


def test_criterion_4_alignment_oracle(tmp_path):
    from vidtext.data import RawClip, Subtitle

    vocab = Vocab.synthetic(30)
    started = time.time()
    rng = np.random.default_rng(42)
    mismatches = 0
    for _ in range(200):
        n_frames = int(rng.integers(1, 21))
        step = float(rng.uniform(0.4, 2.0))
        frames = [(i * step, (i + 1) * step) for i in range(n_frames)]
        feats = rng.standard_normal((n_frames, 2))
        total = n_frames * step
        subs = []
        for _ in range(int(rng.integers(1, 6))):
            a, b = sorted(rng.uniform(-1.0, total + 1.0, size=2))
            subs.append(Subtitle(float(a), float(b) + 0.05, "w000"))
        subs.sort(key=lambda s: s.t0)
        raw = RawClip("c", np.array(frames), feats, subs)

        # exhaustive assignment: max tIoU over overlapping subtitles with
        # earlier-wins ties, else the subtitle at minimal gap
        expected = []
        for f0, f1 in frames:
            best, best_v = None, 0.0
            for j, s in enumerate(subs):
                inter = max(0.0, min(f1, s.t1) - max(f0, s.t0))
                if inter <= 0:
                    continue
                v = inter / (max(f1, s.t1) - min(f0, s.t0))
                if v > best_v:
                    best, best_v = j, v
            if best is None:
                gaps = [
                    (s.t0 - f1 if f1 <= s.t0 else (f0 - s.t1 if s.t1 <= f0 else 0.0))
                    for s in subs
                ]
                best = int(np.argmin(gaps))
            expected.append(best)

        out = align(raw, vocab)
        got = sorted(tuple(s.frame_indices) for s in out.sentences if s.frame_indices)
        exp = sorted(
            tuple(i for i, o in enumerate(expected) if o == j)
            for j in range(len(subs))
            if any(o == j for o in expected)
        )
        conserved = sorted(i for g in got for i in g) == list(range(n_frames))
        if got != exp or not conserved:
            mismatches += 1
    elapsed = time.time() - started
    ok = mismatches == 0 and elapsed < 30
    report(4, "alignment-oracle", ok, f"({mismatches} mismatches over 200 clips, {elapsed:.1f}s)")


# -- criterion 5: learnability smoke --------------------------------------------------


def test_criterion_5_learnability_smoke(tmp_path):
    started = time.time()
    config = ModelConfig(
        d=64, cross_layers=2, cross_heads=4, temporal_layers=1, temporal_heads=4,
        vocab_size=100, frame_feature_dim=32, max_frames=64, max_tokens=24,
        ffn_multiplier=4, dropout=0.0,
    )
    weights = {"mlm": 1.0, "mnce": 1.0, "vsm": 1.0, "fom": 1.0}
    corpus_args = dict(
        num_clips=8, fps=2 / 3, clip_seconds=60.0, vocab_size=100, feature_dim=32, seed=11
    )

    planted, vocab = aligned_corpus(tmp_path, "planted", planted_structure=True, **corpus_args)
    assert all(c.n_frames == 40 for c in planted)
    _, history = run_mixed_pretraining(planted, vocab, config, steps=2000, seed=0, weights=weights)
    ratios = {
        kind: float(np.mean(vals[-3:]) / np.mean(vals[:3])) for kind, vals in history.items()
    }
    ok_losses = set(ratios) == set(weights) and all(r < 0.5 for r in ratios.values())

    # null-structure control: train the same protocol on noise, then check
    # clip matching on held-out noise clips stays at chance
    null_clips, null_vocab = aligned_corpus(
        tmp_path, "null", planted_structure=False, **corpus_args
    )
    null_model, _ = run_mixed_pretraining(
        null_clips, null_vocab, config, steps=2000, seed=0, weights=weights
    )
    held_out, _ = aligned_corpus(
        tmp_path, "null-heldout", planted_structure=False,
        num_clips=8, fps=2 / 3, clip_seconds=60.0, vocab_size=100, feature_dim=32, seed=99,
    )
    acc, n_queries = vsm_retrieval_accuracy(null_model, held_out)
    chance = 1.0 / len(held_out)
    sigma = math.sqrt(chance * (1 - chance) / n_queries)
    ok_null = abs(acc - chance) <= 3 * sigma

    elapsed = time.time() - started
    ok = ok_losses and ok_null and elapsed < 1200
    detail = ", ".join(f"{k}:{v:.3f}" for k, v in sorted(ratios.items()))
    report(
        5, "learnability-smoke", ok,
        f"(loss ratios {detail}; null acc {acc:.3f} vs chance {chance:.3f}+-{3*sigma:.3f}; "
        f"{elapsed/60:.1f} min)",
    )


# -- criterion 6: fine-tune overfits -----------------------------------------------


def _toy_world(tmp_path, name, seed):
    clips, vocab = aligned_corpus(
        tmp_path, name, num_clips=4, fps=2 / 3, clip_seconds=30.0, vocab_size=60,
        feature_dim=16, planted_structure=True, seed=seed,
    )
    return clips, {c.clip_id: c for c in clips}, vocab


def test_criterion_6_finetune_overfits(tmp_path):
    started = time.time()
    config = small_config()
    results = {}

    # retrieval: 4 clips, 8 annotation queries, train R@1 at tIoU>0.7
    clips, by_id, vocab = _toy_world(tmp_path, "ret", seed=5)
    model = P.PretrainModel(config, seed=0)
    optimizer = T.AdamW(model.params(), lr=2e-3, weight_decay=0.01)
    hypers = P.PretrainHypers()
    examples = []
    for c in clips:
        for j in (0, 1):
            sent = c.sentences[j]
            examples.append(RetrievalExample(c.clip_id, sent.text, c.frame_seconds(sent.span())))
    targets = {
        cid: retrieval_targets(by_id[cid], [e for e in examples if e.clip_id == cid], vocab)
        for cid in by_id
    }

    def train_r1():
        with T.no_grad():
            encoded = [model.encoder.encode_clip(c) for c in clips]
        preds, gts = [], []
        for ex in examples:
            ranked = temporal_nms(rank_moments(model, encoded, tokenize(ex.query, vocab)), 0.5)
            preds.append(ranked)
            st, ed = seconds_to_frame_span(by_id[ex.clip_id], *ex.span)
            gts.append((ex.clip_id, by_id[ex.clip_id].frame_seconds((st, ed))))
        return recall_at_k(preds, gts, k=1, tiou_threshold=0.7)

    rng = np.random.default_rng(0)
    ids = sorted(by_id)
    r1 = 0.0
    for step in range(2000):
        picks = sorted(int(x) for x in rng.choice(len(ids), size=2, replace=False))
        T.train_step(optimizer, lambda: model.vsm_loss(
            model.encoder.encode_clips([by_id[ids[i]] for i in picks]),
            [targets[ids[i]] for i in picks], hypers,
        ))
        if (step + 1) % 100 == 0:
            r1 = train_r1()
            if r1 == 1.0:
                break
    results["retrieval R@1"] = r1

    # qa: 8 examples, 4 candidates each
    clips, by_id, vocab = _toy_world(tmp_path, "qa", seed=6)
    qa = QaModel(config, seed=0)
    optimizer = T.AdamW(qa.params(), lr=2e-3, weight_decay=0.01)
    qa_examples = []
    for i, c in enumerate(clips):
        for j in (0, 1):
            sent = c.sentences[j]
            words = sent.text.split()
            others = [cc for cc in clips if cc is not c]
            answers = [
                " ".join(o.sentences[j % len(o.sentences)].text.split()[:2]) for o in others
            ]
            label = (i + j) % 4
            answers.insert(label, " ".join(words[:2]))
            qa_examples.append(
                QaExample(c.clip_id, " ".join(words[2:5]) or words[0], answers, label,
                          c.frame_seconds(sent.span()))
            )
    rng = np.random.default_rng(1)
    qa_acc = 0.0
    for step in range(600):
        picks = sorted(int(x) for x in rng.choice(len(qa_examples), size=2, replace=False))
        T.zero_grads(optimizer.params.values())
        terms = [
            qa.loss(by_id[qa_examples[i].clip_id], qa_examples[i], vocab, lam=0.5) for i in picks
        ]
        total = terms[0] + terms[1]
        T.backward(total * 0.5)
        optimizer.step()
        if (step + 1) % 50 == 0:
            preds = [qa.predict(by_id[e.clip_id], e, vocab) for e in qa_examples]
            qa_acc = accuracy(preds, [e.label for e in qa_examples])
            if qa_acc == 1.0:
                break
    results["qa accuracy"] = qa_acc

    # nli: 8 hypothesis/label pairs
    clips, by_id, vocab = _toy_world(tmp_path, "nli", seed=7)
    nli = NliModel(config, seed=0)
    optimizer = T.AdamW(nli.params(), lr=2e-3, weight_decay=0.01)
    nli_examples = []
    for i, c in enumerate(clips):
        for j in (0, 1):
            text = " ".join(c.sentences[j].text.split()[:3])
            nli_examples.append(NliExample(c.clip_id, text, (i + j) % 2))
    rng = np.random.default_rng(2)
    nli_acc = 0.0
    for step in range(600):
        picks = sorted(int(x) for x in rng.choice(len(nli_examples), size=2, replace=False))
        T.zero_grads(optimizer.params.values())
        terms = [nli.loss(by_id[nli_examples[i].clip_id], nli_examples[i], vocab) for i in picks]
        T.backward((terms[0] + terms[1]) * 0.5)
        optimizer.step()
        if (step + 1) % 50 == 0:
            preds = [nli.predict(by_id[e.clip_id], e, vocab) for e in nli_examples]
            nli_acc = accuracy(preds, [e.label for e in nli_examples])
            if nli_acc == 1.0:
                break
    results["nli accuracy"] = nli_acc

    # caption: 4 captions reproduced exactly under greedy decoding
    clips, by_id, vocab = _toy_world(tmp_path, "cap", seed=8)
    cap = CaptionModel(config, seed=0, max_len=8)
    optimizer = T.AdamW(cap.params(), lr=2e-3, weight_decay=0.01)
    cap_examples = [
        CaptionExample(
            c.clip_id, c.frame_seconds(c.sentences[0].span()),
            " ".join(c.sentences[0].text.split()[:4]),
        )
        for c in clips
    ]
    exact = False
    for step in range(1500):
        ex = cap_examples[step % len(cap_examples)]
        T.zero_grads(optimizer.params.values())
        loss = cap.loss(by_id[ex.clip_id], ex, vocab)
        T.backward(loss)
        optimizer.step()
        if (step + 1) % 100 == 0:
            exact = all(
                cap.greedy_decode(by_id[e.clip_id], e.moment) == tokenize(e.caption, vocab)
                for e in cap_examples
            )
            if exact:
                break
    results["caption exact"] = 1.0 if exact else 0.0

    elapsed = time.time() - started
    ok = all(v == 1.0 for v in results.values()) and elapsed < 600
    detail = ", ".join(f"{k}: {v:.2f}" for k, v in results.items())
    report(6, "finetune-overfits", ok, f"({detail}; {elapsed/60:.1f} min)")


# -- criterion 7: metric oracles --------------------------------------------------


def test_criterion_7_metric_oracles():
    rng = np.random.default_rng(0)

    def rand_span(lo=0.0, hi=20.0):
        a, b = sorted(rng.uniform(lo, hi, size=2))
        return (float(a), float(b))

    # tIoU against an independently written formulation
    bad = 0
    for _ in range(1000):
        a, b = rand_span(), rand_span()
        inter = min(a[1], b[1]) - max(a[0], b[0])
        if inter <= 0:
            expected = 0.0
        else:
            hull = max(a[1], b[1]) - min(a[0], b[0])
            expected = inter / hull  # overlapping intervals: union == hull
        bad += abs(tiou(a, b) - expected) > 1e-12
    ok_tiou = bad == 0

    # greedy suppression against its defining property, plus an independent loop
    bad = 0
    for _ in range(1000):
        n = int(rng.integers(1, 12))
        items = [
            Moment(f"c{int(rng.integers(0, 2))}", rand_span(0, 10), float(s))
            for s in np.sort(rng.random(n))[::-1]
        ]
        got = nms_moments(items, 0.5)
        expected = []
        for m in items:
            if all(
                k.clip_id != m.clip_id or tiou(k.span, m.span) <= 0.5 for k in expected
            ):
                expected.append(m)
        bad += got != expected
    ok_nms = bad == 0

    # recall@K against hand enumeration
    bad = 0
    for _ in range(1000):
        n_queries = int(rng.integers(1, 6))
        k = int(rng.integers(1, 6))
        threshold = float(rng.uniform(0.1, 0.9))
        preds, gts, expected_hits = [], [], 0
        for q in range(n_queries):
            gt = (f"g{q}", rand_span(0, 10))
            gts.append(gt)
            ranked = [
                Moment(
                    f"g{q}" if rng.random() < 0.4 else f"x{p}",
                    rand_span(0, 10),
                    -float(p),
                )
                for p in range(6)
            ]
            preds.append(ranked)
            hit = False
            for m in ranked[:k]:
                if m.clip_id == gt[0] and tiou(m.span, gt[1]) > threshold:
                    hit = True
                    break
            expected_hits += hit
        got = recall_at_k(preds, gts, k=k, tiou_threshold=threshold)
        bad += abs(got - expected_hits / n_queries) > 1e-12
    ok_recall = bad == 0

    # BLEU@4 against a quadratic-matching reimplementation
    def bleu_oracle(cand, ref):
        if not cand:
            return 0.0
        logs = 0.0
        for n in range(1, 5):
            cg = [tuple(cand[i : i + n]) for i in range(len(cand) - n + 1)]
            rg = [tuple(ref[i : i + n]) for i in range(len(ref) - n + 1)]
            matched, pool = 0, list(rg)
            for g in cg:
                if g in pool:
                    pool.remove(g)
                    matched += 1
            total = len(cg)
            if n == 1 and matched == 0:
                return 0.0
            if matched == 0:
                matched, total = 1, total + 1
            logs += 0.25 * math.log(matched / total)
        bp = 1.0 if len(cand) >= len(ref) else math.exp(1 - len(ref) / len(cand))
        return bp * math.exp(logs)

    bad = 0
    for _ in range(1000):
        cand = [int(x) for x in rng.integers(0, 6, size=rng.integers(1, 10))]
        ref = [int(x) for x in rng.integers(0, 6, size=rng.integers(4, 10))]
        bad += abs(bleu4(cand, ref) - bleu_oracle(cand, ref)) > 1e-12
    ok_bleu = bad == 0

    ok = ok_tiou and ok_nms and ok_recall and ok_bleu
    report(
        7, "metric-oracles", ok,
        f"(tiou {ok_tiou}, nms {ok_nms}, recall {ok_recall}, bleu {ok_bleu}; 1000 cases each)",
    )


# -- criterion 8: determinism & resume ------------------------------------------------


def test_criterion_8_determinism_and_resume(tmp_path):
    vocab = Vocab.synthetic(40)
    clips = [make_clip(np.random.default_rng(i), vocab, clip_id=f"c{i}") for i in range(4)]
    config = small_config(vocab_size=40, frame_feature_dim=8, d=16, max_tokens=12, dropout=0.1)
    weights = {t: 1.0 for t in P.TASK_NAMES}
    hypers = P.PretrainHypers()

    def run(steps, start_step=0, model=None, optimizer=None):
        if model is None:
            model = P.PretrainModel(config, seed=9)
            optimizer = T.AdamW(model.params(), lr=1e-3, weight_decay=0.01)
        losses = []
        for batch in P.make_batches(
            clips, vocab, config, 2, seed=9, weights=weights, num_steps=steps,
            start_step=start_step,
        ):
            rng = P.dropout_rng(9, batch.step)
            losses.append(P.pretrain_step(model, batch, optimizer, hypers, train_rng=rng))
        return model, optimizer, losses

    _, _, run_a = run(40)
    _, _, run_b = run(40)
    ok_rerun = run_a == run_b  # bit-identical trajectories

    model, optimizer, first_half = run(20)
    ckpt = tmp_path / "mid.ckpt"
    arrays = {k: p.data for k, p in model.params().items()}
    arrays.update(optimizer.state_arrays())
    save_checkpoint(ckpt, arrays, {"step": 20})
    restored = P.PretrainModel(config, seed=9)
    loaded, _ = load_checkpoint(ckpt)
    load_params_into(restored.params(), loaded)
    opt2 = T.AdamW(restored.params(), lr=1e-3, weight_decay=0.01)
    opt2.load_state_arrays(loaded, 20)
    _, _, second_half = run(40, start_step=20, model=restored, optimizer=opt2)

    straight = run_a[20:]
    gaps = [abs(a - b) for a, b in zip(straight, second_half)]
    ok_resume = len(second_half) == 20 and max(gaps) < 1e-10

    ok = ok_rerun and ok_resume
    report(
        8, "determinism-and-resume", ok,
        f"(rerun identical {ok_rerun}; resume max gap {max(gaps):.2e})",
    )


# -- criterion 9: default wiring -------------------------------------------------------


def test_criterion_9_default_wiring(tmp_path):
    checks = {
        "margin 0.1": P.PretrainHypers().margin == 0.1,
        "lambda_local 0.01": P.PretrainHypers().lambda_local == 0.01,
        "lambda_global 8": P.PretrainHypers().lambda_global == 8.0,
        "cli margin": PRETRAIN_DEFAULTS["margin"] == 0.1,
        "cli lambda_local": PRETRAIN_DEFAULTS["lambda_local"] == 0.01,
        "cli lambda_global": PRETRAIN_DEFAULTS["lambda_global"] == 8.0,
        "qa lambda 0.5": FINETUNE_DEFAULTS["qa_lambda"] == 0.5,
        "eval tiou 0.7": EVAL_DEFAULTS["tiou"] == 0.7,
        "eval nms 0.5": EVAL_DEFAULTS["nms"] == "0.5",
        "mask rate 0.15": P.MASK_FRACTION == 0.15,
        "mask split 80/10/10": P.MASK_ACTION_SPLIT == (0.8, 0.1, 0.1),
        "adamw lr 3e-5": PRETRAIN_DEFAULTS["lr"] == 3e-5,
        "adamw wd 0.01": PRETRAIN_DEFAULTS["weight_decay"] == 0.01,
        "optimal task set": PRETRAIN_DEFAULTS["tasks"] == "mlm,mnce,fom,vsm",
    }

    # one task per mini-batch, asserted structurally on a live stream
    vocab = Vocab.synthetic(30)
    clips = [make_clip(np.random.default_rng(i), vocab, clip_id=f"c{i}") for i in range(3)]
    config = small_config(vocab_size=30, frame_feature_dim=8, d=16, max_tokens=12)
    one_task = True
    for batch in P.make_batches(
        clips, vocab, config, 2, seed=0, weights={t: 1.0 for t in P.TASK_NAMES}, num_steps=50
    ):
        payloads = [batch.token_plans, batch.frame_plans, batch.reorder_plans, batch.vsm_targets]
        one_task &= batch.kind in P.TASK_NAMES and sum(p is not None for p in payloads) == 1
    checks["one task per batch"] = one_task

    failed = [name for name, ok in checks.items() if not ok]
    report(9, "default-wiring", not failed, f"(failed: {failed})" if failed else "")
