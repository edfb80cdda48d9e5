"""The three workloads.  Each is a closed loop with one client: every step
or query waits for the one before, as in the offline `vidtext pretrain`,
`eval` and `finetune` commands, whose sequence of library calls each
workload repeats.  Only the input files come from the workload seed.
Settings are the defaults of those commands, except where noted below.
"""

from __future__ import annotations

import hashlib
import math
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from vidtext import checkpoint, data, downstream, metrics, pretrain, tensor
from vidtext.cli import EVAL_DEFAULTS, FINETUNE_DEFAULTS, PRETRAIN_DEFAULTS
from vidtext.encoder import ModelConfig

from inputs import InputFiles, model_config

# departures from the command defaults: the default training seed whatever
# `--seed` is, all five objectives, and a checkpoint every 20 steps
TRAIN_SEED = PRETRAIN_DEFAULTS["seed"]
PRETRAIN_TASKS = {t: 1.0 for t in pretrain.TASK_NAMES}
CHECKPOINT_EVERY = 20
QA_ACCURACY_EXAMPLES = 8

PRETRAIN_HYPERS = pretrain.PretrainHypers(
    **{k: PRETRAIN_DEFAULTS[k] for k in ("margin", "lambda_local", "lambda_global", "num_negatives")}
)
NMS = float(EVAL_DEFAULTS["nms"])
TIOU = float(EVAL_DEFAULTS["tiou"])
RECALL_K = tuple(int(k) for k in str(EVAL_DEFAULTS["k"]).split(","))
SPANS_PER_CLIP = int(EVAL_DEFAULTS["spans_per_clip"])


@dataclass
class Op:
    """One closed-loop operation: a training step, an encoded clip or a query."""

    kind: str
    ms: float  # the latency the workload reports for it
    wall: float  # seconds for the whole op, batch wait and checkpoint save included
    value: str  # loss, encoding or ranked list, written exactly, for the determinism checks
    error: str | None = None


_REF_RNG = np.random.default_rng(0)
_REF_X, _REF_W = _REF_RNG.normal(size=(40, 64)), _REF_RNG.normal(size=(64, 64))


def reference_ms() -> float:
    """Milliseconds for one pass of a fixed loop that does the program's kinds
    of work: Python arithmetic, building and sorting tuples, and small numpy
    matmuls and softmaxes.  The shared host's speed drifts by up to half for
    seconds to minutes at a time, and this loop slows with it; an op's time
    over the loop's time measured around it cancels most of that drift."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(30000):
        acc += i * i
    for _ in range(3):
        rows = [(i, j, (i * 7919 + j * 104729) % 1009 / 1009.0) for i in range(40) for j in range(i, 40)]
        rows.sort(key=lambda r: (-r[2], r[0], r[1]))
    for _ in range(50):
        z = _REF_X @ _REF_W
        z = np.exp(z - z.max(axis=1, keepdims=True))
        z /= z.sum(axis=1, keepdims=True)
    return (time.perf_counter() - t0) * 1e3


class Budget:
    """Run ops for `seconds` (at least `min_ops` of them), or exactly `ops`.
    A budget of seconds also times `reference_ms()` at every `more()`, that
    is before the first op and after each, into `ref_ms`: op i of the run
    lies between `ref_ms[i]` and `ref_ms[i + 1]`."""

    def __init__(self, seconds: float | None = None, ops: int | None = None, min_ops: int = 1):
        self.seconds, self.ops, self.min_ops = seconds, ops, min_ops
        self.ref_ms: list[float] = []
        self.start = time.perf_counter()

    def more(self, done: int) -> bool:
        if self.ops is not None:
            return done < self.ops
        self.ref_ms.append(reference_ms())
        return done < self.min_ops or time.perf_counter() - self.start < self.seconds


def _failed(exc: BaseException) -> str:
    traceback.print_exc(file=sys.stderr)
    tensor.reset_tape()  # a failed forward pass must not leak ops into the next step
    return f"{type(exc).__name__}: {exc}"


def _loss_check(loss: float) -> str | None:
    return None if math.isfinite(loss) else f"non-finite loss {loss}"


# -- pretrain-mix -----------------------------------------------------------------


@dataclass
class PretrainState:
    clips: list
    vocab: data.Vocab
    config: ModelConfig
    model: pretrain.PretrainModel
    optimizer: tensor.AdamW
    hypers: pretrain.PretrainHypers
    meta: dict


class PretrainMix:
    """`vidtext pretrain` with all five objectives and periodic checkpoints."""

    name = "pretrain-mix"
    kinds = pretrain.TASK_NAMES

    def __init__(self, files: InputFiles, workdir: Path):
        self.files, self.workdir = files, workdir

    def setup(self) -> PretrainState:
        header, raws = data.read_corpus(self.files.corpus)
        vocab = data.load_corpus_vocab(self.files.corpus, header)
        clips = [data.align(raw, vocab) for raw in raws]
        config = model_config(vocab.size, header.feature_dim)
        model = pretrain.PretrainModel(config, seed=TRAIN_SEED)
        optimizer = tensor.AdamW(
            model.params(), lr=PRETRAIN_DEFAULTS["lr"], weight_decay=PRETRAIN_DEFAULTS["weight_decay"]
        )
        meta = {
            "model_kind": "pretrain", "config": config.to_dict(), "seed": TRAIN_SEED,
            "vocab_tokens": vocab.tokens, "tasks": sorted(PRETRAIN_TASKS),
        }
        return PretrainState(clips, vocab, config, model, optimizer, PRETRAIN_HYPERS, meta)

    def run(self, st: PretrainState, budget: Budget, tracer, start: int = 0) -> list[Op]:
        """Steps from step `start` on, as `vidtext pretrain --resume` takes them."""
        batches = pretrain.make_batches(
            st.clips, st.vocab, st.config, PRETRAIN_DEFAULTS["batch_size"], TRAIN_SEED,
            PRETRAIN_TASKS, num_steps=10**9, start_step=start,
        )
        ops: list[Op] = []
        while budget.more(len(ops)):
            t0 = time.perf_counter()
            with tracer.op("step"):
                with tracer.span("pretrain.make_batch"):
                    batch = next(batches)
                tracer.kind = batch.kind
                t1 = time.perf_counter()
                try:
                    loss = pretrain.pretrain_step(
                        st.model, batch, st.optimizer, st.hypers,
                        train_rng=pretrain.dropout_rng(TRAIN_SEED, batch.step)
                        if st.config.dropout > 0 else None,
                    )
                    error = None
                except Exception as exc:  # counted in ops.failed; the loop goes on
                    loss, error = math.nan, _failed(exc)
                t2 = time.perf_counter()
                done = batch.step + 1
                if done % CHECKPOINT_EVERY == 0:
                    arrays = {k: p.data for k, p in st.model.params().items()}
                    arrays.update(st.optimizer.state_arrays())
                    checkpoint.save_checkpoint(
                        self.workdir / f"step{done:06d}.ckpt", arrays, {**st.meta, "step": done}
                    )
            t3 = time.perf_counter()
            ops.append(Op(batch.kind, (t2 - t1) * 1e3, t3 - t0, repr(loss), error or _loss_check(loss)))
        return ops

    def report(self, st: PretrainState, ops: list[Op]) -> dict:
        return {}


# -- retrieval-eval -----------------------------------------------------------------


@dataclass
class RetrievalState:
    model: pretrain.PretrainModel
    vocab: data.Vocab
    clips: list
    by_id: dict
    examples: list
    encoded: list = field(default_factory=list)


def check_ranking(ranked, by_id) -> str | None:
    """Ranked moments are sorted by score and lie inside their clips."""
    if not ranked:
        return "empty ranking"
    if any(a.score < b.score for a, b in zip(ranked, ranked[1:])):
        return "ranking is not sorted by score"
    for m in ranked:
        clip = by_id.get(m.clip_id)
        if clip is None:
            return f"moment names unknown clip {m.clip_id!r}"
        lo, hi = clip.frame_times[0][0], clip.frame_times[-1][1]
        if not lo <= m.span[0] <= m.span[1] <= hi:
            return f"span {m.span} outside clip {m.clip_id!r} [{lo}, {hi}]"
        if not math.isfinite(m.score):
            return f"non-finite score {m.score}"
    if tensor.tape_size():
        return f"ranking left {tensor.tape_size()} ops on the gradient tape"
    return None


def _ranking_digest(ranked) -> str:
    return hashlib.blake2b(repr([(m.clip_id, m.span, m.score) for m in ranked]).encode(),
                           digest_size=16).hexdigest()


class RetrievalEval:
    """`vidtext eval --task retrieval`: load a checkpoint and a corpus,
    encode every clip without gradients, then rank moments per query."""

    name = "retrieval-eval"
    kinds = ("query",)

    def __init__(self, files: InputFiles, workdir: Path):
        self.files = files
        self.predictions: list = []  # over every run, for R@K
        self.ground_truth: list = []

    def setup(self) -> RetrievalState:
        arrays, meta = checkpoint.load_checkpoint(self.files.eval_checkpoint)
        config = ModelConfig.from_dict(meta["config"])
        model = downstream.finetune_model_for("retrieval", config, int(meta.get("seed", 0)))
        downstream.load_params_into(model.params(), arrays)
        vocab = data.Vocab.from_tokens(meta["vocab_tokens"])
        header, raws = data.read_corpus(self.files.corpus)
        corpus_vocab = data.load_corpus_vocab(self.files.corpus, header)
        if corpus_vocab.tokens != vocab.tokens:
            raise RuntimeError("corpus vocabulary does not match the checkpoint vocabulary")
        clips = [data.align(raw, corpus_vocab) for raw in raws]
        examples = downstream.read_task_file(self.files.retrieval_tasks, "retrieval")
        return RetrievalState(model, vocab, clips, {c.clip_id: c for c in clips}, examples)

    def run(self, st: RetrievalState, budget: Budget, tracer, start: int = 0) -> list[Op]:
        """Encode every clip, then answer queries from query `start` on."""
        ops: list[Op] = []
        st.encoded = []
        with tensor.no_grad():
            for clip in st.clips:
                t0 = time.perf_counter()
                with tracer.op("encode"):
                    enc = st.model.encoder.encode_clip(clip)
                t1 = time.perf_counter()
                st.encoded.append(enc)
                error = None if np.isfinite(enc.v_temp.data).all() else "non-finite clip encoding"
                digest = hashlib.blake2b(enc.v_temp.data.tobytes(), digest_size=16).hexdigest()
                ops.append(Op("encode", (t1 - t0) * 1e3, t1 - t0, digest, error))
        done = 0
        while budget.more(done):
            ex = st.examples[(start + done) % len(st.examples)]
            done += 1
            t0 = time.perf_counter()
            with tracer.op("query"):
                try:
                    ranked = downstream.rank_moments(
                        st.model, st.encoded, data.tokenize(ex.query, st.vocab),
                        spans_per_clip=SPANS_PER_CLIP,
                    )
                    ranked = metrics.temporal_nms(ranked, NMS)
                    error = None
                except Exception as exc:  # counted in ops.failed; the loop goes on
                    ranked, error = [], _failed(exc)
            t1 = time.perf_counter()
            error = error or check_ranking(ranked, st.by_id)
            ops.append(Op("query", (t1 - t0) * 1e3, t1 - t0, _ranking_digest(ranked), error))
            gt_clip = st.by_id[ex.clip_id]
            span = downstream.seconds_to_frame_span(gt_clip, *ex.span)
            self.predictions.append(ranked)
            self.ground_truth.append((ex.clip_id, gt_clip.frame_seconds(span)))
        return ops

    def report(self, st: RetrievalState, ops: list[Op]) -> dict:
        """R@K over the queries answered, as `vidtext eval` computes it."""
        out = {}
        for k in RECALL_K:
            out[f"r@{k}"] = metrics.recall_at_k(self.predictions, self.ground_truth, k=k, tiou_threshold=TIOU)
            out[f"video_r@{k}"] = metrics.recall_at_k(
                self.predictions, self.ground_truth, k=k, tiou_threshold=TIOU, mode="video"
            )
        return out


# -- qa-finetune ----------------------------------------------------------------------


@dataclass
class QaState:
    vocab: data.Vocab
    by_id: dict
    examples: list
    model: downstream.QaModel
    optimizer: tensor.AdamW


class QaFinetune:
    """`vidtext finetune --task qa` from scratch: 5 candidates, span
    supervision, batch 2."""

    name = "qa-finetune"
    kinds = ("qa",)

    def __init__(self, files: InputFiles, workdir: Path):
        self.files = files

    def setup(self) -> QaState:
        header, raws = data.read_corpus(self.files.corpus)
        vocab = data.load_corpus_vocab(self.files.corpus, header)
        clips = [data.align(raw, vocab) for raw in raws]
        config = model_config(vocab.size, header.feature_dim)
        examples = downstream.read_task_file(self.files.qa_tasks, "qa")
        by_id = {c.clip_id: c for c in clips}
        model = downstream.finetune_model_for("qa", config, TRAIN_SEED)
        optimizer = tensor.AdamW(
            model.params(), lr=FINETUNE_DEFAULTS["lr"], weight_decay=FINETUNE_DEFAULTS["weight_decay"]
        )
        return QaState(vocab, by_id, examples, model, optimizer)

    def run(self, st: QaState, budget: Budget, tracer, start: int = 0) -> list[Op]:
        """Steps from step `start` on."""
        batch_size, qa_lambda = FINETUNE_DEFAULTS["batch_size"], FINETUNE_DEFAULTS["qa_lambda"]
        ops: list[Op] = []
        step = start
        while budget.more(step - start):
            t0 = time.perf_counter()
            with tracer.op("qa"):
                rng = np.random.default_rng([TRAIN_SEED, 21, step])
                train_rng = pretrain.dropout_rng(TRAIN_SEED, step) if st.model.config.dropout > 0 else None
                picked = rng.choice(len(st.examples), size=min(batch_size, len(st.examples)), replace=False)
                try:
                    tensor.zero_grads(st.optimizer.params.values())
                    terms = []
                    for i in sorted(int(x) for x in picked):
                        ex = st.examples[i]
                        terms.append(st.model.loss(
                            st.by_id[ex.clip_id], ex, st.vocab, lam=qa_lambda, train_rng=train_rng
                        ))
                    total = terms[0]
                    for t in terms[1:]:
                        total = total + t
                    total = total * (1.0 / len(terms))
                    loss = total.item()
                    tensor.backward(total)
                    st.optimizer.step()
                    error = None
                except Exception as exc:  # counted in ops.failed; the loop goes on
                    loss, error = math.nan, _failed(exc)
            t1 = time.perf_counter()
            ops.append(Op("qa", (t1 - t0) * 1e3, t1 - t0, repr(loss), error or _loss_check(loss)))
            step += 1
        return ops

    def report(self, st: QaState, ops: list[Op]) -> dict:
        """Train accuracy on the first few examples, by the model of the last run."""
        sample = st.examples[:QA_ACCURACY_EXAMPLES]
        preds = [st.model.predict(st.by_id[ex.clip_id], ex, st.vocab) for ex in sample]
        return {"train_accuracy": metrics.accuracy(preds, [ex.label for ex in sample])}


WORKLOADS = {w.name: w for w in (PretrainMix, RetrievalEval, QaFinetune)}
