"""Input files for the benchmark workloads, made from the workload seed.

Every workload reads a synthetic corpus (40-frame clips with 3-6 subtitle
sentences) and its vocab file.  `retrieval-eval` also reads a retrieval
task file and an eval checkpoint; `qa-finetune` reads a QA task file.  The
same seed always gives byte-identical files.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from vidtext import checkpoint, data, downstream
from vidtext.cli import PRETRAIN_DEFAULTS
from vidtext.encoder import ModelConfig
from vidtext.pretrain import TASK_NAMES, PretrainModel

# `vidtext gen-data` defaults: 60 s clips at 2/3 fps give 40 frames each
CLIP_SECONDS = 60.0
FPS = 2.0 / 3.0
VOCAB_SIZE = 100
FEATURE_DIM = 32
TOPICS = 8

MODEL_SEED = PRETRAIN_DEFAULTS["seed"]
QA_CANDIDATES = 5
QA_PER_CLIP = 2


@dataclass(frozen=True)
class Sizes:
    clips: int  # corpus size
    trace_ops: int  # steps, or queries after every clip is encoded, per traced pass


# 20 pretrain steps cover all five objectives under the fixed training seed
FULL = {
    "pretrain-mix": Sizes(128, 20),
    "retrieval-eval": Sizes(256, 12),
    "qa-finetune": Sizes(128, 8),
}
TINY = {"pretrain-mix": Sizes(8, 4), "retrieval-eval": Sizes(6, 2), "qa-finetune": Sizes(4, 2)}


@dataclass(frozen=True)
class InputFiles:
    corpus: Path
    retrieval_tasks: Path
    qa_tasks: Path
    eval_checkpoint: Path

    @classmethod
    def under(cls, root: Path) -> "InputFiles":
        return cls(
            root / "corpus.jsonl",
            root / "retrieval.jsonl",
            root / "qa.jsonl",
            root / "eval.ckpt",
        )


def model_config(vocab_size: int, feature_dim: int) -> ModelConfig:
    """The desk-scale model of `vidtext pretrain` with its default flags."""
    shape = {f.name: PRETRAIN_DEFAULTS[f.name] for f in fields(ModelConfig)
             if f.name in PRETRAIN_DEFAULTS}
    return ModelConfig(vocab_size=vocab_size, frame_feature_dim=feature_dim, **shape)


def generate(workload: str, seed: int, root: Path, sizes: Sizes) -> InputFiles:
    """Write the files `workload` reads into `root`."""
    files = InputFiles.under(root)
    _, vocab = data.synth_corpus(
        files.corpus, num_clips=sizes.clips, fps=FPS, clip_seconds=CLIP_SECONDS,
        vocab_size=VOCAB_SIZE, feature_dim=FEATURE_DIM, seed=seed, num_topics=TOPICS,
    )
    header, raws = data.read_corpus(files.corpus)
    clips = [data.align(r, vocab) for r in raws]
    rng = np.random.default_rng([seed, 77])
    if workload == "retrieval-eval":
        _write_retrieval_tasks(files.retrieval_tasks, clips, rng)
        _write_eval_checkpoint(files.eval_checkpoint, vocab, header.feature_dim)
    elif workload == "qa-finetune":
        _write_qa_tasks(files.qa_tasks, clips, rng)
    return files


def _write_retrieval_tasks(path: Path, clips, rng) -> None:
    """One query per subtitle sentence, in seeded order; the sentence's own
    frames are the ground-truth moment."""
    examples = [
        downstream.RetrievalExample(c.clip_id, s.text, c.frame_seconds(s.span()))
        for c in clips
        for s in c.sentences
        if s.token_ids
    ]
    order = rng.permutation(len(examples))
    downstream.write_task_file(path, "retrieval", [examples[i] for i in order])


def _write_qa_tasks(path: Path, clips, rng) -> None:
    """Questions are two subtitle sentences of a clip, candidates are
    sentences from across the corpus, and the span is the first question
    sentence's frames."""
    sentences = [s.text for c in clips for s in c.sentences]
    examples = []
    for c in clips:
        for j in rng.choice(len(c.sentences), size=min(QA_PER_CLIP, len(c.sentences)), replace=False):
            s = c.sentences[int(j)]
            follow = c.sentences[(int(j) + 1) % len(c.sentences)]
            answers = [sentences[int(k)] for k in rng.choice(len(sentences), QA_CANDIDATES, replace=False)]
            examples.append(downstream.QaExample(
                c.clip_id, f"{s.text} {follow.text}", answers,
                int(rng.integers(QA_CANDIDATES)), c.frame_seconds(s.span()),
            ))
    downstream.write_task_file(path, "qa", examples)


def _write_eval_checkpoint(path: Path, vocab, feature_dim: int) -> None:
    """The untrained model of `vidtext pretrain` at its default seed in its checkpoint
    format.  The weights do not follow the workload seed: how many moments
    survive NMS, and so the ranking cost, depends on them."""
    config = model_config(vocab.size, feature_dim)
    model = PretrainModel(config, seed=MODEL_SEED)
    meta = {
        "model_kind": "pretrain", "config": config.to_dict(), "seed": MODEL_SEED,
        "vocab_tokens": vocab.tokens, "tasks": sorted(TASK_NAMES), "step": 0,
    }
    checkpoint.save_checkpoint(path, {k: p.data for k, p in model.params().items()}, meta)
