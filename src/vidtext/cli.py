"""Command-line surface: corpus generation, pre-training, fine-tuning,
evaluation, and attention diagnostics.

Option precedence is built-in defaults < config file < explicit flags, and
the effective configuration is echoed verbatim into the run log.  Exit
codes: 0 success, 1 usage, 2 data/schema, 3 numeric failure.
"""

from __future__ import annotations

import os

# one BLAS thread unless the user chose otherwise; set before numpy loads
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse
import json
import math
import sys
from contextlib import contextmanager
from dataclasses import fields
from functools import partial
from pathlib import Path

from . import tensor as T
from .checkpoint import load_checkpoint, save_checkpoint
from .data import Vocab, align, load_corpus_vocab, read_corpus, synth_corpus, synth_frame_count
from .downstream import (
    QA_LAMBDA_DEFAULT,
    finetune_model_for,
    finetune_steps,
    load_params_into,
    rank_moments,
    read_task_file,
    seconds_to_frame_span,
    text_token_ids,
)
from .encoder import ModelConfig
from .errors import ConfigError, DataError, NumericError, UsageError, read_input
from .metrics import accuracy, bleu4, recall_at_k, temporal_nms, write_metrics_report
from .pretrain import (
    PretrainHypers,
    PretrainModel,
    TASK_NAMES,
    dropout_rng,
    make_batches,
    pretrain_step,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3

# the model shape without the two sizes the corpus fixes, and the loss weights
_MODEL_SHAPE = {
    f.name: f.default for f in fields(ModelConfig) if f.name not in ("vocab_size", "frame_feature_dim")
}
_LOSS_WEIGHTS = {f.name: f.default for f in fields(PretrainHypers)}

PRETRAIN_DEFAULTS: dict = {
    "steps": 500,
    "batch_size": 4,
    "tasks": "mlm,mnce,fom,vsm",
    "seed": 0,
    "lr": 3e-5,
    "weight_decay": 0.01,
    **_MODEL_SHAPE,
    **_LOSS_WEIGHTS,
    "checkpoint_every": 0,
}

FINETUNE_DEFAULTS: dict = {
    "steps": 300,
    "batch_size": 2,
    "seed": 0,
    "lr": 1e-3,
    "weight_decay": 0.01,
    "qa_lambda": QA_LAMBDA_DEFAULT,
    **{k: _LOSS_WEIGHTS[k] for k in ("margin", "lambda_local", "lambda_global")},
}

EVAL_DEFAULTS: dict = {
    "tiou": 0.7,
    "nms": "0.5",
    "k": "1,10,100",
    "spans_per_clip": 5,
}


class _Parser(argparse.ArgumentParser):
    """argparse with usage failures mapped to exit code 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _read_config_file(path: str) -> dict:
    return read_input(path, "config file", _parse_config)


def _parse_config(path: Path, text: str) -> dict:
    """Flat `key = value` pairs; values parse as JSON scalars when possible."""
    out = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise DataError(f"config line {path}:{lineno} is not `key = value`")
        key, _, value = line.partition("=")
        value = value.strip()
        try:
            out[key.strip()] = json.loads(value)
        except (json.JSONDecodeError, RecursionError):
            out[key.strip()] = value
    return out


def _option_value(key: str, value, default):
    """A config-file value of its default's type; an int is also a float and
    becomes one.  A mismatch is a ConfigError (exit 1) naming the key."""
    expected = (int, float) if isinstance(default, float) else type(default)
    if isinstance(value, bool) or not isinstance(value, expected):
        raise ConfigError(
            f"config key {key!r} needs a {type(default).__name__} value, got {value!r}"
        )
    if not isinstance(default, float):
        return value
    try:
        return float(value)
    except OverflowError:
        raise ConfigError(f"config key {key!r} is too large for a float: {value}") from None


def _effective_options(defaults: dict, config_path: str | None, cli_values: dict) -> dict:
    eff = dict(defaults)
    if config_path:
        file_values = _read_config_file(config_path)
        unknown = set(file_values) - set(defaults)
        if unknown:
            raise ConfigError(f"config file sets unknown keys: {sorted(unknown)}")
        eff.update({k: _option_value(k, v, defaults[k]) for k, v in file_values.items()})
    eff.update({k: v for k, v in cli_values.items() if v is not None})
    return eff


def _parse_tasks(task_list: str) -> dict[str, float]:
    weights = {}
    for name in task_list.split(","):
        name = name.strip()
        if not name:
            continue
        if name not in TASK_NAMES:
            raise ConfigError(f"unknown task {name!r}; expected a subset of {TASK_NAMES}")
        weights[name] = 1.0
    if not weights:
        raise ConfigError("at least one pre-training task must be enabled")
    return weights


def _load_aligned_corpus(corpus_path: str, max_frames: int):
    header, raws = read_corpus(corpus_path)
    vocab = load_corpus_vocab(corpus_path, header)
    for raw in raws:
        if len(raw.frame_times) > max_frames:
            raise DataError(
                f"clip {raw.clip_id!r} has {len(raw.frame_times)} frames, above the "
                f"max_frames={max_frames} ingestion limit"
            )
    clips = [align(raw, vocab) for raw in raws]
    return header, vocab, clips


def _load_corpus_for(corpus_path: str, config: ModelConfig, tokens: list[str]):
    """``_load_aligned_corpus`` for a checkpoint of ``config`` and vocabulary
    ``tokens``: a corpus of another frame feature width or vocabulary is a
    DataError (exit 2) naming both values."""
    header, vocab, clips = _load_aligned_corpus(corpus_path, config.max_frames)
    if header.feature_dim != config.frame_feature_dim:
        raise DataError(
            f"corpus {corpus_path} has feature_dim {header.feature_dim}, "
            f"the checkpoint frame_feature_dim {config.frame_feature_dim}"
        )
    _check_corpus_tokens(corpus_path, vocab, tokens)
    return vocab, clips


def _check_corpus_tokens(corpus_path: str, vocab: Vocab, tokens: list[str]) -> None:
    """A corpus vocabulary other than the checkpoint's ``tokens`` is a
    DataError (exit 2) naming both sizes and the first differing token."""
    if vocab.tokens != tokens:
        i = next((i for i, (a, b) in enumerate(zip(vocab.tokens, tokens)) if a != b), None)
        first = "" if i is None else f", first at token {i}: {vocab.tokens[i]!r} != {tokens[i]!r}"
        raise DataError(
            f"corpus {corpus_path} vocabulary of {vocab.size} tokens does not match "
            f"the checkpoint's {len(tokens)} tokens{first}"
        )


def _model_config(eff: dict, vocab_size: int, feature_dim: int) -> ModelConfig:
    shape = {k: eff[k] for k in _MODEL_SHAPE}
    return ModelConfig(vocab_size=vocab_size, frame_feature_dim=feature_dim, **shape)


def _hypers(eff: dict) -> PretrainHypers:
    return PretrainHypers(**{k: eff[k] for k in _LOSS_WEIGHTS if k in eff})


# the least value of each count among the options
_LEAST = {"seed": 0, "steps": 0, "checkpoint_every": 0, "batch_size": 1}


def _check_counts(eff: dict) -> None:
    """A count option below its least value is a ConfigError (exit 1)."""
    for key, least in _LEAST.items():
        if key in eff and eff[key] < least:
            bound = "nonnegative" if least == 0 else f"at least {least}"
            raise ConfigError(f"{key} must be {bound}, got {eff[key]}")


def _check_out_dir(path: str) -> None:
    """An output directory path that names an existing non-directory is a
    UsageError (exit 1), raised before any input is read."""
    if Path(path).exists() and not Path(path).is_dir():
        raise UsageError(f"cannot write {path}: not a directory")


def _check_out_file(path: str) -> None:
    """An output file path that names a directory, or whose parent is not
    one, is a UsageError (exit 1), raised before any input is read."""
    out = Path(path)
    if out.is_dir():
        raise UsageError(f"cannot write {path}: is a directory")
    if not out.parent.is_dir():
        raise UsageError(f"cannot write {path}: its parent is not a directory")


@contextmanager
def _writing(path):
    """Runs the writes of the output at ``path``: an OSError there (the path
    names a directory, or a file where a directory belongs) is a UsageError
    (exit 1) naming the path.  Input files go through ``read_input``."""
    try:
        yield
    except OSError as exc:
        raise UsageError(f"cannot write {path}: {exc.strerror or exc}") from exc


def _save_model_checkpoint(path, model, optimizer, meta: dict) -> None:
    arrays = {k: p.data for k, p in model.params().items()}
    if optimizer is not None:
        arrays.update(optimizer.state_arrays())
    save_checkpoint(path, arrays, meta)


def _train_loop(
    out_dir: Path, echo: dict, model, optimizer, meta: dict, work, final_step: int,
    checkpoint_every: int = 0,
) -> Path:
    """The training loop of both `pretrain` and `finetune`.

    It makes ``out_dir`` if needed.  ``work`` yields ``(step, kind,
    take_step)``; ``take_step(train_rng)`` runs one optimization step and
    returns its loss.  Each step appends one record to ``train.log``; a
    non-finite loss stops the run (exit 3).  Checkpoints go out every
    ``checkpoint_every`` steps and at the end, as ``final.ckpt``.
    """
    seed = meta["seed"]
    with _writing(out_dir):
        out_dir.mkdir(parents=True, exist_ok=True)
        with (out_dir / "train.log").open("a") as log_fh:
            for key in sorted(echo):
                log_fh.write(f"# config {key} = {echo[key]}\n")
            log_fh.flush()
            for step, kind, take_step in work:
                loss = take_step(dropout_rng(seed, step) if model.config.dropout > 0 else None)
                if not math.isfinite(loss):
                    raise NumericError(f"non-finite loss at step {step}")
                log_fh.write(f"{step}, {kind}, {loss:.10f}, {echo['lr']}, {seed}\n")
                done = step + 1
                if checkpoint_every and done % checkpoint_every == 0:
                    _save_model_checkpoint(
                        out_dir / f"step{done:06d}.ckpt", model, optimizer, {**meta, "step": done}
                    )
        final = out_dir / "final.ckpt"
        _save_model_checkpoint(final, model, optimizer, {**meta, "step": final_step})
    return final


# -- commands -----------------------------------------------------------------


def cmd_gen_data(args) -> int:
    fps = args.fps if args.fps is not None else 2.0 / 3.0
    with _writing(args.out):
        path, vocab = synth_corpus(
            args.out,
            num_clips=args.clips,
            fps=fps,
            clip_seconds=args.seconds,
            vocab_size=args.vocab_size,
            feature_dim=args.feature_dim,
            planted_structure=args.planted,
            seed=args.seed,
            num_topics=args.topics,
        )
    print(
        f"wrote {args.clips} clips to {path} "
        f"(frames per clip: {[synth_frame_count(fps, args.seconds)]}, vocab size: {vocab.size})"
    )
    return EXIT_OK


def cmd_pretrain(args) -> int:
    _check_out_dir(args.out_dir)
    eff = _effective_options(
        PRETRAIN_DEFAULTS,
        args.config,
        {k: getattr(args, k) for k in PRETRAIN_DEFAULTS},
    )
    _check_counts(eff)
    weights = _parse_tasks(eff["tasks"])
    header, vocab, clips = _load_aligned_corpus(args.corpus, eff["max_frames"])
    config = _model_config(eff, vocab.size, header.feature_dim)
    hypers = _hypers(eff)
    seed, steps, batch_size = eff["seed"], eff["steps"], eff["batch_size"]

    model = PretrainModel(config, seed=seed)
    optimizer = T.AdamW(model.params(), lr=eff["lr"], weight_decay=eff["weight_decay"])
    start_step = 0
    if args.resume:
        arrays, meta = load_checkpoint(args.resume)
        (start_step,) = _meta_fields(meta, args.resume, "step")
        _check_resume_meta(meta, args.resume, arrays, seed, sorted(weights), batch_size, config)
        _check_corpus_tokens(args.corpus, vocab, meta["vocab_tokens"])
        _load_model_arrays(model, arrays, args.resume)
        if start_step > steps:
            raise ConfigError(
                f"checkpoint {args.resume} is at step {start_step}, past --steps {steps}"
            )
        optimizer.load_state_arrays(arrays, start_step)

    meta = {
        "model_kind": "pretrain",
        "config": config.to_dict(),
        "seed": seed,
        "vocab_tokens": vocab.tokens,
        "tasks": sorted(weights),
        "batch_size": batch_size,
    }
    batches = make_batches(clips, vocab, config, batch_size, seed, weights, steps, start_step)
    work = (
        (b.step, b.kind, partial(pretrain_step, model, b, optimizer, hypers)) for b in batches
    )
    final = _train_loop(
        Path(args.out_dir), eff, model, optimizer, meta, work, steps, eff["checkpoint_every"]
    )
    print(f"pre-training finished at step {steps}; checkpoint: {final}")
    return EXIT_OK


def cmd_finetune(args) -> int:
    _check_out_dir(args.out_dir)
    eff = _effective_options(
        FINETUNE_DEFAULTS,
        args.config,
        {k: getattr(args, k) for k in FINETUNE_DEFAULTS},
    )
    _check_counts(eff)
    qa_lambda = eff["qa_lambda"]
    if not (math.isfinite(qa_lambda) and qa_lambda >= 0):
        raise ConfigError(
            f"qa span weight (qa_lambda, --lambda) must be nonnegative and finite, got {qa_lambda}"
        )
    seed = eff["seed"]
    if args.init and args.from_scratch:
        raise UsageError("--init and --from-scratch are mutually exclusive")

    if args.init:
        arrays, meta = load_checkpoint(args.init)
        config = _meta_config(meta, args.init, arrays)
        vocab, clips = _load_corpus_for(args.corpus, config, meta["vocab_tokens"])
    else:
        arrays = None
        header, vocab, clips = _load_aligned_corpus(args.corpus, PRETRAIN_DEFAULTS["max_frames"])
        config = _model_config(PRETRAIN_DEFAULTS, vocab.size, header.feature_dim)
    by_id = {c.clip_id: c for c in clips}
    examples = read_task_file(args.data, args.task, by_id)
    text_token_ids(args.data, args.task, examples, vocab)

    model = finetune_model_for(args.task, config, seed)
    if arrays is not None:
        fresh = _load_model_arrays(model, arrays, args.init, required_prefix="encoder.")
        if fresh:
            print(
                f"note: {len(fresh)} head arrays not in {args.init} keep their initial values: "
                + ", ".join(fresh),
                file=sys.stderr,
            )
    optimizer = T.AdamW(model.params(), lr=eff["lr"], weight_decay=eff["weight_decay"])
    steps = eff["steps"]
    schedule = finetune_steps(
        model, args.task, optimizer, _hypers(eff), qa_lambda, examples, by_id, vocab, seed,
        eff["batch_size"], steps,
    )

    meta = {
        "model_kind": args.task,
        "config": config.to_dict(),
        "seed": seed,
        "vocab_tokens": vocab.tokens,
        "step": steps,
        "qa_lambda": qa_lambda,
    }
    echo = {**eff, "task": args.task, "init": args.init or "scratch"}
    work = ((step, args.task, take_step) for step, take_step in schedule)
    final = _train_loop(Path(args.out_dir), echo, model, optimizer, meta, work, steps)
    print(f"finetuning ({args.task}) finished; checkpoint: {final}")
    return EXIT_OK


def _is_count(value) -> bool:
    return type(value) is int and value >= 0


_MODEL_KINDS = ("pretrain", "retrieval", "qa", "nli", "caption")

# what a checkpoint meta value must be, and the test of it
_META_VALUES = {
    "seed": ("an integer >= 0", _is_count),
    "step": ("an integer >= 0", _is_count),
    "model_kind": (f"one of {_MODEL_KINDS}", lambda v: v in _MODEL_KINDS),
    "vocab_tokens": (
        "a list of strings", lambda v: isinstance(v, list) and all(isinstance(t, str) for t in v)
    ),
}


def _meta_fields(meta: dict, path, *keys) -> list:
    """The values of the named checkpoint meta keys; a missing key, or a
    value that is not what ``_META_VALUES`` asks of it, is a DataError
    (exit 2) that names the key."""
    for key in keys:
        if key not in meta:
            raise DataError(f"checkpoint {path} has no {key!r} in its meta")
        what, ok = _META_VALUES.get(key, (None, lambda _: True))
        if not ok(meta[key]):
            raise DataError(f"checkpoint {path} meta {key!r} is not {what}")
    return [meta[key] for key in keys]


def _meta_config(meta: dict, path, arrays: dict) -> ModelConfig:
    """The model config in a checkpoint's meta.  A malformed one, one whose
    sizes disagree with the arrays that fix them, or one whose
    ``vocab_size`` is not the number of the meta's ``vocab_tokens`` is a
    DataError (exit 2), raised before a model of that size is built.  A
    missing array is left to ``_load_model_arrays``, which names the
    model's first one."""
    raw, tokens = _meta_fields(meta, path, "config", "vocab_tokens")
    try:
        c = ModelConfig.from_dict(raw)
    except (TypeError, ConfigError) as exc:
        raise DataError(f"checkpoint {path} has a malformed config: {exc}") from exc
    sizes = {
        "encoder.token_emb.table": (c.vocab_size, c.d),
        "encoder.text_pos.table": (c.max_tokens, c.d),
        "encoder.frame_fc.w": (c.frame_feature_dim, c.d),
        "encoder.frame_pos.table": (c.max_frames, c.d),
        "encoder.cross.0.ffn1.w": (c.d, c.d * c.ffn_multiplier),
        f"encoder.cross.{c.cross_layers - 1}.ln1.gain": (c.d,),
        f"encoder.temporal.{c.temporal_layers - 1}.ln1.gain": (c.d,),
    }
    for name, shape in sizes.items():
        if name in arrays and arrays[name].shape != shape:
            raise DataError(f"checkpoint {path} config does not fit its array {name!r}")
    if len(tokens) != c.vocab_size:
        raise DataError(
            f"checkpoint {path} has {len(tokens)} vocab_tokens, its config vocab_size {c.vocab_size}"
        )
    return c


def _load_model_arrays(model, arrays: dict, path, required_prefix: str = "") -> list[str]:
    """Copy checkpoint arrays into ``model``'s parameters.  A parameter whose
    name starts with ``required_prefix`` (by default, every parameter) and
    that the checkpoint lacks is a DataError (exit 2) naming the first one.
    Returns the names of the parameters left at their initial values."""
    params = model.params()
    fresh = [name for name in params if name not in arrays]
    required = [name for name in fresh if name.startswith(required_prefix)]
    if required:
        raise DataError(
            f"checkpoint {path} lacks {len(required)} model arrays, first {required[0]!r}"
        )
    load_params_into(params, arrays)
    return fresh


def _check_resume_meta(
    meta: dict, path, arrays: dict, seed: int, tasks: list, batch_size: int, config: ModelConfig
) -> None:
    """A resumed run must have the seed, tasks, batch size and model config
    that wrote its checkpoint; a mismatch is a ConfigError (exit 1) naming
    each one."""
    saved_seed, saved_tasks, saved_batch = _meta_fields(meta, path, "seed", "tasks", "batch_size")
    saved_config = _meta_config(meta, path, arrays).to_dict()
    diffs = [f"seed {saved_seed} != {seed}"] if saved_seed != seed else []
    if saved_tasks != tasks:
        diffs.append(f"tasks {saved_tasks} != {tasks}")
    if saved_batch != batch_size:
        diffs.append(f"batch_size {saved_batch} != {batch_size}")
    diffs += [
        f"{key} {saved_config[key]} != {value}"
        for key, value in config.to_dict().items()
        if saved_config[key] != value
    ]
    if diffs:
        raise ConfigError(
            f"checkpoint {path} does not match this run (checkpoint != run): " + "; ".join(diffs)
        )


def _restore_model(checkpoint_path: str):
    arrays, meta = load_checkpoint(checkpoint_path)
    config = _meta_config(meta, checkpoint_path, arrays)
    kind, seed, tokens = _meta_fields(meta, checkpoint_path, "model_kind", "seed", "vocab_tokens")
    model = finetune_model_for(kind if kind != "pretrain" else "retrieval", config, seed)
    _load_model_arrays(model, arrays, checkpoint_path)
    vocab = Vocab.from_tokens(tokens)
    return model, config, vocab, meta


def cmd_eval(args) -> int:
    if args.out:
        _check_out_file(args.out)
    eff = _effective_options(EVAL_DEFAULTS, None, {
        "tiou": args.tiou, "nms": args.nms, "k": args.k, "spans_per_clip": args.spans_per_clip,
    })
    tiou_threshold = eff["tiou"]
    if not 0.0 <= tiou_threshold <= 1.0:  # also false for NaN
        raise UsageError(f"--tiou must be a finite number in [0, 1], got {tiou_threshold}")
    nms_setting = eff["nms"]
    try:
        nms_threshold = None if nms_setting == "off" else float(nms_setting)
    except ValueError:
        nms_threshold = math.nan  # rejected just below, with the range message
    if nms_threshold is not None and not 0.0 <= nms_threshold <= 1.0:
        raise UsageError(f"--nms must be a tIoU threshold in [0, 1] or `off`, got {nms_setting!r}")
    if eff["spans_per_clip"] < 1:
        raise UsageError(f"--spans-per-clip must be at least 1, got {eff['spans_per_clip']}")
    try:
        k_values = [int(x) for x in eff["k"].split(",") if x.strip()]
    except ValueError:
        raise UsageError(f"--k must be comma-separated integers, got {eff['k']!r}") from None
    if not k_values:
        raise UsageError(f"--k must be a list of at least one cutoff, got {eff['k']!r}")
    if any(k < 1 for k in k_values):
        raise UsageError("every K must be at least 1")

    model, config, vocab, meta = _restore_model(args.checkpoint)
    _, clips = _load_corpus_for(args.corpus, config, vocab.tokens)
    by_id = {c.clip_id: c for c in clips}
    examples = read_task_file(args.data, args.task, by_id)
    texts = text_token_ids(args.data, args.task, examples, vocab)
    kinds = ("pretrain", "retrieval") if args.task == "retrieval" else (args.task,)
    if meta["model_kind"] not in kinds:
        raise DataError(f"{args.task} evaluation needs a {'/'.join(kinds)} checkpoint")
    settings = {
        "tiou_threshold": tiou_threshold,
        "nms": nms_threshold if nms_threshold is not None else "off",
        "k": k_values,
        "checkpoint": str(args.checkpoint),
        "data": str(args.data),
    }
    metrics: dict = {}

    if args.task == "retrieval":
        with T.no_grad():
            encoded = [model.encoder.encode_clip(c) for c in clips]
        predictions, ground_truth = [], []
        for ex, ids in zip(examples, texts):
            ranked = rank_moments(model, encoded, ids, spans_per_clip=eff["spans_per_clip"])
            if nms_threshold is not None:
                ranked = temporal_nms(ranked, nms_threshold)
            predictions.append(ranked[: max(k_values)])  # recall_at_k reads no further
            gt_clip = by_id[ex.clip_id]
            st, ed = seconds_to_frame_span(gt_clip, *ex.span)
            ground_truth.append((ex.clip_id, gt_clip.frame_seconds((st, ed))))
        for k in k_values:
            metrics[f"r@{k}"] = recall_at_k(
                predictions, ground_truth, k=k, tiou_threshold=tiou_threshold
            )
            metrics[f"video_r@{k}"] = recall_at_k(
                predictions, ground_truth, k=k, tiou_threshold=tiou_threshold, mode="video"
            )
    elif args.task in ("qa", "nli"):
        preds, golds = [], []
        for ex in examples:
            preds.append(model.predict(by_id[ex.clip_id], ex, vocab))
            golds.append(ex.label)
        metrics["accuracy"] = accuracy(preds, golds)
    else:  # caption; argparse's choices admit no other task
        scores = []
        for ex, ref in zip(examples, texts):
            scores.append(bleu4(model.greedy_decode(by_id[ex.clip_id], ex.moment), ref))
        metrics["bleu4"] = sum(scores) / len(scores)

    if args.out:
        with _writing(args.out):
            write_metrics_report(args.out, args.task, metrics, settings)
    print(json.dumps({"task": args.task, "settings": settings, "metrics": metrics}, sort_keys=True))
    return EXIT_OK


def cmd_inspect_attention(args) -> int:
    _check_out_dir(args.out)
    model, config, vocab, meta = _restore_model(args.checkpoint)
    _, clips = _load_corpus_for(args.corpus, config, vocab.tokens)
    by_id = {c.clip_id: c for c in clips}
    if args.clip_id not in by_id:
        raise DataError(f"clip {args.clip_id!r} not found in {args.corpus}")
    with T.no_grad(), T.record_attention() as ops:
        model.encoder.encode_clip(by_id[args.clip_id])
    out_dir = Path(args.out)
    cross = config.cross_layers  # the cross-modal layers' ops come first, one grid per sentence
    written = []
    with _writing(out_dir):
        out_dir.mkdir(parents=True, exist_ok=True)
        for i, op in enumerate(ops):
            for j, heads in enumerate(op):
                tag = f"cross_sentence{j}_layer{i}" if i < cross else f"temporal_layer{i - cross}"
                for head, grid in enumerate(heads):
                    name = f"{tag}_head{head}.txt"
                    lines = [" ".join(f"{x:.8f}" for x in row) for row in grid]
                    (out_dir / name).write_text("\n".join(lines) + "\n")
                    written.append(name)
    print(f"wrote {len(written)} attention grids to {out_dir}")
    return EXIT_OK


# -- parser wiring ---------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="vidtext", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen-data", help="generate a synthetic corpus", parents=[])
    g.add_argument("--out", required=True)
    g.add_argument("--clips", type=int, default=8)
    g.add_argument("--seconds", type=float, default=60.0)
    g.add_argument("--fps", type=float, default=None, help="frames per second (default 2/3)")
    g.add_argument("--feature-dim", dest="feature_dim", type=int, default=32)
    g.add_argument("--vocab-size", dest="vocab_size", type=int, default=100)
    g.add_argument("--topics", type=int, default=8)
    g.add_argument("--planted", dest="planted", action="store_true", default=True)
    g.add_argument("--no-planted", dest="planted", action="store_false")
    g.add_argument("--seed", type=int, default=0)
    g.set_defaults(func=cmd_gen_data)

    p = sub.add_parser("pretrain", help="run the pre-training loop")
    p.add_argument("--corpus", required=True)
    p.add_argument("--out-dir", dest="out_dir", required=True)
    p.add_argument("--config", default=None, help="flat key = value option file")
    p.add_argument("--resume", default=None, help="checkpoint to resume from")
    for key, default in PRETRAIN_DEFAULTS.items():
        flag = "--" + key.replace("_", "-")
        if key == "tasks":
            p.add_argument(flag, type=str, default=None)
        elif isinstance(default, int):
            p.add_argument(flag, dest=key, type=int, default=None)
        else:
            p.add_argument(flag, dest=key, type=float, default=None)
    p.set_defaults(func=cmd_pretrain)

    f = sub.add_parser("finetune", help="adapt a model to a downstream task")
    f.add_argument("--task", required=True, choices=("retrieval", "qa", "nli", "caption"))
    f.add_argument("--data", required=True)
    f.add_argument("--corpus", required=True)
    f.add_argument("--out-dir", dest="out_dir", required=True)
    f.add_argument("--init", default=None, help="pre-trained checkpoint to start from")
    f.add_argument("--from-scratch", dest="from_scratch", action="store_true")
    f.add_argument("--config", default=None)
    for key, default in FINETUNE_DEFAULTS.items():
        flag = "--" + key.replace("_", "-")
        if key == "qa_lambda":
            flag = "--lambda"
        if isinstance(default, int):
            f.add_argument(flag, dest=key, type=int, default=None)
        else:
            f.add_argument(flag, dest=key, type=float, default=None)
    f.set_defaults(func=cmd_finetune)

    e = sub.add_parser("eval", help="score a checkpoint on a task file")
    e.add_argument("--task", required=True, choices=("retrieval", "qa", "nli", "caption"))
    e.add_argument("--data", required=True)
    e.add_argument("--corpus", required=True)
    e.add_argument("--checkpoint", required=True)
    e.add_argument("--out", default=None, help="metrics report path (JSON)")
    e.add_argument("--tiou", type=float, default=None)
    e.add_argument("--nms", type=str, default=None, help="tIoU threshold or `off`")
    e.add_argument("--k", type=str, default=None, help="comma-separated recall cutoffs")
    e.add_argument("--spans-per-clip", dest="spans_per_clip", type=int, default=None)
    e.set_defaults(func=cmd_eval)

    a = sub.add_parser("inspect-attention", help="dump attention grids for one clip")
    a.add_argument("--checkpoint", required=True)
    a.add_argument("--corpus", required=True)
    a.add_argument("--clip-id", dest="clip_id", required=True)
    a.add_argument("--out", required=True)
    a.set_defaults(func=cmd_inspect_attention)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (UsageError, ConfigError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except DataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except NumericError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
