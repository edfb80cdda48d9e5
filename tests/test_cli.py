"""Operator-surface tests: flags, wiring, exit codes, determinism."""

import hashlib
import json
import os
import shutil
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import vidtext
from vidtext.checkpoint import load_checkpoint, save_checkpoint
from vidtext.cli import EXIT_DATA, EXIT_NUMERIC, EXIT_OK, EXIT_USAGE, main
from vidtext.cli import EVAL_DEFAULTS, FINETUNE_DEFAULTS, PRETRAIN_DEFAULTS, _effective_options
from vidtext.encoder import ModelConfig
from vidtext.errors import ConfigError, DataError

SMALL_MODEL = [
    "--d", "16", "--cross-heads", "2", "--temporal-heads", "2",
    "--max-frames", "16", "--max-tokens", "12", "--ffn-multiplier", "2",
]


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli-corpus")
    path = root / "corpus.jsonl"
    rc = main([
        "gen-data", "--out", str(path), "--clips", "4", "--seconds", "21",
        "--fps", "0.6667", "--feature-dim", "8", "--vocab-size", "30", "--seed", "1",
    ])
    assert rc == EXIT_OK
    return path


@pytest.fixture(scope="module")
def pretrained(corpus, tmp_path_factory):
    out = tmp_path_factory.mktemp("cli-pretrain")
    rc = main([
        "pretrain", "--corpus", str(corpus), "--out-dir", str(out),
        "--steps", "6", "--batch-size", "2", "--seed", "0", "--lr", "0.001",
        "--dropout", "0.0", *SMALL_MODEL,
    ])
    assert rc == EXIT_OK
    return out / "final.ckpt"


def write_toy_tasks(corpus, tmp_path):
    from vidtext.data import align, load_corpus_vocab, read_corpus
    from vidtext.downstream import (
        CaptionExample, NliExample, QaExample, RetrievalExample, write_task_file,
    )

    header, raws = read_corpus(corpus)
    vocab = load_corpus_vocab(corpus, header)
    clips = [align(r, vocab) for r in raws]
    ret, qa, nli, cap = [], [], [], []
    for i, c in enumerate(clips):
        s = c.sentences[0]
        t0, t1 = c.frame_seconds(s.span())
        ret.append(RetrievalExample(c.clip_id, s.text, (t0, t1)))
        qa.append(QaExample(c.clip_id, s.text,
                            ["w000 w001", "w002 w003", "w004 w005", "w006 w007"],
                            i % 4, (t0, t1)))
        nli.append(NliExample(c.clip_id, s.text, i % 2))
        cap.append(CaptionExample(c.clip_id, (t0, t1), " ".join(s.text.split()[:3])))
    paths = {}
    for task, examples in (("retrieval", ret), ("qa", qa), ("nli", nli), ("caption", cap)):
        paths[task] = tmp_path / f"{task}.jsonl"
        write_task_file(paths[task], task, examples)
    return paths


class TestGenData:
    def test_wiring_and_frame_count(self, tmp_path, capsys):
        rc = main([
            "gen-data", "--out", str(tmp_path / "c.jsonl"), "--clips", "8",
            "--seconds", "60", "--fps", "0.6667", "--seed", "1",
        ])
        assert rc == EXIT_OK
        out = capsys.readouterr().out
        assert "8 clips" in out and "[40]" in out

    def test_rerun_same_flags_identical_checksum(self, tmp_path):
        flags = ["--clips", "2", "--seconds", "21", "--fps", "0.6667", "--seed", "3"]
        (tmp_path / "r1").mkdir()
        (tmp_path / "r2").mkdir()
        main(["gen-data", "--out", str(tmp_path / "r1" / "c.jsonl"), *flags])
        main(["gen-data", "--out", str(tmp_path / "r2" / "c.jsonl"), *flags])
        h = lambda p: hashlib.sha256(p.read_bytes()).hexdigest()
        assert h(tmp_path / "r1" / "c.jsonl") == h(tmp_path / "r2" / "c.jsonl")

    def test_creates_missing_output_directory(self, tmp_path):
        out = tmp_path / "fresh" / "nested" / "c.jsonl"
        rc = main(["gen-data", "--out", str(out), "--clips", "2", "--seconds", "21", "--seed", "3"])
        assert rc == EXIT_OK
        assert out.exists()

    def test_zero_fps_is_a_usage_error(self, tmp_path):
        rc = main(["gen-data", "--out", str(tmp_path / "c.jsonl"), "--fps", "0"])
        assert rc == EXIT_USAGE

    def test_unknown_flag_exits_one(self):
        with pytest.raises(SystemExit) as exc:
            main(["gen-data", "--nope"])
        assert exc.value.code == EXIT_USAGE


class TestPretrain:
    def test_log_records_and_config_echo(self, corpus, tmp_path):
        out = tmp_path / "run"
        rc = main([
            "pretrain", "--corpus", str(corpus), "--out-dir", str(out),
            "--steps", "3", "--batch-size", "2", "--seed", "2", "--dropout", "0.0",
            *SMALL_MODEL,
        ])
        assert rc == EXIT_OK
        lines = (out / "train.log").read_text().splitlines()
        config_lines = [l for l in lines if l.startswith("# config ")]
        assert any("lambda_global = 8.0" in l for l in config_lines)
        records = [l for l in lines if not l.startswith("#")]
        assert len(records) == 3
        step, task, loss, lr, seed = [x.strip() for x in records[0].split(",")]
        assert step == "0" and task in ("mlm", "mffr", "mnce", "vsm", "fom")
        float(loss), float(lr), int(seed)

    def test_missing_corpus_exits_two(self, tmp_path):
        rc = main([
            "pretrain", "--corpus", str(tmp_path / "absent.jsonl"),
            "--out-dir", str(tmp_path / "o"), "--steps", "1",
        ])
        assert rc == EXIT_DATA

    def test_non_finite_loss_aborts_with_exit_three(self, corpus, tmp_path, monkeypatch, capsys):
        import vidtext.cli as cli

        monkeypatch.setattr(cli, "pretrain_step", lambda *a, **k: float("nan"))
        rc = main([
            "pretrain", "--corpus", str(corpus), "--out-dir", str(tmp_path / "nan"),
            "--steps", "2", "--batch-size", "2", "--dropout", "0.0", *SMALL_MODEL,
        ])
        assert rc == EXIT_NUMERIC
        assert "step 0" in capsys.readouterr().err

    def test_task_restriction_flag(self, corpus, tmp_path):
        out = tmp_path / "mlm-only"
        rc = main([
            "pretrain", "--corpus", str(corpus), "--out-dir", str(out),
            "--steps", "4", "--batch-size", "2", "--tasks", "mlm",
            "--dropout", "0.0", *SMALL_MODEL,
        ])
        assert rc == EXIT_OK
        records = [l for l in (out / "train.log").read_text().splitlines() if not l.startswith("#")]
        assert all(r.split(",")[1].strip() == "mlm" for r in records)

    def test_config_file_precedence(self, corpus, tmp_path):
        cfg = tmp_path / "opts.cfg"
        cfg.write_text("steps = 2\nlr = 0.01\n")
        out = tmp_path / "cfgrun"
        rc = main([
            "pretrain", "--corpus", str(corpus), "--out-dir", str(out),
            "--config", str(cfg), "--lr", "0.005", "--batch-size", "2",
            "--dropout", "0.0", *SMALL_MODEL,
        ])
        assert rc == EXIT_OK
        log = (out / "train.log").read_text()
        assert "# config lr = 0.005" in log  # flag beats file
        assert "# config steps = 2" in log  # file beats default
        records = [l for l in log.splitlines() if not l.startswith("#")]
        assert len(records) == 2

    def test_unknown_config_key_rejected(self, corpus, tmp_path):
        cfg = tmp_path / "opts.cfg"
        cfg.write_text("not_a_key = 5\n")
        rc = main([
            "pretrain", "--corpus", str(corpus), "--out-dir", str(tmp_path / "x"),
            "--config", str(cfg),
        ])
        assert rc == EXIT_USAGE

    def test_resume_matches_uninterrupted_run(self, corpus, tmp_path):
        base = [
            "pretrain", "--corpus", str(corpus), "--batch-size", "2", "--seed", "7",
            "--lr", "0.001", "--dropout", "0.1", *SMALL_MODEL,
        ]
        straight = tmp_path / "straight"
        assert main([*base, "--out-dir", str(straight), "--steps", "6"]) == EXIT_OK
        resumed = tmp_path / "resumed"
        assert main([
            *base, "--out-dir", str(resumed), "--steps", "3", "--checkpoint-every", "3",
        ]) == EXIT_OK
        assert main([
            *base, "--out-dir", str(resumed), "--steps", "6",
            "--resume", str(resumed / "step000003.ckpt"),
        ]) == EXIT_OK

        def records(p):
            return [l for l in (p / "train.log").read_text().splitlines() if not l.startswith("#")]

        a, b = records(straight), records(resumed)
        assert a == b  # identical per-step loss trajectory after resume


    def test_resume_past_steps_is_refused(self, corpus, tmp_path, capsys):
        base = [
            "pretrain", "--corpus", str(corpus), "--batch-size", "2", "--dropout", "0.0",
            *SMALL_MODEL,
        ]
        first = tmp_path / "first"
        assert main([*base, "--out-dir", str(first), "--steps", "4", "--checkpoint-every", "4"]) == EXIT_OK
        resumed = tmp_path / "resumed"
        rc = main([
            *base, "--out-dir", str(resumed), "--steps", "2",
            "--resume", str(first / "step000004.ckpt"),
        ])
        assert rc == EXIT_USAGE
        assert "past --steps 2" in capsys.readouterr().err
        assert not (resumed / "final.ckpt").exists()

    def test_resume_on_a_corpus_with_swapped_tokens_exits_two(self, corpus, pretrained, tmp_path, capsys):
        for path in corpus.parent.iterdir():  # the corpus and its vocab file
            shutil.copy(path, tmp_path / path.name)
        vocab = tmp_path / "corpus.vocab.txt"
        tokens = vocab.read_text().splitlines()
        tokens[7], tokens[9] = tokens[9], tokens[7]
        vocab.write_text("\n".join(tokens) + "\n")
        out = tmp_path / "resumed"
        rc = main([
            "pretrain", "--corpus", str(tmp_path / corpus.name), "--out-dir", str(out),
            "--steps", "8", "--batch-size", "2", "--seed", "0", "--lr", "0.001",
            "--dropout", "0.0", *SMALL_MODEL, "--resume", str(pretrained),
        ])
        err = capsys.readouterr().err.splitlines()
        assert rc == EXIT_DATA
        assert len(err) == 1 and err[0].startswith("error: "), err
        assert f"first at token 7: {tokens[7]!r} != {tokens[9]!r}" in err[0]
        assert not out.exists()


class TestFinetuneAndEval:
    def test_each_task_runs_and_evaluates(self, corpus, pretrained, tmp_path, capsys):
        tasks = write_toy_tasks(corpus, tmp_path)
        for task in ("retrieval", "qa", "nli", "caption"):
            out = tmp_path / f"ft-{task}"
            rc = main([
                "finetune", "--task", task, "--data", str(tasks[task]),
                "--corpus", str(corpus), "--out-dir", str(out),
                "--init", str(pretrained), "--steps", "3", "--lr", "0.001",
            ])
            assert rc == EXIT_OK, task
            report = tmp_path / f"report-{task}.json"
            rc = main([
                "eval", "--task", task, "--data", str(tasks[task]),
                "--corpus", str(corpus), "--checkpoint", str(out / "final.ckpt"),
                "--out", str(report), "--k", "1,2",
            ])
            assert rc == EXIT_OK, task
            payload = json.loads(report.read_text())
            assert payload["task"] == task
            assert payload["metrics"]

    @pytest.mark.parametrize("hypothesis", ["", "!!! ???"])
    def test_empty_nli_hypothesis_exits_two(self, corpus, tmp_path, capsys, hypothesis):
        from vidtext.downstream import NliExample, read_task_file, write_task_file

        clip_id = read_task_file(write_toy_tasks(corpus, tmp_path)["nli"], "nli")[0].clip_id
        path = tmp_path / "empty-nli.jsonl"
        write_task_file(path, "nli", [NliExample(clip_id, hypothesis, 1)])
        rc = main([
            "finetune", "--task", "nli", "--data", str(path), "--corpus", str(corpus),
            "--out-dir", str(tmp_path / "ft"), "--steps", "1",
        ])
        assert rc == EXIT_DATA
        assert f"hypothesis {hypothesis!r} tokenizes to nothing" in capsys.readouterr().err

    @pytest.mark.parametrize("steps", ["1", "2"])
    @pytest.mark.parametrize("task,field", [("nli", "hypothesis"), ("caption", "caption")])
    def test_text_that_tokenizes_to_nothing_exits_two_before_any_output(
        self, corpus, tmp_path, capsys, task, field, steps
    ):
        import dataclasses

        from vidtext.downstream import read_task_file, write_task_file
        from vidtext.pretrain import _SEED_FINETUNE

        # 12 records at batch 1; the empty text is the record step 1 draws and
        # step 0 does not, so a check made at the draw would pass --steps 1
        toy = read_task_file(write_toy_tasks(corpus, tmp_path)[task], task)
        examples = [dataclasses.replace(ex) for ex in toy * 3]
        first, second = (
            int(np.random.default_rng([0, _SEED_FINETUNE, step]).choice(12, size=1)[0])
            for step in (0, 1)
        )
        assert first != second
        setattr(examples[second], field, "???")
        path = tmp_path / f"empty-{task}.jsonl"
        write_task_file(path, task, examples)
        out = tmp_path / "ft"
        rc = main([
            "finetune", "--task", task, "--data", str(path), "--corpus", str(corpus),
            "--out-dir", str(out), "--from-scratch", "--batch-size", "1", "--steps", steps,
        ])
        assert rc == EXIT_DATA
        assert f"task file {path}: {field} '???' tokenizes to nothing" in capsys.readouterr().err
        assert not out.exists()

    def test_eval_caption_that_tokenizes_to_nothing_exits_two(
        self, corpus, pretrained, tmp_path, capsys, monkeypatch
    ):
        from vidtext.downstream import CaptionModel, read_task_file, write_task_file

        tasks = write_toy_tasks(corpus, tmp_path)
        out = tmp_path / "ft"
        rc = main([
            "finetune", "--task", "caption", "--data", str(tasks["caption"]), "--corpus",
            str(corpus), "--out-dir", str(out), "--init", str(pretrained), "--steps", "1",
        ])
        assert rc == EXIT_OK
        examples = read_task_file(tasks["caption"], "caption")
        examples[1].caption = "!!!"
        path = tmp_path / "empty-caption.jsonl"
        write_task_file(path, "caption", examples)
        decoded = []
        monkeypatch.setattr(
            CaptionModel, "greedy_decode", lambda self, clip, moment: decoded.append(clip) or [1]
        )
        capsys.readouterr()
        rc = main([
            "eval", "--task", "caption", "--data", str(path), "--corpus", str(corpus),
            "--checkpoint", str(out / "final.ckpt"),
        ])
        assert rc == EXIT_DATA
        assert f"task file {path}: caption '!!!' tokenizes to nothing" in capsys.readouterr().err
        assert decoded == []  # refused before any record is decoded

    def test_eval_defaults_match_reporting_contract(self):
        assert EVAL_DEFAULTS["tiou"] == 0.7
        assert EVAL_DEFAULTS["nms"] == "0.5"
        assert EVAL_DEFAULTS["k"] == "1,10,100"
        assert FINETUNE_DEFAULTS["qa_lambda"] == 0.5
        assert PRETRAIN_DEFAULTS["margin"] == 0.1
        assert PRETRAIN_DEFAULTS["lambda_local"] == 0.01
        assert PRETRAIN_DEFAULTS["lambda_global"] == 8.0

    def test_from_scratch_flag(self, corpus, tmp_path):
        tasks = write_toy_tasks(corpus, tmp_path)
        rc = main([
            "finetune", "--task", "nli", "--data", str(tasks["nli"]),
            "--corpus", str(corpus), "--out-dir", str(tmp_path / "scratch"),
            "--from-scratch", "--steps", "2", "--lr", "0.001",
        ])
        assert rc == EXIT_OK

    def test_init_and_from_scratch_conflict(self, corpus, pretrained, tmp_path):
        tasks = write_toy_tasks(corpus, tmp_path)
        rc = main([
            "finetune", "--task", "nli", "--data", str(tasks["nli"]),
            "--corpus", str(corpus), "--out-dir", str(tmp_path / "x"),
            "--init", str(pretrained), "--from-scratch",
        ])
        assert rc == EXIT_USAGE

    def test_eval_twice_is_identical(self, corpus, pretrained, tmp_path):
        tasks = write_toy_tasks(corpus, tmp_path)
        args = [
            "eval", "--task", "retrieval", "--data", str(tasks["retrieval"]),
            "--corpus", str(corpus), "--checkpoint", str(pretrained), "--k", "1,2",
        ]
        r1, r2 = tmp_path / "r1.json", tmp_path / "r2.json"
        assert main([*args, "--out", str(r1)]) == EXIT_OK
        assert main([*args, "--out", str(r2)]) == EXIT_OK
        assert r1.read_text() == r2.read_text()

    def test_nms_off_switches_mode(self, corpus, pretrained, tmp_path):
        tasks = write_toy_tasks(corpus, tmp_path)
        report = tmp_path / "r.json"
        rc = main([
            "eval", "--task", "retrieval", "--data", str(tasks["retrieval"]),
            "--corpus", str(corpus), "--checkpoint", str(pretrained),
            "--nms", "off", "--out", str(report),
        ])
        assert rc == EXIT_OK
        assert json.loads(report.read_text())["settings"]["nms"] == "off"

    def test_missing_checkpoint_exits_two(self, corpus, tmp_path):
        tasks = write_toy_tasks(corpus, tmp_path)
        rc = main([
            "eval", "--task", "qa", "--data", str(tasks["qa"]),
            "--corpus", str(corpus), "--checkpoint", str(tmp_path / "absent.ckpt"),
        ])
        assert rc == EXIT_DATA

    def test_wrong_checkpoint_kind_exits_two(self, corpus, pretrained, tmp_path):
        tasks = write_toy_tasks(corpus, tmp_path)
        rc = main([
            "eval", "--task", "qa", "--data", str(tasks["qa"]),
            "--corpus", str(corpus), "--checkpoint", str(pretrained),
        ])
        assert rc == EXIT_DATA


    def test_malformed_checkpoint_exits_two(self, corpus, pretrained, tmp_path, capsys):
        tasks = write_toy_tasks(corpus, tmp_path)
        raw = pretrained.read_bytes()
        bad = tmp_path / "bad.ckpt"
        for corrupt in (raw[:16] + b"\xff" + raw[17:], raw + b"\0"):
            bad.write_bytes(corrupt)
            rc = main([
                "eval", "--task", "retrieval", "--data", str(tasks["retrieval"]),
                "--corpus", str(corpus), "--checkpoint", str(bad),
            ])
            assert rc == EXIT_DATA
            assert "error: checkpoint" in capsys.readouterr().err


class TestIncompleteCheckpoints:
    """A checkpoint that loads but lacks a meta key or the optimizer state
    ends in exit 2 naming what is missing, not in a traceback."""

    @staticmethod
    def _resave(src, dst, drop_meta=(), drop_arrays=""):
        arrays, meta = load_checkpoint(src)
        arrays = {k: v for k, v in arrays.items() if not (drop_arrays and k.startswith(drop_arrays))}
        save_checkpoint(dst, arrays, {k: v for k, v in meta.items() if k not in drop_meta})
        return dst

    @pytest.mark.parametrize("key", ["config", "model_kind", "vocab_tokens", "seed"])
    def test_eval_names_the_missing_meta_key(self, corpus, pretrained, tmp_path, capsys, key):
        tasks = write_toy_tasks(corpus, tmp_path)
        bad = self._resave(pretrained, tmp_path / "bad.ckpt", drop_meta=(key,))
        rc = main([
            "eval", "--task", "retrieval", "--data", str(tasks["retrieval"]),
            "--corpus", str(corpus), "--checkpoint", str(bad),
        ])
        assert rc == EXIT_DATA
        assert repr(key) in capsys.readouterr().err

    def test_resume_without_step_exits_two(self, corpus, pretrained, tmp_path, capsys):
        bad = self._resave(pretrained, tmp_path / "bad.ckpt", drop_meta=("step",))
        rc = main([
            "pretrain", "--corpus", str(corpus), "--out-dir", str(tmp_path / "run"),
            "--steps", "8", "--batch-size", "2", "--dropout", "0.0", *SMALL_MODEL,
            "--resume", str(bad),
        ])
        assert rc == EXIT_DATA
        assert "'step'" in capsys.readouterr().err

    def test_resume_without_batch_size_exits_two(self, corpus, pretrained, tmp_path, capsys):
        bad = self._resave(pretrained, tmp_path / "bad.ckpt", drop_meta=("batch_size",))
        rc = main([
            "pretrain", "--corpus", str(corpus), "--out-dir", str(tmp_path / "run"),
            "--steps", "8", "--batch-size", "2", "--dropout", "0.0", *SMALL_MODEL,
            "--resume", str(bad),
        ])
        assert rc == EXIT_DATA
        assert "'batch_size'" in capsys.readouterr().err

    @pytest.mark.parametrize("key", [
        "lr", "weight_decay", "margin", "lambda_local", "lambda_global", "num_negatives",
        "corpus_sha256",
    ])
    def test_resume_without_a_run_setting_exits_two(self, corpus, pretrained, tmp_path, capsys, key):
        """A checkpoint from before these keys were written cannot be resumed."""
        bad = self._resave(pretrained, tmp_path / "bad.ckpt", drop_meta=(key,))
        rc = main([
            "pretrain", "--corpus", str(corpus), "--out-dir", str(tmp_path / "run"),
            "--steps", "8", "--batch-size", "2", "--lr", "0.001", "--dropout", "0.0", *SMALL_MODEL,
            "--resume", str(bad),
        ])
        assert rc == EXIT_DATA
        assert repr(key) in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def test_resume_without_optimizer_state_exits_two(self, corpus, pretrained, tmp_path, capsys):
        bad = self._resave(pretrained, tmp_path / "bad.ckpt", drop_arrays="adam.")
        rc = main([
            "pretrain", "--corpus", str(corpus), "--out-dir", str(tmp_path / "run"),
            "--steps", "8", "--batch-size", "2", "--lr", "0.001", "--dropout", "0.0", *SMALL_MODEL,
            "--resume", str(bad),
        ])
        assert rc == EXIT_DATA
        assert "adam." in capsys.readouterr().err
        assert not (tmp_path / "run" / "final.ckpt").exists()

    def test_finetune_init_without_config_exits_two(self, corpus, pretrained, tmp_path, capsys):
        tasks = write_toy_tasks(corpus, tmp_path)
        bad = self._resave(pretrained, tmp_path / "bad.ckpt", drop_meta=("config",))
        rc = main([
            "finetune", "--task", "qa", "--data", str(tasks["qa"]), "--corpus", str(corpus),
            "--init", str(bad), "--out-dir", str(tmp_path / "ft"), "--steps", "1",
        ])
        assert rc == EXIT_DATA
        assert "'config'" in capsys.readouterr().err


def _resave_with_meta(src, dst, key, value):
    """``src`` saved to ``dst`` with meta ``key`` (``config.<field>`` for a
    config field) set to ``value``."""
    arrays, meta = load_checkpoint(src)
    top, _, field = key.partition(".")
    meta[top] = {**meta[top], field: value} if field else value
    save_checkpoint(dst, arrays, meta)
    return dst


class TestOddMetaValues:
    @pytest.mark.parametrize("key, value, named", [
        ("config.cross_heads", 0, "cross_heads"),
        ("config.max_frames", -1, "max_frames"),
        ("config.d", 32, "'encoder.token_emb.table'"),
        ("seed", "abc", "'seed'"),
        ("vocab_tokens", 5, "'vocab_tokens'"),
        ("model_kind", "nope", "'model_kind'"),
    ])
    def test_eval_exits_two_naming_the_value(
        self, corpus, pretrained, tmp_path, capsys, key, value, named
    ):
        tasks = write_toy_tasks(corpus, tmp_path)
        bad = _resave_with_meta(pretrained, tmp_path / "bad.ckpt", key, value)
        rc = main([
            "eval", "--task", "retrieval", "--data", str(tasks["retrieval"]),
            "--corpus", str(corpus), "--checkpoint", str(bad),
        ])
        assert rc == EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and named in err

    @pytest.mark.parametrize("value", ["6", 6.0, -1, True])
    def test_resume_from_an_odd_step_exits_two(self, corpus, pretrained, tmp_path, capsys, value):
        bad = _resave_with_meta(pretrained, tmp_path / "bad.ckpt", "step", value)
        rc = main([
            "pretrain", "--corpus", str(corpus), "--out-dir", str(tmp_path / "run"),
            "--steps", "8", "--batch-size", "2", "--dropout", "0.0", "--lr", "0.001",
            *SMALL_MODEL, "--resume", str(bad),
        ])
        assert rc == EXIT_DATA
        assert "'step'" in capsys.readouterr().err


class TestCheckpointArrays:
    """Eval and resume need every model array; finetune init needs the
    encoder's and says which head arrays start fresh."""

    _resave = staticmethod(TestIncompleteCheckpoints._resave)
    RESUME = ["--steps", "8", "--batch-size", "2", "--lr", "0.001", "--dropout", "0.0", *SMALL_MODEL]

    @pytest.mark.parametrize("drop,first", [
        ("lm_head.b", "lm_head.b"),
        ("encoder.", "encoder.token_emb.table"),
    ])
    def test_eval_names_the_first_missing_array(self, corpus, pretrained, tmp_path, capsys, drop, first):
        tasks = write_toy_tasks(corpus, tmp_path)
        bad = self._resave(pretrained, tmp_path / "bad.ckpt", drop_arrays=drop)
        rc = main([
            "eval", "--task", "retrieval", "--data", str(tasks["retrieval"]),
            "--corpus", str(corpus), "--checkpoint", str(bad),
        ])
        assert rc == EXIT_DATA
        assert f"first {first!r}" in capsys.readouterr().err

    @pytest.mark.parametrize("misshape", ["broadcastable", "transposed"])
    def test_resume_with_a_misshapen_moment_exits_two(self, corpus, pretrained, tmp_path, capsys, misshape):
        arrays, meta = load_checkpoint(pretrained)
        key = next(k for k, a in arrays.items()
                   if k.startswith("adam.m.") and a.ndim == 2 and a.shape[0] != a.shape[1])
        arrays[key] = arrays[key].reshape(-1)[:1] if misshape == "broadcastable" else arrays[key].T
        save_checkpoint(tmp_path / "bad.ckpt", arrays, meta)
        rc = main(["pretrain", "--corpus", str(corpus), "--out-dir", str(tmp_path / "run"),
                   *self.RESUME, "--resume", str(tmp_path / "bad.ckpt")])
        assert rc == EXIT_DATA
        assert f"{key!r} has shape" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def test_resume_names_the_first_missing_array(self, corpus, pretrained, tmp_path, capsys):
        bad = self._resave(pretrained, tmp_path / "bad.ckpt", drop_arrays="encoder.frame_fc.w")
        run = tmp_path / "run"
        rc = main(["pretrain", "--corpus", str(corpus), "--out-dir", str(run), *self.RESUME,
                   "--resume", str(bad)])
        assert rc == EXIT_DATA
        assert "'encoder.frame_fc.w'" in capsys.readouterr().err
        assert not (run / "final.ckpt").exists()

    @pytest.mark.parametrize("flags,named", [
        (["--seed", "3"], "seed 0 != 3"),
        (["--tasks", "mlm,fom"], "tasks ['fom', 'mlm', 'mnce', 'vsm'] != ['fom', 'mlm']"),
        (["--dropout", "0.1"], "dropout 0.0 != 0.1"),
        (["--batch-size", "3"], "batch_size 2 != 3"),
        (["--lr", "0.5"], "lr 0.001 != 0.5"),
        (["--weight-decay", "0.3"], "weight_decay 0.01 != 0.3"),
        (["--margin", "0.9"], "margin 0.1 != 0.9"),
        (["--lambda-local", "0.5"], "lambda_local 0.01 != 0.5"),
        (["--lambda-global", "2"], "lambda_global 8.0 != 2.0"),
        (["--num-negatives", "3"], "num_negatives 15 != 3"),
    ])
    def test_resume_refuses_other_options(self, corpus, pretrained, tmp_path, capsys, flags, named):
        run = tmp_path / "run"
        rc = main(["pretrain", "--corpus", str(corpus), "--out-dir", str(run), *self.RESUME,
                   *flags, "--resume", str(pretrained)])
        assert rc == EXIT_USAGE
        assert named in capsys.readouterr().err
        assert not (run / "final.ckpt").exists()

    def test_resume_refuses_another_corpus_of_the_same_vocabulary(
        self, corpus, pretrained, tmp_path, capsys
    ):
        other = tmp_path / "other.jsonl"
        assert main([
            "gen-data", "--out", str(other), "--clips", "4", "--seconds", "21",
            "--fps", "0.6667", "--feature-dim", "8", "--vocab-size", "30", "--seed", "2",
        ]) == EXIT_OK
        capsys.readouterr()
        vocab = corpus.with_suffix(".vocab.txt")
        assert other.with_suffix(".vocab.txt").read_text() == vocab.read_text()
        run = tmp_path / "run"
        rc = main(["pretrain", "--corpus", str(other), "--out-dir", str(run), *self.RESUME,
                   "--resume", str(pretrained)])
        assert rc == EXIT_USAGE
        assert "corpus_sha256" in capsys.readouterr().err
        assert not (run / "final.ckpt").exists()
        # the same bytes under another name resume
        copy = tmp_path / "copy"
        copy.mkdir()
        shutil.copy(vocab, copy)
        shutil.copy(corpus, copy)
        rc = main(["pretrain", "--corpus", str(copy / "corpus.jsonl"), "--out-dir", str(run),
                   *self.RESUME, "--resume", str(pretrained)])
        assert rc == EXIT_OK

    def test_finetune_init_needs_the_encoder_arrays(self, corpus, pretrained, tmp_path, capsys):
        tasks = write_toy_tasks(corpus, tmp_path)
        bad = self._resave(pretrained, tmp_path / "bad.ckpt", drop_arrays="encoder.text_ln.")
        rc = main([
            "finetune", "--task", "qa", "--data", str(tasks["qa"]), "--corpus", str(corpus),
            "--init", str(bad), "--out-dir", str(tmp_path / "ft"), "--steps", "1",
        ])
        assert rc == EXIT_DATA
        assert "first 'encoder.text_ln.gain'" in capsys.readouterr().err

    def test_finetune_init_names_the_fresh_head_arrays(self, corpus, pretrained, tmp_path, capsys):
        from vidtext.downstream import QaModel
        from vidtext.encoder import ModelConfig

        tasks = write_toy_tasks(corpus, tmp_path)
        for task, out in (("retrieval", "ft-ret"), ("qa", "ft-qa")):
            rc = main([
                "finetune", "--task", task, "--data", str(tasks[task]), "--corpus", str(corpus),
                "--init", str(pretrained), "--out-dir", str(tmp_path / out), "--steps", "1",
            ])
            assert rc == EXIT_OK
            err = capsys.readouterr().err
            if task == "retrieval":
                assert "head arrays" not in err  # a pretrain checkpoint has them all
        head = [n for n in QaModel(ModelConfig(d=16, cross_heads=2, temporal_heads=2)).params()
                if not n.startswith("encoder.")]
        assert f"{len(head)} head arrays not in {pretrained}" in err
        assert ", ".join(head) in err


# the arrays that checkpoints written before the key projections and the QA
# output layers lost their biases still hold: name -> shape, at d = 16
DROPPED_BIASES = {
    **{f"encoder.{stack}.attn.wk.b": (16,) for stack in ("cross.0", "cross.1", "temporal.0")},
    **{f"decoder.{i}.{attn}.wk.b": (16,) for i in (0, 1) for attn in ("self_attn", "cross_attn")},
    **{f"qa.{head}_out.b": (1,) for head in ("ans", "st", "ed")},
}


def _with_dropped_biases(src, dst):
    """``src`` saved to ``dst`` with the ten ``DROPPED_BIASES`` arrays and their
    AdamW moments added, all nonzero, as an older checkpoint holds them."""
    arrays, meta = load_checkpoint(src)
    rng = np.random.default_rng(0)
    for name, shape in DROPPED_BIASES.items():
        arrays[name] = rng.normal(0.0, 0.1, size=shape)
        arrays[f"adam.m.{name}"] = rng.normal(0.0, 1e-3, size=shape)
        arrays[f"adam.v.{name}"] = rng.uniform(1e-8, 1e-6, size=shape)
    save_checkpoint(dst, arrays, meta)
    return dst


class TestCheckpointsWithDroppedBiases:
    """Checkpoints written while the key projections and the QA output layers
    had biases still load: their biases and moments are ignored."""

    def test_eval_gives_the_same_metrics(self, corpus, pretrained, tmp_path, capsys):
        tasks = write_toy_tasks(corpus, tmp_path)
        checkpoints = {"retrieval": pretrained}
        for task in ("qa", "nli", "caption"):
            rc = main([
                "finetune", "--task", task, "--data", str(tasks[task]), "--corpus", str(corpus),
                "--init", str(pretrained), "--out-dir", str(tmp_path / task), "--steps", "2",
            ])
            assert rc == EXIT_OK
            checkpoints[task] = tmp_path / task / "final.ckpt"
        capsys.readouterr()
        for task, checkpoint in checkpoints.items():
            metrics = []
            for ckpt in (checkpoint, _with_dropped_biases(checkpoint, tmp_path / f"{task}-old.ckpt")):
                rc = main([
                    "eval", "--task", task, "--data", str(tasks[task]), "--corpus", str(corpus),
                    "--checkpoint", str(ckpt),
                ])
                assert rc == EXIT_OK
                metrics.append(json.loads(capsys.readouterr().out)["metrics"])
            assert metrics[0] == metrics[1], task

    def test_finetune_init_and_resume_run(self, corpus, pretrained, tmp_path):
        old = _with_dropped_biases(pretrained, tmp_path / "old.ckpt")
        tasks = write_toy_tasks(corpus, tmp_path)
        rc = main([
            "finetune", "--task", "qa", "--data", str(tasks["qa"]), "--corpus", str(corpus),
            "--init", str(old), "--out-dir", str(tmp_path / "ft"), "--steps", "1",
        ])
        assert rc == EXIT_OK
        rc = main([
            "pretrain", "--corpus", str(corpus), "--out-dir", str(tmp_path / "run"),
            *TestCheckpointArrays.RESUME, "--resume", str(old),
        ])
        assert rc == EXIT_OK
        assert (tmp_path / "run" / "final.ckpt").exists()


class TestInspectAttention:
    def test_grids_are_stochastic_and_deterministic(self, corpus, pretrained, tmp_path):
        out1, out2 = tmp_path / "a1", tmp_path / "a2"
        for out in (out1, out2):
            rc = main([
                "inspect-attention", "--checkpoint", str(pretrained),
                "--corpus", str(corpus), "--clip-id", "clip0000", "--out", str(out),
            ])
            assert rc == EXIT_OK
        files = sorted(p.name for p in out1.iterdir())
        assert files == sorted(p.name for p in out2.iterdir())
        for name in files:
            grid = np.loadtxt(out1 / name)
            grid = np.atleast_2d(grid)
            assert grid.shape[0] == grid.shape[1]
            np.testing.assert_allclose(grid.sum(axis=1), 1.0, atol=1e-6)
            assert (out1 / name).read_text() == (out2 / name).read_text()

    def test_cross_grid_shape_is_group_plus_tokens(self, corpus, pretrained, tmp_path):
        from vidtext.data import align, load_corpus_vocab, read_corpus

        header, raws = read_corpus(corpus)
        vocab = load_corpus_vocab(corpus, header)
        clip = align(raws[0], vocab)
        out = tmp_path / "attn"
        main([
            "inspect-attention", "--checkpoint", str(pretrained),
            "--corpus", str(corpus), "--clip-id", clip.clip_id, "--out", str(out),
        ])
        for j, sent in enumerate(clip.sentences):
            size = len(sent.frame_indices) + len(sent.token_ids)
            grid = np.atleast_2d(np.loadtxt(out / f"cross_sentence{j}_layer0_head0.txt"))
            assert grid.shape == (size, size)

    def test_unknown_clip_exits_two(self, corpus, pretrained, tmp_path):
        rc = main([
            "inspect-attention", "--checkpoint", str(pretrained),
            "--corpus", str(corpus), "--clip-id", "nope", "--out", str(tmp_path / "x"),
        ])
        assert rc == EXIT_DATA

    def test_one_file_per_head_of_each_sentence_and_temporal_layer(
        self, corpus, pretrained, tmp_path, capsys
    ):
        from vidtext.data import align, load_corpus_vocab, read_corpus

        header, raws = read_corpus(corpus)
        clip = align(raws[1], load_corpus_vocab(corpus, header))
        config = ModelConfig.from_dict(load_checkpoint(pretrained)[1]["config"])
        out = tmp_path / "attn"
        rc = main([
            "inspect-attention", "--checkpoint", str(pretrained),
            "--corpus", str(corpus), "--clip-id", clip.clip_id, "--out", str(out),
        ])
        assert rc == EXIT_OK
        n_files = (config.cross_heads * config.cross_layers * len(clip.sentences)
                   + config.temporal_heads * config.temporal_layers)
        assert len(list(out.iterdir())) == n_files
        assert capsys.readouterr().out == f"wrote {n_files} attention grids to {out}\n"
        temporal = sorted(out.glob("temporal_layer*_head*.txt"))
        assert len(temporal) == config.temporal_heads * config.temporal_layers
        for path in temporal:
            assert np.loadtxt(path).shape == (clip.n_frames, clip.n_frames)


def _unwritable_output_argv(command, corpus, pretrained, tmp_path):
    """``command``'s argv whose output path cannot be written: an existing
    file for an output directory, a directory for an output file."""
    tasks = write_toy_tasks(corpus, tmp_path)
    a_file, a_dir = tmp_path / "a-file", tmp_path / "a-dir"
    a_file.write_text("")
    a_dir.mkdir()
    argv = {
        "gen-data": ["gen-data", "--out", str(a_dir), "--clips", "2", "--seconds", "9"],
        "pretrain": ["pretrain", "--corpus", str(corpus), "--out-dir", str(a_file),
                     "--steps", "1", *SMALL_MODEL],
        "finetune": ["finetune", "--task", "nli", "--data", str(tasks["nli"]),
                     "--corpus", str(corpus), "--from-scratch",
                     "--out-dir", str(a_file), "--steps", "1"],
        "eval": ["eval", "--task", "retrieval", "--data", str(tasks["retrieval"]),
                 "--corpus", str(corpus), "--checkpoint", str(pretrained), "--out", str(a_dir)],
        "inspect-attention": ["inspect-attention", "--checkpoint", str(pretrained),
                              "--corpus", str(corpus), "--clip-id", "clip0000",
                              "--out", str(a_file)],
    }[command]
    return argv, a_dir if command in ("gen-data", "eval") else a_file


@pytest.mark.parametrize("command", ["gen-data", "pretrain", "finetune", "eval", "inspect-attention"])
def test_an_output_path_that_cannot_be_written_exits_one(
    corpus, pretrained, tmp_path, capsys, command
):
    argv, path = _unwritable_output_argv(command, corpus, pretrained, tmp_path)
    capsys.readouterr()
    assert main(argv) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write {path}: ") and err.count("\n") == 1


@pytest.mark.parametrize("command", ["pretrain", "finetune", "eval", "eval-nested", "inspect-attention"])
def test_an_unwritable_output_path_exits_one_before_any_input_is_read(tmp_path, capsys, command):
    missing = str(tmp_path / "missing")
    a_file, a_dir = tmp_path / "a-file", tmp_path / "a-dir"
    a_file.write_text("")
    a_dir.mkdir()
    inputs = ["--corpus", missing, "--checkpoint", missing]
    argv, path = {
        "pretrain": (["pretrain", "--corpus", missing, "--out-dir", str(a_file)], a_file),
        "finetune": (["finetune", "--task", "nli", "--data", missing, "--corpus", missing,
                      "--from-scratch", "--out-dir", str(a_file)], a_file),
        "eval": (["eval", "--task", "qa", "--data", missing, *inputs, "--out", str(a_dir)], a_dir),
        "eval-nested": (["eval", "--task", "qa", "--data", missing, *inputs,
                         "--out", str(a_file / "m.json")], a_file / "m.json"),
        "inspect-attention": (["inspect-attention", *inputs, "--clip-id", "clip0000",
                               "--out", str(a_file)], a_file),
    }[command]
    assert main(argv) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write {path}: ") and err.count("\n") == 1


@pytest.fixture(scope="module")
def misfit_corpora(tmp_path_factory):
    """The ``corpus`` fixture's corpus with 16-dim frame features, and with a
    40-token vocabulary."""
    root = tmp_path_factory.mktemp("misfit")
    paths = {}
    for case, flags in (("feature_dim", ["--feature-dim", "16"]), ("vocab", ["--vocab-size", "40"])):
        paths[case] = root / f"{case}.jsonl"
        rc = main([
            "gen-data", "--out", str(paths[case]), "--clips", "4", "--seconds", "21",
            "--fps", "0.6667", "--feature-dim", "8", "--vocab-size", "30", "--seed", "1", *flags,
        ])
        assert rc == EXIT_OK
    return paths


class TestCorpusMustFitTheCheckpoint:
    """eval, inspect-attention and finetune --init refuse a corpus whose frame
    feature width or vocabulary is not the checkpoint's, and a checkpoint
    whose vocab_tokens do not fit its own vocab_size: exit 2, one error line
    naming both values, nothing written."""

    @staticmethod
    def _argv(command, checkpoint, corpus, tasks, out):
        if command == "eval":
            return ["eval", "--task", "retrieval", "--data", str(tasks["retrieval"]),
                    "--corpus", str(corpus), "--checkpoint", str(checkpoint),
                    "--out", str(out / "report.json")]
        if command == "inspect-attention":
            return ["inspect-attention", "--checkpoint", str(checkpoint), "--corpus", str(corpus),
                    "--clip-id", "clip0000", "--out", str(out / "attn")]
        return ["finetune", "--task", "caption", "--data", str(tasks["caption"]),
                "--corpus", str(corpus), "--init", str(checkpoint),
                "--out-dir", str(out / "ft"), "--steps", "1"]

    @pytest.mark.parametrize("case, named", [
        ("feature_dim", ["feature_dim 16", "frame_feature_dim 8"]),
        ("vocab", ["40 tokens", "30 tokens"]),
        ("checkpoint", ["31 vocab_tokens", "vocab_size 30"]),
    ])
    @pytest.mark.parametrize("command", ["eval", "inspect-attention", "finetune"])
    def test_exits_two_naming_both_values(
        self, corpus, pretrained, misfit_corpora, tmp_path, capsys, command, case, named
    ):
        checkpoint = pretrained
        if case == "checkpoint":
            tokens = load_checkpoint(pretrained)[1]["vocab_tokens"]
            checkpoint = _resave_with_meta(
                pretrained, tmp_path / "bad.ckpt", "vocab_tokens", tokens + ["w_extra"]
            )
        data = corpus if case == "checkpoint" else misfit_corpora[case]
        tasks = write_toy_tasks(data, tmp_path)
        out = tmp_path / "out"
        out.mkdir()
        capsys.readouterr()
        rc = main(self._argv(command, checkpoint, data, tasks, out))
        assert rc == EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert all(value in err for value in named), err
        assert list(out.iterdir()) == []


# (command, flags, exit code): each flag value is outside its range
_OUT_OF_RANGE = [
    ("gen-data", ["--topics", "0"], EXIT_USAGE),
    ("gen-data", ["--seconds", "1e400"], EXIT_USAGE),
    ("gen-data", ["--seed", "-1"], EXIT_USAGE),
    ("gen-data", ["--clips", "0"], EXIT_USAGE),
    ("pretrain", ["--seed", "-1"], EXIT_USAGE),
    ("pretrain", ["--cross-heads", "0"], EXIT_USAGE),
    ("pretrain", ["--d", "0"], EXIT_USAGE),
    ("pretrain", ["--d", "-4"], EXIT_USAGE),
    ("pretrain", ["--ffn-multiplier", "0"], EXIT_USAGE),
    ("pretrain", ["--max-tokens", "0"], EXIT_USAGE),
    ("pretrain", ["--cross-layers", "0"], EXIT_USAGE),
    ("pretrain", ["--temporal-layers", "-1"], EXIT_USAGE),
    ("pretrain", ["--checkpoint-every", "-1"], EXIT_USAGE),
    ("pretrain", "featureless corpus", EXIT_DATA),
    ("pretrain", ["--tasks", "vsm", "--batch-size", "1"], EXIT_USAGE),
    ("pretrain", ["--tasks", "vsm", "--batch-size", "3"], EXIT_USAGE),  # 4 clips: a 1-clip batch
    ("finetune qa", ["--seed", "-1"], EXIT_USAGE),
    ("finetune qa", ["--batch-size", "0"], EXIT_USAGE),
    ("finetune nli", ["--batch-size", "0"], EXIT_USAGE),
    ("finetune caption", ["--batch-size", "0"], EXIT_USAGE),
    ("finetune retrieval", ["--batch-size", "0"], EXIT_USAGE),
]


class TestMalformedOptionValues:
    """A malformed option value is a usage error (exit 1) naming the key,
    never a traceback."""

    @pytest.mark.parametrize("text, key", [
        ("lr = abc\n", "lr"), ("steps = [1]\n", "steps"), ("lr = " + "9" * 400 + "\n", "lr"),
    ])
    def test_config_value_of_the_wrong_type(self, corpus, tmp_path, capsys, text, key):
        cfg = tmp_path / "opts.cfg"
        cfg.write_text(text)
        rc = main([
            "pretrain", "--corpus", str(corpus), "--out-dir", str(tmp_path / "x"),
            "--config", str(cfg),
        ])
        assert rc == EXIT_USAGE
        assert f"config key {key!r}" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, value", [
        ("--nms", "abc"), ("--k", "a,b"), ("--nms", "nan"), ("--nms", "2"), ("--tiou", "nan"),
        ("--tiou", "-3"), ("--tiou", "2"), ("--spans-per-clip", "-1"), ("--spans-per-clip", "0"),
        ("--k", ","), ("--k", ""),
    ])
    def test_eval_flag_value(self, corpus, pretrained, tmp_path, capsys, flag, value):
        tasks = write_toy_tasks(corpus, tmp_path)
        rc = main([
            "eval", "--task", "retrieval", "--data", str(tasks["retrieval"]),
            "--corpus", str(corpus), "--checkpoint", str(pretrained), flag, value,
        ])
        assert rc == EXIT_USAGE
        assert f"{flag} must be" in capsys.readouterr().err

    @pytest.mark.parametrize("span", ["[5]", "[1, 2, 3]", "[NaN, 5]"])
    def test_eval_task_file_with_a_malformed_span_exits_two(
        self, corpus, pretrained, tmp_path, capsys, span
    ):
        tasks = write_toy_tasks(corpus, tmp_path)
        lines = tasks["retrieval"].read_text().splitlines()
        record = json.loads(lines[1])
        lines[1] = json.dumps(record).replace(json.dumps(record["span"]), span)
        tasks["retrieval"].write_text("\n".join(lines) + "\n")
        rc = main([
            "eval", "--task", "retrieval", "--data", str(tasks["retrieval"]),
            "--corpus", str(corpus), "--checkpoint", str(pretrained),
        ])
        assert rc == EXIT_DATA
        assert "retrieval.jsonl:2 does not match schema" in capsys.readouterr().err

    def test_nan_learning_rate_exits_one(self, corpus, tmp_path, capsys):
        out = tmp_path / "x"
        rc = main([
            "pretrain", "--corpus", str(corpus), "--out-dir", str(out),
            "--steps", "3", "--lr", "nan", *SMALL_MODEL,
        ])
        assert rc == EXIT_USAGE
        assert "learning rate (lr) must be positive and finite, got nan" in capsys.readouterr().err
        assert not out.exists()

    def test_nan_margin_in_a_config_file_exits_one(self, corpus, tmp_path, capsys):
        cfg = tmp_path / "opts.cfg"
        cfg.write_text("margin = NaN\n")  # json reads NaN as a float
        out = tmp_path / "x"
        rc = main([
            "pretrain", "--corpus", str(corpus), "--out-dir", str(out),
            "--config", str(cfg), "--steps", "3", *SMALL_MODEL,
        ])
        assert rc == EXIT_USAGE
        assert "margin must be nonnegative and finite, got nan" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flags, shown", [
        (["--lambda", "nan"], "nan"), (["--lambda", "inf"], "inf"), (["--lambda", "-1"], "-1.0"),
        ("qa_lambda = Infinity", "inf"),
    ])
    def test_qa_lambda_outside_its_range_exits_one(self, corpus, tmp_path, capsys, flags, shown):
        if isinstance(flags, str):
            cfg = tmp_path / "opts.cfg"
            cfg.write_text(flags + "\n")
            flags = ["--config", str(cfg)]
        out = tmp_path / "x"
        rc = main([
            "finetune", "--task", "qa", "--data", str(write_toy_tasks(corpus, tmp_path)["qa"]),
            "--corpus", str(corpus), "--out-dir", str(out), "--from-scratch", "--steps", "1",
            *flags,
        ])
        err = capsys.readouterr().err
        assert rc == EXIT_USAGE
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert f"(qa_lambda, --lambda) must be nonnegative and finite, got {shown}" in err
        assert not out.exists()

    def test_negative_pretrain_steps_exits_one(self, corpus, tmp_path, capsys):
        out = tmp_path / "x"
        rc = main([
            "pretrain", "--corpus", str(corpus), "--out-dir", str(out), "--steps", "-2",
            *SMALL_MODEL,
        ])
        assert rc == EXIT_USAGE
        assert "steps must be nonnegative, got -2" in capsys.readouterr().err
        assert not out.exists()

    def test_negative_finetune_steps_exits_one(self, corpus, tmp_path, capsys):
        tasks = write_toy_tasks(corpus, tmp_path)
        out = tmp_path / "x"
        rc = main([
            "finetune", "--task", "nli", "--data", str(tasks["nli"]), "--corpus", str(corpus),
            "--out-dir", str(out), "--from-scratch", "--steps", "-2",
        ])
        assert rc == EXIT_USAGE
        assert "steps must be nonnegative, got -2" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command, flags, code", _OUT_OF_RANGE, ids=[
        f"{c} {f if isinstance(f, str) else ' '.join(f)}" for c, f, _ in _OUT_OF_RANGE
    ])
    def test_out_of_range_value_exits_before_any_work(
        self, corpus, tmp_path, capsys, command, flags, code
    ):
        out = tmp_path / "out"
        if flags == "featureless corpus":  # as `gen-data --feature-dim 0` used to write it
            lines = corpus.read_text().splitlines()
            head = {**json.loads(lines[0]), "feature_dim": 0}
            clips = [json.loads(line) for line in lines[1:]]
            for clip in clips:
                for frame in clip["frames"]:
                    frame["feat"] = []
            shutil.copy(corpus.parent / head["vocab_path"], tmp_path / head["vocab_path"])
            corpus = tmp_path / "corpus.jsonl"
            corpus.write_text("".join(json.dumps(r) + "\n" for r in [head, *clips]))
            flags = []
        if command == "gen-data":
            argv = ["gen-data", "--out", str(out / "c.jsonl"), *flags]
        elif command == "pretrain":
            argv = [
                "pretrain", "--corpus", str(corpus), "--out-dir", str(out), "--steps", "1",
                *SMALL_MODEL, *flags,
            ]
        else:
            task = command.split()[1]
            argv = [
                "finetune", "--task", task, "--data", str(write_toy_tasks(corpus, tmp_path)[task]),
                "--corpus", str(corpus), "--out-dir", str(out), "--from-scratch", "--steps", "1",
                *flags,
            ]
        assert main(argv) == code
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not out.exists()

    def test_eval_query_that_tokenizes_to_nothing_exits_two(
        self, corpus, pretrained, tmp_path, capsys, monkeypatch
    ):
        from vidtext.downstream import read_task_file, write_task_file
        from vidtext.encoder import HierarchicalEncoder

        examples = read_task_file(write_toy_tasks(corpus, tmp_path)["retrieval"], "retrieval")
        examples[1].query = "!!!"
        path = tmp_path / "empty-query.jsonl"
        write_task_file(path, "retrieval", examples)
        encoded = []
        monkeypatch.setattr(HierarchicalEncoder, "encode_clip", lambda self, clip: encoded.append(clip))
        rc = main([
            "eval", "--task", "retrieval", "--data", str(path),
            "--corpus", str(corpus), "--checkpoint", str(pretrained),
        ])
        assert rc == EXIT_DATA
        assert f"task file {path}: query '!!!' tokenizes to nothing" in capsys.readouterr().err
        assert encoded == []  # refused before any clip is encoded

    def test_eval_unknown_clip_exits_two(self, corpus, pretrained, tmp_path, capsys):
        from vidtext.downstream import RetrievalExample, write_task_file

        path = tmp_path / "unknown.jsonl"
        write_task_file(path, "retrieval", [RetrievalExample("nope", "w001 w002", (0.0, 1.5))])
        rc = main([
            "eval", "--task", "retrieval", "--data", str(path),
            "--corpus", str(corpus), "--checkpoint", str(pretrained),
        ])
        assert rc == EXIT_DATA
        assert "retrieval example references unknown clip 'nope'" in capsys.readouterr().err


DEEP = "[" * 100_000  # nested past json's recursion limit


def _edit_line(index, key=None, raw=DEEP):
    """An edit of a JSON-lines file: line ``index`` becomes ``raw``, or with
    a ``key`` only that field's value does (a tuple ``key`` is a path into
    the record)."""
    def edit(data: bytes) -> bytes:
        lines = data.decode().splitlines()
        if key is None:
            lines[index] = raw
        else:
            record = json.loads(lines[index])
            *outer, last = key if isinstance(key, tuple) else (key,)
            field = record
            for k in outer:
                field = field[k]
            field[last] = "@@"
            lines[index] = json.dumps(record).replace('"@@"', raw)
        return ("\n".join(lines) + "\n").encode()
    return edit


def _not_utf8(data: bytes) -> bytes:
    return data[:20] + b"\xff\xfe" + data[20:]


def _deep_checkpoint_header(data: bytes) -> bytes:
    return data[:8] + struct.pack("<Q", len(DEEP)) + DEEP.encode()


@pytest.mark.parametrize("task, edit", [("mlm", "no token"), ("vsm", "no token"), ("mnce", "one frame")])
def test_a_clip_that_cannot_serve_a_task_exits_two_before_writing(
    corpus, tmp_path, capsys, task, edit
):
    for path in corpus.parent.iterdir():  # the corpus and its vocab file
        shutil.copy(path, tmp_path / path.name)
    copy = tmp_path / corpus.name
    lines = copy.read_text().splitlines(keepends=True)
    record = json.loads(lines[2])
    if edit == "one frame":
        record["frames"] = record["frames"][:1]
    else:
        record["subs"] = [{**sub, "text": "..."} for sub in record["subs"]]
    lines[2] = json.dumps(record) + "\n"
    copy.write_text("".join(lines))
    out = tmp_path / "run"
    rc = main([
        "pretrain", "--corpus", str(copy), "--out-dir", str(out), "--tasks", f"fom,{task}",
        "--steps", "1", *SMALL_MODEL,
    ])
    err = capsys.readouterr().err
    assert rc == EXIT_DATA
    assert err.startswith(f"error: clip {record['id']!r} cannot serve task {task}: ")
    assert err.count("\n") == 1
    assert not out.exists()


class TestMalformedInputFiles:
    """A malformed corpus, vocab, task file or checkpoint exits 2 with one
    `error:` line that names the file, never a traceback."""

    @pytest.mark.parametrize("target, edit, named", [
        ("corpus", _edit_line(0), "corpus.jsonl"),
        ("corpus", _edit_line(2), "corpus.jsonl"),
        ("corpus", _edit_line(0, "feature_dim", "Infinity"), "corpus.jsonl"),
        ("corpus", _edit_line(0, "feature_dim", "1e400"), "corpus.jsonl"),
        ("corpus", _not_utf8, "corpus.jsonl"),
        ("corpus", _edit_line(2, ("subs", 0, "t0"), "NaN"), "corpus.jsonl"),
        ("corpus", _edit_line(1, ("frames", 0, "t1"), "Infinity"), "corpus.jsonl"),
        ("corpus", _edit_line(3, ("frames", 0, "t1"), "-1.0"), "corpus.jsonl"),
        ("corpus", _edit_line(4, ("subs", 0, "t1"), "-1.0"), "corpus.jsonl"),
        ("corpus", _edit_line(1, ("frames", 0, "t0"), '"0.0"'), "corpus.jsonl"),
        ("corpus", _edit_line(2, ("subs", 1, "t1"), "null"), "corpus.jsonl"),
        ("corpus", _edit_line(3, "id", "7"), "corpus.jsonl"),
        ("corpus", _edit_line(1, ("frames", 0, "t0"), "true"), "corpus.jsonl:2"),
        ("corpus", _edit_line(2, ("frames", 1, "feat", 0), "false"), "corpus.jsonl:3"),
        ("corpus", _edit_line(3, ("subs", 0, "t0"), "false"), "corpus.jsonl:4"),
        ("corpus", _edit_line(2, ("subs", 1, "text"), "12"), "corpus.jsonl:3"),
        ("corpus", _edit_line(4, ("subs", 0, "text"), '["w001"]'), "corpus.jsonl:5"),
        ("corpus", _edit_line(0, "vocab_path", '"missing.vocab.txt"'), "missing.vocab.txt"),
        ("vocab", _not_utf8, "corpus.vocab.txt"),
        ("retrieval", _edit_line(1), "retrieval.jsonl"),
        ("retrieval", _not_utf8, "retrieval.jsonl"),
        ("qa", _edit_line(0, "label", "Infinity"), "qa.jsonl"),
        ("nli", _edit_line(0, "label", "1e400"), "nli.jsonl"),
        ("nli", _edit_line(1, "label", "7"), "nli.jsonl:2"),
        ("nli", _edit_line(0, "label", "true"), "nli.jsonl:1"),
        ("qa", _edit_line(1, "answers", '"yes"'), "qa.jsonl:2"),
        ("qa", _edit_line(0, "label", "1.7"), "qa.jsonl:1"),
        ("qa", _edit_line(2, "label", "true"), "qa.jsonl:3"),
        ("qa", _edit_line(0, "span", '["1", "2"]'), "qa.jsonl:1"),
        ("retrieval", _edit_line(2, "span", '["1", "2"]'), "retrieval.jsonl:3"),
        ("caption", _edit_line(0, "moment", "[true, 2]"), "caption.jsonl:1"),
        ("retrieval", _edit_line(0, "query", "12"), "retrieval.jsonl:1"),
        ("qa", _edit_line(1, "q", '["w001"]'), "qa.jsonl:2"),
        ("qa", _edit_line(3, ("answers", 1), "7"), "qa.jsonl:4"),
        ("nli", _edit_line(2, "hypothesis", "null"), "nli.jsonl:3"),
        ("caption", _edit_line(1, "caption", "3"), "caption.jsonl:2"),
        ("retrieval", _edit_line(3, "clip_id", "7"), "retrieval.jsonl:4"),
        ("checkpoint", _deep_checkpoint_header, "final.ckpt"),
    ], ids=[
        "corpus-deep-header", "corpus-deep-record", "corpus-infinite-feature-dim",
        "corpus-1e400-feature-dim", "corpus-not-utf8", "corpus-nan-subtitle-t0",
        "corpus-infinite-frame-t1", "corpus-inverted-frame", "corpus-inverted-subtitle",
        "corpus-string-frame-t0", "corpus-null-subtitle-t1", "corpus-numeric-id",
        "corpus-true-frame-t0", "corpus-false-feature", "corpus-false-subtitle-t0",
        "corpus-numeric-subtitle-text", "corpus-list-subtitle-text",
        "corpus-missing-vocab", "vocab-not-utf8",
        "task-deep-record", "task-not-utf8", "qa-infinite-label", "nli-1e400-label",
        "nli-label-7", "nli-true-label", "qa-string-answers", "qa-fractional-label",
        "qa-true-label", "qa-string-span", "retrieval-string-span", "caption-true-moment",
        "retrieval-numeric-query", "qa-list-question", "qa-numeric-answer", "nli-null-hypothesis",
        "caption-numeric-caption", "retrieval-numeric-clip-id",
        "checkpoint-deep-header",
    ])
    def test_exits_two_naming_the_file(
        self, corpus, pretrained, tmp_path, capsys, target, edit, named
    ):
        for path in corpus.parent.iterdir():  # the corpus and its vocab file
            shutil.copy(path, tmp_path / path.name)
        corpus = tmp_path / corpus.name
        checkpoint = tmp_path / pretrained.name
        shutil.copy(pretrained, checkpoint)
        tasks = write_toy_tasks(corpus, tmp_path)
        files = {"corpus": corpus, "vocab": tmp_path / "corpus.vocab.txt", "checkpoint": checkpoint}
        path = {**files, **tasks}[target]
        path.write_bytes(edit(path.read_bytes()))
        task = target if target in tasks else "retrieval"
        rc = main([
            "eval", "--task", task, "--data", str(tasks[task]),
            "--corpus", str(corpus), "--checkpoint", str(checkpoint),
        ])
        err = capsys.readouterr().err.splitlines()
        assert rc == EXIT_DATA
        assert len(err) == 1 and err[0].startswith("error: ") and named in err[0], err


    def test_finetune_on_an_nli_label_out_of_range_exits_two(self, corpus, tmp_path, capsys):
        tasks = write_toy_tasks(corpus, tmp_path)
        tasks["nli"].write_bytes(_edit_line(1, "label", "7")(tasks["nli"].read_bytes()))
        out = tmp_path / "ft"
        rc = main([
            "finetune", "--task", "nli", "--data", str(tasks["nli"]), "--corpus", str(corpus),
            "--out-dir", str(out), "--from-scratch", "--steps", "2",
        ])
        err = capsys.readouterr().err.splitlines()
        assert rc == EXIT_DATA
        assert len(err) == 1 and "nli.jsonl:2" in err[0] and "nli label 7" in err[0], err
        assert not out.exists()

    @pytest.mark.parametrize("task, edit, message", [
        ("retrieval", _edit_line(1, "span", "[500.0, 600.0]"), "overlaps no frame"),
        ("qa", _edit_line(1, "span", "[500.0, 600.0]"), "overlaps no frame"),
        ("caption", _edit_line(1, "moment", "[500.0, 600.0]"), "overlaps no frame"),
        ("qa", _edit_line(0, "answers", '["w000"]'), "qa.jsonl:1"),
    ], ids=["retrieval-span", "qa-span", "caption-moment", "qa-one-answer"])
    def test_finetune_refuses_a_bad_record_before_writing(
        self, corpus, tmp_path, capsys, task, edit, message
    ):
        tasks = write_toy_tasks(corpus, tmp_path)
        tasks[task].write_bytes(edit(tasks[task].read_bytes()))
        out = tmp_path / "ft"
        rc = main([
            "finetune", "--task", task, "--data", str(tasks[task]), "--corpus", str(corpus),
            "--out-dir", str(out), "--from-scratch", "--steps", "2",
        ])
        err = capsys.readouterr().err.splitlines()
        assert rc == EXIT_DATA
        assert len(err) == 1 and message in err[0], err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["finetune", "eval"])
    @pytest.mark.parametrize("task, field", [("retrieval", "span"), ("qa", "span"), ("caption", "moment")])
    def test_an_interval_outside_its_clip_names_the_line_before_any_encoding(
        self, corpus, pretrained, tmp_path, capsys, monkeypatch, command, task, field
    ):
        from vidtext.encoder import HierarchicalEncoder

        tasks = write_toy_tasks(corpus, tmp_path)
        last = len(tasks[task].read_text().splitlines())  # the last record: every other is fine
        tasks[task].write_bytes(_edit_line(last - 1, field, "[500.0, 600.0]")(tasks[task].read_bytes()))
        encoded = []
        for name in ("encode_clip", "encode_clips"):
            monkeypatch.setattr(HierarchicalEncoder, name, lambda self, *a, **kw: encoded.append(a))
        out = tmp_path / "ft"
        args = ["--task", task, "--data", str(tasks[task]), "--corpus", str(corpus)]
        if command == "finetune":
            args += ["--out-dir", str(out), "--from-scratch", "--steps", "1"]
        else:  # the task file is read before the checkpoint's kind is checked
            args += ["--checkpoint", str(pretrained)]
        rc = main([command, *args])
        err = capsys.readouterr().err.splitlines()
        assert rc == EXIT_DATA
        assert len(err) == 1 and err[0].startswith("error: "), err
        assert f"{task}.jsonl:{last}" in err[0] and "overlaps no frame" in err[0], err
        assert encoded == [] and not out.exists()

    def test_eval_of_a_caption_moment_outside_its_clip_exits_two(self, corpus, tmp_path, capsys):
        tasks = write_toy_tasks(corpus, tmp_path)
        out = tmp_path / "ft"
        args = ["--task", "caption", "--data", str(tasks["caption"]), "--corpus", str(corpus)]
        rc = main(["finetune", *args, "--out-dir", str(out), "--from-scratch", "--steps", "1"])
        assert rc == EXIT_OK
        tasks["caption"].write_bytes(
            _edit_line(1, "moment", "[500.0, 600.0]")(tasks["caption"].read_bytes())
        )
        capsys.readouterr()
        rc = main(["eval", *args, "--checkpoint", str(out / "final.ckpt")])
        err = capsys.readouterr().err.splitlines()
        assert rc == EXIT_DATA
        assert len(err) == 1 and "overlaps no frame" in err[0], err

    def test_duplicate_clip_id_exits_two_naming_both_lines(self, corpus, pretrained, tmp_path, capsys):
        for path in corpus.parent.iterdir():
            shutil.copy(path, tmp_path / path.name)
        tasks = write_toy_tasks(corpus, tmp_path)
        corpus = tmp_path / corpus.name
        lines = corpus.read_text().splitlines()
        clip_id = json.loads(lines[1])["id"]
        record = json.loads(lines[3])
        record["id"] = clip_id
        lines[3] = json.dumps(record)
        corpus.write_text("\n".join(lines) + "\n")
        rc = main([
            "eval", "--task", "retrieval", "--data", str(tasks["retrieval"]),
            "--corpus", str(corpus), "--checkpoint", str(pretrained),
        ])
        err = capsys.readouterr().err.splitlines()
        assert rc == EXIT_DATA
        assert len(err) == 1 and f"clip id {clip_id!r} twice, at lines 2 and 4" in err[0], err


_TEXT = st.characters(blacklist_categories=("Cs",))
_CONFIG_VALUES = st.one_of(
    st.text(_TEXT, max_size=12),
    st.integers().map(str),
    st.floats().map(repr),
    st.sampled_from(["true", "null", "[1]", "{}", '"mlm,fom"', "NaN", "-Infinity", "1e400", "2.0"]),
    st.just("[" * 5000 + "]" * 5000),  # nested past json's recursion limit
)
_TYPED_VALUES = {  # values that parse to each default's type
    int: st.integers().map(str),
    float: st.one_of(st.integers().map(str), st.floats().map(repr)),
    str: st.text(_TEXT, max_size=12).map(json.dumps),
}
_KNOWN_KEY_LINES = st.sampled_from(sorted(PRETRAIN_DEFAULTS)).flatmap(
    lambda key: st.one_of(_TYPED_VALUES[type(PRETRAIN_DEFAULTS[key])], _CONFIG_VALUES).map(
        f"{key} = {{}}".format
    )
)
_OTHER_LINES = st.one_of(
    st.builds("{}={}".format, st.text(_TEXT, max_size=8), _CONFIG_VALUES),
    st.text(_TEXT, max_size=20),
)
_CONFIG_TEXTS = st.builds(
    lambda known, other: "\n".join(known + other),
    st.lists(_KNOWN_KEY_LINES, max_size=5),
    st.lists(_OTHER_LINES, max_size=1),
)


@given(text=_CONFIG_TEXTS)
def test_any_config_text_gives_typed_options_or_a_documented_error(tmp_path_factory, text):
    path = tmp_path_factory.getbasetemp() / "property.cfg"
    path.write_text(text, encoding="utf-8")
    try:
        eff = _effective_options(PRETRAIN_DEFAULTS, str(path), {})
    except (ConfigError, DataError):
        return
    for key, default in PRETRAIN_DEFAULTS.items():
        expected = (int, float) if isinstance(default, float) else type(default)
        assert isinstance(eff[key], expected) and not isinstance(eff[key], bool), key


# -- byte-level mutations of valid input files --


def _mutate(data: bytes, kind: str, at: int, chunk: bytes, within: int | None = None) -> bytes:
    """One mutation at ``at`` modulo the first ``within`` bytes (all by default)."""
    at %= (len(data) if within is None else within) + 1
    if kind == "truncate":
        return data[:at]
    if kind == "overwrite":
        return data[:at] + chunk + data[at + len(chunk):]
    return data[:at] + chunk + data[at:]


_MUTATIONS = {
    "kind": st.sampled_from(["truncate", "overwrite", "insert"]),
    "at": st.integers(min_value=0),
    "chunk": st.one_of(
        st.binary(min_size=1, max_size=4),
        st.sampled_from([b"[" * 5000, b"Infinity", b"1e400", b"NaN", b"\xff", b'"', b"null", b"-1"]),
    ),
}


def _mutated_copy(tmp_path_factory, source: Path, kind, at, chunk, within=None) -> Path:
    path = tmp_path_factory.getbasetemp() / "mutated" / source.name
    path.parent.mkdir(exist_ok=True)
    path.write_bytes(_mutate(source.read_bytes(), kind, at, chunk, within))
    return path


@given(**_MUTATIONS)
def test_mutated_corpus_reads_or_is_a_data_error(corpus, tmp_path_factory, kind, at, chunk):
    from vidtext.data import align, load_corpus_vocab, read_corpus

    path = _mutated_copy(tmp_path_factory, corpus, kind, at, chunk)
    shutil.copy(corpus.parent / "corpus.vocab.txt", path.parent / "corpus.vocab.txt")
    try:
        header, raws = read_corpus(path)
        vocab = load_corpus_vocab(path, header)
        [align(raw, vocab) for raw in raws]
    except (ConfigError, DataError):
        pass


@given(task=st.sampled_from(["retrieval", "qa", "nli", "caption"]), **_MUTATIONS)
def test_mutated_task_file_reads_or_is_a_data_error(
    corpus, tmp_path_factory, task, kind, at, chunk
):
    from vidtext.downstream import read_task_file

    root = tmp_path_factory.getbasetemp() / "valid-tasks"
    root.mkdir(exist_ok=True)
    source = write_toy_tasks(corpus, root)[task]
    path = _mutated_copy(tmp_path_factory, source, kind, at, chunk)
    try:
        read_task_file(path, task)
    except (ConfigError, DataError):
        pass


@given(**_MUTATIONS)
@example(kind="insert", at=16, chunk=b"[" * 5000)  # a header nested past the recursion limit
def test_mutated_checkpoint_loads_or_is_a_data_error(pretrained, tmp_path_factory, kind, at, chunk):
    # mutations land in the preamble and JSON header; the float payload after
    # them parses whatever its bytes are
    (header_len,) = struct.unpack("<Q", pretrained.read_bytes()[8:16])
    path = _mutated_copy(tmp_path_factory, pretrained, kind, at, chunk, within=16 + header_len)
    try:
        load_checkpoint(path)
    except (ConfigError, DataError):
        pass


_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=5,
)
_META_KEYS = [
    "model_kind", "config", "seed", "vocab_tokens", "step", "tasks", "batch_size", "lr",
    "weight_decay", "margin", "lambda_local", "lambda_global", "num_negatives", "corpus_sha256",
] + [f"config.{key}" for key in ModelConfig().to_dict()]


@settings(max_examples=40)
@given(key=st.sampled_from(_META_KEYS), value=_JSON_VALUES)
def test_any_meta_value_gives_a_documented_exit(corpus, pretrained, tmp_path_factory, key, value):
    root = tmp_path_factory.getbasetemp() / "odd-meta"
    root.mkdir(exist_ok=True)
    tasks = write_toy_tasks(corpus, root)
    ckpt = _resave_with_meta(pretrained, root / "odd.ckpt", key, value)
    common = ["--corpus", str(corpus)]
    for argv in (
        ["eval", "--task", "retrieval", "--data", str(tasks["retrieval"]), "--checkpoint", str(ckpt)],
        ["inspect-attention", "--checkpoint", str(ckpt), "--clip-id", "clip0000", "--out", str(root / "attn")],
        ["finetune", "--task", "nli", "--data", str(tasks["nli"]), "--init", str(ckpt),
         "--out-dir", str(root / "ft"), "--steps", "1"],
        ["pretrain", "--out-dir", str(root / "pt"), "--steps", "7", "--batch-size", "2",
         "--lr", "0.001", "--dropout", "0.0", *SMALL_MODEL, "--resume", str(ckpt)],
    ):
        assert main(argv + common) in (EXIT_OK, EXIT_USAGE, EXIT_DATA), argv[0]


# -- BLAS threads --

_BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@pytest.mark.parametrize("user_value, want", [(None, "1"), ("3", "3")])
def test_cli_runs_one_blas_thread_unless_the_user_set_one(user_value, want):
    env = {k: v for k, v in os.environ.items() if k not in _BLAS_VARS}
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(vidtext.__file__).parents[1])] + env.get("PYTHONPATH", "").split(os.pathsep)
    )
    if user_value is not None:
        env.update({k: user_value for k in _BLAS_VARS})
    code = (
        "import os, sys, vidtext; assert 'numpy' not in sys.modules; import vidtext.cli; "
        f"print(*(os.environ[k] for k in {_BLAS_VARS!r}))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True, timeout=60
    )
    assert out.stdout.split() == [want] * 3
