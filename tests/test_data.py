"""Corpus pipeline tests: tokenizer, alignment vs brute force, file formats."""

import hashlib
import json

import numpy as np
import pytest

from vidtext.data import (
    UNK_ID,
    Frame,
    RawClip,
    Subtitle,
    Vocab,
    align,
    epoch_order,
    load_corpus_vocab,
    read_corpus,
    synth_corpus,
    tokenize,
    write_corpus,
)
from vidtext.errors import ConfigError, DataError

from conftest import detokenize


def clip_of(frames, subs, feat_dim=2, clip_id="c"):
    rng = np.random.default_rng(0)
    return RawClip(
        clip_id,
        [Frame(t0, t1, rng.standard_normal(feat_dim)) for t0, t1 in frames],
        [Subtitle(t0, t1, text) for t0, t1, text in subs],
    )


class TestVocab:
    def test_specials_pinned_at_low_ids(self):
        v = Vocab.synthetic(20)
        assert v.tokens[0] == "[PAD]" and v.tokens[1] == "[MASK]"
        assert v.id_of("[UNK]") == UNK_ID
        assert v.size == 20

    def test_random_regular_id_never_special(self):
        v = Vocab.synthetic(12)
        rng = np.random.default_rng(0)
        ids = {v.random_regular_id(rng) for _ in range(500)}
        assert min(ids) >= v.num_specials

    def test_save_load_round_trip(self, tmp_path):
        v = Vocab.synthetic(17)
        v.save(tmp_path / "v.txt")
        again = Vocab.load(tmp_path / "v.txt")
        assert again.tokens == v.tokens

    def test_too_small_vocab_rejected(self):
        with pytest.raises(ConfigError):
            Vocab.synthetic(5)


class TestTokenize:
    def test_empty_string(self):
        assert tokenize("", Vocab.synthetic(10)) == []

    def test_case_folding_and_punctuation(self):
        v = Vocab(["hello", "there"])
        ids = tokenize("Hello, hello there!", v)
        assert ids == [v.id_of("hello"), v.id_of("hello"), v.id_of("there")]

    def test_oov_maps_to_unk(self):
        v = Vocab(["known"])
        assert tokenize("known unknown", v) == [v.id_of("known"), UNK_ID]

    def test_round_trip_for_vocab_only_text(self):
        v = Vocab.synthetic(40)
        rng = np.random.default_rng(1)
        ids = [int(rng.integers(v.num_specials, v.size)) for _ in range(12)]
        assert tokenize(detokenize(ids, v), v) == ids


class TestAlign:
    def test_max_tiou_wins(self, small_vocab):
        # frame [2,3): overlap/union vs s1 = 0.5/3.0, vs s2 = 1.0/3.0
        raw = clip_of(
            frames=[(2.0, 3.0)],
            subs=[(0.0, 2.5, "w000"), (2.0, 5.0, "w001")],
        )
        out = align(raw, small_vocab)
        survivors = [s for s in out.sentences if s.frame_indices]
        assert len(survivors) == 1
        assert "w001" in survivors[0].text
        assert survivors[0].frame_indices == [0]

    def test_single_sentence_owns_all_frames(self, small_vocab):
        raw = clip_of(
            frames=[(0.0, 1.0), (1.0, 2.0), (2.0, 3.0)],
            subs=[(0.0, 3.0, "w000 w001")],
        )
        out = align(raw, small_vocab)
        assert len(out.sentences) == 1
        assert out.sentences[0].frame_indices == [0, 1, 2]

    def test_tie_goes_to_earlier_sentence(self, small_vocab):
        raw = clip_of(
            frames=[(1.0, 3.0)],
            subs=[(0.0, 2.0, "w000"), (2.0, 4.0, "w001")],
        )
        out = align(raw, small_vocab)
        owner = next(s for s in out.sentences if s.frame_indices)
        assert owner.text.startswith("w000")

    def test_frameless_sentence_merges_into_preceding(self, small_vocab):
        raw = clip_of(
            frames=[(0.0, 1.0), (3.0, 4.0)],
            subs=[(0.0, 1.0, "w000"), (1.5, 2.5, "w001"), (3.0, 4.0, "w002")],
        )
        out = align(raw, small_vocab)
        assert [s.text for s in out.sentences] == ["w000 w001", "w002"]
        assert sorted(i for s in out.sentences for i in s.frame_indices) == [0, 1]

    def test_leading_frameless_sentence_merges_into_following(self, small_vocab):
        raw = clip_of(
            frames=[(2.0, 3.0)],
            subs=[(0.0, 1.0, "w000"), (2.0, 3.0, "w001")],
        )
        out = align(raw, small_vocab)
        assert len(out.sentences) == 1
        assert out.sentences[0].text == "w000 w001"

    def test_orphan_frame_attaches_to_nearest_sentence(self, small_vocab):
        raw = clip_of(
            frames=[(0.0, 1.0), (5.0, 6.0)],
            subs=[(0.0, 1.0, "w000"), (6.5, 7.0, "w001")],
        )
        out = align(raw, small_vocab)
        # frame 1 sits 4.0s from s0's end and 0.5s from s1's start
        assert out.sentences[1].frame_indices == [1]

    def test_empty_clip_rejected(self, small_vocab):
        with pytest.raises(DataError):
            align(clip_of(frames=[], subs=[(0.0, 1.0, "w000")]), small_vocab)
        with pytest.raises(DataError):
            align(clip_of(frames=[(0.0, 1.0)], subs=[]), small_vocab)

    def test_matches_exhaustive_oracle_on_random_clips(self, small_vocab):
        rng = np.random.default_rng(42)
        for _ in range(40):
            self._check_one_random_clip(rng, small_vocab)

    @staticmethod
    def _check_one_random_clip(rng, vocab):
        n_frames = int(rng.integers(1, 21))
        step = float(rng.uniform(0.5, 2.0))
        frames = [(i * step, (i + 1) * step) for i in range(n_frames)]
        n_sents = int(rng.integers(1, 6))
        total = n_frames * step
        subs = []
        for _ in range(n_sents):
            a, b = sorted(rng.uniform(-1.0, total + 1.0, size=2))
            subs.append((float(a), float(b) + 0.05, "w000"))
        subs.sort(key=lambda s: s[0])
        raw = clip_of(frames=frames, subs=subs)

        # brute-force owner: max tIoU over overlapping sentences, earlier on
        # ties; otherwise the sentence at minimal time gap
        expected = []
        for t0, t1 in frames:
            best, best_v = None, 0.0
            for j, (s0, s1, _) in enumerate(subs):
                inter = max(0.0, min(t1, s1) - max(t0, s0))
                if inter <= 0:
                    continue
                union = max(t1, s1) - min(t0, s0)
                v = inter / union
                if v > best_v:
                    best, best_v = j, v
            if best is None:
                gaps = [
                    (s0 - t1 if t1 <= s0 else (t0 - s1 if s1 <= t0 else 0.0))
                    for s0, s1, _ in subs
                ]
                best = int(np.argmin(gaps))
            expected.append(best)

        out = align(raw, vocab)
        got_groups = sorted(tuple(s.frame_indices) for s in out.sentences if s.frame_indices)
        exp_groups = sorted(
            tuple(i for i, o in enumerate(expected) if o == j)
            for j in range(len(subs))
            if any(o == j for o in expected)
        )
        assert got_groups == exp_groups
        flat = sorted(i for g in got_groups for i in g)
        assert flat == list(range(n_frames))  # conservation


class TestSynthCorpus:
    def test_frame_count_at_tv_rate(self, tmp_path):
        path, _ = synth_corpus(tmp_path / "c.jsonl", num_clips=3, fps=2 / 3, clip_seconds=60.0, seed=1)
        _, clips = read_corpus(path)
        assert all(len(c.frames) == 40 for c in clips)

    def test_same_seed_is_byte_identical(self, tmp_path):
        (tmp_path / "run1").mkdir()
        (tmp_path / "run2").mkdir()
        p1, _ = synth_corpus(tmp_path / "run1" / "c.jsonl", num_clips=2, seed=5)
        p2, _ = synth_corpus(tmp_path / "run2" / "c.jsonl", num_clips=2, seed=5)
        assert hashlib.sha256(p1.read_bytes()).hexdigest() == hashlib.sha256(p2.read_bytes()).hexdigest()

    def test_different_seed_differs(self, tmp_path):
        p1, _ = synth_corpus(tmp_path / "a.jsonl", num_clips=2, seed=5)
        p2, _ = synth_corpus(tmp_path / "b.jsonl", num_clips=2, seed=6)
        assert p1.read_bytes() != p2.read_bytes()

    def test_reparse_yields_structurally_equal_clips(self, tmp_path):
        path, _ = synth_corpus(tmp_path / "c.jsonl", num_clips=2, seed=2)
        header, clips = read_corpus(path)
        write_corpus(tmp_path / "again.jsonl", header, clips)
        assert (tmp_path / "again.jsonl").read_bytes() == path.read_bytes()
        header2, clips2 = read_corpus(tmp_path / "again.jsonl")
        for a, b in zip(clips, clips2):
            assert a.clip_id == b.clip_id
            assert len(a.frames) == len(b.frames)
            for fa, fb in zip(a.frames, b.frames):
                assert (fa.t0, fa.t1) == (fb.t0, fb.t1)
                np.testing.assert_array_equal(fa.feat, fb.feat)
            assert [(s.t0, s.t1, s.text) for s in a.subs] == [(s.t0, s.t1, s.text) for s in b.subs]

    def test_vocab_resolves_from_header(self, tmp_path):
        path, vocab = synth_corpus(tmp_path / "c.jsonl", num_clips=1, seed=3)
        header, _ = read_corpus(path)
        assert load_corpus_vocab(path, header).tokens == vocab.tokens

    def test_bad_header_rejected(self, tmp_path):
        p = tmp_path / "bad.jsonl"
        p.write_text('{"fps": 1.0}\n')
        with pytest.raises(DataError):
            read_corpus(p)

    @pytest.mark.parametrize("bad", ["NaN", "1e999", "-Infinity"])
    def test_non_finite_features_rejected(self, tmp_path, bad):
        path, _ = synth_corpus(tmp_path / "c.jsonl", num_clips=2, seed=3)
        lines = path.read_text().splitlines()
        rec = json.loads(lines[2])
        rec["frames"][1]["feat"][0] = "BAD"
        lines[2] = json.dumps(rec).replace('"BAD"', bad)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataError, match=repr(rec["id"])):
            read_corpus(path)

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(DataError):
            read_corpus(tmp_path / "nope.jsonl")

    def test_unplanted_corpus_parses_and_aligns(self, tmp_path, small_vocab):
        path, vocab = synth_corpus(
            tmp_path / "c.jsonl", num_clips=2, planted_structure=False, seed=4
        )
        header, clips = read_corpus(path)
        for raw in clips:
            aligned = align(raw, vocab)
            assert aligned.n_frames == len(raw.frames)


class TestBatching:
    def test_epoch_order_is_a_deterministic_partition(self):
        a = epoch_order(10, seed=3, epoch=0)
        b = epoch_order(10, seed=3, epoch=0)
        c = epoch_order(10, seed=3, epoch=1)
        np.testing.assert_array_equal(a, b)
        assert sorted(a.tolist()) == list(range(10))
        assert not np.array_equal(a, c)
