"""Corpus pipeline tests: tokenizer, alignment vs brute force, file formats."""

import hashlib
import json
import re

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from vidtext import data as data_module
from vidtext.data import (
    UNK_ID,
    CorpusHeader,
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

from conftest import detokenize, loop_align


def clip_of(frames, subs, feat_dim=2, clip_id="c"):
    rng = np.random.default_rng(0)
    return RawClip(
        clip_id,
        np.array(frames, dtype=np.float64).reshape(-1, 2),
        rng.standard_normal((len(frames), feat_dim)),
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


def assert_same_alignment(got, want):
    """Equal sentences (texts, token ids and frame groups) and bitwise-equal
    features and frame times."""
    assert got.clip_id == want.clip_id
    assert [(s.text, s.token_ids, s.frame_indices) for s in got.sentences] == [
        (s.text, s.token_ids, s.frame_indices) for s in want.sentences
    ]
    for name in ("frame_features", "frame_times"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype == np.float64 and a.shape == b.shape, name
        assert a.tobytes() == b.tobytes(), name


# seconds per grid step: dyadic steps give exact ties and touching ends,
# the others give the rounding of real frame rates
_STEPS = st.sampled_from([0.25, 0.5, 0.1, 1.0 / 3.0, 1.5])
_WORDS = st.lists(st.sampled_from(["w000", "w001", "w002", "zzz", ""]), max_size=3).map(" ".join)


@st.composite
def raw_clips(draw):
    """Sorted non-overlapping frames (zero-length ones and gaps allowed) and
    subtitles in any order: nested, overlapping, zero-length, outside every
    frame, or owning no frame."""
    step = draw(_STEPS)
    times, end = [], draw(st.integers(0, 4))
    for _ in range(draw(st.integers(1, 12))):
        t0 = end + draw(st.integers(0, 2))
        end = t0 + draw(st.integers(0, 4))
        times.append((t0 * step, end * step))
    starts_and_lengths = st.tuples(st.integers(-3, end + 3), st.integers(0, 8))
    subs = [
        Subtitle(a * step, (a + n) * step, draw(_WORDS))
        for a, n in draw(st.lists(starts_and_lengths, min_size=1, max_size=7))
    ]
    rng = np.random.default_rng(draw(st.integers(0, 3)))
    return RawClip("c", np.array(times), rng.standard_normal((len(times), 3)), subs)


VOCAB = Vocab.synthetic(30)


class TestAlignMatchesTheLoop:
    @given(raw=raw_clips())
    # tied tIoU
    @example(raw=clip_of([(1.0, 3.0)], [(0.0, 2.0, "w000"), (2.0, 4.0, "w001")]))
    # an inner sentence with no frame
    @example(raw=clip_of([(0.0, 1.0), (3.0, 4.0)], [(0.0, 1.0, "a"), (1.5, 2.5, "b"), (3.0, 4.0, "c")]))
    # two leading sentences with no frame, one of them zero-length and empty
    @example(raw=clip_of([(2.0, 3.0)], [(0.0, 1.0, "w000"), (0.5, 0.5, ""), (2.0, 3.0, "w001")]))
    # a zero-length frame inside a zero-length subtitle, nested in another
    @example(raw=clip_of([(1.0, 1.0), (1.0, 2.0)], [(1.0, 1.0, "w000"), (0.0, 5.0, "w001")]))
    # tied gaps
    @example(raw=clip_of([(0.0, 1.0), (5.0, 6.0)], [(3.0, 3.0, "w000"), (2.0, 4.0, "w001")]))
    def test_sentences_groups_and_frames_equal(self, raw):
        assert_same_alignment(align(raw, VOCAB), loop_align(raw, VOCAB))

    def test_the_clip_keeps_the_parsed_arrays(self):
        raw = clip_of([(0.0, 1.0), (1.0, 2.0)], [(0.0, 2.0, "w000")])
        out = align(raw, VOCAB)
        assert out.frame_features is raw.frame_features and out.frame_times is raw.frame_times

    def test_seed_corpus_equals_the_loop(self, tmp_path):
        path, vocab = synth_corpus(tmp_path / "c.jsonl", num_clips=12, seed=5)
        for raw in read_corpus(path)[1]:
            assert_same_alignment(align(raw, vocab), loop_align(raw, vocab))


_SECONDS = st.integers(0, 10**6).map(lambda k: k / 1000)  # three decimals, as written


@st.composite
def corpus_clips(draw):
    clips = []
    for c in range(draw(st.integers(0, 3))):
        n = draw(st.integers(0, 5))
        starts = sorted(draw(st.lists(_SECONDS, min_size=n, max_size=n)))
        times = [(t, t) for t in starts]  # zero-length frames are legal
        feats = draw(st.lists(
            st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=2, max_size=2),
            min_size=n, max_size=n,
        ))
        subs = [
            Subtitle(min(a, b), max(a, b), text)
            for a, b, text in draw(st.lists(st.tuples(_SECONDS, _SECONDS, st.text(max_size=6)), max_size=4))
        ]
        clips.append(RawClip(
            f"clip{c}", np.array(times).reshape(-1, 2), np.array(feats).reshape(-1, 2), subs
        ))
    return clips


class TestCorpusFiles:
    @given(clips=corpus_clips())
    def test_write_then_read_round_trips(self, tmp_path_factory, clips):
        root = tmp_path_factory.mktemp("round-trip")
        header = CorpusHeader(fps=1.5, feature_dim=2, vocab_path="v.txt")
        write_corpus(root / "a.jsonl", header, clips)
        header2, clips2 = read_corpus(root / "a.jsonl")
        assert header2 == header and len(clips2) == len(clips)
        for a, b in zip(clips, clips2):
            assert a.clip_id == b.clip_id and a.subs == b.subs
            for name in ("frame_times", "frame_features"):
                got = getattr(b, name)
                assert got.dtype == np.float64 and got.shape == getattr(a, name).shape
                np.testing.assert_array_equal(got, getattr(a, name))
        write_corpus(root / "b.jsonl", header2, clips2)
        assert (root / "b.jsonl").read_bytes() == (root / "a.jsonl").read_bytes()

    @staticmethod
    def _with(tmp_path, field, i, key, raw):
        """A synthetic corpus whose second clip has ``raw`` as the ``key``
        time of its ``field`` entry ``i``."""
        path, _ = synth_corpus(tmp_path / "c.jsonl", num_clips=2, seed=3)
        lines = path.read_text().splitlines()
        rec = json.loads(lines[2])
        rec[field][i][key] = "@@"
        lines[2] = json.dumps(rec).replace('"@@"', raw)
        path.write_text("\n".join(lines) + "\n")
        return path, rec["id"], rec[field][i]

    @pytest.mark.parametrize("field, key, raw", [
        ("subs", "t0", "NaN"),
        ("subs", "t1", "-Infinity"),
        ("frames", "t1", "Infinity"),
        ("frames", "t0", "1e999"),
        ("frames", "t0", "NaN"),
    ])
    def test_non_finite_times_rejected(self, tmp_path, field, key, raw):
        path, clip_id, _ = self._with(tmp_path, field, 1, key, raw)
        what = "frame" if field == "frames" else "subtitle"
        with pytest.raises(DataError, match=re.escape(f"clip {clip_id!r} in {path} has a non-finite {what} time")):
            read_corpus(path)

    @pytest.mark.parametrize("field", ["frames", "subs"])
    def test_interval_ending_before_it_starts_rejected(self, tmp_path, field):
        path, clip_id, _ = self._with(tmp_path, field, 0, "t1", "-0.5")
        what = "frame" if field == "frames" else "subtitle"
        message = f"clip {clip_id!r} in {path} has a {what} that ends before it starts"
        with pytest.raises(DataError, match=re.escape(message)):
            read_corpus(path)

    @pytest.mark.parametrize("field", ["frames", "subs"])
    def test_zero_length_interval_accepted(self, tmp_path, field):
        path, _, entry = self._with(tmp_path, field, 0, "t1", "0.0")
        assert entry["t0"] == 0.0
        _, clips = read_corpus(path)
        times = clips[1].frame_times[0] if field == "frames" else (clips[1].subs[0].t0, clips[1].subs[0].t1)
        assert tuple(times) == (0.0, 0.0)

    @pytest.mark.parametrize("field, key, raw", [
        ("frames", "t0", '"0.0"'),
        ("frames", "t1", "null"),
        ("subs", "t0", '"0"'),
        ("subs", "t1", "null"),
    ])
    def test_time_that_is_not_a_number_rejected(self, tmp_path, field, key, raw):
        path, _, _ = self._with(tmp_path, field, 0, key, raw)
        what = "frame" if field == "frames" else "subtitle"
        with pytest.raises(DataError, match=re.escape(f"record at {path}:3 has a {what} time that is not a number")):
            read_corpus(path)

    @pytest.mark.parametrize("field", ["frames", "subs"])
    def test_integer_times_read_as_floats(self, tmp_path, field):
        path, _, _ = self._with(tmp_path, field, 0, "t0", "0")
        _, clips = read_corpus(path)
        t0 = clips[1].frame_times[0, 0] if field == "frames" else clips[1].subs[0].t0
        assert type(t0) in (float, np.float64) and t0 == 0.0

    def test_true_and_false_in_text_read_cleanly(self, tmp_path, monkeypatch):
        """A line that spells true or false outside its numbers gets the
        exact check and passes it; a line that does not is never checked."""
        path, _, _ = self._with(tmp_path, "subs", 0, "text", '"true or false"')
        checked = []
        holds_bool = data_module._holds_bool
        monkeypatch.setattr(data_module, "_holds_bool", lambda v: checked.append(v) or holds_bool(v))
        _, clips = read_corpus(path)
        assert clips[1].subs[0].text == "true or false" and len(checked) == 1

    def test_unsorted_frames_rejected(self, tmp_path):
        path, clip_id, _ = self._with(tmp_path, "frames", 2, "t0", "0.1")
        with pytest.raises(DataError, match=re.escape(f"clip {clip_id!r} frames are not sorted/non-overlapping")):
            read_corpus(path)

    def test_empty_clip_reads_as_empty_arrays(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text(
            json.dumps({"fps": 1.0, "feature_dim": 3, "vocab_path": "v.txt"}) + "\n"
            + json.dumps({"id": "e", "frames": [], "subs": []}) + "\n"
        )
        (clip,) = read_corpus(path)[1]
        assert clip.frame_times.shape == (0, 2) and clip.frame_features.shape == (0, 3)


class TestSynthCorpus:
    def test_frame_count_at_tv_rate(self, tmp_path):
        path, _ = synth_corpus(tmp_path / "c.jsonl", num_clips=3, fps=2 / 3, clip_seconds=60.0, seed=1)
        _, clips = read_corpus(path)
        assert all(c.frame_times.shape == (40, 2) and c.frame_features.shape == (40, 32) for c in clips)

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
            np.testing.assert_array_equal(a.frame_times, b.frame_times)
            np.testing.assert_array_equal(a.frame_features, b.frame_features)
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
            assert aligned.n_frames == len(raw.frame_times)


class TestBatching:
    def test_epoch_order_is_a_deterministic_partition(self):
        a = epoch_order(10, seed=3, epoch=0)
        b = epoch_order(10, seed=3, epoch=0)
        c = epoch_order(10, seed=3, epoch=1)
        np.testing.assert_array_equal(a, b)
        assert sorted(a.tolist()) == list(range(10))
        assert not np.array_equal(a, c)
