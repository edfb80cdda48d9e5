"""Corpus ingestion: tokenization, frame/subtitle temporal alignment,
synthetic corpus generation, and the per-epoch clip shuffle.

Corpus files are newline-delimited JSON.  The first record is a header
``{"fps", "feature_dim", "vocab_path"}``; each following record is one clip
``{"id", "frames": [{"t0","t1","feat"}...], "subs": [{"t0","t1","text"}...]}``
with times in seconds at up to three decimals: finite, with ``t0 <= t1``.
Parsed clips keep each clip's frames as two arrays, the (n, 2) start and end
times and the (n, feature_dim) features, with no object per frame.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import ConfigError, DataError, read_input

SPECIAL_TOKENS = ("[PAD]", "[MASK]", "[CLS]", "[SEP]", "[UNK]")
PAD_ID, MASK_ID, CLS_ID, SEP_ID, UNK_ID = range(5)

_WORD_RE = re.compile(r"[a-z0-9]+")

# integer namespaces for seed derivation, so every rng in the pipeline is a
# pure function of (seed, purpose, index)
_SEED_TOPIC = 3
_SEED_POSITION = 4
_SEED_EPOCH = 5
_SEED_CLIP = 6


class Vocab:
    """Token/id map with the special tokens pinned at the lowest ids."""

    def __init__(self, words: Sequence[str]):
        self.tokens = list(SPECIAL_TOKENS) + list(words)
        if len(set(self.tokens)) != len(self.tokens):
            raise DataError("vocabulary contains duplicate tokens")
        self._ids = {tok: i for i, tok in enumerate(self.tokens)}

    @property
    def size(self) -> int:
        return len(self.tokens)

    @property
    def num_specials(self) -> int:
        return len(SPECIAL_TOKENS)

    def id_of(self, token: str) -> int:
        return self._ids.get(token, UNK_ID)

    def random_regular_id(self, rng: np.random.Generator) -> int:
        """A uniform draw over non-special ids (used for RANDOM replacement)."""
        return int(rng.integers(self.num_specials, self.size))

    def save(self, path: str | Path) -> None:
        Path(path).write_text("\n".join(self.tokens) + "\n")

    @classmethod
    def from_tokens(cls, tokens: Sequence[str]) -> "Vocab":
        """Rebuild from a full token list (specials included, in order)."""
        if tuple(tokens[: len(SPECIAL_TOKENS)]) != SPECIAL_TOKENS:
            raise DataError("token list does not start with the special tokens")
        return cls(tokens[len(SPECIAL_TOKENS):])

    @classmethod
    def load(cls, path: str | Path) -> "Vocab":
        lines = read_input(path, "vocab file", lambda _, text: text.splitlines())
        if tuple(lines[: len(SPECIAL_TOKENS)]) != SPECIAL_TOKENS:
            raise DataError(f"vocab file {path} does not start with the special tokens")
        return cls(lines[len(SPECIAL_TOKENS):])

    @classmethod
    def synthetic(cls, vocab_size: int) -> "Vocab":
        """A vocabulary of ``vocab_size`` total ids with generated words."""
        n_words = vocab_size - len(SPECIAL_TOKENS)
        if n_words < 1:
            raise ConfigError(f"vocab_size must exceed {len(SPECIAL_TOKENS)}, got {vocab_size}")
        return cls([f"w{i:03d}" for i in range(n_words)])


def tokenize(text: str, vocab: Vocab) -> list[int]:
    """Lowercase, split on whitespace/punctuation, map through the vocab."""
    return [vocab.id_of(w) for w in _WORD_RE.findall(text.lower())]


# -- clip structures --------------------------------------------------------


@dataclass
class Subtitle:
    t0: float
    t1: float
    text: str


@dataclass
class RawClip:
    """One clip record of a corpus file: frame i spans ``frame_times[i]``
    seconds and carries ``frame_features[i]``."""

    clip_id: str
    frame_times: np.ndarray  # (n_frames, 2) float64 start and end seconds
    frame_features: np.ndarray  # (n_frames, feature_dim) float64
    subs: list[Subtitle]


@dataclass
class Sentence:
    """One aligned subtitle sentence owning a group of frame indices."""

    text: str
    token_ids: list[int]
    t0: float
    t1: float
    frame_indices: list[int] = field(default_factory=list)

    def span(self) -> tuple[int, int]:
        """Inclusive (start, end) frame-index interval of the group."""
        return (min(self.frame_indices), max(self.frame_indices))


@dataclass
class AlignedClip:
    clip_id: str
    sentences: list[Sentence]
    frame_features: np.ndarray  # (n_frames, feature_dim) float64
    frame_times: np.ndarray  # (n_frames, 2) float64 start and end seconds

    @property
    def n_frames(self) -> int:
        return self.frame_features.shape[0]

    def frame_seconds(self, span: tuple[int, int]) -> tuple[float, float]:
        """Convert an inclusive frame-index span to a seconds interval."""
        return (float(self.frame_times[span[0], 0]), float(self.frame_times[span[1], 1]))


def align(raw: RawClip, vocab: Vocab) -> AlignedClip:
    """Pair every frame with exactly one subtitle sentence.

    A frame overlapping several sentences goes to the one with maximal
    temporal IoU (earlier sentence on ties).  Frames overlapping no
    sentence attach to the temporally nearest one (earlier on ties).
    Sentences left with no frames are concatenated into the preceding
    surviving sentence when one exists, otherwise into the following one.
    The clip keeps ``raw``'s frame arrays.
    """
    if not len(raw.frame_times) or not raw.subs:
        raise DataError(f"clip {raw.clip_id!r} needs at least one frame and one subtitle")

    # (frames, subtitles) grids of overlap, tIoU and gap seconds
    f0, f1 = raw.frame_times[:, :1], raw.frame_times[:, 1:]
    s0 = np.array([s.t0 for s in raw.subs])
    s1 = np.array([s.t1 for s in raw.subs])
    overlap = np.maximum(0.0, np.minimum(f1, s1) - np.maximum(f0, s0))
    union = np.maximum(f1, s1) - np.minimum(f0, s0)
    tiou = np.divide(overlap, union, out=np.zeros_like(overlap), where=overlap > 0.0)
    gap = np.where(f1 <= s0, s0 - f1, np.where(s1 <= f0, f0 - s1, 0.0))
    owner = np.where(tiou.max(axis=1) > 0.0, tiou.argmax(axis=1), gap.argmin(axis=1))

    # frame indices grouped by owner, in frame order within each group
    order = np.argsort(owner, kind="stable").tolist()
    counts = np.bincount(owner, minlength=len(raw.subs)).tolist()

    sentences: list[Sentence] = []
    pending_text: list[str] = []  # empty-group sentences with no predecessor yet
    lo = 0
    for s, count in zip(raw.subs, counts):
        group, lo = order[lo:lo + count], lo + count
        if not group:
            if sentences:
                prev = sentences[-1]
                prev.text = (prev.text + " " + s.text).strip()
                prev.t1 = max(prev.t1, s.t1)
            else:
                pending_text.append(s.text)
            continue
        text = s.text
        if pending_text:
            text = " ".join(pending_text + [text]).strip()
            pending_text.clear()
        sentences.append(Sentence(text=text, token_ids=[], t0=s.t0, t1=s.t1, frame_indices=group))

    for sent in sentences:
        sent.token_ids = tokenize(sent.text, vocab)

    return AlignedClip(raw.clip_id, sentences, raw.frame_features, raw.frame_times)


# -- corpus files -----------------------------------------------------------


@dataclass
class CorpusHeader:
    fps: float
    feature_dim: int
    vocab_path: str


def write_corpus(path: str | Path, header: CorpusHeader, clips: Sequence[RawClip]) -> None:
    path = Path(path)
    with path.open("w") as fh:
        fh.write(
            json.dumps(
                {"fps": header.fps, "feature_dim": header.feature_dim, "vocab_path": header.vocab_path}
            )
            + "\n"
        )
        for clip in clips:
            rec = {
                "id": clip.clip_id,
                "frames": [
                    {"t0": round(t0, 3), "t1": round(t1, 3), "feat": feat}
                    for (t0, t1), feat in zip(clip.frame_times.tolist(), clip.frame_features.tolist())
                ],
                "subs": [
                    {"t0": round(s.t0, 3), "t1": round(s.t1, 3), "text": s.text} for s in clip.subs
                ],
            }
            fh.write(json.dumps(rec) + "\n")


def read_corpus(path: str | Path) -> tuple[CorpusHeader, list[RawClip]]:
    return read_input(path, "corpus file", _parse_corpus)


def _parse_corpus(path: Path, text: str) -> tuple[CorpusHeader, list[RawClip]]:
    lines = text.splitlines()
    if not lines:
        raise DataError(f"corpus file {path} is empty")
    try:
        head = json.loads(lines[0])
        header = CorpusHeader(
            fps=float(head["fps"]),
            feature_dim=int(head["feature_dim"]),
            vocab_path=str(head["vocab_path"]),
        )
    except (json.JSONDecodeError, KeyError, TypeError) as exc:
        raise DataError(f"corpus header in {path} is malformed: {exc}") from exc
    if header.feature_dim < 1:
        raise DataError(f"corpus header in {path} has feature_dim {header.feature_dim}, not at least 1")

    clips = []
    first_line: dict[str, int] = {}  # clip id -> the line that gave it
    for lineno in range(2, len(lines) + 1):
        # drop each line once read: the arrays a clip keeps then reuse its
        # memory instead of landing above the whole file's text, a heap
        # layout that made later training steps page-fault
        line, lines[lineno - 1] = lines[lineno - 1], None
        if not line.strip():
            continue
        try:
            rec = json.loads(line)
            frames, clip_id = rec["frames"], rec["id"]
            # one array per clip: ragged feature lists raise ValueError here
            feats = np.array([f["feat"] for f in frames], dtype=np.float64)
            times = np.array([(f["t0"], f["t1"]) for f in frames])
            sub_times = np.array([(s["t0"], s["t1"]) for s in rec["subs"]])
            texts = [s["text"] for s in rec["subs"]]
        except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
            raise DataError(f"corpus record at {path}:{lineno} is malformed: {exc}") from exc
        if not all(isinstance(text, str) for text in texts):
            raise DataError(f"corpus record at {path}:{lineno} has a subtitle text that is not a string")
        # numpy reads a JSON true/false beside numbers as 1.0/0.0; only a line
        # that spells one out pays for the exact check
        if "true" in line or "false" in line:
            numbers = [(f["t0"], f["t1"], f["feat"]) for f in frames]
            numbers += [(s["t0"], s["t1"]) for s in rec["subs"]]
            if _holds_bool(numbers):
                raise DataError(f"corpus record at {path}:{lineno} has a true/false time or feature")
        if not isinstance(clip_id, str):
            raise DataError(f"corpus record at {path}:{lineno} has id {clip_id!r}, not a string")
        if clip_id in first_line:
            raise DataError(
                f"corpus {path} has clip id {clip_id!r} twice, at lines {first_line[clip_id]} and {lineno}"
            )
        first_line[clip_id] = lineno
        times = _seconds(path, lineno, "frame", times)
        sub_times = _seconds(path, lineno, "subtitle", sub_times)
        subs = [Subtitle(t0, t1, text) for (t0, t1), text in zip(sub_times.tolist(), texts)]
        if frames and feats.shape[1:] != (header.feature_dim,):
            raise DataError(
                f"clip {clip_id!r} frame features have shape {feats.shape[1:]}, "
                f"not header feature_dim {header.feature_dim}"
            )
        if not np.isfinite(feats).all():
            raise DataError(f"clip {clip_id!r} has non-finite frame features")
        _check_intervals(path, clip_id, "frame", times)
        _check_intervals(path, clip_id, "subtitle", sub_times)
        if ((times[1:, 0] < times[:-1, 0]) | (times[:-1, 1] > times[1:, 0] + 1e-9)).any():
            raise DataError(f"clip {clip_id!r} frames are not sorted/non-overlapping")
        clips.append(RawClip(clip_id, times, feats.reshape(len(times), header.feature_dim), subs))
    return header, clips


def _holds_bool(values: list) -> bool:
    """Whether a bool sits anywhere in ``values`` (which this empties),
    nested lists and tuples included."""
    while values:
        v = values.pop()
        if isinstance(v, bool):
            return True
        if isinstance(v, (list, tuple)):
            values.extend(v)
    return False


def _seconds(path: Path, lineno: int, what: str, times: np.ndarray) -> np.ndarray:
    """A record's (start, end) pairs as an (n, 2) float64 array.  A time
    that is not a JSON number (a string, null) leaves numpy no number dtype."""
    if not times.size:
        return np.empty((0, 2))
    if times.dtype.kind not in "iuf" or times.ndim != 2:  # a list in place of a time: ndim 3
        raise DataError(f"corpus record at {path}:{lineno} has a {what} time that is not a number")
    return times.astype(np.float64, copy=False)


def _check_intervals(path: Path, clip_id: str, what: str, times: np.ndarray) -> None:
    """Each row of ``times`` is two finite seconds with start <= end."""
    if not np.isfinite(times).all():
        raise DataError(f"clip {clip_id!r} in {path} has a non-finite {what} time")
    if (times[:, 1] < times[:, 0]).any():
        raise DataError(f"clip {clip_id!r} in {path} has a {what} that ends before it starts")


def load_corpus_vocab(corpus_path: str | Path, header: CorpusHeader) -> Vocab:
    return Vocab.load(Path(corpus_path).parent / header.vocab_path)


# -- synthetic corpus ---------------------------------------------------------


MAX_SENTENCES_PER_CLIP = 6


def synth_frame_count(fps: float, clip_seconds: float) -> int:
    """The frame count of every clip ``synth_corpus`` generates at these settings."""
    return int(round(clip_seconds * fps))


def synth_corpus(
    path: str | Path,
    num_clips: int = 8,
    fps: float = 2.0 / 3.0,
    clip_seconds: float = 60.0,
    vocab_size: int = 100,
    feature_dim: int = 32,
    planted_structure: bool = True,
    seed: int = 0,
    num_topics: int = 48,
) -> tuple[Path, Vocab]:
    """Generate a deterministic synthetic corpus and its vocab file.

    With planted structure on, every (clip, sentence) slot owns a latent
    topic that selects a skewed token distribution and colors the features
    of the sentence's frames; frame features also carry a per-position
    signature.  Topic slots are disjoint across clips (up to the topic
    count), so queries identify their clip and sentences are separable
    within a clip.  With structure off, tokens and features are
    unstructured noise, so matching objectives have nothing to learn.
    """
    for name, value in (("fps", fps), ("clip_seconds", clip_seconds), ("frames", fps * clip_seconds)):
        if not 0 < value < math.inf:  # also false for NaN
            raise ConfigError(f"{name} must be positive and finite, got {value}")
    for name, value in (("num_clips", num_clips), ("feature_dim", feature_dim), ("num_topics", num_topics)):
        if value < 1:
            raise ConfigError(f"{name} must be at least 1, got {value}")
    if seed < 0:
        raise ConfigError(f"seed must be nonnegative, got {seed}")
    n_frames = synth_frame_count(fps, clip_seconds)
    if n_frames < 2:
        raise ConfigError("clip too short for the frame rate")

    path = Path(path)
    vocab = Vocab.synthetic(vocab_size)
    vocab_path = path.with_suffix(".vocab.txt")
    path.parent.mkdir(parents=True, exist_ok=True)
    vocab.save(vocab_path)

    n_words = vocab.size - vocab.num_specials
    num_topics = min(num_topics, n_words)
    topic_rng = np.random.default_rng([seed, _SEED_TOPIC])
    topic_base = topic_rng.standard_normal((num_topics, feature_dim))
    pos_rng = np.random.default_rng([seed, _SEED_POSITION])
    pos_signature = pos_rng.standard_normal((n_frames, feature_dim))

    # skewed within-topic token weights keep masked-token entropy low
    topic_words = [list(range(t, n_words, num_topics)) for t in range(num_topics)]
    topic_weights = []
    for words in topic_words:
        w = 0.55 ** np.arange(len(words))
        topic_weights.append(w / w.sum())

    clips = []
    for c in range(num_clips):
        rng = np.random.default_rng([seed, _SEED_CLIP, c])
        n_sents = int(rng.integers(3, MAX_SENTENCES_PER_CLIP + 1))
        durations = rng.random(n_sents) + 0.5
        durations = durations / durations.sum() * clip_seconds
        cuts = np.concatenate([[0.0], np.cumsum(durations)])
        cuts[-1] = clip_seconds

        subs = []
        topics = []
        for j in range(n_sents):
            topic = (c * MAX_SENTENCES_PER_CLIP + j) % num_topics
            topics.append(topic)
            n_tok = int(rng.integers(4, 10))
            if planted_structure:
                picks = rng.choice(topic_words[topic], size=n_tok, p=topic_weights[topic])
            else:
                picks = rng.integers(0, n_words, size=n_tok)
            text = " ".join(f"w{int(w):03d}" for w in picks)
            subs.append(Subtitle(float(cuts[j]), float(cuts[j + 1]), text))

        times = np.arange(n_frames + 1) / fps
        times = np.stack([times[:-1], times[1:]], axis=1)
        noise = rng.standard_normal((n_frames, feature_dim))
        if planted_structure:
            # each frame takes the topic of the sentence it overlaps most
            overlap = np.maximum(
                0.0, np.minimum(times[:, 1:], cuts[1:]) - np.maximum(times[:, :1], cuts[:-1])
            )
            frame_topics = np.array(topics)[overlap.argmax(axis=1)]
            feats = topic_base[frame_topics] + 0.8 * pos_signature + 0.25 * noise
        else:
            feats = noise
        clips.append(RawClip(f"clip{c:04d}", times, np.round(feats, 5), subs))

    write_corpus(path, CorpusHeader(fps=fps, feature_dim=feature_dim, vocab_path=vocab_path.name), clips)
    return path, vocab


# -- batching helpers ---------------------------------------------------------


def epoch_order(n_clips: int, seed: int, epoch: int) -> np.ndarray:
    """Deterministic per-epoch shuffle of clip indices."""
    return np.random.default_rng([seed, _SEED_EPOCH, epoch]).permutation(n_clips)
