"""Corpus ingestion: tokenization, frame/subtitle temporal alignment,
synthetic corpus generation, and batch padding helpers.

Corpus files are newline-delimited JSON.  The first record is a header
``{"fps", "feature_dim", "vocab_path"}``; each following record is one clip
``{"id", "frames": [{"t0","t1","feat"}...], "subs": [{"t0","t1","text"}...]}``
with times in seconds at up to three decimals.
"""

from __future__ import annotations

import json
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

    def token_of(self, idx: int) -> str:
        return self.tokens[idx]

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
class Frame:
    t0: float
    t1: float
    feat: np.ndarray


@dataclass
class Subtitle:
    t0: float
    t1: float
    text: str


@dataclass
class RawClip:
    clip_id: str
    frames: list[Frame]
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
    frame_features: np.ndarray  # (n_frames, feature_dim)
    frame_times: list[tuple[float, float]]

    @property
    def n_frames(self) -> int:
        return self.frame_features.shape[0]

    def frame_seconds(self, span: tuple[int, int]) -> tuple[float, float]:
        """Convert an inclusive frame-index span to a seconds interval."""
        return (self.frame_times[span[0]][0], self.frame_times[span[1]][1])


def _interval_overlap(a0: float, a1: float, b0: float, b1: float) -> float:
    return max(0.0, min(a1, b1) - max(a0, b0))


def _interval_gap(a0: float, a1: float, b0: float, b1: float) -> float:
    if a1 <= b0:
        return b0 - a1
    if b1 <= a0:
        return a0 - b1
    return 0.0


def _interval_tiou(a0: float, a1: float, b0: float, b1: float) -> float:
    union = max(a1, b1) - min(a0, b0)
    if union <= 0.0:
        return 0.0
    return _interval_overlap(a0, a1, b0, b1) / union


def align(raw: RawClip, vocab: Vocab) -> AlignedClip:
    """Pair every frame with exactly one subtitle sentence.

    A frame overlapping several sentences goes to the one with maximal
    temporal IoU (earlier sentence on ties).  Frames overlapping no
    sentence attach to the temporally nearest one.  Sentences left with no
    frames are concatenated into the preceding surviving sentence when one
    exists, otherwise into the following one.
    """
    if not raw.frames or not raw.subs:
        raise DataError(f"clip {raw.clip_id!r} needs at least one frame and one subtitle")

    owner = []
    for f in raw.frames:
        best_j, best_tiou = -1, 0.0
        for j, s in enumerate(raw.subs):
            if _interval_overlap(f.t0, f.t1, s.t0, s.t1) <= 0.0:
                continue
            tiou = _interval_tiou(f.t0, f.t1, s.t0, s.t1)
            if tiou > best_tiou:
                best_j, best_tiou = j, tiou
        if best_j < 0:
            gaps = [_interval_gap(f.t0, f.t1, s.t0, s.t1) for s in raw.subs]
            best_j = int(np.argmin(gaps))
        owner.append(best_j)

    groups: list[list[int]] = [[] for _ in raw.subs]
    for i, j in enumerate(owner):
        groups[j].append(i)

    sentences: list[Sentence] = []
    pending_text: list[str] = []  # empty-group sentences with no predecessor yet
    for s, group in zip(raw.subs, groups):
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

    feats = np.stack([np.asarray(f.feat, dtype=np.float64) for f in raw.frames])
    times = [(f.t0, f.t1) for f in raw.frames]
    return AlignedClip(raw.clip_id, sentences, feats, times)


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
                    {"t0": round(f.t0, 3), "t1": round(f.t1, 3), "feat": [float(x) for x in f.feat]}
                    for f in clip.frames
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

    clips = []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        try:
            rec = json.loads(line)
            # one array per clip: ragged feature lists raise ValueError here
            feats = np.array([f["feat"] for f in rec["frames"]], dtype=np.float64)
            frames = [
                Frame(float(f["t0"]), float(f["t1"]), feat) for f, feat in zip(rec["frames"], feats)
            ]
            subs = [Subtitle(float(s["t0"]), float(s["t1"]), str(s["text"])) for s in rec["subs"]]
            clip = RawClip(str(rec["id"]), frames, subs)
        except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
            raise DataError(f"corpus record at {path}:{lineno} is malformed: {exc}") from exc
        if frames and feats.shape[1:] != (header.feature_dim,):
            raise DataError(
                f"clip {clip.clip_id!r} frame features have shape {feats.shape[1:]}, "
                f"not header feature_dim {header.feature_dim}"
            )
        if not np.isfinite(feats).all():
            raise DataError(f"clip {clip.clip_id!r} has non-finite frame features")
        for a, b in zip(clip.frames, clip.frames[1:]):
            if b.t0 < a.t0 or a.t1 > b.t0 + 1e-9:
                raise DataError(f"clip {clip.clip_id!r} frames are not sorted/non-overlapping")
        clips.append(clip)
    return header, clips


def load_corpus_vocab(corpus_path: str | Path, header: CorpusHeader) -> Vocab:
    return Vocab.load(Path(corpus_path).parent / header.vocab_path)


# -- synthetic corpus ---------------------------------------------------------


MAX_SENTENCES_PER_CLIP = 6


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
    if fps <= 0:
        raise ConfigError(f"fps must be positive, got {fps}")
    if clip_seconds <= 0:
        raise ConfigError(f"clip_seconds must be positive, got {clip_seconds}")
    n_frames = int(round(clip_seconds * fps))
    if n_frames < 2:
        raise ConfigError("clip too short for the frame rate")

    path = Path(path)
    vocab = Vocab.synthetic(vocab_size)
    vocab_path = path.with_suffix(".vocab.txt")
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

        frames = []
        for i in range(n_frames):
            t0, t1 = i / fps, (i + 1) / fps
            if planted_structure:
                overlaps = [_interval_overlap(t0, t1, s.t0, s.t1) for s in subs]
                topic = topics[int(np.argmax(overlaps))]
                feat = (
                    topic_base[topic]
                    + 0.8 * pos_signature[i]
                    + 0.25 * rng.standard_normal(feature_dim)
                )
            else:
                feat = rng.standard_normal(feature_dim)
            frames.append(Frame(t0, t1, np.round(feat, 5)))
        clips.append(RawClip(f"clip{c:04d}", frames, subs))

    write_corpus(path, CorpusHeader(fps=fps, feature_dim=feature_dim, vocab_path=vocab_path.name), clips)
    return path, vocab


# -- batching helpers ---------------------------------------------------------


def epoch_order(n_clips: int, seed: int, epoch: int) -> np.ndarray:
    """Deterministic per-epoch shuffle of clip indices."""
    return np.random.default_rng([seed, _SEED_EPOCH, epoch]).permutation(n_clips)
