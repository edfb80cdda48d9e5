import numpy as np
import pytest
from hypothesis import settings

from vidtext import tensor as T
from vidtext.data import AlignedClip, Sentence, Vocab, detokenize
from vidtext.encoder import HierarchicalEncoder, ModelConfig


# property tests draw the same examples on every run and keep no example database
settings.register_profile("vidtext", derandomize=True, database=None, deadline=None)
settings.load_profile("vidtext")


@pytest.fixture
def tiny_config():
    # dropout off: numeric tests are run deterministically
    return ModelConfig(
        d=16,
        cross_layers=1,
        cross_heads=2,
        temporal_layers=1,
        temporal_heads=2,
        vocab_size=30,
        frame_feature_dim=8,
        max_frames=16,
        max_tokens=12,
        ffn_multiplier=2,
        dropout=0.0,
    )


@pytest.fixture
def small_vocab():
    return Vocab.synthetic(30)


def make_clip(
    rng,
    vocab,
    groups=(3, 4),
    tokens=(4, 5),
    feat_dim=8,
    clip_id="clip-test",
    seconds_per_frame=1.0,
):
    """Build an AlignedClip directly, bypassing temporal alignment."""
    n_frames = sum(groups)
    feats = rng.standard_normal((n_frames, feat_dim))
    times = [(i * seconds_per_frame, (i + 1) * seconds_per_frame) for i in range(n_frames)]
    sentences = []
    start = 0
    for k, n_tok in zip(groups, tokens):
        ids = [int(rng.integers(vocab.num_specials, vocab.size)) for _ in range(n_tok)]
        sentences.append(
            Sentence(
                text=detokenize(ids, vocab),
                token_ids=ids,
                t0=times[start][0],
                t1=times[start + k - 1][1],
                frame_indices=list(range(start, start + k)),
            )
        )
        start += k
    return AlignedClip(clip_id, sentences, feats, times)


@pytest.fixture
def toy_clip(tiny_config, small_vocab):
    rng = np.random.default_rng(7)
    return make_clip(rng, small_vocab, feat_dim=tiny_config.frame_feature_dim)


@pytest.fixture
def tiny_encoder(tiny_config):
    return HierarchicalEncoder(tiny_config, np.random.default_rng(0))


def slice_cols(a, lo, hi):
    """Columns ``lo:hi`` of a 2-D tensor, for the per-head and per-position
    test references."""
    return T.transpose(T.slice_rows(T.transpose(a), lo, hi))
