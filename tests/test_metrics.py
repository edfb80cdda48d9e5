"""Metric tests: hand cases, properties, and brute-force cross-checks."""

import math

import numpy as np
import pytest

from vidtext.errors import ConfigError, UsageError
from vidtext.metrics import Moment, Ranking, accuracy, bleu4, recall_at_k, temporal_nms, tiou

from conftest import nms_moments, ref_temporal_nms


def random_span(rng, lo=0.0, hi=30.0):
    a, b = sorted(rng.uniform(lo, hi, size=2))
    return (float(a), float(b))


class TestTiou:
    def test_identical_spans(self):
        assert tiou((2.0, 9.0), (2.0, 9.0)) == 1.0

    def test_disjoint_spans(self):
        assert tiou((0.0, 1.0), (2.0, 3.0)) == 0.0

    def test_hand_case(self):
        assert tiou((0.0, 10.0), (5.0, 15.0)) == pytest.approx(5.0 / 15.0, abs=1e-15)

    def test_inverted_interval_rejected(self):
        with pytest.raises(UsageError):
            tiou((3.0, 1.0), (0.0, 1.0))

    def test_zero_length_spans_score_zero(self):
        assert tiou((2.0, 2.0), (2.0, 2.0)) == 0.0
        assert tiou((2.0, 2.0), (0.0, 5.0)) == 0.0

    def test_symmetric_and_bounded(self):
        rng = np.random.default_rng(0)
        for _ in range(300):
            a, b = random_span(rng), random_span(rng)
            v = tiou(a, b)
            assert v == tiou(b, a)
            assert 0.0 <= v <= 1.0


def random_ranking(rng, n, n_clips=3):
    """A score-descending Ranking of n moments over clips named c0..c{n_clips-1},
    with repeated scores and repeated spans."""
    starts = rng.integers(0, 10, size=n).astype(float)
    ends = starts + rng.integers(0, 6, size=n)
    scores = np.sort(rng.integers(0, 8, size=n) / 8.0)[::-1]
    clip_ids = [f"c{i}" for i in range(n_clips)]
    return Ranking(clip_ids, rng.integers(0, n_clips, size=n), starts, ends, scores)


class TestRanking:
    def test_items_are_moments_of_python_floats(self):
        r = Ranking(["a", "b"], [1, 0, 1], [0.0, 1.0, 2.5], [1.0, 3.0, 4.0], [0.9, 0.5, 0.25])
        assert len(r) == 3
        assert r[0] == Moment("b", (0.0, 1.0), 0.9)
        assert r[-1] == r[np.int64(2)] == Moment("b", (2.5, 4.0), 0.25)
        assert list(r) == [r[i] for i in range(3)]
        for m in [*r, r[1]]:
            assert type(m.score) is float and all(type(t) is float for t in m.span)
        with pytest.raises(IndexError):
            r[3]

    def test_slices_and_index_arrays_are_rankings_of_copies(self):
        rng = np.random.default_rng(3)
        r = random_ranking(rng, 20)
        moments = list(r)
        for index in (slice(2, 9), slice(None, None, 3), np.array([0, 5, 5, 19]), r.score > 0.4):
            part = r[index]
            assert isinstance(part, Ranking)
            want = [moments[i] for i in np.arange(20)[index]]
            assert list(part) == want
            for a, b in zip((part.clip, part.start, part.end, part.score), (r.clip, r.start, r.end, r.score)):
                assert not np.shares_memory(a, b)

    def test_read_only(self):
        r = random_ranking(np.random.default_rng(4), 5)
        with pytest.raises(TypeError):
            r[0] = Moment("c0", (0.0, 1.0), 1.0)
        with pytest.raises(ValueError):
            r.score[0] = 2.0


class TestTemporalNms:
    def test_single_prediction_unchanged(self):
        items = [Moment("c", (0.0, 2.0), 0.9)]
        assert nms_moments(items, 0.5) == items

    def test_duplicate_span_keeps_higher_score(self):
        items = [Moment("c", (0.0, 2.0), 0.9), Moment("c", (0.0, 2.0), 0.4)]
        assert nms_moments(items, 0.5) == items[:1]

    def test_five_hand_built_spans(self):
        items = [
            Moment("c", (0.0, 10.0), 0.95),
            Moment("c", (1.0, 10.0), 0.90),  # tIoU 0.9 with kept -> drop
            Moment("c", (8.0, 18.0), 0.80),  # tIoU 2/18 with kept -> keep
            Moment("c", (9.0, 17.0), 0.70),  # tIoU 7/10 with third -> drop
            Moment("c", (30.0, 35.0), 0.10),  # disjoint -> keep
        ]
        kept = nms_moments(items, 0.5)
        assert [m.score for m in kept] == [0.95, 0.80, 0.10]

    def test_suppression_is_per_clip(self):
        items = [Moment("a", (0.0, 2.0), 0.9), Moment("b", (0.0, 2.0), 0.8)]
        assert len(nms_moments(items, 0.5)) == 2

    def test_unsorted_input_rejected(self):
        items = [Moment("c", (0.0, 2.0), 0.1), Moment("c", (5.0, 6.0), 0.9)]
        with pytest.raises(UsageError):
            nms_moments(items, 0.5)

    def test_against_exhaustive_property_oracle(self):
        rng = np.random.default_rng(1)
        for _ in range(150):
            n = int(rng.integers(1, 12))
            items = [
                Moment(f"c{rng.integers(0, 2)}", random_span(rng, 0, 12), float(s))
                for s in np.sort(rng.random(n))[::-1]
            ]
            kept = nms_moments(items, 0.5)
            kept_set = {id(m) for m in kept}
            # order-preserving subset
            assert [m for m in items if id(m) in kept_set] == kept
            for i, m in enumerate(items):
                earlier_kept = [
                    k for k in items[:i] if id(k) in kept_set and k.clip_id == m.clip_id
                ]
                overlapped = any(tiou(k.span, m.span) > 0.5 for k in earlier_kept)
                assert (id(m) in kept_set) == (not overlapped)

    @pytest.mark.parametrize("threshold", [0.0, 0.3, 0.5, 1.0])
    def test_ranking_matches_the_all_pairs_reference(self, threshold):
        """On a Ranking, suppression against a per-clip dict keeps exactly the
        moments that the all-pairs loop keeps, in order."""
        rng = np.random.default_rng(5)
        for n in (0, 1, 2, 7, 40, 200):
            ranked = random_ranking(rng, n)
            got = temporal_nms(ranked, threshold)
            assert isinstance(got, Ranking)
            want = ref_temporal_nms(list(ranked), threshold)
            assert list(got) == want
            assert all(a.base is None for a in (got.clip, got.start, got.end, got.score))

    def test_unsorted_ranking_rejected(self):
        ranked = Ranking(["c"], [0, 0], [0.0, 5.0], [2.0, 6.0], [0.1, 0.9])
        with pytest.raises(UsageError):
            temporal_nms(ranked, 0.5)

    def test_idempotent(self):
        rng = np.random.default_rng(2)
        items = [
            Moment("c", random_span(rng, 0, 8), float(s)) for s in np.sort(rng.random(10))[::-1]
        ]
        once = nms_moments(items, 0.5)
        assert nms_moments(once, 0.5) == once


class TestRecallAtK:
    def test_perfect_top_one(self):
        preds = [[Moment("a", (0.0, 5.0), 1.0)]]
        gt = [("a", (0.0, 5.0))]
        assert recall_at_k(preds, gt, k=1) == 1.0

    def test_strict_inequality_at_threshold(self):
        # tIoU exactly 0.6 with threshold 0.7: a miss even on the right clip
        preds = [[Moment("a", (0.0, 6.0), 1.0)]]
        gt = [("a", (0.0, 10.0))]
        assert recall_at_k(preds, gt, k=1, tiou_threshold=0.7) == 0.0
        assert recall_at_k(preds, gt, k=1, tiou_threshold=0.5) == 1.0

    def test_planted_ranks_match_hand_enumeration(self):
        rng = np.random.default_rng(3)
        n_queries, gt, preds, planted = 10, [], [], []
        for qi in range(n_queries):
            span = random_span(rng, 0, 10)
            gt.append((f"clip{qi}", span))
            rank = int(rng.integers(0, 12))  # where the true moment lands
            planted.append(rank)
            ranked = []
            for pos in range(12):
                if pos == rank:
                    ranked.append(Moment(f"clip{qi}", span, -float(pos)))
                else:
                    ranked.append(Moment(f"other{pos}", span, -float(pos)))
            preds.append(ranked)
        for k in (1, 10):
            expected = sum(r < k for r in planted) / n_queries
            assert recall_at_k(preds, gt, k=k) == expected

    def test_monotone_in_k_and_threshold(self):
        rng = np.random.default_rng(4)
        gt, preds = [], []
        for qi in range(20):
            span = random_span(rng, 0, 10)
            gt.append((f"c{qi}", span))
            ranked = [
                Moment(f"c{rng.integers(0, 25)}", random_span(rng, 0, 10), -float(p))
                for p in range(8)
            ]
            preds.append(ranked)
        values_k = [recall_at_k(preds, gt, k=k, tiou_threshold=0.3) for k in (1, 2, 4, 8)]
        assert values_k == sorted(values_k)
        values_t = [recall_at_k(preds, gt, k=8, tiou_threshold=t) for t in (0.1, 0.4, 0.7)]
        assert values_t == sorted(values_t, reverse=True)

    def test_video_mode_ignores_spans(self):
        preds = [[Moment("a", (0.0, 0.1), 1.0)]]
        gt = [("a", (5.0, 9.0))]
        assert recall_at_k(preds, gt, k=1, mode="video") == 1.0
        assert recall_at_k(preds, gt, k=1, mode="video_moment") == 0.0

    def test_ranking_gives_the_list_recall(self):
        rng = np.random.default_rng(6)
        preds = [random_ranking(rng, int(rng.integers(1, 30))) for _ in range(40)]
        gt = [(f"c{rng.integers(0, 3)}", random_span(rng, 0, 12)) for _ in preds]
        for k in (1, 3, 10, 100):
            for mode in ("video", "video_moment"):
                want = recall_at_k([list(r) for r in preds], gt, k=k, tiou_threshold=0.5, mode=mode)
                assert recall_at_k(preds, gt, k=k, tiou_threshold=0.5, mode=mode) == want

    def test_bad_k_rejected(self):
        with pytest.raises(ConfigError):
            recall_at_k([], [], k=0)


class TestAccuracy:
    def test_all_correct(self):
        assert accuracy([1, 0, 2], [1, 0, 2]) == 1.0

    def test_three_of_four(self):
        assert accuracy([1, 1, 0, 0], [1, 1, 0, 1]) == 0.75

    def test_empty_set_is_an_error_not_zero(self):
        with pytest.raises(UsageError):
            accuracy([], [])

    def test_length_mismatch_rejected(self):
        with pytest.raises(UsageError):
            accuracy([1], [1, 0])


class TestBleu4:
    def test_exact_match_scores_one(self):
        assert bleu4(list("abcde"), list("abcde")) == pytest.approx(1.0, abs=1e-15)

    def test_zero_overlap_scores_zero(self):
        assert bleu4(["x", "y", "z", "w"], ["a", "b", "c", "d"]) == 0.0

    def test_hand_case_with_brevity_penalty(self):
        # 4/4, 3/3, 2/2, 1/1 precisions; BP = e^(1 - 5/4)
        got = bleu4(["a", "b", "c", "d"], ["a", "b", "c", "d", "e"])
        assert got == pytest.approx(math.exp(1.0 - 5.0 / 4.0), abs=1e-12)

    def test_empty_reference_rejected(self):
        with pytest.raises(UsageError):
            bleu4(["a"], [])

    def test_empty_candidate_scores_zero(self):
        assert bleu4([], ["a", "b"]) == 0.0

    def test_short_candidate_uses_smoothing(self):
        got = bleu4(["a", "b"], ["a", "b", "c", "d"])
        # p1=1, p2=1, p3 and p4 smoothed to 1; BP = e^(1-2)
        assert got == pytest.approx(math.exp(-1.0), abs=1e-12)

    def test_against_independent_reimplementation(self):
        def oracle(cand, ref):
            if not cand:
                return 0.0
            logs = 0.0
            for n in range(1, 5):
                cgrams = [tuple(cand[i : i + n]) for i in range(len(cand) - n + 1)]
                rgrams = [tuple(ref[i : i + n]) for i in range(len(ref) - n + 1)]
                matched = 0
                pool = list(rgrams)
                for g in cgrams:
                    if g in pool:
                        pool.remove(g)
                        matched += 1
                total = len(cgrams)
                if n == 1 and matched == 0:
                    return 0.0
                if matched == 0:
                    matched, total = 1, total + 1
                logs += 0.25 * math.log(matched / total)
            bp = 1.0 if len(cand) >= len(ref) else math.exp(1 - len(ref) / len(cand))
            return bp * math.exp(logs)

        rng = np.random.default_rng(5)
        for _ in range(300):
            cand = [int(x) for x in rng.integers(0, 6, size=rng.integers(1, 10))]
            ref = [int(x) for x in rng.integers(0, 6, size=rng.integers(4, 10))]
            assert bleu4(cand, ref) == pytest.approx(oracle(cand, ref), abs=1e-12)
