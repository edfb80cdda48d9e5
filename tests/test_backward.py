"""``tensor.backward`` releases the graph as it walks: each op leaves the tape
and is unlinked before its adjoint runs.  The gradients must stay those of
the whole walk kept linked (``ref_backward``), an op's output must be freed
before the adjoints of earlier ops run, and an adjoint that raises must
leave no state behind."""

import weakref

import numpy as np
import pytest

from vidtext import pretrain as P
from vidtext import tensor as T
from vidtext.downstream import (
    CaptionExample,
    CaptionModel,
    NliExample,
    NliModel,
    QaExample,
    QaModel,
    RetrievalExample,
    retrieval_finetune_step,
    retrieval_targets,
)
from vidtext.encoder import ModelConfig

from conftest import make_clip, ref_backward


@pytest.fixture
def config():
    # dropout on: its masks are drawn in the forward pass, so both walks see the same ones
    return ModelConfig(
        d=16, cross_layers=1, cross_heads=2, temporal_layers=1, temporal_heads=2,
        vocab_size=30, frame_feature_dim=8, max_frames=16, max_tokens=12,
        ffn_multiplier=2, dropout=0.1,
    )


@pytest.fixture
def clips(small_vocab):
    rng = np.random.default_rng(40)
    return [make_clip(rng, small_vocab, groups=g, tokens=t, clip_id=f"c{i}")
            for i, (g, t) in enumerate([((3, 4), (4, 5)), ((2, 5, 3), (3, 0, 6)), ((6,), (4,))])]


def _run_step(model, step):
    """``step(model, optimizer, train_rng)``: the loss, every parameter
    gradient and every updated parameter."""
    loss = step(model, T.AdamW(model.params(), lr=1e-3, weight_decay=0.01),
                np.random.default_rng(9))
    params = model.params()
    return loss, {k: p.grad for k, p in params.items()}, {k: p.data for k, p in params.items()}


def _step_both_ways(monkeypatch, make_model, step):
    """``_run_step`` on a fresh model, once with ``tensor.backward`` and once
    with ``ref_backward``."""
    runs = []
    for walk in (T.backward, ref_backward):
        monkeypatch.setattr(T, "backward", walk)
        runs.append(_run_step(make_model(), step))
    return runs


def _assert_bit_identical(runs):
    (loss, grads, params), (ref_loss, ref_grads, ref_params) = runs
    assert loss == ref_loss
    assert sorted(k for k, g in grads.items() if g is not None) == sorted(
        k for k, g in ref_grads.items() if g is not None)
    assert any(g is not None for g in grads.values())
    for name, g in ref_grads.items():
        if g is not None:
            np.testing.assert_array_equal(grads[name], g, err_msg=name)
        np.testing.assert_array_equal(params[name], ref_params[name], err_msg=name)


class TestGradientsMatchTheLinkedWalk:
    @pytest.mark.parametrize("kind", P.TASK_NAMES)
    def test_pretrain_step(self, monkeypatch, config, clips, small_vocab, kind):
        batch = P.build_task_batch(kind, clips, small_vocab, config, np.random.default_rng(41),
                                   step=3, seed=5)
        hypers = P.PretrainHypers(num_negatives=5)
        _assert_bit_identical(_step_both_ways(
            monkeypatch, lambda: P.PretrainModel(config, seed=2),
            lambda model, opt, rng: P.pretrain_step(model, batch, opt, hypers, train_rng=rng),
        ))

    def test_retrieval_finetune_step(self, monkeypatch, config, clips, small_vocab):
        batch = [(c, retrieval_targets(c, [RetrievalExample(c.clip_id, f"w00{i + 1} w00{i + 2}",
                                                            (1.0, 4.0))], small_vocab))
                 for i, c in enumerate(clips)]
        _assert_bit_identical(_step_both_ways(
            monkeypatch, lambda: P.PretrainModel(config, seed=2),
            lambda model, opt, rng: retrieval_finetune_step(
                model, batch, opt, P.PretrainHypers(), train_rng=rng),
        ))

    @pytest.mark.parametrize("task", ["qa", "nli", "caption"])
    def test_downstream_step(self, monkeypatch, config, clips, small_vocab, task):
        clip = clips[1]
        model_cls, example = {
            "qa": (QaModel, QaExample(clip.clip_id, "w003 w004 w005",
                                      ["w006 w007", "w008", "w009 w010 w011"], 1, (1.0, 4.0))),
            "nli": (NliModel, NliExample(clip.clip_id, "w003 w004", 1)),
            "caption": (CaptionModel, CaptionExample(clip.clip_id, (0.0, 7.0), "w005 w006 w007")),
        }[task]
        _assert_bit_identical(_step_both_ways(
            monkeypatch, lambda: model_cls(config, seed=0),
            lambda model, opt, rng: T.train_step(
                opt, lambda: model.loss(clip, example, small_vocab, train_rng=rng)),
        ))


class TestReleaseAsYouGo:
    @staticmethod
    def _graph(u):
        """x -> probe -> gelu (the middle op, not held) -> exp (held) -> loss.
        The probe's adjoint, the last to run, records whether the middle
        op's output array is still alive."""
        x = T.Tensor(np.linspace(-1.0, 1.0, u.size).reshape(u.shape), requires_grad=True)
        alive = []

        def probe(a):
            def bw(g):
                alive.append(middle_data() is not None)
                T._accum(a, g)

            return T._make(a.data.copy(), (a,), bw)

        first = probe(x)
        middle = T.gelu(first)
        middle_data = weakref.ref(middle.data)
        held = T.softmax(middle, axis=-1)
        return x, first, held, (held * T.Tensor(u)).sum(), alive

    def test_an_op_is_freed_before_earlier_adjoints_run(self):
        u = np.random.default_rng(3).standard_normal((4, 5))
        x, first, held, loss, alive = self._graph(u)
        T.backward(loss)
        assert alive == [False]
        # held by the caller: each keeps the gradient the linked walk gives it
        rx, rfirst, rheld, rloss, ralive = self._graph(u)
        ref_backward(rloss)
        assert ralive == [True]  # the linked walk keeps every output until it ends
        for t, r in ((x, rx), (first, rfirst), (held, rheld), (loss, rloss)):
            np.testing.assert_array_equal(t.grad, r.grad)
        np.testing.assert_array_equal(held.grad, u)

    def test_the_walked_graph_is_unlinked(self):
        x, first, held, loss, _ = self._graph(np.ones((2, 3)))
        T.backward(loss)
        assert T.tape_size() == 0
        for t in (first, held, loss):
            assert t._bw is None and t._parents == ()


class TestRaisingAdjoint:
    def test_leaves_no_state_and_the_next_step_is_unaffected(self, config, clips, small_vocab):
        batch = P.build_task_batch("mlm", clips, small_vocab, config, np.random.default_rng(41),
                                   step=3, seed=5)
        hypers = P.PretrainHypers()
        model = P.PretrainModel(config, seed=2)
        weight = model.params()["lm_head.b"]

        def boom(a):
            def bw(g):
                raise RuntimeError("adjoint failed")

            return T._make(a.data.copy(), (a,), bw)

        # the square term is recorded after the raising op, so its adjoint runs first
        total = boom(P.task_loss(model, batch, hypers)) + (weight * weight).sum()
        graph = list(T._TAPE)
        with pytest.raises(RuntimeError, match="adjoint failed"):
            T.backward(total)
        assert weight.grad is not None  # the walk stopped partway, not before it began
        assert T.tape_size() == 0
        assert all(t._bw is None and t._parents == () for t in graph)

        def step(m, opt, rng):
            return P.pretrain_step(m, batch, opt, hypers, train_rng=rng)

        _assert_bit_identical([_run_step(model, step),
                               _run_step(P.PretrainModel(config, seed=2), step)])
