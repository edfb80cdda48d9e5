"""Kernel-level tests: forced arithmetic, stability, and finite differences."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from vidtext import tensor as T
from vidtext.tensor import ATTENTION_MASK_BIAS
from vidtext.errors import ConfigError, DataError, ShapeError, UsageError

from conftest import loop_adamw_step, loop_conv1d, ref_dropout, window_conv1d
from gradcheck import check_gradients, max_rel_err, numeric_grad

FD_TOL = 1e-4


def rand(rng, *shape):
    return T.Tensor(rng.standard_normal(shape), requires_grad=True)


class TestMatmul:
    def test_identity(self):
        a = T.Tensor(np.eye(2))
        b = T.Tensor([[1.0, 2.0], [3.0, 4.0]])
        np.testing.assert_array_equal(T.matmul(a, b).data, b.data)

    def test_forced_arithmetic(self):
        a = T.Tensor([[1.0, 2.0], [3.0, 4.0]])
        b = T.Tensor([[5.0], [6.0]])
        np.testing.assert_array_equal(T.matmul(a, b).data, [[17.0], [39.0]])

    def test_shape_mismatch_names_both_shapes(self):
        with pytest.raises(ShapeError, match=r"\(2, 3\).*\(2, 2\)"):
            T.matmul(T.Tensor(np.zeros((2, 3))), T.Tensor(np.zeros((2, 2))))

    def test_gradient_vs_finite_differences(self):
        rng = np.random.default_rng(0)
        a, b = rand(rng, 3, 4), rand(rng, 4, 2)
        errs = check_gradients(lambda: T.matmul(a, b).sum(), {"a": a, "b": b})
        assert max(errs.values()) < 1e-6


    def test_batch_at_batch_gradient(self):
        rng = np.random.default_rng(10)
        a, b = rand(rng, 2, 3, 4, 5), rand(rng, 2, 3, 5, 2)
        w = rng.standard_normal((2, 3, 4, 2))
        errs = check_gradients(lambda: (T.matmul(a, b) * T.Tensor(w)).sum(), {"a": a, "b": b})
        assert max(errs.values()) < 1e-6

    def test_batch_at_matrix_gradient(self):
        rng = np.random.default_rng(11)
        a, b = rand(rng, 3, 4, 5), rand(rng, 5, 2)
        w = rng.standard_normal((3, 4, 2))
        errs = check_gradients(lambda: (T.matmul(a, b) * T.Tensor(w)).sum(), {"a": a, "b": b})
        assert max(errs.values()) < 1e-6

    def test_broadcast_batch_gradient(self):
        rng = np.random.default_rng(12)
        a, b = rand(rng, 3, 1, 4, 5), rand(rng, 2, 5, 2)
        w = rng.standard_normal((3, 2, 4, 2))
        errs = check_gradients(lambda: (T.matmul(a, b) * T.Tensor(w)).sum(), {"a": a, "b": b})
        assert max(errs.values()) < 1e-6

    def test_batched_forward_matches_per_entry_products(self):
        rng = np.random.default_rng(13)
        a, b = rng.standard_normal((3, 4, 5)), rng.standard_normal((5, 2))
        out = T.matmul(T.Tensor(a), T.Tensor(b)).data
        for i in range(3):
            np.testing.assert_allclose(out[i], a[i] @ b, atol=1e-13)

    def test_one_dimensional_operand_rejected(self):
        with pytest.raises(ShapeError):
            T.matmul(T.Tensor(np.zeros(3)), T.Tensor(np.zeros((3, 2))))


class TestTransposeAndPermute:
    def test_transpose_swaps_the_last_two_axes(self):
        x = np.arange(24.0).reshape(2, 3, 4)
        np.testing.assert_array_equal(T.transpose(T.Tensor(x)).data, x.transpose(0, 2, 1))

    def test_transpose_gradient(self):
        rng = np.random.default_rng(14)
        x = rand(rng, 2, 3, 4)
        w = rng.standard_normal((2, 4, 3))
        errs = check_gradients(lambda: (T.transpose(x) * T.Tensor(w)).sum(), {"x": x})
        assert errs["x"] < 1e-6



class TestSoftmax:
    def test_uniform_on_constant(self):
        out = T.softmax(T.Tensor([0.0, 0.0, 0.0]))
        np.testing.assert_allclose(out.data, [1 / 3] * 3, atol=1e-15)

    def test_shift_invariance(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal(7)
        a = T.softmax(T.Tensor(x)).data
        b = T.softmax(T.Tensor(x + 123.456)).data
        np.testing.assert_allclose(a, b, atol=1e-14)

    def test_extreme_logits_do_not_overflow(self):
        out = T.softmax(T.Tensor([1000.0, 0.0])).data
        assert out[0] == pytest.approx(1.0, abs=1e-300)
        assert out[1] == pytest.approx(0.0, abs=1e-300)
        assert np.isfinite(out).all()

    def test_rows_sum_to_one_and_nonnegative(self):
        rng = np.random.default_rng(2)
        x = T.Tensor(rng.standard_normal((5, 9)) * 30)
        p = T.softmax(x, axis=-1).data
        assert (p >= 0).all()
        np.testing.assert_allclose(p.sum(axis=-1), 1.0, atol=1e-12)

    def test_empty_axis_rejected(self):
        with pytest.raises(ShapeError):
            T.softmax(T.Tensor(np.zeros((3, 0))))

    def test_gradient(self):
        rng = np.random.default_rng(3)
        x = rand(rng, 4, 6)
        w = rng.standard_normal((4, 6))  # non-uniform weighting of outputs
        errs = check_gradients(lambda: (T.softmax(x, axis=-1) * T.Tensor(w)).sum(), {"x": x})
        assert errs["x"] < FD_TOL


    def test_masked_keys_get_exactly_zero_weight(self):
        rng = np.random.default_rng(16)
        scores = rng.standard_normal((2, 3, 4, 5)) * 10
        mask = np.ones((2, 1, 5), dtype=bool)
        mask[0, 0, 3:] = False
        mask[1, 0, 1:] = False
        bias = np.expand_dims(np.where(mask, 0.0, ATTENTION_MASK_BIAS), -3)
        p = T.softmax(T.Tensor(scores) + T.Tensor(bias), axis=-1).data
        assert (p[0, ..., 3:] == 0.0).all() and (p[1, ..., 1:] == 0.0).all()
        np.testing.assert_allclose(p.sum(axis=-1), 1.0, atol=1e-12)
        np.testing.assert_allclose(p[0, ..., :3], T.softmax(T.Tensor(scores[0, ..., :3])).data, atol=1e-15)

    def test_all_padding_query_rows_stay_finite(self):
        rng = np.random.default_rng(17)
        x = T.Tensor(rng.standard_normal((3, 4)), requires_grad=True)
        bias = T.Tensor(np.full(4, ATTENTION_MASK_BIAS))
        p = T.softmax(x + bias, axis=-1)
        assert np.isfinite(p.data).all()
        T.backward((p * T.Tensor(rng.standard_normal((3, 4)))).sum())
        assert np.isfinite(x.grad).all()

class TestLayerNorm:
    def test_constant_slice_maps_to_bias(self):
        g = T.Tensor(np.ones(3))
        b = T.Tensor(np.zeros(3))
        out = T.layer_norm(T.Tensor([5.0, 5.0, 5.0]), g, b)
        np.testing.assert_allclose(out.data, 0.0, atol=1e-12)

    def test_already_normalized_slice_nearly_unchanged(self):
        x = np.array([-1.0, 1.0])  # mean 0, population variance 1
        out = T.layer_norm(T.Tensor(x), T.Tensor(np.ones(2)), T.Tensor(np.zeros(2)))
        np.testing.assert_allclose(out.data, x, atol=1e-4)

    def test_gradient(self):
        rng = np.random.default_rng(4)
        x, g, b = rand(rng, 2, 8), rand(rng, 8), rand(rng, 8)
        w = rng.standard_normal((2, 8))
        errs = check_gradients(
            lambda: (T.layer_norm(x, g, b) * T.Tensor(w)).sum(), {"x": x, "g": g, "b": b}
        )
        assert max(errs.values()) < 1e-5

    def test_matches_the_composed_ops(self):
        """Against mean / centre / variance / rsqrt / affine as separate tape ops."""
        upstream = T.Tensor(np.random.default_rng(40).standard_normal((3, 4, 8)))

        def run(fused):
            rng = np.random.default_rng(41)
            x = T.Tensor(rng.standard_normal((3, 4, 8)) * 3 + 1, requires_grad=True)
            g, b = rand(rng, 8), rand(rng, 8)
            if fused:
                y = T.layer_norm(x, g, b)
            else:
                xc = x - T.reshape(T.tsum(x, axis=-1), (3, 4, 1)) * (1.0 / 8)
                var = T.reshape(T.tsum(xc * xc, axis=-1), (3, 4, 1)) * (1.0 / 8)
                y = xc * T.reciprocal(T.sqrt(var + 1e-5)) * g + b
            T.backward((y * upstream).sum())
            return [y.data, x.grad, g.grad, b.grad]

        for a, b in zip(run(True), run(False)):
            np.testing.assert_allclose(a, b, rtol=0, atol=1e-10)


class TestLinear:
    """The fused op against the matmul + add composition it replaced."""

    @pytest.mark.parametrize("shape", [(5, 6), (2, 3, 6)])
    def test_matches_matmul_plus_bias(self, shape):
        rng = np.random.default_rng(20)
        upstream = T.Tensor(rng.standard_normal(shape[:-1] + (4,)))

        def run(fused):
            x, w, b = rand(np.random.default_rng(21), *shape), rand(rng, 6, 4), rand(rng, 4)
            y = T.linear(x, w, b) if fused else T.matmul(x, w) + b
            T.backward((y * upstream).sum())
            return [y.data, x.grad, w.grad, b.grad]

        rng = np.random.default_rng(22)
        fused = run(True)
        rng = np.random.default_rng(22)
        for a, b in zip(fused, run(False)):
            np.testing.assert_allclose(a, b, rtol=0, atol=1e-10)

    def test_gradient(self):
        rng = np.random.default_rng(23)
        x, w, b = rand(rng, 2, 3, 5), rand(rng, 5, 4), rand(rng, 4)
        u = rng.standard_normal((2, 3, 4))
        errs = check_gradients(lambda: (T.linear(x, w, b) * T.Tensor(u)).sum(), {"x": x, "w": w, "b": b})
        assert max(errs.values()) < 1e-6

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            T.linear(T.Tensor(np.zeros((2, 3))), T.Tensor(np.zeros((4, 2))), T.Tensor(np.zeros(2)))
        with pytest.raises(ShapeError):
            T.linear(T.Tensor(np.zeros((2, 4))), T.Tensor(np.zeros((4, 2))), T.Tensor(np.zeros(3)))


def _composed_attention(q, k, v, heads, key_mask=None):
    """Reference: attention as the transpose/reshape/scale/matmul/mask-add/
    softmax/matmul/transpose/reshape chain of tape ops that the fused op
    replaced."""
    lead, dh = q.shape[:-2], q.shape[-1] // heads

    def split_t(x):  # (..., r, d) -> (..., heads, dh, r): head h is rows h*dh..(h+1)*dh of x.T
        return T.reshape(T.transpose(x), lead + (heads, dh, x.shape[-2]))

    scores = T.matmul(T.transpose(split_t(q * (1.0 / np.sqrt(dh)))), split_t(k))
    if key_mask is not None:
        bias = np.where(key_mask, 0.0, ATTENTION_MASK_BIAS)
        if bias.ndim >= 2:
            bias = np.expand_dims(bias, -3)
        scores = scores + T.Tensor(bias)
    attn = T.softmax(scores, axis=-1)
    out = T.transpose(T.matmul(attn, T.transpose(split_t(v))))  # (..., heads, dh, n)
    return T.transpose(T.reshape(out, lead + (q.shape[-1], q.shape[-2]))), attn.data


def _attention_cases():
    padded = np.ones((3, 1, 5), dtype=bool)
    padded[0, 0, 3:] = False
    padded[2, 0, :] = False  # every key of entry 2 is padding
    grid = np.tril(np.ones((5, 5), dtype=bool))
    grid[3] = False  # query row 3 sees only padding
    return {
        "self": ((5, 8), (5, 8), None),
        "padded": ((3, 5, 8), (3, 5, 8), padded),
        "causal": ((5, 8), (5, 8), np.tril(np.ones((5, 5), dtype=bool))),
        "all-padding-row": ((2, 5, 8), (2, 5, 8), grid),
        "kv-cross": ((4, 8), (6, 8), np.array([True, True, False, True, True, False])),
    }


class TestAttention:
    """The fused op against the composition above: values, weights and
    gradients of q, k and v within 1e-10."""

    @pytest.mark.parametrize("case", list(_attention_cases()))
    def test_matches_the_composed_ops(self, case):
        q_shape, kv_shape, mask = _attention_cases()[case]
        upstream = T.Tensor(np.random.default_rng(30).standard_normal(q_shape))

        def run(fused):
            rng = np.random.default_rng(31)
            q, k, v = rand(rng, *q_shape), rand(rng, *kv_shape), rand(rng, *kv_shape)
            if fused:
                bias = None if mask is None else np.where(mask, 0.0, ATTENTION_MASK_BIAS)
                out, weights = T.attention(q, k, v, 2, bias)
            else:
                out, weights = _composed_attention(q, k, v, 2, mask)
            T.backward((out * upstream).sum())
            return [out.data, weights, q.grad, k.grad, v.grad]

        fused, ref = run(True), run(False)
        assert fused[1].shape == ref[1].shape == q_shape[:-2] + (2, q_shape[-2], kv_shape[-2])
        for name, a, b in zip(["out", "weights", "dq", "dk", "dv"], fused, ref):
            assert np.isfinite(a).all(), name
            np.testing.assert_allclose(a, b, rtol=0, atol=1e-10, err_msg=name)

    def test_padded_keys_get_exactly_zero_weight(self):
        q_shape, kv_shape, mask = _attention_cases()["padded"]
        rng = np.random.default_rng(32)
        bias = np.where(mask, 0.0, ATTENTION_MASK_BIAS)
        q, k, v = rand(rng, *q_shape), rand(rng, *kv_shape), rand(rng, *kv_shape)
        _, weights = T.attention(q, k, v, 2, bias)
        T.reset_tape()
        assert (weights[0, ..., 3:] == 0.0).all()
        np.testing.assert_allclose(weights[2], 1 / 5, atol=1e-15)  # all padding: uniform
        assert not weights.flags.writeable

    def test_gradient(self):
        rng = np.random.default_rng(33)
        q, k, v = rand(rng, 2, 3, 4), rand(rng, 2, 5, 4), rand(rng, 2, 5, 4)
        bias = np.where(rng.random((2, 1, 5)) < 0.7, 0.0, ATTENTION_MASK_BIAS)
        bias[:, :, 0] = 0.0
        u = rng.standard_normal((2, 3, 4))
        errs = check_gradients(
            lambda: (T.attention(q, k, v, 2, bias)[0] * T.Tensor(u)).sum(), {"q": q, "k": k, "v": v}
        )
        assert max(errs.values()) < 1e-6

    def test_shape_mismatch_rejected(self):
        def zeros(*shape):
            return T.Tensor(np.zeros(shape))

        with pytest.raises(ShapeError):  # batch axes differ
            T.attention(zeros(2, 3, 4), zeros(3, 4), zeros(3, 4), 2)
        with pytest.raises(ShapeError):  # width 6 over 4 heads
            T.attention(zeros(3, 6), zeros(3, 6), zeros(3, 6), 4)


# packed rows 0..6 of two sequences, interleaved; 7 marks the padding
_GRID = np.array([[0, 4, 5, 7], [1, 2, 6, 3]])
_SEQUENCES = [[0, 4, 5], [1, 2, 6, 3]]


def _padded_then_packed(q, k, v, heads, grid):
    """Reference for packed attention: gather the rows into a zero-padded
    (B, L, d) batch, attend under the padding key mask, gather the real
    positions back."""
    n, d = q.shape
    zero = T.Tensor(np.zeros((1, d)))
    batch = [T.take_rows(T.concat_rows([x, zero]), grid) for x in (q, k, v)]
    real = grid < n
    out, weights = _composed_attention(*batch, heads, real[:, None, :])
    where = np.empty(n, dtype=np.intp)
    where[grid[real]] = np.flatnonzero(real)
    return T.take_rows(T.reshape(out, (-1, d)), where), weights


class TestPackedAttention:
    """``attention`` over packed (N, d) rows and a (B, L) row grid."""

    def test_matches_the_padded_composition(self):
        upstream = T.Tensor(np.random.default_rng(40).standard_normal((7, 8)))

        def run(packed):
            rng = np.random.default_rng(41)
            q, k, v = rand(rng, 7, 8), rand(rng, 7, 8), rand(rng, 7, 8)
            if packed:
                out, weights = T.attention(q, k, v, 2, grid=_GRID)
            else:
                out, weights = _padded_then_packed(q, k, v, 2, _GRID)
            T.backward((out * upstream).sum())
            return [out.data, weights, q.grad, k.grad, v.grad]

        packed, ref = run(True), run(False)
        assert packed[0].shape == (7, 8) and packed[1].shape == (2, 2, 4, 4)
        for name, a, b in zip(["out", "weights", "dq", "dk", "dv"], packed, ref):
            np.testing.assert_allclose(a, b, rtol=0, atol=1e-10, err_msg=name)

    def test_padding_gets_zero_weight_and_no_gradient(self):
        """Padded keys get exactly zero weight, and every sequence's output
        and gradients equal attention over that sequence alone."""
        rng = np.random.default_rng(42)
        q, k, v = rand(rng, 7, 8), rand(rng, 7, 8), rand(rng, 7, 8)
        upstream = rng.standard_normal((7, 8))
        out, weights = T.attention(q, k, v, 2, grid=_GRID)
        assert (weights[0, :, :, 3] == 0.0).all()
        T.backward((out * T.Tensor(upstream)).sum())
        packed = [out.data, q.grad, k.grad, v.grad]
        alone = [np.zeros((7, 8)) for _ in range(4)]
        for rows in _SEQUENCES:
            qs, ks, vs = (T.Tensor(x.data[rows], requires_grad=True) for x in (q, k, v))
            o, _ = T.attention(qs, ks, vs, 2)
            T.backward((o * T.Tensor(upstream[rows])).sum())
            for acc, part in zip(alone, [o.data, qs.grad, ks.grad, vs.grad]):
                acc[rows] = part
        for name, a, b in zip(["out", "dq", "dk", "dv"], packed, alone):
            np.testing.assert_allclose(a, b, rtol=0, atol=1e-12, err_msg=name)

    def test_gradient(self):
        rng = np.random.default_rng(43)
        q, k, v = rand(rng, 7, 4), rand(rng, 7, 4), rand(rng, 7, 4)
        u = rng.standard_normal((7, 4))
        errs = check_gradients(
            lambda: (T.attention(q, k, v, 2, grid=_GRID)[0] * T.Tensor(u)).sum(),
            {"q": q, "k": k, "v": v},
        )
        assert max(errs.values()) < 1e-6

    def test_packed_gradients_equal_the_padded_op_bit_for_bit(self):
        """The packed form runs the padded form's kernel body on the gathered
        rows, so its output and gradients are the padded op's, scattered back,
        to the bit; the adjoint saves no copy of the gathered q."""
        rng = np.random.default_rng(44)
        q, k, v = rand(rng, 7, 8), rand(rng, 7, 8), rand(rng, 7, 8)
        upstream = rng.standard_normal((7, 8))
        real = _GRID < 7
        where = np.empty(7, dtype=np.intp)
        where[_GRID[real]] = np.flatnonzero(real)

        def gather(a):
            out = np.zeros((_GRID.size, a.shape[-1]))
            out[where] = a
            return out.reshape(_GRID.shape + a.shape[-1:])

        out, _ = T.attention(q, k, v, 2, grid=_GRID)
        saved = [c.cell_contents for c in out._bw.__closure__]
        assert not any(
            isinstance(x, np.ndarray) and x.shape == (2, 4, 8) and np.array_equal(x, gather(q.data))
            for x in saved
        )
        T.backward((out * T.Tensor(upstream)).sum())
        qp, kp, vp = (T.Tensor(gather(x.data), requires_grad=True) for x in (q, k, v))
        bias = np.where(real, 0.0, ATTENTION_MASK_BIAS)[:, None, :]
        out_p, _ = T.attention(qp, kp, vp, 2, bias)
        T.backward((out_p * T.Tensor(gather(upstream))).sum())
        for name, a, b in zip(["out", "dq", "dk", "dv"], [out, q, k, v], [out_p, qp, kp, vp]):
            got, want = (a.data, b.data) if name == "out" else (a.grad, b.grad)
            np.testing.assert_array_equal(got, want.reshape(-1, 8)[where], err_msg=name)

    def test_malformed_grid_rejected(self):
        x = T.Tensor(np.zeros((3, 4)))
        for grid in ([[0, 1, 1]], [[0, 1, 3]], [[0, 1, 2, 4]], [[0, -1, 2]], [0, 1, 2]):
            with pytest.raises(ShapeError):
                T.attention(x, x, x, 2, grid=np.array(grid))
        with pytest.raises(ShapeError):  # the grid makes its own key mask
            T.attention(x, x, x, 2, np.zeros(3), grid=np.array([[0, 1, 2]]))
        with pytest.raises(ShapeError):  # packed rows are 2-D
            y = T.Tensor(np.zeros((1, 3, 4)))
            T.attention(y, y, y, 2, grid=np.array([[0, 1, 2]]))


def _query_rows_match_every_row(lengths, perm, rows, seed):
    """``attention`` with query ``rows`` equals ``take_rows`` of the op with
    every row querying, bit for bit: the output, dk, dv and the kept rows of
    dq.  ``perm`` splits into sequences of ``lengths`` packed rows."""
    n, d = sum(lengths), 8
    grid = T.row_grid(np.split(np.asarray(perm), np.cumsum(lengths)[:-1]), n)
    rows = np.asarray(rows, dtype=np.intp)
    rng = np.random.default_rng(seed)
    q, k, v = (rng.standard_normal((n, d)) for _ in range(3))
    upstream = T.Tensor(rng.standard_normal((len(rows), d)))

    def run(query_rows):
        qt = T.Tensor(q if query_rows is None else q[rows], requires_grad=True)
        kt, vt = T.Tensor(k, requires_grad=True), T.Tensor(v, requires_grad=True)
        out, _ = T.attention(qt, kt, vt, 2, grid=grid, rows=query_rows)
        if query_rows is None:
            out = T.take_rows(out, rows)
        T.backward((out * upstream).sum())
        dq = qt.grad if query_rows is not None or qt.grad is None else qt.grad[rows]
        return out.data, kt.grad, vt.grad, dq

    for name, got, want in zip(["out", "dk", "dv", "dq"], run(rows), run(None)):
        if name == "dq" and not len(rows):
            continue  # nothing queries, so nothing reaches q
        assert got.shape == want.shape and got.tobytes() == want.tobytes(), name


class TestQueryRows:
    """``attention`` with ``rows``: only those rows query, keys and values
    come from every row."""

    @given(data=st.data(), seed=st.integers(0, 2**32 - 1))
    def test_equals_the_kept_rows_of_every_row_querying(self, data, seed):
        lengths = data.draw(st.lists(st.integers(1, 9), min_size=1, max_size=4))
        perm = data.draw(st.permutations(range(sum(lengths))))
        rows = data.draw(st.lists(st.integers(0, sum(lengths) - 1), unique=True))
        _query_rows_match_every_row(lengths, perm, rows, seed)

    @pytest.mark.parametrize("lengths, perm, rows", [
        ([3, 4], range(7), [4, 5]),  # the first sequence has no query row
        ([3, 4], range(7), [1, 5, 6]),  # the first has one: a query grid of 2 slots
        ([2, 3], range(5), [3]),  # one query row in all
        ([3, 4, 2], [8, 2, 5, 0, 7, 1, 3, 6, 4], [6, 0, 3, 8, 1]),  # out of grid order
        ([3, 4], range(7), []),  # nothing queries
    ], ids=["sequence-without-queries", "one-query-row", "one-row-in-all", "out-of-order", "none"])
    def test_edge_cases(self, lengths, perm, rows):
        _query_rows_match_every_row(lengths, list(perm), rows, seed=48)

    def test_output_and_weights_cover_the_query_rows(self):
        rng = np.random.default_rng(49)
        q, kv = T.Tensor(rng.standard_normal((3, 8))), T.Tensor(rng.standard_normal((7, 8)))
        out, weights = T.attention(q, kv, kv, 2, grid=_GRID, rows=[6, 0, 2])
        # query grid: sequence 0 queries with row 0, sequence 1 with rows 2 and 6
        assert out.shape == (3, 8) and weights.shape == (2, 2, 2, 4)
        np.testing.assert_allclose(weights[0, :, 1, :3], 1 / 3)  # a padding query: even scores
        assert (weights[0, ..., 3] == 0.0).all()  # the padding key

    def test_malformed_rows_rejected(self):
        x = T.Tensor(np.zeros((3, 4)))
        grid = np.array([[0, 1, 2]])
        for rows in ([0, 3], [-1, 0], [[0, 1]], [1, 1]):
            with pytest.raises(ShapeError):
                T.attention(T.Tensor(np.zeros((2, 4))), x, x, 2, grid=grid, rows=rows)
        with pytest.raises(ShapeError):  # one q row per query row
            T.attention(x, x, x, 2, grid=grid, rows=[0, 1])
        with pytest.raises(UsageError):  # query rows index a grid
            T.attention(x, x, x, 2, rows=[0, 1, 2])


class TestRecordAttention:
    """``record_attention`` keeps the weights of each attention op run
    inside it, one entry per op."""

    def test_records_bias_form_weights_and_packed_grids_cut_to_length(self):
        rng = np.random.default_rng(45)
        q, k, v = (T.Tensor(rng.standard_normal((7, 8))) for _ in range(3))
        with T.record_attention() as ops:
            _, dense = T.attention(q, k, v, 2)
            _, packed = T.attention(q, k, v, 2, grid=_GRID)
        assert len(ops) == 2 and ops[0] is dense
        assert [g.shape for g in ops[1]] == [(2, 3, 3), (2, 4, 4)]
        np.testing.assert_array_equal(ops[1][0], packed[0, :, :3, :3])
        np.testing.assert_array_equal(ops[1][1], packed[1])

    def test_query_rows_record_each_sequence_cut_to_its_real_rows(self):
        rng = np.random.default_rng(51)
        q, kv = T.Tensor(rng.standard_normal((3, 8))), T.Tensor(rng.standard_normal((7, 8)))
        with T.record_attention() as ops:
            _, weights = T.attention(q, kv, kv, 2, grid=_GRID, rows=[6, 0, 2])
        assert [g.shape for g in ops[0]] == [(2, 1, 3), (2, 2, 4)]
        np.testing.assert_array_equal(ops[0][0], weights[0, :, :1, :3])

    def test_nested_recorder_restores_the_outer_one(self):
        x = T.Tensor(np.random.default_rng(46).standard_normal((3, 4)))
        with T.record_attention() as outer:
            T.attention(x, x, x, 2)
            with T.record_attention() as inner:
                T.attention(x, x, x, 2)
            with pytest.raises(RuntimeError), T.record_attention() as failed:
                T.attention(x, x, x, 2)
                raise RuntimeError("the body failed")
            T.attention(x, x, x, 2)
        assert (len(outer), len(inner), len(failed)) == (2, 1, 1)

    def test_nothing_is_kept_outside_a_recorder(self):
        x = T.Tensor(np.random.default_rng(47).standard_normal((3, 4)))
        with T.record_attention() as ops:
            pass
        T.attention(x, x, x, 2)
        assert ops == [] and T._ATTENTION_RECORD is None


class TestCrossEntropy:
    def test_uniform_logits(self):
        out = T.cross_entropy(T.Tensor(np.zeros((3, 7))), [0, 3, 6])
        assert out.item() == pytest.approx(math.log(7), abs=1e-12)

    def test_saturated_true_class(self):
        logits = np.zeros((1, 4))
        logits[0, 2] = 50.0
        assert T.cross_entropy(T.Tensor(logits), [2]).item() < 1e-20

    def test_hand_case(self):
        # direct evaluation: -log(e^3 / (e^1 + e^2 + e^3))
        expected = -math.log(math.exp(3) / (math.exp(1) + math.exp(2) + math.exp(3)))
        out = T.cross_entropy(T.Tensor([[1.0, 2.0, 3.0]]), [2])
        assert out.item() == pytest.approx(expected, abs=1e-12)
        assert out.item() == pytest.approx(0.40761, abs=1e-5)

    def test_label_out_of_range(self):
        with pytest.raises(IndexError):
            T.cross_entropy(T.Tensor(np.zeros((2, 3))), [0, 3])

    def test_gradient(self):
        rng = np.random.default_rng(5)
        x = rand(rng, 5, 4)
        errs = check_gradients(lambda: T.cross_entropy(x, [0, 1, 2, 3, 0]), {"x": x})
        assert errs["x"] < FD_TOL


    def test_weighted_rows_are_a_weighted_sum(self):
        rng = np.random.default_rng(19)
        x = rand(rng, 5, 4)
        labels, weights = [0, 1, 2, 3, 0], np.array([0.5, 0.1, 0.0, 0.25, 0.15])
        nll = [T.cross_entropy(T.Tensor(x.data[i : i + 1]), [labels[i]]).item() for i in range(5)]
        out = T.cross_entropy(x, labels, weights)
        assert out.item() == pytest.approx(float(weights @ nll), abs=1e-12)
        uniform = T.cross_entropy(T.Tensor(x.data), labels, np.full(5, 0.2)).item()
        assert uniform == pytest.approx(T.cross_entropy(T.Tensor(x.data), labels).item(), abs=1e-15)
        errs = check_gradients(lambda: T.cross_entropy(x, labels, weights), {"x": x})
        assert errs["x"] < FD_TOL
        with pytest.raises(ShapeError):
            T.cross_entropy(x, labels, weights[:4])


class TestConv1d:
    def test_unit_kernel_is_identity(self):
        x = T.Tensor([1.0, -2.0, 3.0])
        out = T.conv1d(x, T.Tensor([1.0]))
        np.testing.assert_array_equal(out.data, x.data)

    def test_delta_kernel(self):
        out = T.conv1d(T.Tensor([1.0, 2.0, 3.0]), T.Tensor([0.0, 1.0, 0.0]))
        np.testing.assert_array_equal(out.data, [1.0, 2.0, 3.0])

    def test_hand_cross_correlation_with_zero_pads(self):
        out = T.conv1d(T.Tensor([1.0, 2.0, 3.0, 4.0]), T.Tensor([1.0, 1.0, 1.0]))
        np.testing.assert_array_equal(out.data, [3.0, 6.0, 9.0, 7.0])

    def test_even_kernel_rejected(self):
        with pytest.raises(ConfigError):
            T.conv1d(T.Tensor(np.zeros(4)), T.Tensor(np.zeros(2)))

    def test_gradient(self):
        rng = np.random.default_rng(6)
        x, k = rand(rng, 9), rand(rng, 5)
        w = rng.standard_normal(9)
        errs = check_gradients(lambda: (T.conv1d(x, k) * T.Tensor(w)).sum(), {"x": x, "k": k})
        assert max(errs.values()) < FD_TOL

    @pytest.mark.parametrize("shape, k", [((9,), 5), ((3, 9), 5), ((2, 3, 7), 3), ((2, 1, 4), 5)])
    def test_matches_the_window_loop(self, shape, k):
        """Along the last axis, value and both gradients equal the
        per-position loop applied to each signal (within 1e-12)."""
        rng = np.random.default_rng(16)
        x, kernel = rand(rng, *shape), rand(rng, k)
        w = rng.standard_normal(shape)
        T.backward((T.conv1d(x, kernel) * T.Tensor(w)).sum())
        got = (T.conv1d(T.Tensor(x.data), kernel).data, x.grad, kernel.grad)
        x.grad = kernel.grad = None
        w_rows = w.reshape(-1, shape[-1])
        rows = T.reshape(x, w_rows.shape)
        outs = [
            loop_conv1d(T.reshape(T.take_rows(rows, [r]), (-1,)), kernel)
            for r in range(len(w_rows))
        ]
        terms = [(o * T.Tensor(wr)).sum() for o, wr in zip(outs, w_rows)]
        T.backward(sum(terms[1:], terms[0]))
        want = np.stack([o.data for o in outs]).reshape(shape), x.grad, kernel.grad
        for a, b in zip(got, want):
            np.testing.assert_allclose(a, b, rtol=0, atol=1e-12)

    def test_batched_gradient(self):
        rng = np.random.default_rng(17)
        x, k = rand(rng, 2, 3, 6), rand(rng, 5)
        w = rng.standard_normal((2, 3, 6))
        errs = check_gradients(lambda: (T.conv1d(x, k) * T.Tensor(w)).sum(), {"x": x, "k": k})
        assert max(errs.values()) < FD_TOL

    @given(
        lead=st.lists(st.integers(1, 6), max_size=2),
        n=st.integers(1, 45),
        half=st.integers(0, 10),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_taps_equal_the_window_product_bit_for_bit(self, lead, n, half, seed):
        """Value, input gradient and kernel gradient of the tap-by-tap
        correlation equal ``np.pad``'s sliding windows times the kernel."""
        rng = np.random.default_rng(seed)
        x0, k0 = rng.standard_normal((*lead, n)), rng.standard_normal(2 * half + 1)
        w = T.Tensor(rng.standard_normal((*lead, n)))
        outs = []
        for conv in (T.conv1d, window_conv1d):
            x, kernel = T.Tensor(x0, requires_grad=True), T.Tensor(k0, requires_grad=True)
            y = conv(x, kernel)
            T.backward((y * w).sum())
            outs.append((y.data, x.grad, kernel.grad))
        for got, want in zip(*outs):
            assert got.shape == want.shape and got.tobytes() == want.tobytes()


class TestBackward:
    def test_sum_grad_is_ones(self):
        x = T.Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        T.backward(x.sum())
        np.testing.assert_array_equal(x.grad, np.ones((2, 3)))

    def test_half_squared_norm_grad_is_x(self):
        rng = np.random.default_rng(7)
        x = rand(rng, 5)
        T.backward((0.5 * (x * x)).sum())
        np.testing.assert_allclose(x.grad, x.data, atol=1e-12)

    def test_non_scalar_loss_rejected(self):
        x = T.Tensor(np.ones(3), requires_grad=True)
        with pytest.raises(UsageError):
            T.backward(x * 2.0)
        T.reset_tape()

    def test_each_recorded_op_visited_once(self):
        # reusing one intermediate twice must accumulate, not double-visit
        x = T.Tensor([2.0], requires_grad=True)
        y = x * 3.0
        T.backward((y * y).sum())
        np.testing.assert_allclose(x.grad, [2 * 3.0 * 3.0 * 2.0])  # d/dx (3x)^2 = 18x

    def test_tape_cleared_after_backward(self):
        x = T.Tensor(np.ones(3), requires_grad=True)
        T.backward((x * x).sum())
        assert T.tape_size() == 0

    def test_no_grad_suppresses_taping(self):
        x = T.Tensor(np.ones(3), requires_grad=True)
        with T.no_grad():
            y = (x * x).sum()
        assert T.tape_size() == 0
        with pytest.raises(UsageError):
            T.backward(y)


class TestGelu:
    def test_matches_the_cubic_formula(self):
        x = np.linspace(-8.0, 8.0, 401)
        c = math.sqrt(2.0 / math.pi)
        expected = 0.5 * x * (1.0 + np.tanh(c * (x + 0.044715 * x**3)))
        np.testing.assert_allclose(T.gelu(T.Tensor(x)).data, expected, rtol=0, atol=1e-12)

    def test_gradient_matches_the_cubic_formula(self):
        x = T.Tensor(np.linspace(-8.0, 8.0, 401), requires_grad=True)
        T.backward(T.gelu(x).sum())
        c = math.sqrt(2.0 / math.pi)
        t = np.tanh(c * (x.data + 0.044715 * x.data**3))
        expected = 0.5 * (1.0 + t) + 0.5 * x.data * (1.0 - t**2) * c * (1.0 + 3 * 0.044715 * x.data**2)
        np.testing.assert_allclose(x.grad, expected, rtol=0, atol=1e-12)


    def test_batched_gradient_matches_the_cubic_formula(self):
        rng = np.random.default_rng(42)
        x = T.Tensor(rng.standard_normal((2, 3, 16)) * 3, requires_grad=True)
        u = rng.standard_normal((2, 3, 16))
        T.backward((T.gelu(x) * T.Tensor(u)).sum())
        c, xd = math.sqrt(2.0 / math.pi), x.data
        t = np.tanh(c * (xd + 0.044715 * xd**3))
        local = 0.5 * (1.0 + t) + 0.5 * xd * (1.0 - t**2) * c * (1.0 + 3 * 0.044715 * xd**2)
        np.testing.assert_allclose(x.grad, u * local, rtol=0, atol=1e-10)


class TestDropout:
    def test_boolean_mask_matches_the_float_mask_bit_for_bit(self):
        """The float mask of 0 and 1 / (1 - rate) gives the bytes of the
        boolean mask's (a * keep) * scale and (g * keep) * scale, signed
        zeros included."""
        rate = 0.3
        x0 = rand(np.random.default_rng(50), 6, 8).data
        x0[0, :4] = [0.0, -0.0, -1.5, 2.0]
        g = np.random.default_rng(51).standard_normal((6, 8))
        g[1, :2] = [-0.0, 0.0]
        outs = []
        for drop in (T.dropout, ref_dropout):
            x = T.Tensor(x0, requires_grad=True)
            y = drop(x, rate, np.random.default_rng(52))
            T.backward((y * T.Tensor(g)).sum())
            outs.append((y.data, x.grad))
        for got, want in zip(*outs):
            assert got.tobytes() == want.tobytes()
        y = outs[0][0]
        assert (y == 0.0).any() and np.signbit(y[y == 0.0]).any()

    @given(
        n=st.integers(1, 12),
        width=st.integers(1, 5),
        picks=st.lists(st.integers(0, 11), unique=True, max_size=12),
        rate=st.floats(0.05, 0.9),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_kept_rows_draw_the_full_mask(self, n, width, picks, rate, seed):
        """With ``rows``, the output, the adjoint and the generator's next
        draw are those of the reference dropout on all n rows, read at
        ``rows``."""
        rows = np.array([p for p in picks if p < n], dtype=np.intp)
        data = np.random.default_rng(seed).standard_normal((n, width))
        g = np.random.default_rng(seed + 1).standard_normal((n, width))
        full_rng, kept_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        x_full = T.Tensor(data, requires_grad=True)
        full = ref_dropout(x_full, rate, full_rng)
        T.backward((full * T.Tensor(np.where(np.isin(np.arange(n), rows)[:, None], g, 0.0))).sum())
        x = T.Tensor(data[rows], requires_grad=True)
        kept = T.dropout(x, rate, kept_rng, rows=rows, n_rows=n)
        T.backward((kept * T.Tensor(g[rows])).sum())
        assert kept.data.tobytes() == full.data[rows].tobytes()
        assert x.grad.tobytes() == x_full.grad[rows].tobytes()
        assert kept_rng.random() == full_rng.random()

    def test_identity_without_rate_or_rng(self):
        x = rand(np.random.default_rng(53), 3, 4)
        assert T.dropout(x, 0.0, np.random.default_rng(0)) is x
        assert T.dropout(x, 0.5, None) is x
        with pytest.raises(ConfigError):
            T.dropout(x, 1.0, np.random.default_rng(0))


class TestTapeInvariants:
    def test_untracked_operands_get_no_adjoint(self, monkeypatch):
        reached = []
        accum = T._accum
        monkeypatch.setattr(T, "_accum", lambda t, g: (reached.append(t), accum(t, g)))
        rng = np.random.default_rng(43)
        x, w, b = rand(rng, 4, 6), rand(rng, 6, 6), rand(rng, 6)
        features = T.Tensor(rng.standard_normal((4, 6)))  # input features: off the tape
        mask = T.Tensor(np.where(rng.random((4, 6)) < 0.5, 0.0, ATTENTION_MASK_BIAS))
        scale = T.Tensor(0.5)
        h = T.linear(features, w, b) + T.matmul(x, w) * scale + mask
        kv = T.concat_rows([h, features])
        out, _ = T.attention(h, kv, kv, 2)
        out2, _ = T.attention(h, features, h, 2)
        T.backward(out.sum() + out2.sum())
        assert reached and all(t._track for t in reached)
        assert features.grad is None and mask.grad is None and scale.grad is None

    def test_backward_never_writes_an_upstream_gradient(self):
        rng = np.random.default_rng(44)
        u = rng.standard_normal((2, 3))
        x = rand(rng, 2, 3)
        y = x + x
        z = T.reshape(T.reshape(x, (3, 2)), (2, 3)) + x
        T.backward((y * T.Tensor(u)).sum() + (z * T.Tensor(u)).sum())
        np.testing.assert_array_equal(y.grad, u)
        np.testing.assert_array_equal(z.grad, u)
        np.testing.assert_array_equal(x.grad, 4 * u)


class TestElementwiseGradients:
    @pytest.mark.parametrize(
        "name,fn",
        [
            ("relu", T.relu),
            ("gelu", T.gelu),
            ("neg", T.neg),
            ("log_softmax", T.log_softmax),
        ],
    )
    def test_unary_ops(self, name, fn):
        rng = np.random.default_rng(hash(name) % 2**32)
        x = rand(rng, 3, 5)
        w = rng.standard_normal((3, 5))
        errs = check_gradients(lambda: (fn(x) * T.Tensor(w)).sum(), {"x": x})
        assert errs["x"] < FD_TOL, name

    def test_sqrt(self):
        rng = np.random.default_rng(11)
        x = T.Tensor(rng.uniform(0.5, 3.0, size=6), requires_grad=True)
        errs = check_gradients(lambda: T.sqrt(x).sum(), {"x": x})
        assert errs["x"] < FD_TOL

    def test_broadcast_add_mul(self):
        rng = np.random.default_rng(12)
        a, b = rand(rng, 4, 3), rand(rng, 3)
        errs = check_gradients(lambda: ((a + b) * b).sum(), {"a": a, "b": b})
        assert max(errs.values()) < FD_TOL

    def test_take_and_concat(self):
        rng = np.random.default_rng(13)
        a, b = rand(rng, 4, 3), rand(rng, 2, 3)
        w = rng.standard_normal((4, 3))

        def loss():
            cat = T.concat_rows([a, b])
            picked = T.take_rows(cat, [0, 5, 2, 0])  # repeated index exercises scatter-add
            return (T.take_rows(cat, [1, 2, 3, 4]) * T.Tensor(w)).sum() + picked.sum()

        errs = check_gradients(loss, {"a": a, "b": b})
        assert max(errs.values()) < FD_TOL

    def test_slice_rows(self):
        rng = np.random.default_rng(16)
        a = rand(rng, 5, 3)
        w = rng.standard_normal((2, 3))
        np.testing.assert_array_equal(T.slice_rows(a, 1, 3).data, a.data[1:3])
        errs = check_gradients(lambda: (T.slice_rows(a, 1, 3) * T.Tensor(w)).sum(), {"a": a})
        assert errs["a"] < FD_TOL

    def test_exp_of_log_softmax_is_softmax(self):
        x = T.Tensor(np.random.default_rng(17).standard_normal((3, 6)) * 20)
        np.testing.assert_allclose(
            np.exp(T.log_softmax(x).data), T.softmax(x, axis=-1).data, rtol=0, atol=1e-15
        )

    @pytest.mark.parametrize("idx", [
        [3, 0, 3, 7, 3, 1, 0],  # repeated and unsorted
        [[2, 5, 2], [0, 5, 9], [9, 9, 1]],  # 2-D, as mnce's candidate matrix
        [-1, 9, 4],  # a negative index and its positive twin
        np.zeros((0,), dtype=int),
    ], ids=["repeated", "2d", "negative", "empty"])
    def test_take_rows_adjoint_matches_add_at(self, idx):
        rng = np.random.default_rng(18)
        a = rand(rng, 10, 4)
        idx = np.asarray(idx, dtype=np.intp)
        g = rng.standard_normal(idx.shape + (4,))
        T.backward((T.take_rows(a, idx) * T.Tensor(g)).sum())
        ref = np.zeros((10, 4))
        np.add.at(ref, idx, g)  # the element-at-a-time scatter-add reference
        np.testing.assert_allclose(a.grad, ref, rtol=0, atol=1e-12)

    def test_embedding_lookup(self):
        rng = np.random.default_rng(14)
        table = rand(rng, 6, 4)
        errs = check_gradients(lambda: T.take_rows(table, [0, 2, 2, 5]).sum(), {"t": table})
        assert errs["t"] < FD_TOL

    def test_vmax_routes_to_argmax(self):
        x = T.Tensor([1.0, 5.0, 3.0], requires_grad=True)
        T.backward(T.vmax(x, axis=0))
        np.testing.assert_array_equal(x.grad, [0.0, 1.0, 0.0])

    @pytest.mark.parametrize("axis", [0, 1, -1])
    def test_vmax_along_an_axis(self, axis):
        rng = np.random.default_rng(18)
        x = rand(rng, 3, 4, 5)
        w = rng.standard_normal(np.delete(x.shape, axis % 3))
        np.testing.assert_array_equal(T.vmax(x, axis).data, x.data.max(axis=axis))
        errs = check_gradients(lambda: (T.vmax(x, axis) * T.Tensor(w)).sum(), {"x": x})
        assert errs["x"] < FD_TOL

    def test_vmax_ties_route_to_the_first_argmax(self):
        x = T.Tensor([[2.0, 7.0], [2.0, 7.0], [1.0, 0.0]], requires_grad=True)
        T.backward(T.vmax(x, axis=0).sum())
        np.testing.assert_array_equal(x.grad, [[1.0, 1.0], [0.0, 0.0], [0.0, 0.0]])
        with pytest.raises(ShapeError):
            T.vmax(T.Tensor(np.zeros((2, 0))), axis=1)

    def test_reshape_gradient(self):
        rng = np.random.default_rng(15)
        x = rand(rng, 2, 6)
        w = T.Tensor(rng.standard_normal((3, 4)))
        errs = check_gradients(lambda: (T.reshape(x, (3, 4)) * w).sum(), {"x": x})
        assert errs["x"] < FD_TOL


class TestDeterminism:
    def test_kernels_bit_identical_across_runs(self):
        def run():
            rng = np.random.default_rng(99)
            x = T.Tensor(rng.standard_normal((4, 8)), requires_grad=True)
            g = T.Tensor(rng.standard_normal(8), requires_grad=True)
            b = T.Tensor(rng.standard_normal(8), requires_grad=True)
            y = T.layer_norm(T.gelu(x), g, b)
            loss = T.cross_entropy(y, [0, 1, 2, 3])
            T.backward(loss)
            return loss.item(), x.grad.copy()

        l1, g1 = run()
        l2, g2 = run()
        assert l1 == l2
        np.testing.assert_array_equal(g1, g2)

    def test_all_kernel_outputs_finite(self):
        rng = np.random.default_rng(16)
        x = T.Tensor(rng.standard_normal((6, 6)) * 100)
        outs = [
            T.softmax(x).data,
            T.log_softmax(x).data,
            T.gelu(x).data,
            T.layer_norm(x, T.Tensor(np.ones(6)), T.Tensor(np.zeros(6))).data,
        ]
        for o in outs:
            assert np.isfinite(o).all()
        T.reset_tape()


class TestAdamW:
    def _param(self, values):
        return {"p": T.Tensor(np.asarray(values, dtype=np.float64), requires_grad=True)}

    def test_zero_grad_no_decay_leaves_params(self):
        params = self._param([1.0, -2.0])
        opt = T.AdamW(params, lr=0.1, weight_decay=0.0)
        params["p"].grad = np.zeros(2)
        opt.step()
        np.testing.assert_array_equal(params["p"].data, [1.0, -2.0])

    def test_decoupled_decay_with_zero_grad(self):
        params = self._param([1.0, -2.0])
        opt = T.AdamW(params, lr=0.1, weight_decay=0.5)
        params["p"].grad = np.zeros(2)
        opt.step()
        np.testing.assert_allclose(params["p"].data, np.array([1.0, -2.0]) * (1 - 0.1 * 0.5))

    def test_three_steps_match_hand_unrolled_recurrence(self):
        lr, wd, b1, b2, eps = 0.01, 0.1, 0.9, 0.999, 1e-8
        grad = 0.3
        params = self._param([1.5])
        opt = T.AdamW(params, lr=lr, weight_decay=wd)

        # independent scalar unroll of the decoupled-decay recurrence
        p, m, v = 1.5, 0.0, 0.0
        for t in range(1, 4):
            m = b1 * m + (1 - b1) * grad
            v = b2 * v + (1 - b2) * grad * grad
            mhat = m / (1 - b1**t)
            vhat = v / (1 - b2**t)
            p = p - lr * (mhat / (math.sqrt(vhat) + eps) + wd * p)

        for _ in range(3):
            params["p"].grad = np.array([grad])
            opt.step()
        assert params["p"].data[0] == pytest.approx(p, abs=1e-15)

    def test_nonpositive_lr_rejected(self):
        with pytest.raises(ConfigError):
            T.AdamW(self._param([1.0]), lr=0.0)

    @pytest.mark.parametrize("bad", [np.ones(1), np.ones((3, 2))], ids=["broadcastable", "transposed"])
    def test_misshapen_moment_rejected_before_any_is_loaded(self, bad):
        params = {"p": T.Tensor(np.ones(4), requires_grad=True),
                  "q": T.Tensor(np.ones((2, 3)), requires_grad=True)}
        opt = T.AdamW(params, lr=0.1)
        arrays = {k: np.full_like(a, 0.5) for k, a in opt.state_arrays().items()}
        arrays["adam.v.q"] = bad
        with pytest.raises(DataError, match=r"'adam\.v\.q' has shape"):
            opt.load_state_arrays(arrays, 7)
        assert opt.step_count == 0
        for buf in opt.state_arrays().values():
            np.testing.assert_array_equal(buf, 0.0)


def _copies(params):
    """Reference parameters (same values and gradients) and zero moments."""
    ref = {}
    for name, p in params.items():
        ref[name] = T.Tensor(p.data.copy())
        ref[name].grad = p.grad
    m = {name: np.zeros_like(p.data) for name, p in ref.items()}
    v = {name: np.zeros_like(p.data) for name, p in ref.items()}
    return ref, m, v


def _assert_bytes_equal(opt, params, ref, m, v):
    for name, p in params.items():
        for got, want in ((p.data, ref[name].data), (opt.m[name], m[name]), (opt.v[name], v[name])):
            assert got.shape == want.shape and got.tobytes() == want.tobytes(), name


_SHAPES = st.one_of(
    st.just(()),
    st.tuples(st.integers(1, 7)),
    st.tuples(st.integers(1, 5), st.integers(1, 5)),
    st.sampled_from([(T._ADAMW_CHUNK - 1,), (T._ADAMW_CHUNK + 1,), (129, 128)]),
)
_GRAD_KINDS = st.sampled_from(["dense", "none", "broadcast", "transposed"])


def _grad(rng, kind, shape):
    if kind == "none":
        return None
    if kind == "broadcast":  # read-only, stride 0 along the leading axes
        return np.broadcast_to(rng.standard_normal(shape[-1:]), shape)
    if kind == "transposed":
        return np.asarray(rng.standard_normal(shape[::-1])).T
    return rng.standard_normal(shape)


@given(
    shapes=st.lists(_SHAPES, min_size=1, max_size=5),
    steps=st.lists(st.lists(_GRAD_KINDS, min_size=5, max_size=5), min_size=1, max_size=3),
    lr=st.floats(1e-4, 1.0),
    weight_decay=st.floats(0.0, 0.5),
    seed=st.integers(0, 2**32 - 1),
)
def test_flat_adamw_is_bytes_equal_to_the_per_array_loop(shapes, steps, lr, weight_decay, seed):
    rng = np.random.default_rng(seed)
    params = {f"p{i}": T.Tensor(rng.standard_normal(s), requires_grad=True) for i, s in enumerate(shapes)}
    opt = T.AdamW(params, lr=lr, weight_decay=weight_decay)
    ref, m, v = _copies(params)
    for t, kinds in enumerate(steps, start=1):
        for (name, p), kind in zip(params.items(), kinds):
            p.grad = ref[name].grad = _grad(rng, kind, p.data.shape)
        opt.step()
        loop_adamw_step(ref, m, v, t, lr, weight_decay)
    _assert_bytes_equal(opt, params, ref, m, v)


class TestAdamWBuffers:
    """The flat buffers are the optimizer's own: what a caller took out
    keeps its bytes, and what a caller put into ``p.data`` is what the next
    step reads."""

    def _setup(self):
        params = {
            "w": T.Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True),
            "b": T.Tensor(np.ones(3), requires_grad=True),
        }
        for p in params.values():
            p.grad = np.full_like(p.data, 0.5)
        return params, T.AdamW(params, lr=0.1, weight_decay=0.01)

    def test_state_arrays_keep_their_bytes_across_a_step(self):
        _, opt = self._setup()
        opt.step()
        state = opt.state_arrays()
        before = {k: a.copy() for k, a in state.items()}
        opt.step()
        for k, a in state.items():
            assert a.tobytes() == before[k].tobytes(), k
        assert not np.array_equal(opt.state_arrays()["adam.m.w"], before["adam.m.w"])

    def test_held_parameter_array_keeps_its_bytes(self):
        params, opt = self._setup()
        opt.step()
        held = params["w"].data
        before = held.copy()
        opt.step()
        assert held.tobytes() == before.tobytes()
        assert not np.array_equal(params["w"].data, before)

    @pytest.mark.parametrize("steps_before", [0, 2])
    def test_reassigned_parameter_is_the_one_updated(self, steps_before):
        params, opt = self._setup()
        ref, m, v = _copies(params)
        for t in range(1, steps_before + 1):
            opt.step()
            loop_adamw_step(ref, m, v, t, 0.1, 0.01)
        params["w"].data = np.full((2, 3), 7.0)
        ref["w"].data = np.full((2, 3), 7.0)
        opt.step()
        loop_adamw_step(ref, m, v, steps_before + 1, 0.1, 0.01)
        _assert_bytes_equal(opt, params, ref, m, v)

    def test_in_place_write_to_a_parameter_is_read(self):
        params, opt = self._setup()
        ref, m, v = _copies(params)
        opt.step()
        loop_adamw_step(ref, m, v, 1, 0.1, 0.01)
        params["b"].data[1] = 3.0
        ref["b"].data[1] = 3.0
        opt.step()
        loop_adamw_step(ref, m, v, 2, 0.1, 0.01)
        _assert_bytes_equal(opt, params, ref, m, v)

    def test_loaded_state_is_copied_in(self):
        params, opt = self._setup()
        arrays = {k: np.full_like(a, 0.25) for k, a in opt.state_arrays().items()}
        opt.load_state_arrays(arrays, 4)
        for a in arrays.values():
            a[...] = -1.0  # the caller reuses its arrays
        ref, m, v = _copies(params)
        m = {name: np.full_like(a, 0.25) for name, a in m.items()}
        v = {name: np.full_like(a, 0.25) for name, a in v.items()}
        opt.step()
        loop_adamw_step(ref, m, v, 5, 0.1, 0.01)
        _assert_bytes_equal(opt, params, ref, m, v)


class TestGradcheckHelper:
    def test_numeric_grad_matches_known_derivative(self):
        x = T.Tensor([2.0], requires_grad=True)
        num = numeric_grad(lambda: (x * x).sum(), x)
        np.testing.assert_allclose(num, [4.0], atol=1e-6)

    def test_max_rel_err_ignores_skipped_coords(self):
        ana = np.array([1.0, 2.0])
        num = np.array([1.0, np.nan])
        assert max_rel_err(ana, num) == 0.0


class TestTrainStep:
    def test_step_matches_the_manual_sequence(self):
        def run(manual):
            p = T.Tensor(np.array([1.0, -2.0]), requires_grad=True)
            opt = T.AdamW({"p": p}, lr=0.1)
            if manual:
                T.zero_grads([p])
                loss = (p * p).sum()
                value = loss.item()
                T.backward(loss)
                opt.step()
            else:
                value = T.train_step(opt, lambda: (p * p).sum())
            return value, p.data.copy()

        assert run(True)[0] == run(False)[0] == 5.0
        np.testing.assert_array_equal(run(True)[1], run(False)[1])

    def test_raising_loss_clears_the_tape_and_skips_the_update(self):
        p = T.Tensor(np.array([1.0, -2.0]), requires_grad=True)
        opt = T.AdamW({"p": p}, lr=0.1)

        def failing_loss():
            (p * p).sum()
            raise ValueError("forward failed")

        with pytest.raises(ValueError):
            T.train_step(opt, failing_loss)
        assert T.tape_size() == 0
        assert opt.step_count == 0
        np.testing.assert_array_equal(p.data, [1.0, -2.0])
