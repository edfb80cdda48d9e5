"""Dense float64 tensors with reverse-mode automatic differentiation.

Every differentiable operation records itself on a module-level tape as it
executes.  ``backward(loss)`` walks that tape once, in reverse execution
order, accumulating adjoints into ``.grad`` buffers, and releases the graph
as it goes: each op leaves the tape and is unlinked before its adjoint runs,
so activations, saved arrays and intermediate gradients are freed during
the walk instead of all at its end.  A graph can be walked once, and
afterwards an intermediate keeps its ``.grad`` only if the caller holds it.
All kernels are pure numpy and deterministic: identical inputs give
bit-identical outputs.

The transformer's hot paths are fused ops with hand-written adjoints:
``linear`` (one GEMM plus bias), ``attention`` (head split, scale, key mask,
softmax and value product for all heads) and the single-pass ``layer_norm``
and ``gelu``.  ``attention`` also takes packed rows with a row grid, so
every other op of a transformer runs on real rows only and only attention
sees padding.  A stack's last block may run on just the rows its caller
reads: ``attention`` then takes those rows as its only queries, while keys
and values still come from every row, and the sublayers after it run on
rows gathered by ``take_rows``.  ``dropout`` then draws its mask for every
row and indexes it by those rows, so the kept rows and the random stream
are those of the full-row pass.  An op computes no adjoint for an operand
that is off the tape (constants, input features).

Gradients are never written in place.  ``.grad`` adopts the first adjoint
array it receives, which may be a read-only view shared with another
tensor's gradient, and later adjoints are added out of place; adjoint
functions likewise only read their upstream gradient.
"""

from __future__ import annotations

import math
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import ConfigError, DataError, ShapeError, UsageError

# Ordered record of op outputs from the current forward pass(es).  Reverse
# iteration over this list visits each recorded operation exactly once,
# newest first, which is what the adjoint sweep needs.
_TAPE: list["Tensor"] = []
_GRAD_ENABLED: bool = True
_ATTENTION_RECORD: list | None = None  # the innermost ``record_attention`` list


class no_grad:
    """Context manager that disables taping (evaluation / frozen passes)."""

    def __enter__(self):
        global _GRAD_ENABLED
        self._prev = _GRAD_ENABLED
        _GRAD_ENABLED = False
        return self

    def __exit__(self, *exc):
        global _GRAD_ENABLED
        _GRAD_ENABLED = self._prev
        return False


class record_attention:
    """Context manager that keeps the weights of every ``attention`` op run
    inside it in the list it yields, one entry per op (see ``attention``).
    An inner recorder keeps its own ops and restores the outer one."""

    def __enter__(self) -> list:
        global _ATTENTION_RECORD
        self._prev, _ATTENTION_RECORD = _ATTENTION_RECORD, []
        return _ATTENTION_RECORD

    def __exit__(self, *exc):
        global _ATTENTION_RECORD
        _ATTENTION_RECORD = self._prev
        return False


def recording_attention() -> bool:
    """Whether an ``attention`` op run now records its weights."""
    return _ATTENTION_RECORD is not None


def tape_size() -> int:
    return len(_TAPE)


def reset_tape() -> None:
    """Drop any recorded operations without running a backward pass."""
    for t in _TAPE:
        t._bw = None
        t._parents = ()
    _TAPE.clear()


class Tensor:
    """A dense float64 array that can participate in the gradient tape."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_bw", "_track")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self._parents: tuple[Tensor, ...] = ()
        self._bw: Callable[[np.ndarray], None] | None = None
        self._track = requires_grad

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def item(self) -> float:
        return float(self.data.reshape(-1)[0])

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{flag})"

    # -- arithmetic ------------------------------------------------------

    def __add__(self, other):
        return add(self, _as_tensor(other))

    __radd__ = __add__

    def __sub__(self, other):
        return add(self, neg(_as_tensor(other)))

    def __neg__(self):
        return neg(self)

    def __mul__(self, other):
        return mul(self, _as_tensor(other))

    __rmul__ = __mul__

    def sum(self, axis=None):
        return tsum(self, axis=axis)


def _as_tensor(x) -> Tensor:
    if isinstance(x, Tensor):
        return x
    return Tensor(np.asarray(x, dtype=np.float64))


def _make(data: np.ndarray, parents: tuple[Tensor, ...], bw: Callable[[np.ndarray], None]) -> Tensor:
    """Wrap an op result, recording it on the tape when gradients can flow."""
    out = Tensor(data)
    if _GRAD_ENABLED and any(p._track for p in parents):
        out._parents = parents
        out._bw = bw
        out._track = True
        _TAPE.append(out)
    return out


def _accum(t: Tensor, g: np.ndarray) -> None:
    if not t._track:
        return
    if t.grad is None:
        t.grad = g  # adopted, not copied: see the module docstring
    else:
        t.grad = t.grad + g


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a gradient down to ``shape`` after numpy broadcasting."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for ax, n in enumerate(shape):
        if n == 1 and g.shape[ax] != 1:
            g = g.sum(axis=ax, keepdims=True)
    return g.reshape(shape)


def backward(loss: Tensor) -> None:
    """Populate ``.grad`` on everything the scalar ``loss`` depends on.

    Walks the tape in reverse execution order, popping each op and dropping
    its adjoint and parents before the adjoint runs, so each op's memory is
    freed once nothing else refers to it and the graph cannot be walked
    again.  Leaves and intermediates the caller holds keep their ``.grad``.
    The tape is empty afterwards, also when an adjoint raises.  Raises
    UsageError when ``loss`` is not a scalar or was produced off-tape.
    """
    if loss.data.size != 1:
        raise UsageError(f"backward() needs a scalar loss, got shape {loss.shape}")
    if loss._bw is None and not loss.requires_grad:
        raise UsageError("loss is not connected to the gradient tape")
    loss.grad = np.ones_like(loss.data)
    try:
        while _TAPE:
            t = _TAPE.pop()
            bw, t._bw, t._parents = t._bw, None, ()
            if t.grad is not None:
                bw(t.grad)
    finally:
        reset_tape()  # empty after a full walk; unlinks the rest if an adjoint raised


def zero_grads(params: Iterable[Tensor]) -> None:
    for p in params:
        p.grad = None


# -- elementwise and structural ops ---------------------------------------


def add(a: Tensor, b: Tensor) -> Tensor:
    data = a.data + b.data

    def bw(g):
        if a._track:
            _accum(a, _unbroadcast(g, a.data.shape))
        if b._track:
            _accum(b, _unbroadcast(g, b.data.shape))

    return _make(data, (a, b), bw)


def neg(a: Tensor) -> Tensor:
    def bw(g):
        _accum(a, -g)

    return _make(-a.data, (a,), bw)


def mul(a: Tensor, b: Tensor) -> Tensor:
    data = a.data * b.data

    def bw(g):
        if a._track:
            _accum(a, _unbroadcast(g * b.data, a.data.shape))
        if b._track:
            _accum(b, _unbroadcast(g * a.data, b.data.shape))

    return _make(data, (a, b), bw)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product over the last two axes; leading axes are batch axes
    and broadcast as in numpy."""
    if a.data.ndim < 2 or b.data.ndim < 2:
        raise ShapeError(f"matmul expects operands of 2+ dimensions, got {a.shape} and {b.shape}")
    if a.data.shape[-1] != b.data.shape[-2]:
        raise ShapeError(f"matmul inner dimensions disagree: {a.shape} vs {b.shape}")
    if b.data.ndim == 2:
        # one GEMM over all leading rows instead of one per batch entry
        a2 = a.data.reshape(-1, a.data.shape[-1])
        data = (a2 @ b.data).reshape(a.data.shape[:-1] + b.data.shape[1:])

        def bw(g):
            g2 = g.reshape(-1, g.shape[-1])
            if a._track:
                _accum(a, (g2 @ b.data.T).reshape(a.data.shape))
            if b._track:
                _accum(b, a2.T @ g2)

    else:
        data = a.data @ b.data

        def bw(g):
            if a._track:
                _accum(a, _unbroadcast(g @ np.swapaxes(b.data, -1, -2), a.data.shape))
            if b._track:
                _accum(b, _unbroadcast(np.swapaxes(a.data, -1, -2) @ g, b.data.shape))

    return _make(data, (a, b), bw)


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """``x @ w + b`` over the last axis of ``x`` (..., fan_in): one GEMM over
    all leading rows with the bias added in place."""
    if x.data.ndim < 2 or w.data.ndim != 2 or b.data.shape != w.data.shape[1:]:
        raise ShapeError(
            f"linear expects (..., n, k) @ (k, m) + (m,), got {x.shape}, {w.shape}, {b.shape}"
        )
    fan_in, fan_out = w.data.shape
    if x.data.shape[-1] != fan_in:
        raise ShapeError(f"linear inner dimensions disagree: {x.shape} vs {w.shape}")
    x2 = x.data.reshape(-1, fan_in)
    out = x2 @ w.data
    out += b.data

    def bw(g):
        g2 = g.reshape(-1, fan_out)
        if x._track:
            _accum(x, (g2 @ w.data.T).reshape(x.data.shape))
        if w._track:
            _accum(w, x2.T @ g2)
        if b._track:
            _accum(b, g2.sum(axis=0))

    return _make(out.reshape(x.data.shape[:-1] + (fan_out,)), (x, w, b), bw)


ATTENTION_MASK_BIAS = -1e30  # score bias of a masked key: exp() of it is exactly 0


def attention(
    q: Tensor, k: Tensor, v: Tensor, heads: int, bias: np.ndarray | None = None,
    grid: np.ndarray | None = None, rows: np.ndarray | None = None,
):
    """Scaled dot-product attention for all heads in one op.

    ``q`` is (..., n, d) and ``k``, ``v`` are (..., m, d) with the same
    leading batch axes; each is split into ``heads`` column blocks of width
    dh = d / heads as numpy views.  ``bias`` is added to every
    head's (..., n, m) score grid, so a key mask is a bias of 0 or a large
    negative number; a 2+-D bias gets the head axis inserted before its last
    two.  Returns the (..., n, d) output, heads concatenated, and the
    (..., heads, n, m) attention weights (read-only: the adjoint uses them).

    With a (B, L) integer ``grid``, ``q``, ``k`` and ``v`` are packed (N, d)
    rows and ``grid[b, i]`` is the packed row at position i of sequence b,
    with N marking padding; every packed row appears exactly once.  The rows
    are gathered into a (B, L, d) batch whose padding keys are masked, and
    the output is scattered back to (N, d); the adjoint does the reverse.
    The weights are the (B, heads, L, L) grids.  ``bias`` must then be None.

    ``rows`` (grid only) lists the distinct packed rows that query, in the
    caller's order, and ``q`` holds those rows alone; keys and values still hold every
    row.  Each sequence's query rows are packed, in grid order, to the left
    of a (B, Lq) query grid of at least 2 slots (at one row BLAS runs its
    matrix-vector product, which sums in another order), so each output row
    and the query gradient are bit-identical to those rows of a pass with
    every row querying, and the key and value gradients sum over the query
    rows alone.  The output holds the query rows in ``rows`` order and the
    weights are the (B, heads, Lq, L) grids.

    Inside ``record_attention`` the op records its weights: the array, or
    with a grid a list of each sequence's (heads, queries, keys) grid cut to
    its real rows.
    """
    qd, kd, vd = q.data, k.data, v.data
    if grid is not None:
        grid = np.asarray(grid, dtype=np.intp)
        n_rows = kd.shape[0]
        n_q = n_rows if rows is None else len(rows)
        if kd.ndim != 2 or vd.shape != kd.shape or qd.shape != (n_q,) + kd.shape[1:] or bias is not None:
            raise ShapeError(
                f"packed attention needs (N, d) k, v, a q row per query row and no bias, "
                f"got q {q.shape}, k {k.shape}, v {v.shape}"
            )
        if grid.ndim != 2 or grid.min(initial=0) < 0 or grid.max(initial=0) > n_rows:
            raise ShapeError(f"attention grid of shape {grid.shape} does not index {n_rows} rows")
        real = grid < n_rows
        # where[r] is the flat grid slot of packed row r
        where = np.full(n_rows, -1, dtype=np.intp)
        where[grid[real]] = np.flatnonzero(real)
        if np.count_nonzero(real) != n_rows or (where < 0).any():
            raise ShapeError("attention grid must hold every packed row exactly once")
        gather, scatter = _packing(where, grid.shape)
        if rows is None:
            gather_q, scatter_q, q_real = gather, scatter, real
        else:
            rows = np.asarray(rows, dtype=np.intp)
            if rows.ndim != 1 or rows.min(initial=0) < 0 or rows.max(initial=0) >= n_rows:
                raise ShapeError(f"attention query rows do not index {n_rows} rows")
            q_where, q_real = _query_slots(where[rows], grid.shape)
            gather_q, scatter_q = _packing(q_where, q_real.shape)
        qd, kd, vd = gather_q(qd), gather(kd), gather(vd)
        bias = np.where(real, 0.0, ATTENTION_MASK_BIAS)[:, None, :]
    elif rows is not None:
        raise UsageError("attention query rows need a row grid")
    else:
        gather = scatter = gather_q = scatter_q = lambda a: a
    lead, (n, d), m = qd.shape[:-2], qd.shape[-2:], kd.shape[-2]
    if kd.shape != lead + (m, d) or vd.shape != kd.shape:
        raise ShapeError(f"attention got q {q.shape}, k {k.shape}, v {v.shape}")
    if d % heads:
        raise ShapeError(f"attention width {d} is not divisible by {heads} heads")
    dh = d // heads
    scale = 1.0 / math.sqrt(dh)

    def split(a):  # (..., r, d) -> (..., heads, r, dh)
        return a.reshape(a.shape[:-1] + (heads, dh)).swapaxes(-2, -3)

    qs, q_shape = qd * scale, qd.shape  # the adjoint needs no (gathered) copy of q
    k_h, v_h = split(kd), split(vd)
    p = split(qs) @ k_h.swapaxes(-1, -2)  # (..., heads, n, m)
    if bias is not None:
        p += bias if bias.ndim < 2 else np.expand_dims(bias, -3)
    p -= p.max(axis=-1, keepdims=True)
    np.exp(p, out=p)
    p /= p.sum(axis=-1, keepdims=True)
    out = (p @ v_h).swapaxes(-2, -3).reshape(lead + (n, d))

    def bw(g):
        g_h = split(gather_q(g))
        if v._track:
            _accum(v, scatter((p.swapaxes(-1, -2) @ g_h).swapaxes(-2, -3).reshape(vd.shape)))
        ds = g_h @ v_h.swapaxes(-1, -2)  # softmax adjoint, in place: p * (ds - <ds, p>)
        ds -= (ds * p).sum(axis=-1, keepdims=True)
        ds *= p
        if q._track:
            dq = (ds @ k_h).swapaxes(-2, -3).reshape(q_shape)
            dq *= scale
            _accum(q, scatter_q(dq))
        if k._track:
            _accum(k, scatter((ds.swapaxes(-1, -2) @ split(qs)).swapaxes(-2, -3).reshape(kd.shape)))

    p.flags.writeable = False
    if _ATTENTION_RECORD is not None:
        _ATTENTION_RECORD.append(
            p if grid is None else [w[:, qr][:, :, r] for w, qr, r in zip(p, q_real, real)]
        )
    return _make(scatter_q(out), (q, k, v), bw), p


def _packing(where: np.ndarray, shape: tuple[int, int]):
    """The gather (N, d) -> shape + (d,), zero rows at the padding, that puts
    packed row r at flat slot ``where[r]``, and the scatter that undoes it."""

    def gather(a):
        out = np.zeros((shape[0] * shape[1], a.shape[-1]))
        out[where] = a
        return out.reshape(shape + a.shape[-1:])

    def scatter(a):
        return a.reshape(-1, a.shape[-1])[where]

    return gather, scatter


def _query_slots(slots: np.ndarray, shape: tuple[int, int]) -> tuple[np.ndarray, np.ndarray]:
    """For query rows at distinct flat ``slots`` of a (B, L) grid: the flat
    slot of each in a (B, Lq) query grid that holds each sequence's query
    rows in grid order from the left, and that grid's mask of real slots."""
    mask = np.zeros(shape[0] * shape[1], dtype=bool)
    mask[slots] = True
    mask = mask.reshape(shape)
    counts = mask.sum(axis=1)
    if counts.sum() != len(slots):
        raise ShapeError("attention query rows must be distinct")
    width = max(2, counts.max(initial=0))  # one query slot would run a matrix-vector product
    rank = mask.cumsum(axis=1) + (width * np.arange(shape[0]) - 1)[:, None]
    return rank.reshape(-1)[slots], np.arange(width) < counts[:, None]


def row_grid(sequences: Sequence[np.ndarray], n_rows: int) -> np.ndarray:
    """The (B, L) row grid of ``attention`` for B sequences of packed row
    indices: row b lists sequence b, padded with ``n_rows`` to the longest."""
    grid = np.full((len(sequences), max(len(rows) for rows in sequences)), n_rows, dtype=np.intp)
    for b, rows in enumerate(sequences):
        grid[b, : len(rows)] = rows
    return grid


def padded_slots(bounds) -> tuple[np.ndarray, np.ndarray]:
    """The packed row of each slot of a (B, longest) grid, sequence b owning rows
    ``bounds[b]:bounds[b + 1]`` (padding repeats row 0), and the mask of real slots."""
    lengths = np.diff(bounds)
    slots = np.arange(lengths.max())
    real = slots < lengths[:, None]
    return np.where(real, np.asarray(bounds)[:-1, None] + slots, 0), real


def transpose(a: Tensor) -> Tensor:
    """Swap the last two axes (a contiguous copy)."""
    if a.data.ndim < 2:
        raise ShapeError(f"transpose expects 2 or more dimensions, got {a.shape}")

    def bw(g):
        _accum(a, g.swapaxes(-1, -2))

    return _make(np.ascontiguousarray(a.data.swapaxes(-1, -2)), (a,), bw)


def reshape(a: Tensor, shape) -> Tensor:
    def bw(g):
        _accum(a, g.reshape(a.data.shape))

    return _make(a.data.reshape(shape), (a,), bw)


def tsum(a: Tensor, axis=None) -> Tensor:
    data = a.data.sum(axis=axis)

    def bw(g):
        if axis is None:
            _accum(a, np.broadcast_to(g, a.data.shape))
        else:
            _accum(a, np.broadcast_to(np.expand_dims(g, axis), a.data.shape))

    return _make(data, (a,), bw)


def vmax(a: Tensor, axis: int) -> Tensor:
    """Maximum along ``axis``; the gradient routes to the first argmax."""
    if a.data.ndim == 0 or a.data.shape[axis] == 0:
        raise ShapeError(f"vmax over an empty axis: shape {a.shape}")
    idx = np.expand_dims(np.argmax(a.data, axis=axis), axis)
    data = np.take_along_axis(a.data, idx, axis).squeeze(axis)

    def bw(g):
        gfull = np.zeros_like(a.data)
        np.put_along_axis(gfull, idx, np.expand_dims(g, axis), axis)
        _accum(a, gfull)

    return _make(data, (a,), bw)


def concat_rows(parts: Sequence[Tensor]) -> Tensor:
    """Stack 2-D tensors along axis 0."""
    parts = list(parts)
    if not parts:
        raise ShapeError("concat_rows needs at least one part")
    data = np.concatenate([p.data for p in parts], axis=0)
    offsets = np.cumsum([0] + [p.data.shape[0] for p in parts])

    def bw(g):
        for p, lo, hi in zip(parts, offsets[:-1], offsets[1:]):
            if p._track:
                _accum(p, g[lo:hi])

    return _make(data, tuple(parts), bw)


def slice_rows(a: Tensor, lo: int, hi: int) -> Tensor:
    """Rows ``lo:hi`` along the first axis, as a view; the adjoint pads with zeros."""

    def bw(g):
        acc = np.zeros_like(a.data)
        acc[lo:hi] = g
        _accum(a, acc)

    return _make(a.data[lo:hi], (a,), bw)


def take_rows(a: Tensor, idx) -> Tensor:
    """Gather rows by index; the adjoint scatter-adds back.  An N-D ``idx``
    gives an output of shape ``idx.shape + a.shape[1:]``."""
    idx = np.asarray(idx, dtype=np.intp)
    data = a.data[idx]

    def bw(g):
        # sum the rows of each repeated index with one reduceat over a stable
        # sort of the indices (np.add.at does the same sums an element at a time)
        flat = idx.reshape(-1) % a.data.shape[0]
        acc = np.zeros_like(a.data)
        if flat.size:
            order = np.argsort(flat, kind="stable")
            rows = flat[order]
            starts = np.flatnonzero(np.concatenate(([True], rows[1:] != rows[:-1])))
            g = g.reshape((flat.size,) + a.data.shape[1:])
            acc[rows[starts]] = np.add.reduceat(g[order], starts, axis=0)
        _accum(a, acc)

    return _make(data, (a,), bw)


# -- nonlinearities ---------------------------------------------------------


def relu(a: Tensor) -> Tensor:
    mask = a.data > 0

    def bw(g):
        _accum(a, g * mask)

    return _make(a.data * mask, (a,), bw)


_GELU_C = math.sqrt(2.0 / math.pi)


def gelu(a: Tensor) -> Tensor:
    """tanh-approximated GELU (smooth, erf-free)."""
    x = a.data
    # products, not numpy's much slower float ``**``; temporaries reused in place
    t = 0.044715 * x
    t *= x
    t *= x
    t += x
    t *= _GELU_C
    np.tanh(t, out=t)
    data = t + 1.0
    data *= x
    data *= 0.5

    def bw(g):
        # d/dx = 0.5 * ((1 + t) + x (1 - t^2) c (1 + 3 * 0.044715 x^2))
        r = (3 * 0.044715) * x
        r *= x
        r += 1.0
        r *= _GELU_C
        s = t * t
        np.subtract(1.0, s, out=s)
        s *= x
        s *= r
        np.add(t, 1.0, out=r)
        r += s
        r *= 0.5
        r *= g
        _accum(a, r)

    return _make(data, (a,), bw)


def sqrt(a: Tensor) -> Tensor:
    data = np.sqrt(a.data)

    def bw(g):
        _accum(a, g * 0.5 / data)

    return _make(data, (a,), bw)


def reciprocal(a: Tensor) -> Tensor:
    data = 1.0 / a.data

    def bw(g):
        _accum(a, -g * data * data)

    return _make(data, (a,), bw)


def softmax(a: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable softmax along ``axis`` (max-subtraction)."""
    if a.data.shape == () or a.data.shape[axis] == 0:
        raise ShapeError(f"softmax over an empty axis: shape {a.shape}")
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    p = e / e.sum(axis=axis, keepdims=True)

    def bw(g):
        dot = (g * p).sum(axis=axis, keepdims=True)
        _accum(a, p * (g - dot))

    return _make(p, (a,), bw)


def log_softmax(a: Tensor) -> Tensor:
    """Numerically stable log-softmax along the last axis."""
    if a.data.shape == () or a.data.shape[-1] == 0:
        raise ShapeError(f"log_softmax over an empty axis: shape {a.shape}")
    shifted = a.data - a.data.max(axis=-1, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    data = shifted - lse

    def bw(g):
        p = np.exp(data)
        _accum(a, g - p * g.sum(axis=-1, keepdims=True))

    return _make(data, (a,), bw)


LAYER_NORM_EPS = 1e-5  # added to each slice's variance


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor) -> Tensor:
    """Normalize each slice along the last axis to zero mean/unit variance,
    then apply the affine (gain, bias)."""
    d = x.data.shape[-1]
    if gain.data.shape != (d,) or bias.data.shape != (d,):
        raise ShapeError(
            f"layer_norm affine shapes {gain.shape}/{bias.shape} do not match feature dim {d}"
        )
    # one mean and one centred copy, with the float operations of np.mean and
    # np.var (a sum, then a division by d) minus their Python overhead
    xhat = x.data - x.data.sum(axis=-1, keepdims=True) / d
    var = (xhat * xhat).sum(axis=-1, keepdims=True) / d
    var += LAYER_NORM_EPS
    inv = 1.0 / np.sqrt(var)
    xhat *= inv
    data = xhat * gain.data
    data += bias.data

    def bw(g):
        if gain._track:
            _accum(gain, (g * xhat).reshape(-1, d).sum(axis=0))
        if bias._track:
            _accum(bias, g.reshape(-1, d).sum(axis=0))
        if x._track:
            gh = g * gain.data
            ghx_mean = (gh * xhat).sum(axis=-1, keepdims=True) / d
            gh -= gh.sum(axis=-1, keepdims=True) / d
            gh -= xhat * ghx_mean
            gh *= inv
            _accum(x, gh)

    return _make(data, (x, gain, bias), bw)


def cross_entropy(logits: Tensor, labels, weights=None) -> Tensor:
    """Mean negative log-likelihood of ``labels`` under softmax(logits), or
    with per-row ``weights`` their weighted sum.

    ``logits`` is (n, C); ``labels`` is a length-n index sequence.  Fused
    with log-softmax for stability.
    """
    labels = np.asarray(labels, dtype=np.intp)
    if logits.data.ndim != 2:
        raise ShapeError(f"cross_entropy expects (n, C) logits, got {logits.shape}")
    n, c = logits.data.shape
    if labels.shape != (n,):
        raise ShapeError(f"cross_entropy got {n} rows but {labels.shape} labels")
    if labels.size and (labels.min() < 0 or labels.max() >= c):
        raise IndexError(f"label out of range [0, {c})")
    if weights is not None:
        weights = np.asarray(weights, dtype=np.float64)
        if weights.shape != (n,):
            raise ShapeError(f"cross_entropy got {n} rows but {weights.shape} weights")
    shifted = logits.data - logits.data.max(axis=1, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    logp = shifted - lse
    picked = logp[np.arange(n), labels]
    data = np.asarray(-picked.mean() if weights is None else -(weights @ picked))

    def bw(g):
        p = np.exp(logp)
        p[np.arange(n), labels] -= 1.0
        g = np.asarray(g).reshape(-1)[0]
        _accum(logits, p * (g / n) if weights is None else p * (g * weights)[:, None])

    return _make(data, (logits,), bw)


def conv1d(x: Tensor, kernel: Tensor) -> Tensor:
    """Same-padded 1-D cross-correlation along the last axis of ``x`` (..., n);
    the kernel length must be odd so the zero padding is symmetric."""
    if x.data.ndim < 1 or kernel.data.ndim != 1:
        raise ShapeError(f"conv1d expects (..., n) and (k,) inputs, got {x.shape}, {kernel.shape}")
    k = kernel.data.shape[0]
    if k % 2 == 0:
        raise ConfigError(f"conv1d kernel length must be odd, got {k}")
    n = x.data.shape[-1]
    xp = _zero_padded(x.data, k // 2)
    data = _correlate(xp, kernel.data, n)

    def bw(g):
        # cross-correlation adjoint: correlate the upstream grad with the
        # flipped kernel for dx, and with the padded input for dk
        _accum(x, _correlate(_zero_padded(g, k // 2), kernel.data[::-1], n))
        windows = np.lib.stride_tricks.sliding_window_view(xp, k, axis=-1)  # (..., n, k)
        _accum(kernel, g.reshape(-1) @ windows.reshape(-1, k))

    return _make(data, (x, kernel), bw)


def _zero_padded(a: np.ndarray, half: int) -> np.ndarray:
    """``a`` with ``half`` zeros before and after along the last axis, in one buffer."""
    out = np.zeros(a.shape[:-1] + (a.shape[-1] + 2 * half,))
    out[..., half : half + a.shape[-1]] = a
    return out


def _correlate(xp: np.ndarray, kernel: np.ndarray, n: int) -> np.ndarray:
    """The n outputs of correlating zero-padded ``xp`` with ``kernel``, tap by tap."""
    out = xp[..., :n] * kernel[0]
    for i in range(1, kernel.shape[0]):
        out += xp[..., i : i + n] * kernel[i]
    return out


def dropout(
    a: Tensor, rate: float, rng: np.random.Generator | None, rows=None, n_rows: int | None = None
) -> Tensor:
    """Inverted dropout; identity when rate is 0 or no rng is supplied.

    The mask is one float array of 0 and 1 / (1 - rate), so the forward pass
    and the adjoint are one multiply each.  With ``rows``, ``a`` holds rows
    ``rows`` of an (n_rows, ...) array: the mask is drawn at that full shape
    and indexed by ``rows``, so the kept rows and the generator's next draw
    are those of a call on the full array."""
    if rate < 0 or rate >= 1:
        raise ConfigError(f"dropout rate must be in [0, 1), got {rate}")
    if rate == 0.0 or rng is None:
        return a
    shape = a.data.shape if rows is None else (n_rows,) + a.data.shape[1:]
    mask = (rng.random(shape) >= rate) * (1.0 / (1.0 - rate))
    if rows is not None:
        mask = mask[rows]

    def bw(g):
        _accum(a, g * mask)

    return _make(a.data * mask, (a,), bw)


# -- optimizer --------------------------------------------------------------


_ADAMW_CHUNK = 16_384  # elements per pass of the update: 128 KB per scratch array, within L2
_ADAMW_BETAS = (0.9, 0.999)  # decay rates of the first and second moments
_ADAMW_EPS = 1e-8


class AdamW:
    """Adam with decoupled weight decay.

    Moment buffers start at zero; the decay term is applied outside the
    adaptive scaling, so a zero-gradient step with decay shrinks parameters
    by exactly (1 - lr * weight_decay).

    The state is flat: the moments ``m`` and ``v`` are each one contiguous
    float64 array holding every parameter end to end in ``params`` order, and
    ``self.m[name]`` / ``self.v[name]`` are views into them.  A step copies
    the gradients into one flat buffer (a missing one as zeros) and updates
    moments and parameters in L2-sized chunks with the same float operations,
    in the same order, as a per-array step, so the results are bit-identical.
    The new parameters go into a fresh flat array each step and every
    ``p.data`` becomes a view of it; an array a caller took from ``p.data``
    earlier is never written.  A ``p.data`` reassigned between steps is read
    as it stands.
    """

    def __init__(
        self,
        params: dict[str, Tensor],
        lr: float = 3e-5,
        weight_decay: float = 0.01,
    ):
        if not (math.isfinite(lr) and lr > 0):
            raise ConfigError(f"learning rate (lr) must be positive and finite, got {lr}")
        if not (math.isfinite(weight_decay) and weight_decay >= 0):
            raise ConfigError(
                f"weight decay (weight_decay) must be nonnegative and finite, got {weight_decay}"
            )
        self.params = dict(params)
        self.lr = lr
        self.weight_decay = weight_decay
        self.step_count = 0
        self._slots = []  # (name, flat slice, shape) of each parameter
        end = 0
        for name, p in self.params.items():
            self._slots.append((name, slice(end, end + p.data.size), p.data.shape))
            end += p.data.size
        self._m, self._v, self._g = np.zeros(end), np.zeros(end), np.empty(end)
        self.m, self.v, self._grads = self._views(self._m), self._views(self._v), self._views(self._g)
        self._scratch = np.empty((2, min(end, _ADAMW_CHUNK)))
        self._flat = None  # the flat array of the last step's new parameters
        self._data: list[np.ndarray] = []  # the p.data views into it that the step set

    def _views(self, flat: np.ndarray) -> dict[str, np.ndarray]:
        return {name: flat[where].reshape(shape) for name, where, shape in self._slots}

    def step(self) -> None:
        new = np.empty_like(self._m)
        old = self._flat
        if old is None or any(p.data is not data for p, data in zip(self.params.values(), self._data)):
            for (_, where, shape), p in zip(self._slots, self.params.values()):
                new[where].reshape(shape)[...] = p.data
            old = new  # gathered: updated in place
        for name, p in self.params.items():
            if p.grad is None:
                self._grads[name].fill(0.0)
            else:
                self._grads[name][...] = p.grad
        self.step_count += 1
        b1, b2 = _ADAMW_BETAS
        bc1 = 1.0 - b1**self.step_count
        bc2 = 1.0 - b2**self.step_count
        lr, wd, eps = self.lr, self.weight_decay, _ADAMW_EPS
        m, v, g = self._m, self._v, self._g
        for lo in range(0, m.size, _ADAMW_CHUNK):
            hi = min(lo + _ADAMW_CHUNK, m.size)
            mc, vc, gc, pc = m[lo:hi], v[lo:hi], g[lo:hi], old[lo:hi]
            t1, t2 = self._scratch[:, : hi - lo]
            np.multiply(mc, b1, out=t1)  # m = b1 * m + (1 - b1) * g
            np.multiply(gc, 1 - b1, out=t2)
            np.add(t1, t2, out=mc)
            np.multiply(vc, b2, out=t1)  # v = b2 * v + ((1 - b2) * g) * g
            np.multiply(gc, 1 - b2, out=t2)
            t2 *= gc
            np.add(t1, t2, out=vc)
            np.divide(mc, bc1, out=t1)  # u = (m / bc1) / (sqrt(v / bc2) + eps)
            np.divide(vc, bc2, out=t2)
            np.sqrt(t2, out=t2)
            t2 += eps
            t1 /= t2
            np.multiply(pc, wd, out=t2)  # p = p - lr * (u + wd * p)
            t1 += t2
            t1 *= lr
            np.subtract(pc, t1, out=new[lo:hi])
        self._flat = new
        self._data = list(self._views(new).values())
        for p, data in zip(self.params.values(), self._data):
            p.data = data

    def _state(self, m: np.ndarray, v: np.ndarray) -> dict[str, np.ndarray]:
        m_views, v_views = self._views(m), self._views(v)
        out: dict[str, np.ndarray] = {}
        for name in self.params:
            out[f"adam.m.{name}"] = m_views[name]
            out[f"adam.v.{name}"] = v_views[name]
        return out

    def state_arrays(self) -> dict[str, np.ndarray]:
        """Moment buffers keyed for checkpointing: copies, so a later step
        leaves them as they are."""
        return self._state(self._m.copy(), self._v.copy())

    def load_state_arrays(self, arrays: dict[str, np.ndarray], step_count: int) -> None:
        buffers = self._state(self._m, self._v)
        missing = [k for k in buffers if k not in arrays]
        if missing:
            raise DataError(f"optimizer state lacks {len(missing)} arrays, first {missing[0]!r}")
        for key, buf in buffers.items():  # every buffer has its parameter's shape
            if np.shape(arrays[key]) != buf.shape:
                raise DataError(
                    f"optimizer array {key!r} has shape {np.shape(arrays[key])}, "
                    f"its parameter {buf.shape}"
                )
        for key, buf in buffers.items():
            buf[...] = arrays[key]
        self.step_count = step_count


def train_step(optimizer: AdamW, loss_fn: Callable[[], Tensor]) -> float:
    """One optimization step: zero grads, forward (``loss_fn``), backward,
    parameter update.  A forward or backward pass that raises leaves no ops
    on the tape, so it cannot leak into the next step."""
    zero_grads(optimizer.params.values())
    try:
        loss = loss_fn()
        value = loss.item()
        backward(loss)
    finally:
        reset_tape()  # a no-op after backward; drops a failed pass's ops
    optimizer.step()
    return value
