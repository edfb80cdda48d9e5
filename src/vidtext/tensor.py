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
sees padding.  An op computes no adjoint for an operand that is off the
tape (constants, input features).

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

    @property
    def size(self) -> int:
        return self.data.size

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

    def __rsub__(self, other):
        return add(_as_tensor(other), neg(self))

    def __neg__(self):
        return neg(self)

    def __mul__(self, other):
        return mul(self, _as_tensor(other))

    __rmul__ = __mul__

    def __truediv__(self, scalar):
        if isinstance(scalar, Tensor):
            raise UsageError("tensor/tensor division is not supported; use mul with a reciprocal")
        return mul(self, _as_tensor(1.0 / float(scalar)))

    def __matmul__(self, other):
        return matmul(self, other)

    def sum(self, axis=None, keepdims: bool = False):
        return tsum(self, axis=axis, keepdims=keepdims)

    def mean(self, axis=None, keepdims: bool = False):
        return tmean(self, axis=axis, keepdims=keepdims)

    def reshape(self, *shape):
        return reshape(self, shape if len(shape) > 1 else shape[0])

    @property
    def T(self):
        return transpose(self)


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
    grid: np.ndarray | None = None,
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
    """
    qd, kd, vd = q.data, k.data, v.data
    if grid is not None:
        grid = np.asarray(grid, dtype=np.intp)
        n_rows = qd.shape[0]
        if qd.ndim != 2 or kd.shape != qd.shape or vd.shape != qd.shape or bias is not None:
            raise ShapeError(f"packed attention needs (N, d) q, k, v and no bias, got {q.shape}")
        if grid.ndim != 2 or grid.min(initial=0) < 0 or grid.max(initial=0) > n_rows:
            raise ShapeError(f"attention grid of shape {grid.shape} does not index {n_rows} rows")
        real = grid < n_rows
        # where[r] is the flat grid slot of packed row r
        where = np.full(n_rows, -1, dtype=np.intp)
        where[grid[real]] = np.flatnonzero(real)
        if np.count_nonzero(real) != n_rows or (where < 0).any():
            raise ShapeError("attention grid must hold every packed row exactly once")

        def gather(a):  # (N, d) -> (B, L, d), zero rows at the padding
            out = np.zeros((grid.size, a.shape[-1]))
            out[where] = a
            return out.reshape(grid.shape + a.shape[-1:])

        def scatter(a):  # (B, L, d) -> (N, d)
            return a.reshape(-1, a.shape[-1])[where]

        qd, kd, vd = gather(qd), gather(kd), gather(vd)
        bias = np.where(real, 0.0, ATTENTION_MASK_BIAS)[:, None, :]
    else:
        gather = scatter = lambda a: a
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
        g_h = split(gather(g))
        if v._track:
            _accum(v, scatter((p.swapaxes(-1, -2) @ g_h).swapaxes(-2, -3).reshape(vd.shape)))
        ds = g_h @ v_h.swapaxes(-1, -2)  # softmax adjoint, in place: p * (ds - <ds, p>)
        ds -= (ds * p).sum(axis=-1, keepdims=True)
        ds *= p
        if q._track:
            dq = (ds @ k_h).swapaxes(-2, -3).reshape(q_shape)
            dq *= scale
            _accum(q, scatter(dq))
        if k._track:
            _accum(k, scatter((ds.swapaxes(-1, -2) @ split(qs)).swapaxes(-2, -3).reshape(kd.shape)))

    p.flags.writeable = False
    return _make(scatter(out), (q, k, v), bw), p


def row_grid(sequences: Sequence[np.ndarray], n_rows: int) -> np.ndarray:
    """The (B, L) row grid of ``attention`` for B sequences of packed row
    indices: row b lists sequence b, padded with ``n_rows`` to the longest."""
    grid = np.full((len(sequences), max(len(rows) for rows in sequences)), n_rows, dtype=np.intp)
    for b, rows in enumerate(sequences):
        grid[b, : len(rows)] = rows
    return grid


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


def tsum(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    data = a.data.sum(axis=axis, keepdims=keepdims)

    def bw(g):
        if axis is None:
            _accum(a, np.broadcast_to(g, a.data.shape))
        else:
            gg = g if keepdims else np.expand_dims(g, axis)
            _accum(a, np.broadcast_to(gg, a.data.shape))

    return _make(data, (a,), bw)


def tmean(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    n = a.data.size if axis is None else a.data.shape[axis]
    return mul(tsum(a, axis=axis, keepdims=keepdims), _as_tensor(1.0 / n))


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


def embedding(table: Tensor, ids) -> Tensor:
    """Row lookup into an embedding table (out-of-range ids raise IndexError)."""
    return take_rows(table, ids)


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


def log_softmax(a: Tensor, axis: int = -1) -> Tensor:
    if a.data.shape == () or a.data.shape[axis] == 0:
        raise ShapeError(f"log_softmax over an empty axis: shape {a.shape}")
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
    data = shifted - lse

    def bw(g):
        p = np.exp(data)
        _accum(a, g - p * g.sum(axis=axis, keepdims=True))

    return _make(data, (a,), bw)


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
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
    var += eps
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
    pad = [(0, 0)] * (x.data.ndim - 1) + [(k // 2, k // 2)]
    windows = np.lib.stride_tricks.sliding_window_view(np.pad(x.data, pad), k, axis=-1)
    data = windows @ kernel.data  # (..., n, k) windows times the kernel

    def bw(g):
        # cross-correlation adjoint: correlate the upstream grad with the
        # flipped kernel for dx, and with the padded input for dk
        g_windows = np.lib.stride_tricks.sliding_window_view(np.pad(g, pad), k, axis=-1)
        _accum(x, g_windows @ kernel.data[::-1])
        _accum(kernel, g.reshape(-1) @ windows.reshape(-1, k))

    return _make(data, (x, kernel), bw)


def dropout(a: Tensor, rate: float, rng: np.random.Generator | None) -> Tensor:
    """Inverted dropout; identity when rate is 0 or no rng is supplied."""
    if rate < 0 or rate >= 1:
        raise ConfigError(f"dropout rate must be in [0, 1), got {rate}")
    if rate == 0.0 or rng is None:
        return a
    keep, scale = rng.random(a.data.shape) >= rate, 1.0 / (1.0 - rate)

    def bw(g):
        _accum(a, (g * keep) * scale)

    return _make((a.data * keep) * scale, (a,), bw)


# -- optimizer --------------------------------------------------------------


class AdamW:
    """Adam with decoupled weight decay.

    Moment buffers start at zero; the decay term is applied outside the
    adaptive scaling, so a zero-gradient step with decay shrinks parameters
    by exactly (1 - lr * weight_decay).
    """

    def __init__(
        self,
        params: dict[str, Tensor],
        lr: float = 3e-5,
        weight_decay: float = 0.01,
        betas: tuple[float, float] = (0.9, 0.999),
        eps: float = 1e-8,
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
        self.betas = betas
        self.eps = eps
        self.step_count = 0
        self.m = {k: np.zeros_like(p.data) for k, p in self.params.items()}
        self.v = {k: np.zeros_like(p.data) for k, p in self.params.items()}

    def step(self) -> None:
        self.step_count += 1
        b1, b2 = self.betas
        bc1 = 1.0 - b1**self.step_count
        bc2 = 1.0 - b2**self.step_count
        for name, p in self.params.items():
            g = p.grad if p.grad is not None else np.zeros_like(p.data)
            m = self.m[name] = b1 * self.m[name] + (1 - b1) * g
            v = self.v[name] = b2 * self.v[name] + (1 - b2) * g * g
            update = (m / bc1) / (np.sqrt(v / bc2) + self.eps)
            p.data = p.data - self.lr * (update + self.weight_decay * p.data)

    def state_arrays(self) -> dict[str, np.ndarray]:
        """Moment buffers keyed for checkpointing."""
        out: dict[str, np.ndarray] = {}
        for name in self.params:
            out[f"adam.m.{name}"] = self.m[name]
            out[f"adam.v.{name}"] = self.v[name]
        return out

    def load_state_arrays(self, arrays: dict[str, np.ndarray], step_count: int) -> None:
        missing = [k for k in self.state_arrays() if k not in arrays]
        if missing:
            raise DataError(f"optimizer state lacks {len(missing)} arrays, first {missing[0]!r}")
        for key, buf in self.state_arrays().items():  # every buffer has its parameter's shape
            if np.shape(arrays[key]) != buf.shape:
                raise DataError(
                    f"optimizer array {key!r} has shape {np.shape(arrays[key])}, "
                    f"its parameter {buf.shape}"
                )
        for name in self.params:
            self.m[name] = np.array(arrays[f"adam.m.{name}"], dtype=np.float64)
            self.v[name] = np.array(arrays[f"adam.v.{name}"], dtype=np.float64)
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
