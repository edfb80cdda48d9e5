"""Central finite-difference gradient checking.

The numeric side only re-evaluates the forward function, so it stays
independent of the tape's adjoint formulas.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from vidtext import tensor as T


def numeric_grad(
    fn: Callable[[], T.Tensor],
    target: T.Tensor,
    h: float = 1e-5,
    coords: Sequence[int] | None = None,
) -> np.ndarray:
    """Central-difference gradient of scalar ``fn()`` w.r.t. ``target``.

    ``coords`` restricts the check to a subset of flat indices (useful for
    large embedding tables); unchecked entries are returned as NaN so the
    caller can mask them out.
    """
    flat = target.data.reshape(-1)
    if coords is None:
        coords = range(flat.size)
    out = np.full(flat.size, np.nan)
    with T.no_grad():
        for i in coords:
            orig = flat[i]
            flat[i] = orig + h
            fp = fn().item()
            flat[i] = orig - h
            fm = fn().item()
            flat[i] = orig
            out[i] = (fp - fm) / (2 * h)
    return out.reshape(target.data.shape)


def max_rel_err(analytic: np.ndarray, numeric: np.ndarray, floor: float = 1e-2) -> float:
    """Largest scale-floored relative error over the checked coordinates.

    NaN entries in ``numeric`` (skipped coordinates) are ignored.  The
    denominator floor keeps near-zero gradients from inflating the ratio
    past finite-difference noise.
    """
    mask = ~np.isnan(numeric)
    if not mask.any():
        return 0.0
    a = np.asarray(analytic)[mask]
    n = numeric[mask]
    denom = np.maximum(np.maximum(np.abs(a), np.abs(n)), floor)
    return float(np.max(np.abs(a - n) / denom))


def check_gradients(
    fn: Callable[[], T.Tensor],
    targets: dict[str, T.Tensor],
    h: float = 1e-5,
    max_coords_per_tensor: int | None = None,
    seed: int = 0,
) -> dict[str, float]:
    """Compare analytic grads of ``fn()`` against finite differences.

    Returns the scale-floored max relative error per target tensor.  When
    ``max_coords_per_tensor`` is set, larger tensors are checked on a
    seeded random coordinate subset.
    """
    T.zero_grads(targets.values())
    T.reset_tape()
    loss = fn()
    T.backward(loss)
    rng = np.random.default_rng(seed)
    errs: dict[str, float] = {}
    for name, t in targets.items():
        coords = None
        if max_coords_per_tensor is not None and t.data.size > max_coords_per_tensor:
            coords = rng.choice(t.data.size, size=max_coords_per_tensor, replace=False)
        num = numeric_grad(fn, t, h=h, coords=coords)
        ana = t.grad if t.grad is not None else np.zeros_like(t.data)
        errs[name] = max_rel_err(ana, num)
    return errs
