"""Differentiable operations on tensors.

Forward values are float32; anything that reduces (sums, statistics,
log-sum-exp) runs in float64 internally and casts back. Backward rules
return one gradient per input, or None for inputs that need none.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np
from scipy.special import erf

from ..errors import DimensionError, ValidationError
from .tensor import Tensor, record

IGNORE_INDEX = -100

_INV_SQRT2 = 1.0 / np.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / np.sqrt(2.0 * np.pi)


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum a gradient down to `shape` after numpy broadcasting."""
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, (g, s) in enumerate(zip(grad.shape, shape)) if s == 1 and g != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


def _check_broadcast(a: Tensor, b: Tensor, op: str):
    try:
        np.broadcast_shapes(a.shape, b.shape)
    except ValueError:
        raise DimensionError(f"{op}: shapes {a.shape} and {b.shape} do not broadcast") from None


# -- elementwise -----------------------------------------------------------


def add(a: Tensor, b: Tensor) -> Tensor:
    _check_broadcast(a, b, "add")
    out = a.data + b.data

    def bw(g):
        return _unbroadcast(g, a.shape), _unbroadcast(g, b.shape)

    return record("add", out, (a, b), bw)


def mul(a: Tensor, b: Tensor) -> Tensor:
    _check_broadcast(a, b, "mul")
    out = a.data * b.data

    def bw(g):
        return _unbroadcast(g * b.data, a.shape), _unbroadcast(g * a.data, b.shape)

    return record("mul", out, (a, b), bw)


def scale(a: Tensor, s: float) -> Tensor:
    s = float(s)
    out = a.data * np.float32(s)

    def bw(g):
        return (g * np.float32(s),)

    return record("scale", out, (a,), bw)


def gelu(x: Tensor) -> Tensor:
    """Exact-erf GELU: 0.5 * x * (1 + erf(x / sqrt(2)))."""
    xd = x.data.astype(np.float64)
    phi_big = 0.5 * (1.0 + erf(xd * _INV_SQRT2))
    out = (xd * phi_big).astype(np.float32)

    def bw(g):
        dens = np.exp(-0.5 * xd * xd) * _INV_SQRT_2PI
        return ((g * (phi_big + xd * dens)).astype(np.float32),)

    return record("gelu", out, (x,), bw)


def tanh(x: Tensor) -> Tensor:
    out = np.tanh(x.data)

    def bw(g):
        return (g * (1.0 - out * out),)

    return record("tanh", out, (x,), bw)


def exp(x: Tensor) -> Tensor:
    out = np.exp(x.data)

    def bw(g):
        return (g * out,)

    return record("exp", out, (x,), bw)


# -- linear algebra -----------------------------------------------------------


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.ndim < 2 or b.ndim < 2:
        raise DimensionError(f"matmul needs >=2-d operands, got {a.shape} and {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise DimensionError(f"matmul: inner dimensions differ, {a.shape} vs {b.shape}")
    try:
        out = a.data @ b.data
    except ValueError:
        raise DimensionError(f"matmul: batch dimensions differ, {a.shape} vs {b.shape}") from None

    def bw(g):
        ga = _unbroadcast(g @ b.data.swapaxes(-1, -2), a.shape)
        gb = _unbroadcast(a.data.swapaxes(-1, -2) @ g, b.shape)
        return ga, gb

    return record("matmul", out, (a, b), bw)


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Softmax along `axis`, stabilized by max subtraction."""
    if x.shape[axis] < 1:
        raise DimensionError(f"softmax axis must be non-empty, shape {x.shape}")
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    out = e / e.sum(axis=axis, keepdims=True, dtype=np.float64).astype(np.float32)

    def bw(g):
        dot = (g * out).sum(axis=axis, keepdims=True)
        return ((g - dot) * out,)

    return record("softmax", out, (x,), bw)


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then affine."""
    d = x.shape[-1]
    if gain.shape != (d,) or bias.shape != (d,):
        raise DimensionError(
            f"layer_norm: gain/bias must have shape ({d},), got {gain.shape} and {bias.shape}")
    xd = x.data.astype(np.float64)
    mu = xd.mean(axis=-1, keepdims=True)
    var = xd.var(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = (xd - mu) * inv
    out = (xhat * gain.data + bias.data).astype(np.float32)

    def bw(g):
        gd = g.astype(np.float64)
        dxhat = gd * gain.data
        m1 = dxhat.mean(axis=-1, keepdims=True)
        m2 = (dxhat * xhat).mean(axis=-1, keepdims=True)
        gx = (inv * (dxhat - m1 - xhat * m2)).astype(np.float32)
        lead = tuple(range(g.ndim - 1))
        ggain = (gd * xhat).sum(axis=lead).astype(np.float32)
        gbias = gd.sum(axis=lead).astype(np.float32)
        return gx, ggain, gbias

    return record("layer_norm", out, (x, gain, bias), bw)


def rms_norm(x: Tensor, gain: Tensor, eps: float = 1e-5) -> Tensor:
    """Scale the last axis to unit root-mean-square, then apply a gain.

    Unlike layer_norm nothing is subtracted, so a uniform shift of the
    input still reaches the output (Zhang & Sennrich 2019).
    """
    d = x.shape[-1]
    if gain.shape != (d,):
        raise DimensionError(f"rms_norm: gain must have shape ({d},), got {gain.shape}")
    xd = x.data.astype(np.float64)
    inv = 1.0 / np.sqrt((xd * xd).mean(axis=-1, keepdims=True) + eps)
    xhat = xd * inv
    out = (xhat * gain.data).astype(np.float32)

    def bw(g):
        gd = g.astype(np.float64)
        dxhat = gd * gain.data
        m = (dxhat * xhat).mean(axis=-1, keepdims=True)
        gx = (inv * (dxhat - xhat * m)).astype(np.float32)
        ggain = (gd * xhat).sum(axis=tuple(range(g.ndim - 1))).astype(np.float32)
        return gx, ggain

    return record("rms_norm", out, (x, gain), bw)


def masked_cross_entropy(logits: Tensor, labels, ignore_index: int = IGNORE_INDEX) -> Tensor:
    """Mean negative log-likelihood over positions whose label is not ignored.

    `labels` is a plain integer sequence of length T for logits [T, V].
    Returns a scalar 0 with zero gradients when every position is ignored.
    """
    if logits.ndim != 2:
        raise DimensionError(f"masked_cross_entropy expects [T, V] logits, got {logits.shape}")
    labels = np.asarray(labels, dtype=np.int64)
    t, v = logits.shape
    if labels.shape != (t,):
        raise DimensionError(f"labels length {labels.shape} does not match logits rows {t}")
    valid = labels != ignore_index
    bad = np.where(valid & ((labels < 0) | (labels >= v)))[0]
    if bad.size:
        raise ValidationError(
            f"label {labels[bad[0]]} out of range [0, {v}) at position {int(bad[0])}")

    n = int(valid.sum())
    ld = logits.data.astype(np.float64)
    m = ld.max(axis=-1, keepdims=True)
    lse = (m + np.log(np.exp(ld - m).sum(axis=-1, keepdims=True))).reshape(-1)
    if n == 0:
        loss = np.float64(0.0)
    else:
        picked = ld[np.arange(t), np.clip(labels, 0, v - 1)]
        # Scalar losses keep their float64 accumulation; this is what makes
        # finite-difference checks against them meaningful.
        loss = np.float64(((lse - picked)[valid]).sum() / n)

    def bw(g):
        gl = np.zeros((t, v), dtype=np.float32)
        if n > 0:
            rows = np.where(valid)[0]
            p = np.exp(ld[rows] - lse[rows, None])
            p[np.arange(rows.size), labels[rows]] -= 1.0
            gl[rows] = (p * (float(g) / n)).astype(np.float32)
        return (gl,)

    return record("masked_cross_entropy", np.asarray(loss), (logits,), bw)


# -- shape manipulation -----------------------------------------------------


def reshape(x: Tensor, shape) -> Tensor:
    out = x.data.reshape(shape)

    def bw(g):
        return (g.reshape(x.shape),)

    return record("reshape", out, (x,), bw)


def transpose(x: Tensor, axes=None) -> Tensor:
    if axes is None:
        axes = tuple(reversed(range(x.ndim)))
    axes = tuple(axes)
    inv = np.argsort(axes)
    out = x.data.transpose(axes)

    def bw(g):
        return (g.transpose(inv),)

    return record("transpose", out, (x,), bw)


def concat(parts: Sequence[Tensor], axis: int = 0) -> Tensor:
    if not parts:
        raise ValidationError("concat needs at least one tensor")
    out = np.concatenate([p.data for p in parts], axis=axis)
    sizes = [p.shape[axis] for p in parts]
    splits = np.cumsum(sizes)[:-1]

    def bw(g):
        return tuple(np.ascontiguousarray(piece) for piece in np.split(g, splits, axis=axis))

    return record("concat", out, tuple(parts), bw)


def narrow(x: Tensor, axis: int, start: int, length: int) -> Tensor:
    if start < 0 or start + length > x.shape[axis]:
        raise DimensionError(
            f"narrow [{start}:{start + length}] out of bounds for axis {axis} of {x.shape}")
    idx = [slice(None)] * x.ndim
    idx[axis] = slice(start, start + length)
    idx = tuple(idx)
    out = x.data[idx]

    def bw(g):
        full = np.zeros_like(x.data)
        full[idx] = g
        return (full,)

    return record("narrow", out, (x,), bw)


def embedding(table: Tensor, ids) -> Tensor:
    """Gather rows of `table` by integer index; scatter-add on backward."""
    ids = np.asarray(ids, dtype=np.int64)
    if ids.ndim != 1:
        raise DimensionError(f"embedding ids must be 1-d, got shape {ids.shape}")
    if ids.size and (ids.min() < 0 or ids.max() >= table.shape[0]):
        raise ValidationError(f"embedding id out of range [0, {table.shape[0]})")
    out = table.data[ids]

    def bw(g):
        gt = np.zeros_like(table.data)
        np.add.at(gt, ids, g)
        return (gt,)

    return record("embedding", out, (table,), bw)


# -- reductions ---------------------------------------------------------------


def tsum(x: Tensor) -> Tensor:
    # Scalar reductions carry their float64 accumulation (see design note
    # in masked_cross_entropy).
    out = np.asarray(x.data.sum(dtype=np.float64))

    def bw(g):
        return (np.full_like(x.data, float(g)),)

    return record("sum", out, (x,), bw)


def tmean(x: Tensor) -> Tensor:
    n = x.data.size
    out = np.asarray(x.data.sum(dtype=np.float64) / n)

    def bw(g):
        return (np.full_like(x.data, float(g) / n),)

    return record("mean", out, (x,), bw)


def causal_mask(t: int, valid_len: Optional[int] = None, start: int = 0) -> Tensor:
    """Additive [t, start + t] mask for t rows that follow `start` earlier keys.

    Row i sits at position start + i and sees keys 0..start + i: -1e9 above
    that diagonal and on padded keys.
    """
    m = np.triu(np.full((t, start + t), -1e9, dtype=np.float32), k=start + 1)
    if valid_len is not None and valid_len < start + t:
        m[:, valid_len:] = -1e9
    return Tensor(m)
