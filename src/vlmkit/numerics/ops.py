"""Differentiable operations on tensors.

Forward values are float32; anything that reduces (sums, statistics,
log-sum-exp) runs in float64 internally and casts back. Backward rules
return one gradient per input, or None for inputs that need none.

At the sizes this library runs, an op's fixed cost per call (Python calls,
numpy wrappers) weighs more than its arithmetic, so the bodies keep to two
rules:

- A mean over an axis is `np.add.reduce` followed by an in-place divide by
  the count. That is the sum-then-divide `ndarray.mean` and `ndarray.var`
  perform inside their Python wrappers, so it rounds the same way, bit for
  bit, without the wrappers.
- An op does not pre-check what numpy already rejects. It catches numpy's
  error and raises the `DimensionError` that names the shapes.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np
from scipy.special import erf

from ..errors import DimensionError, ValidationError
from .tensor import Tensor, record

IGNORE_INDEX = -100

_INV_SQRT2 = 1.0 / np.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / np.sqrt(2.0 * np.pi)


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum a gradient down to `shape` after numpy broadcasting."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, (g, s) in enumerate(zip(grad.shape, shape)) if s == 1 and g != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


# -- elementwise -----------------------------------------------------------


def add(a: Tensor, b: Tensor) -> Tensor:
    try:
        out = a.data + b.data
    except ValueError:
        raise DimensionError(f"add: shapes {a.shape} and {b.shape} do not broadcast") from None

    def bw(g):
        return _unbroadcast(g, a.shape), _unbroadcast(g, b.shape)

    return record("add", out, (a, b), bw)


def mul(a: Tensor, b: Tensor) -> Tensor:
    try:
        out = a.data * b.data
    except ValueError:
        raise DimensionError(f"mul: shapes {a.shape} and {b.shape} do not broadcast") from None

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
    ad, bd = a.data, b.data
    if ad.ndim < 2 or bd.ndim < 2:
        raise DimensionError(f"matmul needs >=2-d operands, got {a.shape} and {b.shape}")
    try:
        out = ad @ bd
    except ValueError:
        which = "inner" if ad.shape[-1] != bd.shape[-2] else "batch"
        raise DimensionError(f"matmul: {which} dimensions differ, {a.shape} vs {b.shape}") from None

    def bw(g):
        ga = _unbroadcast(g @ bd.swapaxes(-1, -2), ad.shape)
        gb = _unbroadcast(ad.swapaxes(-1, -2) @ g, bd.shape)
        return ga, gb

    return record("matmul", out, (a, b), bw)


def softmax(x: Tensor) -> Tensor:
    """Softmax along the last axis, stabilized by max subtraction."""
    if x.ndim == 0 or x.shape[-1] < 1:
        raise DimensionError(f"softmax needs a non-empty last axis, shape {x.shape}")
    shifted = x.data - x.data.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    out = e / e.sum(axis=-1, keepdims=True, dtype=np.float64).astype(np.float32)

    def bw(g):
        dot = (g * out).sum(axis=-1, keepdims=True)
        return ((g - dot) * out,)

    return record("softmax", out, (x,), bw)


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then affine."""
    d = x.shape[-1]
    if gain.shape != (d,) or bias.shape != (d,):
        raise DimensionError(
            f"layer_norm: gain/bias must have shape ({d},), got {gain.shape} and {bias.shape}")
    xd = x.data.astype(np.float64)
    mu = np.add.reduce(xd, axis=-1, keepdims=True)
    mu /= d
    xc = xd - mu
    var = np.add.reduce(xc * xc, axis=-1, keepdims=True)
    var /= d
    inv = 1.0 / np.sqrt(var + eps)
    xhat = xc * inv
    out = (xhat * gain.data + bias.data).astype(np.float32)

    def bw(g):
        gd = g.astype(np.float64)
        dxhat = gd * gain.data
        m1 = np.add.reduce(dxhat, axis=-1, keepdims=True)
        m1 /= d
        m2 = np.add.reduce(dxhat * xhat, axis=-1, keepdims=True)
        m2 /= d
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
    ms = np.add.reduce(xd * xd, axis=-1, keepdims=True)
    ms /= d
    inv = 1.0 / np.sqrt(ms + eps)
    xhat = xd * inv
    out = (xhat * gain.data).astype(np.float32)

    def bw(g):
        gd = g.astype(np.float64)
        dxhat = gd * gain.data
        m = np.add.reduce(dxhat * xhat, axis=-1, keepdims=True)
        m /= d
        gx = (inv * (dxhat - xhat * m)).astype(np.float32)
        ggain = (gd * xhat).sum(axis=tuple(range(g.ndim - 1))).astype(np.float32)
        return gx, ggain

    return record("rms_norm", out, (x, gain), bw)


def masked_cross_entropy(logits: Tensor, labels) -> Tensor:
    """Mean negative log-likelihood over positions whose label is not IGNORE_INDEX.

    `labels` is a plain integer sequence of length T for logits [T, V].
    Returns a scalar 0 with zero gradients when every position is ignored.
    """
    if logits.ndim != 2:
        raise DimensionError(f"masked_cross_entropy expects [T, V] logits, got {logits.shape}")
    labels = np.asarray(labels, dtype=np.int64)
    t, v = logits.shape
    if labels.shape != (t,):
        raise DimensionError(f"labels length {labels.shape} does not match logits rows {t}")
    valid = labels != IGNORE_INDEX
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
    try:
        out = x.data.reshape(shape)
    except ValueError:
        raise DimensionError(f"reshape: {x.shape} cannot become {shape}") from None

    def bw(g):
        return (g.reshape(x.shape),)

    return record("reshape", out, (x,), bw)


def transpose(x: Tensor, axes=None) -> Tensor:
    try:
        out = x.data.transpose(axes)
    except ValueError:
        raise DimensionError(f"transpose: axes {axes} do not permute {x.shape}") from None
    inv = None      # the inverse of reversing the axes is reversing them
    if axes is not None:
        inv = [0] * len(axes)
        for i, axis in enumerate(axes):
            inv[axis] = i

    def bw(g):
        return (g.transpose(inv),)

    return record("transpose", out, (x,), bw)


def concat(parts: Sequence[Tensor], axis: int = 0) -> Tensor:
    if not parts:
        raise ValidationError("concat needs at least one tensor")
    parts = tuple(parts)
    try:
        out = np.concatenate([p.data for p in parts], axis=axis)
    except ValueError:
        raise DimensionError(
            f"concat: shapes {[p.shape for p in parts]} do not join on axis {axis}") from None

    def bw(g):
        splits = np.cumsum([p.shape[axis] for p in parts])[:-1]
        return tuple(np.ascontiguousarray(piece) for piece in np.split(g, splits, axis=axis))

    return record("concat", out, parts, bw)


def narrow(x: Tensor, axis: int, start: int, length: int) -> Tensor:
    if not (-x.ndim <= axis < x.ndim and 0 <= start and 0 <= length
            and start + length <= x.shape[axis]):
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


def causal_mask(t: int, start: int = 0) -> Tensor:
    """Additive [t, start + t] mask for t rows that follow `start` earlier keys.

    Row i sits at position start + i and sees keys 0..start + i: -1e9 above
    that diagonal.
    """
    mask = np.zeros((t, start + t), dtype=np.float32)
    if t > 1:       # a single row sees every key
        mask[np.arange(start + t) > np.arange(start, start + t)[:, None]] = -1e9
    return Tensor(mask)
