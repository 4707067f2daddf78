"""Differentiable operations on tensors.

Forward values are float32, and so is every elementwise op, inside and
out; only what reduces (sums, statistics, log-sum-exp) runs in float64
internally and casts back. Backward rules return one gradient per input,
or None for inputs that need none.

At the sizes this library runs, an op's fixed cost per call (Python calls,
numpy wrappers) weighs more than its arithmetic, so the bodies keep to two
rules:

- A mean over an axis is `np.add.reduce` followed by an in-place divide by
  the count. That is the sum-then-divide `ndarray.mean` and `ndarray.var`
  perform inside their Python wrappers, so it rounds the same way, bit for
  bit, without the wrappers.
- An op does not pre-check what numpy already rejects. It catches numpy's
  error and raises the `DimensionError` that names the shapes.
- An op keeps for backward only what backward reads, and recomputes by the
  forward's own steps whatever it can take from its inputs, so the bits are
  the same. A bias added inside `matmul` and the scale and mask applied
  inside `softmax` leave no intermediate array on the tape; the norms keep
  per-row statistics, not the normalized input; the loss keeps only its
  supervised rows.
"""

from __future__ import annotations

from numbers import Real
from typing import Optional, Sequence

import numpy as np

from ..errors import DimensionError, ValidationError, require_int
from .tensor import Tensor, record, taped

IGNORE_INDEX = -100
NORM_EPS = 1e-5     # added to the variance (layer_norm) or mean square (rms_norm)

# gelu: Abramowitz & Stegun 7.1.26, erfc(z) ~ poly(t) * exp(-z^2) with
# t = 1/(1 + p*z), z >= 0. For z = |x|/sqrt(2) this is
# Phi(-|x|) = poly(t)/2 * exp(-x^2/2) with t = R/(R + |x|), R = sqrt(2)/p.
# _GELU_POLY holds poly's coefficients halved, highest degree first;
# poly has no constant term.
_GELU_R = np.float32(np.sqrt(2.0) / 0.3275911)
_GELU_POLY = tuple(np.float32(a / 2) for a in (1.061405429, -1.453152027, 1.421413741,
                                               -0.284496736, 0.254829592))
# exp(-x^2/2) is 0 in float32 beyond |x| = 14.4, so clamping |x| at 16
# before squaring changes no value and keeps x*x from overflowing.
_GELU_CLAMP = np.float32(16.0)
_INV_SQRT_2PI = np.float32(1.0 / np.sqrt(2.0 * np.pi))


def _integer_indices(op: str, what: str, values) -> np.ndarray:
    """`values` as an array of the caller's integer dtype; a non-empty array of
    any other dtype (float, bool) is a ValidationError naming `op`."""
    values = np.asarray(values)
    if values.dtype.kind not in "iu":
        if values.size:
            raise ValidationError(f"{op} {what} must be integers, got dtype {values.dtype}")
        values = values.astype(np.intp)
    return values


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


def _factor(op: str, s) -> np.float32:
    """`s` as a float32 factor when it is a real number (a bool is not one)."""
    if isinstance(s, bool) or not isinstance(s, Real):
        raise ValidationError(f"{op} factor must be a real number, got {s!r}")
    return np.float32(float(s))


def scale(a: Tensor, s: float) -> Tensor:
    """`a` times the real number `s`."""
    s = _factor("scale", s)
    out = a.data * s

    def bw(g):
        return (g * s,)

    return record("scale", out, (a,), bw)


def gelu(x: Tensor) -> Tensor:
    """Exact-erf GELU, x * Phi(x) with Phi(x) = (1 + erf(x / sqrt(2))) / 2.

    Phi comes from Abramowitz & Stegun 7.1.26 (|erf error| <= 1.5e-7),
    evaluated in float32 as h = Phi(-|x|) and taken as h or 1 - h, so the
    negative tail keeps its relative accuracy. Output and gradient are
    within 2e-6 of x * Phi(x) and Phi(x) + x * phi(x) computed with
    math.erf, on [-10, 10]; beyond it, gelu(x) is x, or under 1e-22 in
    magnitude. When the result is taped, the forward also forms the
    derivative from the same Phi and exp(-x^2/2), and the backward
    multiplies by it.
    """
    xd = x.data
    a = np.minimum(np.abs(xd), _GELU_CLAMP)
    t = a + _GELU_R
    np.divide(_GELU_R, t, out=t)
    np.square(a, out=a)
    a *= np.float32(-0.5)
    e = np.exp(a, out=a)
    h = t * _GELU_POLY[0]
    for c in _GELU_POLY[1:]:
        h += c
        h *= t
    h *= e
    # Phi = (1 + s)/2 - s*h with s = sign(x): 1 - h, h, or 1/2 at x = 0.
    s = np.sign(xd)
    h *= s
    cdf = s * np.float32(0.5)
    cdf += np.float32(0.5)
    cdf -= h
    out = xd * cdf
    if not taped((x,)):
        return record("gelu", out, (x,), None)
    # d/dx x*Phi(x) = Phi(x) + x*phi(x), phi(x) = exp(-x^2/2) / sqrt(2 pi).
    slope = np.multiply(e, _INV_SQRT_2PI, out=e)
    slope *= xd
    slope += cdf

    def bw(g):
        return (g * slope,)

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


def matmul(a: Tensor, b: Tensor, bias: Optional[Tensor] = None) -> Tensor:
    """a @ b, plus `bias` when one is given.

    The bias is added in place into the product, which rounds as a separate
    `add` would; it must broadcast to the product's shape.
    """
    ad, bd = a.data, b.data
    if ad.ndim < 2 or bd.ndim < 2:
        raise DimensionError(f"matmul needs >=2-d operands, got {a.shape} and {b.shape}")
    try:
        out = ad @ bd
    except ValueError:
        which = "inner" if ad.shape[-1] != bd.shape[-2] else "batch"
        raise DimensionError(f"matmul: {which} dimensions differ, {a.shape} vs {b.shape}") from None
    inputs = (a, b)
    if bias is not None:
        inputs += (bias,)
        try:
            out += bias.data
        except ValueError:
            raise DimensionError(
                f"matmul: bias {bias.shape} does not broadcast to the product {out.shape}") from None

    def bw(g):
        ga = _unbroadcast(g @ bd.swapaxes(-1, -2), ad.shape)
        gb = _unbroadcast(ad.swapaxes(-1, -2) @ g, bd.shape)
        if bias is None:
            return ga, gb
        return ga, gb, _unbroadcast(g, bias.shape)

    return record("matmul", out, inputs, bw)


def softmax(x: Tensor, s: float = 1.0, mask: Optional[Tensor] = None) -> Tensor:
    """Softmax of x * s + mask along the last axis, stabilized by max subtraction.

    Scaling and masking round as a separate `scale` and `add` would, but
    leave no copy of the scores behind. The mask must broadcast to x's
    shape; it is a constant and gets no gradient.
    """
    s = _factor("softmax", s)
    if x.ndim == 0 or x.shape[-1] < 1:
        raise DimensionError(f"softmax needs a non-empty last axis, shape {x.shape}")
    out = x.data * s
    if mask is not None:
        try:
            out += mask.data
        except ValueError:
            raise DimensionError(
                f"softmax: mask {mask.shape} does not broadcast to the scores {x.shape}") from None
    out -= out.max(axis=-1, keepdims=True)
    np.exp(out, out=out)
    out /= out.sum(axis=-1, keepdims=True, dtype=np.float64).astype(np.float32)

    def bw(g):
        dot = (g * out).sum(axis=-1, keepdims=True)
        gx = g - dot
        gx *= out
        gx *= s
        return (gx,)

    return record("softmax", out, (x,), bw)


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then affine.

    The tape keeps each row's mean and 1/sigma; backward recomputes the
    normalized input from `x` by the forward's steps.
    """
    d = x.shape[-1]
    if gain.shape != (d,) or bias.shape != (d,):
        raise DimensionError(
            f"layer_norm: gain/bias must have shape ({d},), got {gain.shape} and {bias.shape}")
    y = x.data.astype(np.float64)     # in place: x - mu, then x-hat, then the affine
    mu = np.add.reduce(y, axis=-1, keepdims=True)
    mu /= d
    y -= mu
    var = np.add.reduce(y * y, axis=-1, keepdims=True)
    var /= d
    inv = 1.0 / np.sqrt(var + NORM_EPS)
    y *= inv
    y *= gain.data
    y += bias.data
    out = y.astype(np.float32)

    def bw(g):
        xhat = x.data.astype(np.float64)
        xhat -= mu
        xhat *= inv
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


def rms_norm(x: Tensor, gain: Tensor) -> Tensor:
    """Scale the last axis to unit root-mean-square, then apply a gain.

    Unlike layer_norm nothing is subtracted, so a uniform shift of the
    input still reaches the output (Zhang & Sennrich 2019). The tape keeps
    each row's 1/rms; backward recomputes the normalized input from `x`.
    """
    d = x.shape[-1]
    if gain.shape != (d,):
        raise DimensionError(f"rms_norm: gain must have shape ({d},), got {gain.shape}")
    y = x.data.astype(np.float64)     # in place: x, then x-hat, then times the gain
    ms = np.add.reduce(y * y, axis=-1, keepdims=True)
    ms /= d
    inv = 1.0 / np.sqrt(ms + NORM_EPS)
    y *= inv
    y *= gain.data
    out = y.astype(np.float32)

    def bw(g):
        xhat = x.data.astype(np.float64)
        xhat *= inv
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

    `labels` is an integer sequence of length T for logits [T, V]; float or
    bool labels are rejected, not truncated. Returns a scalar 0 with zero
    gradients when every position is ignored.
    """
    if logits.ndim != 2:
        raise DimensionError(f"masked_cross_entropy expects [T, V] logits, got {logits.shape}")
    labels = _integer_indices("masked_cross_entropy", "labels", labels)
    t, v = logits.shape
    if labels.shape != (t,):
        raise DimensionError(f"labels length {labels.shape} does not match logits rows {t}")
    valid = labels != IGNORE_INDEX
    bad = np.where(valid & ((labels < 0) | (labels >= v)))[0]
    if bad.size:
        raise ValidationError(
            f"label {labels[bad[0]]} out of range [0, {v}) at position {int(bad[0])}")

    rows = np.flatnonzero(valid)
    n = rows.size
    # Each row's log-sum-exp is its own, so taking only the supervised rows
    # gives them the bits the whole [T, V] block would.
    ld = logits.data[rows].astype(np.float64)
    picked = labels[rows]
    m = ld.max(axis=-1, keepdims=True)
    lse = (m + np.log(np.exp(ld - m).sum(axis=-1, keepdims=True))).reshape(-1)
    # Scalar losses keep their float64 accumulation; this is what makes
    # finite-difference checks against them meaningful.
    loss = np.float64((lse - ld[np.arange(n), picked]).sum() / n) if n else np.float64(0.0)

    def bw(g):
        gl = np.zeros((t, v), dtype=np.float32)
        if n > 0:
            p = np.exp(ld - lse[:, None])
            p[np.arange(n), picked] -= 1.0
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
    """`length` entries of `x` from `start` along `axis`; each of the three is an integer."""
    axis = require_int("narrow axis", axis)
    start = require_int("narrow start", start)
    length = require_int("narrow length", length)
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
    """Gather rows of `table` by integer index; scatter-add on backward.

    `ids` is a 1-d integer array in [0, rows), indexed in its own dtype; float
    or bool ids are rejected, not truncated.
    """
    ids = _integer_indices("embedding", "ids", ids)
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
