"""AdamW with decoupled weight decay, and the warmup+cosine LR schedule.

AdamW keeps its training state flat. At construction it copies the
trainable parameters, in order, into one float32 buffer, and each
parameter's `data` becomes a view of its slice (same shape, same values).
The first and second moments and the gradients live in three more flat
buffers of the same layout; each parameter carries a view of its gradient
slice, which `backward` fills. One update then runs over the flat buffers
in chunks of `_CHUNK` values: a few large numpy calls instead of one small
loop body per tensor, with two chunk-sized work buffers for temporaries.
The arithmetic and its order are those of a per-tensor update, so the
results are bitwise identical to it. The moment decay rates and the
denominator's epsilon are Adam's usual constants (Kingma & Ba 2015); only
the learning rate and the weight decay are settable.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence, Tuple

import numpy as np

from ..errors import ValidationError, require_int
from .tensor import Tensor

_CHUNK = 1 << 15
BETA1, BETA2, EPS = 0.9, 0.999, 1e-8

# (rule, test) pairs for hyperparameters; NaN fails every test.
_NON_NEGATIVE = ("finite and >= 0", lambda x: 0 <= x < math.inf)
_FRACTION = ("in [0, 1)", lambda x: 0 <= x < 1)


def _require(name: str, value, rule) -> None:
    text, ok = rule
    try:
        good = ok(float(value))
    except (TypeError, ValueError):
        good = False
    if not good:
        raise ValidationError(f"{name} must be {text}, got {value!r}")


class AdamW:
    """Flat parameter, gradient and moment buffers plus the update rule.

    Buffers exist only for the parameters handed in (the trainable set),
    and each tensor may be handed in once. The update is plain float32
    arithmetic, so identical inputs give bitwise identical results.
    """

    def __init__(self, params: Sequence[Tuple[str, Tensor]], lr: float = 1e-3,
                 weight_decay: float = 0.0):
        _require("lr", lr, _NON_NEGATIVE)
        _require("weight_decay", weight_decay, _NON_NEGATIVE)
        self.params = list(params)
        self.lr = lr
        self.weight_decay = weight_decay
        self.step_count = 0
        seen = set()
        for name, p in self.params:
            if id(p) in seen:
                raise ValidationError(f"parameter '{name}' is listed twice")
            seen.add(id(p))
        n = sum(p.data.size for _, p in self.params)
        self._flat = np.empty(n, dtype=np.float32)
        self._grad = np.zeros(n, dtype=np.float32)
        self._m = np.zeros(n, dtype=np.float32)
        self._v = np.zeros(n, dtype=np.float32)
        self._work = (np.empty(min(n, _CHUNK), dtype=np.float32),
                      np.empty(min(n, _CHUNK), dtype=np.float32))
        self._data_views, self._grad_views = [], []
        lo = 0
        for _, p in self.params:
            hi = lo + p.data.size
            data = self._flat[lo:hi].reshape(p.data.shape)
            data[...] = p.data
            p.data = data
            p._grad_view = self._grad[lo:hi].reshape(data.shape)
            self._data_views.append(data)
            self._grad_views.append(p._grad_view)
            lo = hi

    def step(self, lr: Optional[float] = None):
        adamw_step(self, lr=lr)

    def zero_grad(self):
        for _, p in self.params:
            p.grad = None


def _gather(state: AdamW):
    """Make the flat buffers hold every parameter's current data and gradient."""
    for (name, p), data, grad in zip(state.params, state._data_views, state._grad_views):
        if p.grad is None:
            raise ValidationError(f"parameter '{name}' has no gradient; run backward first")
        if p.grad is not grad:
            if p.grad.shape != grad.shape:
                raise ValidationError(
                    f"parameter '{name}': grad shape {p.grad.shape} does not match "
                    f"its slot's {grad.shape}")
            grad[...] = p.grad
        if p.data is not data:
            if p.data.shape != data.shape:
                raise ValidationError(
                    f"parameter '{name}': data shape {p.data.shape} does not match "
                    f"its slot's {data.shape}")
            data[...] = p.data
            p.data = data


def adamw_step(state: AdamW, lr: Optional[float] = None):
    """Apply one AdamW update to every parameter in `state`."""
    if lr is not None:
        _require("lr", lr, _NON_NEGATIVE)
    _gather(state)
    lr = np.float32(state.lr if lr is None else lr)
    t = state.step_count + 1
    b1, b2 = np.float32(BETA1), np.float32(BETA2)
    c1, c2 = np.float32(1.0 - BETA1), np.float32(1.0 - BETA2)
    bc1 = np.float32(1.0 - BETA1 ** t)
    bc2 = np.float32(1.0 - BETA2 ** t)
    eps, wd = np.float32(EPS), np.float32(state.weight_decay)
    n = state._flat.size
    for lo in range(0, n, _CHUNK):
        hi = min(lo + _CHUNK, n)
        p, g = state._flat[lo:hi], state._grad[lo:hi]
        m, v = state._m[lo:hi], state._v[lo:hi]
        a, b = state._work[0][:hi - lo], state._work[1][:hi - lo]
        # Per value, in the per-tensor order: m = b1*m + c1*g,
        # v = b2*v + c2*(g*g), update = (m/bc1) / (sqrt(v/bc2) + eps)
        # [+ wd*p], p -= lr*update.
        m *= b1
        np.multiply(c1, g, out=a)
        m += a
        v *= b2
        np.multiply(g, g, out=a)
        a *= c2
        v += a
        np.divide(m, bc1, out=a)
        np.divide(v, bc2, out=b)
        np.sqrt(b, out=b)
        b += eps
        a /= b
        if state.weight_decay:
            np.multiply(wd, p, out=b)
            a += b
        a *= lr
        p -= a
    state.step_count = t


def lr_schedule(step: int, total_steps: int, peak_lr: float, warmup_ratio: float = 0.03) -> float:
    """Linear warmup to `peak_lr`, then cosine decay to zero.

    Warmup covers ceil(warmup_ratio * total_steps) steps; the value at the
    warmup boundary is exactly peak_lr and at `total_steps` exactly zero.
    So at least one step must be left to decay over: a ratio whose warmup
    reaches `total_steps` is rejected, as are `total_steps` outside
    [1, 2**53) (where floats stop counting steps exactly), a ratio outside
    [0, 1) and a `peak_lr` that is negative or not finite. Both step counts
    must be integers.
    """
    total_steps = require_int("total_steps", total_steps)
    step = require_int("step", step)
    if not 1 <= total_steps < 2 ** 53:
        raise ValidationError(f"total_steps must be in [1, 2**53), got {total_steps!r}")
    if not 0 <= step <= total_steps:
        raise ValidationError(f"step must be in [0, total_steps={total_steps}], got {step!r}")
    _require("peak_lr", peak_lr, _NON_NEGATIVE)
    _require("warmup_ratio", warmup_ratio, _FRACTION)
    warmup = math.ceil(warmup_ratio * total_steps)
    if warmup >= total_steps:
        raise ValidationError(
            f"warmup_ratio {warmup_ratio!r} gives {warmup} warmup steps, leaving none of "
            f"total_steps {total_steps} to decay over")
    if step < warmup:
        return peak_lr * step / warmup
    progress = (step - warmup) / (total_steps - warmup)
    # The factor is exactly 1 where warmup ends; peak_lr * 0.5 first would
    # round a subnormal peak_lr.
    return peak_lr * (0.5 * (1.0 + math.cos(math.pi * progress)))
