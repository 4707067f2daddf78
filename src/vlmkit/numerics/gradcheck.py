"""Central finite-difference verification of recorded gradients."""

from __future__ import annotations

from typing import Callable

import numpy as np

from ..errors import ValidationError
from .tensor import Tensor, no_grad

STEP = 1e-3


def grad_check(f: Callable[[Tensor], Tensor], x: Tensor) -> float:
    """Max relative error between f's recorded gradient and central differences
    of step STEP (1e-3).

    `f` must return a scalar tensor and may either use its argument or close
    over `x` directly (grad_check perturbs x.data in place for the
    finite-difference passes and restores it afterwards). The relative error
    per coordinate is |analytic - fd| / max(1, |analytic|, |fd|); function
    values stay in float32 while differences accumulate in float64.
    """
    if not x.requires_grad:
        raise ValidationError("grad_check target must require gradients")

    x.grad = None
    y = f(x)
    if y.size != 1:
        raise ValidationError(f"grad_check function must be scalar-valued, got {y.shape}")
    y.backward()
    if x.grad is None:
        raise ValidationError("function output does not depend on the checked tensor")
    analytic = x.grad.astype(np.float64).copy()
    x.grad = None

    flat = x.data.reshape(-1)
    fd = np.zeros(flat.size, dtype=np.float64)
    with no_grad():
        for i in range(flat.size):
            orig = flat[i]
            hi = np.float32(orig + STEP)
            lo = np.float32(orig - STEP)
            flat[i] = hi
            up = float(f(x).item())
            flat[i] = lo
            down = float(f(x).item())
            flat[i] = orig
            # Divide by the step float32 actually realized, not nominal 2h.
            fd[i] = (up - down) / (float(hi) - float(lo))
    fd = fd.reshape(x.shape)

    denom = np.maximum(1.0, np.maximum(np.abs(analytic), np.abs(fd)))
    return float(np.max(np.abs(analytic - fd) / denom))
