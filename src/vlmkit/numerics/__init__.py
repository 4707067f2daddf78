"""Tensor engine: float32 arrays, reverse-mode autodiff, AdamW, schedules."""

from .gradcheck import grad_check
from .optim import AdamW, adamw_step, lr_schedule
from .ops import (
    IGNORE_INDEX,
    add,
    causal_mask,
    concat,
    embedding,
    exp,
    gelu,
    layer_norm,
    masked_cross_entropy,
    matmul,
    mul,
    narrow,
    reshape,
    rms_norm,
    scale,
    softmax,
    tanh,
    tmean,
    transpose,
    tsum,
)
from .rng import Rng
from .tensor import Tensor, backward, no_grad

__all__ = [
    "AdamW",
    "IGNORE_INDEX",
    "Rng",
    "Tensor",
    "adamw_step",
    "add",
    "backward",
    "causal_mask",
    "concat",
    "embedding",
    "exp",
    "gelu",
    "grad_check",
    "layer_norm",
    "lr_schedule",
    "masked_cross_entropy",
    "matmul",
    "mul",
    "narrow",
    "no_grad",
    "reshape",
    "rms_norm",
    "scale",
    "softmax",
    "tanh",
    "tmean",
    "transpose",
    "tsum",
]
