"""Shared building blocks: modules, linear/norm layers, attention, MLP, and
strict parsing of component configs.

Calling a module runs its `forward`; subclasses define only `forward`.
Parameter discovery walks instance attributes in insertion order, so
parameter paths are stable strings like "blocks.0.attn.wq.w". Attributes
starting with an underscore are ignored.
"""

from __future__ import annotations

import math
from dataclasses import fields
from typing import List, Optional, Tuple

from ..errors import DimensionError, ValidationError, require_int
from ..numerics import (Rng, Tensor, add, concat, gelu, layer_norm, matmul, reshape, rms_norm, scale,
                        softmax, transpose)

INIT_STD = 0.02


def as_object(value, what: str) -> dict:
    """`value` if it is a dict, {} for None; anything else is a ValidationError."""
    if value is None:
        return {}
    if not isinstance(value, dict):
        raise ValidationError(f"{what} must be an object, got {type(value).__name__}")
    return value


def config_from_dict(cls, cfg):
    """Build config dataclass `cls` from a dict, rejecting unknown keys."""
    cfg = as_object(cfg, f"{cls.__name__} config")
    known = {f.name for f in fields(cls)}
    unknown = sorted(str(key) for key in cfg if key not in known)
    if unknown:
        raise ValidationError(f"unknown {cls.__name__} keys: {', '.join(unknown)}")
    return cls(**cfg)


def check_config_fields(config):
    """Every field of a component config passes `require_int`, depth >= 0 and the rest
    >= 1, and is stored as the Python int."""
    for f in fields(config):
        value = require_int(f"{type(config).__name__}.{f.name}", getattr(config, f.name),
                            0 if f.name == "depth" else 1)
        object.__setattr__(config, f.name, value)


class Module:
    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)

    def _walk(self, out: list, prefix: str) -> list:
        """Append a (path, tensor) pair for every parameter to `out`, in path order."""
        for name, value in vars(self).items():
            if name.startswith("_"):
                continue
            if isinstance(value, Tensor):
                out.append((prefix + name, value))
            elif isinstance(value, Module):
                value._walk(out, f"{prefix}{name}.")
            elif isinstance(value, (list, tuple)):
                for i, item in enumerate(value):
                    if isinstance(item, Module):
                        item._walk(out, f"{prefix}{name}.{i}.")
        return out

    def named_parameters(self) -> List[Tuple[str, Tensor]]:
        return self._walk([], "")

    def parameters(self) -> List[Tensor]:
        return [t for _, t in self.named_parameters()]


class Linear(Module):
    """y = x @ w + b."""

    def __init__(self, d_in: int, d_out: int, rng: Rng):
        self.w = Tensor(rng.normal((d_in, d_out), std=INIT_STD), requires_grad=True)
        self.b = Tensor.zeros((d_out,), requires_grad=True)

    def forward(self, x: Tensor) -> Tensor:
        return add(matmul(x, self.w), self.b)


class LayerNorm(Module):
    def __init__(self, d: int):
        self.g = Tensor.ones((d,), requires_grad=True)
        self.b = Tensor.zeros((d,), requires_grad=True)

    def forward(self, x: Tensor) -> Tensor:
        return layer_norm(x, self.g, self.b)


class RMSNorm(Module):
    def __init__(self, d: int):
        self.g = Tensor.ones((d,), requires_grad=True)

    def forward(self, x: Tensor) -> Tensor:
        return rms_norm(x, self.g)


class LayerCache:
    """Keys and values [h, T, dh] of the positions one attention layer has seen."""

    __slots__ = ("k", "v")

    def __init__(self):
        self.k: Optional[Tensor] = None
        self.v: Optional[Tensor] = None

    def extend(self, k: Tensor, v: Tensor) -> Tuple[Tensor, Tensor]:
        """Append this call's keys and values; returns all of them."""
        if self.k is not None:
            k = concat([self.k, k], axis=1)
            v = concat([self.v, v], axis=1)
        self.k, self.v = k, v
        return k, v


class MultiHeadAttention(Module):
    """Scaled dot-product attention over [T, d] sequences (no batch dim).

    Key/value inputs may have a width other than the queries', which is what
    the resampler and q-former connectors use for cross-attention. With a
    `cache`, this call's keys and values are appended to the cached ones and
    the queries attend over all of them; `mask` then spans every key.
    """

    def __init__(self, d_model: int, heads: int, rng: Rng, d_kv_in: Optional[int] = None):
        if d_model % heads:
            raise DimensionError(f"width {d_model} not divisible by {heads} heads")
        self.wq = Linear(d_model, d_model, rng.split("wq"))
        self.wk = Linear(d_kv_in or d_model, d_model, rng.split("wk"))
        self.wv = Linear(d_kv_in or d_model, d_model, rng.split("wv"))
        self.wo = Linear(d_model, d_model, rng.split("wo"))
        self._heads = heads
        self._d_model = d_model
        self._d_head = d_model // heads

    def forward(self, q_in: Tensor, kv_in: Tensor, mask: Optional[Tensor] = None,
                cache: Optional[LayerCache] = None) -> Tensor:
        tq, tk = q_in.shape[0], kv_in.shape[0]
        h, dh = self._heads, self._d_head

        def split_heads(x: Tensor, t: int) -> Tensor:
            return transpose(reshape(x, (t, h, dh)), (1, 0, 2))

        q = split_heads(self.wq(q_in), tq)
        k = split_heads(self.wk(kv_in), tk)
        v = split_heads(self.wv(kv_in), tk)
        if cache is not None:
            k, v = cache.extend(k, v)
        scores = scale(matmul(q, transpose(k, (0, 2, 1))), 1.0 / math.sqrt(dh))
        if mask is not None:
            scores = add(scores, mask)
        ctx = matmul(softmax(scores), v)
        merged = reshape(transpose(ctx, (1, 0, 2)), (tq, self._d_model))
        return self.wo(merged)


class FeedForward(Module):
    def __init__(self, d: int, rng: Rng):
        self.l1 = Linear(d, 4 * d, rng.split("l1"))
        self.l2 = Linear(4 * d, d, rng.split("l2"))

    def forward(self, x: Tensor) -> Tensor:
        return self.l2(gelu(self.l1(x)))


class TransformerBlock(Module):
    """Pre-norm self-attention block; pass a mask for causal use and a cache to decode."""

    def __init__(self, d: int, heads: int, rng: Rng):
        self.ln1 = LayerNorm(d)
        self.attn = MultiHeadAttention(d, heads, rng.split("attn"))
        self.ln2 = LayerNorm(d)
        self.ff = FeedForward(d, rng.split("ff"))

    def forward(self, x: Tensor, mask: Optional[Tensor] = None,
                cache: Optional[LayerCache] = None) -> Tensor:
        normed = self.ln1(x)
        x = add(x, self.attn(normed, normed, mask, cache))
        x = add(x, self.ff(self.ln2(x)))
        return x


def interleave_rows(a: Tensor, b: Tensor) -> Tensor:
    """Row-wise interleaving a0, b0, a1, b1, ... of two [N, d] tensors.

    Row i of the [N, 2d] concat is a_i then b_i, so reading it as [2N, d]
    interleaves: two tape nodes, a concat and a reshape.
    """
    if a.shape != b.shape:
        raise DimensionError(f"interleave needs equal shapes, got {a.shape} and {b.shape}")
    n, d = a.shape
    return reshape(concat([a, b], axis=1), (2 * n, d))
