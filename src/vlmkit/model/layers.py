"""Shared building blocks: modules, linear/norm layers, attention, MLP.

Parameter discovery walks instance attributes in insertion order, so
parameter paths are stable strings like "blocks.0.attn.wq.w". Attributes
starting with an underscore are ignored.
"""

from __future__ import annotations

import math
from typing import List, Optional, Tuple

from ..errors import DimensionError
from ..numerics import (Rng, Tensor, add, concat, gelu, layer_norm, matmul, reshape, rms_norm, scale,
                        softmax, transpose)

INIT_STD = 0.02


class Module:
    def named_parameters(self, prefix: str = "") -> List[Tuple[str, Tensor]]:
        out: List[Tuple[str, Tensor]] = []
        for name, value in vars(self).items():
            if name.startswith("_"):
                continue
            path = f"{prefix}{name}"
            if isinstance(value, Tensor):
                out.append((path, value))
            elif isinstance(value, Module):
                out.extend(value.named_parameters(prefix=path + "."))
            elif isinstance(value, (list, tuple)):
                for i, item in enumerate(value):
                    if isinstance(item, Module):
                        out.extend(item.named_parameters(prefix=f"{path}.{i}."))
        return out

    def parameters(self) -> List[Tensor]:
        return [p for _, p in self.named_parameters()]

    def named_linears(self, prefix: str = "") -> List[Tuple[str, "Linear"]]:
        out: List[Tuple[str, "Linear"]] = []
        for name, value in vars(self).items():
            if name.startswith("_"):
                continue
            path = f"{prefix}{name}"
            if isinstance(value, Linear):
                out.append((path, value))
            elif isinstance(value, Module):
                out.extend(value.named_linears(prefix=path + "."))
            elif isinstance(value, (list, tuple)):
                for i, item in enumerate(value):
                    if isinstance(item, Module):
                        out.extend(item.named_linears(prefix=f"{path}.{i}."))
        return out

    def param_count(self) -> int:
        return sum(p.size for p in self.parameters())


class Linear(Module):
    """y = x @ w + b."""

    def __init__(self, d_in: int, d_out: int, rng: Rng, bias: bool = True):
        self.w = Tensor(rng.normal((d_in, d_out), std=INIT_STD), requires_grad=True)
        self.b = Tensor.zeros((d_out,), requires_grad=True) if bias else None

    @property
    def d_in(self) -> int:
        return self.w.shape[0]

    @property
    def d_out(self) -> int:
        return self.w.shape[1]

    def forward(self, x: Tensor) -> Tensor:
        y = matmul(x, self.w)
        if self.b is not None:
            y = add(y, self.b)
        return y

    __call__ = forward


class LayerNorm(Module):
    def __init__(self, d: int, eps: float = 1e-5):
        self.g = Tensor.ones((d,), requires_grad=True)
        self.b = Tensor.zeros((d,), requires_grad=True)
        self._eps = eps

    def forward(self, x: Tensor) -> Tensor:
        return layer_norm(x, self.g, self.b, eps=self._eps)

    __call__ = forward


class RMSNorm(Module):
    def __init__(self, d: int, eps: float = 1e-5):
        self.g = Tensor.ones((d,), requires_grad=True)
        self._eps = eps

    def forward(self, x: Tensor) -> Tensor:
        return rms_norm(x, self.g, eps=self._eps)

    __call__ = forward


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

    Query and key/value inputs may have different widths, which is what the
    resampler and q-former connectors use for cross-attention. With a
    `cache`, this call's keys and values are appended to the cached ones and
    the queries attend over all of them; `mask` then spans every key.
    """

    def __init__(self, d_model: int, heads: int, rng: Rng,
                 d_q_in: Optional[int] = None, d_kv_in: Optional[int] = None):
        if d_model % heads:
            raise DimensionError(f"width {d_model} not divisible by {heads} heads")
        self.wq = Linear(d_q_in or d_model, d_model, rng.split("wq"))
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
        ctx = matmul(softmax(scores, axis=-1), v)
        merged = reshape(transpose(ctx, (1, 0, 2)), (tq, self._d_model))
        return self.wo(merged)

    __call__ = forward


class FeedForward(Module):
    def __init__(self, d: int, rng: Rng, mult: int = 4):
        self.l1 = Linear(d, mult * d, rng.split("l1"))
        self.l2 = Linear(mult * d, d, rng.split("l2"))

    def forward(self, x: Tensor) -> Tensor:
        return self.l2(gelu(self.l1(x)))

    __call__ = forward


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

    __call__ = forward


def interleave_rows(a: Tensor, b: Tensor) -> Tensor:
    """Row-wise interleaving a0, b0, a1, b1, ... of two [N, d] tensors."""
    if a.shape != b.shape:
        raise DimensionError(f"interleave needs equal shapes, got {a.shape} and {b.shape}")
    n, d = a.shape
    stacked = concat([reshape(a, (n, 1, d)), reshape(b, (n, 1, d))], axis=1)
    return reshape(stacked, (2 * n, d))
