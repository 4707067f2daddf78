"""Connectors: map vision features [N, d_v] into LLM space [M, d_m].

Five kinds: identity, linear, mlp (two linear layers with GELU), and two
fixed-query designs, resampler (cross-attention only) and qformer
(self-attention over queries, then cross-attention). The fixed-query kinds
output exactly `queries` tokens regardless of N.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from ..errors import DimensionError, ValidationError
from ..numerics import Rng, Tensor, add, gelu
from .layers import (INIT_STD, FeedForward, LayerNorm, Linear, Module, MultiHeadAttention,
                     check_config_fields)


@dataclass(frozen=True)
class ConnectorConfig:
    d_v: int = 64
    d_m: int = 64
    queries: int = 4      # resampler / qformer only
    depth: int = 1        # resampler / qformer only
    heads: int = 4        # resampler / qformer only

    def __post_init__(self):
        check_config_fields(self)


def check_identity_dims(config: ConnectorConfig):
    """The identity connector passes features through, so d_v must equal d_m."""
    if config.d_v != config.d_m:
        raise ValidationError(
            f"identity connector requires d_v == d_m, got {config.d_v} vs {config.d_m}")


class Connector(Module):
    kind = "?"

    def __init__(self, config: ConnectorConfig):
        self.config = config

    def _check_input(self, feats: Tensor):
        if feats.ndim != 2 or feats.shape[1] != self.config.d_v:
            raise DimensionError(
                f"{self.kind} connector expects [N, {self.config.d_v}] features, got {feats.shape}")


class IdentityConnector(Connector):
    kind = "identity"

    def __init__(self, config: ConnectorConfig, rng: Rng = None):
        check_identity_dims(config)
        super().__init__(config)

    def forward(self, feats: Tensor) -> Tensor:
        self._check_input(feats)
        return feats


class LinearConnector(Connector):
    kind = "linear"

    def __init__(self, config: ConnectorConfig, rng: Rng):
        super().__init__(config)
        self.proj = Linear(config.d_v, config.d_m, rng.split("proj"))

    def forward(self, feats: Tensor) -> Tensor:
        self._check_input(feats)
        return self.proj(feats)


class MlpConnector(Connector):
    kind = "mlp"

    def __init__(self, config: ConnectorConfig, rng: Rng):
        super().__init__(config)
        self.l1 = Linear(config.d_v, config.d_m, rng.split("l1"))
        self.l2 = Linear(config.d_m, config.d_m, rng.split("l2"))

    def forward(self, feats: Tensor) -> Tensor:
        self._check_input(feats)
        return self.l2(gelu(self.l1(feats)))


class _CrossBlock(Module):
    """Pre-norm cross-attention to the image features plus feed-forward."""

    def __init__(self, d_m: int, d_v: int, heads: int, rng: Rng):
        self.ln_q = LayerNorm(d_m)
        self.cross = MultiHeadAttention(d_m, heads, rng.split("cross"), d_kv_in=d_v)
        self.ln_ff = LayerNorm(d_m)
        self.ff = FeedForward(d_m, rng.split("ff"))

    def forward(self, q: Tensor, feats: Tensor) -> Tensor:
        q = add(q, self.cross(self.ln_q(q), feats))
        q = add(q, self.ff(self.ln_ff(q)))
        return q


class _QFormerBlock(_CrossBlock):
    """Self-attention over the queries, then the cross block."""

    def __init__(self, d_m: int, d_v: int, heads: int, rng: Rng):
        self.ln_self = LayerNorm(d_m)
        self.self_attn = MultiHeadAttention(d_m, heads, rng.split("self"))
        super().__init__(d_m, d_v, heads, rng)

    def forward(self, q: Tensor, feats: Tensor) -> Tensor:
        normed = self.ln_self(q)
        return super().forward(add(q, self.self_attn(normed, normed)), feats)


class ResamplerConnector(Connector):
    """Learned queries refined by a stack of `block_class` blocks over the features."""

    kind = "resampler"
    block_class = _CrossBlock

    def __init__(self, config: ConnectorConfig, rng: Rng):
        super().__init__(config)
        self.query_embed = Tensor(
            rng.split("queries").normal((config.queries, config.d_m), std=INIT_STD),
            requires_grad=True)
        self.blocks: List[_CrossBlock] = [
            self.block_class(config.d_m, config.d_v, config.heads, rng.split(f"block{i}"))
            for i in range(config.depth)
        ]

    def forward(self, feats: Tensor) -> Tensor:
        self._check_input(feats)
        q = self.query_embed
        for block in self.blocks:
            q = block(q, feats)
        return q


class QFormerConnector(ResamplerConnector):
    kind = "qformer"
    block_class = _QFormerBlock

