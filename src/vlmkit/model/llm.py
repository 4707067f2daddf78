"""Tiny causal decoder language model over the 260-token byte vocabulary.

The output projection is tied to the token embedding. Forward takes a
pre-embedded [T, d] sequence so multimodal composition can splice image
features in before any position information is added.

The blocks are pre-norm with LayerNorm; the final norm is an RMSNorm (gain,
no bias), as in LLaMA/Gemma-style decoders. A final LayerNorm would subtract
each position's mean, and since every block norm does too, the logits would
be blind to a uniform shift of any input embedding: that direction of the
residual stream would carry nothing to the output.

Decoding uses a `KVCache`: one `LayerCache` of keys and values per block,
plus the count of positions already run. `forward(embeds, cache)` treats its
t input rows as positions `start .. start + t - 1`, where `start` is the
cache length: they get those position embeddings, attend causally to the
`start + t` keys, and their keys and values join the cache. A first call
over the whole prompt (the prefill) followed by one-row calls gives the
logits one uncached forward over the full sequence would, up to float32
rounding. No call may reach past `max_positions`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from ..data.tokenizer import VOCAB_SIZE
from ..errors import ValidationError
from ..numerics import Rng, Tensor, add, causal_mask, embedding, matmul, narrow, transpose
from .layers import INIT_STD, LayerCache, Module, RMSNorm, TransformerBlock
from .vision import _config_from_dict


@dataclass(frozen=True)
class LLMConfig:
    width: int = 64
    depth: int = 2
    heads: int = 4
    max_positions: int = 256
    vocab_size: int = VOCAB_SIZE

    def __post_init__(self):
        if self.width % self.heads:
            raise ValidationError(f"width {self.width} not divisible by heads {self.heads}")

    @classmethod
    def from_dict(cls, cfg: dict) -> "LLMConfig":
        return _config_from_dict(cls, cfg)


class KVCache:
    """Per-block keys and values of the first `length` positions of a sequence."""

    def __init__(self, depth: int):
        self.layers = [LayerCache() for _ in range(depth)]
        self.length = 0


class LanguageModel(Module):
    def __init__(self, config: LLMConfig, rng: Rng):
        self.config = config
        d = config.width
        self.tok_embed = Tensor(rng.split("tok").normal((config.vocab_size, d), std=INIT_STD),
                                requires_grad=True)
        self.pos_embed = Tensor(rng.split("pos").normal((config.max_positions, d), std=INIT_STD),
                                requires_grad=True)
        self.blocks: List[TransformerBlock] = [
            TransformerBlock(d, config.heads, rng.split(f"block{i}"))
            for i in range(config.depth)
        ]
        self.final_norm = RMSNorm(d)

    @property
    def width(self) -> int:
        return self.config.width

    def embed_ids(self, ids: np.ndarray) -> Tensor:
        return embedding(self.tok_embed, np.asarray(ids, dtype=np.int64))

    def new_cache(self) -> KVCache:
        return KVCache(len(self.blocks))

    def forward(self, embeds: Tensor, cache: Optional[KVCache] = None) -> Tensor:
        """Causal forward over [t, d] embeddings; returns [t, vocab] logits.

        With a cache, the rows continue the cached sequence and are added to it.
        """
        t = embeds.shape[0]
        start = 0 if cache is None else cache.length
        if start + t > self.config.max_positions:
            raise ValidationError(
                f"sequence length {start + t} exceeds max positions {self.config.max_positions}")
        x = add(embeds, narrow(self.pos_embed, 0, start, t))
        mask = causal_mask(t, start=start)
        layers = [None] * len(self.blocks) if cache is None else cache.layers
        for block, layer in zip(self.blocks, layers):
            x = block(x, mask, layer)
        if cache is not None:
            cache.length = start + t
        x = self.final_norm(x)
        # Weight tying: logits share the token embedding matrix.
        return matmul(x, transpose(self.tok_embed))

    def forward_embeds(self, embeds: Tensor) -> Tensor:
        """Causal forward over a whole [T, d] sequence, without a cache."""
        return self.forward(embeds)

    __call__ = forward
