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

Prompts under one chat template share a head: every id before the image
placeholder (BOS, the system message, the user prefix); a prompt without an
image has an empty head, which is never stored. The model keeps one
entry for the last head it saw: the head ids, narrow views of the head's
keys and values in each block, and the bytes of every parameter at the time.
`head_cache(head)` starts a cache from that entry only when the ids are equal
and every parameter's bytes still are too; weights change in place (an
optimizer step, a user edit), so nothing short of the bytes can tell. Keys
and values of a position depend only on the positions up to it, so the rest
of the prompt runs against them as it would after the head in one prefill.
Cached arrays are never written: `LayerCache.extend` concatenates into new
ones.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from ..data.tokenizer import VOCAB_SIZE
from ..errors import ValidationError
from ..numerics import Rng, Tensor, add, causal_mask, embedding, matmul, narrow, transpose
from .layers import INIT_STD, LayerCache, Module, RMSNorm, TransformerBlock, check_config_fields


@dataclass(frozen=True)
class LLMConfig:
    width: int = 64
    depth: int = 2
    heads: int = 4
    max_positions: int = 256

    def __post_init__(self):
        check_config_fields(self)
        if self.width % self.heads:
            raise ValidationError(f"width {self.width} not divisible by heads {self.heads}")


class KVCache:
    """Per-block keys and values of the first `length` positions of a sequence."""

    def __init__(self, depth: int):
        self.layers = [LayerCache() for _ in range(depth)]
        self.length = 0


@dataclass
class _HeadEntry:
    ids: np.ndarray
    kv: List[Tuple[Tensor, Tensor]]     # per block: keys and values [h, len(ids), dh]
    weights: List[bytes]                # every parameter's bytes when `kv` was computed


class LanguageModel(Module):
    def __init__(self, config: LLMConfig, rng: Rng):
        self.config = config
        d = config.width
        self.tok_embed = Tensor(rng.split("tok").normal((VOCAB_SIZE, d), std=INIT_STD),
                                requires_grad=True)
        self.pos_embed = Tensor(rng.split("pos").normal((config.max_positions, d), std=INIT_STD),
                                requires_grad=True)
        self.blocks: List[TransformerBlock] = [
            TransformerBlock(d, config.heads, rng.split(f"block{i}"))
            for i in range(config.depth)
        ]
        self.final_norm = RMSNorm(d)
        self._head: Optional[_HeadEntry] = None

    def embed_ids(self, ids: np.ndarray) -> Tensor:
        return embedding(self.tok_embed, ids)

    def new_cache(self) -> KVCache:
        return KVCache(len(self.blocks))

    def _weight_bytes(self) -> List[bytes]:
        return [p.data.tobytes() for p in self.parameters()]

    def head_cache(self, head: np.ndarray) -> KVCache:
        """A new cache holding `head`'s keys and values if the stored entry matches.

        A match needs equal ids and every parameter byte-equal to the stored
        snapshot; otherwise (or for an empty head) the cache starts empty.
        """
        cache = self.new_cache()
        entry = self._head
        if (len(head) and entry is not None and np.array_equal(entry.ids, head)
                and entry.weights == self._weight_bytes()):
            for layer, (k, v) in zip(cache.layers, entry.kv):
                layer.k, layer.v = k, v
            cache.length = len(head)
        return cache

    def keep_head(self, head: np.ndarray, cache: KVCache):
        """Store the first len(head) positions of `cache` as the entry for `head`."""
        n = len(head)
        kv = [(narrow(layer.k, 1, 0, n), narrow(layer.v, 1, 0, n)) for layer in cache.layers]
        self._head = _HeadEntry(np.array(head), kv, self._weight_bytes())

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
        mask = causal_mask(t, start=start) if t > 1 else None     # one row sees every key
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
