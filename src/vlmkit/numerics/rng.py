"""Seedable, splittable random streams with a pinned algorithm.

Each stream is a numpy Philox4x64 generator keyed by
SHA-256(seed ":" label0 "/" label1 ...) truncated to 128 bits. Splitting
derives the child key from the parent's (seed, path) only, never from how
much the parent has been consumed, so streams are independent of draw
order. Philox bit streams are stable across platforms and numpy releases,
which makes weight initialization reproducible everywhere.
"""

from __future__ import annotations

import hashlib
from typing import Tuple

import numpy as np

from ..errors import require_int


class Rng:
    def __init__(self, seed: int, path: Tuple[str, ...] = ()):
        self.seed = require_int("seed", seed)
        self.path = tuple(path)
        material = f"{self.seed}:" + "/".join(self.path)
        digest = hashlib.sha256(material.encode("utf-8")).digest()
        key = int.from_bytes(digest[:16], "little")
        self._gen = np.random.Generator(np.random.Philox(key=key))

    def split(self, label: str) -> "Rng":
        """Child stream named by `label`, independent of this one."""
        return Rng(self.seed, self.path + (str(label),))

    def normal(self, shape, std: float = 1.0) -> np.ndarray:
        return (self._gen.standard_normal(size=shape) * std).astype(np.float32)

    def integers(self, low: int, high: int, size=None):
        return self._gen.integers(low, high, size=size)

    def choice(self, seq):
        return seq[int(self._gen.integers(0, len(seq)))]

    def __repr__(self):
        return f"Rng(seed={self.seed}, path={'/'.join(self.path) or '<root>'})"
