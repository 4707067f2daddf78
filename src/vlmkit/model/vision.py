"""Vision towers: a tiny ViT, and a dual-tower feature-mixing wrapper.

One architecture backs every registered tower name; registered names and
their configs are what distinguish towers, since pretrained weights are
out of scope at desk scale. The dual-tower wrapper interleaves the two
towers' output tokens (a0, b0, a1, b1, ...).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from ..errors import DimensionError, ValidationError
from ..numerics import Rng, Tensor, add
from .layers import (INIT_STD, LayerNorm, Linear, Module, TransformerBlock, check_config_fields,
                     config_from_dict, interleave_rows)


@dataclass(frozen=True)
class VisionTowerConfig:
    image_size: int = 16
    patch_size: int = 8
    width: int = 64
    depth: int = 2
    heads: int = 4

    def __post_init__(self):
        check_config_fields(self)
        if self.image_size % self.patch_size:
            raise ValidationError(
                f"image_size {self.image_size} not divisible by patch_size {self.patch_size}")
        if self.width % self.heads:
            raise ValidationError(f"width {self.width} not divisible by heads {self.heads}")

    @property
    def num_patches(self) -> int:
        return (self.image_size // self.patch_size) ** 2

    @classmethod
    def from_dict(cls, cfg: dict) -> "VisionTowerConfig":
        return config_from_dict(cls, cfg)


def patchify(image: np.ndarray, patch: int) -> np.ndarray:
    """[3, S, S] image to [(S/P)^2, 3*P*P] rows, row-major over patches."""
    c, h, w = image.shape
    gh, gw = h // patch, w // patch
    x = image.reshape(c, gh, patch, gw, patch)
    return np.ascontiguousarray(x.transpose(1, 3, 0, 2, 4)).reshape(gh * gw, c * patch * patch)


class VisionTower(Module):
    def __init__(self, config: VisionTowerConfig, rng: Rng):
        self.config = config
        d, p = config.width, config.patch_size
        self.patch_proj = Linear(3 * p * p, d, rng.split("patch_proj"))
        self.pos_embed = Tensor(rng.split("pos").normal((config.num_patches, d), std=INIT_STD),
                                requires_grad=True)
        self.blocks: List[TransformerBlock] = [
            TransformerBlock(d, config.heads, rng.split(f"block{i}"))
            for i in range(config.depth)
        ]
        self.final_norm = LayerNorm(d)

    def forward(self, image: np.ndarray) -> Tensor:
        s = self.config.image_size
        if image.shape != (3, s, s):
            raise DimensionError(
                f"vision tower expects image [3, {s}, {s}], got {tuple(image.shape)}")
        patches = Tensor(patchify(np.asarray(image, dtype=np.float32), self.config.patch_size))
        x = add(self.patch_proj(patches), self.pos_embed)
        for block in self.blocks:
            x = block(x)
        return self.final_norm(x)


class DualTower(Module):
    """Feature mixing over two towers: token-wise interleaving of outputs."""

    def __init__(self, tower_a: VisionTower, tower_b: VisionTower):
        ca, cb = tower_a.config, tower_b.config
        if (ca.image_size, ca.patch_size, ca.width) != (cb.image_size, cb.patch_size, cb.width):
            raise ValidationError(
                "dual-tower requires matching image size, patch size, and width; "
                f"got {ca} vs {cb}")
        self.tower_a = tower_a
        self.tower_b = tower_b

    @property
    def config(self) -> VisionTowerConfig:
        return self.tower_a.config

    def forward(self, image: np.ndarray) -> Tensor:
        return interleave_rows(self.tower_a(image), self.tower_b(image))
