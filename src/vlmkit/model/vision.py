"""Vision towers: a tiny ViT, and a dual-tower feature-mixing wrapper.

`VisionTower` is the one tower architecture; its config sets the image
size, patch size, width and depth, and pretrained weights are out of scope
at desk scale. The dual-tower wrapper interleaves the two towers' output
tokens (a0, b0, a1, b1, ...).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from ..errors import DimensionError, ValidationError
from ..numerics import Rng, Tensor, add
from .layers import (INIT_STD, LayerNorm, Linear, Module, TransformerBlock, check_config_fields,
                     interleave_rows)


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


def check_towers_match(a: VisionTowerConfig, b: VisionTowerConfig):
    """Feature mixing needs two towers of one image size, patch size and width."""
    if (a.image_size, a.patch_size, a.width) != (b.image_size, b.patch_size, b.width):
        raise ValidationError(
            f"towers must match image size, patch size, and width: {a} vs {b}")


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
        check_towers_match(tower_a.config, tower_b.config)
        self.tower_a = tower_a
        self.tower_b = tower_b

    @property
    def config(self) -> VisionTowerConfig:
        return self.tower_a.config

    def forward(self, image: np.ndarray) -> Tensor:
        return interleave_rows(self.tower_a(image), self.tower_b(image))
