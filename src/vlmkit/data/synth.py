"""Synthetic VQA: grid images with one colored shape, plus QA pairs.

Each sample is one 32x32 image (dark background, faint gridlines, one
colored shape in one quadrant) and a single question/answer pair. Question
types cycle per index: color, shape, existence, existence, so half the
corpus probes existence POPE-style. Existence questions alternate yes/no
exactly, keeping any split balanced within one sample.

Every sample is a pure function of (seed, split, index): its random stream
is keyed by SHA-256 over that triple (see numerics.rng), which is also
what keeps train and heldout splits disjoint.
"""

from __future__ import annotations

import json
import os
from typing import Dict, List, Tuple

import numpy as np

from ..errors import ValidationError, require_int
from ..numerics.rng import Rng
from .images import write_ppm

IMAGE_SIDE = 32
_QUAD = IMAGE_SIDE // 2

COLORS: Dict[str, Tuple[int, int, int]] = {
    "red": (220, 50, 50),
    "green": (60, 175, 70),
    "blue": (60, 90, 215),
    "yellow": (230, 205, 60),
    "purple": (150, 70, 190),
    "orange": (235, 140, 45),
}
COLOR_NAMES = tuple(COLORS)
SHAPES = ("square", "circle", "triangle")
CATEGORIES = ("color", "shape", "existence")

ANSWER_VOCABULARY = frozenset(COLOR_NAMES) | frozenset(SHAPES) | {"yes", "no"}

COLOR_QUESTION = "What color is the shape?"
SHAPE_QUESTION = "What shape is it?"
EXIST_SHAPE_QUESTION = "Is there a {} in the image?"
EXIST_COLOR_QUESTION = "Is there a {} shape in the image?"

_BG = 26
_GRID = 46


def _draw_scene(color: str, shape: str, quadrant: int, rng: Rng) -> np.ndarray:
    img = np.full((IMAGE_SIDE, IMAGE_SIDE, 3), _BG, dtype=np.uint8)
    img[::8, :, :] = _GRID
    img[:, ::8, :] = _GRID

    qy, qx = divmod(quadrant, 2)
    cy = qy * _QUAD + _QUAD // 2 + int(rng.integers(-1, 2))
    cx = qx * _QUAD + _QUAD // 2 + int(rng.integers(-1, 2))
    size = int(rng.choice((10, 12)))
    half = size // 2

    yy, xx = np.mgrid[0:IMAGE_SIDE, 0:IMAGE_SIDE]
    if shape == "square":
        mask = (np.abs(yy - cy) <= half) & (np.abs(xx - cx) <= half)
    elif shape == "circle":
        mask = (yy - cy) ** 2 + (xx - cx) ** 2 <= half * half
    else:  # triangle, apex up
        rel = yy - (cy - half)
        mask = (rel >= 0) & (rel <= size) & (np.abs(xx - cx) * 2 <= rel)
    img[mask] = COLORS[color]
    return img


def _existence_ordinal(index: int) -> int:
    """How many existence questions precede this index in the cycle."""
    return 2 * (index // 4) + (1 if index % 4 == 3 else 0)


def make_sample(seed: int, split: str, index: int) -> Tuple[np.ndarray, dict]:
    """Deterministically build sample `index` of a split: (pixels, record)."""
    rng = Rng(seed).split("synth").split(split).split(str(index))
    color = rng.choice(COLOR_NAMES)
    shape = rng.choice(SHAPES)
    quadrant = int(rng.integers(0, 4))
    pixels = _draw_scene(color, shape, quadrant, rng)

    kind = CATEGORIES[min(index % 4, 2)]
    if kind == "color":
        question, answer = COLOR_QUESTION, color
    elif kind == "shape":
        question, answer = SHAPE_QUESTION, shape
    else:
        want_yes = _existence_ordinal(index) % 2 == 0
        probe_color = bool(rng.integers(0, 2))
        if probe_color:
            attr = color if want_yes else rng.choice(
                tuple(c for c in COLOR_NAMES if c != color))
            question = EXIST_COLOR_QUESTION.format(attr)
        else:
            attr = shape if want_yes else rng.choice(
                tuple(s for s in SHAPES if s != shape))
            question = EXIST_SHAPE_QUESTION.format(attr)
        answer = "yes" if want_yes else "no"

    sample_id = f"{split}_{index:05d}"
    record = {
        "id": sample_id,
        "image": f"images/{sample_id}.ppm",
        "conversations": [
            {"from": "human", "value": f"<image>\n{question}"},
            {"from": "gpt", "value": answer},
        ],
        "gold": answer,
        "category": kind,
    }
    return pixels, record


def synth_vqa_generate(out_dir: str, n: int, seed: int, split: str) -> str:
    """Write `n` samples of a split under out_dir; returns the JSON path."""
    require_int("n", n, 1)
    require_int("seed", seed)       # before anything is written
    if split not in ("train", "heldout"):
        raise ValidationError(f"split must be 'train' or 'heldout', got {split!r}")
    images_dir = os.path.join(out_dir, "images")
    os.makedirs(images_dir, exist_ok=True)
    records: List[dict] = []
    for i in range(n):
        pixels, record = make_sample(seed, split, i)
        write_ppm(os.path.join(out_dir, record["image"]), pixels)
        records.append(record)
    json_path = os.path.join(out_dir, f"{split}.json")
    with open(json_path, "w", encoding="utf-8") as fh:
        json.dump(records, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return json_path
