"""Shared test helpers: random multilingual conversations, the fuzz profile, the
reference bilinear resize, the reference tokenizer walk and the decoded text
of ids with EOS shown."""

import numpy as np
from hypothesis import settings

from vlmkit.data import (BOS_ID, EOS_ID, IMAGE_ID, IMAGE_PLACEHOLDER, ByteTokenizer, Conversation,
                         Turn)
from vlmkit.data.templates import template_segments
from vlmkit.errors import ValidationError
from vlmkit.numerics.ops import IGNORE_INDEX

# Fuzz tests see the same examples on every run, with no per-example time
# limit, so a slow or loaded machine cannot make them flake.
settings.register_profile("fuzz", derandomize=True, deadline=None, max_examples=200,
                          database=None)
FUZZ = settings.get_profile("fuzz")

# Mixed-script words exercise multi-byte UTF-8 through the byte tokenizer.
WORDS = [
    "red", "square", "grid", "shape", "tiny", "alignment", "café",
    "naïve", "δοκιμή", "проба", "日本語", "emoji🙂", "answer",
]


def random_text(rng: np.random.Generator, lo=1, hi=5) -> str:
    k = int(rng.integers(lo, hi + 1))
    return " ".join(WORDS[int(rng.integers(0, len(WORDS)))] for _ in range(k))


def random_conversation(rng: np.random.Generator, conv_id="c", with_image=None) -> Conversation:
    if with_image is None:
        with_image = bool(rng.integers(0, 2))
    n_pairs = int(rng.integers(1, 4))
    turns = []
    for i in range(n_pairs):
        human = random_text(rng)
        if i == 0 and with_image:
            human = "<image>\n" + human
        turns.append(Turn("human", human))
        turns.append(Turn("assistant", random_text(rng)))
    return Conversation(
        id=conv_id,
        image_path="images/x.ppm" if with_image else None,
        turns=turns,
    )


def reference_bilinear_resize(img: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """Half-pixel-center bilinear resize with its positions, taps and weights
    rebuilt on every call; `bilinear_resize` must match it bit for bit."""
    c, h, w = img.shape
    if h == out_h and w == out_w:
        return img.astype(np.float32, copy=True)
    ys = np.clip((np.arange(out_h) + 0.5) * h / out_h - 0.5, 0, h - 1)
    xs = np.clip((np.arange(out_w) + 0.5) * w / out_w - 0.5, 0, w - 1)
    y0 = np.floor(ys).astype(np.int64)
    x0 = np.floor(xs).astype(np.int64)
    y1 = np.minimum(y0 + 1, h - 1)
    x1 = np.minimum(x0 + 1, w - 1)
    wy = (ys - y0)[None, :, None]
    wx = (xs - x0)[None, None, :]
    top = img[:, y0][:, :, x0] * (1 - wx) + img[:, y0][:, :, x1] * wx
    bot = img[:, y1][:, :, x0] * (1 - wx) + img[:, y1][:, :, x1] * wx
    return (top * (1 - wy) + bot * wy).astype(np.float32)


# How decoded text shows EOS, which `ByteTokenizer.decode` drops.
EOS_MARK = "</s>"
_TOK = ByteTokenizer()


def decode_with_eos(ids) -> str:
    """Decode ids, writing each EOS as EOS_MARK."""
    ids = np.asarray(ids)
    return EOS_MARK.join(_TOK.decode(part) for part in np.split(ids, np.where(ids == EOS_ID)[0]))


def reference_tokenize(conv: Conversation, tpl, prompt: bool):
    """Ids, labels (int32) and image index of `conv` under `tpl`, built as
    lists one segment at a time and searched for the image token afterwards;
    `tokenize_and_label` and `tokenize_prompt` must match it byte for byte.

    It refuses a placeholder split across segments by its own rule, on text:
    the segments joined with nothing (BOS as "", EOS as EOS_MARK) hold more
    "<image>" than joined with NUL, which breaks every one that spans two.
    """
    segments = list(template_segments(conv, tpl, prompt))
    texts = [{BOS_ID: "", EOS_ID: EOS_MARK}.get(piece, piece) for piece, _ in segments]
    if "".join(texts).count(IMAGE_PLACEHOLDER) != "\0".join(texts).count(IMAGE_PLACEHOLDER):
        raise ValidationError(
            f"conversation '{conv.id}': text split across template pieces joins into "
            f"'{IMAGE_PLACEHOLDER}', which would render as a placeholder that is not one")
    ids, labels = [], []
    for piece, supervised in segments:
        if isinstance(piece, int):
            seg = [piece]
        else:
            seg = []
            for i, part in enumerate(piece.split(IMAGE_PLACEHOLDER)):
                if i:
                    seg.append(IMAGE_ID)
                seg.extend(part.encode("utf-8"))
        ids.extend(seg)
        labels.extend(seg if supervised else [IGNORE_INDEX] * len(seg))
    image_index = ids.index(IMAGE_ID) if IMAGE_ID in ids else None
    return np.asarray(ids, dtype=np.int32), np.asarray(labels, dtype=np.int32), image_index
