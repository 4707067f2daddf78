"""Binary PPM (P6) image I/O, bilinear resizing, and model preprocessing.

PPM is the only codec: dependency-free and bit-exact. Loaded images are
channel-first float32 [3, H, W] with values byte/255 in [0, 1].
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..errors import ValidationError


def load_ppm(path: str) -> np.ndarray:
    try:
        with open(path, "rb") as fh:
            blob = fh.read()
    except OSError as exc:
        raise ValidationError(f"{path}: cannot read ({exc.strerror})") from None
    if not blob.startswith(b"P6"):
        raise ValidationError(f"{path}: not a binary PPM (P6) file")

    # Header: magic, width, height, maxval, each separated by whitespace;
    # '#' starts a comment running to end of line.
    pos, fields = 2, []
    while len(fields) < 3:
        while pos < len(blob) and blob[pos:pos + 1].isspace():
            pos += 1
        if pos < len(blob) and blob[pos:pos + 1] == b"#":
            while pos < len(blob) and blob[pos] != 0x0A:
                pos += 1
            continue
        start = pos
        while pos < len(blob) and not blob[pos:pos + 1].isspace():
            pos += 1
        if start == pos:
            raise ValidationError(f"{path}: truncated PPM header")
        fields.append(blob[start:pos])
    pos += 1  # single whitespace byte after maxval

    try:
        width, height, maxval = (int(f) for f in fields)
    except ValueError:
        raise ValidationError(f"{path}: malformed PPM header fields {fields}") from None
    for name, value in (("width", width), ("height", height)):
        if value <= 0:
            raise ValidationError(f"{path}: PPM {name} must be positive, got {value}")
    if maxval != 255:
        raise ValidationError(f"{path}: PPM maxval must be 255, got {maxval}")
    need = width * height * 3
    raw = blob[pos:pos + need]
    if len(raw) != need:
        raise ValidationError(f"{path}: truncated PPM data, want {need} bytes got {len(raw)}")

    arr = np.frombuffer(raw, dtype=np.uint8).reshape(height, width, 3)
    return (arr.astype(np.float32) / 255.0).transpose(2, 0, 1)


def write_ppm(path: str, pixels: np.ndarray):
    """Write uint8 pixels of shape [H, W, 3] as binary PPM."""
    if pixels.ndim != 3 or pixels.shape[2] != 3:
        raise ValidationError(f"write_ppm expects [H, W, 3] pixels, got {pixels.shape}")
    pixels = np.ascontiguousarray(pixels, dtype=np.uint8)
    h, w = pixels.shape[:2]
    with open(path, "wb") as fh:
        fh.write(f"P6\n{w} {h}\n255\n".encode("ascii"))
        fh.write(pixels.tobytes())


def bilinear_resize(img: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """Half-pixel-center bilinear resize of a [C, H, W] float image."""
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


def preprocess_image(img: np.ndarray, target: int, aspect_mode: str = "square",
                     mean: Sequence[float] = (0.5, 0.5, 0.5),
                     std: Sequence[float] = (0.5, 0.5, 0.5)) -> np.ndarray:
    """Resize to [3, target, target] and normalize per channel.

    "square" resizes directly; "pad" first pads the shorter side with the
    image's per-channel mean color (centered, extra pixel at bottom/right),
    then resizes.
    """
    if img.ndim != 3 or img.shape[0] != 3:
        raise ValidationError(f"expected [3, H, W] image, got shape {img.shape}")
    _, h, w = img.shape
    if h == 0 or w == 0:
        raise ValidationError("image has a zero-sized dimension")
    if aspect_mode not in ("square", "pad"):
        raise ValidationError(f"aspect_mode must be 'square' or 'pad', got '{aspect_mode}'")

    if aspect_mode == "pad" and h != w:
        side = max(h, w)
        fill = img.reshape(3, -1).mean(axis=1)
        canvas = np.broadcast_to(fill[:, None, None], (3, side, side)).copy()
        top = (side - h) // 2
        left = (side - w) // 2
        canvas[:, top:top + h, left:left + w] = img
        img = canvas

    resized = bilinear_resize(img.astype(np.float32), target, target)
    mean = np.asarray(mean, dtype=np.float32).reshape(3, 1, 1)
    std = np.asarray(std, dtype=np.float32).reshape(3, 1, 1)
    return (resized - mean) / std
