"""Binary PPM (P6) image I/O, bilinear resizing, and model preprocessing.

PPM is the only codec: dependency-free and bit-exact. Loaded images are
channel-first float32 [3, H, W] with values byte/255 in [0, 1].

A header is the magic `P6`, then width, height and maxval, each a decimal
integer (`-?[0-9]+`) after a gap of one or more whitespace bytes and `#`
comments, then exactly one whitespace byte before the pixel data. A comment
runs through the next newline and may follow a field directly. Whitespace
is space, tab, CR, LF, VT or FF. Width and height must be positive and
maxval 255.

`load_ppm` opens a file with `os.open` and reads it whole with `os.read`,
sized by `os.fstat`, so no buffered reader is built per image; the pixels
are a view of the bytes read, converted to float32 once.

`bilinear_resize` reads its source indices and weights from `_taps`, one
call per axis, cached by (input size, output size) for that axis alone: a
dataset of mixed image sizes adds one entry per distinct height or width,
not one per (H, W) pair. Each entry holds both taps of an output position,
the weight w and its complement 1 - w among them, so a call computes no
weight. The cache keeps the 64 most recently used axes, and its arrays are
read-only, since every call shares them. A call gathers the four source
pixels of every output pixel with one take per axis; multiplying them by
their column weights is the one cast to float64 (what a float32 pixel times
a float64 weight promotes to), the sums and row weights then run in place
in the order of the two-pass formula, and one cast returns float32.
`preprocess_image` normalizes that fresh array in place.
"""

from __future__ import annotations

import functools
import io
import os
import re

import numpy as np

from ..errors import ValidationError, path_error, require_int

# Per-channel normalization of a resized image: (pixel - mean) / std.
PIXEL_MEAN = np.full((3, 1, 1), 0.5, dtype=np.float32)
PIXEL_STD = np.full((3, 1, 1), 0.5, dtype=np.float32)

# Whitespace and '#' comments, each comment running through its newline.
_PPM_GAP = rb"(?:\s|#[^\n]*\n)+"
_PPM_HEADER = re.compile(rb"P6" + (_PPM_GAP + rb"(-?[0-9]+)") * 3 + rb"\s")


def _read(path) -> bytes:
    """The whole file, by os.read calls of its fstat size (at least
    io.DEFAULT_BUFFER_SIZE) until one returns nothing: a regular file's bytes
    come in the first call, and a file that grew or that fstat cannot size
    still reads whole."""
    fd = os.open(path, os.O_RDONLY)
    try:
        step = max(os.fstat(fd).st_size, io.DEFAULT_BUFFER_SIZE)
        chunks = []
        while True:
            chunk = os.read(fd, step)
            if not chunk:
                return b"".join(chunks)
            chunks.append(chunk)
    finally:
        os.close(fd)


def load_ppm(path: str) -> np.ndarray:
    try:
        blob = _read(path)
    except (OSError, ValueError) as exc:
        raise path_error(path, "read", exc) from None
    header = _PPM_HEADER.match(blob)
    if header is None:
        raise ValidationError(f"{path}: not a binary PPM header ('P6', width, height, "
                              "maxval, one whitespace byte)")
    width, height, maxval = (int(f) for f in header.groups())
    for name, value in (("width", width), ("height", height)):
        if value <= 0:
            raise ValidationError(f"{path}: PPM {name} must be positive, got {value}")
    if maxval != 255:
        raise ValidationError(f"{path}: PPM maxval must be 255, got {maxval}")
    pos = header.end()
    need = width * height * 3
    if len(blob) - pos < need:
        raise ValidationError(f"{path}: truncated PPM data, want {need} bytes "
                              f"got {len(blob) - pos}")
    arr = np.frombuffer(blob, dtype=np.uint8, count=need, offset=pos).reshape(height, width, 3)
    # One float32 array, channels first in memory too.
    img = arr.transpose(2, 0, 1).astype(np.float32, order="C")
    img /= np.float32(255.0)
    return img


def write_ppm(path: str, pixels: np.ndarray):
    """Write uint8 pixels of shape [H, W, 3] as binary PPM."""
    if pixels.ndim != 3 or pixels.shape[2] != 3:
        raise ValidationError(f"write_ppm expects [H, W, 3] pixels, got {pixels.shape}")
    pixels = np.ascontiguousarray(pixels, dtype=np.uint8)
    h, w = pixels.shape[:2]
    try:
        with open(path, "wb") as fh:
            fh.write(f"P6\n{w} {h}\n255\n".encode("ascii"))
            fh.write(pixels.tobytes())
    except (OSError, ValueError) as exc:
        raise path_error(path, "write", exc) from None


@functools.lru_cache(maxsize=64)
def _taps(n_in: int, n_out: int):
    """Half-pixel-center source taps of one axis as (index, weight), each of
    length 2 * n_out: output position k reads index[k] with weight[k] and
    index[n_out + k] with weight[n_out + k], the complement of weight[k]."""
    pos = np.clip((np.arange(n_out) + 0.5) * n_in / n_out - 0.5, 0, n_in - 1)
    i0 = np.floor(pos).astype(np.int64)
    w = pos - i0
    taps = (np.concatenate([i0, np.minimum(i0 + 1, n_in - 1)]), np.concatenate([1 - w, w]))
    for a in taps:
        a.flags.writeable = False
    return taps


def bilinear_resize(img: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """Half-pixel-center bilinear resize of a [C, H, W] image to float32
    [C, out_h, out_w], weighted in float64; a same-size image is copied."""
    out_h = require_int("out_h", out_h, 1)
    out_w = require_int("out_w", out_w, 1)
    if not isinstance(img, np.ndarray) or img.ndim != 3:
        raise ValidationError(f"img must be a [C, H, W] array, "
                              f"got {getattr(img, 'shape', type(img).__name__)}")
    _, h, w = img.shape
    if h == 0 or w == 0:
        raise ValidationError(f"img must have a non-zero height and width, got {img.shape}")
    if h == out_h and w == out_w:
        return img.astype(np.float32, copy=True)
    rows, row_weight = _taps(h, out_h)
    cols, col_weight = _taps(w, out_w)
    # The four source pixels of each output pixel, each times its column
    # weight: the one cast, to the float64 a float32 pixel promotes to.
    corners = img.take(rows, axis=1).take(cols, axis=2) * col_weight
    # Left plus right, then top and bottom rows weighted, then top plus bottom.
    sides = corners[:, :, :out_w] + corners[:, :, out_w:]
    sides *= row_weight[:, None]
    return (sides[:, :out_h] + sides[:, out_h:]).astype(np.float32)


def preprocess_image(img: np.ndarray, target: int, aspect_mode: str = "square") -> np.ndarray:
    """Resize to [3, target, target] and normalize per channel by PIXEL_MEAN and
    PIXEL_STD.

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
    require_int("target", target, 1)

    if aspect_mode == "pad" and h != w:
        side = max(h, w)
        fill = img.reshape(3, -1).mean(axis=1)
        canvas = np.broadcast_to(fill[:, None, None], (3, side, side)).copy()
        top = (side - h) // 2
        left = (side - w) // 2
        canvas[:, top:top + h, left:left + w] = img
        img = canvas

    resized = bilinear_resize(img.astype(np.float32, copy=False), target, target)
    resized -= PIXEL_MEAN
    resized /= PIXEL_STD
    return resized
